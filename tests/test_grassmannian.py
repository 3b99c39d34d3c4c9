import itertools
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiaxial.abelian import FGAbelianGroup
from multiaxial.family import Family
from multiaxial.grassmannian import count_A_B
from multiaxial.structure_set import reduced_l_homology


def brute_force_partitions(n, bound):
    """Independent route: filter the full product for monotone tuples."""
    if bound < 0:
        return []
    return [
        t
        for t in itertools.product(range(bound + 1), repeat=n)
        if all(a <= b for a, b in zip(t, t[1:]))
    ]


def box_partitions(n, bound):
    """The n by bound box, listed at a cost of one tuple per partition."""
    return list(itertools.combinations_with_replacement(range(bound + 1), n))


def parity_split(partitions, offset=0):
    """(even, odd) counts of the partitions by the parity of |mu| + offset."""
    odd = sum(1 for mu in partitions if (sum(mu) + offset) % 2)
    return len(partitions) - odd, odd


def listed_counts(n, k, family):
    """count_A_B(n, k) and reduced_l_homology(family, n, k) by listing the
    box: the reduced group has a Z per even and a Z_2 per odd cell of the
    part of it that stays below column k - n, with the complex parity
    offset by k*n, as the paper states it, and every quaternionic cell
    even."""
    box = box_partitions(n, k - n)
    inner = [mu for mu in box if mu[-1] < k - n]
    if family is Family.COMPLEX:
        reduced = parity_split(inner, k * n)
    else:
        reduced = len(inner), 0
    return parity_split(box), FGAbelianGroup.with_two_torsion(*reduced)


def two_ranks(group):
    """(free rank, number of Z_2) of a group whose torsion is all Z_2."""
    assert all(order == 2 for order, _ in group.torsion), group
    return group.free_rank, sum(count for _, count in group.torsion)


def test_enumeration_matches_brute_force():
    # the listing that serves at larger sizes is the brute-force box
    for n in range(1, 4):
        for bound in range(-1, 5):
            assert box_partitions(n, bound) == brute_force_partitions(n, bound)


def test_count_A_B_examples():
    for n in range(1, 5):
        assert tuple(count_A_B(n, n)) == (1, 0)
    assert tuple(count_A_B(2, 4)) == (4, 2)
    assert tuple(count_A_B(1, 3)) == (2, 1)


def test_reduced_group_examples():
    # at k = n the box one column smaller is empty, in both families
    for family in Family:
        for n in range(1, 5):
            assert reduced_l_homology(family, n, n) == FGAbelianGroup.trivial()
        assert reduced_l_homology(family, 1, 2) == FGAbelianGroup.free(1)
    expected = FGAbelianGroup.with_two_torsion(4, 2)
    assert reduced_l_homology(Family.COMPLEX, 2, 5) == expected


def test_domain_errors():
    with pytest.raises(ValueError):
        count_A_B(3, 2)
    for family in Family:
        with pytest.raises(ValueError):
            reduced_l_homology(family, 3, 2)


def test_counting_identities_up_to_nine():
    for n in range(1, 10):
        for k in range(n, 10):
            a, b = count_A_B(n, k)
            assert a + b == comb(k, n)
            reduced = reduced_l_homology(Family.COMPLEX, n, k)
            assert sum(two_ranks(reduced)) == comb(k - 1, n)
            quaternionic = reduced_l_homology(Family.QUATERNIONIC, n, k)
            assert quaternionic == FGAbelianGroup.free(comb(k - 1, n))
            if k > n:
                assert (a, b) == tuple(count_A_B(k - n, k))


@given(st.integers(1, 4), st.integers(0, 5))
def test_parity_split_matches_brute_force(n, gap):
    k = n + gap
    a, b = count_A_B(n, k)
    brute = brute_force_partitions(n, gap)
    assert a == sum(1 for t in brute if sum(t) % 2 == 0)
    assert b == sum(1 for t in brute if sum(t) % 2 == 1)


@given(st.integers(1, 16), st.integers(0, 15), st.sampled_from(list(Family)))
def test_formula_counts_match_enumeration(n, gap, family):
    k = min(n + gap, 16)
    assert (count_A_B(n, k), reduced_l_homology(family, n, k)) == listed_counts(
        n, k, family
    )


def test_formula_counts_at_large_sizes():
    # C(450, 200) has over 130 digits; the counts must still split it exactly
    a, b = count_A_B(200, 450)
    assert a + b == comb(450, 200)
    assert a - b == comb(225, 100)
    # the reduced split by the paper's offset k*n: even at (200, 450), so
    # [449 choose 200] at q = -1; odd at (201, 451), where that is 0
    ra, rb = two_ranks(reduced_l_homology(Family.COMPLEX, 200, 450))
    assert (ra + rb, ra - rb) == (comb(449, 200), comb(224, 100))
    ra, rb = two_ranks(reduced_l_homology(Family.COMPLEX, 201, 451))
    assert (ra + rb, ra - rb) == (comb(450, 201), 0)
