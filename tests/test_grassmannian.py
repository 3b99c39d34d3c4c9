import itertools
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiaxial.family import Family
from multiaxial.grassmannian import count_A_B, count_a_b


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
    """count_A_B(n, k) and count_a_b(n, k, family) by listing the box: the
    reduced counts split the part of it that stays below column k - n, with
    the complex parity offset by k*n and every quaternionic cell even."""
    box = box_partitions(n, k - n)
    inner = [mu for mu in box if mu[-1] < k - n]
    if family is Family.COMPLEX:
        return parity_split(box), parity_split(inner, k * n)
    return parity_split(box), (len(inner), 0)


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


def test_count_a_b_examples():
    assert tuple(count_a_b(2, 2, Family.COMPLEX)) == (0, 0)
    assert tuple(count_a_b(1, 2, Family.COMPLEX)) == (1, 0)
    assert tuple(count_a_b(1, 2, Family.QUATERNIONIC)) == (1, 0)


def test_domain_errors():
    with pytest.raises(ValueError):
        count_A_B(3, 2)
    with pytest.raises(ValueError):
        count_a_b(3, 2, Family.COMPLEX)


def test_counting_identities_up_to_nine():
    for n in range(1, 10):
        for k in range(n, 10):
            a, b = count_A_B(n, k)
            assert a + b == comb(k, n)
            ra, rb = count_a_b(n, k, Family.COMPLEX)
            assert ra + rb == comb(k - 1, n)
            qa, qb = count_a_b(n, k, Family.QUATERNIONIC)
            assert (qa, qb) == (comb(k - 1, n), 0)
            if k > n:
                assert (ra, rb) == tuple(count_A_B(n, k - 1))
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
    assert (count_A_B(n, k), count_a_b(n, k, family)) == listed_counts(n, k, family)


def test_formula_counts_at_large_sizes():
    # C(450, 200) has over 130 digits; the counts must still split it exactly
    a, b = count_A_B(200, 450)
    assert a + b == comb(450, 200)
    assert a - b == comb(225, 100)
    ra, rb = count_a_b(200, 450, Family.COMPLEX)
    assert ra + rb == comb(449, 200)
    assert (ra, rb) == tuple(count_A_B(200, 449))
