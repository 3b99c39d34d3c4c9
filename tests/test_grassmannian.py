import itertools
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiaxial.family import Family
from multiaxial.grassmannian import (
    count_A_B,
    count_A_B_oracle,
    count_a_b,
    count_a_b_oracle,
    enumerate_box_partitions,
    grassmannian_betti,
)


def brute_force_partitions(n, bound):
    """Independent route: filter the full product for monotone tuples."""
    if bound < 0:
        return []
    return [
        t
        for t in itertools.product(range(bound + 1), repeat=n)
        if all(a <= b for a, b in zip(t, t[1:]))
    ]


def test_listed_enumeration():
    assert enumerate_box_partitions(2, 2) == [
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2),
    ]
    assert enumerate_box_partitions(3, 0) == [(0, 0, 0)]
    assert enumerate_box_partitions(1, -1) == []


def test_enumeration_rejects_zero_parts():
    with pytest.raises(ValueError):
        enumerate_box_partitions(0, 3)


def test_enumeration_matches_brute_force():
    for n in range(1, 4):
        for bound in range(-1, 5):
            assert enumerate_box_partitions(n, bound) == brute_force_partitions(
                n, bound
            )


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
            if k > n and (k - n) % 2 == 1:
                assert (ra, rb) == tuple(count_A_B(n, k - 1))
            if k > n:
                assert (a, b) == tuple(count_A_B(k - n, k))


def test_betti_examples():
    assert grassmannian_betti(enumerate_box_partitions(1, 2)) == {0: 1, 2: 1, 4: 1}
    betti = grassmannian_betti(enumerate_box_partitions(2, 2))
    assert betti == {0: 1, 2: 1, 4: 2, 6: 1, 8: 1}
    assert sum(betti.values()) == comb(4, 2)


def test_betti_degrees_are_even():
    betti = grassmannian_betti(enumerate_box_partitions(3, 3))
    assert all(degree % 2 == 0 for degree in betti)
    assert sum(betti.values()) == comb(6, 3)


@given(st.integers(1, 4), st.integers(-1, 6))
def test_enumeration_is_sorted_and_duplicate_free(n, bound):
    partitions = enumerate_box_partitions(n, bound)
    assert partitions == sorted(set(partitions))
    expected = comb(bound + n, n) if bound >= 0 else 0
    assert len(partitions) == expected


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
    partitions = enumerate_box_partitions(n, k - n)
    assert count_A_B(n, k) == count_A_B_oracle(partitions)
    assert count_a_b(n, k, family) == count_a_b_oracle(
        n, k, family, partitions
    )


def test_formula_counts_at_large_sizes():
    # C(450, 200) has over 130 digits; the counts must still split it exactly
    a, b = count_A_B(200, 450)
    assert a + b == comb(450, 200)
    assert a - b == comb(225, 100)
    ra, rb = count_a_b(200, 450, Family.COMPLEX)
    assert ra + rb == comb(449, 200)
    assert (ra, rb) == tuple(count_A_B(200, 449))
