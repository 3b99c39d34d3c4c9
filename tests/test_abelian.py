import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiaxial.abelian import FGAbelianGroup


def test_canonical_form_merges_coprime_orders():
    assert FGAbelianGroup.from_orders([2, 3]) == FGAbelianGroup(0, ((6, 1),))
    assert FGAbelianGroup.from_orders([6, 4]) == FGAbelianGroup.from_orders([12, 2])
    assert FGAbelianGroup.from_orders([0, 4, 2]) == FGAbelianGroup(1, ((2, 1), (4, 1)))


def test_zero_orders_become_free_rank():
    assert FGAbelianGroup.from_orders([0, 0, 1]) == FGAbelianGroup.free(2)
    assert FGAbelianGroup.from_orders([]) == FGAbelianGroup.trivial()


def test_constructor_rejects_non_chain():
    with pytest.raises(ValueError):
        FGAbelianGroup(0, ((4, 1), (2, 1)))
    with pytest.raises(ValueError):
        FGAbelianGroup(0, ((1, 1),))
    with pytest.raises(ValueError):
        FGAbelianGroup(-1, ())
    # runs are merged and nonempty, so the encoding stays canonical
    with pytest.raises(ValueError):
        FGAbelianGroup(0, ((2, 1), (2, 1)))
    with pytest.raises(ValueError):
        FGAbelianGroup(0, ((2, 0),))
    # an expanded torsion tuple is a stale call site, not a group
    with pytest.raises(TypeError):
        FGAbelianGroup(0, (2, 2))
    # a list of runs would compare unequal to the same tuple and not hash
    with pytest.raises(TypeError):
        FGAbelianGroup(0, [(2, 1)])
    # ranks, orders and multiplicities are ints, and a bool is not one
    with pytest.raises(TypeError):
        FGAbelianGroup(0, ((2.5, 1),))
    with pytest.raises(TypeError):
        FGAbelianGroup(2.0)
    with pytest.raises(TypeError):
        FGAbelianGroup(0, ((2.0, 1),))
    with pytest.raises(TypeError):
        FGAbelianGroup(True)
    # so are the orders of from_orders, even the ones it drops or counts as Z
    with pytest.raises(TypeError, match="order 0.0 is not an int"):
        FGAbelianGroup.from_orders([0.0])
    with pytest.raises(TypeError, match="order True is not an int"):
        FGAbelianGroup.from_orders([True])


def test_direct_sum_of_two_torsion():
    z4_z2 = FGAbelianGroup(4, ((2, 2),))
    assert FGAbelianGroup(4, ((2, 1),)).direct_sum(FGAbelianGroup(0, ((2, 1),))) == z4_z2
    assert z4_z2.direct_sum(FGAbelianGroup.trivial()) == z4_z2


def test_rendering():
    assert str(FGAbelianGroup.trivial()) == "0"
    assert str(FGAbelianGroup.free(1)) == "Z"
    assert str(FGAbelianGroup(4, ((2, 2),))) == "Z^4 ⊕ Z_2^2"
    assert str(FGAbelianGroup(0, ((2, 1), (4, 1)))) == "Z_2 ⊕ Z_4"


def test_json_shape():
    assert FGAbelianGroup(3, ((2, 1),)).to_json() == {
        "free_rank": 3, "torsion": [[2, 1]],
    }


def test_embeds_in_free_and_torsion():
    assert FGAbelianGroup(1, ((2, 1),)).embeds_in(FGAbelianGroup(2, ((2, 2),)))
    assert not FGAbelianGroup(2, ()).embeds_in(FGAbelianGroup(1, ((2, 2),)))
    assert not FGAbelianGroup(0, ((2, 1),)).embeds_in(FGAbelianGroup(5, ()))
    # order considerations, not just counts
    z4 = FGAbelianGroup(0, ((4, 1),))
    z2z2 = FGAbelianGroup(0, ((2, 2),))
    assert not z4.embeds_in(z2z2)
    assert not z2z2.embeds_in(z4)
    assert z4.embeds_in(FGAbelianGroup(0, ((8, 1),)))


def test_embeds_in_is_reflexive_on_spot_values():
    for group in [
        FGAbelianGroup.trivial(),
        FGAbelianGroup(4, ((2, 2),)),
        FGAbelianGroup(1, ((2, 1), (4, 1), (8, 1))),
    ]:
        assert group.embeds_in(group)


orders = st.lists(st.integers(min_value=0, max_value=24), max_size=6)


def invariant_factors(group):
    """Torsion chain followed by one 0 per free summand, fully expanded."""
    expanded = tuple(d for d, count in group.torsion for _ in range(count))
    return expanded + (0,) * group.free_rank


@given(orders, orders)
def test_direct_sum_commutes(left, right):
    a = FGAbelianGroup.from_orders(left)
    b = FGAbelianGroup.from_orders(right)
    assert a.direct_sum(b) == b.direct_sum(a)


@given(st.lists(orders, min_size=1, max_size=5))
def test_direct_sum_of_many_is_the_pairwise_fold_and_from_orders(parts):
    groups = [FGAbelianGroup.from_orders(part) for part in parts]
    folded = groups[0]
    for group in groups[1:]:
        folded = folded.direct_sum(group)
    assert FGAbelianGroup.direct_sum(*groups) == folded
    assert folded == FGAbelianGroup.from_orders(
        [order for part in parts for order in part]
    )


@given(orders)
def test_canonicalization_is_idempotent(raw):
    group = FGAbelianGroup.from_orders(raw)
    assert FGAbelianGroup.from_orders(invariant_factors(group)) == group


@given(orders, orders)
def test_summands_embed_in_direct_sum(left, right):
    a = FGAbelianGroup.from_orders(left)
    b = FGAbelianGroup.from_orders(right)
    total = a.direct_sum(b)
    assert a.embeds_in(total)
    assert b.embeds_in(total)


def expanded_torsion(orders):
    """Reference invariant factors of a list of cyclic orders, built from
    their primary parts without the group algebra: per prime the exponents
    sorted from the top, the i-th largest factor the product of every
    prime's i-th largest power.  small_orders uses only 2, 3, 5 and 7."""
    exponents = {}
    for d in orders:
        for p in (2, 3, 5, 7):
            e = 0
            while d > 1 and d % p == 0:
                d, e = d // p, e + 1
            if e:
                exponents.setdefault(p, []).append(e)
        assert d in (0, 1), "order with a prime above 7"
    factors = [1] * max(map(len, exponents.values()), default=0)
    for p, powers in exponents.items():
        for i, e in enumerate(sorted(powers, reverse=True)):
            factors[i] *= p**e
    return factors[::-1]


def expanded_embeds(mine, theirs):
    """Reference embedding test on expanded order lists: for every prime p
    and exponent e, at least as many summands divisible by p^e."""
    for p in (2, 3, 5, 7):
        for e in range(1, 6):
            needed = sum(1 for d in mine if d % p**e == 0)
            if needed > sum(1 for d in theirs if d % p**e == 0):
                return False
    return True


def torsion_of(group):
    return [d for d in invariant_factors(group) if d]


small_orders = st.lists(
    st.sampled_from(
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 25, 30, 36, 49, 210]
    ),
    max_size=8,
)


@given(small_orders, small_orders)
def test_run_algebra_matches_expanded_reference(left, right):
    a = FGAbelianGroup.from_orders(left)
    b = FGAbelianGroup.from_orders(right)
    assert torsion_of(a) == expanded_torsion(left)
    total = a.direct_sum(b)
    assert total.free_rank == left.count(0) + right.count(0)
    assert torsion_of(total) == expanded_torsion(left + right)
    assert a.embeds_in(b) == (
        a.free_rank <= b.free_rank
        and expanded_embeds(torsion_of(a), torsion_of(b))
    )


def test_large_multiplicities_stay_run_length():
    big = FGAbelianGroup.with_two_torsion(10**12, 10**15)
    total = big.direct_sum(FGAbelianGroup(0, ((2, 3), (4, 10**15))))
    assert total == FGAbelianGroup(10**12, ((2, 10**15 + 3), (4, 10**15)))
    assert big.embeds_in(total) and not total.embeds_in(big)
    assert str(total) == f"Z^{10**12} ⊕ Z_2^{10**15 + 3} ⊕ Z_4^{10**15}"


def test_coprime_runs_merge_run_length():
    left = FGAbelianGroup(0, ((6, 10**15),))
    right = FGAbelianGroup(0, ((10, 10**12),))
    expected = FGAbelianGroup(
        0, ((2, 10**12), (6, 10**15 - 10**12), (30, 10**12))
    )
    assert left.direct_sum(right) == expected == right.direct_sum(left)


def test_large_prime_orders_are_never_factored():
    # a 61-bit prime: trial division would try about 10**9 candidates
    p = 2**61 - 1
    z_p = FGAbelianGroup(0, ((p, 1),))
    z_2p = FGAbelianGroup(0, ((2 * p, 1),))
    started = time.perf_counter()
    assert z_p.direct_sum(FGAbelianGroup(0, ((2, 1),))) == z_2p
    assert z_p.embeds_in(z_2p)
    assert not z_p.embeds_in(FGAbelianGroup.with_two_torsion(0, 5))
    assert FGAbelianGroup.from_orders([p, p, 2]) == z_p.direct_sum(z_2p)
    assert time.perf_counter() - started < 0.5


def factor_at(chain, i):
    """The i-th largest factor of a run-length chain, 1 past its end."""
    for order, count in reversed(chain):
        if i <= count:
            return order
        i -= count
    return 1


def positional_embeds(mine, theirs):
    """Reference embedding test: position by position from the largest
    factor, checked at every run end of both chains, where either factor
    may change."""
    ends = set()
    for chain in (mine.torsion, theirs.torsion):
        end = 0
        for _, count in reversed(chain):
            end += count
            ends.add(end)
    return mine.free_rank <= theirs.free_rank and all(
        factor_at(theirs.torsion, i) % factor_at(mine.torsion, i) == 0
        for i in ends
    )


multiplicities = st.one_of(
    st.integers(1, 4), st.integers(1, 10**15), st.just(10**15)
)


@st.composite
def run_chains(draw):
    """A divisibility chain of up to four runs, multiplicities up to 10**15."""
    chain, order = [], 1
    for step in draw(st.lists(st.sampled_from([2, 3, 4, 6]), max_size=4)):
        order *= step
        chain.append((order, draw(multiplicities)))
    return FGAbelianGroup(draw(st.integers(0, 3)), tuple(chain))


@st.composite
def embedding_pairs(draw):
    """(self, other): other unrelated, equal, a bottom or top slice of self
    with its own free rank, self with one multiplicity moved by up to 3 (so
    other's factor can change inside a run of self), or a sum containing
    self."""
    mine = draw(run_chains())
    runs = mine.torsion
    free = draw(st.integers(0, 3))
    shape = draw(st.sampled_from(["moved", "slice", "sum", "equal", "apart"]))
    if shape == "moved" and runs:
        i = draw(st.integers(0, len(runs) - 1))
        shift = draw(st.sampled_from([-3, -2, -1, 1, 2]))
        runs = runs[:i] + ((runs[i][0], max(1, runs[i][1] + shift)),) + runs[i + 1:]
        return mine, FGAbelianGroup(free, runs)
    if shape == "slice":
        cut = draw(st.integers(0, len(runs)))
        return mine, FGAbelianGroup(free, draw(st.sampled_from([runs[:cut], runs[cut:]])))
    if shape == "sum":
        return mine, mine.direct_sum(draw(run_chains()))
    if shape == "equal":
        return mine, mine
    return mine, draw(run_chains())


@given(embedding_pairs())
def test_embeds_in_matches_positional_reference(pair):
    mine, theirs = pair
    assert mine.embeds_in(theirs) == positional_embeds(mine, theirs)
    assert theirs.embeds_in(mine) == positional_embeds(theirs, mine)
