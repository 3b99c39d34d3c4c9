from math import comb

import pytest

from multiaxial import homology
from multiaxial.abelian import FGAbelianGroup
from multiaxial.family import Family
from multiaxial.grassmannian import count_A_B, count_a_b, count_a_b_oracle
from multiaxial.l_homology import (
    _torsion_free_ranks,
    assemble_l_homology,
    basepoint_correction,
    l_coefficient,
    read_collapse,
    reduced_l_homology,
    reduced_l_homology_oracle,
    relative_l_homology,
    relative_l_homology_oracle,
    verify_collapse,
)
from multiaxial.orbit_cells import cells_by_degree, orbit_space_dimension

C = Family.COMPLEX
H = Family.QUATERNIONIC

Z = FGAbelianGroup.free(1)
Z2 = FGAbelianGroup(0, ((2, 1),))
ZERO = FGAbelianGroup.trivial()


def test_coefficient_table():
    assert l_coefficient(0) == Z
    assert l_coefficient(2) == Z2
    assert l_coefficient(3) == ZERO
    assert l_coefficient(4) == Z
    assert l_coefficient(6) == Z2
    assert l_coefficient(-2) == ZERO
    assert l_coefficient(-4) == ZERO


def test_assemble_sphere():
    assert assemble_l_homology({2: 1}, 2) == Z


def test_assemble_duality_degrees_of_grassmannian():
    betti = {0: 1, 2: 1, 4: 2, 6: 1, 8: 1}
    d = 11
    relative_input = {d - q: r for q, r in betti.items()}
    assembled = assemble_l_homology(relative_input, d)
    assert assembled == FGAbelianGroup(4, ((2, 2),))


def test_assemble_zero_input():
    assert assemble_l_homology({}, 9) == ZERO


def test_assemble_rejects_negative_degree():
    with pytest.raises(ValueError):
        assemble_l_homology({}, -1)


def test_torsion_input_is_contract_violation():
    with pytest.raises(ValueError):
        _torsion_free_ranks({3: FGAbelianGroup(1, ((2, 1),))})


@pytest.mark.parametrize("family", [C, H], ids=str)
def test_oracles_eliminate_over_z_alone(monkeypatch, family):
    # torsion-free integral homology fixes the mod 2 ranks, so no oracle
    # needs a mod 2 elimination
    def refuse(*args):
        raise AssertionError("an oracle ran a mod 2 elimination")

    for name in ("boundary_ranks_mod2", "sparse_rank_mod2"):
        monkeypatch.setattr(homology, name, refuse)
    n, k = 2, 5
    assert relative_l_homology_oracle(family, n, k) == relative_l_homology(
        family, n, k
    )
    assert reduced_l_homology_oracle(family, n, k) == reduced_l_homology(
        family, n, k
    )
    assert verify_collapse(family, n, k)


def test_relative_examples():
    assert relative_l_homology(C, 2, 4) == FGAbelianGroup(4, ((2, 2),))
    for n in range(1, 5):
        assert relative_l_homology(C, n, n) == Z
    assert relative_l_homology(H, 2, 3) == FGAbelianGroup.free(3)


def test_reduced_examples():
    assert reduced_l_homology(C, 2, 2) == ZERO
    assert reduced_l_homology(C, 1, 2) == Z
    assert reduced_l_homology(H, 1, 2) == Z


def test_closed_forms_match_oracles_on_small_grid():
    for family in (C, H):
        for n in range(1, 4):
            for k in range(n, 7):
                assert relative_l_homology(
                    family, n, k
                ) == relative_l_homology_oracle(family, n, k), (family, n, k)
                assert reduced_l_homology(
                    family, n, k
                ) == reduced_l_homology_oracle(family, n, k), (family, n, k)


def test_quaternionic_counts_are_binomial():
    for n in range(1, 4):
        for k in range(n, 7):
            assert relative_l_homology(H, n, k) == FGAbelianGroup.free(
                comb(k, n)
            )
            assert reduced_l_homology(H, n, k) == FGAbelianGroup.free(
                comb(k - 1, n)
            )


def test_basepoint_examples():
    assert basepoint_correction(C, 1, 2) == Z2
    assert basepoint_correction(C, 2, 3) == ZERO
    assert basepoint_correction(H, 1, 2) == Z
    assert basepoint_correction(H, 3, 4) == Z2
    assert basepoint_correction(H, 2, 3) == ZERO


def test_basepoint_rejects_even_gap():
    with pytest.raises(ValueError):
        basepoint_correction(C, 2, 4)


def test_collapse_examples():
    assert verify_collapse(C, 2, 4)
    assert verify_collapse(C, 1, 5)
    assert verify_collapse(H, 1, 3)


def test_collapse_reports_are_informative():
    report = verify_collapse(C, 2, 4)
    assert report.ok
    assert report.offending_degrees == ()
    assert report.homology_degrees
    assert all(p % 2 == 1 for p in report.homology_degrees)


def test_collapse_grid():
    for family in (C, H):
        for n in range(1, 4):
            for k in range(n, 7):
                assert verify_collapse(family, n, k), (family, n, k)


@pytest.mark.parametrize(
    "call",
    [
        lambda: count_a_b(2, 5, "U"),
        lambda: count_a_b_oracle(2, 5, "U", [(0, 0)]),
        lambda: relative_l_homology("U", 2, 5),
        lambda: read_collapse("U", 2, 5, {}),
        lambda: cells_by_degree("U", 2, 5),
        lambda: orbit_space_dimension("U", 2, 5),
        lambda: reduced_l_homology("U", 2, 5),
    ],
)
def test_a_str_family_is_refused_where_the_family_picks_a_branch(call):
    # "U" is not Family.COMPLEX, so each of these used to answer for U or
    # for Sp depending on which member it tested
    with pytest.raises(TypeError, match="'U' is not a Family"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: orbit_space_dimension(C, 2.5, 4),
        lambda: basepoint_correction(C, 1, 2.0),
        lambda: count_A_B(True, 3),
        lambda: relative_l_homology_oracle(C, True, 3),
        lambda: cells_by_degree(C, True, 2),
    ],
    ids=["float_n", "float_k", "bool_n", "bool_n_oracle", "bool_n_cells"],
)
def test_a_rank_or_copy_count_that_is_not_an_int_is_refused(call):
    # each of these used to answer: 2.5 and 2.0 as numbers, True as n = 1
    with pytest.raises(TypeError, match="must be ints"):
        call()
