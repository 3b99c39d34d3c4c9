from math import comb

import pytest

from multiaxial import homology, l_homology
from multiaxial.abelian import FGAbelianGroup
from multiaxial.family import Family
from multiaxial.grassmannian import count_A_B
from multiaxial.l_homology import (
    _torsion_free_ranks,
    assemble_l_homology,
    family_points,
    one_residue_class,
    read_collapse,
    read_l_homology,
    read_reduced_l_homology,
    reduced_l_homology_oracle,
    relative_l_homology_oracle,
)
from multiaxial.orbit_cells import cell_slices, cells_by_rank
from multiaxial.structure_set import (
    basepoint_correction,
    l_coefficient,
    orbit_space_dimension,
    reduced_l_homology,
    relative_l_homology,
)
from test_orbit_cells import by_degree

C = Family.COMPLEX
H = Family.QUATERNIONIC


def _collapse(family, n, k):
    """The collapse certificate read off the full complex of (family, n, k)."""
    cells = cells_by_rank(family, n, k)
    return read_collapse(family, n, homology.integral_homology(cell_slices(cells)))

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
    # nor may the full complex have two classes in degree 0
    with pytest.raises(ValueError, match="got rank 2 in degree 0"):
        read_reduced_l_homology({0: FGAbelianGroup.free(2)}, 3)


@pytest.mark.parametrize("family", [C, H], ids=str)
def test_oracles_eliminate_over_z_alone(monkeypatch, family):
    # torsion-free integral homology fixes the mod 2 ranks, so an oracle
    # eliminates each nonzero boundary of its complex once, over Z, and
    # runs no other elimination
    eliminated = []
    original = homology.split_units

    def counting(columns):
        if any(columns):
            eliminated.append(tuple(columns))
        return original(columns)

    monkeypatch.setattr(homology, "split_units", counting)
    n, k = 2, 5
    boundaries = [
        tuple(columns)
        for _, _, columns in cell_slices(cells_by_rank(family, n, k))
        if columns is not None and any(columns)
    ]
    assert boundaries
    assert relative_l_homology_oracle(family, n, k) == relative_l_homology(
        family, n, k
    )
    assert eliminated == []  # the rank-n slice stores no boundary
    assert reduced_l_homology_oracle(family, n, k) == reduced_l_homology(
        family, n, k
    )
    assert eliminated == boundaries
    eliminated.clear()
    assert _collapse(family, n, k)
    assert eliminated == boundaries


@pytest.mark.parametrize("family", [C, H], ids=str)
def test_the_family_pass_reads_every_point_as_the_one_point_drivers(family):
    # one growth and one filtered pass give each (n, k) the cells, groups
    # and reads that the point's own complexes give, each point its own
    points = list(family_points(family, 5, 9))
    assert [point[:2] for point in points] == [
        (n, k) for n in range(1, 6) for k in range(n, 10)
    ]
    assert len({id(point[2]) for point in points}) == len(points)
    for n, k, counts, full_rank, absolute, relative in points:
        cells = cells_by_rank(family, n, k)
        band = cells_by_rank(family, n, k, range(n, n + 1))
        assert counts == {p: len(masks) for p, masks in by_degree(cells).items()}
        assert full_rank == band[n]
        assert absolute == homology.integral_homology(cell_slices(cells))
        assert relative == homology.integral_homology(cell_slices(band))
        top = max(counts)
        assert read_l_homology(relative, top) == relative_l_homology_oracle(
            family, n, k
        )
        assert read_reduced_l_homology(absolute, top) == (
            reduced_l_homology_oracle(family, n, k)
        )


@pytest.mark.parametrize("family", [C, H], ids=str)
def test_a_refused_family_pass_gives_its_error_at_every_point(monkeypatch, family):
    # two ranks more for an even cell, a face of the odd cell above it, put
    # a face after its coface: the pass is refused, and each point holds
    # the ValueError in place of both groups, its cells still read
    original = l_homology.filtered_homology

    def lifted(slices, step):
        return original(
            slices, lambda cell: (step(cell)[0], step(cell)[1] + 2 - 2 * (cell & 1))
        )

    monkeypatch.setattr(l_homology, "filtered_homology", lifted)
    points = list(family_points(family, 3, 6))
    assert len(points) == 15
    error = points[0][4]
    assert isinstance(error, ValueError)
    assert "has a later face" in str(error)
    for n, k, counts, full_rank, absolute, relative in points:
        assert absolute is relative is error
        assert full_rank == cells_by_rank(family, n, k, range(n, n + 1))[n]


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
    assert _collapse(C, 2, 4) is True
    assert _collapse(C, 1, 5) is True
    assert _collapse(H, 1, 3) is True


def test_collapse_reports_are_informative():
    # the certificate reads reduced homology: the basepoint's Z in degree 0
    # is dropped, and U(2) on 4 copies keeps only odd degrees
    groups = homology.integral_homology(cell_slices(cells_by_rank(C, 2, 4)))
    reduced = [p for p, g in groups.items() if p and not g.is_trivial]
    assert groups[0] == Z and reduced
    assert all(p % 2 == 1 for p in reduced)
    assert read_collapse(C, 2, groups) is True
    assert read_collapse(C, 2, {**groups, 0: Z.direct_sum(Z)}) is False


def test_collapse_grid():
    for family in (C, H):
        for n in range(1, 4):
            for k in range(n, 7):
                assert _collapse(family, n, k) is True, (family, n, k)


@pytest.mark.parametrize(
    "family, n, groups",
    [
        (C, 2, {0: Z, 2: Z}),
        (H, 1, {0: Z, 3: Z, 5: Z}),
        (C, 1, {0: Z, 1: Z2}),
    ],
    ids=["U-even-degree", "Sp-two-classes", "U-torsion-counts"],
)
def test_collapse_is_false_on_fabricated_homology(family, n, groups):
    assert read_collapse(family, n, groups) is False


@pytest.mark.parametrize(
    "family, n, degrees, holds",
    [
        (C, 2, [1, 3, 7], True),
        (C, 2, [1, 2], False),
        (C, 3, [0, 2, 4], True),
        (C, 3, [3], False),
        (H, 1, [3, 7, 11], True),
        (H, 1, [0, 4, 6], False),
        (H, 5, [], True),
        (C, 4, [], True),
    ],
)
def test_one_residue_class(family, n, degrees, holds):
    assert one_residue_class(family, n, degrees) is holds


@pytest.mark.parametrize(
    "call",
    [
        lambda: reduced_l_homology("U", 2, 2),
        lambda: relative_l_homology_oracle("U", 2, 5),
        lambda: relative_l_homology("U", 2, 5),
        lambda: read_collapse("U", 2, {}),
        lambda: cells_by_rank("U", 2, 5),
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
        lambda: cells_by_rank(C, True, 2),
    ],
    ids=["float_n", "float_k", "bool_n", "bool_n_oracle", "bool_n_cells"],
)
def test_a_rank_or_copy_count_that_is_not_an_int_is_refused(call):
    # each of these used to answer: 2.5 and 2.0 as numbers, True as n = 1
    with pytest.raises(TypeError, match="must be ints"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: l_coefficient(2.0),
        lambda: l_coefficient(True),
    ],
    ids=["float_q", "bool_q"],
)
def test_a_bound_or_degree_that_is_not_an_int_is_refused(call):
    # each of these used to answer: 2.0 as 2, True as 1
    with pytest.raises(TypeError, match="must be"):
        call()
