import itertools
import os
import pathlib
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiaxial import homology
from multiaxial.abelian import FGAbelianGroup
from multiaxial.family import Family
from multiaxial.homology import (
    ChainComplex,
    integral_homology,
    mod2_homology,
    rank_mod2,
    smith_normal_form,
    sparse_invariant_factors,
    sparse_rank_mod2,
)
from multiaxial.l_homology import (
    reduced_l_homology,
    reduced_l_homology_oracle,
    relative_l_homology,
    relative_l_homology_oracle,
)
from multiaxial.orbit_cells import (
    CellFiltration,
    build_chain_complex,
    cells_by_degree,
    complex_from_cells,
    pivot_boundary,
)


def determinant(matrix):
    """Cofactor expansion, exact integers; oracle use only."""
    size = len(matrix)
    if size == 0:
        return 1
    if size == 1:
        return matrix[0][0]
    total = 0
    rest = matrix[1:]
    for col, value in enumerate(matrix[0]):
        if value == 0:
            continue
        minor = [row[:col] + row[col + 1:] for row in rest]
        total += (-1) ** col * value * determinant(minor)
    return total


def oracle_invariant_factors(matrix):
    """Independent route: d_1 ... d_i equals the gcd of all i by i minors."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    factors = []
    previous = 1
    for size in range(1, min(rows, cols) + 1):
        g = 0
        for row_sel in itertools.combinations(range(rows), size):
            for col_sel in itertools.combinations(range(cols), size):
                sub = [[matrix[r][c] for c in col_sel] for r in row_sel]
                g = gcd(g, determinant(sub))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


def rank_over_rationals(matrix):
    """Independent rank via Gaussian elimination over Fraction."""
    work = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    cols = len(work[0]) if work else 0
    row_at = 0
    for col in range(cols):
        pivot = None
        for r in range(row_at, len(work)):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[row_at], work[pivot] = work[pivot], work[row_at]
        inv = work[row_at][col]
        for r in range(row_at + 1, len(work)):
            if work[r][col]:
                factor = work[r][col] / inv
                for c in range(col, cols):
                    work[r][c] -= factor * work[row_at][c]
        row_at += 1
        rank += 1
    return rank


def test_snf_listed_examples():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 0]]) == [2]
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]


def test_snf_degenerate_shapes():
    assert smith_normal_form([]) == []
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[5]]) == [5]


def test_snf_rejects_ragged_input():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


@pytest.mark.parametrize("routine", [smith_normal_form, rank_mod2])
# the second is all zero, so it must be refused before any pruning
@pytest.mark.parametrize("matrix", [[[1], [1, 1]], [[0], [0, 0]]])
def test_dense_routines_refuse_ragged_input(routine, matrix):
    with pytest.raises(ValueError, match="same length"):
        routine(matrix)


small_matrices = st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


@given(small_matrices)
def test_snf_matches_minor_gcd_oracle(matrix):
    assert smith_normal_form(matrix) == oracle_invariant_factors(matrix)


@given(small_matrices)
def test_snf_rank_matches_rational_rank(matrix):
    assert len(smith_normal_form(matrix)) == rank_over_rationals(matrix)


@given(small_matrices, st.randoms(use_true_random=False))
def test_snf_is_permutation_invariant(matrix, rng):
    rows = matrix[:]
    rng.shuffle(rows)
    cols = list(range(len(matrix[0])))
    rng.shuffle(cols)
    shuffled = [[row[c] for c in cols] for row in rows]
    assert smith_normal_form(shuffled) == smith_normal_form(matrix)


def columns_of(matrix):
    return [
        {i: row[j] for i, row in enumerate(matrix) if row[j]}
        for j in range(len(matrix[0]))
    ]


def from_matrices(generators, matrices):
    """A complex from dense boundary matrices, rows indexed by the lower
    degree, through the checked constructor."""
    return ChainComplex(
        generators, {p: columns_of(matrix) for p, matrix in matrices.items()}
    )


# units anywhere, non-unit entries, and whole zero rows and columns
unit_heavy_matrices = st.integers(1, 5).flatmap(
    lambda rows: st.integers(1, 5).flatmap(
        lambda cols: st.tuples(
            st.lists(
                st.lists(
                    st.one_of(
                        st.just(0), st.sampled_from([1, -1]), st.integers(-9, 9)
                    ),
                    min_size=cols,
                    max_size=cols,
                ),
                min_size=rows,
                max_size=rows,
            ),
            st.sets(st.integers(0, rows - 1)),
            st.sets(st.integers(0, cols - 1)),
        )
    )
).map(
    lambda drawn: [
        [0 if i in drawn[1] or j in drawn[2] else v for j, v in enumerate(row)]
        for i, row in enumerate(drawn[0])
    ]
)


@given(unit_heavy_matrices)
def test_unit_elimination_matches_dense_snf_and_minor_gcd_oracle(matrix):
    columns = columns_of(matrix)
    factors = sparse_invariant_factors(columns)
    assert factors == smith_normal_form(matrix)
    assert factors == oracle_invariant_factors(matrix)
    assert sparse_rank_mod2(columns) == rank_mod2(matrix)


@st.composite
def mixed_sparse_columns(draw):
    """(rows, columns) of a sparse matrix up to 14 by 14.

    Some rows hold a single +-1, an isolated unit; the others draw their
    entries from +-1, [-9, 9] and explicit zeros, so units also sit in
    rows that other columns share.
    """
    rows = draw(st.integers(0, 14))
    cols = draw(st.integers(0, 14))
    columns = [{} for _ in range(cols)]
    if rows and cols:
        isolated = draw(st.sets(st.integers(0, rows - 1)))
        for r in isolated:
            c = draw(st.integers(0, cols - 1))
            columns[c][r] = draw(st.sampled_from([1, -1]))
        shared = [r for r in range(rows) if r not in isolated]
        if shared:
            entries = draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(shared),
                        st.integers(0, cols - 1),
                        st.one_of(
                            st.sampled_from([1, -1]),
                            st.integers(-9, 9),
                            st.just(0),
                        ),
                    ),
                    max_size=40,
                )
            )
            for r, c, v in entries:
                columns[c][r] = v
    return rows, columns


@given(mixed_sparse_columns(), st.randoms(use_true_random=False))
def test_sparse_routines_match_dense_on_mixed_units(drawn, rng):
    rows, columns = drawn
    matrix = [[column.get(r, 0) for column in columns] for r in range(rows)]
    factors = smith_normal_form(matrix)
    assert sparse_invariant_factors(columns) == factors
    shuffled = columns[:]
    rng.shuffle(shuffled)
    assert sparse_invariant_factors(shuffled) == factors
    assert sparse_rank_mod2(columns) == rank_mod2(matrix)


def test_constructor_keeps_its_own_copy_of_the_columns():
    gens = {0: ["v", "w"], 1: ["e", "f"]}
    first, second = {0: 1, 1: -1}, {}
    complex_ = ChainComplex(gens, {1: [first, second]})
    first[0] = 5
    del first[1]
    second[1] = 1
    assert complex_.columns(1) == ({0: 1, 1: -1}, {})


def test_rank_mod2_drops_even_entries():
    assert rank_mod2([[2, 4], [6, 8]]) == 0
    assert rank_mod2([[1, 1], [1, 1]]) == 1
    assert rank_mod2([[1, 0], [0, 1]]) == 2


def test_complex_rejects_nonzero_composite():
    with pytest.raises(ValueError):
        from_matrices(
            {0: ["v"], 1: ["e"], 2: ["f"]},
            {1: [[1]], 2: [[1]]},
        )


def test_complex_rejects_bad_shapes():
    with pytest.raises(ValueError):
        from_matrices({0: ["v"], 1: ["e"]}, {1: [[1, 0]]})
    with pytest.raises(ValueError):
        ChainComplex({0: ["v", "v"]}, {})


def test_sparse_constructor_rejects_bad_input():
    gens = {0: ["v"], 1: ["e"], 2: ["f"]}
    with pytest.raises(ValueError, match="composite"):
        ChainComplex(gens, {1: [{0: 1}], 2: [{0: 1}]})
    with pytest.raises(ValueError, match="row"):
        ChainComplex(gens, {1: [{1: 1}]})
    with pytest.raises(ValueError, match="row"):
        ChainComplex(gens, {1: [{-1: 1}]})
    with pytest.raises(ValueError, match="columns"):
        ChainComplex(gens, {1: [{0: 1}, {}]})
    with pytest.raises(ValueError, match="duplicate"):
        ChainComplex({0: ["v", "v"]}, {})


def test_sparse_constructor_names_the_row_and_drops_zeros():
    gens = {0: ["v", "w"], 1: ["e", "f"]}
    for column, row in (({1: 1, 2: 1}, 2), ({-1: 1, 0: 1}, -1), ({5: 0}, 5)):
        message = f"boundary in degree 1 has row {row}, expected 0 <= row < 2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ChainComplex(gens, {1: [column, {}]})
    complex_ = ChainComplex(gens, {1: [{0: 0, 1: 0}, {}]})
    assert complex_.boundary_degrees() == []
    complex_ = ChainComplex(gens, {1: [{0: 1, 1: 0}, {1: -1}]})
    assert complex_.columns(1) == ({0: 1}, {1: -1})


def test_sparse_constructor_guards_survive_optimized_mode():
    script = textwrap.dedent(
        """
        from multiaxial.homology import ChainComplex, rank_mod2, smith_normal_form
        gens = {0: ["v"], 1: ["e"], 2: ["f"]}
        for boundaries in ({1: [{0: 1}], 2: [{0: 1}]}, {1: [{3: 1}]}):
            try:
                ChainComplex(gens, boundaries)
            except ValueError:
                continue
            raise SystemExit(f"accepted {boundaries}")
        # entries that are not ints are refused, never truncated
        for generators, boundaries in (
            (gens, {1: [{0: 2.5}]}),
            (gens, {1: [{0.0: 1}]}),
            (gens, {1.0: [{0: 1}]}),
            ({0.0: ["v"]}, {}),
        ):
            try:
                ChainComplex(generators, boundaries)
            except TypeError:
                continue
            raise SystemExit(f"accepted {generators} {boundaries}")
        for routine in (smith_normal_form, rank_mod2):
            for matrix in ([[2.5, 0], [0, 3.7]], [[1, 0], [0, 2.0]]):
                try:
                    routine(matrix)
                except TypeError:
                    continue
                raise SystemExit(f"{routine.__name__} accepted {matrix}")
        print("guards hold")
        """
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.strip() == "guards hold"


def test_sphere_complex_homology():
    complex_ = build_chain_complex(Family.COMPLEX, 1, 2)
    assert integral_homology(complex_) == {
        0: FGAbelianGroup.free(1),
        2: FGAbelianGroup.free(1),
    }
    assert mod2_homology(complex_) == {0: 1, 2: 1}


def test_contractible_complex_homology():
    complex_ = build_chain_complex(Family.COMPLEX, 2, 2)
    assert integral_homology(complex_) == {0: FGAbelianGroup.free(1)}
    assert mod2_homology(complex_) == {0: 1}


def test_relative_rank_two_complex_homology():
    complex_ = build_chain_complex(
        Family.COMPLEX, 2, 4, CellFiltration.exact(2)
    )
    assert integral_homology(complex_) == {
        3: FGAbelianGroup.free(1),
        5: FGAbelianGroup.free(1),
        7: FGAbelianGroup.free(2),
        9: FGAbelianGroup.free(1),
        11: FGAbelianGroup.free(1),
    }
    # all boundaries drop out of the filtration, so mod 2 sees raw counts
    assert mod2_homology(complex_) == {3: 1, 5: 1, 7: 2, 9: 1, 11: 1}


def test_torsion_complex():
    rp2 = from_matrices(
        {0: ["v"], 1: ["e"], 2: ["f"]},
        {1: [[0]], 2: [[2]]},
    )
    assert integral_homology(rp2) == {
        0: FGAbelianGroup.free(1),
        1: FGAbelianGroup(0, ((2, 1),)),
    }
    assert mod2_homology(rp2) == {0: 1, 1: 1, 2: 1}


def test_universal_coefficients_relation():
    complexes = [
        from_matrices(
            {0: ["v"], 1: ["e"], 2: ["f"]}, {1: [[0]], 2: [[2]]}
        ),
        from_matrices(
            {0: ["v"], 1: ["e"], 2: ["f"]}, {1: [[0]], 2: [[4]]}
        ),
        build_chain_complex(Family.COMPLEX, 2, 4),
        build_chain_complex(Family.QUATERNIONIC, 2, 4),
    ]
    for complex_ in complexes:
        homology = integral_homology(complex_)
        betti2 = mod2_homology(complex_)
        degrees = set(homology) | set(betti2)
        for p in degrees:
            here = homology.get(p, FGAbelianGroup.trivial())
            below = homology.get(p - 1, FGAbelianGroup.trivial())
            assert betti2.get(p, 0) == (
                here.free_rank
                + here.two_torsion_rank()
                + below.two_torsion_rank()
            )


def test_homology_is_generator_order_invariant():
    cells = cells_by_degree(Family.COMPLEX, 3, 5)
    complex_ = complex_from_cells(cells)
    reference = integral_homology(complex_)
    reference2 = mod2_homology(complex_)
    rng = random.Random(7)
    for _ in range(3):
        shuffled_cells = {}
        for p, cells_p in cells.items():
            shuffled_cells[p] = list(cells_p)
            rng.shuffle(shuffled_cells[p])
        shuffled = complex_from_cells(shuffled_cells)
        assert any(shuffled.generators(p) != complex_.generators(p) for p in cells)
        # rows and columns follow the generators they index
        for p in cells:
            faces = shuffled.generators(p - 1)
            for cell, column in zip(shuffled.generators(p), shuffled.columns(p)):
                boundary = {faces[r]: v for r, v in column.items()}
                assert boundary == dict(pivot_boundary(cell))
        assert integral_homology(shuffled) == reference
        assert mod2_homology(shuffled) == reference2


def test_reduced_oracle_beyond_dense_reach(monkeypatch):
    # every orbit-space boundary goes in isolated unit pivots alone, so the
    # oracles never reach the dense Smith normal form; a cell model whose
    # units shared rows would fail here rather than silently go dense
    def dense(matrix):
        raise AssertionError(f"dense SNF reached on {len(matrix)} rows")

    monkeypatch.setattr(homology, "smith_normal_form", dense)
    # 26,332 cells, where dense SNF over every degree takes tens of seconds
    assert reduced_l_homology_oracle(Family.COMPLEX, 7, 16) == reduced_l_homology(
        Family.COMPLEX, 7, 16
    )
    for family in Family:
        for n in range(1, 6):
            for k in range(n, 11):
                assert relative_l_homology_oracle(family, n, k) == (
                    relative_l_homology(family, n, k)
                ), (family, n, k)
                complex_ = build_chain_complex(family, n, k)
                groups = integral_homology(complex_)
                assert all(not g.torsion for g in groups.values())
                assert {p: g.free_rank for p, g in groups.items()} == (
                    mod2_homology(complex_)
                ), (family, n, k)


def test_euler_characteristic_agrees_with_homology():
    for family in Family:
        complex_ = build_chain_complex(family, 2, 5)
        homology = integral_homology(complex_)
        chi = sum((-1) ** p * g.free_rank for p, g in homology.items())
        assert complex_.euler_characteristic() == chi
