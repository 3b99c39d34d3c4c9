import itertools
import json
import operator
import os
import pathlib
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiaxial import cli, homology
from multiaxial.abelian import FGAbelianGroup
from multiaxial.family import Family
from multiaxial.homology import (
    checked_slices,
    filtered_homology,
    integral_homology,
    smith_normal_form,
    sparse_invariant_factors,
)
from multiaxial.l_homology import (
    reduced_l_homology_oracle,
    relative_l_homology_oracle,
)
from multiaxial.orbit_cells import cell_slices, cells_by_rank
from multiaxial.structure_set import reduced_l_homology, relative_l_homology


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


@pytest.mark.parametrize("routine", [smith_normal_form])
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
# Random(4) swaps the rows only; an elimination that drops a pivot 2 as
# if it were a unit still gets [1, 14] here but [1, 7] on the swap
@example([[2, -3], [-2, -4]], random.Random(4))
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
    """The checked stream of a complex given by dense boundary matrices,
    rows indexed by the lower degree."""
    return list(
        checked_slices(
            (p, cells, columns_of(matrices[p]) if p in matrices else None)
            for p, cells in generators.items()
        )
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


def test_the_split_reads_an_iterator_of_columns_once():
    # split_units walks the columns twice, so it must read a one-shot
    # iterable of them once, or its second walk finds no column
    assert sparse_invariant_factors(iter([{0: 2}])) == [2]
    assert homology.split_units(iter([{0: 1}, {1: 3}])) == (1, [{1: 3}])
    assert homology.split_units(c for c in [{0: 1}, {1: 3}]) == (1, [{1: 3}])


def test_the_checked_stream_passes_on_the_producers_columns():
    # checked_slices reads each column and copies none: the elimination
    # gets the producer's objects, cell_slices' one shared empty dict too
    stream = list(cell_slices(cells_by_rank(Family.COMPLEX, 3, 6)))
    checked = list(checked_slices(stream))
    for (_, _, made), (_, _, read) in zip(stream, checked):
        if read is None:
            assert not any(made or ())
        else:
            assert len(read) == len(made) and all(map(operator.is_, made, read))
    # any falsy column is empty, as it comes, and a face's d^2 reads it so
    first = {0: 1}
    stream = [(0, "vw", None), (1, "efg", [first, None, []]), (2, "t", [{1: 1}])]
    checked = list(checked_slices(stream))
    assert checked[1][2][0] is first and checked[1][2][1:] == (None, [])
    z = FGAbelianGroup.free(1)
    assert integral_homology(stream) == {0: z, 1: z}
    assert filtered_homology(stream, lambda g: (0, 0))[0, 0][0] == {0: z, 1: z}


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
        from_matrices({0: ["v", "v"]}, {})


# (a bad stream, the exception checked_slices raises, its exact message)
BAD_STREAMS = [
    (
        [(0, ["v"], None), (1, ["e"], [{0: 1}]), (2, ["f"], [{0: 1}])],
        ValueError,
        "boundary composite in degree 2 is nonzero",
    ),
    # the composite is reached only through row 1, beside two falsy columns
    (
        [
            (0, ["u", "v"], None),
            (1, ["a", "b", "c"], [None, {0: 1}, []]),
            (2, ["f"], [{0: 1, 1: 1, 2: 1}]),
        ],
        ValueError,
        "boundary composite in degree 2 is nonzero",
    ),
    # the guard reads every hit row, here reaching the composite only
    # through the largest, beside a None, a {} and a [] below
    (
        [
            (0, ["v"], None),
            (1, ["a", "b", "c", "d"], [None, {}, [], {0: 1}]),
            (2, ["f"], [{0: 1, 1: 1, 2: 1, 3: 1}]),
        ],
        ValueError,
        "boundary composite in degree 2 is nonzero",
    ),
    # a slice's entries are all checked before its d^2: column 0's nonzero
    # composite is not reached, as column 1 has a row out of range
    (
        [(0, ["v"], None), (1, ["e"], [{0: 1}]), (2, ["f", "g"], [{0: 1}, {5: 1}])],
        ValueError,
        "boundary in degree 2 has row 5, expected 0 <= row < 1",
    ),
    (
        [(0, ["v"], None), (1, ["e"], [{1: 1}])],
        ValueError,
        "boundary in degree 1 has row 1, expected 0 <= row < 1",
    ),
    (
        [(0, ["v"], None), (1, ["e"], [{-1: 1}])],
        ValueError,
        "boundary in degree 1 has row -1, expected 0 <= row < 1",
    ),
    (
        [(0, ["v"], None), (1, ["e"], [{0: 1}, {}])],
        ValueError,
        "boundary in degree 1 has 2 columns, expected 1",
    ),
    ([(0, ["v", "v"], None)], ValueError, "duplicate generators in degree 0"),
    # a generator that does not hash is named with its degree, also one
    # whose type hashes but whose contents do not
    ([(0, [["v"]], None)], TypeError, "degree 0 has generator ['v'], not hashable"),
    (
        [(0, ["v"], None), (1, ["e", ("f", [0])], [{0: 1}, {}])],
        TypeError,
        "degree 1 has generator ('f', [0]), not hashable",
    ),
    # a zero is refused, never dropped, and so is a nonzero column that is
    # not a mapping
    (
        [(0, ["v"], None), (1, ["e"], [{0: 0}])],
        ValueError,
        "boundary in degree 1 has a 0 in row 0",
    ),
    (
        [(0, ["v"], None), (1, ["e"], [[0]])],
        TypeError,
        "degree 1 has column [0], not a mapping",
    ),
    # a zero or a unit that is not an int is refused, never dropped or counted
    (
        [(0, ["a"], None), (1, ["b"], [{0: 0.0}])],
        TypeError,
        "coefficient 0.0 is not an int",
    ),
    (
        [(0, ["v"], None), (1, ["e"], [{0: True}])],
        TypeError,
        "coefficient True is not an int",
    ),
    # so is a degree that is not an int or is negative, and a row that is
    # not an int even where it passes the range check
    ([(0.0, ["v"], None)], TypeError, "degree 0.0 is not an int"),
    ([(-1, ["v"], None)], ValueError, "generator degrees must be nonnegative"),
    (
        [(0, ["v"], None), (1.0, ["e"], [{0: 1}]), (2, ["f"], None)],
        TypeError,
        "degree 1.0 is not an int",
    ),
    (
        [(0, ["v", "w"], None), (1, ["e"], [{True: 1}])],
        TypeError,
        "row True is not an int",
    ),
    (
        [(0, ["v"], None), (1, ["e"], [{"a": 1}])],
        TypeError,
        "row 'a' is not an int",
    ),
    # a stream that does not ascend
    (
        [(1, ["e"], None), (0, ["v"], None)],
        ValueError,
        "degree 0 does not ascend past degree 1",
    ),
]


def test_sparse_constructor_rejects_bad_input():
    for stream, error, message in BAD_STREAMS:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            list(checked_slices(stream))
    with pytest.raises(TypeError, match="entry True is not an int"):
        sparse_invariant_factors([{0: True}])


def test_streaming_consumers_never_build_a_complex():
    # integral_homology reads a one-pass stream through checked_slices, so
    # it refuses what checked_slices refuses, in the same words
    for stream, error, message in BAD_STREAMS:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            integral_homology(iter(stream))
    stream = iter([(0, ["v"], None), (1, ["e"], [{0: 2}])])
    assert integral_homology(stream) == {0: FGAbelianGroup(0, ((2, 1),))}


def _export(form):
    def export(family, n, k):
        argv = ["export-complex", "--family", str(family), "--n", str(n)]
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            assert cli.main(argv + ["--k", str(k), "--format", form]) == 0

    return export


@pytest.mark.parametrize(
    "run, family, n, k",
    [
        pytest.param(run, family, n, k, id=f"{name}{family}({n},{k})")
        for name, run in [
            ("", reduced_l_homology_oracle),
            ("export-complex table ", _export("table")),
            ("export-complex json ", _export("json")),
        ]
        for family, n, k in [(Family.COMPLEX, 7, 16), (Family.QUATERNIONIC, 6, 14)]
    ],
)
def test_reduced_oracle_holds_the_enumeration_and_two_slices(run, family, n, k):
    # the enumeration is held whole, an int mask and a list slot per cell,
    # about 40 B a cell, and these peak at 48 to 60 B where pivot tuples
    # peaked at 100 to 110; the boundaries stream two adjacent degrees at a
    # time, and export-complex writes each degree as it comes, where a
    # whole complex with two copies of its columns peaked near 290 B a
    # cell, and a whole export near 450
    cells = sum(comb(k, r) for r in range(1, n + 1))
    # a tiny run first pays what is paid once, such as the locale module
    # that argparse's first parser imports, which is not a cost per cell
    run(family, 2, 3)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        run(family, n, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / cells < 64, f"{peak / cells:.1f} B a cell"


def test_sparse_constructor_names_the_row_and_refuses_zeros():
    def boundary(columns):
        stream = [(0, ["v", "w"], None), (1, ["e", "f"], columns)]
        return list(checked_slices(stream))[1][2]

    for column, row in (({1: 1, 2: 1}, 2), ({-1: 1, 0: 1}, -1), ({5: 0}, 5)):
        message = f"boundary in degree 1 has row {row}, expected 0 <= row < 2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            boundary([column, {}])
    for columns, row in (([{0: 0, 1: 0}, {}], 0), ([{0: 1, 1: 0}, {1: -1}], 1)):
        message = f"boundary in degree 1 has a 0 in row {row}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            boundary(columns)


def test_sparse_constructor_guards_survive_optimized_mode():
    script = textwrap.dedent(
        """
        from multiaxial.homology import checked_slices, smith_normal_form
        v, e, f = (0, ["v"], None), (1, ["e"], [{0: 1}]), (2, ["f"], [{0: 1}])
        # d^2, a row out of range and a zero coefficient are refused
        for stream in (
            [v, e, f],
            [v, (1, ["e"], [{3: 1}])],
            [v, (1, ["e"], [{0: 0}])],
        ):
            try:
                list(checked_slices(stream))
            except ValueError:
                continue
            raise SystemExit(f"accepted {stream}")
        # entries that are not ints are refused, never truncated, and so
        # is a nonzero column that is not a mapping
        for stream in (
            [v, (1, ["e"], [{0: 2.5}])],
            [v, (1, ["e"], [{0.0: 1}])],
            [v, (1.0, ["e"], [{0: 1}])],
            [(0.0, ["v"], None)],
            [v, (1, ["e"], [[0]])],
        ):
            try:
                list(checked_slices(stream))
            except TypeError:
                continue
            raise SystemExit(f"accepted {stream}")
        for matrix in ([[2.5, 0], [0, 3.7]], [[1, 0], [0, 2.0]], [[2, 0.0]]):
            try:
                smith_normal_form(matrix)
            except TypeError:
                continue
            raise SystemExit(f"smith_normal_form accepted {matrix}")
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
    slices = cell_slices(cells_by_rank(Family.COMPLEX, 1, 2))
    assert integral_homology(slices) == {
        0: FGAbelianGroup.free(1),
        2: FGAbelianGroup.free(1),
    }


def test_contractible_complex_homology():
    slices = cell_slices(cells_by_rank(Family.COMPLEX, 2, 2))
    assert integral_homology(slices) == {0: FGAbelianGroup.free(1)}


def test_relative_rank_two_complex_homology():
    cells = cells_by_rank(Family.COMPLEX, 2, 4, range(2, 3))
    assert integral_homology(cell_slices(cells)) == {
        3: FGAbelianGroup.free(1),
        5: FGAbelianGroup.free(1),
        7: FGAbelianGroup.free(2),
        9: FGAbelianGroup.free(1),
        11: FGAbelianGroup.free(1),
    }


def test_torsion_complex():
    rp2 = from_matrices(
        {0: ["v"], 1: ["e"], 2: ["f"]},
        {1: [[0]], 2: [[2]]},
    )
    assert integral_homology(rp2) == {
        0: FGAbelianGroup.free(1),
        1: FGAbelianGroup(0, ((2, 1),)),
    }


def _shuffled(stream, rng):
    """The stream with each slice's generators in a random order, each
    column's rows following the generators they index."""
    new_rows = {}  # degree -> the new row of each old one, for the last slice
    for p, cells, columns in stream:
        order = rng.sample(range(len(cells)), len(cells))
        below = new_rows.get(p - 1)
        new_rows = {p: {old: new for new, old in enumerate(order)}}
        yield p, [cells[i] for i in order], columns and [
            {below[r]: v for r, v in columns[i].items()} for i in order
        ]


def test_homology_is_generator_order_invariant():
    # the reference faces: pivot tuples from itertools.combinations, each
    # mapped to its mask, bit m - 1 set for each pivot m
    def mask(pivots):
        return sum(1 << (m - 1) for m in pivots)

    pivots_of = {
        mask(pivots): pivots
        for r in range(1, 4)
        for pivots in itertools.combinations(range(5, 0, -1), r)
    }
    rng = random.Random(7)
    for family in Family:
        stream = list(cell_slices(cells_by_rank(family, 3, 5)))
        assert sorted(c for _, cells_p, _ in stream for c in cells_p) == sorted(
            pivots_of
        )
        reference = integral_homology(stream)
        for _ in range(3):
            shuffled = list(_shuffled(stream, rng))
            assert shuffled != stream
            # rows and columns follow the generators they index
            faces = {}
            for p, cells_p, columns in checked_slices(shuffled):
                faces[p] = cells_p
                for cell, column in zip(cells_p, columns or [{}] * len(cells_p)):
                    boundary = {faces[p - 1][r]: v for r, v in column.items()}
                    pivots = pivots_of[cell]
                    has_face = len(pivots) >= 2 and pivots[-1] == 1
                    assert boundary == ({mask(pivots[:-1]): 1} if has_face else {})
            assert integral_homology(shuffled) == reference, family


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
                groups = integral_homology(
                    cell_slices(cells_by_rank(family, n, k))
                )
                assert all(not g.torsion for g in groups.values()), (family, n, k)


def test_integral_homology_raises_the_error_of_a_negative_rank(monkeypatch):
    # a split that counts each unit twice takes a free rank below zero, and
    # integral_homology and the oracle reading it raise that ValueError
    original = homology._checked_splits

    def twice(slices):
        for p, cells, columns, units, rest in original(slices):
            yield p, cells, columns, 2 * units, rest

    monkeypatch.setattr(homology, "_checked_splits", twice)
    message = "^free rank must be nonnegative$"
    with pytest.raises(ValueError, match=message):
        integral_homology(cell_slices(cells_by_rank(Family.COMPLEX, 2, 4)))
    with pytest.raises(ValueError, match=message):
        reduced_l_homology_oracle(Family.COMPLEX, 2, 4)


def test_euler_characteristic_agrees_with_homology(capsys):
    # export-complex counts it from the cells, homology from the ranks
    for family in Family:
        argv = ["export-complex", "--family", str(family), "--n", "2", "--k", "5"]
        assert cli.main(argv + ["--format", "json"]) == 0
        exported = json.loads(capsys.readouterr().out)
        homology = integral_homology(cell_slices(cells_by_rank(family, 2, 5)))
        chi = sum((-1) ** p * g.free_rank for p, g in homology.items())
        assert exported["euler_characteristic"] == chi


def _pivots(cell):
    return cell.bit_length(), cell.bit_count()


@pytest.mark.parametrize("family", [Family.COMPLEX, Family.QUATERNIONIC], ids=str)
def test_the_filtered_pass_equals_one_step_runs(family):
    # one pass over a column's top complex, a cell's step (0, its rank),
    # reads each point's full complex and its rank band as integral_homology
    # does
    for k in range(1, 10):
        top = min(5, k)
        column = filtered_homology(
            cell_slices(cells_by_rank(family, top, k)),
            lambda cell: (0, cell.bit_count()),
        )
        assert set(column) == {(0, s) for s in range(1, top + 1)}
        for s in range(1, top + 1):
            full = cells_by_rank(family, s, k)
            band = cells_by_rank(family, s, k, range(s, s + 1))
            assert column[0, s][0] == integral_homology(cell_slices(full))
            assert column[0, s][1] == integral_homology(cell_slices(band))


@pytest.mark.parametrize("family", [Family.COMPLEX, Family.QUATERNIONIC], ids=str)
def test_the_two_parameter_pass_equals_one_step_runs_at_every_point(family):
    # one pass over the family's largest complex, a cell's step its top
    # pivot and its rank, reads every (k, n) with n <= k: F_(k,n) is the
    # complex of (family, n, k) and its band the rank-n complex
    grid = {(k, n) for k in range(1, 10) for n in range(1, min(5, k) + 1)}
    points = filtered_homology(cell_slices(cells_by_rank(family, 5, 9)), _pivots)
    assert set(points) == grid
    for k, n in grid:
        full = cells_by_rank(family, n, k)
        band = cells_by_rank(family, n, k, range(n, n + 1))
        assert points[k, n][0] == integral_homology(cell_slices(full))
        assert points[k, n][1] == integral_homology(cell_slices(band))


def _filtered_stream(filtration):
    """The stream of degree -> [(generator, step, {face: coefficient})],
    and each generator's step; generators that share one boundary object
    share one column object, as cell_slices' face-free cells do."""
    names = {p: [g for g, _, _ in cells] for p, cells in filtration.items()}
    made = {}  # id of a boundary -> its column
    stream = [
        (p, names[p], [
            made.setdefault(
                id(boundary),
                {names[p - 1].index(face): v for face, v in boundary.items()},
            )
            for _, _, boundary in cells
        ])
        for p, cells in filtration.items()
    ]
    steps = {g: t for cells in filtration.values() for g, t, _ in cells}
    return stream, steps.__getitem__


def _dense_homology(filtration, kept):
    """Homology of the generators whose step kept accepts, faces it does
    not accept dropped, from the dense Smith normal form alone."""
    def matrix(p):
        rows = [g for g, t, _ in filtration.get(p - 1, ()) if kept(t)]
        columns = [b for _, t, b in filtration.get(p, ()) if kept(t)]
        return [[column.get(r, 0) for column in columns] for r in rows]

    result = {}
    for p, cells in filtration.items():
        into = smith_normal_form(matrix(p + 1))
        free = sum(map(kept, (t for _, t, _ in cells)))
        free -= len(smith_normal_form(matrix(p))) + len(into)
        group = FGAbelianGroup.from_orders([0] * free + into)
        if group != FGAbelianGroup.trivial():
            result[p] = group
    return result


def _up_to(k, n):
    """F_(k,n): the steps at or below (k, n) in both coordinates."""
    return lambda step: step[0] <= k and step[1] <= n


def _band(k, n):
    """F_(k,n) over F_(k,<n): the steps of F_(k,n) at level n."""
    return lambda step: step[0] <= k and step[1] == n


def _matches_the_dense_snf(filtration):
    stream, step = _filtered_stream(filtration)
    assert integral_homology(stream) == _dense_homology(filtration, lambda t: True)
    points = filtered_homology(stream, step)
    # a step is read where a generator has it
    assert set(points) == {t for cells in filtration.values() for _, t, _ in cells}
    for (k, n), (absolute, relative) in points.items():
        assert absolute == _dense_homology(filtration, _up_to(k, n))
        assert relative == _dense_homology(filtration, _band(k, n))
    return points


# a non-unit pivot entering at a later step: a loop a that f, at step 1,
# bounds twice and g, at step 2, three times, which frees a again
LATER_PIVOT = {
    0: [("v", (0, 0), {}), ("w", (0, 1), {})],
    1: [("a", (0, 0), {}), ("e", (0, 1), {"v": 1, "w": -1})],
    2: [("f", (0, 1), {"a": 2}), ("g", (0, 2), {"a": 3})],
}
# x is alone in its row at step 0 but shared with c2 in the whole complex
SHARED_ROW = {
    1: [("x", (0, 0), {}), ("y", (0, 0), {})],
    2: [("c1", (0, 0), {"x": 1}), ("c2", (0, 1), {"x": 1, "y": 2})],
}
# f and g are one column object, and v and a share one empty column
_NO_FACE, _TWICE_A = {}, {"a": 2}
SHARED_COLUMN = {
    0: [("v", (0, 0), _NO_FACE)],
    1: [("a", (0, 0), _NO_FACE)],
    2: [("f", (0, 1), _TWICE_A), ("g", (0, 1), _TWICE_A)],
}


@pytest.mark.parametrize(
    "filtration",
    [LATER_PIVOT, SHARED_ROW, SHARED_COLUMN],
    ids=[
        "non-unit-pivot-at-a-later-step",
        "row-isolated-only-below-the-top",
        "one-column-object-twice",
    ],
)
def test_the_filtered_pass_matches_the_dense_snf_on_torsion(filtration):
    points = _matches_the_dense_snf(filtration)
    # both get their Z_2 in degree 1 at step 1
    assert points[0, 0][0][1] == FGAbelianGroup.free(1)
    assert points[0, 1][0][1] == FGAbelianGroup(0, ((2, 1),))


# loops a, x and y: f bounds a twice at level 1, and g, entering at t = 1,
# three times, so a is Z_2 at (0, 1), Z_3 at (1, 0) and free of both at
# (1, 1); x is alone in its row, c1's, below (1, 1) and shared with c2 there
TWO_STEP = {
    0: [("v", (0, 0), {})],
    1: [("a", (0, 0), {}), ("x", (0, 0), {}), ("y", (0, 0), {})],
    2: [
        ("f", (0, 1), {"a": 2}),
        ("g", (1, 0), {"a": 3}),
        ("c1", (0, 0), {"x": 1}),
        ("c2", (1, 1), {"x": 1, "y": 2}),
    ],
}


def test_the_two_parameter_pass_matches_the_dense_snf_on_torsion():
    points = _matches_the_dense_snf(TWO_STEP)
    z = FGAbelianGroup.free(1)
    assert [points[s][0][1] for s in ((0, 0), (0, 1), (1, 0), (1, 1))] == [
        FGAbelianGroup.free(2),
        FGAbelianGroup(0, ((2, 1),)).direct_sum(z),
        FGAbelianGroup(0, ((3, 1),)).direct_sum(z),
        FGAbelianGroup(0, ((2, 1),)),
    ]
    # f and c2 at level 1, their faces below it
    assert points[1, 1][1] == {2: FGAbelianGroup.free(2)}


def test_the_dense_reference_reads_the_later_pivot():
    z = FGAbelianGroup.free(1)
    assert [_dense_homology(LATER_PIVOT, _up_to(0, s)) for s in (0, 1, 2)] == [
        {0: z, 1: z},
        {0: z, 1: FGAbelianGroup(0, ((2, 1),))},
        {0: z, 2: z},
    ]
    assert [_dense_homology(LATER_PIVOT, _band(0, s)) for s in (0, 1, 2)] == [
        {0: z, 1: z}, {2: z}, {2: z}
    ]


def test_a_face_at_a_later_step_than_its_coface_is_refused():
    stream = [(0, ["v"], None), (1, ["e"], [{0: 1}])]
    # later in t alone, then in r alone: the sum of the coordinates calls
    # neither later than (1, 1), and lexicographic order only the first
    for face in ((2, 0), (0, 2)):
        with pytest.raises(
            ValueError, match=r"a step \(1, 1\) generator has a later face"
        ):
            filtered_homology(stream, {"v": face, "e": (1, 1)}.__getitem__)
    # a list or a dict does not hash, and is named as any other non-pair
    for bad in ((0, 0.5), (1, True), 1, (0, 0, 0), [0, 1], {1: 1}):
        with pytest.raises(TypeError, match=re.escape(f"step {bad!r} is not a pair")):
            filtered_homology(stream, {"v": (0, 0), "e": bad}.get)
    with pytest.raises(TypeError, match="step None is not a pair of ints"):
        filtered_homology(stream, {"v": (0, 0)}.get)
    # the same face at the coface's step or an earlier one is read
    for face in ((1, 1), (0, 1), (1, 0)):
        points = filtered_homology(stream, {"v": face, "e": (1, 1)}.__getitem__)
        assert points[1, 1][0] == {}


@st.composite
def filtered_complexes(draw):
    """A filtration as _filtered_stream reads it, degrees 0 to at most 3.

    It starts as a direct sum of free generators and pieces Z -a-> Z, a in
    {+-1, 2, 3, 4, 6}, so its homology is known, then hides that in dense
    columns: each degree's basis is permuted and changed by elementary
    unimodular operations, which keep d^2 = 0.  Each generator draws a step
    (t, r) in [0, 2]^2, raised to dominate the steps of its faces.  One
    more draw decides whether a boundary equal to one drawn before it is
    that same object, so that one column object serves several generators.
    """
    top = draw(st.integers(1, 3))
    size = [0] * (top + 1)
    pieces = []  # (degree, row, column, a) of each Z -a-> Z
    for _ in range(draw(st.integers(1, 7))):
        p = draw(st.integers(0, top))
        if p > 0 and draw(st.booleans()):
            a = draw(st.sampled_from([1, -1, 2, 3, 4, 6]))
            pieces.append((p, size[p - 1], size[p], a))
            size[p - 1] += 1
        size[p] += 1
    # d[p][i][j]: the coefficient of generator i of degree p - 1 in the
    # boundary of generator j of degree p
    d = {p: [[0] * size[p] for _ in range(size[p - 1])] for p in range(1, top + 1)}
    for p, i, j, a in pieces:
        d[p][i][j] = a
    for p in range(top + 1):
        order = draw(st.permutations(range(size[p])))
        if p > 0:
            d[p] = [[row[j] for j in order] for row in d[p]]
        if p < top:
            d[p + 1] = [d[p + 1][i] for i in order]
        if size[p] < 2:
            continue
        operations = st.tuples(
            st.integers(0, size[p] - 1),
            st.integers(0, size[p] - 1),
            st.sampled_from([1, -1, 2, -3]),
        )
        for i, j, c in draw(st.lists(operations, max_size=4)):
            if i == j:
                continue
            # generator i becomes e_i + c e_j: its column gains c times
            # column j, and row j of the boundary into degree p loses c
            # times row i
            if p > 0:
                for row in d[p]:
                    row[i] += c * row[j]
            if p < top:
                d[p + 1][j] = [
                    v - c * w for v, w in zip(d[p + 1][j], d[p + 1][i])
                ]
    steps = {}
    filtration = {}
    shared = {}  # the boundaries drawn so far, if equal ones are to be shared
    share = draw(st.booleans())
    for p in range(top + 1):
        cells = filtration[p] = []
        for j in range(size[p]):
            faces = {
                (p - 1, i): row[j] for i, row in enumerate(d.get(p, ())) if row[j]
            }
            if share:
                faces = shared.setdefault(frozenset(faces.items()), faces)
            t, r = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
            for face in faces:
                t, r = max(t, steps[face][0]), max(r, steps[face][1])
            steps[p, j] = t, r
            cells.append(((p, j), (t, r), faces))
    return filtration


@settings(max_examples=300)
@given(filtered_complexes())
def test_the_walk_splits_each_slice_as_split_units_does(filtration):
    # the draws share rows after their unimodular operations, and some share
    # column objects; the check's walk must give each slice split_units'
    # count and the very same residual columns, in order
    stream, _ = _filtered_stream(filtration)
    for _, _, columns, units, rest in homology._checked_splits(stream):
        expected_units, expected_rest = homology.split_units(columns or ())
        assert units == expected_units
        assert list(map(id, rest)) == list(map(id, expected_rest))


def test_a_shared_row_goes_to_the_general_split():
    # both columns hold a 1, in the row they share, so neither is an
    # isolated unit: H_0 = Z^2 / <(1, 0), (1, 2)> = Z_2, which counting a
    # column with a +-1 as a unit would read as 0
    stream = [(0, ["u", "v"], None), (1, ["a", "b"], [{0: 1}, {0: 1, 1: 2}])]
    z_2 = FGAbelianGroup(0, ((2, 1),))
    assert integral_homology(stream) == {0: z_2}
    assert filtered_homology(stream, lambda g: (0, 0))[0, 0][0] == {0: z_2}


@settings(max_examples=300)
@given(filtered_complexes(), st.data())
def test_random_filtered_complexes_match_the_dense_snf(filtration, data):
    # integral_homology at the top step, and the filtered pass at every
    # step, absolute and band, against the dense Smith normal form alone
    _matches_the_dense_snf(filtration)
    stream, step = _filtered_stream(filtration)
    # a face raised above its coface, in either coordinate, is refused
    edges = [
        (face, t) for cells in filtration.values()
        for _, t, faces in cells for face in faces
    ]
    if edges:
        face, (t, r) = data.draw(st.sampled_from(edges))
        later = data.draw(st.sampled_from([(t + 1, r), (t, r + 1)]))
        with pytest.raises(ValueError, match="later face"):
            filtered_homology(stream, lambda g: later if g == face else step(g))
