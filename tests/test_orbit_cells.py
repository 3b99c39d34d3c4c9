import itertools
from math import comb
from types import SimpleNamespace

import pytest

from multiaxial.family import Family
from multiaxial.homology import checked_slices
from multiaxial.orbit_cells import cell_label, cell_slices, cells_by_rank
from multiaxial.structure_set import orbit_space_dimension

C = Family.COMPLEX
H = Family.QUATERNIONIC
SMALL = [(n, k) for n in range(1, 4) for k in range(n, 7)]


# the reference model: pivot tuples from itertools.combinations, placed by
# the dimension formula, and the mask of each tuple
def M(*pivots):
    """The cell over a pivot tuple: bit m - 1 set for each pivot m."""
    return sum(1 << (m - 1) for m in pivots)


def pivots_of(cell):
    return tuple(m for m in range(cell.bit_length(), 0, -1) if cell >> (m - 1) & 1)


def reference_tuples(family, n, k, ranks=None):
    """Pivot tuples by dimension, both ascending, tuples in lex order."""
    a, b = {C: (2, 1), H: (4, 3)}[family]
    by_degree = {}
    for r in range(1, n + 1):
        if ranks is None or r in ranks:
            for pivots in itertools.combinations(range(k, 0, -1), r):
                by_degree.setdefault(a * sum(pivots) - b * r - 1, []).append(pivots)
    return {p: sorted(by_degree[p]) for p in sorted(by_degree)}


def reference(family, n, k, ranks=None):
    return {
        p: [M(*pivots) for pivots in tuples]
        for p, tuples in reference_tuples(family, n, k, ranks).items()
    }


def by_degree(by_rank):
    """The stream's own by-degree view of a growth: each slice's cells."""
    return {p: cells for p, cells, _ in cell_slices(by_rank)}


def reference_face(pivots):
    """The one face of the cell over a tuple: the tuple without its last
    pivot when that is 1 and the rank is >= 2, else None."""
    return pivots[:-1] if len(pivots) >= 2 and pivots[-1] == 1 else None


def test_every_cell_is_a_strictly_decreasing_pivot_tuple():
    for family in (C, H):
        for n, k in SMALL:
            cells = by_degree(cells_by_rank(family, n, k))
            assert cells == reference(family, n, k)
            for cells_p in cells.values():
                for cell in cells_p:
                    pivots = pivots_of(cell)
                    assert M(*pivots) == cell
                    assert 1 <= len(pivots) <= n
                    assert k >= pivots[0]
                    assert pivots[-1] >= 1
                    assert all(a > b for a, b in zip(pivots, pivots[1:]))


def test_dimension_examples():
    assert by_degree(cells_by_rank(C, 2, 2))[3] == [M(2, 1)]
    assert by_degree(cells_by_rank(H, 2, 2))[5] == [M(2, 1)]
    assert by_degree(cells_by_rank(H, 1, 3))[8] == [M(3)]
    assert by_degree(cells_by_rank(C, 1, 1)) == {0: [M(1)]}
    assert by_degree(cells_by_rank(H, 1, 1)) == {0: [M(1)]}


def face_column(cell, below):
    """The boundary column of cell over the slice below, degrees 0 and 1;
    cell_slices reads no rank key, so one rank holds both."""
    return list(cell_slices({1: {0: below, 1: [cell]}}))[1][2][0]


def test_boundary_examples():
    assert face_column(M(2, 1), [M(2)]) == {0: 1}
    assert face_column(M(4, 2, 1), [M(3, 2), M(4, 2)]) == {1: 1}
    # mask - 1 is (3, 1) and (2, 1) here, but neither is a face: the last
    # pivot is not 1
    assert face_column(M(3, 2), [M(3, 1)]) == {}
    assert face_column(M(3), [M(2, 1)]) == {}
    assert face_column(M(1), [M(2)]) == {}


def test_enumerate_sphere():
    assert by_degree(cells_by_rank(C, 1, 2)) == {0: [M(1)], 2: [M(2)]}


def test_enumerate_two_by_two():
    assert by_degree(cells_by_rank(C, 2, 2)) == {0: [M(1)], 2: [M(2)], 3: [M(2, 1)]}


def test_enumerate_rank_two_slice():
    assert by_degree(cells_by_rank(C, 2, 4, range(2, 3))) == {
        3: [M(2, 1)],
        5: [M(3, 1)],
        7: [M(3, 2), M(4, 1)],
        9: [M(4, 2)],
        11: [M(4, 3)],
    }


def test_enumeration_order_is_dimension_then_lex():
    cells = by_degree(cells_by_rank(C, 3, 5))
    keys = [(p, pivots_of(cell)) for p, cells_p in cells.items() for cell in cells_p]
    assert keys == sorted(keys)
    # numeric order of the masks is the lexicographic order of the tuples
    assert [cell for cells_p in cells.values() for cell in cells_p] == [
        M(*pivots) for _, pivots in keys
    ]


def test_enumeration_count_and_domain():
    for family in (C, H):
        for n, k in SMALL:
            by_rank = cells_by_rank(family, n, k)
            total = sum(len(m) for cells in by_rank.values() for m in cells.values())
            assert total == sum(comb(k, r) for r in range(1, n + 1))
    with pytest.raises(ValueError):
        cells_by_rank(C, 3, 2)


def test_empty_filtration_band():
    assert cells_by_rank(C, 2, 4, range(3, 5)) == {}
    assert cells_by_rank(C, 2, 4, range(2, 2)) == {}
    assert list(cell_slices({})) == []


@pytest.mark.parametrize("family", [C, H], ids=str)
def test_a_band_reaching_outside_one_to_n_selects_nothing_there(family):
    # no rank-0 cell: the empty tuple would sit in degree -1
    for k in range(2, 7):
        only = {r: cells_by_rank(family, 2, k, range(r, r + 1)) for r in (1, 2)}
        assert cells_by_rank(family, 2, k, range(0, 2)) == only[1]
        assert cells_by_rank(family, 2, k, range(-4, 2)) == only[1]
        assert cells_by_rank(family, 2, k, range(3, 9)) == {}
        assert cells_by_rank(family, 2, k, range(0, 1)) == {}
        assert cells_by_rank(family, 2, k, range(0, 9)) == cells_by_rank(family, 2, k)
        # a range is its members, in any step or direction
        assert cells_by_rank(family, 2, k, range(2, -1, -1)) == cells_by_rank(
            family, 2, k
        )
        assert cells_by_rank(family, 2, k, range(0, 9, 2)) == only[2]


@pytest.mark.parametrize(
    "ranks",
    [
        (2, 2),
        [2],
        {2},
        2,
        SimpleNamespace(min_rank=2, max_rank=2, rank_range=lambda n: range(2, 3)),
    ],
    ids=["tuple", "list", "set", "int", "filtration_like"],
)
def test_a_band_that_is_not_a_range_is_refused(ranks):
    with pytest.raises(TypeError, match="ranks must be a range"):
        cells_by_rank(C, 2, 4, ranks)


def test_build_two_by_two_complex():
    assert list(checked_slices(cell_slices(cells_by_rank(C, 2, 2)))) == [
        (0, (M(1),), None),
        (2, (M(2),), None),
        (3, (M(2, 1),), ({0: 1},)),
    ]


def test_generators_are_the_enumerated_cells():
    for family in (C, H):
        for n, k in SMALL:
            by_rank = cells_by_rank(family, n, k)
            merged = {}  # each degree's rank lists, one after another
            for cells in by_rank.values():
                for p, masks in cells.items():
                    merged.setdefault(p, []).extend(masks)
            slices = checked_slices(cell_slices(by_rank))
            assert [(p, list(cells_p)) for p, cells_p, _ in slices] == sorted(
                (p, sorted(masks)) for p, masks in merged.items()
            )


def test_relative_complex_has_zero_boundaries():
    cells = cells_by_rank(C, 2, 4, range(2, 3))
    for _, _, columns in checked_slices(cell_slices(cells)):
        assert columns is None


def test_cell_slices_drop_faces_outside_the_cells():
    cells = {1: {2: [M(2)]}, 2: {3: [M(2, 1)], 5: [M(3, 1)]}}
    assert list(cell_slices(cells))[1] == (3, [M(2, 1)], [{0: 1}])
    del cells[1]
    assert list(checked_slices(cell_slices(cells))) == [
        (3, (M(2, 1),), None),
        (5, (M(3, 1),), None),
    ]


@pytest.mark.parametrize("family", [C, H], ids=str)
def test_every_band_boundary_is_a_partial_matching(family):
    # each nonzero column is a single 1 and no row serves two columns, so
    # every elimination pivots on isolated units: integral ranks equal the
    # ranks over any field, and the homology is free
    matched = 0
    for n in range(1, 6):
        for k in range(n, 10):
            for lo, hi in itertools.combinations_with_replacement(range(1, n + 1), 2):
                cells = cells_by_rank(family, n, k, range(lo, hi + 1))
                for p, _, columns in checked_slices(cell_slices(cells)):
                    used = set()
                    for column in filter(None, columns or ()):
                        where = (n, k, lo, hi, p, column)
                        assert list(column.values()) == [1], where
                        assert not used & column.keys(), where
                        used |= column.keys()
                    matched += len(used)
    assert matched


def test_quaternionic_point():
    assert list(cell_slices(cells_by_rank(H, 1, 1))) == [(0, [M(1)], None)]


def test_exactly_one_zero_cell_and_top_dimension():
    for family in (C, H):
        for n, k in SMALL:
            by_rank = cells_by_rank(family, n, k)
            cells = by_degree(by_rank)
            assert cells[0] == [M(1)]
            assert max(cells) == orbit_space_dimension(family, n, k)
            # the oracles read the top degree off rank n alone
            assert max(by_rank[n]) == max(cells)


def test_full_rank_interior_count():
    for family in (C, H):
        for n, k in SMALL:
            cells = cells_by_rank(family, n, k, range(n, n + 1))[n]
            interior = [
                cell
                for cells_p in cells.values()
                for cell in cells_p
                if pivots_of(cell)[-1] > 1
            ]
            assert len(interior) == comb(k - 1, n)


def test_full_rank_dimension_parities():
    for n, k in SMALL:
        for p in cells_by_rank(C, n, k, range(n, n + 1))[n]:
            assert p % 2 == (n + 1) % 2
        residues = {p % 4 for p in cells_by_rank(H, n, k, range(n, n + 1))[n]}
        assert len(residues) == 1


def test_orbit_space_dimension_examples():
    # the oracle reads the dimension as its top cell's degree, in rank n
    assert max(cells_by_rank(C, 2, 4)[2]) == 11
    assert max(cells_by_rank(H, 2, 3)[2]) == 13
    assert max(cells_by_rank(C, 1, 1)[1]) == 0


@pytest.mark.parametrize("family", [C, H], ids=str)
def test_masks_faces_and_labels_match_the_pivot_tuples(family):
    # every band, empty and reaching outside 1..n included: the masks and
    # their order in each degree, each face and each label are those of the
    # reference tuples
    for n in range(1, 6):
        for k in range(n, 10):
            tuples = reference_tuples(family, n, k)
            for lo in range(0, n + 2):
                for hi in range(lo - 1, n + 2):
                    ranks = range(lo, hi + 1)
                    band = {
                        p: [pivots for pivots in tuples_p if len(pivots) in ranks]
                        for p, tuples_p in tuples.items()
                    }
                    band = {p: tuples_p for p, tuples_p in band.items() if tuples_p}
                    by_rank = cells_by_rank(family, n, k, ranks)
                    cells = by_degree(by_rank)
                    where = (n, k, lo, hi)
                    assert cells == {
                        p: [M(*pivots) for pivots in tuples_p]
                        for p, tuples_p in band.items()
                    }, where
                    for p, cells_p, columns in cell_slices(by_rank):
                        below = band.get(p - 1, [])
                        for pivots, cell, column in zip(
                            band[p], cells_p, columns or [{}] * len(cells_p)
                        ):
                            assert cell_label(cell) == (
                                "(" + ",".join(map(str, pivots)) + ")"
                            ), where
                            face = reference_face(pivots)
                            expected = (
                                {below.index(face): 1} if face in below else {}
                            )
                            assert column == expected, (where, pivots)
                            if expected:
                                assert cells[p - 1][below.index(face)] == cell - 1


@pytest.mark.parametrize("family", [C, H], ids=str)
def test_one_column_of_ranks_merges_into_every_band(family):
    # one growth of (family, k) up to rank 5 serves every n <= 5: streaming
    # its ranks gives each band, rank n alone is the rank-n band, and the
    # streams change none of its lists
    for k in range(1, 10):
        column = cells_by_rank(family, min(5, k), k)
        assert list(column) == list(range(1, min(5, k) + 1))
        for cells in column.values():
            for masks in cells.values():
                assert masks == sorted(set(masks)), (k, masks)
        before = {r: {p: list(masks) for p, masks in cells.items()}
                  for r, cells in column.items()}
        for n in range(1, min(5, k) + 1):
            assert column[n] == cells_by_rank(family, n, k, range(n, n + 1))[n]
            for lo in range(0, n + 2):
                for hi in range(lo - 1, n + 2):
                    ranks = range(lo, hi + 1)
                    wanted = filter(ranks.__contains__, range(1, n + 1))
                    streamed = by_degree({r: column[r] for r in wanted})
                    assert list(streamed.items()) == list(
                        reference(family, n, k, ranks).items()
                    ), (n, k, lo, hi)
        assert column == before
