"""Cells of the orbit space of the sphere of k defining representations: the
oracle route's model, which homology and l_homology reduce and assemble.

Orbits of unit k-tuples of vectors in n-space are indexed by pivot tuples:
strictly decreasing pivot positions (m_1 > ... > m_r >= 1 with m_1 <= k
and r <= n), the rank r being the dimension of the span.  A cell is an int
mask with bit m - 1 set for each pivot m, the package's only representation
of one; numeric order of the masks is the lexicographic order of the
descending tuples (Knuth, TAOCP 4A, 7.2.1.3).  The cell has dimension

    2*sum(m) - r - 1      over the complex numbers,
    4*sum(m) - 3*r - 1    over the quaternions.

The degree drops by exactly one when the last pivot equals 1, and removing
that pivot gives the unique boundary cell, with coefficient +1; every other
attaching map is degree zero on cells.  On masks that single rule is the
whole differential: an odd cell other than 1 has the face cell - 1.  Nothing
here comes from the closed form, not even the orbit space's dimension:
that is the top cell's degree.

A rank band is a range of ranks, and cells_by_rank is the one place a
band becomes cells.  It builds each rank's masks by dimension, whole,
adding one pivot at a time to every mask of one rank lower, so each list
grows in order at C speed.  Its map, rank -> degree -> masks, is the one
form a set of cells takes.  The strata nest: rank m of one growth is the
rank-m stratum pair of every (family, n >= m, k).  cell_slices streams
such a map as ascending (degree, cells, sparse columns) slices, merging
a degree's ranks as the stream reaches it and finding the faces of a
slice in one walk over the slice below: the package's one form of a
chain complex, which homology reads and export-complex writes once, a
slice at a time, with no dense matrix or string.  cell_label is the one
place a cell becomes text, "(m1,...,mr)", and only output that prints a
cell calls it.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from .family import Family, require_valid
from .homology import Slice


def cell_label(cell: int) -> str:
    """The printed name of a cell, its pivots from the highest down.

    >>> cell_label(0b101)
    '(3,1)'
    """
    pivots = (m for m in range(cell.bit_length(), 0, -1) if cell >> (m - 1) & 1)
    return "(" + ",".join(map(str, pivots)) + ")"


def cells_by_rank(
    family: Family, n: int, k: int, ranks: range | None = None
) -> dict[int, dict[int, list[int]]]:
    """Cells of the given ranks by rank, then by dimension, all ascending.
    None means every rank, range(1, n + 1); a rank outside 1..n selects none.

    >>> cells_by_rank(Family.COMPLEX, 2, 3)
    {1: {0: [1], 2: [2], 4: [4]}, 2: {3: [3], 5: [5], 7: [6]}}
    """
    require_valid(n, k)
    if ranks is None:
        ranks = range(1, n + 1)
    elif type(ranks) is not range:
        raise TypeError(f"ranks must be a range, got {ranks!r}")
    # dimension a*sum(pivots) - b*rank - 1
    if family is Family.COMPLEX:
        a, b = 2, 1
    elif family is Family.QUATERNIONIC:
        a, b = 4, 3
    else:
        Family.require(family)
    wanted = list(filter(ranks.__contains__, range(1, n + 1)))
    low, top = min(wanted, default=1), max(wanted, default=0)
    # grown[r]: rank r's masks with pivots <= m by dimension (rank 0's in -1);
    # pivot m's bit is above each, so appending keeps every list ascending.
    # Rank r stops growing once the k - m pivots to come cannot lift it to low.
    grown: list[dict[int, list[int]]] = [{-1: [0]}] + [{} for _ in range(top)]
    for m in range(1, k + 1):
        put, weight = (1 << (m - 1)).__or__, a * m - b
        for r in range(min(m, top), max(1, low - k + m) - 1, -1):
            into = grown[r]
            for p, masks in grown[r - 1].items():
                into.setdefault(p + weight, []).extend(map(put, masks))
    return {r: grown[r] for r in wanted}


def cell_slices(by_rank: dict[int, dict[int, list[int]]]) -> Iterator[Slice]:
    """Cellular chain complex on exactly the given cells, rank -> degree ->
    ascending masks, as ascending slices; a degree's ranks merge into one sorted
    list when the stream reaches it, so two merged degrees at most are held.
    A face is found by one forward walk over the slice one degree below and
    dropped if absent, which makes a rank band compute relative homology.

    >>> list(cell_slices({1: {2: [0b10]}, 2: {3: [0b11], 5: [0b101]}}))
    [(2, [2], None), (3, [3], [{0: 1}]), (5, [5], None)]
    """
    runs: dict[int, list[list[int]]] = {}  # degree -> its lists, top rank first
    for masks in reversed(by_rank.values()):
        for p, cells in masks.items():
            runs.setdefault(p, []).append(cells)
    no_face: dict[int, int] = {}  # shared by every cell without a face
    prior = None, None  # the slice before: its degree and cells
    for p in sorted(runs):
        lists = runs.pop(p)
        # a higher rank's masks are mostly lower, so the lists come nearly in order
        cells = sorted(chain.from_iterable(lists)) if len(lists) > 1 else lists[0]
        below = prior[1] if prior[0] == p - 1 else None
        prior = p, cells
        if not below:
            yield p, cells, None
            continue
        columns = []
        row, end = 0, len(below)  # faces ascend with the cells: one walk
        for cell in cells:
            if cell & 1:  # mask 0 is no cell, so cell 1 finds no face
                face = cell - 1
                while row < end and below[row] < face:
                    row += 1
                if row < end and below[row] == face:
                    columns.append({row: 1})
                    continue
            columns.append(no_face)
        yield p, cells, columns
