"""Cells of the orbit space of the sphere of k defining representations: the
oracle route's model, which homology and l_homology reduce and assemble.

Orbits of unit k-tuples of vectors in n-space are indexed by pivot tuples:
strictly decreasing pivot positions (m_1 > ... > m_r >= 1 with m_1 <= k
and r <= n), the rank r being the dimension of the span.  A plain tuple is
the package's only representation of a cell.  The cell over a tuple has
dimension

    2*sum(m) - r - 1      over the complex numbers,
    4*sum(m) - 3*r - 1    over the quaternions.

The degree drops by exactly one when the last pivot equals 1, and removing
that pivot gives the unique boundary cell, with coefficient +1; every other
attaching map is degree zero on cells.  That single rule, pivot_boundary,
is the whole differential, and nothing here comes from the closed form,
not even the orbit space's dimension: that is the top cell's degree.

A rank band is a range of ranks, and cells_by_degree is the one place a
band becomes cells: the whole orbit space, the rank-n stratum pair or an
exported band.  It enumerates the band's tuples by dimension, whole, as
itertools.combinations lists a cell several times faster than a
per-slice generator.  cell_slices streams any such map as ascending
(degree, cells, sparse columns) slices, the package's one form of a
chain complex, which homology reads and export-complex writes two
adjacent degrees at a time, with no dense matrix or string.  cell_label
is the one place a cell becomes text, "(m1,...,mr)", and only output
that prints a cell calls it.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Sequence

from .family import Family, require_valid
from .homology import Slice

Pivots = tuple[int, ...]


def cell_label(pivots: Pivots) -> str:
    """The printed name of a cell.

    >>> cell_label((3, 1))
    '(3,1)'
    """
    return "(" + ",".join(map(str, pivots)) + ")"


def pivot_boundary(pivots: Pivots) -> Pivots | None:
    """The one face of the cell over a pivot tuple, with coefficient +1: the
    tuple without its last pivot when that is 1 and the rank is >= 2, else
    None."""
    if len(pivots) >= 2 and pivots[-1] == 1:
        return pivots[:-1]
    return None


def cells_by_degree(
    family: Family, n: int, k: int, ranks: range | None = None
) -> dict[int, list[Pivots]]:
    """Pivot tuples of the given ranks by dimension, both ascending.  None
    means every rank, range(1, n + 1); a rank outside 1..n selects nothing.

    >>> cells_by_degree(Family.COMPLEX, 2, 2)
    {0: [(1,)], 2: [(2,)], 3: [(2, 1)]}
    >>> cells_by_degree(Family.COMPLEX, 2, 2, range(2, 9))
    {3: [(2, 1)]}
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
    by_degree: dict[int, list[Pivots]] = {}
    for r in filter(ranks.__contains__, range(1, n + 1)):
        offset = -b * r - 1
        for pivots in itertools.combinations(range(k, 0, -1), r):
            by_degree.setdefault(a * sum(pivots) + offset, []).append(pivots)
    for cells in by_degree.values():
        cells.sort()
    return dict(sorted(by_degree.items()))


def cell_slices(by_degree: Mapping[int, Sequence[Pivots]]) -> Iterator[Slice]:
    """Cellular chain complex on exactly the given cells, degree -> pivots,
    as ascending slices; a face is looked up in the slice one degree below
    and dropped if absent, which makes a rank band compute relative homology.

    >>> list(cell_slices({2: [(2,)], 3: [(2, 1)], 5: [(3, 1)]}))
    [(2, [(2,)], None), (3, [(2, 1)], [{0: 1}]), (5, [(3, 1)], None)]
    """
    no_face: dict[int, int] = {}  # shared by every cell without a face
    for p, cells in sorted(by_degree.items()):
        below = by_degree.get(p - 1)
        if not below:
            yield p, cells, None
            continue
        row_of = dict(zip(below, range(len(below))))
        columns = []
        for pivots in cells:
            row = row_of.get(pivot_boundary(pivots))
            columns.append(no_face if row is None else {row: 1})
        yield p, cells, columns

