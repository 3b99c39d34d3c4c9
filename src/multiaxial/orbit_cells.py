"""Cell model for the orbit space of the sphere of k defining representations.

Orbits of unit k-tuples of vectors in n-space are indexed by shapes: a
strictly decreasing tuple of pivot positions (m_1 > ... > m_r >= 1 with
m_1 <= k and r <= n), the rank r being the dimension of the span.  The
cell over a shape has dimension

    2*sum(m) - r - 1      over the complex numbers,
    4*sum(m) - 3*r - 1    over the quaternions.

The degree drops by exactly one when the last pivot equals 1, and removing
that pivot gives the unique boundary cell; every other attaching map is
degree zero on cells.  That single rule, pivot_boundary, is the whole
differential.

build_chain_complex works on plain pivot tuples: it groups them by
dimension and emits each boundary as sparse columns, one row -> coefficient
map per cell, with no dense matrix anywhere.  The validated Shape objects
are for callers that inspect individual cells.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .family import Family
from .grassmannian import require_valid
from .homology import ChainComplex

Pivots = tuple[int, ...]


@dataclass(frozen=True)
class Shape:
    pivots: Pivots
    family: Family

    def __post_init__(self):
        if not self.pivots:
            raise ValueError("a shape needs at least one pivot")
        previous = None
        for m in self.pivots:
            if m < 1:
                raise ValueError("pivots must be positive")
            if previous is not None and m >= previous:
                raise ValueError("pivots must strictly decrease")
            previous = m

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def dimension(self) -> int:
        return shape_dimension(self)

    def label(self) -> str:
        return _label(self.pivots)


def _label(pivots: Pivots) -> str:
    return "(" + ",".join(map(str, pivots)) + ")"


def _dimension_weights(family: Family) -> tuple[int, int]:
    """(a, b) with dimension a*sum(pivots) - b*rank - 1."""
    return (2, 1) if family is Family.COMPLEX else (4, 3)


def shape_dimension(shape: Shape) -> int:
    a, b = _dimension_weights(shape.family)
    return a * sum(shape.pivots) - b * shape.rank - 1


def pivot_boundary(pivots: Pivots) -> tuple[tuple[Pivots, int], ...]:
    """Formal boundary of the cell over a pivot tuple, as (face, coefficient).

    Nonzero only for rank >= 2 with last pivot 1.
    """
    if len(pivots) >= 2 and pivots[-1] == 1:
        return ((pivots[:-1], 1),)
    return ()


def boundary(shape: Shape) -> dict[Shape, int]:
    """Formal boundary of a cell, as shape -> coefficient."""
    return {
        Shape(face, shape.family): coefficient
        for face, coefficient in pivot_boundary(shape.pivots)
    }


@dataclass(frozen=True)
class CellFiltration:
    """Restriction of the cell set to a band of ranks.

    None means unbounded on that side; bounds are clamped to [1, n] at
    enumeration time, so a band lying outside the ambient ranks just
    selects nothing.
    """

    min_rank: int | None = None
    max_rank: int | None = None

    def __post_init__(self):
        if (
            self.min_rank is not None
            and self.max_rank is not None
            and self.min_rank > self.max_rank
        ):
            raise ValueError("min_rank must not exceed max_rank")

    @classmethod
    def exact(cls, rank: int) -> "CellFiltration":
        return cls(rank, rank)

    def rank_range(self, n: int) -> range:
        lo = 1 if self.min_rank is None else max(1, self.min_rank)
        hi = n if self.max_rank is None else min(n, self.max_rank)
        return range(lo, hi + 1)


def _cells_by_degree(
    family: Family, n: int, k: int, filtration: CellFiltration | None
) -> dict[int, list[Pivots]]:
    """Pivot tuples of the filtered cell set by dimension, both ascending."""
    require_valid(n, k)
    if filtration is None:
        filtration = CellFiltration()
    a, b = _dimension_weights(family)
    by_degree: dict[int, list[Pivots]] = {}
    for r in filtration.rank_range(n):
        offset = -b * r - 1
        for pivots in itertools.combinations(range(k, 0, -1), r):
            by_degree.setdefault(a * sum(pivots) + offset, []).append(pivots)
    for cells in by_degree.values():
        cells.sort()
    return dict(sorted(by_degree.items()))


def enumerate_shapes(
    family: Family, n: int, k: int, filtration: CellFiltration | None = None
) -> list[Shape]:
    """All shapes for the given ambient bounds, sorted by (dimension, pivots).

    >>> [s.label() for s in enumerate_shapes(Family.COMPLEX, 2, 2)]
    ['(1)', '(2)', '(2,1)']
    """
    return [
        Shape(pivots, family)
        for cells in _cells_by_degree(family, n, k, filtration).values()
        for pivots in cells
    ]


def build_chain_complex(
    family: Family, n: int, k: int, filtration: CellFiltration | None = None
) -> ChainComplex:
    """Cellular chain complex of the filtered cell set.

    Boundary terms that leave the filtration are dropped, which is what
    makes the rank-restricted complexes compute relative homology.

    >>> complex_ = build_chain_complex(Family.COMPLEX, 2, 2)
    >>> complex_.generators(3), complex_.columns(3)
    (('(2,1)',), ({0: 1},))
    """
    by_degree = _cells_by_degree(family, n, k, filtration)
    generators = {
        p: [_label(pivots) for pivots in cells] for p, cells in by_degree.items()
    }
    boundaries = {}
    for p, cells in by_degree.items():
        below = by_degree.get(p - 1)
        if not below:
            continue
        row_of = {pivots: i for i, pivots in enumerate(below)}
        columns = []
        for pivots in cells:
            column = {}
            for face, coefficient in pivot_boundary(pivots):
                row = row_of.get(face)
                if row is not None:
                    column[row] = coefficient
            columns.append(column)
        boundaries[p] = columns
    return ChainComplex(generators, boundaries)


def orbit_space_dimension(family: Family, n: int, k: int) -> int:
    """Dimension of the whole orbit space, which is also its top cell's.

    >>> orbit_space_dimension(Family.COMPLEX, 2, 4)
    11
    """
    require_valid(n, k)
    if family is Family.COMPLEX:
        return 2 * k * n - 1 - n * n
    return 4 * k * n - 1 - n * (2 * n + 1)
