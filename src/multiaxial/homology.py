"""Exact integer chain complexes and their homology.

A boundary is stored as sparse columns, one row -> coefficient map per
generator holding only the nonzero entries.  Integral homology first splits
off every column with a +-1 entry alone in its row: such a pivot needs no
update at all, since the Schur complement of a pivot only changes the
columns with an entry in the pivot row.  In an orbit-space complex every
nonzero column has such a unit, a free face with exactly one coface, the
elementary collapse of coreduction (Mrozek and Batko, Discrete Comput.
Geom. 41, 2009).  The residual is whatever the split leaves, every other
nonzero column; it goes as one dense block to the Smith normal form, and
for the orbit-space complexes it is empty.  Mod 2 ranks come from the same
columns, with the odd entries packed into bitmasks.

Homology is computed in two halves.  boundary_invariant_factors and
boundary_ranks_mod2 do the chain-level work: one elimination of each
nonzero boundary.  read_integral_homology and read_mod2_homology turn those
per-boundary invariants into groups and Betti numbers without touching a
column.  integral_homology and mod2_homology are the two halves composed; a
caller that also wants the invariants themselves, as verify does to compare
them with the dense routines, keeps them and calls the reads.

The Smith normal form runs on Python ints, so nothing overflows, but its
smallest-pivot elimination puts no bound on the growth of intermediate
entries: a random 40 by 40 matrix with entries in [-9, 9] takes seconds.
Bounding it is an open ROADMAP item.

>>> smith_normal_form([[2, 4], [6, 8]])
[2, 4]
>>> smith_normal_form([[1, 0], [0, 1]])
[1, 1]
"""

from __future__ import annotations

from itertools import chain, compress
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, NoReturn, Sequence

from .abelian import FGAbelianGroup

Matrix = Sequence[Sequence[int]]
Column = Mapping[int, int]

# the one stored column of a complex with no entries, shared and read only
_NO_ENTRIES: Column = MappingProxyType({})


def _reject_row(p: int, column: Column, rows: int) -> NoReturn:
    """Raise for the out-of-range row of a boundary column."""
    low = min(column)
    row = low if low < 0 else max(column)
    raise ValueError(
        f"boundary in degree {p} has row {row}, expected 0 <= row < {rows}"
    )


def _require_rectangular(matrix: Matrix) -> None:
    if len(set(map(len, matrix))) > 1:
        raise ValueError("matrix rows must all have the same length")


def _not_an_int(value: object, what: str) -> NoReturn:
    """Refuse a value that should be an int, rather than truncate it."""
    raise TypeError(f"{what} {value!r} is not an int")


def _pruned_copy(matrix: Matrix) -> list[list[int]]:
    """Mutable rows of matrix without its all-zero rows and columns,
    which leaves the invariant factors unchanged."""
    _require_rectangular(matrix)
    rows = [row for row in matrix if any(row)]
    keep = [any(column) for column in zip(*rows)]
    return [
        [v for v in compress(row, keep) if type(v) is int or _not_an_int(v, "entry")]
        for row in rows
    ]


def _smallest_nonzero(a: list[list[int]], t: int) -> tuple[int, int] | None:
    best = None
    best_abs = None
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, len(row)):
            v = row[j]
            if v != 0 and (best_abs is None or abs(v) < best_abs):
                best = (i, j)
                best_abs = abs(v)
                if best_abs == 1:
                    return best
    return best


def smith_normal_form(matrix: Matrix) -> list[int]:
    """Nonzero invariant factors of an integer matrix, d_1 | d_2 | ...

    The length of the result is the rank.  Unimodular row and column
    operations take the matrix to a diagonal, FGAbelianGroup.from_orders
    turns its non-unit entries into the divisibility chain, and 1s pad that
    to the rank.
    """
    a = _pruned_copy(matrix)
    m = len(a)
    n = len(a[0]) if m else 0
    orders: list[int] = []  # the diagonal entries other than +-1
    t = 0
    while t < min(m, n):
        found = _smallest_nonzero(a, t)
        if found is None:
            break
        i0, j0 = found
        a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
        # clear column t, then row t; a remainder becomes the pivot and starts over
        while True:
            p = a[t][t]
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // p
                    if q:
                        for j in range(t, n):
                            a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        break
            else:
                for j in range(t + 1, n):
                    if a[t][j]:
                        q = a[t][j] // p
                        if q:
                            for i in range(t, m):
                                a[i][j] -= q * a[i][t]
                        if a[t][j]:
                            for i in range(t, m):
                                a[i][t], a[i][j] = a[i][j], a[i][t]
                            break
                else:
                    break
        if a[t][t] not in (1, -1):
            orders.append(a[t][t])
        t += 1
    # orbit boundaries reach here as permutation matrices; building no group
    # for their unit diagonals keeps verify about 4 % faster
    torsion = FGAbelianGroup.from_orders(orders).torsion if orders else ()
    factors = [d for d, count in torsion for _ in range(count)]
    return [1] * (t - len(factors)) + factors


def _bitmask_rank(masks: Iterable[int]) -> int:
    """Rank over the field with two elements of vectors packed as bitmasks."""
    pivots: dict[int, int] = {}
    for bits in masks:
        while bits:
            low = bits & -bits
            other = pivots.get(low)
            if other is None:
                pivots[low] = bits
                break
            bits ^= other
    return len(pivots)


def rank_mod2(matrix: Matrix) -> int:
    """Rank over the field with two elements, via bitmask elimination;
    only nonzero entries are read, so zero rows and columns need no pruning."""
    _require_rectangular(matrix)
    return _bitmask_rank(
        sum(
            1 << j
            for j, v in compress(enumerate(row), row)
            if (type(v) is int or _not_an_int(v, "entry")) and v % 2
        )
        for row in matrix
    )


def sparse_rank_mod2(columns: Sequence[Column]) -> int:
    """rank_mod2 of a matrix given as sparse columns, odd entries as bits.

    >>> sparse_rank_mod2([{0: 1, 1: 3}, {0: 2}, {1: 1}])
    2
    """
    return _bitmask_rank(
        sum(1 << r for r, v in column.items() if v % 2)
        for column in columns
        if column
    )


def sparse_invariant_factors(columns: Sequence[Column]) -> list[int]:
    """smith_normal_form of a matrix given as sparse columns.

    Pivoting on a unit u at (r, c) is unimodular and leaves [u] plus the
    Schur complement A - A[:, c] u^-1 A[r, :], which only changes the
    columns that have an entry in row r.  So the rows are counted first,
    over all entries, and a column holding a unit that is the only entry of
    its row is counted as a factor 1 and dropped, with no update.  The other
    isolated units stay isolated, since dropping a column adds no entry to
    any row.  Every column left goes, as dense rows without the zero rows,
    to the dense Smith normal form.

    >>> sparse_invariant_factors([{0: 2, 1: 6}, {0: 4, 1: 8}])
    [2, 4]
    >>> sparse_invariant_factors([{0: 1, 1: 2}, {}, {1: 3}])
    [1, 3]
    """
    # a plain dict: on boundaries of a few columns a Counter's set-up costs
    # more than the counting
    uses: dict[int, int] = {}
    for r in chain.from_iterable(columns):
        uses[r] = uses.get(r, 0) + 1
    units = 0
    rest: list[Column] = []
    for column in filter(None, columns):
        for r, v in column.items():
            if (v == 1 or v == -1) and uses[r] == 1:
                units += 1
                break
        else:
            rest.append(column)
    factors = [1] * units
    if rest:
        rows = sorted({r for column in rest for r in column})
        factors += smith_normal_form(
            [[column.get(r, 0) for column in rest] for r in rows]
        )
    return factors


class ChainComplex:
    """Finite free chain complex over Z.

    generators maps a degree to its ordered generators, any distinct
    hashable values; an orbit-space complex uses its cells' pivot tuples.
    boundaries maps degree p to the boundary out of degree p as sparse
    columns: one mapping per generator of degree p, from a row (the index
    of a generator of degree p - 1) to its coefficient.  Zero coefficients
    may be left out and missing degrees are zero.  Int degrees, rows and
    coefficients, column counts, row ranges, distinct generators and the
    vanishing of every composite are checked here, at construction, and
    nowhere else; this constructor is the only way to make a complex.
    """

    def __init__(
        self,
        generators: Mapping[int, Sequence[Hashable]],
        boundaries: Mapping[int, Sequence[Column]],
    ):
        gens: dict[int, tuple[Hashable, ...]] = {}
        for p, cells in generators.items():
            if type(p) is not int:
                _not_an_int(p, "degree")
            if p < 0:
                raise ValueError("generator degrees must be nonnegative")
            cells = tuple(cells)
            if cells:
                if len(set(cells)) != len(cells):
                    raise ValueError(f"duplicate generators in degree {p}")
                gens[p] = cells
        gens = dict(sorted(gens.items()))
        stored: dict[int, tuple[Column, ...]] = {}
        for p, columns in boundaries.items():
            if type(p) is not int:
                _not_an_int(p, "degree")
            rows = len(gens.get(p - 1, ()))
            expected = len(gens.get(p, ()))
            if len(columns) != expected:
                raise ValueError(
                    f"boundary in degree {p} has {len(columns)} columns, "
                    f"expected {expected}"
                )
            # one pass over the nonzero columns: each is range checked by its
            # smallest and largest row, then copied without its zero entries
            kept: list[Column] | None = None
            for j, column in compress(enumerate(columns), columns):
                if min(column) < 0 or max(column) >= rows:
                    _reject_row(p, column, rows)
                copy = {}
                for r, v in column.items():
                    if v:
                        if type(r) is not int:
                            _not_an_int(r, "row")
                        if type(v) is not int:
                            _not_an_int(v, "coefficient")
                        copy[r] = v
                if copy:
                    if kept is None:
                        kept = [_NO_ENTRIES] * expected
                    kept[j] = copy
            if kept is not None:
                stored[p] = tuple(kept)
        for p, columns in stored.items():
            lower = stored.get(p - 1)
            if lower is None:
                continue
            for column in filter(None, columns):
                composite: dict[int, int] = {}
                for r, v in column.items():
                    for s, w in lower[r].items():
                        composite[s] = composite.get(s, 0) + v * w
                if any(composite.values()):
                    raise ValueError(f"boundary composite in degree {p} is nonzero")
        self._generators = gens
        self._columns = stored

    def degrees(self) -> list[int]:
        return sorted(self._generators)

    def boundary_degrees(self) -> list[int]:
        """Degrees whose outgoing boundary has a nonzero entry."""
        return sorted(self._columns)

    def generators(self, p: int) -> tuple[Hashable, ...]:
        return self._generators.get(p, ())

    def cell_count(self, p: int) -> int:
        return len(self._generators.get(p, ()))

    def total_cells(self) -> int:
        return sum(len(v) for v in self._generators.values())

    def columns(self, p: int) -> tuple[Column, ...]:
        """Sparse columns of the boundary out of degree p; read only."""
        stored = self._columns.get(p)
        if stored is not None:
            return stored
        return (_NO_ENTRIES,) * self.cell_count(p)

    def boundary_matrix(self, p: int) -> list[list[int]]:
        """Dense matrix of the boundary out of degree p, zeros included."""
        matrix = [[0] * self.cell_count(p) for _ in range(self.cell_count(p - 1))]
        for j, column in enumerate(self._columns.get(p, ())):
            for r, v in column.items():
                matrix[r][j] = v
        return matrix

    def euler_characteristic(self) -> int:
        return sum(
            (-1) ** p * len(cells) for p, cells in self._generators.items()
        )


def boundary_invariant_factors(complex_: ChainComplex) -> dict[int, list[int]]:
    """sparse_invariant_factors of every nonzero boundary, by degree."""
    return {
        p: sparse_invariant_factors(columns)
        for p, columns in complex_._columns.items()
    }


def boundary_ranks_mod2(complex_: ChainComplex) -> dict[int, int]:
    """sparse_rank_mod2 of every nonzero boundary, by degree."""
    return {p: sparse_rank_mod2(columns) for p, columns in complex_._columns.items()}


def read_integral_homology(
    complex_: ChainComplex, factors: Mapping[int, Sequence[int]]
) -> dict[int, FGAbelianGroup]:
    """Integral homology from the boundary_invariant_factors of complex_.

    In each degree the free rank is the cell count minus the ranks of the
    two adjacent boundaries, and the torsion is read off the invariant
    factors of the incoming boundary.
    """
    result = {}
    for p, cells in complex_._generators.items():
        incoming = factors.get(p + 1, ())
        free = len(cells) - len(factors.get(p, ())) - len(incoming)
        if incoming and incoming[-1] > 1:
            torsion = FGAbelianGroup.from_orders(incoming).torsion
        elif free:
            torsion = ()
        else:
            continue
        result[p] = FGAbelianGroup(free, torsion)
    return result


def read_mod2_homology(
    complex_: ChainComplex, ranks: Mapping[int, int]
) -> dict[int, int]:
    """Mod 2 Betti numbers from the boundary_ranks_mod2 of complex_."""
    result = {}
    for p, cells in complex_._generators.items():
        betti = len(cells) - ranks.get(p, 0) - ranks.get(p + 1, 0)
        if betti:
            result[p] = betti
    return result


def integral_homology(complex_: ChainComplex) -> dict[int, FGAbelianGroup]:
    """Integral homology groups, trivial degrees omitted."""
    return read_integral_homology(complex_, boundary_invariant_factors(complex_))


def mod2_homology(complex_: ChainComplex) -> dict[int, int]:
    """Mod 2 Betti numbers, zero degrees omitted."""
    return read_mod2_homology(complex_, boundary_ranks_mod2(complex_))
