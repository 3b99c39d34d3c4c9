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
for the orbit-space complexes it is empty.

A complex is an ascending stream of (degree, generators, sparse columns)
slices, never held whole, and checked_slices is its one check.
integral_homology reads it holding two adjacent slices, as a degree's
group needs only its two boundaries and d^2 only adjacent pairs, and
eliminates each nonzero boundary once, over Z.  The dense
smith_normal_form is also the reference that the sparse split is tested
against on matrices with torsion.

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
from typing import Hashable, Iterable, Iterator, Mapping, NoReturn, Sequence

from .abelian import FGAbelianGroup

Matrix = Sequence[Sequence[int]]
Column = Mapping[int, int]

# the one empty column checked_slices yields, shared and read only
_NO_ENTRIES: Column = MappingProxyType({})


def _not_an_int(value: object, what: str) -> NoReturn:
    """Refuse a value that should be an int, rather than truncate it."""
    raise TypeError(f"{what} {value!r} is not an int")


def _pruned_copy(matrix: Matrix) -> list[list[int]]:
    """Mutable rows of matrix without its all-zero rows and columns,
    which leaves the invariant factors unchanged."""
    if len(set(map(len, matrix))) > 1:
        raise ValueError("matrix rows must all have the same length")
    # every entry is checked before pruning, so a zero that is not an int
    # is refused rather than dropped
    for v in chain.from_iterable(matrix):
        if type(v) is not int:
            _not_an_int(v, "entry")
    rows = [row for row in matrix if any(row)]
    keep = [any(column) for column in zip(*rows)]
    return [list(compress(row, keep)) for row in rows]


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
    torsion = FGAbelianGroup.from_orders(orders).torsion
    factors = [d for d, count in torsion for _ in range(count)]
    return [1] * (t - len(factors)) + factors


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
            # a unit that is not an int goes on to the dense block, which
            # refuses it
            if (v == 1 or v == -1) and uses[r] == 1 and type(v) is int:
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


Slice = tuple[int, Sequence[Hashable], "Sequence[Column] | None"]


def checked_slices(slices: Iterable[Slice]) -> Iterator[Slice]:
    """The one check of a chain complex: a slice is (degree, distinct
    hashable generators, the boundary out of that degree as one sparse row
    -> coefficient column per generator, or None), its rows indexing the
    slice before if that is one degree lower.  Degrees must be ints >= 0
    and ascend; column counts, rows, int coefficients and d^2 = 0 are
    checked holding only the slice before.  Each slice comes out with
    tuples of generators and of zero-free column copies, or None.
    """
    below, rows, lower = -1, 0, None
    for p, cells, columns in slices:
        if type(p) is not int:
            _not_an_int(p, "degree")
        if p < 0:
            raise ValueError("generator degrees must be nonnegative")
        if p <= below:
            raise ValueError(f"degree {p} does not ascend past degree {below}")
        cells = tuple(cells)
        if len(set(cells)) != len(cells):
            raise ValueError(f"duplicate generators in degree {p}")
        if p != below + 1:
            rows, lower = 0, None
        kept = None
        if columns is not None:
            if len(columns) != len(cells):
                raise ValueError(
                    f"boundary in degree {p} has {len(columns)} columns, "
                    f"expected {len(cells)}"
                )
            # one pass over each nonzero column: row type and range, coefficient
            # type, zeros dropped, then d^2 if a face it reads has a boundary
            copies = [_NO_ENTRIES] * len(cells)
            for j, column in compress(enumerate(columns), columns):
                copy = {}
                for r, v in column.items():
                    if type(r) is not int:
                        _not_an_int(r, "row")
                    if not 0 <= r < rows:
                        raise ValueError(
                            f"boundary in degree {p} has row {r}, "
                            f"expected 0 <= row < {rows}"
                        )
                    if type(v) is not int:
                        _not_an_int(v, "coefficient")
                    if v:
                        copy[r] = v
                if copy and lower and any(map(lower.__getitem__, copy)):
                    composite: dict[int, int] = {}
                    for r, v in copy.items():
                        for s, w in lower[r].items():
                            composite[s] = composite.get(s, 0) + v * w
                    if any(composite.values()):
                        raise ValueError(f"boundary composite in degree {p} is nonzero")
                copies[j] = copy or _NO_ENTRIES
            kept = tuple(copies) if any(copies) else None
        yield p, cells, kept
        below, rows, lower = p, len(cells), kept


def integral_homology(slices: Iterable[Slice]) -> dict[int, FGAbelianGroup]:
    """Integral homology of a stream of slices, any iterable of them,
    trivial degrees omitted, checked by checked_slices as it is read.

    A degree's free rank is its cell count minus the ranks of its two
    boundaries, each eliminated once by sparse_invariant_factors, and its
    torsion the incoming one's invariant factors.

    >>> print(integral_homology([(0, ["v"], None), (1, ["e"], [{0: 2}])])[0])
    Z_2
    """
    result = {}
    held = None  # (degree, cell count, factors of its outgoing boundary)
    # a last slice of degree None is adjacent to nothing and closes the top
    for p, cells, columns in chain(checked_slices(slices), [(None, (), None)]):
        factors = sparse_invariant_factors(columns) if columns else []
        if held is not None:
            q, count, outgoing = held
            incoming = factors if p == q + 1 else []
            free = count - len(outgoing) - len(incoming)
            if incoming and incoming[-1] > 1:
                torsion = FGAbelianGroup.from_orders(incoming).torsion
                result[q] = FGAbelianGroup(free, torsion)
            elif free:
                result[q] = FGAbelianGroup(free, ())
        held = p, len(cells), factors
    return result

