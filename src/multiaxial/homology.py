"""Exact integer chain complexes and their homology.

A complex is an ascending stream of (degree, generators, sparse columns)
slices, never held whole.  checked_slices is its one check, and it passes on
the producer's nonzero columns, read and never changed; a zero is refused.
Its walk splits off each column with a +-1 alone in its row, as the Schur
complement of that pivot changes no other column; in an orbit-space complex
every nonzero column has one, a free face with one coface (coreduction, Mrozek
and Batko, DCG 41, 2009).  It checks a slice's entries first, then builds one
set of the rows they hit, which serves both the d^2 guard and the test for a
shared row.  split_units, the general split, takes a slice with a shared row
and serves sparse_invariant_factors; the rest goes as one block to
smith_normal_form, also the reference in tier-1.  Two drivers read the
walk: integral_homology as a slice arrives, and filtered_homology, each
generator at a step, for the homology of every F_(k,n) and of F_(k,n) over
F_(k,<n) (Zomorodian and Carlsson, DCG 33, 2005; with two parameters, Carlsson
and Zomorodian, DCG 42, 2009).

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

from collections import Counter
from functools import cache
from itertools import chain, compress
from operator import add
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NoReturn, Sequence

from .abelian import FGAbelianGroup

Matrix = Sequence[Sequence[int]]
Column = Mapping[int, int]


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


def sparse_invariant_factors(columns: Iterable[Column]) -> list[int]:
    """smith_normal_form of a matrix given as sparse columns: split_units,
    then smith_normal_form of what it leaves, as rows without the zero rows.

    >>> sparse_invariant_factors([{0: 2, 1: 6}, {0: 4, 1: 8}])
    [2, 4]
    >>> sparse_invariant_factors([{0: 1, 1: 2}, {}, {1: 3}])
    [1, 3]
    """
    units, rest = split_units(columns)
    factors = [1] * units
    if rest:
        rows = sorted({r for column in rest for r in column})
        factors += smith_normal_form(
            [[column.get(r, 0) for column in rest] for r in rows]
        )
    return factors


def split_units(columns: Iterable[Column]) -> tuple[int, list[Column]]:
    """The isolated-unit split of a boundary, its rows counted once: how many
    nonzero columns hold a unit alone in its row, and the other nonzero
    columns themselves.  Pivoting on such a unit is unimodular and leaves a
    factor 1 and the other columns as they were, their units still isolated."""
    columns = tuple(filter(None, columns))  # walked twice, so an iterator is read once
    # a plain dict: on boundaries of a few columns a Counter's set-up costs
    # more than the counting
    uses: dict[int, int] = {}
    for r in chain.from_iterable(columns):
        uses[r] = uses.get(r, 0) + 1
    units = 0
    rest: list[Column] = []
    for column in columns:
        for r, v in column.items():
            # a unit that is not an int goes on to the dense block, which
            # refuses it
            if (v == 1 or v == -1) and uses[r] == 1 and type(v) is int:
                units += 1
                break
        else:
            rest.append(column)
    return units, rest


Slice = tuple[int, Sequence[Hashable], "Sequence[Column] | None"]


def checked_slices(slices: Iterable[Slice]) -> Iterator[Slice]:
    """The one check of a chain complex: a slice is (degree, distinct
    hashable generators, the boundary out of that degree as one sparse row
    -> nonzero coefficient column per generator, or None), its rows indexing
    the slice before if that is one degree lower.  Degrees must be ints >= 0
    and ascend; column counts, rows, nonzero int coefficients and d^2 = 0
    are checked holding only the slice before, every entry of a slice before
    its d^2, so a slice with both faults raises the entry's, and d^2 is
    composed only if a row the slice hits has a boundary below.  A slice
    comes out with a tuple of its generators and one of the producer's own
    columns, or None; no column is changed, and a producer must not change
    one once yielded.
    """
    return ((p, cells, columns) for p, cells, columns, _, _ in _checked_splits(slices))


def _checked_splits(slices: Iterable[Slice]) -> Iterator[tuple]:
    """checked_slices' walk, each slice with split_units' count and rest."""
    below, rows, lower = -1, 0, None
    for p, cells, columns in slices:
        if type(p) is not int:
            _not_an_int(p, "degree")
        if p < 0:
            raise ValueError("generator degrees must be nonnegative")
        if p <= below:
            raise ValueError(f"degree {p} does not ascend past degree {below}")
        cells = tuple(cells)
        try:
            if len(set(cells)) != len(cells):
                raise ValueError(f"duplicate generators in degree {p}")
        except TypeError:
            for cell in cells:
                try:
                    hash(cell)
                except TypeError:
                    raise TypeError(f"degree {p} has generator {cell!r}, not hashable")
            raise
        if p != below + 1:
            rows, lower = 0, None
        units, rest = 0, ()
        if columns is not None:
            if len(columns) != len(cells):
                raise ValueError(
                    f"boundary in degree {p} has {len(columns)} columns, "
                    f"expected {len(cells)}"
                )
            # one pass over each nonzero column checks its entries: row type and
            # range, coefficient type, zero, and a +-1 (a unit if no row of the
            # slice is used twice); then one set of the rows they hit serves
            # both the d^2 guard and the shared-row test
            nonzero, rest = tuple(filter(None, columns)), []
            for column in nonzero:
                try:
                    entries, unit = column.items(), False
                except AttributeError:
                    raise TypeError(f"degree {p} has column {column!r}, not a mapping")
                for r, v in entries:
                    if type(r) is not int:
                        _not_an_int(r, "row")
                    if not 0 <= r < rows:
                        raise ValueError(
                            f"boundary in degree {p} has row {r}, "
                            f"expected 0 <= row < {rows}"
                        )
                    if type(v) is not int:
                        _not_an_int(v, "coefficient")
                    if not v:
                        raise ValueError(f"boundary in degree {p} has a 0 in row {r}")
                    if v == 1 or v == -1:
                        unit = True
                if not unit:
                    rest.append(column)
            hit = set(chain.from_iterable(nonzero))
            # d^2 only if a hit row has a boundary below: in an orbit complex
            # none does, as every face is an even cell
            if lower and any(map(lower.__getitem__, hit)):
                for column in nonzero:
                    composite: dict[int, int] = {}
                    for r, v in column.items():
                        for s, w in (lower[r] or {}).items():
                            composite[s] = composite.get(s, 0) + v * w
                    if any(composite.values()):
                        raise ValueError(f"boundary composite in degree {p} is nonzero")
            if len(hit) != sum(map(len, nonzero)):
                rest = split_units(nonzero)[1]
            units = len(nonzero) - len(rest)
            columns = tuple(columns) if nonzero else None
        yield p, cells, columns, units, rest
        below, rows, lower = p, len(cells), columns


def filtered_homology(slices: Iterable[Slice], step: Callable) -> dict[tuple, tuple]:
    """{(k, n): (H(F_(k,n)), H(F_(k,n), F_(k,<n)))} at each step a generator has.

    step maps a generator to a pair (t, r) of ints, F_(k,n) holds those at
    t <= k and r <= n, and a face later than its coface in either
    coordinate is refused with a ValueError.  The walk splits each slice's
    whole boundary once, as a unit alone in its row there is alone in every
    F_(k,n), and each column is a unit or rest at its own step; the rest at
    steps <= (k, n) goes to sparse_invariant_factors for F_(k,n), and the
    band at (k, n) keeps the entries whose face has level n too.  A step
    whose groups cannot be built holds the ValueError in their place.

    >>> cells = [(0, "v", None), (1, "ab", [{0: 2}, {}]), (2, "f", [{1: 1}])]
    >>> steps = {"v": (0, 0), "a": (0, 0), "b": (0, 1), "f": (1, 1)}
    >>> points = filtered_homology(cells, steps.get)
    >>> print(sorted(points), points[0, 1][0][1], points[1, 1][0].get(1))
    [(0, 0), (0, 1), (1, 1)] Z None
    """
    at: dict[tuple, dict] = {}  # step -> degree -> [cells, units, rest, band]
    below: list[tuple] = []  # the steps of the slice before
    for p, cells, columns, _, rest in _checked_splits(slices):
        steps = list(map(step, cells))
        here = {}  # step -> what it adds in degree p
        try:
            counted = Counter(steps).items()
        except TypeError:  # a step that does not hash: check each in turn
            counted = [(s, 0) for s in steps]
        for s, count in counted:
            if type(s) is not tuple or len(s) != 2 or not (
                type(s[0]) is type(s[1]) is int
            ):
                raise TypeError(f"step {s!r} is not a pair of ints")
            here[s] = at.setdefault(s, {})[p] = [count, 0, [], []]
        if columns:
            rest = set(map(id, rest))
            for s, column in compress(zip(steps, columns), columns):
                into = here[s]
                if id(column) in rest:
                    into[2].append(column)
                else:
                    into[1] += 1
                t, n = s
                band = None  # made for a column with a face at level n
                for r, v in column.items():
                    face_t, face_n = below[r]
                    if face_t > t or face_n > n:
                        raise ValueError(f"a step {t, n} generator has a later face")
                    if face_n == n:
                        if band is None:
                            band = {}
                            into[3].append(band)
                        band[r] = v
        below = steps
    groups = {}
    levels: dict[int, dict] = {}  # n -> degree -> what the steps (<= k, n) add
    for k in sorted({t for t, _ in at}):
        for n in sorted(n for t, n in at if t == k):
            level = levels.setdefault(n, {})
            for p, entry in at[k, n].items():
                level[p] = list(map(add, level[p], entry)) if p in level else entry
        degrees = sorted(set().union(*levels.values()))
        ranks = {p: [0, 0, []] for p in degrees}  # F_(k,n), n ascending
        for n, level in sorted(levels.items()):
            for p, (cells, units, rest, _) in level.items():
                into = ranks[p]
                into[0] += cells
                into[1] += units
                into[2] += rest
            if (k, n) in at:
                band = {p: (level[p][0], 0, level[p][3]) for p in sorted(level)}
                groups[k, n] = _homology(ranks), _homology(band)
    return groups


def _homology(ranks: Mapping[int, Sequence]) -> dict[int, FGAbelianGroup] | ValueError:
    """Homology from each degree's cells, and units and other columns of its
    boundary, degrees ascending; or the ValueError of a negative rank."""
    try:
        factors = {p: sparse_invariant_factors(r[2]) for p, r in ranks.items() if r[2]}
        result = {}
        for p, (cells, units, _) in ranks.items():
            free = cells - units - ranks.get(p + 1, (0, 0))[1]
            if factors:  # only a level with residual columns has factors
                into = factors.get(p + 1, ())  # the incoming boundary's factors
                free -= len(factors.get(p, ())) + len(into)
                if into and into[-1] > 1:
                    torsion = FGAbelianGroup.from_orders(into).torsion
                    result[p] = FGAbelianGroup(free, torsion)
                    continue
            if free:
                result[p] = _free(free)
        return result
    except ValueError as error:
        return error


# groups are values, so one Z^r serves every degree that has it
_free = cache(FGAbelianGroup.free)


def integral_homology(slices: Iterable[Slice]) -> dict[int, FGAbelianGroup]:
    """Integral homology of a stream of slices, any iterable of them,
    trivial degrees omitted.  The check's walk splits each slice's boundary
    as the slice arrives, so only the columns it leaves are held, and
    _homology assembles the counts; its ValueError is raised.

    >>> print(integral_homology([(0, ["v"], None), (1, ["e"], [{0: 2}])])[0])
    Z_2
    """
    splits = _checked_splits(slices)
    ranks = {p: [len(cells), units, rest] for p, cells, _, units, rest in splits}
    if isinstance(groups := _homology(ranks), ValueError):
        raise groups
    return groups
