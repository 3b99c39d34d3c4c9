"""Exact integer chain complexes and their homology.

The Smith normal form here runs on Python ints, so there is no overflow
regardless of how the intermediate entries grow.  Pivots are chosen by
smallest absolute value, which keeps that growth tame on the sparse
matrices this package produces.

>>> smith_normal_form([[2, 4], [6, 8]])
[2, 4]
>>> smith_normal_form([[1, 0], [0, 1]])
[1, 1]
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from .abelian import FGAbelianGroup

Matrix = Sequence[Sequence[int]]


def _copy_matrix(matrix: Matrix) -> list[list[int]]:
    rows = [[int(x) for x in row] for row in matrix]
    if rows:
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("matrix rows must all have the same length")
    return rows


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

    The length of the result is the rank.  Row and column operations are
    unimodular throughout, so the factors are exact.
    """
    a = _copy_matrix(matrix)
    m = len(a)
    n = len(a[0]) if m else 0
    factors: list[int] = []
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
        while True:
            p = a[t][t]
            disturbed = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // p
                    if q:
                        for j in range(t, n):
                            a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        # remainder is smaller than |p|, promote it
                        a[t], a[i] = a[i], a[t]
                        disturbed = True
                        break
            if disturbed:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // p
                    if q:
                        for i in range(t, m):
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(t, m):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        disturbed = True
                        break
            if disturbed:
                continue
            # pivot must divide the rest of the submatrix before it is final
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, n):
                a[t][j] += a[offender][j]
        factors.append(abs(a[t][t]))
        t += 1
    for earlier, later in zip(factors, factors[1:]):
        if later % earlier:
            raise ArithmeticError(
                f"invariant factors out of order: {earlier} does not divide {later}"
            )
    return factors


def rank_mod2(matrix: Matrix) -> int:
    """Rank over the field with two elements, via bitmask elimination."""
    pivot_rows: dict[int, int] = {}
    rank = 0
    for row in matrix:
        bits = 0
        for j, v in enumerate(row):
            if v % 2:
                bits |= 1 << j
        while bits:
            low = bits & -bits
            other = pivot_rows.get(low)
            if other is None:
                pivot_rows[low] = bits
                rank += 1
                break
            bits ^= other
    return rank


def _matrix_product(a: Matrix, b: Matrix) -> list[list[int]]:
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for t in range(inner):
            v = a[i][t]
            if v:
                row_b = b[t]
                row_out = out[i]
                for j in range(cols):
                    if row_b[j]:
                        row_out[j] += v * row_b[j]
    return out


class ChainComplex:
    """Finite free chain complex over Z with labeled generators.

    generators maps a degree to its ordered generator labels, boundaries
    maps degree p to the matrix of the map from degree p to degree p-1
    (rows indexed by the lower degree).  Missing matrices are zero.  The
    composite of consecutive boundaries is checked at construction.
    """

    def __init__(
        self,
        generators: Mapping[int, Sequence[str]],
        boundaries: Mapping[int, Matrix],
    ):
        gens: dict[int, tuple[str, ...]] = {}
        for p, labels in generators.items():
            p = int(p)
            if p < 0:
                raise ValueError("generator degrees must be nonnegative")
            labels = tuple(labels)
            if labels:
                if len(set(labels)) != len(labels):
                    raise ValueError(f"duplicate generator labels in degree {p}")
                gens[p] = labels
        mats: dict[int, tuple[tuple[int, ...], ...]] = {}
        for p, matrix in boundaries.items():
            p = int(p)
            rows = tuple(tuple(int(x) for x in row) for row in matrix)
            expected_rows = len(gens.get(p - 1, ()))
            expected_cols = len(gens.get(p, ()))
            if len(rows) != expected_rows or any(
                len(row) != expected_cols for row in rows
            ):
                raise ValueError(
                    f"boundary in degree {p} has the wrong shape, expected "
                    f"{expected_rows} x {expected_cols}"
                )
            if any(any(row) for row in rows):
                mats[p] = rows
        self._generators = gens
        self._boundaries = mats
        self._check_square_zero()

    def _check_square_zero(self):
        for p in sorted(self._boundaries):
            if p - 1 in self._boundaries:
                product = _matrix_product(
                    self.boundary_matrix(p - 1), self.boundary_matrix(p)
                )
                if any(any(row) for row in product):
                    raise ValueError(
                        f"boundary composite in degree {p} is nonzero"
                    )

    @property
    def top_degree(self) -> int:
        return max(self._generators, default=-1)

    def degrees(self) -> list[int]:
        return sorted(self._generators)

    def generators(self, p: int) -> tuple[str, ...]:
        return self._generators.get(p, ())

    def cell_count(self, p: int) -> int:
        return len(self._generators.get(p, ()))

    def total_cells(self) -> int:
        return sum(len(v) for v in self._generators.values())

    def boundary_matrix(self, p: int) -> list[list[int]]:
        """Dense matrix of the boundary out of degree p, zeros included."""
        stored = self._boundaries.get(p)
        if stored is not None:
            return [list(row) for row in stored]
        rows = self.cell_count(p - 1)
        cols = self.cell_count(p)
        return [[0] * cols for _ in range(rows)]

    def euler_characteristic(self) -> int:
        return sum(
            (-1) ** p * len(labels) for p, labels in self._generators.items()
        )

    def permute_generators(
        self, permutations: Mapping[int, Sequence[int]]
    ) -> "ChainComplex":
        """Reorder generators per degree; permutations[p][i] is the old index
        that moves to slot i.  Used to check order independence of homology."""
        new_gens = {}
        for p, labels in self._generators.items():
            perm = permutations.get(p)
            if perm is None:
                new_gens[p] = labels
            else:
                if sorted(perm) != list(range(len(labels))):
                    raise ValueError(f"not a permutation in degree {p}")
                new_gens[p] = tuple(labels[i] for i in perm)
        new_mats = {}
        for p in self._boundaries:
            old = self.boundary_matrix(p)
            row_perm = permutations.get(p - 1, range(len(old)))
            col_perm = permutations.get(p, range(len(old[0]) if old else 0))
            new_mats[p] = [
                [old[ri][cj] for cj in col_perm] for ri in row_perm
            ]
        return ChainComplex(new_gens, new_mats)


def integral_homology(complex_: ChainComplex) -> dict[int, FGAbelianGroup]:
    """Integral homology groups, trivial degrees omitted.

    In each degree the free rank is the cell count minus the ranks of the
    two adjacent boundaries, and the torsion is read off the invariant
    factors of the incoming boundary.
    """
    top = complex_.top_degree
    snf: dict[int, list[int]] = {}
    for p in range(0, top + 2):
        if complex_.cell_count(p) and complex_.cell_count(p - 1):
            snf[p] = smith_normal_form(complex_.boundary_matrix(p))
        else:
            snf[p] = []
    result = {}
    for p in range(0, top + 1):
        cells = complex_.cell_count(p)
        if not cells:
            continue
        free = cells - len(snf[p]) - len(snf[p + 1])
        # the factors already form a divisibility chain, so equal ones are
        # adjacent and the runs need no recombining
        torsion = Counter(d for d in snf[p + 1] if d > 1)
        group = FGAbelianGroup(free, tuple(torsion.items()))
        if not group.is_trivial:
            result[p] = group
    return result


def mod2_homology(complex_: ChainComplex) -> dict[int, int]:
    """Mod 2 Betti numbers, zero degrees omitted."""
    top = complex_.top_degree
    ranks = {}
    for p in range(0, top + 2):
        if complex_.cell_count(p) and complex_.cell_count(p - 1):
            ranks[p] = rank_mod2(complex_.boundary_matrix(p))
        else:
            ranks[p] = 0
    result = {}
    for p in range(0, top + 1):
        cells = complex_.cell_count(p)
        betti = cells - ranks[p] - ranks[p + 1]
        if betti:
            result[p] = betti
    return result
