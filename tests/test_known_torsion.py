"""Chain complexes with torsion known in advance, through every homology route.

Each factor is a two-term complex Z^a -> Z^b whose boundary is U D V: D is
a chosen diagonal, U and V random unimodular matrices that hide it, so the
factor's homology is read off D.  A sphere factor has one cell in degree 0,
one in its top degree and no boundary.  The homology of a tensor product of
factors then follows from the Kunneth formula (Hatcher, Algebraic Topology,
Thm. 3B.6), which for cyclic groups needs gcds alone:
Z_a (x) Z_b = Tor(Z_a, Z_b) = Z_gcd(a, b), with Z written as order 0.

Every product goes through each homology route: sparse integral homology,
the filtered pass with every generator at one step, the sparse invariant
factors of each boundary against its dense Smith normal form, and a copy
with its generators shuffled.  This is where the
sparse elimination is held to the dense one and to the generator order on
non-unit pivots.  Orbit complexes have none, since their boundaries are
partial matchings with unit entries, so verify does not repeat these checks.
"""

import random
from dataclasses import dataclass
from math import gcd

import pytest

from multiaxial.abelian import FGAbelianGroup
from multiaxial.homology import (
    checked_slices,
    filtered_homology,
    integral_homology,
    smith_normal_form,
    sparse_invariant_factors,
)


@dataclass(frozen=True)
class Known:
    """A complex, degree -> (generators, boundary columns), and its
    homology: per degree, the cyclic orders of a decomposition of H_p, 0
    for Z and 1 for a trivial summand."""

    complex_: dict
    orders: dict


def checked(generators, boundaries):
    """The complex with these generators and boundaries, by degree, as
    checked_slices yields it; a degree with no boundary gets zero columns."""
    slices = checked_slices(
        (p, generators[p], boundaries.get(p)) for p in sorted(generators)
    )
    return {p: (cells, columns or ({},) * len(cells)) for p, cells, columns in slices}


def stream(complex_):
    return [(p, cells, columns) for p, (cells, columns) in complex_.items()]


def unimodular(size, rng):
    """A random size by size integer matrix of determinant +-1: row
    additions with multipliers in [-2, 2], then a row permutation and signs."""
    matrix = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(2 * size if size > 1 else 0):
        i, j = rng.sample(range(size), 2)
        c = rng.choice((-2, -1, 1, 2))
        matrix[i] = [x + c * y for x, y in zip(matrix[i], matrix[j])]
    rng.shuffle(matrix)
    for i in rng.sample(range(size), size // 2):
        matrix[i] = [-x for x in matrix[i]]
    return matrix


def product(left, right):
    return [
        [sum(x * y for x, y in zip(row, column)) for column in zip(*right)]
        for row in left
    ]


def two_term(a, b, diagonal, rng):
    """Z^a -> Z^b with boundary U D V, D the b by a matrix with diagonal."""
    d = [
        [diagonal[i] if i == j and i < len(diagonal) else 0 for j in range(a)]
        for i in range(b)
    ]
    matrix = product(product(unimodular(b, rng), d), unimodular(a, rng))
    columns = [
        {i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(a)
    ]
    rank = len(diagonal)
    return Known(
        checked({0: range(b), 1: range(a)}, {1: columns}),
        {0: [0] * (b - rank) + list(diagonal), 1: [0] * (a - rank)},
    )


def sphere(top):
    return Known(checked({0: ["v"], top: ["e"]}, {}), {0: [0], top: [0]})


def tensor(left, right):
    """The tensor product complex, d(x (x) y) = dx (x) y + (-1)^p x (x) dy
    for x of degree p, with its Kunneth homology."""
    a, b = left.complex_, right.complex_
    generators = {}
    for p, (a_cells, _) in a.items():
        for q, (b_cells, _) in b.items():
            generators.setdefault(p + q, []).extend(
                (p, x, q, y) for x in a_cells for y in b_cells
            )
    row_of = {n: {g: r for r, g in enumerate(gs)} for n, gs in generators.items()}
    column_of = {
        (side, p, g): column
        for side, complex_ in enumerate((a, b))
        for p, (cells, columns) in complex_.items()
        for g, column in zip(cells, columns)
    }
    boundaries = {}
    for n, cells in generators.items():
        columns = []
        for p, x, q, y in cells:
            column = {}
            for r, v in column_of[0, p, x].items():
                column[row_of[n - 1][p - 1, a[p - 1][0][r], q, y]] = v
            for s, w in column_of[1, q, y].items():
                row = row_of[n - 1][p, x, q - 1, b[q - 1][0][s]]
                column[row] = -w if p % 2 else w
            columns.append(column)
        boundaries[n] = columns
    orders = {}
    for p, left_orders in left.orders.items():
        for q, right_orders in right.orders.items():
            for s in left_orders:
                for t in right_orders:
                    orders.setdefault(p + q, []).append(gcd(s, t))
                    if s and t:  # Tor of two finite cyclic groups
                        orders.setdefault(p + q + 1, []).append(gcd(s, t))
    return Known(checked(generators, boundaries), orders)


def expected_homology(known):
    groups = {p: FGAbelianGroup.from_orders(o) for p, o in known.orders.items()}
    return {p: g for p, g in groups.items() if not g.is_trivial}


def dense_boundary(complex_, p):
    """The boundary out of degree p as a dense matrix, zeros included."""
    columns = complex_[p][1]
    rows = len(complex_[p - 1][0]) if p - 1 in complex_ else 0
    return [[column.get(r, 0) for column in columns] for r in range(rows)]


def shuffled(complex_, rng):
    """The same complex with each degree's generators in a random order."""
    generators = {}
    for p, (cells, _) in complex_.items():
        generators[p] = list(cells)
        rng.shuffle(generators[p])
    row_of = {p: {g: r for r, g in enumerate(gs)} for p, gs in generators.items()}
    boundaries = {}
    for p, (cells, columns) in complex_.items():
        if p - 1 in complex_:
            old_rows = complex_[p - 1][0]
            column_of = dict(zip(cells, columns))
            boundaries[p] = [
                {row_of[p - 1][old_rows[r]]: v for r, v in column_of[g].items()}
                for g in generators[p]
            ]
    return checked(generators, boundaries)


def products():
    """(name, factors) of each product under test, built from one seed."""
    rng = random.Random(20240917)
    two_six_twelve = two_term(3, 4, (2, 6, 12), rng)
    three_six = two_term(2, 3, (3, 6), rng)
    two_four = two_term(2, 2, (2, 4), rng)
    return [
        # 48 cells: Z^3 -> Z^5 times Z^2 -> Z^4, unit-free boundaries
        ("48 cells", [two_term(3, 5, (2, 6, 12), rng), two_term(2, 4, (3, 6), rng)]),
        ("35 cells", [two_six_twelve, three_six]),
        ("units and coprime orders", [two_term(3, 3, (1, 2, 15), rng), three_six]),
        ("three factors", [two_four, three_six, two_term(1, 2, (5,), rng)]),
        ("with a sphere", [two_six_twelve, sphere(3), two_four]),
    ]


def build(factors):
    known = factors[0]
    for factor in factors[1:]:
        known = tensor(known, factor)
    return known


@pytest.mark.parametrize(
    "factors", [f for _, f in products()], ids=[name for name, _ in products()]
)
def test_known_torsion_through_every_route(factors):
    known = build(factors)
    complex_ = known.complex_
    expected = expected_homology(known)
    assert any(g.torsion for g in expected.values())

    assert integral_homology(stream(complex_)) == expected
    # with one step the filtered pass is its own band
    one_step = filtered_homology(stream(complex_), lambda g: (0, 0))
    assert one_step == {(0, 0): (expected,) * 2}
    assert filtered_homology([], lambda g: (0, 0)) == {} == integral_homology([])

    sparse = {p: sparse_invariant_factors(c) for p, (_, c) in complex_.items()}
    dense = {p: smith_normal_form(dense_boundary(complex_, p)) for p in complex_}
    assert dense == sparse

    copy = shuffled(complex_, random.Random(7))
    assert any(copy[p][0] != complex_[p][0] for p in copy)
    assert integral_homology(stream(copy)) == expected


def test_kunneth_degree_zero_of_the_48_cell_product():
    # H_0 of a product is the tensor product of the factors' H_0:
    # (Z^2 + Z_2 + Z_6 + Z_12) (x) (Z^2 + Z_3 + Z_6)
    known = build(products()[0][1])
    assert sum(len(cells) for cells, _ in known.complex_.values()) == 48
    assert integral_homology(stream(known.complex_))[0] == FGAbelianGroup.from_orders(
        [0] * 4 + [3, 6] * 2 + [2, 6, 12] * 2 + [1, 2, 3, 6, 3, 6]
    )
