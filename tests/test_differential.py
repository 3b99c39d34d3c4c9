"""The three routes of the package against each other at random grid points.

At each (family, n, k) with at most 300 cells (the sum of C(k, r) over
r <= n), the closed-form groups equal their oracle twins, the parity
counts and the reduced group equal those of the listed box
(test_grassmannian's reference), and
every boundary of the full complex has the same invariant factors by unit
elimination as by the dense Smith normal form.
"""

from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from multiaxial.family import Family
from multiaxial.grassmannian import count_A_B
from multiaxial.homology import smith_normal_form, sparse_invariant_factors
from multiaxial.l_homology import reduced_l_homology_oracle, relative_l_homology_oracle
from multiaxial.orbit_cells import cell_slices, cells_by_rank
from multiaxial.structure_set import reduced_l_homology, relative_l_homology
from test_grassmannian import listed_counts
from test_orbit_cells import by_degree


def dense_boundary(cells, p, columns):
    """The boundary out of degree p as a dense matrix, zeros included."""
    return [
        [column.get(r, 0) for column in columns]
        for r in range(len(cells.get(p - 1, ())))
    ]


CELL_BUDGET = 300


def _cells(n, k):
    return sum(comb(k, r) for r in range(n + 1))


def _max_k(n):
    """The largest k whose complex for n fits the budget."""
    k = n
    while _cells(n, k + 1) <= CELL_BUDGET:
        k += 1
    return k


# n = 8 is the last n with any k >= n inside the budget: 2^8 cells at k = 8
MAX_K = {n: _max_k(n) for n in range(1, 9)}


@st.composite
def grid_points(draw):
    n = draw(st.integers(1, max(MAX_K)))
    return n, draw(st.integers(n, MAX_K[n]))


@settings(max_examples=200)
@given(st.sampled_from(tuple(Family)), grid_points())
def test_closed_form_enumeration_and_chain_level_agree(family, point):
    n, k = point
    assert relative_l_homology(family, n, k) == relative_l_homology_oracle(
        family, n, k
    )
    assert reduced_l_homology(family, n, k) == reduced_l_homology_oracle(
        family, n, k
    )

    assert (count_A_B(n, k), reduced_l_homology(family, n, k)) == listed_counts(
        n, k, family
    )

    by_rank = cells_by_rank(family, n, k)
    cells = by_degree(by_rank)
    for p, cells_p, columns in cell_slices(by_rank):
        columns = columns or [{}] * len(cells_p)
        sparse = sparse_invariant_factors(columns)
        assert sparse == smith_normal_form(dense_boundary(cells, p, columns)), p
