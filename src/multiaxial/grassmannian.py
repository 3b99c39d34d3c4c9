"""Schubert cell counts of Grassmannians, split by weight parity.

The Schubert cells of the Grassmannian of n-planes in k-space are indexed
by the partitions in an n by (k - n) box, nondecreasing tuples
0 <= mu_1 <= ... <= mu_n <= k - n, with the cell over mu having real
dimension 2*sum(mu) in the complex case.  The counts exposed here split
the cells of one box by the parity of their weight; this module knows
boxes, and structure_set decides which box each family and group reads.

The counts come from a closed form.  Weight parity is the Gaussian
binomial [k choose n]_q evaluated at q = -1: even minus odd is 0 when k is
even and n odd, and C(k // 2, n // 2) otherwise (q-Lucas at q = -1, see
Sagan, "Congruence properties of q-analogs", Adv. Math. 95, 1992).  So a
count costs two binomial coefficients on Python ints, however large
C(k, n) is.  No partition is ever listed: the tests list small boxes as
the reference, and verify compares the groups built from these counts
with the orbit-cell oracle's.

>>> count_A_B(12, 26)
ParityCount(even_count=4829708, odd_count=4827992)
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .family import require_valid


class ParityCount(NamedTuple):
    even_count: int
    odd_count: int


def _signed_count(k: int, n: int) -> int:
    """Even minus odd weight partitions in the n by (k - n) box: this is
    [k choose n] at q = -1."""
    if k % 2 == 0 and n % 2 == 1:
        return 0
    return comb(k // 2, n // 2)


def count_A_B(n: int, k: int) -> ParityCount:
    """Schubert cells of the n-planes in k-space, split by weight parity.

    even_count is the number of box partitions in an n by (k-n) box with
    even weight, odd_count the rest.
    """
    require_valid(n, k)
    total, signed = comb(k, n), _signed_count(k, n)
    return ParityCount((total + signed) // 2, (total - signed) // 2)
