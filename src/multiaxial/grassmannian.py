"""Schubert cell counts of Grassmannians, split by weight parity.

The Schubert cells of the Grassmannian of n-planes in k-space are indexed
by the partitions in an n by (k - n) box, nondecreasing tuples
0 <= mu_1 <= ... <= mu_n <= k - n, with the cell over mu having real
dimension 2*sum(mu) in the complex case.  The counts exposed here split
the cells by the parity of their weight, which is what the top-degree
assembly consumes.

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

from .family import Family, require_valid


class ParityCount(NamedTuple):
    even_count: int
    odd_count: int


def _signed_count(k: int, n: int) -> int:
    """Even minus odd weight partitions in the n by (k - n) box.

    This is [k choose n] at q = -1, and 0 for an empty box (k < n).
    """
    if k % 2 == 0 and n % 2 == 1:
        return 0
    return comb(k // 2, n // 2)


def _split(total: int, signed: int) -> ParityCount:
    return ParityCount((total + signed) // 2, (total - signed) // 2)


def count_A_B(n: int, k: int) -> ParityCount:
    """Schubert cells of the n-planes in k-space, split by weight parity.

    even_count is the number of box partitions in an n by (k-n) box with
    even weight, odd_count the rest.
    """
    require_valid(n, k)
    return _split(comb(k, n), _signed_count(k, n))


def count_a_b(n: int, k: int, family: Family) -> ParityCount:
    """Cell counts driving the reduced top-degree assembly.

    The box shrinks by one column (bound k - n - 1).  In the complex case
    the parity is offset by k*n, which would flip the sign of even minus
    odd when k*n is odd; but then n is odd and k - 1 even, so that signed
    count is 0 and the split is the inner box's own.  In the quaternionic
    case every cell lands in the even class, so the odd count is zero.
    """
    require_valid(n, k)
    total = comb(k - 1, n)
    if family is Family.COMPLEX:
        return _split(total, _signed_count(k - 1, n))
    if family is not Family.QUATERNIONIC:
        Family.require(family)
    return ParityCount(total, 0)
