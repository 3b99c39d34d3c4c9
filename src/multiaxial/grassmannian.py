"""Box-bounded partitions and Schubert cell counts of Grassmannians.

A box partition is a nondecreasing tuple 0 <= mu_1 <= ... <= mu_n <= bound.
These index the Schubert cells of the Grassmannian of n-planes in k-space
(bound = k - n), with the cell over mu having real dimension 2*sum(mu) in
the complex case.  The counts exposed here split the cells by the parity
of their weight, which is what the top-degree assembly consumes.

The counts come from a closed form.  Weight parity is the Gaussian
binomial [k choose n]_q evaluated at q = -1: even minus odd is 0 when k is
even and n odd, and C(k // 2, n // 2) otherwise (q-Lucas at q = -1, see
Sagan, "Congruence properties of q-analogs", Adv. Math. 95, 1992).  So a
count costs two binomial coefficients on Python ints, however large
C(k, n) is.

The enumeration stays as an independent route: count_A_B_oracle and
count_a_b_oracle split a listed box by parity.  Only the verification grid
and the tests call them; the closed forms never do.

>>> count_A_B(12, 26)
ParityCount(even_count=4829708, odd_count=4827992)
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb
from typing import NamedTuple, Sequence

from .family import Family, UsageError, require_valid

BoxPartition = tuple[int, ...]


class ParityCount(NamedTuple):
    even_count: int
    odd_count: int


def enumerate_box_partitions(n: int, bound: int) -> list[BoxPartition]:
    """All nondecreasing n-tuples with entries in [0, bound], lex order.

    A negative bound gives an empty list (empty box, no partitions).  n or
    bound not an int is a TypeError, n < 1 a UsageError.

    >>> enumerate_box_partitions(2, 2)
    [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    """
    if type(n) is not int or type(bound) is not int:
        raise TypeError(f"n and bound must be ints, got n={n!r}, bound={bound!r}")
    if n < 1:
        raise UsageError(f"need at least one part, got n={n}")
    if bound < 0:
        return []
    return list(itertools.combinations_with_replacement(range(bound + 1), n))


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
    the parity is offset by k*n, which flips the sign of even minus odd
    when k*n is odd; in the quaternionic case every cell lands in the even
    class, so the odd count is zero.
    """
    require_valid(n, k)
    total = comb(k - 1, n)
    if family is Family.COMPLEX:
        signed = _signed_count(k - 1, n)
        return _split(total, -signed if (k * n) % 2 else signed)
    if family is not Family.QUATERNIONIC:
        Family.require(family)
    return ParityCount(total, 0)


def _parity_split(partitions: Sequence[BoxPartition], offset: int) -> ParityCount:
    odd = sum(1 for mu in partitions if (sum(mu) + offset) % 2)
    return ParityCount(len(partitions) - odd, odd)


def count_A_B_oracle(partitions: Sequence[BoxPartition]) -> ParityCount:
    """Split a given listing by the parity of |mu|, validating nothing.

    For enumerate_box_partitions(n, k - n) this is count_A_B(n, k).
    """
    return _parity_split(partitions, 0)


def count_a_b_oracle(
    n: int, k: int, family: Family, partitions: Sequence[BoxPartition]
) -> ParityCount:
    """count_a_b by splitting listed partitions by parity.

    partitions is the n by (k - n) box, as for count_A_B_oracle; the
    one-column-smaller box is the part of it whose largest entry stays
    below k - n, so one listing serves both counts.
    """
    require_valid(n, k)
    inner = [mu for mu in partitions if mu[-1] < k - n]
    if family is Family.COMPLEX:
        return _parity_split(inner, k * n)
    if family is not Family.QUATERNIONIC:
        Family.require(family)
    return ParityCount(len(inner), 0)


def grassmannian_betti(partitions: Sequence[BoxPartition]) -> dict[int, int]:
    """Betti numbers of the complex Grassmannian of n-planes in k-space.

    partitions is the n by (k - n) box, enumerate_box_partitions(n, k - n),
    one Schubert cell each.  Keys are real degrees (all even), values the
    number of cells of that weight.

    >>> grassmannian_betti(enumerate_box_partitions(1, 2))
    {0: 1, 2: 1, 4: 1}
    """
    return dict(sorted(Counter(2 * sum(mu) for mu in partitions).items()))
