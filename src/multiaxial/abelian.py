"""Finitely generated abelian groups as immutable values.

A group is stored in canonical form: a free rank plus a chain of torsion
orders d_1 | d_2 | ... with every d_i >= 2, run-length encoded as
(order, multiplicity) pairs with strictly increasing orders.  Two groups
are isomorphic exactly when these data agree, so dataclass equality is
isomorphism, and the size of a group follows the number of distinct
orders, not the number of cyclic summands.

Sums and embeddings use gcd and lcm alone, and no order is ever
factored.  Read from the largest factor down, a chain holds, prime by
prime, a partition of exponents; a sum merges partitions, and an embedding
is partition containment (Macdonald, Symmetric Functions and Hall
Polynomials, ch. II).  A sum walks the chain once, a step per run end,
and an embedding walks two chains once, a step per run, whatever the
multiplicities.

>>> FGAbelianGroup.from_orders([0, 4, 2])
FGAbelianGroup(free_rank=1, torsion=((2, 1), (4, 1)))
>>> FGAbelianGroup.from_orders([2, 3])
FGAbelianGroup(free_rank=0, torsion=((6, 1),))
>>> print(FGAbelianGroup(4, ((2, 2),)))
Z^4 ⊕ Z_2^2
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable

Run = tuple[int, int]


def _insert(chain: tuple[Run, ...], order: int, count: int) -> tuple[Run, ...]:
    """The invariant factor chain of chain plus count copies of Z_order.

    Prime by prime, the copies' exponent f slots in below every exponent
    at least f, so the i-th largest becomes max(e_i, min(f, e_(i - count)))
    and the i-th largest factor lcm(d_i, gcd(order, d_(i - count))), with
    d 0 above the top and 1 past the bottom.  One walk down the chain at
    positions i and i - count, as embeds_in walks two chains, evaluates it
    once per stretch between the run ends either position crosses.
    """
    bottom, at_bottom = chain[0] if chain else (0, 0)
    if bottom % order == 0:
        # order divides every factor, so the copies go below all of them
        if bottom == order:
            return ((order, at_bottom + count),) + chain[1:]
        return ((order, count),) + chain
    # above reads position i - count, so 0 at the first count positions;
    # here, past the bottom, reads 1 for count more, until above is past it
    here, above = reversed(chain), iter(((0, count), *reversed(chain)))
    here_end = above_end = start = 0
    runs: list[list[int]] = []
    while True:
        if here_end == start:
            here_order, run = next(here, (1, count))
            here_end += run
        if above_end == start:
            above_order, run = next(above, (1, count))
            above_end += run
        d = lcm(here_order, gcd(order, above_order))
        if d == 1:
            break  # a chain read downwards ends in its units
        cut = min(here_end, above_end)
        if runs and runs[-1][0] == d:
            runs[-1][1] += cut - start
        else:
            runs.append([d, cut - start])
        start = cut
    return tuple((d, run_count) for d, run_count in reversed(runs))


@dataclass(frozen=True, slots=True)
class FGAbelianGroup:
    """Z^free_rank plus, per (order, multiplicity) run, that many Z_order."""

    free_rank: int = 0
    torsion: tuple[Run, ...] = ()

    def __post_init__(self):
        if type(self.free_rank) is not int:
            raise TypeError(f"free rank is an int, got {self.free_rank!r}")
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if not isinstance(self.torsion, tuple):
            raise TypeError(f"torsion is a tuple of runs, got {self.torsion!r}")
        previous = None
        for run in self.torsion:
            if not isinstance(run, tuple) or len(run) != 2:
                raise TypeError(
                    f"torsion entries are (order, multiplicity) runs, got {run!r}"
                )
            d, count = run
            if type(d) is not int or type(count) is not int:
                raise TypeError(f"torsion runs are pairs of ints, got {run!r}")
            if d < 2:
                raise ValueError(f"torsion order {d} is not >= 2")
            if count < 1:
                raise ValueError(f"multiplicity {count} of Z_{d} is not >= 1")
            if previous is not None and (d == previous or d % previous != 0):
                raise ValueError(
                    f"torsion orders must form a strictly increasing "
                    f"divisibility chain, got {previous} before {d}"
                )
            previous = d

    @classmethod
    def trivial(cls) -> "FGAbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FGAbelianGroup":
        return cls(rank, ())

    @classmethod
    def with_two_torsion(cls, free_rank: int, two_rank: int) -> "FGAbelianGroup":
        """Z^free_rank ⊕ Z_2^two_rank, the shape every closed form produces.

        >>> print(FGAbelianGroup.with_two_torsion(3, 5))
        Z^3 ⊕ Z_2^5
        """
        return cls(free_rank, ((2, two_rank),) if two_rank else ())

    @classmethod
    def from_orders(cls, orders: Iterable[int]) -> "FGAbelianGroup":
        """Canonicalize an arbitrary list of cyclic orders.

        Order 0 means an infinite cyclic summand, order 1 is dropped.
        The torsion orders are recombined into invariant factors, so the
        result does not depend on how the input was split into cyclics.

        >>> print(FGAbelianGroup.from_orders([2, 2, 4]))
        Z_2^2 ⊕ Z_4
        >>> FGAbelianGroup.from_orders([6, 4]) == FGAbelianGroup.from_orders([12, 2])
        True
        """
        orders = tuple(orders)
        if set(map(type, orders)) - {int}:
            bad = next(order for order in orders if type(order) is not int)
            raise TypeError(f"order {bad!r} is not an int")
        counts: dict[int, int] = {}
        for order in map(abs, orders):
            counts[order] = counts.get(order, 0) + 1
        free_rank = counts.pop(0, 0)
        counts.pop(1, None)
        torsion: tuple[Run, ...] = ()
        for order, count in counts.items():
            torsion = _insert(torsion, order, count)
        return cls(free_rank, torsion)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, *others: "FGAbelianGroup") -> "FGAbelianGroup":
        """self plus every group of others, with one group built at the end.

        >>> Z2 = FGAbelianGroup(0, ((2, 1),))
        >>> print(Z2.direct_sum(FGAbelianGroup(1, ((4, 1),)), Z2))
        Z ⊕ Z_2^2 ⊕ Z_4
        """
        free_rank = self.free_rank
        torsion = self.torsion
        for other in others:
            free_rank += other.free_rank
            for order, count in other.torsion:
                torsion = _insert(torsion, order, count)
        return FGAbelianGroup(free_rank, torsion)

    def embeds_in(self, other: "FGAbelianGroup") -> bool:
        """Whether an injective homomorphism self -> other exists.

        Exactly when the free rank does not drop and, both chains read
        from the largest factor down, each factor of self divides the one
        of other in its position: prime by prime, self's exponent partition
        fits inside other's.  As other's factors only shrink downwards, the
        last position of each run of self suffices.  One walk down both
        chains reads other's factor there, an exhausted chain reading 1, so
        the test costs one step per run, whatever the multiplicities.

        >>> Z4 = FGAbelianGroup(0, ((4, 1),))
        >>> Z2xZ2 = FGAbelianGroup(0, ((2, 2),))
        >>> Z4.embeds_in(Z2xZ2) or Z2xZ2.embeds_in(Z4)
        False
        >>> FGAbelianGroup(1, ((2, 1),)).embeds_in(FGAbelianGroup(2, ((2, 1), (4, 1))))
        True
        """
        if self.free_rank > other.free_rank:
            return False
        theirs = reversed(other.torsion)
        theirs_order, reach = 1, 0  # other's factor down to position reach
        end = 0
        for d, count in reversed(self.torsion):
            end += count
            while reach < end:
                theirs_order, run = next(theirs, (1, end))
                reach += run
            if theirs_order % d:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "torsion": [[d, count] for d, count in self.torsion],
        }

    def __str__(self) -> str:
        if self.is_trivial:
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        for d, count in self.torsion:
            parts.append(f"Z_{d}" if count == 1 else f"Z_{d}^{count}")
        return " ⊕ ".join(parts)
