"""Finitely generated abelian groups as immutable values.

A group is stored in canonical form: a free rank plus a chain of torsion
orders d_1 | d_2 | ... with every d_i >= 2, run-length encoded as
(order, multiplicity) pairs with strictly increasing orders.  Two groups
are isomorphic exactly when these data agree, so dataclass equality is
isomorphism, and the size of a group follows the number of distinct
orders, not the number of cyclic summands.

>>> FGAbelianGroup.from_orders([0, 4, 2])
FGAbelianGroup(free_rank=1, torsion=((2, 1), (4, 1)))
>>> FGAbelianGroup.from_orders([2, 3])
FGAbelianGroup(free_rank=0, torsion=((6, 1),))
>>> print(FGAbelianGroup(4, ((2, 2),)))
Z^4 ⊕ Z_2^2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

Run = tuple[int, int]


def _prime_power_parts(order: int) -> list[tuple[int, int]]:
    """Split a cyclic order into (prime, exponent) pairs by trial division."""
    parts = []
    n = order
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            parts.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        parts.append((n, 1))
    return parts


def _prime_profile(runs: Iterable[Run]) -> dict[int, dict[int, int]]:
    """prime -> exponent -> number of cyclic summands with that p-part.

    Each run is factored once, whatever its multiplicity.
    """
    profile: dict[int, dict[int, int]] = {}
    for order, count in runs:
        for p, e in _prime_power_parts(order):
            by_exponent = profile.setdefault(p, {})
            by_exponent[e] = by_exponent.get(e, 0) + count
    return profile


def _invariant_runs(profile: dict[int, dict[int, int]]) -> tuple[Run, ...]:
    """Recombine per-prime exponent counts into invariant factor runs.

    The largest factor takes the largest exponent of every prime, the next
    one the next largest, and so on.  A whole block of equal factors is
    emitted at once, so the loop runs once per change of some prime's
    exponent, not once per summand.
    """
    # per prime, exponents ascending, so the largest is popped first
    pending = {p: sorted(by_exponent.items()) for p, by_exponent in profile.items()}
    runs = []
    while pending:
        step = min(stack[-1][1] for stack in pending.values())
        factor = 1
        for p, stack in list(pending.items()):
            e, count = stack[-1]
            factor *= p**e
            if count > step:
                stack[-1] = (e, count - step)
            else:
                stack.pop()
                if not stack:
                    del pending[p]
        runs.append((factor, step))
    runs.reverse()
    return tuple(runs)


@dataclass(frozen=True)
class FGAbelianGroup:
    """Z^free_rank plus, per (order, multiplicity) run, that many Z_order."""

    free_rank: int = 0
    torsion: tuple[Run, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        previous = None
        for run in self.torsion:
            if not isinstance(run, tuple) or len(run) != 2:
                raise TypeError(
                    f"torsion entries are (order, multiplicity) runs, got {run!r}"
                )
            d, count = run
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
        """Z^free_rank ⊕ Z_2^two_rank, the shape every assembly produces.

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
        free = 0
        counts: dict[int, int] = {}
        for m in orders:
            m = abs(int(m))
            if m == 0:
                free += 1
            elif m > 1:
                counts[m] = counts.get(m, 0) + 1
        return cls(free, _invariant_runs(_prime_profile(counts.items())))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, other: "FGAbelianGroup") -> "FGAbelianGroup":
        profile = _prime_profile(self.torsion + other.torsion)
        return FGAbelianGroup(
            self.free_rank + other.free_rank, _invariant_runs(profile)
        )

    def two_torsion_rank(self) -> int:
        """Number of cyclic summands of even order."""
        return sum(count for d, count in self.torsion if d % 2 == 0)

    def embeds_in(self, other: "FGAbelianGroup") -> bool:
        """Whether an injective homomorphism self -> other exists.

        Injectivity forces the free rank to grow and, prime by prime,
        the count of summands of order at least p^e to grow for every e.
        Those counts only change at exponents self has, so checking them
        there suffices.

        >>> Z4 = FGAbelianGroup(0, ((4, 1),))
        >>> Z2xZ2 = FGAbelianGroup(0, ((2, 2),))
        >>> Z4.embeds_in(Z2xZ2) or Z2xZ2.embeds_in(Z4)
        False
        >>> FGAbelianGroup(1, ((2, 1),)).embeds_in(FGAbelianGroup(2, ((2, 1), (4, 1))))
        True
        """
        if self.free_rank > other.free_rank:
            return False
        theirs = _prime_profile(other.torsion)
        for p, mine in _prime_profile(self.torsion).items():
            other_counts = theirs.get(p, {})
            for e in mine:
                needed = sum(c for f, c in mine.items() if f >= e)
                available = sum(c for f, c in other_counts.items() if f >= e)
                if needed > available:
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
