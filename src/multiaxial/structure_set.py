"""Structure sets of multiaxial representation spheres.

The sphere is the unit sphere of k copies of the defining representation
of U(n) or Sp(n) plus j trivial summands.  Its isovariant structure set
splits along the rank strata of the orbit space, and every piece is a
top-degree group already computed in l_homology.  Which pieces appear is
decided by the parity of the gap k - n:

    even gap:  stratum pairs at depths 0, 2, 4, ... below the top rank
    odd gap:   the reduced group of the whole orbit space, then stratum
               pairs at depths 1, 3, 5, ...

Two corrections can fire, exclusive by construction (j = 0 against j > 0).
With no trivial summand (j = 0) the deepest stratum of the even/odd branch
for n odd/even is a free sphere quotient, and its summand is the structure
set of that quotient, one Z below the homology count of lines in k-space,
whose free rank is ceil(k/2) for U and k for Sp.  With j > 0 on the odd
branch the basepoint contributes its coefficient group as an extra summand.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .abelian import FGAbelianGroup
from .family import Family, UsageError
from .l_homology import (
    basepoint_correction,
    reduced_l_homology,
    relative_l_homology,
)


@dataclass(frozen=True)
class ActionSpec:
    """k copies of the defining representation plus j trivial ones."""

    family: Family
    n: int
    k: int
    j: int = 0

    def __post_init__(self):
        # a spec that is built is valid: True, 2.0 and "U" are refused
        Family.require(self.family)
        for value in (self.n, self.k, self.j):
            if type(value) is not int:
                raise TypeError(f"n, k, j must be ints, got {value!r}")
        if self.n < 0 or self.k < 0 or self.j < 0:
            raise UsageError("n, k, j must be nonnegative")

    @property
    def is_trivial(self) -> bool:
        """No defining summands act, so the sphere carries a trivial action."""
        return self.n == 0

    def describe(self) -> str:
        return (
            f"S_{self.family}({self.n})"
            f"(S({self.k} rho_{self.n} + {self.j} eps))"
        )


def normalize(spec: ActionSpec) -> ActionSpec:
    """Fold away ranks the sphere cannot reach.

    With fewer defining copies than the rank (k < n) the action only sees
    the first k axes, so n is replaced by k; n = 0 marks a trivial action.
    Idempotent.
    """
    return replace(spec, n=spec.k) if spec.k < spec.n else spec


@dataclass(frozen=True)
class Summand:
    label: str
    group: FGAbelianGroup
    source: str


@dataclass(frozen=True)
class DecompositionReport:
    """Labeled summands of a structure set.  The total is their direct sum,
    made here once and never passed in, so the two cannot disagree."""

    spec: ActionSpec
    branch: str
    summands: tuple[Summand, ...]
    total: FGAbelianGroup = field(init=False)
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        groups = [s.group for s in self.summands]
        total = FGAbelianGroup.direct_sum(*groups) if groups else FGAbelianGroup()
        object.__setattr__(self, "total", total)

    def summand(self, label: str) -> Summand:
        for s in self.summands:
            if s.label == label:
                return s
        raise KeyError(label)

    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.summands)


def compute_structure_set(spec: ActionSpec) -> DecompositionReport:
    """Decompose the structure set into labeled summands.

    The spec is normalized first, and the report carries the normalized
    spec; a trivial action yields the zero report.
    """
    spec = normalize(spec)
    if spec.is_trivial:
        return DecompositionReport(
            spec=spec,
            branch="trivial",
            summands=(),
            notes=("trivial action, the structure set of a sphere vanishes",),
        )
    family, n, k, j = spec.family, spec.n, spec.k, spec.j
    summands: list[Summand] = []
    notes: list[str] = []
    if (k - n) % 2 == 0:
        branch = "even-gap"
        depths = range(0, n, 2)
    else:
        branch = "odd-gap"
        top_group = reduced_l_homology(family, n, k)
        summands.append(
            Summand(
                label="top",
                group=top_group,
                source=(
                    f"reduced top-degree assembly of the whole orbit space, "
                    f"counts from the {n} x {k - n - 1} box with parity "
                    f"offset {k * n}"
                ),
            )
        )
        if j > 0:
            correction = basepoint_correction(family, n, k)
            if not correction.is_trivial:
                summands.append(
                    Summand(
                        label="basepoint",
                        group=correction,
                        source=(
                            "periodic coefficient at the basepoint in the "
                            "top degree"
                        ),
                    )
                )
                notes.append(
                    f"trivial summands present (j={j}), the basepoint "
                    f"contributes an extra {correction} summand"
                )
        depths = range(1, n, 2)
    for depth in depths:
        m = n - depth
        group = relative_l_homology(family, m, k)
        if m == 1 and j == 0:
            group = FGAbelianGroup(group.free_rank - 1, group.torsion)
            summands.append(
                Summand(
                    label="free_stratum",
                    group=group,
                    source=(
                        "structure set of the free-stratum quotient, the "
                        f"cell count of lines in {k}-space minus one Z for "
                        "the degree zero surgery obstruction"
                    ),
                )
            )
            notes.append(
                "no trivial summand (j=0), so the deepest stratum is a "
                "free sphere quotient (n and k - n make k odd in every "
                "firing case) and its summand drops one Z"
            )
        else:
            summands.append(
                Summand(
                    label=f"stratum_pair({depth})",
                    group=group,
                    source=(
                        f"relative top-degree assembly at rank {m}, parity "
                        f"split cell counts of {m}-planes in {k}-space"
                    ),
                )
            )
    return DecompositionReport(
        spec=spec,
        branch=branch,
        summands=tuple(summands),
        notes=tuple(notes),
    )


def suspension_embeds(
    base: DecompositionReport, twice: DecompositionReport
) -> bool:
    """Whether the answer at k embeds in the answer at k + 2.

    Adding two defining copies keeps the branch and the summand labels, so
    the double suspension is checked summand by summand under the same
    label; the direct sum of those embeddings embeds base.total in
    twice.total.  The single step flips the branch and may lose torsion, so
    nothing is claimed against k + 1.

    >>> at = lambda k: compute_structure_set(ActionSpec(Family.COMPLEX, 1, k))
    >>> suspension_embeds(at(3), at(5)), suspension_embeds(at(5), at(3))
    (True, False)
    """
    far = {s.label: s.group for s in twice.summands}
    return all(
        s.label in far and s.group.embeds_in(far[s.label]) for s in base.summands
    )
