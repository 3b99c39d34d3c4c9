"""Structure sets of multiaxial representation spheres, by the closed form.

The sphere is the unit sphere of k copies of the defining representation
of U(n) or Sp(n) plus j trivial summands.  Its isovariant structure set
splits along the rank strata of the orbit space, and every piece is a
top-degree group with 4-periodic coefficients (Z, 0, Z_2, 0, ...), counted
here from box partitions, in a top degree that is the sphere's dimension
minus the group's.  This is the closed route; l_homology is the oracle.
Which pieces appear is decided by the parity of the gap k - n:

    even gap:  stratum pairs at depths 0, 2, 4, ... below the top rank
    odd gap:   the reduced group of the whole orbit space, then stratum
               pairs at depths 1, 3, 5, ...

Two corrections can fire, exclusive by construction (j = 0 against j > 0).
With no trivial summand (j = 0) the deepest stratum of the even/odd branch
for n odd/even is a free sphere quotient, and its summand is the structure
set of that quotient, one Z below the homology count of lines in k-space,
whose free rank is ceil(k/2) for U and k for Sp.  With j > 0 on the odd
branch the basepoint contributes the coefficient group of the top degree
as an extra summand when that group is not 0, which is when n is odd.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

from .abelian import FGAbelianGroup
from .family import Family, UsageError, require_valid
from .grassmannian import count_A_B


def l_coefficient(q: int) -> FGAbelianGroup:
    """Coefficient group in degree q: Z, Z_2 or 0.

    >>> [str(l_coefficient(q)) for q in range(5)]
    ['Z', '0', 'Z_2', '0', 'Z']
    """
    if type(q) is not int:
        raise TypeError(f"degree must be an int, got {q!r}")
    if q < 0 or q % 2:
        return FGAbelianGroup.trivial()
    if q % 4 == 0:
        return FGAbelianGroup.free(1)
    return FGAbelianGroup.with_two_torsion(0, 1)


def orbit_space_dimension(family: Family, n: int, k: int) -> int:
    """The top degree: the sphere's dimension minus the group's.

    >>> orbit_space_dimension(Family.COMPLEX, 2, 4)
    11
    """
    require_valid(n, k)
    if family is Family.COMPLEX:
        return 2 * k * n - 1 - n * n
    Family.require(family)
    return 4 * k * n - 1 - n * (2 * n + 1)


def relative_l_homology(family: Family, n: int, k: int) -> FGAbelianGroup:
    """Top-degree group of the pair (orbit space, next lower stratum).

    One Z per even-weight and one Z_2 per odd-weight cell of the
    Grassmannian of n-planes in k-space in the complex case, and one Z per
    cell overall in the quaternionic case.
    """
    if family is Family.COMPLEX:
        return FGAbelianGroup.with_two_torsion(*count_A_B(n, k))
    Family.require(family)
    require_valid(n, k)
    return FGAbelianGroup.free(comb(k, n))


def reduced_l_homology(family: Family, n: int, k: int) -> FGAbelianGroup:
    """Top-degree group of the orbit space with the basepoint removed.

    It counts the box partitions that stay below column k - n, the n by
    (k - n - 1) box, so it is the relative group of n-planes in
    (k - 1)-space, and 0 at k = n, where that box is empty.  The paper
    offsets the complex parity by k*n; when k*n is odd, n is odd and k - 1
    even, so even minus odd is 0 and the offset changes nothing.
    """
    require_valid(n, k)
    if k == n:
        Family.require(family)
        return FGAbelianGroup.trivial()
    return relative_l_homology(family, n, k - 1)


def basepoint_correction(family: Family, n: int, k: int) -> FGAbelianGroup:
    """Coefficient group at the basepoint in the top degree, whose parity is
    that of n + 1, so 0 for even n (U(2, 3) has top degree 7).  Only
    meaningful when k - n is odd; the even gap is rejected."""
    top = orbit_space_dimension(family, n, k)
    if (k - n) % 2 == 0:
        raise ValueError("basepoint correction applies only when k - n is odd")
    return l_coefficient(top)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Summand:
    label: str
    group: FGAbelianGroup
    source: str


@dataclass(frozen=True, slots=True)
class DecompositionReport:
    """Labeled summands of a structure set.  The total is their direct sum
    and the notes name what the spec and the summands leave unsaid; both
    are read off the summands when asked for, never passed in, so neither
    can disagree with them."""

    spec: ActionSpec
    branch: str
    summands: tuple[Summand, ...]

    @property
    def total(self) -> FGAbelianGroup:
        return FGAbelianGroup().direct_sum(*(s.group for s in self.summands))

    @property
    def notes(self) -> tuple[str, ...]:
        if self.spec.is_trivial:
            return ("trivial action, the structure set of a sphere vanishes",)
        notes = {
            "basepoint": "trivial summands present (j={}), the basepoint "
            "contributes an extra {} summand",
            "free_stratum": "no trivial summand (j=0), so the deepest stratum "
            "is a free sphere quotient (n and k - n make k odd in every "
            "firing case) and its summand drops one Z",
        }
        return tuple(
            notes[s.label].format(self.spec.j, s.group)
            for s in self.summands
            if s.label in notes
        )

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
        return DecompositionReport(spec=spec, branch="trivial", summands=())
    family, n, k, j = spec.family, spec.n, spec.k, spec.j
    summands: list[Summand] = []
    if (k - n) % 2 == 0:
        branch = "even-gap"
        depths = range(0, n, 2)
    else:
        branch = "odd-gap"
        source = (
            f"reduced top-degree assembly of the whole orbit space, "
            f"counts from the {n} x {k - n - 1} box"
        )
        summands.append(Summand("top", reduced_l_homology(family, n, k), source))
        if j > 0:
            correction = basepoint_correction(family, n, k)
            if not correction.is_trivial:
                source = "periodic coefficient at the basepoint in the top degree"
                summands.append(Summand("basepoint", correction, source))
        depths = range(1, n, 2)
    for depth in depths:
        m = n - depth
        group = relative_l_homology(family, m, k)
        if m == 1 and j == 0:
            label = "free_stratum"
            group = FGAbelianGroup(group.free_rank - 1, group.torsion)
            source = (
                "structure set of the free-stratum quotient, the "
                f"cell count of lines in {k}-space minus one Z for "
                "the degree zero surgery obstruction"
            )
        else:
            label = f"stratum_pair({depth})"
            source = (
                f"relative top-degree assembly at rank {m}, parity "
                f"split cell counts of {m}-planes in {k}-space"
            )
        summands.append(Summand(label, group, source))
    return DecompositionReport(spec=spec, branch=branch, summands=tuple(summands))


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
