"""
Structure sets of multiaxial representation spheres
===================================================

"""

from multiaxial.family import Family
from multiaxial.structure_set import ActionSpec, compute_structure_set, normalize


def show(spec):
    report = compute_structure_set(spec)
    print(f"{spec.describe()}  [{report.branch}]")
    for summand in report.summands:
        print(f"  {summand.label:>16}: {str(summand.group):<12} {summand.source}")
    for note in report.notes:
        print(f"  note: {note}")
    print(f"  total: {report.total}")
    print()


# The sphere of k copies of the standard U(n) representation, plus j
# trivial summands. The isovariant structure set splits along the orbit
# type strata (two strata per summand), and the parity of the first gap
# k - n picks which of two decompositions applies.

show(ActionSpec(Family.COMPLEX, 2, 4))        # even gap
show(ActionSpec(Family.COMPLEX, 2, 3))        # odd gap, n even, j=0
show(ActionSpec(Family.COMPLEX, 1, 3))        # the fake projective spaces

# When the deepest stratum is a free sphere quotient and j = 0, one Z is
# lost to a surgery obstruction. The summand is relabeled free_stratum in
# the report so the exception is visible, not silently folded in.

show(ActionSpec(Family.COMPLEX, 1, 2, j=1))   # basepoint summand appears
show(ActionSpec(Family.QUATERNIONIC, 1, 2))
show(ActionSpec(Family.QUATERNIONIC, 3, 4, j=1))

# Oversized n is the same action in disguise: with k < n the sphere only
# sees the first k axes.
big = ActionSpec(Family.COMPLEX, 5, 3, j=2)
print(f"{big.describe()} normalizes to {normalize(big).describe()}")
show(big)
