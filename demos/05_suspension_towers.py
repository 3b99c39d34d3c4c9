"""
Suspension towers
=================

"""

from multiaxial.family import Family
from multiaxial.structure_set import (
    ActionSpec,
    compute_structure_set,
    suspension_embeds,
)

# Adding a copy of the standard representation suspends the sphere.
# Climbing k -> k+1 flips the gap parity and with it the decomposition
# branch, so the honest comparison is k against k+2. There the branch and
# the summand labels match up and each summand can only grow.

# dataclasses.replace swaps one field of a frozen spec
from dataclasses import replace

spec = ActionSpec(Family.COMPLEX, 2, 2)
print("tower over", spec.describe())
print(f"{'k':>3} {'branch':>9}  total")
for k in range(2, 9):
    report = compute_structure_set(replace(spec, k=k))
    print(f"{k:>3} {report.branch:>9}  {report.total}")

print()
base = compute_structure_set(spec)
twice = compute_structure_set(replace(spec, k=spec.k + 2))
print(f"double suspension of {spec.describe()}:")
for summand in base.summands:
    far = twice.summand(summand.label).group
    print(f"  {summand.label:>16}: {summand.group}  ->  {far}"
          f"  embeds={summand.group.embeds_in(far)}")
print("total embeds in double suspension:", base.total.embeds_in(twice.total))
print("suspension embeds:", suspension_embeds(base, twice))

# The quaternionic odd-gap tower shows why single steps are not compared
# summand by summand. The k and k+1 answers live on different branches
# with different summand lists, and the basepoint torsion present at odd
# gaps has no counterpart one step up.
print()
spec = ActionSpec(Family.QUATERNIONIC, 3, 4, j=1)
print("tower over", spec.describe())
reports = [compute_structure_set(replace(spec, k=spec.k + step))
           for step in range(3)]
for step, report in zip(("k  ", "k+1", "k+2"), reports):
    print(f"  {step}:", report.total, f"[{report.branch}]")
print("suspension embeds:", suspension_embeds(reports[0], reports[2]))
