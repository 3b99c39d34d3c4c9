"""
Assembling homology with 4-periodic coefficients
================================================

"""

from multiaxial.family import Family
from multiaxial.homology import integral_homology
from multiaxial.l_homology import (
    assemble_l_homology,
    one_residue_class,
    read_collapse,
    reduced_l_homology_oracle,
    relative_l_homology_oracle,
)
from multiaxial.orbit_cells import cell_slices, cells_by_rank
from multiaxial.structure_set import (
    l_coefficient,
    orbit_space_dimension,
    reduced_l_homology,
    relative_l_homology,
)

C = Family.COMPLEX
H = Family.QUATERNIONIC

# The coefficient spectrum repeats with period four: Z, 0, Z_2, 0.
print("coefficient groups by degree:")
for q in range(0, 9):
    print(f"  L_{q} = {l_coefficient(q)}")

# When the integral homology of a space is free and concentrated in one
# parity, the spectral sequence collapses and the top L-homology group is
# a sum of shifted coefficient groups weighted by Betti numbers. The
# projective plane, one cell in each of degrees 0, 2 and 4, is the
# smallest interesting case.
betti = {0: 1, 2: 1, 4: 1}
print()
print("Betti numbers of the projective plane:", betti)
print("degree-4 L-homology:", assemble_l_homology(betti, 4))

# The same assembly runs over the orbit-space cell complexes in the oracle
# (l_homology), which builds the complex and pushes it through the integer
# kernel. The closed forms (structure_set) count box partitions instead,
# with their own formula for the top degree d. They must agree.
print()
for family, n, k in [(C, 2, 4), (C, 3, 5), (H, 2, 3)]:
    d = orbit_space_dimension(family, n, k)
    closed = relative_l_homology(family, n, k)
    oracle = relative_l_homology_oracle(family, n, k)
    tag = "ok" if closed == oracle else "MISMATCH"
    print(f"{family} n={n} k={k} (d={d}): relative {closed}  [{tag}]")
    closed = reduced_l_homology(family, n, k)
    oracle = reduced_l_homology_oracle(family, n, k)
    tag = "ok" if closed == oracle else "MISMATCH"
    print(f"{family} n={n} k={k} (d={d}): reduced  {closed}  [{tag}]")

# The collapse itself is certified cell by cell: reduced homology must sit
# in a single residue class of degrees, the same parity as n + 1 for U and
# one class mod 4 for Sp.
print()
for family, n, k in [(C, 2, 4), (H, 2, 3)]:
    groups = integral_homology(cell_slices(cells_by_rank(family, n, k)))
    print(f"collapse certificate for {family}({n}), k={k}:",
          read_collapse(family, n, groups))
print("degrees 1, 3, 5 for U(2):", one_residue_class(C, 2, [1, 3, 5]))
print("degrees 0, 2 for U(2):", one_residue_class(C, 2, [0, 2]))
