"""
Cells of the orbit space and their homology
===========================================

"""

from multiaxial.family import Family
from multiaxial.homology import integral_homology, smith_normal_form
from multiaxial.orbit_cells import (
    CellFiltration,
    build_chain_complex,
    cell_label,
    cells_by_degree,
)

C = Family.COMPLEX

# The orbit space of the unit sphere in k copies of the standard U(n)
# representation has one cell per strictly decreasing pivot tuple
# (m_1 > ... > m_r >= 1) with m_1 <= k and r <= n. The tuple records the
# pivot columns of a row-echelon representative, r being the matrix rank.
# The tuple itself is the cell, and the chain complex's generator;
# cells_by_degree groups them by dimension and cell_label prints one.

n, k = 2, 4
print(f"cells of the n={n}, k={k} orbit space:")
for dim, cells in cells_by_degree(C, n, k).items():
    for pivots in cells:
        print(f"  {cell_label(pivots):>8}  rank {len(pivots)}  dim {dim}")

# The chain complex has the cells as generators. The orbit space's
# dimension is read off it as the degree of its top cell.
cx = build_chain_complex(C, n, k)
print("top dimension:", cx.degrees()[-1])

# Almost every boundary map vanishes. The only surviving face relation
# drops a trailing pivot at position 1, with coefficient 1, so the chain
# complex is very sparse and its homology is torsion free.
# A boundary is stored as sparse columns, one row -> coefficient map per
# generator, the row indexing the generators one degree down.
print()
print("nonzero boundary columns:")
for p in cx.boundary_degrees():
    faces = cx.generators(p - 1)
    for cell, column in zip(cx.generators(p), cx.columns(p)):
        for row, coeff in sorted(column.items()):
            print(f"  d_{p} {cell_label(cell)} = {coeff} * {cell_label(faces[row])}")

print()
print("integral homology:")
homology = integral_homology(cx)
for degree, group in sorted(homology.items()):
    print(f"  H_{degree} = {group}")
# Torsion free, so the Betti numbers over any field are these free ranks.
print("Betti numbers:", {p: group.free_rank for p, group in homology.items()})

# Restricting to full-rank cells kills every boundary map outright. The
# resulting groups are the relative homology of the orbit space against
# its singular part, one Z per cell in its own degree.
relative = build_chain_complex(C, n, k, CellFiltration.exact(n))
print()
print("full-rank (relative) cell degrees:",
      {p: relative.cell_count(p) for p in relative.degrees()})

# The underlying integer kernel is general purpose. Invariant factors of
# any integer matrix come out of the same routine the homology uses.
print()
print("Smith normal form of [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]:")
print(" ", smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
