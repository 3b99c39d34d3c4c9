"""
Cells of the orbit space and their homology
===========================================

"""

from multiaxial.family import Family
from multiaxial.homology import integral_homology, smith_normal_form
from multiaxial.orbit_cells import cell_label, cell_slices, cells_by_rank

C = Family.COMPLEX

# The orbit space of the unit sphere in k copies of the standard U(n)
# representation has one cell per strictly decreasing pivot tuple
# (m_1 > ... > m_r >= 1) with m_1 <= k and r <= n. The tuple records the
# pivot columns of a row-echelon representative, r being the matrix rank.
# A cell is an int with bit m - 1 set for each pivot m, and is the chain
# complex's generator: the rank is its bit count. cells_by_rank grows
# the cells rank by rank, each rank's by dimension; cell_slices merges
# the ranks of one dimension as it streams them, and cell_label prints a
# cell as its pivot tuple.

n, k = 2, 4
cells = cells_by_rank(C, n, k)
print(f"cells of the n={n}, k={k} orbit space:")
for dim, cells_p, _ in cell_slices(cells):
    for cell in cells_p:
        print(f"  {cell_label(cell):>8}  rank {cell.bit_count()}  dim {dim}")

# The chain complex has the cells as generators. The orbit space's
# dimension is read off it as the degree of its top cell, which has rank
# n, as each pivot raises the degree.
print("top dimension:", max(cells[n]))

# The complex is a stream of slices, one per degree: the degree, its
# cells, and the boundary out of it as sparse columns, one row ->
# coefficient map per cell, the row indexing the cells one degree down
# (None when no cell there has a face). Almost every boundary map
# vanishes. The only surviving face relation drops a trailing pivot at
# position 1, bit 0, so the face of an odd cell c other than 1 is c - 1,
# with coefficient 1. The complex is very sparse and its homology is
# torsion free.
print()
print("nonzero boundary columns:")
below = []  # the slice one degree down, where a column's rows point
for p, cells_p, columns in cell_slices(cells):
    for cell, column in zip(cells_p, columns or ()):
        for row, coeff in sorted(column.items()):
            face = cell_label(below[row])
            print(f"  d_{p} {cell_label(cell)} = {coeff} * {face}")
    below = cells_p

# integral_homology reads the stream two adjacent degrees at a time,
# checking each slice as it comes.
print()
print("integral homology:")
homology = integral_homology(cell_slices(cells))
for degree, group in sorted(homology.items()):
    print(f"  H_{degree} = {group}")
# Torsion free, so the Betti numbers over any field are these free ranks.
print("Betti numbers:", {p: group.free_rank for p, group in homology.items()})

# A band of ranks is a range: range(n, n + 1) keeps the full-rank cells
# only, which kills every boundary map outright. The resulting groups are
# the relative homology of the orbit space against its singular part, one
# Z per cell in its own degree.
relative = cells_by_rank(C, n, k, range(n, n + 1))
print()
print("full-rank (relative) cell degrees:",
      {p: len(cells_p) for p, cells_p, _ in cell_slices(relative)})

# The underlying integer kernel is general purpose. Invariant factors of
# any integer matrix come out of the same routine the homology uses.
print()
print("Smith normal form of [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]:")
print(" ", smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
