"""
Partitions in a box and their parity split
==========================================

"""

import itertools
from collections import Counter
from math import comb

from multiaxial.family import Family
from multiaxial.grassmannian import count_A_B
from multiaxial.structure_set import reduced_l_homology

# A partition in an n x w box is a weakly increasing tuple of n entries,
# each between 0 and w. These index the Schubert cells of the Grassmannian
# of n-planes in (n + w)-space, one cell of real dimension 2 * sum(mu) per
# partition mu. The package never lists them; here the box is listed to
# show what its counts count.

n, w = 2, 3
partitions = list(itertools.combinations_with_replacement(range(w + 1), n))
print(f"partitions in a {n} x {w} box:")
for mu in partitions:
    print(f"  {mu}  weight {sum(mu)}")
print(f"count = {len(partitions)}, expected C({n + w},{n}) = {comb(n + w, n)}")
even = sum(1 for mu in partitions if sum(mu) % 2 == 0)
print(f"even weight {even}, odd weight {len(partitions) - even}:",
      count_A_B(n, n + w))

# The weight parity splits the count in two. For the group computations
# the even-weight cells each contribute a Z and the odd-weight cells a Z_2,
# so the pair (A, B) below is the whole answer in compressed form. It comes
# from a closed form, without listing the box.
print()
for k in range(2, 7):
    a, b = count_A_B(2, k)
    print(f"n=2 k={k}: A={a} B={b} A+B={a + b} C(k,n)={comb(k, 2)}")

# Transposing the box preserves weight, so swapping the roles of n and k-n
# leaves the parity counts alone.
print()
print("transpose check on a 2 x 3 box vs a 3 x 2 box:")
print(" ", count_A_B(2, 5), "vs", count_A_B(3, 5))

# The box one column smaller governs the reduced (based) variant: its
# cells are the partitions above that stay below column w, so the reduced
# group is the relative one at k - 1. The paper offsets the complex parity
# by k * n, which never changes the split. In the quaternionic family all
# cells land in degrees divisible by 4, so each one gives a Z.
print()
k = n + w
inner = [mu for mu in partitions if mu[-1] < w]
odd = sum(1 for mu in inner if (sum(mu) + k * n) % 2)
print(f"reduced group at n={n}, k={k}, from the listed {n} x {w - 1} box:")
print(f"  {len(inner)} partitions, even {len(inner) - odd}, odd {odd}")
print("  complex     ", reduced_l_homology(Family.COMPLEX, n, k))
print("  quaternionic", reduced_l_homology(Family.QUATERNIONIC, n, k))

# Betti numbers come from the same listing, graded by 2 * weight.
print()
box = itertools.combinations_with_replacement(range(3), 2)  # the 2 x 2 box
betti = dict(sorted(Counter(2 * sum(mu) for mu in box).items()))
print("Betti numbers of G(2,4):", betti)
print("Poincare polynomial:",
      " + ".join(f"{r}t^{d}" if r > 1 else f"t^{d}" for d, r in betti.items()))
