"""Exact structure sets of multiaxial representation spheres.

The package computes the isovariant structure set of the unit sphere of
k copies of the defining representation of U(n) or Sp(n), plus trivial
summands, as an explicit finitely generated abelian group.  Every closed
form is paired with an oracle that recomputes the same group from a cell
decomposition through exact Smith normal form, and the verification grid
checks the two routes against each other.
"""

from .abelian import FGAbelianGroup
from .family import Family, UsageError
from .l_homology import reduced_l_homology_oracle, relative_l_homology_oracle
from .structure_set import ActionSpec, compute_structure_set, normalize

__version__ = "0.1.0"

__all__ = [
    "ActionSpec",
    "FGAbelianGroup",
    "Family",
    "UsageError",
    "compute_structure_set",
    "normalize",
    "reduced_l_homology_oracle",
    "relative_l_homology_oracle",
    "__version__",
]
