"""Exact structure sets of multiaxial representation spheres.

The package computes the isovariant structure set of the unit sphere of
k copies of the defining representation of U(n) or Sp(n), plus trivial
summands, as an explicit finitely generated abelian group.  Every closed
form is paired with an oracle that recomputes the same group from a cell
decomposition through exact Smith normal form, and the verification grid
checks the two routes against each other.
"""

from .abelian import FGAbelianGroup
from .family import Family
from .grassmannian import (
    ParityCount,
    count_A_B,
    count_a_b,
    enumerate_box_partitions,
    grassmannian_betti,
)
from .homology import (
    ChainComplex,
    integral_homology,
    mod2_homology,
    rank_mod2,
    smith_normal_form,
)
from .l_homology import (
    CollapseReport,
    assemble_l_homology,
    basepoint_correction,
    l_coefficient,
    reduced_l_homology,
    reduced_l_homology_oracle,
    relative_l_homology,
    relative_l_homology_oracle,
    verify_collapse,
)
from .orbit_cells import (
    CellFiltration,
    build_chain_complex,
    cells_by_degree,
    orbit_space_dimension,
)
from .structure_set import (
    ActionSpec,
    DecompositionReport,
    InternalContradictionError,
    Summand,
    SuspensionReport,
    compute_structure_set,
    normalize,
    suspension_report,
)
from .verification import CheckResult, VerificationSummary, run_verification

__version__ = "0.1.0"

__all__ = [
    "ActionSpec",
    "CellFiltration",
    "ChainComplex",
    "CheckResult",
    "CollapseReport",
    "DecompositionReport",
    "FGAbelianGroup",
    "Family",
    "InternalContradictionError",
    "ParityCount",
    "Summand",
    "SuspensionReport",
    "VerificationSummary",
    "assemble_l_homology",
    "basepoint_correction",
    "build_chain_complex",
    "cells_by_degree",
    "compute_structure_set",
    "count_A_B",
    "count_a_b",
    "enumerate_box_partitions",
    "grassmannian_betti",
    "integral_homology",
    "l_coefficient",
    "mod2_homology",
    "normalize",
    "orbit_space_dimension",
    "rank_mod2",
    "reduced_l_homology",
    "reduced_l_homology_oracle",
    "relative_l_homology",
    "relative_l_homology_oracle",
    "run_verification",
    "smith_normal_form",
    "suspension_report",
    "verify_collapse",
    "__version__",
]
