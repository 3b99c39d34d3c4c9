"""Top-degree homology with 4-periodic surgery coefficients.

The coefficient spectrum has homotopy Z in degrees 0, 4, 8, ..., Z_2 in
degrees 2, 6, 10, ... and nothing else.  For the spaces produced by
orbit_cells the corresponding homology collapses, so the group in the top
degree d is assembled degreewise from ordinary Betti numbers:

    free part     from integral ranks in degrees d, d-4, d-8, ...
    2-torsion     from mod 2 ranks in degrees d-2, d-6, ...

The assembly needs torsion-free integral homology, and for that the
universal coefficient theorem makes the mod 2 Betti numbers equal to the
integral ranks (Hatcher, Algebraic Topology, Thm. 3A.3), so one rank map
serves both parts.

Each closed form below has an oracle twin that takes the long way around
through the cell complex and Smith normal form.  The two routes are kept
separate on purpose; equality between them is asserted by the test suite
and the verify command, never assumed inside either route.  Each oracle is
a build followed by a read: the read_* functions take only the integral
homology of the built complex, which they refuse if it has torsion, so the
oracles eliminate over Z alone and verify can build each complex once and
hand its homology to every check.  The collapse check is a bool read the
same way, through one_residue_class.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Mapping

from .abelian import FGAbelianGroup
from .family import Family, require_valid
from .grassmannian import count_A_B, count_a_b
from .homology import integral_homology
from .orbit_cells import CellFiltration, build_chain_complex, orbit_space_dimension


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


def assemble_l_homology(betti: Mapping[int, int], d: int) -> FGAbelianGroup:
    """Collapse the coefficient tower onto degree d.

    betti are the ranks of a space with torsion-free integral homology,
    absolute or reduced; the formula is the same for either.
    """
    if d < 0:
        raise ValueError("top degree must be nonnegative")
    free = sum(betti.get(d - q, 0) for q in range(0, d + 1, 4))
    two_torsion = sum(betti.get(d - q, 0) for q in range(2, d + 1, 4))
    return FGAbelianGroup.with_two_torsion(free, two_torsion)


def relative_l_homology(family: Family, n: int, k: int) -> FGAbelianGroup:
    """Top-degree group of the pair (orbit space, next lower stratum).

    Closed form: one Z per even-weight and one Z_2 per odd-weight cell of
    the Grassmannian of n-planes in k-space in the complex case, and one Z
    per cell overall in the quaternionic case.
    """
    if family is Family.COMPLEX:
        a, b = count_A_B(n, k)
        return FGAbelianGroup.with_two_torsion(a, b)
    if family is not Family.QUATERNIONIC:
        Family.require(family)
    require_valid(n, k)
    return FGAbelianGroup.free(comb(k, n))


def relative_l_homology_oracle(family: Family, n: int, k: int) -> FGAbelianGroup:
    """Same group, computed from the full-rank cell complex."""
    complex_ = build_chain_complex(family, n, k, CellFiltration.exact(n))
    return read_relative_l_homology(family, n, k, integral_homology(complex_))


def read_relative_l_homology(
    family: Family, n: int, k: int, homology: Mapping[int, FGAbelianGroup]
) -> FGAbelianGroup:
    """The oracle's answer read off the integral homology of the full-rank
    complex of (family, n, k)."""
    d = orbit_space_dimension(family, n, k)
    return assemble_l_homology(_torsion_free_ranks(homology), d)


def reduced_l_homology(family: Family, n: int, k: int) -> FGAbelianGroup:
    """Top-degree group of the orbit space with the basepoint removed.

    Closed form from the one-column-smaller box counts.
    """
    a, b = count_a_b(n, k, family)
    return FGAbelianGroup.with_two_torsion(a, b)


def reduced_l_homology_oracle(family: Family, n: int, k: int) -> FGAbelianGroup:
    """Same group, computed from the full cell complex minus the basepoint."""
    complex_ = build_chain_complex(family, n, k)
    return read_reduced_l_homology(family, n, k, integral_homology(complex_))


def read_reduced_l_homology(
    family: Family, n: int, k: int, homology: Mapping[int, FGAbelianGroup]
) -> FGAbelianGroup:
    """The oracle's answer read off the integral homology of the full
    complex of (family, n, k); the input is not modified."""
    d = orbit_space_dimension(family, n, k)
    betti = _torsion_free_ranks(homology)
    rank0 = betti.pop(0, None)
    if rank0 != 1:
        raise ValueError(
            "orbit space should be connected with one basepoint class, "
            f"got rank {rank0} in degree 0"
        )
    return assemble_l_homology(betti, d)


def basepoint_correction(family: Family, n: int, k: int) -> FGAbelianGroup:
    """Coefficient group sitting at the basepoint in the top degree.

    Only meaningful when k - n is odd (the top degree is even then); the
    even-gap case never consumes it and is rejected.
    """
    require_valid(n, k)
    if (k - n) % 2 == 0:
        raise ValueError("basepoint correction applies only when k - n is odd")
    return l_coefficient(orbit_space_dimension(family, n, k))


def one_residue_class(family: Family, n: int, degrees: Iterable[int]) -> bool:
    """Whether the degrees fit the collapse pattern of (family, n).

    Complex case: every degree has the same parity as n + 1.  Quaternionic
    case: all degrees lie in one residue class mod 4.  Either pattern leaves
    no room for a nonzero differential against the 4-periodic coefficients.
    """
    if family is Family.COMPLEX:
        return all(p % 2 == (n + 1) % 2 for p in degrees)
    Family.require(family)
    return len({p % 4 for p in degrees}) <= 1


def verify_collapse(family: Family, n: int, k: int) -> bool:
    """Whether the reduced homology of the full complex of (family, n, k)
    sits in the degrees that one_residue_class allows."""
    complex_ = build_chain_complex(family, n, k)
    return read_collapse(family, n, integral_homology(complex_))


def read_collapse(
    family: Family, n: int, homology: Mapping[int, FGAbelianGroup]
) -> bool:
    """The collapse certificate read off the integral homology of a full
    complex of (family, n, k), for any k."""
    # reduced homology: degree 0 loses the basepoint's Z
    degrees = [
        p
        for p, group in homology.items()
        if group.torsion or group.free_rank > (1 if p == 0 else 0)
    ]
    return one_residue_class(family, n, degrees)


def _torsion_free_ranks(homology: Mapping[int, FGAbelianGroup]) -> dict[int, int]:
    for p, group in homology.items():
        if group.torsion:
            raise ValueError(
                f"unexpected torsion {group.torsion} in degree {p}, "
                "the degreewise assembly needs torsion free input"
            )
    return {p: group.free_rank for p, group in homology.items()}
