"""Top-degree homology with 4-periodic surgery coefficients: the oracle.

The coefficient spectrum has homotopy Z in degrees 0, 4, 8, ..., Z_2 in
degrees 2, 6, 10, ... and nothing else.  For the spaces produced by
orbit_cells the corresponding homology collapses, so the group in the top
degree d is assembled degreewise from ordinary Betti numbers:

    free part     from integral ranks in degrees d, d-4, d-8, ...
    2-torsion     from mod 2 ranks in degrees d-2, d-6, ...

The assembly needs torsion-free integral homology, and for that the
universal coefficient theorem makes the mod 2 Betti numbers equal to the
integral ranks (Hatcher, Algebraic Topology, Thm. 3A.3), so one rank map
serves both parts.  The assembly builds its group itself, not through
the closed route's with_two_torsion, so a fault there shows as a mismatch.

This is the oracle route; structure_set holds the closed forms, and only
the tests and verify compare the two.  Each oracle grows its band of
ranks by rank (see orbit_cells), 1..n or n alone, streams its complex
once through integral_homology, which splits each slice as it arrives,
and reads: a read_* function takes the integral homology, which it refuses
if it has torsion, and the top cell's degree, since at k = n the top cell
is matched and the top group is 0.  A pivot raises the degree, so that
is rank n's highest.  So the oracles eliminate over Z alone.  The
collapse check is a bool read the same way, through one_residue_class.

family_points is the family pass: the strata nest, so one growth to the
top rank and pivot, streamed once through filtered_homology with a cell's
step its top pivot and rank, and never merged whole, serves every point
(n, k): its full complex is F_(k,n), its rank-n one the band there, the
masks below 1 << k.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Mapping

from .abelian import FGAbelianGroup
from .family import Family
from .homology import filtered_homology, integral_homology
from .orbit_cells import cell_slices, cells_by_rank


def assemble_l_homology(betti: Mapping[int, int], d: int) -> FGAbelianGroup:
    """Collapse the coefficient tower onto degree d.

    betti are the ranks of a space with torsion-free integral homology,
    absolute or reduced; the formula is the same for either.
    """
    if d < 0:
        raise ValueError("top degree must be nonnegative")
    towers = [0] * 4  # ranks in degrees 0..d, summed by (d - p) mod 4
    for p, rank in betti.items():
        if 0 <= p <= d:
            towers[(d - p) % 4] += rank
    return FGAbelianGroup(towers[0], ((2, towers[2]),) if towers[2] else ())


def relative_l_homology_oracle(family: Family, n: int, k: int) -> FGAbelianGroup:
    """Top-degree group of the pair (orbit space, next lower stratum),
    from the full-rank cell complex."""
    cells = cells_by_rank(family, n, k, range(n, n + 1))
    return read_l_homology(integral_homology(cell_slices(cells)), max(cells[n]))


def read_l_homology(
    homology: Mapping[int, FGAbelianGroup], top: int
) -> FGAbelianGroup:
    """The group in degree top assembled from all torsion-free ranks: the
    relative group of a full-rank complex, and of a full complex the
    absolute one, the reduced group plus the basepoint's coefficient."""
    return assemble_l_homology(_torsion_free_ranks(homology), top)


def reduced_l_homology_oracle(family: Family, n: int, k: int) -> FGAbelianGroup:
    """Top-degree group of the orbit space with the basepoint removed,
    from the full cell complex."""
    cells = cells_by_rank(family, n, k)
    return read_reduced_l_homology(integral_homology(cell_slices(cells)), max(cells[n]))


def read_reduced_l_homology(
    homology: Mapping[int, FGAbelianGroup], top: int
) -> FGAbelianGroup:
    """The oracle's answer read off the integral homology of a full complex
    whose top cell is in degree top; the input is not modified."""
    betti = _torsion_free_ranks(homology)
    rank0 = betti.pop(0, None)
    if rank0 != 1:
        raise ValueError(
            "orbit space should be connected with one basepoint class, "
            f"got rank {rank0} in degree 0"
        )
    return assemble_l_homology(betti, top)


def family_points(family: Family, max_n: int, max_k: int) -> Iterator[tuple]:
    """(n, k, counts, full_rank, homology, relative) at each n <= max_n and
    n <= k <= max_k, n ascending, then k: each point's own dicts of its cells
    and its rank-n cells by degree, and the groups of its full complex and
    rank-n one; a refused pass gives its ValueError for both, at every point."""
    by_rank = cells_by_rank(family, min(max_n, max_k), max_k)
    try:
        points = filtered_homology(
            cell_slices(by_rank), lambda cell: (cell.bit_length(), cell.bit_count())
        )
    except ValueError as error:
        points = error
    below: dict[int, dict] = {}  # k -> cells by degree of ranks < n
    for n, masks_of in by_rank.items():
        for k in range(n, max_k + 1):
            end = 1 << k  # column k's cells are the masks below it
            counts, full_rank = dict(below.get(k, {})), {}
            for p, masks in masks_of.items():
                if cut := bisect_left(masks, end):  # a copy only of a prefix
                    full_rank[p] = masks[:cut] if cut < len(masks) else masks
                    counts[p] = counts.get(p, 0) + cut
            below[k] = counts
            pair = (points,) * 2 if isinstance(points, ValueError) else points[k, n]
            yield n, k, counts, full_rank, *pair


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
