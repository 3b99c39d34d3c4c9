"""Cross-checks wiring the whole package together over a parameter grid.

Every check compares two independent routes to the same number or group,
or asserts a structural identity that the construction does not enforce
by itself, as it does a report's total, the direct sum of its summands.
The CLI verify subcommand and the acceptance tests both run through here,
so a single list of checks serves both.

Within one run_verification call each object is computed once per grid
point.  Each (n, k) box is listed once, and the parity counts and the Betti
numbers are both read off that listing.  For every (family, n, k) its cells
are enumerated once, and both the full complex and the rank-n complex (the
full-rank slice, faces outside it dropped) are built from that enumeration;
the cell census and the full-rank parities are read off it too.  The full
complex and the rank-n complex each get their integral homology once, and
each spec one structure-set report.  Every check that reads one of them
reads that copy; the oracle side gets only integral homology, the
closed-form side only reports.  The checks compare routes, not linear
algebra: the elimination itself, its agreement with the dense Smith normal
form and its independence of the generator order are tier-1 tests, on
complexes with torsion as well as on orbit complexes, whose boundaries are
partial matchings with unit entries.

Oracle homology that a read_* function refuses (torsion where the
assembly needs none) fails its closed-vs-oracle check, with the reason as
detail, instead of ending the run; so does a summand label naming no layer,
in summand-layer-consistency.  Nothing is kept between calls, so a second
call recomputes all of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import comb

from .abelian import FGAbelianGroup
from .family import Family, UsageError
from .grassmannian import (
    count_A_B,
    count_A_B_oracle,
    count_a_b,
    count_a_b_oracle,
    enumerate_box_partitions,
    grassmannian_betti,
)
from .homology import integral_homology
from .l_homology import (
    basepoint_correction,
    one_residue_class,
    read_collapse,
    read_reduced_l_homology,
    read_relative_l_homology,
    reduced_l_homology,
    relative_l_homology,
)
from .orbit_cells import cells_by_degree, complex_from_cells, orbit_space_dimension
from .structure_set import (
    ActionSpec,
    DecompositionReport,
    compute_structure_set,
    suspension_embeds,
)

@dataclass(frozen=True)
class CheckResult:
    check: str
    params: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationSummary:
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def first_failure(self) -> CheckResult | None:
        for r in self.results:
            if not r.ok:
                return r
        return None

    def by_check(self) -> dict[str, tuple[int, int]]:
        """check name -> (passed, failed), in first-seen order."""
        table: dict[str, list[int]] = {}
        for r in self.results:
            entry = table.setdefault(r.check, [0, 0])
            entry[0 if r.ok else 1] += 1
        return {name: (p, f) for name, (p, f) in table.items()}


def _grid(max_n: int, max_k: int):
    for n in range(1, max_n + 1):
        for k in range(n, max_k + 1):
            yield n, k


def _closed_vs_oracle(
    check: str, params: str, closed: FGAbelianGroup, read, *args
) -> CheckResult:
    """Compare a closed form with the oracle's reading of chain-level
    homology; homology that the reading refuses fails the check."""
    try:
        oracle = read(*args)
    except ValueError as refusal:
        return CheckResult(check, params, False, str(refusal))
    return CheckResult(check, params, closed == oracle, f"{closed} vs {oracle}")


def _gaussian_binomials(max_n: int, max_k: int) -> dict[tuple[int, int], list]:
    """(k, n) -> coefficients of [k choose n]_q, constant term first, for
    every n <= max_n and k <= max_k, from one sweep of the q-Pascal rule
    [k, n] = [k-1, n-1] + q^n [k-1, n], so the Schubert cells of each
    weight are counted without listing them."""
    table = {}
    rows = [[1]] + [[] for _ in range(max_n)]  # [k, m] for m = 0..max_n
    for k in range(max_k + 1):
        for m, row in enumerate(rows):
            table[k, m] = row
        for m in range(max_n, 0, -1):  # rows[m - 1] still holds this k
            shifted = [0] * m + rows[m] if rows[m] else []
            rows[m] = [
                a + b for a, b in zip_longest(rows[m - 1], shifted, fillvalue=0)
            ]
    return table


def _expected_layer(
    family: Family, n: int, k: int, label: str
) -> FGAbelianGroup | None:
    """The closed-form group a structure-set summand should carry, or None."""
    if label == "top":
        return reduced_l_homology(family, n, k)
    if label == "basepoint":
        return basepoint_correction(family, n, k)
    if label == "free_stratum":
        line = relative_l_homology(family, 1, k)
        return FGAbelianGroup(line.free_rank - 1, line.torsion)
    depth = {f"stratum_pair({d})": d for d in range(n)}.get(label)
    return None if depth is None else relative_l_homology(family, n - depth, k)


def run_verification(
    max_n: int,
    max_k: int,
    max_j: int,
    families: tuple[Family, ...] = (Family.COMPLEX, Family.QUATERNIONIC),
) -> VerificationSummary:
    """Run every check over the grid; UsageError on a bad grid, TypeError
    on a bound that is not an int or a family that is not a Family.

    The grid is n <= max_n, n <= k <= max_k, 0 <= j <= max_j, for each of
    families, which must be nonempty and must not repeat.
    """
    for bound in (max_n, max_k, max_j):
        if type(bound) is not int:
            raise TypeError(f"max_n, max_k, max_j must be ints, got {bound!r}")
    if max_n < 1 or max_k < 1:
        raise UsageError(
            f"max_n and max_k must be at least 1, got max_n={max_n}, max_k={max_k}"
        )
    if max_j < 0:
        raise UsageError(f"max_j must be nonnegative, got max_j={max_j}")
    for family in families:
        Family.require(family)
    if not families:
        raise UsageError("families must name at least one family")
    if len(set(families)) != len(families):
        raise UsageError(
            f"families must not repeat, got {','.join(map(str, families))}"
        )
    results: list[CheckResult] = []
    add = results.append

    gaussian_binomials = _gaussian_binomials(max_n, max_k)
    for n, k in _grid(max_n, max_k):
        params = f"n={n} k={k}"
        partitions = enumerate_box_partitions(n, k - n)
        sorted_ok = partitions == sorted(set(partitions))
        add(
            CheckResult(
                "partition-enumeration",
                params,
                sorted_ok and len(partitions) == comb(k, n),
                f"{len(partitions)} partitions",
            )
        )
        a_count, b_count = count_A_B(n, k)
        add(
            CheckResult(
                "cell-count-identity",
                params,
                a_count + b_count == comb(k, n),
                f"{a_count}+{b_count} vs C({k},{n})",
            )
        )
        listed = count_A_B_oracle(partitions)
        add(
            CheckResult(
                "parity-count-formula-vs-enumeration",
                params,
                (a_count, b_count) == listed,
                f"A,B formula {(a_count, b_count)} vs listed {tuple(listed)}",
            )
        )
        if k > n:
            transpose = count_A_B(k - n, k)
            add(
                CheckResult(
                    "transpose-duality",
                    params,
                    (a_count, b_count) == tuple(transpose),
                    f"{(a_count, b_count)} vs {tuple(transpose)}",
                )
            )
        betti = grassmannian_betti(partitions)
        gaussian = {2 * i: c for i, c in enumerate(gaussian_binomials[k, n])}
        add(
            CheckResult(
                "betti-total",
                params,
                betti == gaussian,
                f"{betti} vs {gaussian}",
            )
        )
        for family in families:
            fparams = f"family={family} {params}"
            reduced_counts = count_a_b(n, k, family)
            add(
                CheckResult(
                    "reduced-count-identity",
                    fparams,
                    reduced_counts.total == comb(k - 1, n),
                    f"total {reduced_counts.total} vs C({k - 1},{n})",
                )
            )
            listed = count_a_b_oracle(n, k, family, partitions)
            add(
                CheckResult(
                    "parity-count-formula-vs-enumeration",
                    fparams,
                    reduced_counts == listed,
                    f"a,b formula {tuple(reduced_counts)} vs listed {tuple(listed)}",
                )
            )
            if (k - n) % 2 == 1 and family is Family.COMPLEX:
                shifted = count_A_B(n, k - 1)
                add(
                    CheckResult(
                        "reduced-equals-shifted",
                        fparams,
                        tuple(reduced_counts) == tuple(shifted),
                        f"{tuple(reduced_counts)} vs {tuple(shifted)}",
                    )
                )

    for family in families:
        for n, k in _grid(max_n, max_k):
            fparams = f"family={family} n={n} k={k}"
            # the one enumeration of the point: the full complex and the
            # rank-n complex are both built from it
            cells = cells_by_degree(family, n, k)
            full_rank = {}
            for p, cells_p in cells.items():
                slice_p = [pivots for pivots in cells_p if len(pivots) == n]
                if slice_p:
                    full_rank[p] = slice_p
            complex_ = complex_from_cells(cells)
            relative = complex_from_cells(full_rank)
            total_cells = complex_.total_cells()
            full_rank_interior = sum(
                pivots[-1] > 1
                for slice_p in full_rank.values()
                for pivots in slice_p
            )
            d = orbit_space_dimension(family, n, k)
            add(
                CheckResult(
                    "cell-census",
                    fparams,
                    total_cells == sum(comb(k, r) for r in range(1, n + 1))
                    and complex_.cell_count(0) == 1
                    and full_rank_interior == comb(k - 1, n)
                    and max(cells) == d,
                    f"{total_cells} cells, top degree {d}",
                )
            )
            # every check below that reads the full complex's homology
            # reads this one copy
            homology = integral_homology(complex_)
            euler_cells = complex_.euler_characteristic()
            euler_homology = sum(
                (-1) ** p * g.free_rank for p, g in homology.items()
            )
            add(
                CheckResult(
                    "euler-characteristic",
                    fparams,
                    euler_cells == euler_homology,
                    f"{euler_cells} vs {euler_homology}",
                )
            )
            parity_ok = one_residue_class(family, n, full_rank)
            add(CheckResult("full-rank-dimension-parity", fparams, parity_ok))

            add(
                CheckResult(
                    "relative-complex-zero-boundary",
                    fparams,
                    not relative.boundary_degrees(),
                )
            )
            add(
                _closed_vs_oracle(
                    "relative-closed-vs-oracle",
                    fparams,
                    relative_l_homology(family, n, k),
                    read_relative_l_homology,
                    family,
                    n,
                    k,
                    integral_homology(relative),
                )
            )
            add(
                _closed_vs_oracle(
                    "reduced-closed-vs-oracle",
                    fparams,
                    reduced_l_homology(family, n, k),
                    read_reduced_l_homology,
                    family,
                    n,
                    k,
                    homology,
                )
            )
            add(
                CheckResult(
                    "collapse-certificate",
                    fparams,
                    read_collapse(family, n, homology),
                )
            )

    reports: dict[ActionSpec, DecompositionReport] = {}

    def report_of(spec: ActionSpec) -> DecompositionReport:
        if spec not in reports:
            reports[spec] = compute_structure_set(spec)
        return reports[spec]

    for family in families:
        for n, k in _grid(max_n, max_k):
            for j in range(0, max_j + 1):
                spec = ActionSpec(family, n, k, j)
                sparams = f"family={family} n={n} k={k} j={j}"
                report = report_of(spec)
                wrong = [
                    summand.label
                    for summand in report.summands
                    if summand.group != _expected_layer(family, n, k, summand.label)
                ]
                detail = " ".join(wrong)
                add(CheckResult("summand-layer-consistency", sparams, not wrong, detail))
                expected_branch = "even-gap" if (k - n) % 2 == 0 else "odd-gap"
                add(
                    CheckResult(
                        "branch-dispatch",
                        sparams,
                        report.branch == expected_branch,
                        report.branch,
                    )
                )
                twice = report_of(ActionSpec(family, n, k + 2, j))
                embeds = suspension_embeds(report, twice)
                add(CheckResult("suspension-monotone", sparams, embeds))
    return VerificationSummary(tuple(results))
