"""Cross-checks wiring the whole package together over a parameter grid.

Every check compares two independent routes to the same number or group,
or asserts an identity that nothing else proves.  What the construction,
another check or tier-1 already proves is not checked again:
  - a report's total, the direct sum of its summands, which it builds;
  - the homology's Euler characteristic: integral_homology counts each
    boundary rank in two degrees that both hold cells, and tier-1 pins it;
  - the rank-n complex's empty boundary: full-rank-dimension-parity
    leaves no two of its cells in adjacent degrees;
  - the parity counts and their transpose symmetry: tier-1 compares
    count_A_B and each family's reduced group with a listing of the box,
    and the relative and reduced rows compare the groups built from them
    with the oracle's at every cell point of the grid.
The CLI verify subcommand and the acceptance tests both run through here.

Each scope is one generator: the (family, n, k) cell point and the
(family, n, k, j) spec.  It computes its shared data once, as plain
locals, and yields (name, (ok, detail)) in output order.  Cell points are
computed by (family, k) column from one cells_by_rank growth, and reported
in grid order: a point's full complex merges ranks 1..n, its rank-n
complex (faces outside the band dropped) is rank n's map, and each streams
through integral_homology once, two adjacent degrees at a time;
cell-census counts the full complex itself, so an empty one fails it and
every oracle read.  Its relative, reduced and absolute reads go into one
table keyed by (family, rank, k), and each structure-set summand is
compared with a read there, never with the closed forms that built it.  A
spec reads its report and the one at k + 2, each computed once per call.
The oracle's reads get only integral homology and the top cell's degree,
never the closed top-degree formula, which cell-census compares with that
degree.  The checks compare routes, not linear algebra: the elimination,
its agreement with the dense Smith normal form and its independence of
generator order are tier-1 tests.

run_verification is the one consumer: it walks the grid and is the only
place that makes a CheckResult.  Every detail names what its check saw,
pass or fail.  Oracle homology that a read_* function refuses (torsion
where the assembly needs none) fails each row reading it, with the reason
as detail, instead of ending the run; so does a summand label that no read
places, in summand-closed-vs-oracle.  A ValueError raised while a cell
point computes its closed or oracle groups or a spec its reports (a rank
gone negative, say) fails every row reading that value, with the message
as detail, and the rest of the grid still reports.  Nothing is kept
between calls, so a second call recomputes all of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from math import comb
from typing import NamedTuple

from .abelian import FGAbelianGroup
from .family import Family, UsageError
from .homology import integral_homology
from .l_homology import (
    one_residue_class,
    read_collapse,
    read_l_homology,
    read_reduced_l_homology,
)
from .orbit_cells import cell_slices, cells_by_rank, merge_rank
from .structure_set import (
    ActionSpec,
    compute_structure_set,
    orbit_space_dimension,
    reduced_l_homology,
    relative_l_homology,
    suspension_embeds,
)

@dataclass(frozen=True, slots=True)
class CheckResult:
    check: str
    params: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True, slots=True)
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


def _degrees(degrees) -> str:
    return " ".join(map(str, sorted(degrees))) or "none"


def _or_error(compute, *args):
    """compute(*args), or the ValueError it raised or an argument already
    is, which _failed makes the failure of each row reading the value."""
    for arg in args:
        if isinstance(arg, ValueError):
            return arg
    try:
        return compute(*args)
    except ValueError as error:
        return error


def _failed(value) -> tuple[bool, str] | None:
    """The failed row of a check reading value, if value is a ValueError
    that _or_error kept, with its message as detail; else None."""
    return (False, str(value)) if isinstance(value, ValueError) else None


class _Reads(NamedTuple):
    """The oracle's groups at one (family, rank, k), of the rank-n complex and
    the full one without and with the basepoint, or the ValueError of each."""

    relative: FGAbelianGroup | ValueError
    reduced: FGAbelianGroup | ValueError
    absolute: FGAbelianGroup | ValueError


def _cell_checks(family: Family, n: int, k: int, cells, full_rank, reads: dict):
    total_cells = sum(map(len, cells.values()))
    counted = f"{total_cells} cells" if cells else "empty enumeration"
    # an interior cell's last pivot is not 1: its mask is even
    full_rank_interior = sum(
        not cell & 1 for slice_p in full_rank.values() for cell in slice_p
    )
    top = max(cells, default=-1)  # the oracle's top degree; d is the closed route's
    d = orbit_space_dimension(family, n, k)
    yield "cell-census", (
        total_cells == sum(comb(k, r) for r in range(1, n + 1))
        and len(cells.get(0, ())) == 1
        and full_rank_interior == comb(k - 1, n)
        and top == d,
        f"{counted}, top degree {top} vs {d}",
    )
    yield "full-rank-dimension-parity", (
        one_residue_class(family, n, full_rank),
        f"full-rank cells in degrees {_degrees(full_rank)}",
    )
    homology = _or_error(integral_homology, cell_slices(cells))
    relative = _or_error(integral_homology, cell_slices(full_rank))
    read = reads[family, n, k] = _Reads(
        _or_error(read_l_homology, relative, top),
        _or_error(read_reduced_l_homology, homology, top),
        _or_error(read_l_homology, homology, top),
    )
    for name, route, oracle in (
        ("relative-closed-vs-oracle", relative_l_homology, read.relative),
        ("reduced-closed-vs-oracle", reduced_l_homology, read.reduced),
    ):
        closed = _or_error(route, family, n, k)
        yield name, _failed(closed) or _failed(oracle) or (
            closed == oracle, f"{closed} vs {oracle}"
        )
    yield "collapse-certificate", _failed(homology) or (
        read_collapse(family, n, homology), f"homology in degrees {_degrees(homology)}"
    )


def _cell_columns(families, max_n: int, max_k: int, reads: dict):
    """((family, n, k), rows) of each cell point, from one growth to rank
    min(max_n, k) per (family, k) column."""
    for family in families:
        for k in range(1, max_k + 1):
            cells: dict[int, list[int]] = {}
            for n, full_rank in cells_by_rank(family, min(max_n, k), k).items():
                merge_rank(cells, full_rank)
                checks = _cell_checks(family, n, k, cells, full_rank, reads)
                yield (family, n, k), list(checks)


def _spec_checks(family: Family, n: int, k: int, j: int, report_of, reads: dict):
    report = _or_error(report_of, ActionSpec(family, n, k, j))
    twice = _or_error(report_of, ActionSpec(family, n, k + 2, j))
    rank_of = {f"stratum_pair({d})": n - d for d in range(n)} | {"free_stratum": 1}
    # the read that places each label; top ⊕ basepoint's is the absolute one,
    # as H_d(X; L) is the reduced group ⊕ L_d(point)
    here = reads[family, n, k]
    oracle = {label: reads[family, m, k].relative for label, m in rank_of.items()}
    oracle["free_stratum"] = reads[family, 1, k].reduced
    oracle["top"], oracle["top+basepoint"] = here.reduced, here.absolute
    fail = _failed(report)  # every row reads the report
    yield "summand-closed-vs-oracle", fail or _summand_row(j, report, oracle)
    yield "branch-dispatch", fail or _branch_row(n, k, j, report, rank_of, here)
    fail = fail or _failed(twice)
    yield "suspension-monotone", fail or _suspension_row(k, report, twice)


def _summand_row(j, report, oracle) -> tuple[bool, str]:
    labels = report.labels()
    summands = [(s.label, s.group) for s in report.summands]
    if j > 0 and "top" in labels and "basepoint" in labels:
        extra = [group for label, group in summands if label == "basepoint"]
        summands = [
            ("top+basepoint", group.direct_sum(*extra)) if label == "top"
            else (label, group)
            for label, group in summands
            if label != "basepoint"
        ]
    reads = [oracle.get(label) for label, _ in summands]  # None: no read places it
    if fail := next(filter(None, map(_failed, reads)), None):
        return fail
    wrong = [label for (label, group), read in zip(summands, reads) if group != read]
    return not wrong, " ".join(wrong) or f"as read: {' '.join(labels)}"


def _branch_row(n, k, j, report, rank_of, here) -> tuple[bool, str]:
    # the branch fixes the strata: ranks m <= n with m = k mod 2, top if
    # odd, and a basepoint if odd with j > 0 and the absolute read there
    # differing from the reduced one
    labels = report.labels()
    odd_gap = (k - n) % 2 == 1
    ranks = sorted(rank_of[label] for label in labels if label in rank_of)
    basepoint = odd_gap and j > 0
    if basepoint and (fail := _failed(here.absolute) or _failed(here.reduced)):
        return fail
    basepoint = basepoint and here.absolute != here.reduced
    return (
        report.branch == ("odd-gap" if odd_gap else "even-gap")
        and ("top" in labels) == odd_gap
        and ("basepoint" in labels) == basepoint
        and ranks == list(range(2 - k % 2, n + 1, 2)),
        f"{report.branch}, strata at ranks {_degrees(ranks)}"
        + (", basepoint" if "basepoint" in labels else ""),
    )


def _suspension_row(k, report, twice) -> tuple[bool, str]:
    if suspension_embeds(report, twice):
        return True, f"{report.total} embeds in {twice.total}"
    # the rule goes summand by summand, so a summand alone fails it exactly
    # when it is one that does not embed
    missed = ", ".join(
        f"{s.label} {s.group}"
        for s in report.summands
        if not suspension_embeds(replace(report, summands=(s,)), twice)
    )
    there = ", ".join(f"{s.label} {s.group}" for s in twice.summands)
    return False, f"{missed} not embedded at k={k + 2}: {there}"


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

    def run(params: str, checks) -> None:
        for name, (ok, detail) in checks:
            results.append(CheckResult(name, params, ok, detail))

    reads: dict[tuple[Family, int, int], _Reads] = {}
    cell_rows = dict(_cell_columns(families, max_n, max_k, reads))
    for family in families:
        for n, k in _grid(max_n, max_k):
            run(f"family={family} n={n} k={k}", cell_rows.pop((family, n, k)))
    # each report is computed once: the one at k + 2 is also a base later
    report_of = cache(compute_structure_set)
    for family in families:
        for n, k in _grid(max_n, max_k):
            for j in range(0, max_j + 1):
                run(
                    f"family={family} n={n} k={k} j={j}",
                    _spec_checks(family, n, k, j, report_of, reads),
                )
    return VerificationSummary(tuple(results))
