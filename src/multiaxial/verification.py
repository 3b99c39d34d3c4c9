"""Cross-checks wiring the whole package together over a parameter grid.

Every check compares two independent routes to the same number or group,
or asserts an identity that nothing else proves.  What the construction,
another check or tier-1 already proves is not checked again: a report's
total, the sum of its summands; the Euler characteristic; the rank-n
complex's empty boundary, as full-rank-dimension-parity leaves no two of
its cells in adjacent degrees; and the parity counts, which tier-1 compares
with a listing of the box.  The CLI verify subcommand and the acceptance
tests both run through here.

The cell rows of each point read l_homology.family_points, one pass a
family.  cell-census counts the full complex, so an empty one fails it and
every oracle read.  The oracle's reads get only integral homology and the
top cell's degree, into one table a family keyed by (rank, k); each
structure-set summand is compared with a read there, never with the closed
forms that built it.  A spec reads its report and the one at k + 2, each
computed once per call into one table a (family, rank) keyed by (k, j).

run_verification walks the grid and is the only place that makes a
CheckResult.  Every detail names what its check saw, and a row keeps the
values it prints until its detail is read.  A ValueError while a value is
computed (torsion a read_* function refuses, a rank gone negative, a face
after its coface) fails each row reading it, with the message as detail,
and the rest of the grid still reports; so does a summand label that no
read places.  Nothing is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb
from typing import NamedTuple

from .abelian import FGAbelianGroup
from .family import Family, UsageError
from .l_homology import (
    family_points,
    one_residue_class,
    read_collapse,
    read_l_homology,
    read_reduced_l_homology,
)
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
    """One row; seen is its detail, or a format string and the values it
    prints, formatted when detail is read: a row nobody reads formats none."""

    check: str
    params: str
    ok: bool
    seen: str | tuple = ""

    @property
    def detail(self) -> str:
        seen = self.seen
        return seen if type(seen) is str else seen[0].format(*seen[1:])


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
        return next((r for r in self.results if not r.ok), None)

    def by_check(self) -> dict[str, tuple[int, int]]:
        """check name -> (passed, failed), in first-seen order."""
        table: dict[str, list[int]] = {}
        for r in self.results:
            table.setdefault(r.check, [0, 0])[not r.ok] += 1
        return {name: (p, f) for name, (p, f) in table.items()}


class _Words(tuple):  # values a detail prints space separated
    def __str__(self) -> str:
        return " ".join(map(str, self))


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
    """The oracle's groups at one (rank, k), of the rank-n complex and the
    full one without and with the basepoint, or the ValueError of each."""

    relative: FGAbelianGroup | ValueError
    reduced: FGAbelianGroup | ValueError
    absolute: FGAbelianGroup | ValueError


def _cell_checks(family, n, k, counts, full_rank, homology, relative, reads):
    total_cells = sum(counts.values())
    # an interior cell's last pivot is not 1: its mask is even
    full_rank_interior = sum(
        not cell & 1 for slice_p in full_rank.values() for cell in slice_p
    )
    top = max(counts, default=-1)  # the oracle's top degree; d is the closed route's
    d = orbit_space_dimension(family, n, k)
    yield "cell-census", (
        total_cells == sum(comb(k, r) for r in range(1, n + 1))
        and counts.get(0) == 1
        and full_rank_interior == comb(k - 1, n)
        and top == d,
        ("{} cells, top degree {} vs {}", total_cells, top, d)
        if counts else ("empty enumeration, top degree {} vs {}", top, d),
    )
    yield "full-rank-dimension-parity", (
        one_residue_class(family, n, full_rank),
        ("full-rank cells in degrees {}", _Words(sorted(full_rank)) or "none"),
    )
    read = reads[n, k] = _Reads(
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
            closed == oracle, ("{} vs {}", closed, oracle)
        )
    yield "collapse-certificate", _failed(homology) or (
        read_collapse(family, n, homology),
        ("homology in degrees {}", _Words(sorted(homology)) or "none"),
    )


def _spec_checks(family: Family, n: int, max_k: int, max_j: int, reads):
    """(k, j, rows) of each spec (family, n, k <= max_k, j <= max_j).  The
    specs at one k share the reads that place their labels, and each report
    is computed once: the one at k + 2 is a base two steps on."""
    rank_of = {f"stratum_pair({d})": n - d for d in range(n)} | {"free_stratum": 1}
    reports = {}  # (k + 2, j) -> that report or its ValueError, until a base

    def report(k, j):
        return _or_error(compute_structure_set, ActionSpec(family, n, k, j))

    for k in range(n, max_k + 1):
        # the read that places each label; top ⊕ basepoint's is the absolute
        # one, as H_d(X; L) is the reduced group ⊕ L_d(point)
        here = reads[n, k]
        oracle = {label: reads[m, k].relative for label, m in rank_of.items()}
        oracle["free_stratum"] = reads[1, k].reduced
        oracle["top"], oracle["top+basepoint"] = here.reduced, here.absolute
        odd_gap = (k - n) % 2 == 1
        strata = list(range(2 - k % 2, n + 1, 2))  # the ranks the branch fixes
        for j in range(max_j + 1):
            base = reports.pop((k, j)) if k >= n + 2 else report(k, j)
            twice = reports[k + 2, j] = report(k + 2, j)
            if fail := _failed(base):  # every row reads the report
                rows = fail, fail, fail
            else:
                labels = base.labels()
                rows = (
                    _summand_row(j, base, labels, oracle),
                    _branch_row(j, odd_gap, strata, base, labels, rank_of, here),
                    _suspension_row(k, base, twice),
                )
            yield k, j, zip(_SPEC_CHECKS, rows)


_SPEC_CHECKS = ("summand-closed-vs-oracle", "branch-dispatch", "suspension-monotone")


def _summand_row(j, report, labels, oracle) -> tuple[bool, str]:
    summands = [(s.label, s.group) for s in report.summands]
    if j > 0 and "top" in labels and "basepoint" in labels:
        extra = [group for label, group in summands if label == "basepoint"]
        summands = [
            ("top+basepoint", group.direct_sum(*extra)) if label == "top"
            else (label, group)
            for label, group in summands
            if label != "basepoint"
        ]
    wrong = []
    for label, group in summands:
        read = oracle.get(label)  # None: no read places it
        if isinstance(read, ValueError):
            return False, str(read)
        if group != read:
            wrong.append(label)
    return not wrong, " ".join(wrong) if wrong else ("as read: {}", _Words(labels))


def _branch_row(j, odd_gap, strata, report, labels, rank_of, here) -> tuple[bool, str]:
    # the branch fixes the strata: ranks m <= n with m = k mod 2, top if
    # odd, and a basepoint if odd with j > 0 and the absolute read there
    # differing from the reduced one
    ranks = sorted([rank_of[label] for label in labels if label in rank_of])
    basepoint = odd_gap and j > 0
    if basepoint and (fail := _failed(here.absolute) or _failed(here.reduced)):
        return fail
    basepoint = basepoint and here.absolute != here.reduced
    shown = ", basepoint" if "basepoint" in labels else ""
    return (
        report.branch == ("odd-gap" if odd_gap else "even-gap")
        and ("top" in labels) == odd_gap
        and ("basepoint" in labels) == basepoint
        and ranks == strata,
        ("{}, strata at ranks {}{}", report.branch, _Words(ranks) or "none", shown),
    )


def _suspension_row(k, report, twice) -> tuple[bool, str]:
    if fail := _failed(twice):
        return fail
    if suspension_embeds(report, twice):
        return True, ("{0.total} embeds in {1.total}", report, twice)
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
        for name, (ok, seen) in checks:
            results.append(CheckResult(name, params, ok, seen))

    reads_of = {}  # family -> its reads, keyed by (n, k)
    for family in families:
        reads = reads_of[family] = {}
        for n, k, *point in family_points(family, max_n, max_k):
            checks = _cell_checks(family, n, k, *point, reads)
            run(f"family={family} n={n} k={k}", checks)
    for family in families:
        for n in range(1, max_n + 1):
            at = f"family={family} n={n}"
            for k, j, checks in _spec_checks(family, n, max_k, max_j, reads_of[family]):
                run(f"{at} k={k} j={j}", checks)
    return VerificationSummary(tuple(results))
