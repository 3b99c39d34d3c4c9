"""run_verification computes each object once per grid point, and its
cross-checks still catch a wrong answer on either side."""

import sys
from collections import Counter
from dataclasses import replace

import pytest

from multiaxial import (
    cli, grassmannian, homology, l_homology, orbit_cells, structure_set, verification
)
from multiaxial.abelian import FGAbelianGroup
from multiaxial.family import Family
from multiaxial.orbit_cells import cell_slices, cells_by_rank
from test_orbit_cells import by_degree
from multiaxial.structure_set import ActionSpec

FAMILIES = (Family.COMPLEX, Family.QUATERNIONIC)
MAX_N, MAX_K, MAX_J = 3, 6, 1
GRID = [(n, k) for n in range(1, MAX_N + 1) for k in range(n, MAX_K + 1)]


def _everywhere(monkeypatch, module, name, make):
    """Patch make(module.name) over module.name, and wherever the package
    binds it, so a call reached through any other module sees it too.
    module may be a class, whose attribute every caller reads there."""
    original = getattr(module, name)
    replacement = make(original)
    bindings = {(module, name)} | {
        (other, attr)
        for other_name, other in list(sys.modules.items())
        if other_name.startswith("multiaxial")
        for attr, value in vars(other).items()
        if value is original
    }
    for other, attr in bindings:
        monkeypatch.setattr(other, attr, replacement)


def _counting(monkeypatch, calls, module, name, key):
    """Patch one counting wrapper over module.name wherever the package
    binds it, so a call reached through any other module is counted too."""

    def make(original):
        def wrapper(*args):
            calls[key(*args)] += 1
            return original(*args)

        return wrapper

    _everywhere(monkeypatch, module, name, make)


def _content(columns):
    return tuple(tuple(sorted(column.items())) for column in columns)


@pytest.fixture
def counted(monkeypatch):
    enumerations, split, reports = Counter(), Counter(), Counter()
    _counting(
        monkeypatch, enumerations, orbit_cells, "cells_by_rank",
        lambda family, n, k, ranks=None: (family, n, k, ranks),
    )

    def splitting(original):
        def wrapper(columns):
            split.update(_content(filter(None, columns)))
            return original(columns)

        return wrapper

    _everywhere(monkeypatch, homology, "split_units", splitting)
    _counting(
        monkeypatch, reports, structure_set, "compute_structure_set",
        lambda spec: spec,
    )
    return enumerations, split, reports


def _recording(monkeypatch, streams):
    """Wrap the family pass's cell_slices so that every stream it makes
    lands in streams, slice by slice as it is read."""
    original = l_homology.cell_slices

    def wrapper(by_rank):
        stream = []
        streams.append(stream)
        for piece in original(by_rank):
            stream.append(piece)
            yield piece

    monkeypatch.setattr(l_homology, "cell_slices", wrapper)


def _nonzero(columns):
    return columns is not None and any(columns)


def test_each_complex_and_report_is_computed_once(counted, monkeypatch):
    enumerations, split, reports = counted
    streams = []
    _recording(monkeypatch, streams)
    summary = verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    assert summary.ok

    # one growth per family, of every rank and pivot its points reach,
    # streamed once as one complex filtered by top pivot and rank
    top = min(MAX_N, MAX_K)
    assert enumerations == Counter((family, top, MAX_K, None) for family in FAMILIES)
    assert len(streams) == len(FAMILIES)
    # every nonzero boundary column of each stream goes through the unit
    # split once, over Z, and nothing else does
    assert split == Counter(
        column
        for stream in streams
        for _, _, columns in stream
        for column in _content(filter(None, columns or ()))
    )
    # each grown cell is in exactly one stream, its family's
    for family, stream in zip(FAMILIES, streams):
        grown = [
            cell
            for cells in cells_by_rank(family, top, MAX_K).values()
            for masks in cells.values()
            for cell in masks
        ]
        assert Counter(cell for _, cells, _ in stream for cell in cells) == Counter(grown)

    expected_specs = {
        ActionSpec(family, n, k + step, j)
        for family in FAMILIES
        for n, k in GRID
        for j in range(MAX_J + 1)
        for step in range(3)
    }
    assert set(reports) == expected_specs
    assert set(reports.values()) == {1}


def test_the_family_pass_splits_each_slice_once_over_its_whole_boundary(
    monkeypatch,
):
    # the unit split counts a slice's rows once, however many steps its
    # columns have, and sees every column of the slice's boundary
    streams, splits = [], []
    _recording(monkeypatch, streams)
    original = homology.split_units

    def recorded(*args):
        splits.append(tuple(map(_content, args)))
        return original(*args)

    monkeypatch.setattr(homology, "split_units", recorded)
    verification.run_verification(MAX_N, MAX_K, 0, FAMILIES)
    boundaries = [
        (_content(columns),)
        for stream in streams
        for _, _, columns in stream
        if _nonzero(columns)
    ]
    assert boundaries and splits == boundaries


def test_nothing_is_kept_between_calls(counted):
    enumerations, split, reports = counted
    verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    first = (Counter(enumerations), sum(split.values()), Counter(reports))
    verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    assert enumerations == first[0] + first[0]
    assert sum(split.values()) == 2 * first[1]
    assert reports == first[2] + first[2]


def test_both_complexes_equal_the_filtered_builds(monkeypatch):
    # each family streams its largest complex once, and a cell's step is its
    # top pivot and its rank, so a point's full complex is the cells at
    # steps <= (k, n) and its rank-n complex those of them at rank n
    streams, steps = [], []
    _recording(monkeypatch, streams)

    original = l_homology.filtered_homology

    def recorded(slices, step):
        steps.append(step)
        return original(slices, step)

    monkeypatch.setattr(l_homology, "filtered_homology", recorded)
    verification.run_verification(MAX_N, MAX_K, 0, FAMILIES)
    assert len(streams) == len(steps) == len(FAMILIES)
    top = min(MAX_N, MAX_K)
    for family, stream, step in zip(FAMILIES, streams, steps):
        reference = list(cell_slices(cells_by_rank(family, top, MAX_K)))
        assert [p for p, _, _ in stream] == [p for p, _, _ in reference]
        for (_, cells, columns), (_, cells_r, columns_r) in zip(stream, reference):
            assert tuple(cells) == tuple(cells_r)
            assert _content(columns or [{}] * len(cells)) == _content(
                columns_r or [{}] * len(cells_r)
            )
        for n, k in GRID:
            for ranks, level in ((None, n.__ge__), (range(n, n + 1), n.__eq__)):

                def kept(cell):
                    t, r = step(cell)
                    return t <= k and level(r)

                assert {
                    p: [cell for cell in cells if kept(cell)]
                    for p, cells, _ in stream
                    if any(map(kept, cells))
                } == by_degree(cells_by_rank(family, n, k, ranks))


def _plant(monkeypatch, name, family, n, k, module=verification):
    """Make module's binding of name answer one more Z_2 at one
    (family, n, k) and the right answer everywhere else.  A read_* function
    sees the point only as the homology and top degree of its complex:
    read_l_homology is planted at the rank-n complex, the others at the
    full one."""
    original = getattr(module, name)
    point = (family, n, k)
    if name.startswith("read_"):
        ranks = range(n, n + 1) if name == "read_l_homology" else None
        cells = cells_by_rank(family, n, k, ranks)
        point = (homology.integral_homology(cell_slices(cells)), max(cells[n]))

    def wrong(*args):
        group = original(*args)
        if args[: len(point)] == point:
            return group.direct_sum(FGAbelianGroup.with_two_torsion(0, 1))
        return group

    monkeypatch.setattr(module, name, wrong)


# At n = MAX_N no structure-set summand reads the relative group of
# (n, k) with k - n odd, and none reads the reduced group of an even-gap
# (n, k), so only the closed-vs-oracle check sees the planted group.
@pytest.mark.parametrize(
    "name, check, n, k",
    [
        ("reduced_l_homology", "reduced-closed-vs-oracle", 2, 4),
        ("read_reduced_l_homology", "reduced-closed-vs-oracle", 2, 4),
        ("relative_l_homology", "relative-closed-vs-oracle", 3, 4),
        ("read_l_homology", "relative-closed-vs-oracle", 3, 4),
    ],
)
@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_a_wrong_group_on_either_side_fails_exactly_its_check(
    monkeypatch, name, check, n, k, family
):
    _plant(monkeypatch, name, family, n, k)
    summary = verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    failures = [(r.check, r.params) for r in summary.results if not r.ok]
    assert failures == [(check, f"family={family} n={n} k={k}")]


def test_rows_keep_grid_order_though_columns_compute_them(monkeypatch, capsys):
    # the k = 3 column computes U(2,3) before the k = 5 column reaches
    # U(1,5), but the grid, n before k, reports U(1,5) first
    _plant(monkeypatch, "reduced_l_homology", Family.COMPLEX, 2, 3)
    _plant(monkeypatch, "reduced_l_homology", Family.COMPLEX, 1, 5)
    summary = verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    failures = [(r.check, r.params) for r in summary.results if not r.ok]
    assert failures == [
        ("reduced-closed-vs-oracle", "family=U n=1 k=5"),
        ("reduced-closed-vs-oracle", "family=U n=2 k=3"),
    ]
    assert summary.first_failure().params == "family=U n=1 k=5"
    argv = ["verify", "--max-n", str(MAX_N), "--max-k", str(MAX_K)]
    assert cli.main(argv + ["--max-j", str(MAX_J)]) == 4
    out = capsys.readouterr().out
    assert "first failure: reduced-closed-vs-oracle at family=U n=1 k=5\n" in out


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_a_wrong_summand_group_fails_the_layer_check_at_its_point(
    monkeypatch, family
):
    # the report's total is still the sum of its summands, so the summand
    # check sees the planted group only by comparing it with the oracle
    n, k = 2, 5
    _plant(monkeypatch, "reduced_l_homology", family, n, k, structure_set)
    summary = verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    failures = [
        r.params
        for r in summary.results
        if r.check == "summand-closed-vs-oracle" and not r.ok
    ]
    assert failures == [
        f"family={family} n={n} k={k} j={j}" for j in range(MAX_J + 1)
    ]


# stratum_pair(x) names no depth, and stratum_pair(5) a depth below rank 2
@pytest.mark.parametrize("label", ["stratum_pair(x)", "stratum_pair(5)"])
def test_a_label_naming_no_layer_fails_the_layer_check_at_its_spec(
    monkeypatch, capsys, label
):
    planted = ActionSpec(Family.COMPLEX, 2, 2)
    original = verification.compute_structure_set

    def relabeled(spec):
        report = original(spec)
        if spec != planted:
            return report
        first = replace(report.summands[0], label=label)
        return replace(report, summands=(first, *report.summands[1:]))

    monkeypatch.setattr(verification, "compute_structure_set", relabeled)
    summary = verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    failures = {
        r.params: r.detail
        for r in summary.results
        if r.check == "summand-closed-vs-oracle" and not r.ok
    }
    assert failures == {"family=U n=2 k=2 j=0": label}
    code = cli.main(["verify", "--max-n", "2", "--max-k", "4", "--max-j", "0"])
    assert code == 4
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "first failure: summand-closed-vs-oracle at family=U n=2 k=2 j=0",
        f"  detail: {label}",
    ]


# U(2,3) is on the odd gap: the reduced top group and the free stratum
# (rank 1); so is U(1,2) with j = 1, whose top degree 2 puts a Z_2 at the
# basepoint; each summand left alone is still on its layer
@pytest.mark.parametrize(
    "dropped, detail",
    [
        ("top", "odd-gap, strata at ranks 1"),
        ("free_stratum", "odd-gap, strata at ranks none"),
        ("basepoint", "odd-gap, strata at ranks none"),
    ],
)
def test_a_report_missing_a_summand_fails_branch_dispatch_at_its_spec(
    monkeypatch, dropped, detail
):
    if dropped == "basepoint":
        planted = ActionSpec(Family.COMPLEX, 1, 2, 1)
    else:
        planted = ActionSpec(Family.COMPLEX, 2, 3)
    original = verification.compute_structure_set

    def dropping(spec):
        report = original(spec)
        if spec != planted:
            return report
        kept = tuple(s for s in report.summands if s.label != dropped)
        return replace(report, summands=kept)

    monkeypatch.setattr(verification, "compute_structure_set", dropping)
    summary = verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    failures = [(r.check, r.params, r.detail) for r in summary.results if not r.ok]
    params = f"family=U n={planted.n} k={planted.k} j={planted.j}"
    assert failures == [("branch-dispatch", params, detail)]


def test_a_report_that_fails_at_k_plus_2_fails_only_its_suspension_row(monkeypatch):
    # past the grid's last k only the suspension rows read a report, so a
    # report refused there fails each of them with its message, and no other
    original = verification.compute_structure_set

    def refused(spec):
        if spec.k == MAX_K + 2:
            raise ValueError("planted refusal at k + 2")
        return original(spec)

    monkeypatch.setattr(verification, "compute_structure_set", refused)
    summary = verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    failures = [(r.check, r.params, r.detail) for r in summary.results if not r.ok]
    assert failures == [
        ("suspension-monotone", f"family={family} n={n} k={MAX_K} j={j}",
         "planted refusal at k + 2")
        for family in FAMILIES
        for n in range(1, MAX_N + 1)
        for j in range(MAX_J + 1)
    ]
    assert len(failures) == 12


def _basepoint_two_degrees_up(original):
    def mutant(family, n, k):
        original(family, n, k)  # still refuses the even gap
        top = structure_set.orbit_space_dimension(family, n, k)
        return structure_set.l_coefficient(top + 2)

    return mutant


def _z2_in_degrees_0_mod_4(original):
    def mutant(q):
        if q >= 0 and q % 4 == 0:
            return FGAbelianGroup.with_two_torsion(0, 1)
        return original(q)

    return mutant


def _basepoint_on_the_even_gap(original):
    def mutant(spec):
        report = original(spec)
        if report.branch != "even-gap" or report.spec.j == 0:
            return report
        family, n, k = report.spec.family, report.spec.n, report.spec.k
        group = structure_set.l_coefficient(
            structure_set.orbit_space_dimension(family, n, k)
        )
        basepoint = structure_set.Summand("basepoint", group, "the basepoint")
        return replace(report, summands=(*report.summands, basepoint))

    return mutant


# The closed form's two corrections and its coefficient table each have a
# second route only through the oracle's reads of the summands; each mutant
# is seen by the closed route and the report alike.
@pytest.mark.parametrize(
    "name, make",
    [
        ("basepoint_correction", _basepoint_two_degrees_up),
        ("l_coefficient", _z2_in_degrees_0_mod_4),
        ("compute_structure_set", _basepoint_on_the_even_gap),
    ],
    ids=["basepoint-two-degrees-up", "z2-in-degrees-0-mod-4", "even-gap-basepoint"],
)
def test_a_wrong_correction_fails_the_summand_row_without_a_traceback(
    monkeypatch, capsys, name, make
):
    _everywhere(monkeypatch, structure_set, name, make)
    summary = verification.run_verification(6, 12, 2, FAMILIES)
    passed, failed = summary.by_check()["summand-closed-vs-oracle"]
    assert failed > 0
    assert cli.main(["verify", "--max-n", "6", "--max-k", "12", "--max-j", "2"]) == 4
    out, err = capsys.readouterr()
    assert f"summand-closed-vs-oracle: {passed} passed, {failed} failed  [FAIL]" in out
    assert err == ""


def _single_z2_dropped(original):
    def mutant(free_rank, two_rank):
        return original(free_rank, two_rank if two_rank > 1 else 0)

    return mutant


# with_two_torsion builds the closed route's groups only: the oracle's
# assembly builds its own, so a fault in it is a disagreement of routes
def test_a_fault_in_the_closed_constructor_fails_the_closed_vs_oracle_rows(
    monkeypatch, capsys
):
    _everywhere(monkeypatch, FGAbelianGroup, "with_two_torsion", _single_z2_dropped)
    summary = verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    rows = summary.by_check()
    for check in (
        "relative-closed-vs-oracle",
        "reduced-closed-vs-oracle",
        "summand-closed-vs-oracle",
    ):
        assert rows[check][1] > 0, check
    argv = ["verify", "--max-n", str(MAX_N), "--max-k", str(MAX_K)]
    assert cli.main(argv + ["--max-j", str(MAX_J)]) == 4
    assert capsys.readouterr().err == ""


def _odd_gap_odd_count_negated(original):
    def mutant(n, k):
        count = original(n, k)
        if (k - n) % 2 == 0:
            return count
        return count._replace(odd_count=-count.odd_count)

    return mutant


# the complex counts then ask for Z_2^-1 at every odd gap k - n, which no
# report reads: a summand reads the relative group at even gaps only, and
# the reduced group at odd gaps, where its box one column smaller has an
# even gap; so only the relative and reduced rows fail, each with the
# message, while the rest of the grid reports
def test_a_fault_that_stops_a_closed_group_fails_its_rows_without_a_traceback(
    monkeypatch, capsys
):
    _everywhere(monkeypatch, grassmannian, "count_A_B", _odd_gap_odd_count_negated)
    summary = verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    failures = {(r.check, r.params): r.detail for r in summary.results if not r.ok}
    for check, k in (
        ("relative-closed-vs-oracle", 2), ("reduced-closed-vs-oracle", 3)
    ):
        assert failures[(check, f"family=U n=1 k={k}")] == (
            "multiplicity -1 of Z_2 is not >= 1"
        )
    assert {check for check, _ in failures} == {
        "relative-closed-vs-oracle", "reduced-closed-vs-oracle"
    }
    argv = ["verify", "--max-n", str(MAX_N), "--max-k", str(MAX_K)]
    assert cli.main(argv + ["--max-j", str(MAX_J)]) == 4
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_torsion_the_oracle_refuses_fails_its_check_at_its_point(
    monkeypatch, family
):
    # a Z_2 in the full complex's homology, as a factor 2 where a unit was
    # would leave, is refused by read_reduced_l_homology
    n, k = 2, 4
    target = list(orbit_cells.cell_slices(orbit_cells.cells_by_rank(family, n, k)))
    degree = min(p for p, _, columns in target if _nonzero(columns)) - 1
    original = verification._cell_checks

    def wrong(at, at_n, at_k, counts, full_rank, homology, *rest):
        # the full complex's homology as the point's checks read it
        if (at, at_n, at_k) == (family, n, k):
            kept = homology.get(degree, FGAbelianGroup.trivial())
            z2 = FGAbelianGroup.with_two_torsion(0, 1)
            homology = {**homology, degree: kept.direct_sum(z2)}
        return original(at, at_n, at_k, counts, full_rank, homology, *rest)

    monkeypatch.setattr(verification, "_cell_checks", wrong)
    summary = verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    point = f"family={family} n={n} k={k}"
    failures = {(r.check, r.params): r.detail for r in summary.results if not r.ok}
    assert failures[("reduced-closed-vs-oracle", point)] == (
        f"unexpected torsion ((2, 1),) in degree {degree}, "
        "the degreewise assembly needs torsion free input"
    )
    assert {params for _, params in failures} == {point}


def test_an_empty_enumeration_fails_its_rows_and_the_grid_reports(
    monkeypatch, capsys
):
    rows = len(verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES).results)
    original = verification._cell_checks

    def emptied(family, n, k, counts, full_rank, homology, *rest):
        # the full complex alone: its rank-n band is still there
        if (family, n, k) == (Family.COMPLEX, 2, 4):
            counts, homology = {}, {}
        return original(family, n, k, counts, full_rank, homology, *rest)

    monkeypatch.setattr(verification, "_cell_checks", emptied)
    summary = verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    assert len(summary.results) == rows
    point = "family=U n=2 k=4"
    failures = {(r.check, r.params): r.detail for r in summary.results if not r.ok}
    assert failures == {
        ("cell-census", point): "empty enumeration, top degree -1 vs 11",
        ("relative-closed-vs-oracle", point): "top degree must be nonnegative",
        ("reduced-closed-vs-oracle", point): (
            "orbit space should be connected with one basepoint class, "
            "got rank None in degree 0"
        ),
        # the specs whose stratum pair reads the relative group of U(2,4)
        ("summand-closed-vs-oracle", "family=U n=2 k=4 j=0"): (
            "top degree must be nonnegative"
        ),
        ("summand-closed-vs-oracle", "family=U n=2 k=4 j=1"): (
            "top degree must be nonnegative"
        ),
        ("summand-closed-vs-oracle", "family=U n=3 k=4 j=0"): (
            "top degree must be nonnegative"
        ),
        ("summand-closed-vs-oracle", "family=U n=3 k=4 j=1"): (
            "top degree must be nonnegative"
        ),
    }
    argv = ["verify", "--max-n", str(MAX_N), "--max-k", str(MAX_K)]
    assert cli.main(argv + ["--max-j", str(MAX_J)]) == 4
    out = capsys.readouterr().out
    assert f"first failure: cell-census at {point}\n" in out
    assert "  detail: empty enumeration, top degree -1 vs 11\n" in out


def _rows():
    summary = verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    return [(r.check, r.params) for r in summary.results]


def _negative_rank_rows(capsys, rows):
    """(check, params) of each row failed by a negative free rank, once
    every row of the grid is seen to report and verify to exit 4."""
    summary = verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    assert [(r.check, r.params) for r in summary.results] == rows
    argv = ["verify", "--max-n", str(MAX_N), "--max-k", str(MAX_K)]
    assert cli.main(argv + ["--max-j", str(MAX_J)]) == 4
    capsys.readouterr()
    return {
        (r.check, r.params)
        for r in summary.results
        if not r.ok and r.detail == "free rank must be nonnegative"
    }


def test_a_unit_counted_twice_fails_the_rows_reading_that_homology(
    monkeypatch, capsys
):
    # one 1 too many in each degree whose boundary has a unit takes a free
    # rank below zero in the full complex's homology from rank 2 on; the
    # rows reading it fail, and the relative complex, with no boundary and
    # so no unit, is fine.
    # Of the specs, top reads it on the odd gap, and so does
    # branch-dispatch's basepoint test there at j > 0.
    odd_gap = [(2, 3), (2, 5), (3, 4), (3, 6)]
    rows = _rows()
    original = homology._homology

    def unit_counted_twice(ranks):
        return original({
            p: (cells, units + (units > 0), rest)
            for p, (cells, units, rest) in ranks.items()
        })

    monkeypatch.setattr(homology, "_homology", unit_counted_twice)
    assert _negative_rank_rows(capsys, rows) == {
        (check, f"family={family} n={n} k={k}")
        for check in ("reduced-closed-vs-oracle", "collapse-certificate")
        for family in FAMILIES
        for n, k in GRID
        if n >= 2
    } | {
        ("summand-closed-vs-oracle", f"family={family} n={n} k={k} j={j}")
        for family in FAMILIES
        for n, k in odd_gap
        for j in (0, 1)
    } | {
        ("branch-dispatch", f"family={family} n={n} k={k} j=1")
        for family in FAMILIES
        for n, k in odd_gap
    }


def test_a_signed_count_zeroed_for_odd_k_fails_the_rows_reading_that_report(
    monkeypatch, capsys
):
    # A, B = (0, 0) for one line in 1-space, so U(1,1)'s free stratum,
    # one Z below that, has free rank -1 and its report is never built
    rows = _rows()
    original = grassmannian._signed_count
    monkeypatch.setattr(
        grassmannian, "_signed_count", lambda k, n: 0 if k % 2 else original(k, n)
    )
    assert _negative_rank_rows(capsys, rows) == {
        (check, "family=U n=1 k=1 j=0")
        for check in (
            "summand-closed-vs-oracle", "branch-dispatch", "suspension-monotone"
        )
    }


def _build_nothing(monkeypatch):
    """Make the first thing verify builds, a cell column or a report, fail
    the test, so a refused grid is seen to build nothing."""

    def boom(*args):
        raise AssertionError("a refused grid must build nothing")

    monkeypatch.setattr(l_homology, "cells_by_rank", boom)
    monkeypatch.setattr(verification, "compute_structure_set", boom)


@pytest.mark.parametrize(
    "grid",
    [
        (0, 3, 0, FAMILIES),
        (2, 0, 0, FAMILIES),
        (2, 3, -1, FAMILIES),
        (2, 3, 0, (Family.COMPLEX, Family.COMPLEX)),
        (2, 3, 0, (Family.QUATERNIONIC, Family.COMPLEX, Family.QUATERNIONIC)),
    ],
)
def test_a_bad_grid_is_refused_before_any_check(monkeypatch, grid):
    _build_nothing(monkeypatch)
    with pytest.raises(ValueError):
        verification.run_verification(*grid)


def test_a_family_that_is_not_a_family_is_refused_before_any_check(monkeypatch):
    # a str would otherwise run as U in some checks and as Sp in others
    _build_nothing(monkeypatch)
    with pytest.raises(TypeError, match="'U' is not a Family"):
        verification.run_verification(2, 4, 0, families=("U",))


@pytest.mark.parametrize("grid", [(True, 2, 0), (2, 3, 0.5)])
def test_a_bound_that_is_not_an_int_is_refused_before_any_check(monkeypatch, grid):
    # True would run as 1, and 0.5 would end in a bare TypeError from range
    _build_nothing(monkeypatch)
    with pytest.raises(TypeError, match="must be ints"):
        verification.run_verification(*grid)


@pytest.mark.parametrize("label", ["stratum_pair(x)", "stratum_pair(5)"])
def test_a_summand_missing_two_steps_up_fails_suspension_and_names_it(
    monkeypatch, capsys, label
):
    # relabeling U(2,4)'s one summand leaves U(2,2)'s summand with no
    # namesake at k + 2, and U(2,2) j=0 is checked before U(2,4)
    planted = ActionSpec(Family.COMPLEX, 2, 4)
    original = verification.compute_structure_set

    def relabeled(spec):
        report = original(spec)
        if spec != planted:
            return report
        first = replace(report.summands[0], label=label)
        return replace(report, summands=(first, *report.summands[1:]))

    monkeypatch.setattr(verification, "compute_structure_set", relabeled)
    summary = verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    first = summary.first_failure()
    assert (first.check, first.params) == (
        "suspension-monotone", "family=U n=2 k=2 j=0"
    )
    assert first.detail == f"stratum_pair(0) Z not embedded at k=4: {label} Z^4 ⊕ Z_2^2"
    code = cli.main(["verify", "--max-n", "2", "--max-k", "4", "--max-j", "0"])
    assert code == 4
    failure, detail = capsys.readouterr().out.splitlines()[-2:]
    assert failure == "first failure: suspension-monotone at family=U n=2 k=2 j=0"
    assert detail.startswith("  detail: ") and label in detail


def test_every_check_names_what_it_saw():
    summary = verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    assert summary.ok
    assert [r for r in summary.results if not r.detail] == []


def test_a_refused_filtration_fails_the_oracle_rows_without_a_traceback(
    monkeypatch, capsys
):
    # two ranks more for an even cell, a face of the odd cell above it,
    # put each face after its coface, which the pass refuses for the first
    # family, U: one pass a family, so every oracle row of U fails and no
    # row of Sp
    original = l_homology.filtered_homology
    calls = []

    def lifted(slices, step):
        calls.append(step)
        if len(calls) > 1:
            return original(slices, step)
        return original(
            slices, lambda cell: (step(cell)[0], step(cell)[1] + 2 - 2 * (cell & 1))
        )

    monkeypatch.setattr(l_homology, "filtered_homology", lifted)
    summary = verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    failures = {(r.check, r.params): r.detail for r in summary.results if not r.ok}
    assert failures[("reduced-closed-vs-oracle", "family=U n=1 k=2")] == (
        "a step (2, 2) generator has a later face"
    )
    assert ("cell-census", "family=U n=1 k=2") not in failures
    assert not any(params.startswith("family=Sp") for _, params in failures)
    for check in ("relative-closed-vs-oracle", "reduced-closed-vs-oracle"):
        assert {params for name, params in failures if name == check} == {
            f"family=U n={n} k={k}" for n, k in GRID
        }
    argv = ["verify", "--max-n", str(MAX_N), "--max-k", str(MAX_K)]
    calls.clear()
    assert cli.main(argv + ["--max-j", str(MAX_J)]) == 4
    assert capsys.readouterr().err == ""


def test_a_passing_verify_formats_no_group_of_its_own(monkeypatch, capsys):
    # a row keeps the values its detail prints and formats them when read,
    # and the CLI reads the detail of a failure alone; a report's notes are
    # read off its summands when asked for, so not even a basepoint
    # report's note is formatted
    specs = {
        ActionSpec(family, n, k + step, j)
        for family in FAMILIES
        for n in range(1, 5)
        for k in range(n, 9)
        for j in range(3)
        for step in (0, 2)
    }
    notes = sum(
        "basepoint" in structure_set.compute_structure_set(spec).labels()
        for spec in specs
    )
    callers = []
    original = FGAbelianGroup.__str__

    def counting(group):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(group)

    monkeypatch.setattr(FGAbelianGroup, "__str__", counting)
    assert cli.main(["verify", "--max-n", "4", "--max-k", "8"]) == 0
    assert "total: 728 passed, 0 failed" in capsys.readouterr().out
    assert notes > 0 and callers == []
    # a test that reads a detail still sees the text
    callers.clear()
    row = verification.run_verification(1, 1, 0).results[2]
    assert (row.check, row.detail) == ("relative-closed-vs-oracle", "Z vs Z")
    assert callers == ["detail", "detail"]


def test_a_passing_verify_sums_no_report_total(monkeypatch, capsys):
    # a passing suspension-monotone row keeps its two reports and sums
    # their totals only when its detail is read
    callers = []
    original = FGAbelianGroup.direct_sum

    def recording(group, *others):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(group, *others)

    monkeypatch.setattr(FGAbelianGroup, "direct_sum", recording)
    assert cli.main(["verify", "--max-n", "4", "--max-k", "8"]) == 0
    assert "total: 728 passed, 0 failed" in capsys.readouterr().out
    # only _summand_row's top ⊕ basepoint merge sums a group
    assert callers and not {"__post_init__", "total"} & set(callers)
    row = next(
        r for r in verification.run_verification(1, 3, 0).results
        if r.check == "suspension-monotone" and r.params == "family=U n=1 k=3 j=0"
    )
    callers.clear()
    assert row.ok and row.detail == "Z ⊕ Z_2 embeds in Z^2 ⊕ Z_2^2"
    assert callers == ["total", "total"]


def test_family_order_and_one_family_grids_give_the_same_rows():
    # the tables are kept a family at a time, so neither the order of the
    # families nor a family run alone changes a row
    def rows(families):
        summary = verification.run_verification(4, 8, 2, families)
        return [(r.check, r.params, r.ok, r.detail) for r in summary.results]

    both = rows(FAMILIES)
    assert len(both) == 728
    assert Counter(rows(FAMILIES[::-1])) == Counter(both)
    for family in FAMILIES:
        own = [row for row in both if row[1].startswith(f"family={family} ")]
        assert own and rows((family,)) == own
