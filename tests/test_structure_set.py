import ast
import importlib
import inspect
import pkgutil
from dataclasses import replace

import pytest

import multiaxial
from multiaxial import grassmannian, homology, l_homology, orbit_cells, structure_set
from multiaxial.abelian import FGAbelianGroup
from multiaxial.family import Family
from multiaxial.structure_set import (
    ActionSpec,
    DecompositionReport,
    Summand,
    basepoint_correction,
    compute_structure_set,
    normalize,
    reduced_l_homology,
    relative_l_homology,
    suspension_embeds,
)

C = Family.COMPLEX
H = Family.QUATERNIONIC

Z = FGAbelianGroup.free(1)
Z2 = FGAbelianGroup(0, ((2, 1),))
Z2_2 = FGAbelianGroup(0, ((2, 2),))
Z4 = FGAbelianGroup(0, ((4, 1),))


def total(family, n, k, j=0):
    return compute_structure_set(ActionSpec(family, n, k, j)).total


def test_normalize_examples():
    assert normalize(ActionSpec(C, 5, 3, 2)) == ActionSpec(C, 3, 3, 2)
    assert normalize(ActionSpec(C, 2, 4, 0)) == ActionSpec(C, 2, 4, 0)
    marker = normalize(ActionSpec(C, 0, 0, 5))
    assert marker.is_trivial
    assert compute_structure_set(marker).total == FGAbelianGroup.trivial()


def test_normalize_is_idempotent():
    for spec in [
        ActionSpec(C, 5, 3, 2),
        ActionSpec(H, 1, 0, 0),
        ActionSpec(C, 0, 9, 1),
    ]:
        once = normalize(spec)
        assert normalize(once) == once
        assert once.is_trivial or once.n <= once.k


def test_spot_values():
    assert total(C, 2, 4) == FGAbelianGroup(4, ((2, 2),))
    assert total(C, 1, 3) == FGAbelianGroup(1, ((2, 1),))
    assert total(C, 2, 3) == FGAbelianGroup(2, ((2, 1),))
    assert total(H, 1, 2) == FGAbelianGroup.free(1)


def test_spot_value_labels_and_exceptions():
    report = compute_structure_set(ActionSpec(C, 2, 4, 0))
    assert report.branch == "even-gap"
    assert report.labels() == ("stratum_pair(0)",)

    report = compute_structure_set(ActionSpec(C, 1, 3, 0))
    assert report.labels() == ("free_stratum",)
    assert any("free sphere quotient" in note for note in report.notes)

    report = compute_structure_set(ActionSpec(C, 2, 3, 0))
    assert report.branch == "odd-gap"
    assert report.labels() == ("top", "free_stratum")

    report = compute_structure_set(ActionSpec(H, 1, 2, 0))
    assert report.labels() == ("top",)


def test_basepoint_summand_appears_only_with_trivial_summands():
    without = compute_structure_set(ActionSpec(C, 1, 2, 0))
    with_j = compute_structure_set(ActionSpec(C, 1, 2, 1))
    assert "basepoint" not in without.labels()
    with pytest.raises(KeyError):
        without.summand("basepoint")
    assert with_j.labels() == ("top", "basepoint")
    assert with_j.total == FGAbelianGroup(1, ((2, 1),))
    # even rank has a trivial correction, so no summand is emitted
    even_rank = compute_structure_set(ActionSpec(C, 2, 3, 2))
    assert "basepoint" not in even_rank.labels()


def test_quaternionic_basepoint_variants():
    n1 = compute_structure_set(ActionSpec(H, 1, 2, 1))
    assert n1.summand("basepoint").group == FGAbelianGroup.free(1)
    n3 = compute_structure_set(ActionSpec(H, 3, 4, 1))
    assert n3.summand("basepoint").group == FGAbelianGroup(0, ((2, 1),))
    n2 = compute_structure_set(ActionSpec(H, 2, 3, 1))
    assert "basepoint" not in n2.labels()


def test_unnormalized_spec_is_normalized_first():
    report = compute_structure_set(ActionSpec(C, 5, 3, 2))
    assert report == compute_structure_set(ActionSpec(C, 3, 3, 2))
    assert report.spec == ActionSpec(C, 3, 3, 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ActionSpec("U", 2, 5, 1),
        lambda: ActionSpec(C, 2, 4, 1.5),
        lambda: ActionSpec(C, True, 3),
        lambda: ActionSpec(C, 2.0, 4),
    ],
    ids=["str-family", "float-j", "bool-n", "integral-float-n"],
)
def test_action_spec_refuses_wrong_types(build):
    with pytest.raises(TypeError):
        build()


def test_summands_match_homology_layer():
    for family in (C, H):
        for n in range(1, 4):
            for k in range(n, 7):
                for j in range(0, 3):
                    report = compute_structure_set(ActionSpec(family, n, k, j))
                    rebuilt = FGAbelianGroup.trivial()
                    for summand in report.summands:
                        rebuilt = rebuilt.direct_sum(summand.group)
                        if summand.label == "top":
                            assert summand.group == reduced_l_homology(
                                family, n, k
                            )
                        elif summand.label == "basepoint":
                            assert j > 0
                            assert summand.group == basepoint_correction(
                                family, n, k
                            )
                        elif summand.label == "free_stratum":
                            assert j == 0
                            reference = relative_l_homology(family, 1, k)
                            assert summand.group == FGAbelianGroup(
                                reference.free_rank - 1, reference.torsion
                            )
                        else:
                            depth = int(summand.label[13:-1])
                            assert summand.group == relative_l_homology(
                                family, n - depth, k
                            )
                    assert rebuilt == report.total


def test_exception_exclusivity_and_branch_dispatch():
    # the facts that make the corrections safe without a run-time guard
    for family in (C, H):
        for n in range(1, 9):
            for k in range(n, 17):
                line = relative_l_homology(family, 1, k)
                for j in range(0, 3):
                    report = compute_structure_set(ActionSpec(family, n, k, j))
                    labels = report.labels()
                    point = (family, n, k, j)
                    assert len(set(labels)) == len(labels), point
                    assert not (
                        "free_stratum" in labels and "basepoint" in labels
                    ), point
                    odd_gap = (k - n) % 2 == 1
                    assert report.branch == ("odd-gap" if odd_gap else "even-gap")
                    # the branch's depths have the gap's parity; rank 1 is
                    # depth n - 1
                    reaches_rank_one = (n - 1) % 2 == (k - n) % 2
                    free = j == 0 and reaches_rank_one
                    assert ("free_stratum" in labels) == free, point
                    if free:
                        assert report.summand("free_stratum").group == (
                            FGAbelianGroup(line.free_rank - 1, line.torsion)
                        ), point
                    basepoint = (
                        j > 0
                        and odd_gap
                        and not basepoint_correction(family, n, k).is_trivial
                    )
                    assert ("basepoint" in labels) == basepoint, point


def suspension_holds(spec):
    twice = compute_structure_set(replace(spec, k=spec.k + 2))
    return suspension_embeds(compute_structure_set(spec), twice)


def test_suspension_listed_examples():
    base = compute_structure_set(ActionSpec(C, 1, 3, 0))
    twice = compute_structure_set(ActionSpec(C, 1, 5, 0))
    assert base.total == FGAbelianGroup(1, ((2, 1),))
    assert twice.total == FGAbelianGroup(2, ((2, 2),))
    assert base.labels() == twice.labels() == ("free_stratum",)
    assert suspension_embeds(base, twice)

    base = compute_structure_set(ActionSpec(C, 2, 2, 0))
    twice = compute_structure_set(ActionSpec(C, 2, 4, 0))
    assert base.total == FGAbelianGroup.free(1)
    assert twice.total == FGAbelianGroup(4, ((2, 2),))
    assert suspension_embeds(base, twice)


def report_of(**summands):
    """A hand-built report; only the summands are read."""
    return DecompositionReport(
        spec=ActionSpec(C, 1, 1),
        branch="even-gap",
        summands=tuple(Summand(label, g, "") for label, g in summands.items()),
    )


@pytest.mark.parametrize(
    "base, twice",
    [
        (report_of(top=Z2), report_of(free_stratum=Z2_2)),
        (report_of(top=Z4), report_of(top=Z2_2, basepoint=Z4)),
    ],
    ids=["label-missing", "Z_4-in-Z_2^2"],
)
def test_suspension_embeds_false_side(base, twice):
    # each case breaks one condition and keeps the others
    assert suspension_embeds(base, twice) is False


def test_report_total_is_derived_from_its_summands():
    assert report_of().total == FGAbelianGroup.trivial()
    assert report_of(top=Z2, basepoint=Z4, free_stratum=Z).total == (
        FGAbelianGroup(1, ((2, 1), (4, 1)))
    )
    with pytest.raises(TypeError, match="total"):
        DecompositionReport(
            spec=ActionSpec(C, 1, 1), branch="even-gap", summands=(), total=Z
        )


def test_identity_embedding():
    for spec in [ActionSpec(C, 2, 4, 0), ActionSpec(H, 3, 4, 1)]:
        group = compute_structure_set(spec).total
        assert group.embeds_in(group)


def test_suspension_monotone_grid():
    for family in (C, H):
        for n in range(1, 4):
            for k in range(n, 7):
                for j in range(0, 3):
                    spec = ActionSpec(family, n, k, j)
                    assert suspension_holds(spec), spec


def test_trivial_spec_suspension():
    spec = ActionSpec(C, 0, 0, 5)
    assert suspension_holds(spec)
    assert compute_structure_set(spec).total == FGAbelianGroup.trivial()


def test_closed_form_never_builds_the_oracle_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the closed form reached the oracle route")

    for name in ("cells_by_rank", "integral_homology"):
        monkeypatch.setattr(l_homology, name, refuse)
    points = [(1, 1, 0), (2, 5, 1), (12, 26, 0), (11, 26, 1), (200, 450, 2)]
    for family in (C, H):
        for n, k, j in points:
            compute_structure_set(ActionSpec(family, n, k, j))


def _collapse(family, n, k):
    """The collapse certificate read off the full complex of (family, n, k)."""
    cells = orbit_cells.cells_by_rank(family, n, k)
    groups = homology.integral_homology(orbit_cells.cell_slices(cells))
    return l_homology.read_collapse(family, n, groups)


def test_oracle_route_never_reads_the_closed_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle route reached the closed form")

    points = [(1, 1), (1, 4), (2, 5), (3, 6), (4, 8)]
    oracles = (
        l_homology.relative_l_homology_oracle,
        l_homology.reduced_l_homology_oracle,
        _collapse,
    )
    expected = {
        (oracle, family, n, k): oracle(family, n, k)
        for oracle in oracles
        for family in (C, H)
        for n, k in points
    }
    for module in (grassmannian, structure_set):
        for name in ("count_A_B", "comb"):
            monkeypatch.setattr(module, name, refuse)
    # the oracle reads its top degree from its own cells, not the formula
    monkeypatch.setattr(structure_set, "orbit_space_dimension", refuse)
    for (oracle, family, n, k), value in expected.items():
        assert oracle(family, n, k) == value


def _sibling_imports(module) -> set[str]:
    """Names of the package modules that module imports, relative or not."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "multiaxial." + base if base else "multiaxial"
            if base == "multiaxial":
                names.update(alias.name for alias in node.names)
            elif base.startswith("multiaxial."):
                names.add(base.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("multiaxial.")
            )
    return names


def _package_imports() -> dict[str, set[str]]:
    """Package module name ("__init__" for the package) -> the package
    modules it imports."""
    names = {info.name for info in pkgutil.iter_modules(multiaxial.__path__)}
    modules = {"__init__": multiaxial}
    modules.update(
        (name, importlib.import_module(f"multiaxial.{name}")) for name in names
    )
    return {
        name: _sibling_imports(module) & names for name, module in modules.items()
    }


def _closure(imports: dict[str, set[str]], start: str) -> set[str]:
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(imports[name])
    return seen


@pytest.mark.parametrize(
    "module, forbidden",
    [
        (homology, {"grassmannian", "l_homology", "structure_set"}),
        (orbit_cells, {"grassmannian", "l_homology", "structure_set"}),
        (grassmannian, {"homology", "orbit_cells", "l_homology"}),
    ],
    ids=["homology", "orbit_cells", "grassmannian"],
)
def test_the_two_routes_import_nothing_from_each_other(module, forbidden):
    imports = _sibling_imports(module)
    assert imports and not imports & forbidden, imports


def test_the_two_route_closures_meet_only_in_the_shared_vocabulary():
    # the closed route is structure_set and what it imports, the oracle
    # route l_homology and what it imports; they meet only in the shared
    # vocabulary, and only the modules that compare them import both
    imports = _package_imports()
    closed = _closure(imports, "structure_set")
    oracle = _closure(imports, "l_homology")
    assert "grassmannian" in closed and {"orbit_cells", "homology"} <= oracle
    assert closed & oracle <= {"family", "abelian"}, closed & oracle
    # the parity counts reach everything else through the groups they build
    counted = {name for name, imported in imports.items() if "grassmannian" in imported}
    assert counted == {"structure_set"}, counted
    # grassmannian counts boxes and structure_set picks each family's box
    assert not hasattr(grassmannian, "Family")
    both = {
        name
        for name, imported in imports.items()
        if {"structure_set", "l_homology"} <= imported
    }
    assert both <= {"verification", "cli", "__init__"}, both


def test_large_closed_form_total():
    report = compute_structure_set(ActionSpec(C, 12, 26, 0))
    assert str(report.total) == "Z^8390655 ⊕ Z_2^8386560"
