"""run_verification computes each object once per grid point, and its
cross-checks still catch a wrong answer on either side."""

from collections import Counter

import pytest

from multiaxial import l_homology, structure_set, verification
from multiaxial.abelian import FGAbelianGroup
from multiaxial.family import Family
from multiaxial.orbit_cells import CellFiltration
from multiaxial.structure_set import ActionSpec

FAMILIES = (Family.COMPLEX, Family.QUATERNIONIC)
MAX_N, MAX_K, MAX_J = 3, 6, 1
GRID = [(n, k) for n in range(1, MAX_N + 1) for k in range(n, MAX_K + 1)]


def _counting(monkeypatch, calls, name, key, modules):
    """Patch one counting wrapper over name in every module that binds it,
    so a build reached through an oracle function is counted too."""
    original = getattr(modules[0], name)

    def wrapper(*args):
        calls[key(*args)] += 1
        return original(*args)

    for module in modules:
        monkeypatch.setattr(module, name, wrapper)


@pytest.fixture
def counted(monkeypatch):
    builds, homologies, reports = Counter(), Counter(), Counter()
    _counting(
        monkeypatch, builds, "build_chain_complex",
        lambda family, n, k, filtration=None: (family, n, k, filtration),
        (verification, l_homology),
    )
    _counting(
        monkeypatch, homologies, "integral_homology", lambda complex_: None,
        (verification, l_homology),
    )
    _counting(
        monkeypatch, reports, "compute_structure_set", lambda spec: spec,
        (verification, structure_set),
    )
    return builds, homologies, reports


def test_each_complex_and_report_is_computed_once(counted):
    builds, homologies, reports = counted
    summary = verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    assert summary.ok

    expected_builds = Counter()
    for family in FAMILIES:
        for n, k in GRID:
            expected_builds[family, n, k, None] += 1
            expected_builds[family, n, k, CellFiltration.exact(n)] += 1
    assert builds == expected_builds
    # full, rank-n and the shuffled copy of the full complex
    assert sum(homologies.values()) == 3 * len(FAMILIES) * len(GRID)

    expected_specs = {
        ActionSpec(family, n, k + step, j)
        for family in FAMILIES
        for n, k in GRID
        for j in range(MAX_J + 1)
        for step in range(3)
    }
    assert set(reports) == expected_specs
    assert set(reports.values()) == {1}


def test_nothing_is_kept_between_calls(counted):
    builds, homologies, reports = counted
    verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    first = (Counter(builds), sum(homologies.values()), Counter(reports))
    verification.run_verification(MAX_N, MAX_K, MAX_J, FAMILIES)
    assert builds == first[0] + first[0]
    assert sum(homologies.values()) == 2 * first[1]
    assert reports == first[2] + first[2]


def _plant(monkeypatch, name, family, n, k):
    """Make verification's binding of name answer one more Z_2 at one
    (family, n, k) and the right answer everywhere else."""
    original = getattr(verification, name)

    def wrong(*args):
        group = original(*args)
        if args[:3] == (family, n, k):
            return group.direct_sum(FGAbelianGroup.with_two_torsion(0, 1))
        return group

    monkeypatch.setattr(verification, name, wrong)


# At n = MAX_N no structure-set summand reads the relative group of
# (n, k) with k - n odd, and none reads the reduced group of an even-gap
# (n, k), so only the closed-vs-oracle check sees the planted group.
@pytest.mark.parametrize(
    "name, check, n, k",
    [
        ("reduced_l_homology", "reduced-closed-vs-oracle", 2, 4),
        ("read_reduced_l_homology", "reduced-closed-vs-oracle", 2, 4),
        ("relative_l_homology", "relative-closed-vs-oracle", 3, 4),
        ("read_relative_l_homology", "relative-closed-vs-oracle", 3, 4),
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
