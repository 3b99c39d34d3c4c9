"""End-to-end checks over the full computation grids.

Each test prints a single [acceptance] line so the suite can be scanned
with ``pytest tests/test_acceptance.py -v -s``.  The oracle, cell and
suspension loops are the verify checks: one run_verification sweep,
shared by every criterion, runs them all, and each criterion requires
its named checks to have passed at every point of its grid.  Cheap
closed-form identities are asserted inline.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from math import comb

import pytest

from multiaxial.abelian import FGAbelianGroup
from multiaxial.family import Family
from multiaxial.grassmannian import count_A_B
from multiaxial.l_homology import assemble_l_homology
from multiaxial.structure_set import (
    ActionSpec,
    compute_structure_set,
    reduced_l_homology,
    relative_l_homology,
)
from multiaxial.verification import run_verification
from test_grassmannian import listed_counts, two_ranks

COMPLEX_GRID = [(n, k) for n in range(1, 5) for k in range(n, 9)]
QUATERNIONIC_GRID = [(n, k) for n in range(1, 4) for k in range(n, 7)]


def family_points(family, grid):
    return {f"family={family} n={n} k={k}" for n, k in grid}


BOTH_GRIDS = family_points(Family.COMPLEX, COMPLEX_GRID) | family_points(
    Family.QUATERNIONIC, QUATERNIONIC_GRID
)


@contextmanager
def criterion(number, label):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"[acceptance] criterion {number} FAIL: {label}")
        raise
    note = info.get("note")
    suffix = f" ({note})" if note else ""
    print(f"[acceptance] criterion {number} PASS: {label}{suffix}")


@pytest.fixture(scope="module")
def sweep():
    """The one run of every verify check over n <= 4, k <= 8, j <= 2,
    which covers both grids above, with its wall time."""
    start = time.perf_counter()
    summary = run_verification(4, 8, 2)
    return summary, time.perf_counter() - start


def passed_at(sweep, check, points):
    """Require check to have passed at each of points, given as params
    strings, and return how many results it has there."""
    summary, _ = sweep
    found = [r for r in summary.results if r.check == check and r.params in points]
    failed = [r for r in found if not r.ok]
    assert not failed, failed
    missing = set(points) - {r.params for r in found}
    assert not missing, (check, sorted(missing))
    assert found
    return len(found)


def test_criterion_1_relative_closed_form_matches_oracle(sweep):
    with criterion(1, "complex relative group equals chain-level oracle") as info:
        for n, k in COMPLEX_GRID:
            a, b = count_A_B(n, k)
            closed = relative_l_homology(Family.COMPLEX, n, k)
            assert closed == FGAbelianGroup.with_two_torsion(a, b), (n, k)
        checked = passed_at(
            sweep,
            "relative-closed-vs-oracle",
            family_points(Family.COMPLEX, COMPLEX_GRID),
        )
        elapsed = sweep[1]
        assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
        info["note"] = f"{checked} grid points, sweep {elapsed:.2f}s"


def test_criterion_2_reduced_closed_form_matches_oracle(sweep):
    with criterion(2, "complex reduced group equals oracle, with odd-gap shift") as info:
        # the reference is the listed inner box, parity offset by k*n
        odd_gap = [(n, k) for n, k in COMPLEX_GRID if (k - n) % 2 == 1]
        for n, k in odd_gap:
            _, listed = listed_counts(n, k, Family.COMPLEX)
            assert reduced_l_homology(Family.COMPLEX, n, k) == listed, (n, k)
        passed_at(
            sweep,
            "reduced-closed-vs-oracle",
            family_points(Family.COMPLEX, COMPLEX_GRID),
        )
        info["note"] = f"listed inner box matched at {len(odd_gap)} odd-gap points"


def test_criterion_3_quaternionic_binomial_ranks(sweep):
    with criterion(3, "quaternionic relative and reduced groups are free of binomial rank") as info:
        for n, k in QUATERNIONIC_GRID:
            relative = relative_l_homology(Family.QUATERNIONIC, n, k)
            assert relative == FGAbelianGroup.free(comb(k, n)), (n, k)
            reduced = reduced_l_homology(Family.QUATERNIONIC, n, k)
            assert reduced == FGAbelianGroup.free(comb(k - 1, n)), (n, k)
        points = family_points(Family.QUATERNIONIC, QUATERNIONIC_GRID)
        checked = passed_at(sweep, "relative-closed-vs-oracle", points)
        passed_at(sweep, "reduced-closed-vs-oracle", points)
        elapsed = sweep[1]
        assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
        info["note"] = f"{checked} grid points, sweep {elapsed:.2f}s"


def test_criterion_4_structure_set_spot_values():
    with criterion(4, "structure set spot values and projective-plane cross-check") as info:
        cases = [
            (ActionSpec(Family.COMPLEX, 2, 4), FGAbelianGroup(4, ((2, 2),)), None),
            (ActionSpec(Family.COMPLEX, 1, 3), FGAbelianGroup(1, ((2, 1),)), "free_stratum"),
            (ActionSpec(Family.COMPLEX, 2, 3), FGAbelianGroup(2, ((2, 1),)), "free_stratum"),
            (ActionSpec(Family.QUATERNIONIC, 1, 2), FGAbelianGroup.free(1), None),
        ]
        for spec, expected, exception_label in cases:
            report = compute_structure_set(spec)
            assert report.total == expected, (spec, report.total, expected)
            if exception_label is not None:
                assert exception_label in report.labels(), (spec, report.labels())

        # Independent route for the n=1, k=3 value: the ambient group of the
        # free quotient is the degree-4 L-homology of the projective plane,
        # whose Betti numbers are 1 in degrees 0, 2 and 4, and the answer
        # drops the one Z that survives to a point.
        ambient = assemble_l_homology({0: 1, 2: 1, 4: 1}, 4)
        assert ambient == FGAbelianGroup(2, ((2, 1),))
        kernel = FGAbelianGroup(ambient.free_rank - 1, ambient.torsion)
        assert kernel == compute_structure_set(ActionSpec(Family.COMPLEX, 1, 3)).total
        info["note"] = "4 spot values, kernel cross-check agrees"


def test_criterion_5_counting_identities(sweep):
    with criterion(5, "partition counting identities and transpose symmetry") as info:
        for family, grid in (
            (Family.COMPLEX, COMPLEX_GRID),
            (Family.QUATERNIONIC, QUATERNIONIC_GRID),
        ):
            for n, k in grid:
                assert sum(count_A_B(n, k)) == comb(k, n), (family, n, k)
                reduced = reduced_l_homology(family, n, k)
                assert sum(two_ranks(reduced)) == comb(k - 1, n), (family, n, k)
        for n, k in COMPLEX_GRID:
            if k > n:
                assert count_A_B(n, k).even_count == count_A_B(k - n, k).even_count
        # the full-rank interior count, read off each point's enumeration
        points = passed_at(sweep, "cell-census", BOTH_GRIDS)
        info["note"] = f"{points} grid points"


def test_criterion_6_collapse_certification(sweep):
    with criterion(6, "homology of each orbit space collapses onto one residue class") as info:
        checked = passed_at(sweep, "collapse-certificate", BOTH_GRIDS)
        info["note"] = f"{checked} certificates"


def test_criterion_7_suspension_monotonicity(sweep):
    with criterion(7, "summand-wise rank monotonicity under double suspension") as info:
        specs = {
            f"family={family} n={n} k={k} j={j}"
            for family in (Family.COMPLEX, Family.QUATERNIONIC)
            for n in range(1, 4)
            for k in range(n, 7)
            for j in range(3)
        }
        checked = passed_at(sweep, "suspension-monotone", specs)
        info["note"] = f"{checked} specs"


def _cli_bytes(args, seed):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    return subprocess.run(
        [sys.executable, "-m", "multiaxial", *args],
        capture_output=True,
        env=env,
        check=True,
    ).stdout


def test_criterion_8_structural_invariants(sweep):
    with criterion(8, "full verification sweep and reproducible output") as info:
        summary, elapsed = sweep
        failure = summary.first_failure()
        assert summary.ok, f"first failure: {failure}"
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"

        for args in (
            ["structure-set", "--family", "U", "--n", "3", "--k", "6",
             "--j", "2", "--format", "json"],
            ["export-complex", "--family", "Sp", "--n", "2", "--k", "4",
             "--format", "json"],
        ):
            assert _cli_bytes(args, "0") == _cli_bytes(args, "31337")
        info["note"] = f"{summary.passed} checks in {elapsed:.2f}s"
