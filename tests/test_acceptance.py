"""End-to-end checks over the full computation grids.

Each test prints a single [acceptance] line so the suite can be scanned
with ``pytest tests/test_acceptance.py -v -s``.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from math import comb

from multiaxial.abelian import FGAbelianGroup
from multiaxial.family import Family
from multiaxial.grassmannian import count_A_B, count_a_b, grassmannian_betti
from multiaxial.l_homology import (
    assemble_l_homology,
    reduced_l_homology,
    reduced_l_homology_oracle,
    relative_l_homology,
    relative_l_homology_oracle,
    verify_collapse,
)
from multiaxial.orbit_cells import CellFiltration, cells_by_degree
from multiaxial.structure_set import (
    ActionSpec,
    compute_structure_set,
    suspension_report,
)
from multiaxial.verification import run_verification

COMPLEX_GRID = [(n, k) for n in range(1, 5) for k in range(n, 9)]
QUATERNIONIC_GRID = [(n, k) for n in range(1, 4) for k in range(n, 7)]


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


def test_criterion_1_relative_closed_form_matches_oracle():
    with criterion(1, "complex relative group equals chain-level oracle") as info:
        start = time.perf_counter()
        for n, k in COMPLEX_GRID:
            closed = relative_l_homology(Family.COMPLEX, n, k)
            oracle = relative_l_homology_oracle(Family.COMPLEX, n, k)
            assert closed == oracle, (n, k, closed, oracle)
            a, b = count_A_B(n, k)
            assert closed == FGAbelianGroup.with_two_torsion(a, b)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"grid took {elapsed:.1f}s"
        info["note"] = f"{len(COMPLEX_GRID)} grid points in {elapsed:.2f}s"


def test_criterion_2_reduced_closed_form_matches_oracle():
    with criterion(2, "complex reduced group equals oracle, with odd-gap shift") as info:
        checked_shift = 0
        for n, k in COMPLEX_GRID:
            closed = reduced_l_homology(Family.COMPLEX, n, k)
            oracle = reduced_l_homology_oracle(Family.COMPLEX, n, k)
            assert closed == oracle, (n, k, closed, oracle)
            if (k - n) % 2 == 1:
                shifted = count_A_B(n, k - 1)
                assert count_a_b(n, k, Family.COMPLEX) == shifted, (n, k)
                checked_shift += 1
        info["note"] = f"shift identity verified at {checked_shift} odd-gap points"


def test_criterion_3_quaternionic_binomial_ranks():
    with criterion(3, "quaternionic relative and reduced groups are free of binomial rank") as info:
        start = time.perf_counter()
        for n, k in QUATERNIONIC_GRID:
            relative = relative_l_homology(Family.QUATERNIONIC, n, k)
            assert relative == FGAbelianGroup.free(comb(k, n)), (n, k)
            assert relative == relative_l_homology_oracle(Family.QUATERNIONIC, n, k)
            reduced = reduced_l_homology(Family.QUATERNIONIC, n, k)
            assert reduced == FGAbelianGroup.free(comb(k - 1, n)), (n, k)
            assert reduced == reduced_l_homology_oracle(Family.QUATERNIONIC, n, k)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"grid took {elapsed:.1f}s"
        info["note"] = f"{len(QUATERNIONIC_GRID)} grid points in {elapsed:.2f}s"


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
        # and the answer drops the one Z that survives to a point.
        betti = grassmannian_betti(1, 3)
        ambient = assemble_l_homology(betti, betti, 4)
        assert ambient == FGAbelianGroup(2, ((2, 1),))
        kernel = FGAbelianGroup(ambient.free_rank - 1, ambient.torsion)
        assert kernel == compute_structure_set(ActionSpec(Family.COMPLEX, 1, 3)).total
        info["note"] = "4 spot values, kernel cross-check agrees"


def test_criterion_5_counting_identities():
    with criterion(5, "partition counting identities and transpose symmetry") as info:
        points = 0
        for family, grid in (
            (Family.COMPLEX, COMPLEX_GRID),
            (Family.QUATERNIONIC, QUATERNIONIC_GRID),
        ):
            for n, k in grid:
                total = count_A_B(n, k).total
                assert total == comb(k, n), (family, n, k)
                assert count_a_b(n, k, family).total == comb(k - 1, n)
                full_rank = cells_by_degree(family, n, k, CellFiltration.exact(n))
                interior = [
                    pivots
                    for cells in full_rank.values()
                    for pivots in cells
                    if pivots[-1] > 1
                ]
                assert len(interior) == comb(k - 1, n), (family, n, k)
                points += 1
        for n, k in COMPLEX_GRID:
            if k > n:
                assert count_A_B(n, k).even_count == count_A_B(k - n, k).even_count
        info["note"] = f"{points} grid points"


def test_criterion_6_collapse_certification():
    with criterion(6, "homology of each orbit space collapses onto one residue class") as info:
        checked = 0
        for family, grid in (
            (Family.COMPLEX, COMPLEX_GRID),
            (Family.QUATERNIONIC, QUATERNIONIC_GRID),
        ):
            for n, k in grid:
                report = verify_collapse(family, n, k)
                assert report.ok, (family, n, k, report)
                checked += 1
        info["note"] = f"{checked} certificates"


def test_criterion_7_suspension_monotonicity():
    with criterion(7, "summand-wise rank monotonicity under double suspension") as info:
        checked = 0
        for family in (Family.COMPLEX, Family.QUATERNIONIC):
            for n in range(1, 4):
                for k in range(n, 7):
                    for j in range(3):
                        report = suspension_report(ActionSpec(family, n, k, j))
                        assert report.pairing_complete, (family, n, k, j)
                        assert report.summandwise_monotone, (family, n, k, j)
                        assert report.totals_embed, (family, n, k, j)
                        checked += 1
        info["note"] = f"{checked} specs"


def _cli_bytes(args, seed):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    return subprocess.run(
        [sys.executable, "-m", "multiaxial", *args],
        capture_output=True,
        env=env,
        check=True,
    ).stdout


def test_criterion_8_structural_invariants():
    with criterion(8, "full verification sweep and reproducible output") as info:
        start = time.perf_counter()
        summary = run_verification(4, 8, 2)
        elapsed = time.perf_counter() - start
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
