"""Self-test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import jobs as joblist
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_jobs(workload, count=3):
    """The cheapest few jobs of seed 1, renumbered as a pass of their own."""
    jobs = joblist.build_jobs(workload, 1)
    jobs.sort(key=lambda job: (job["size"]["cells"], job["size"]["comb"]))
    jobs = copy.deepcopy(jobs[:count])
    for index, job in enumerate(jobs):
        job["id"] = index
    return jobs


@pytest.fixture(scope="module", params=joblist.WORKLOADS)
def records(request):
    workload = request.param
    jobs = tiny_jobs(workload)
    return {
        trace: run.run_workload(workload, 1, 0.0, trace, job_list=jobs)
        for trace in (0, 1)
    }


def test_every_metric_is_emitted_with_its_unit(records):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        metrics = run.result_line(records[trace])["metrics"]
        wanted = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {name: m["unit"] for name, m in metrics.items()} == wanted
        assert all(isinstance(m["value"], (int, float)) for m in metrics.values())


def test_tiny_runs_are_correct(records):
    for record in records.values():
        assert record["correct"] and record["failed"] == 0
        assert record["failed_frac"] == 0.0


def test_traced_self_times_fit_in_wall_time(records):
    traced = records[1]["traced_run"]
    assert 0 < traced["self_total_s"] <= traced["wall_s"] + 1e-9


def test_layers_never_called_read_zero(records):
    layers = {k: v["value"] for k, v in records[1]["per_layer"].items()}
    workload = records[1]["workload"]
    if workload != "verify_grid":
        assert layers["verification.calls"] == 0
    if workload == "closed_form":
        # orbit_space_dimension is called (a formula), but no cell is built
        assert layers["orbit_cells.cells"] == 0
        assert layers["homology.calls"] == 0
        assert layers["cli.calls"] == 0
    else:
        assert layers["cli.calls"] > 0 and layers["homology.snf.calls"] > 0


@pytest.mark.parametrize("workload", ["closed_form", "oracle"])
def test_wrong_expected_answer_fails_the_job(workload):
    jobs = tiny_jobs(workload)
    if workload == "closed_form":
        jobs[0]["expect"]["total"] += " ⊕ Z"
    else:
        jobs[0]["expect"] = [12345, []]
    record = run.run_workload(workload, 1, 0.0, 0, job_list=jobs)
    assert not record["correct"]
    assert record["failed"] >= 1 and record["failed_frac"] > 0
    assert record["attempted"] >= len(jobs)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
