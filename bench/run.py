"""Benchmark of the multiaxial package: one workload per run, stdlib only.

Usage, from the repository root:

    python3 bench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

The workload runs in a child process (bench/worker.py) as a closed loop:
one client, one thread, each job starting when the previous one returns.
It runs whole passes over the seed's job list until --seconds have passed.
With --trace 0 the run reports end-to-end metrics; with --trace 1 it runs
every job twice, untraced and traced, and reports per-layer metrics from
the traced calls.  Set-up time comes from separate probe processes that
import the package and exit.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and the line before it is the full record (environment, job sizes,
sample counts).  Every job's answer is checked; a wrong one fails the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as joblist
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# Set-up probes per run; the first only fills the bytecode cache.
SETUP_PROBES = 21
# Hard stop for the whole run, below the 180 s a run may take.
DEADLINE_S = 170.0

LAYER_UNITS = {"calls": "count/pass", "self_s": "s/pass"}


class BenchError(RuntimeError):
    """The benchmark could not run the program."""


def _worker(workload: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), workload, str(SRC)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )


def _talk(workload: str, spec: str, timeout: float) -> tuple[float, str]:
    """Spawn a worker, feed it spec, return (set-up seconds, its stdout)."""
    spawned = time.monotonic()
    proc = _worker(workload)
    try:
        out, err = proc.communicate(spec, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker exceeded {timeout:.0f} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise BenchError(
            f"{workload} worker exited with {proc.returncode}: {err.strip()[-2000:]}"
        )
    return float(lines[0].split()[1]) - spawned, "\n".join(lines[1:])


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload, seed, seconds, trace, job_list=None) -> dict:
    """Run one workload and return the full record, metrics included.

    job_list replaces the seed's job list; the self-test uses it to run
    tiny lists and deliberately wrong answers.
    """
    if not (SRC / "multiaxial" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'multiaxial'}")
    started = time.monotonic()
    jobs = joblist.build_jobs(workload, seed) if job_list is None else job_list
    load_start = os.getloadavg()

    setup = [_talk(workload, "", 60)[0] for _ in range(SETUP_PROBES)][1:]

    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{workload}.jsonl.gz"
    spec = json.dumps({
        "jobs": jobs,
        "seconds": seconds,
        "trace": bool(trace),
        "spans_path": str(spans_path),
    })
    budget = DEADLINE_S - (time.monotonic() - started)
    _, out = _talk(workload, spec, budget)
    result = json.loads(out.splitlines()[-1])
    load_end = os.getloadavg()

    untraced = result["untraced"]
    phases = [untraced] + ([result["traced"]] if trace else [])
    attempted = sum(len(p["latencies"]) for p in phases)
    failed = sum(p["failed"] for p in phases)
    completed = len(untraced["latencies"]) - untraced["failed"]
    raw, scaled = {}, {}
    for metrics, latencies in (
        (raw, untraced["latencies"]),
        (scaled, speed.scale(untraced["latencies"], untraced["refs"])),
    ):
        latencies_ms = [t * 1e3 for t in latencies]
        metrics.update({
            "jobs_per_s": (completed / sum(latencies), "1/s"),
            "job_p50_ms": (statistics.median(latencies_ms), "ms"),
            "job_p90_ms": (
                statistics.quantiles(latencies_ms, n=10, method="inclusive")[8],
                "ms",
            ),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
            # process start-up is mostly kernel work that the reference
            # loop does not track (scaling it widened its spread), so raw
            "setup_s": (statistics.median(setup), "s"),
        })
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "commit": _git_commit(),
            "loadavg_start": load_start,
            "loadavg_end": load_end,
            "reference_ms": {
                "nominal": speed.NOMINAL_S * 1e3,
                "median": statistics.median(untraced["refs"]) * 1e3,
                "min": min(untraced["refs"]) * 1e3,
                "max": max(untraced["refs"]) * 1e3,
            },
        },
        "jobs_per_pass": len(jobs),
        "passes": untraced["passes"],
        "latency_samples": len(untraced["latencies"]),
        "samples_beyond_p90": sum(
            1 for t in untraced["latencies"] if t * 1e3 > raw["job_p90_ms"][0]
        ),
        "setup_samples": len(setup),
        "failed_frac": failed / attempted,
        "errors": [e for p in phases for e in p["errors"]][:5],
        "job_sizes": joblist.size_properties(jobs),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in scaled.items()},
        "end_to_end_raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
    }
    if trace:
        traced = result["traced"]
        layers = {
            name: {"value": value, "unit": _layer_unit(name)}
            for name, value in result["layers"].items()
        }
        layers["trace_overhead_frac"] = {
            "value": traced["busy_s"] / untraced["busy_s"] - 1,
            "unit": "ratio",
        }
        record["per_layer"] = layers
        record["traced_run"] = {
            "passes": traced["passes"],
            "wall_s": traced["busy_s"],
            "self_total_s": result["self_total_s"],
            "spans": result["span_count"],
            "spans_path": str(spans_path.relative_to(ROOT)),
        }
    record["correct"] = failed == 0
    record["attempted"] = attempted
    record["failed"] = failed
    return record


def _layer_unit(name: str) -> str:
    suffix = name.rpartition(".")[2]
    return LAYER_UNITS.get(suffix, "count/pass")


def result_line(record: dict) -> dict:
    """The result line: end-to-end metrics untraced, per-layer when traced."""
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=joblist.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
