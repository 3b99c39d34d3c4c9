"""Job loop of a workload process: timed passes, answer checks, traced passes.

Only the program call is timed.  Each answer is checked right after its
call with the clock stopped, and a job that raises, exits non-zero or gives
a wrong answer is still timed and counted as failed, never dropped.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import re
import resource
import sys
import time

import multiaxial

from speed import reference_s
from tracer import Tracer

TOTAL_LINE = re.compile(r"^total: (\d+) passed, (\d+) failed$", re.MULTILINE)


def group_key(doc: dict) -> list:
    """A JSON group as [free_rank, [[order, multiplicity], ...]].

    Torsion entries may be plain orders or [order, multiplicity] pairs, so a
    run-length JSON schema reads the same as the expanded one.
    """
    runs: list[list[int]] = []
    for entry in doc["torsion"]:
        order, count = (entry, 1) if isinstance(entry, int) else entry
        if runs and runs[-1][0] == order:
            runs[-1][1] += count
        else:
            runs.append([order, count])
    return [doc["free_rank"], runs]


def call(workload: str, job: dict):
    """Run one job against the program and return its raw result."""
    if workload == "closed_form":
        family = multiaxial.Family.parse(job["family"])
        spec = multiaxial.ActionSpec(family, job["n"], job["k"], job["j"])
        return multiaxial.compute_structure_set(spec)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = multiaxial.cli.main(job["argv"])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def check(workload: str, job: dict, result) -> str | None:
    """None when the answer is right, else what was wrong with it."""
    if workload == "closed_form":
        total = str(result.total)
        labels = [s.label for s in result.summands]
        if total != job["expect"]["total"] or labels != job["expect"]["labels"]:
            return f"got {total} {labels}, expected {job['expect']}"
        return None
    code, text = result
    if code != 0:
        return f"exit code {code}"
    if workload == "verify_grid":
        totals = TOTAL_LINE.findall(text)
        if not totals or int(totals[-1][1]) != 0 or int(totals[-1][0]) < 1:
            return f"verify summary {totals[-1] if totals else None}"
        return None
    doc = json.loads(text)
    if job["variant"] == "integral-all":
        got = {p: group_key(g) for p, g in doc["groups"].items()}
    else:
        if doc["agree"] is not True:
            return "closed form and oracle disagree"
        got = group_key(doc["closed_form"])
        if group_key(doc["oracle"]) != got:
            return "oracle group differs from the closed form"
    if got != job["expect"]:
        return f"got {got}, expected {job['expect']}"
    return None


def _phase() -> dict:
    return {"latencies": [], "refs": [], "failed": 0, "errors": [], "stdout_bytes": 0}


def _timed(workload: str, job: dict, phase: dict, tracer=None):
    """Time one job into phase, then check its answer with the clock stopped.

    A full collection first gives every job the same garbage-collector
    state, whatever ran before it in the seed's order.
    """
    gc.collect()
    if tracer is None:
        phase["refs"].append(reference_s())
        run = call
    else:
        tracer.install()
        run = functools.partial(tracer.run, job["id"], call)
    t0 = time.perf_counter()
    try:
        result, reason = run(workload, job), None
    except Exception as exc:  # a failed job is counted, not fatal
        reason = f"{type(exc).__name__}: {exc}"
    phase["latencies"].append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.uninstall()
    if reason is None:
        if workload != "closed_form":
            phase["stdout_bytes"] += len(result[1].encode("utf-8"))
        try:
            reason = check(workload, job, result)
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"unreadable answer: {type(exc).__name__}: {exc}"
    if reason is not None:
        phase["failed"] += 1
        if len(phase["errors"]) < 5:
            phase["errors"].append(f"job {job['id']}: {reason}")


def run_passes(workload, jobs, seconds, tracer=None) -> dict:
    """Run whole passes over jobs until seconds have elapsed.

    The speed reference is timed before every untraced job and once after
    the last, for the scaling in speed.scale.

    With a tracer, every job runs twice in a row, untraced and traced, in
    alternating order: the machine this runs on drifts in speed over
    minutes, so only back-to-back pairs give a fair tracing overhead.
    """
    phases = {"untraced": _phase()}
    if tracer is not None:
        phases["traced"] = _phase()
    passes = 0
    start = time.perf_counter()
    while True:
        for job in jobs:
            if tracer is None:
                _timed(workload, job, phases["untraced"])
                continue
            traced_first = (job["id"] + passes) % 2 == 0
            for traced in (traced_first, not traced_first):
                name = "traced" if traced else "untraced"
                _timed(workload, job, phases[name], tracer if traced else None)
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    phases["untraced"]["refs"].append(reference_s())
    for phase in phases.values():
        phase["passes"] = passes
        phase["busy_s"] = sum(phase["latencies"])
    return phases


def serve(workload: str) -> int:
    """Read the run spec from stdin, run it, print one JSON result line."""
    text = sys.stdin.read()
    if not text:
        return 0  # a set-up probe: nothing to run
    spec = json.loads(text)
    tracer = Tracer() if spec["trace"] else None
    out = run_passes(workload, spec["jobs"], spec["seconds"], tracer)
    if tracer is not None:
        tracer.counters["cli.stdout_bytes"] += out["traced"]["stdout_bytes"]
        out["layers"] = tracer.summary(out["traced"]["passes"])
        out["span_count"] = len(tracer.start)
        out["self_total_s"] = sum(tracer.self_times())
        tracer.write(spec["spans_path"])
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0
