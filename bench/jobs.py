"""Workload bands, the job list each workload runs, and the answers it checks.

Every pass runs the same job mix: each band point appears once per pass, so
figures from different seeds compare and a faster program simply completes
more passes.  The seed draws the order of the jobs in the pass and the
trivial summand count j of each closed-form job, which leaves its cost
within noise; nothing it draws changes the cost mix.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

WORKLOADS = ("closed_form", "oracle", "verify_grid")

# closed_form: C(k, n) spans 10^2 .. 10^5, about log-uniform over the grid.
# The band stops there so that a pass takes about 7 s and a 20 s run times
# every job at least twice; with U(10,22) at 2.5 s in it, a 15 s run held
# one pass and its p90 spread by 10 % from seed to seed.
CLOSED_FORM_N = range(2, 11)
CLOSED_FORM_MAX_K = 22
CLOSED_FORM_COMB = (100, 100_000)
CLOSED_FORM_J = (0, 1, 2)

# oracle: U(7,15) takes about 9 s at the seed commit, so the band stops below it.
ORACLE_N = range(2, 7)
ORACLE_MAX_K = {"U": 14, "Sp": 12}
ORACLE_VARIANTS = ("relative", "reduced", "integral-all")

# verify_grid: the largest complex in a grid is capped so that one pass stays
# near ten seconds and a run still holds enough jobs for a p90.
VERIFY_MAX_N = range(3, 7)
VERIFY_MAX_K = 12
VERIFY_MAX_CELLS = 500
VERIFY_FAMILIES = ("U", "Sp", "U,Sp")
# max_j = 2 covers j = 0, 1 and 2; a seeded max_j moved a grid's cost by up
# to a fifth and the p90 with it.
VERIFY_MAX_J = 2

FAMILIES = ("U", "Sp")


def cells(n: int, k: int) -> int:
    """Cells of the orbit-space complex: sum over ranks r <= n of C(k, r)."""
    return sum(math.comb(k, r) for r in range(1, n + 1))


def closed_form_points():
    for family in FAMILIES:
        for n in CLOSED_FORM_N:
            for k in range(n, CLOSED_FORM_MAX_K + 1):
                lo, hi = CLOSED_FORM_COMB
                if lo <= math.comb(k, n) <= hi:
                    yield family, n, k


def oracle_points():
    for family in FAMILIES:
        for n in ORACLE_N:
            for k in range(n, ORACLE_MAX_K[family] + 1):
                yield family, n, k


def verify_points():
    for max_n in VERIFY_MAX_N:
        for max_k in range(max_n, VERIFY_MAX_K + 1):
            if cells(max_n, max_k) <= VERIFY_MAX_CELLS:
                for families in VERIFY_FAMILIES:
                    yield max_n, max_k, families


def load_expected(workload: str) -> dict:
    path = EXPECTED_DIR / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["answers"]


def closed_form_key(family: str, n: int, k: int, j: int) -> str:
    return f"{family} {n} {k} {j}"


def oracle_key(family: str, n: int, k: int, variant: str) -> str:
    return f"{family} {n} {k} {variant}"


def build_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of one pass, fully determined by the workload and seed.

    Each job carries the answer it is checked against and its size
    properties: comb = C(k, n), cells = orbit-space cells, answer = free
    rank plus torsion count of the answer.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    if workload == "closed_form":
        expected = load_expected(workload)
        for family, n, k in closed_form_points():
            j = rng.choice(CLOSED_FORM_J)
            answer = expected[closed_form_key(family, n, k, j)]
            jobs.append({
                "family": family, "n": n, "k": k, "j": j,
                "expect": {"total": answer["total"], "labels": answer["labels"]},
                "size": {
                    "comb": math.comb(k, n),
                    "cells": cells(n, k),
                    "answer": answer["answer_size"],
                },
            })
    elif workload == "oracle":
        expected = load_expected(workload)
        for family, n, k in oracle_points():
            for variant in ORACLE_VARIANTS:
                answer = expected[oracle_key(family, n, k, variant)]
                jobs.append({
                    "argv": [
                        "homology", "--family", family, "--n", str(n),
                        "--k", str(k), "--variant", variant,
                        "--format", "json",
                    ],
                    "variant": variant,
                    "expect": answer["groups"],
                    "size": {
                        "comb": math.comb(k, n),
                        "cells": cells(n, k),
                        "answer": answer["answer_size"],
                    },
                })
    elif workload == "verify_grid":
        max_j = VERIFY_MAX_J
        for max_n, max_k, families in verify_points():
            count = len(families.split(","))
            grid = [(n, k) for n in range(1, max_n + 1)
                    for k in range(n, max_k + 1)]
            jobs.append({
                "argv": [
                    "verify", "--max-n", str(max_n), "--max-k", str(max_k),
                    "--max-j", str(max_j), "--families", families,
                ],
                "size": {
                    "comb": math.comb(max_k, max_n),
                    "cells": count * sum(cells(n, k) for n, k in grid),
                    # structure sets the grid decomposes
                    "answer": count * len(grid) * (max_j + 1),
                },
            })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    for index, job in enumerate(jobs):
        job["id"] = index
    return jobs


def size_properties(jobs: list[dict]) -> dict:
    """Distribution of each job-size property over one pass.

    Besides quantiles, each property gets a histogram by power of ten, so a
    change that helps only large inputs can report the share it touches.
    """
    out = {}
    for prop in ("comb", "cells", "answer"):
        values = sorted(job["size"][prop] for job in jobs)
        decades: dict[str, int] = {}
        for v in values:
            label = f"<1e{len(str(v)) if v > 0 else 0}"
            decades[label] = decades.get(label, 0) + 1
        out[prop] = {
            "count": len(values),
            "min": values[0],
            "p50": values[len(values) // 2],
            "p90": values[(len(values) * 9) // 10],
            "max": values[-1],
            "by_decade": decades,
        }
    return out
