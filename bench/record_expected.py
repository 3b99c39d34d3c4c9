"""Record the answers the benchmark checks jobs against.

Usage, from the repository root:  python3 bench/record_expected.py

It covers every point of the closed_form and oracle bands, so any seed's
job list finds its answer.  Closed-form answers are confirmed summand by
summand with the chain-level oracles wherever the complex is small enough
(ORACLE_CELLS); the oracle answers are taken from the CLI and must agree
with the closed form.  Run it only at a commit whose answers are trusted:
the files it writes are what later commits are judged against.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
from multiaxial import (  # noqa: E402
    ActionSpec,
    FGAbelianGroup,
    Family,
    cli,
    compute_structure_set,
    reduced_l_homology_oracle,
    relative_l_homology_oracle,
)
from passes import group_key  # noqa: E402

ORACLE_CELLS = 6500


def oracle_summand(family, n, k, label, group):
    """The summand recomputed by the chain-level oracle, or None if out of reach."""
    if label == "top":
        if jobs.cells(n, k) > ORACLE_CELLS:
            return None
        return reduced_l_homology_oracle(family, n, k)
    if label == "basepoint":
        return None  # a coefficient group, no complex behind it
    m = 1 if label == "free_stratum" else n - int(label[len("stratum_pair("):-1])
    if math.comb(k, m) > ORACLE_CELLS:
        return None
    oracle = relative_l_homology_oracle(family, m, k)
    if label == "free_stratum":
        return FGAbelianGroup(oracle.free_rank - 1, oracle.torsion)
    return oracle


def record_closed_form() -> dict:
    answers = {}
    confirmed = 0
    for family_name, n, k in jobs.closed_form_points():
        family = Family.parse(family_name)
        for j in jobs.CLOSED_FORM_J:
            report = compute_structure_set(ActionSpec(family, n, k, j))
            checked = True
            for s in report.summands:
                oracle = oracle_summand(family, n, k, s.label, s.group)
                if oracle is None:
                    checked = False
                elif oracle != s.group:
                    raise SystemExit(f"oracle disagrees at {family} {n} {k} {j} {s.label}")
            confirmed += checked
            answers[jobs.closed_form_key(family_name, n, k, j)] = {
                "total": str(report.total),
                "labels": [s.label for s in report.summands],
                "answer_size": report.total.free_rank + len(report.total.torsion),
                "oracle_confirmed": checked,
            }
    return {"oracle_confirmed": confirmed, "answers": answers}


def record_oracle() -> dict:
    answers = {}
    for family, n, k in jobs.oracle_points():
        for variant in jobs.ORACLE_VARIANTS:
            out = io.StringIO()
            argv = ["homology", "--family", family, "--n", str(n), "--k", str(k),
                    "--variant", variant, "--format", "json"]
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            doc = json.loads(out.getvalue())
            if variant == "integral-all":
                groups = {p: group_key(g) for p, g in doc["groups"].items()}
                size = sum(g[0] + sum(c for _, c in g[1]) for g in groups.values())
            else:
                if code != 0 or not doc["agree"]:
                    raise SystemExit(f"closed form and oracle disagree: {argv}")
                groups = group_key(doc["closed_form"])
                size = groups[0] + sum(c for _, c in groups[1])
            answers[jobs.oracle_key(family, n, k, variant)] = {
                "groups": groups,
                "answer_size": size,
            }
    return {"answers": answers}


def main():
    jobs.EXPECTED_DIR.mkdir(exist_ok=True)
    for workload, record in (("closed_form", record_closed_form),
                             ("oracle", record_oracle)):
        doc = record()
        path = jobs.EXPECTED_DIR / f"{workload}.json"
        # one answer per line, so a re-recording diffs point by point
        lines = [
            f"{json.dumps(key)}: {json.dumps(value, ensure_ascii=False, sort_keys=True)}"
            for key, value in sorted(doc.pop("answers").items())
        ]
        header = "".join(f"{json.dumps(k)}: {json.dumps(v)}, " for k, v in doc.items())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{" + header + '"answers": {\n' + ",\n".join(lines) + "\n}}\n")
        print(f"{path.relative_to(ROOT)}: {len(lines)} answers")


if __name__ == "__main__":
    main()
