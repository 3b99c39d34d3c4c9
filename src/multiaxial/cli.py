"""Command line front end.

Exit codes: 0 success, 2 usage error, 4 a verification or agreement
failure, 141 stdout closed early (a shell's code for SIGPIPE; stderr
stays empty).  Exit 2 is argparse's errors and UsageError, raised where
the library checks each input and by export-complex on an inverted rank
band; nothing else maps to it: an internal ValueError stays a traceback.

JSON documents share one envelope: schema_version, tool, command, then
the command specific payload.  Groups carry their torsion as
[order, multiplicity] runs (schema 2).  export-complex writes its complex
degree by degree, as checked_slices yields the stream, each boundary one
list of [row, coeff] pairs per generator (schema 3).  Key order
is fixed and nothing in the output depends on wall clock, environment or
hash seeds, so repeated runs are byte identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from types import GeneratorType

from . import __version__
from .family import Family, UsageError
from .homology import checked_slices, integral_homology
from .l_homology import reduced_l_homology_oracle, relative_l_homology_oracle
from .orbit_cells import cell_label, cell_slices, cells_by_rank
from .structure_set import (
    ActionSpec,
    compute_structure_set,
    orbit_space_dimension,
    reduced_l_homology,
    relative_l_homology,
)
from .verification import run_verification

SCHEMA_VERSION = 3


def _render(value, out: list[str], pad: str):
    """Append value as json.dumps(indent=2) would write it, except that an
    array holding no object stays on one line, so a torsion run or a
    boundary costs one line.  A generator is an array of objects, and out
    goes to stdout after each of them, so the array is never held whole.
    pad is a newline plus the current indent."""
    if type(value) is dict and value:
        inner = pad + "  "
        separator = "{"
        for key, item in value.items():
            out.append(separator + inner + encode_basestring_ascii(key) + ": ")
            _render(item, out, inner)
            separator = ","
        out.append(pad + "}")
    elif type(value) is GeneratorType or (
        type(value) is list and any(type(item) is dict for item in value)
    ):
        inner = pad + "  "
        separator = "["
        for item in value:
            out.append(separator + inner)
            _render(item, out, inner)
            separator = ","
            if type(value) is GeneratorType:
                sys.stdout.write("".join(out))
                out.clear()
        out.append("[]" if separator == "[" else pad + "]")
    elif type(value) is int:
        out.append(str(value))  # most leaves; json.dumps costs more per call
    else:
        out.append(json.dumps(value))


def _emit(command: str, payload: dict):
    """Print the JSON document of command: the shared envelope, then payload."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "multiaxial", "version": __version__},
        "command": command,
        **payload,
    }
    out: list[str] = []
    _render(doc, out, "\n")
    print("".join(out))


def _spec_json(spec: ActionSpec) -> dict:
    return {
        "family": str(spec.family),
        "n": spec.n,
        "k": spec.k,
        "j": spec.j,
    }


def _add_spec_arguments(parser: argparse.ArgumentParser, with_j: bool):
    parser.add_argument("--family", required=True, help="U or Sp")
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    if with_j:
        parser.add_argument("--j", type=int, default=0)
    parser.add_argument(
        "--format", choices=("table", "json"), default="table"
    )


def cmd_structure_set(args) -> int:
    given = ActionSpec(Family.parse(args.family), args.n, args.k, args.j)
    report = compute_structure_set(given)
    spec = report.spec
    if args.format == "json":
        _emit(
            "structure-set",
            {
                "input": _spec_json(given),
                "normalized": dict(
                    _spec_json(spec),
                    trivial_action=spec.is_trivial,
                    branch=report.branch,
                ),
                "summands": [
                    {
                        "label": s.label,
                        "group": s.group.to_json(),
                        "source": s.source,
                    }
                    for s in report.summands
                ],
                "notes": list(report.notes),
                "total": report.total.to_json(),
            },
        )
        return 0
    print(f"structure set of {spec.describe()}")
    print(
        f"  normalized: family={spec.family} n={spec.n} k={spec.k} "
        f"j={spec.j}  branch={report.branch}"
    )
    width = max((len(s.label) for s in report.summands), default=0)
    for s in report.summands:
        print(f"  {s.label.ljust(width)}  {s.group}")
    for note in report.notes:
        print(f"  note: {note}")
    print(f"  total: {report.total}")
    return 0


def cmd_homology(args) -> int:
    family = Family.parse(args.family)
    n, k = args.n, args.k
    d = orbit_space_dimension(family, n, k)
    if args.variant == "integral-all":
        groups = integral_homology(cell_slices(cells_by_rank(family, n, k)))
        if args.format == "json":
            _emit(
                "homology",
                {
                    "variant": "integral-all",
                    "input": {"family": str(family), "n": n, "k": k},
                    "dimension": d,
                    "groups": {str(p): g.to_json() for p, g in sorted(groups.items())},
                },
            )
        else:
            print(
                f"integral homology of the orbit space, family={family} "
                f"n={n} k={k} (dimension {d})"
            )
            for p, g in sorted(groups.items()):
                print(f"  H_{p} = {g}")
        return 0
    if args.variant == "relative":
        closed = relative_l_homology(family, n, k)
        oracle = relative_l_homology_oracle(family, n, k)
    else:
        closed = reduced_l_homology(family, n, k)
        oracle = reduced_l_homology_oracle(family, n, k)
    agree = closed == oracle
    if args.format == "json":
        _emit(
            "homology",
            {
                "variant": args.variant,
                "input": {"family": str(family), "n": n, "k": k},
                "dimension": d,
                "closed_form": closed.to_json(),
                "oracle": oracle.to_json(),
                "agree": agree,
            },
        )
    else:
        print(
            f"{args.variant} top-degree homology, family={family} n={n} "
            f"k={k} (degree {d})"
        )
        print(f"  closed form: {closed}")
        print(f"  oracle:      {oracle}")
        print(f"  agree:       {'yes' if agree else 'NO'}")
    return 0 if agree else 4


def cmd_verify(args) -> int:
    families = tuple(Family.parse(name) for name in args.families.split(","))
    summary = run_verification(args.max_n, args.max_k, args.max_j, families)
    print(
        f"verification grid: n<={args.max_n} k<={args.max_k} "
        f"j<={args.max_j} families={','.join(map(str, families))}"
    )
    table = summary.by_check()  # the one scan of the rows
    for check, (passed, failed) in table.items():
        status = "ok" if failed == 0 else "FAIL"
        print(f"  {check}: {passed} passed, {failed} failed  [{status}]")
    passed = sum(p for p, _ in table.values())
    failed = sum(f for _, f in table.values())
    print(f"total: {passed} passed, {failed} failed")
    if failed:
        failure = summary.first_failure()
        print(f"first failure: {failure.check} at {failure.params}")
        if failure.detail:
            print(f"  detail: {failure.detail}")
        return 4
    return 0


def cmd_export_complex(args) -> int:
    family = Family.parse(args.family)
    low = 1 if args.min_rank is None else args.min_rank
    high = args.n if args.max_rank is None else args.max_rank
    if None not in (args.min_rank, args.max_rank) and low > high:
        raise UsageError("min_rank must not exceed max_rank")
    band = range(max(1, low), min(args.n, high) + 1)  # clamped to 1..n
    cells = cells_by_rank(family, args.n, args.k, band)
    sizes = [(p, len(c)) for by_degree in cells.values() for p, c in by_degree.items()]
    # one entry per slice as checked_slices yields it, each written before
    # the next is built
    degrees = (
        {
            "degree": p,
            "generators": [cell_label(cell) for cell in cells_p],
            "boundary": [
                sorted(column.items()) for column in columns or [{}] * len(cells_p)
            ],
        }
        for p, cells_p, columns in checked_slices(cell_slices(cells))
    )
    payload = {
        "input": {
            "family": str(family),
            "n": args.n,
            "k": args.k,
            "min_rank": args.min_rank,
            "max_rank": args.max_rank,
        },
        "total_cells": sum(size for _, size in sizes),
        "euler_characteristic": sum((-1) ** p * size for p, size in sizes),
        "degrees": degrees,
    }
    if args.format == "json":
        _emit("export-complex", payload)
    else:
        ranks = f"ranks {band[0]}..{band[-1]}" if band else "ranks none"
        print(f"chain complex, family={family} n={args.n} k={args.k} {ranks}")
        for entry in degrees:
            gens = " ".join(entry["generators"])
            lines = [f"  degree {entry['degree']}: {gens}"]
            for label, column in zip(entry["generators"], entry["boundary"]):
                if column:
                    lines.append(f"    {label} -> {json.dumps(column)}")
            print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiaxial",
        description=(
            "structure sets of multiaxial representation spheres, with "
            "independent homology cross-checks"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"multiaxial {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_set = sub.add_parser(
        "structure-set", help="decompose one structure set"
    )
    _add_spec_arguments(p_set, with_j=True)
    p_set.set_defaults(func=cmd_structure_set)

    p_hom = sub.add_parser(
        "homology", help="closed form vs oracle homology groups"
    )
    _add_spec_arguments(p_hom, with_j=False)
    p_hom.add_argument(
        "--variant",
        choices=("relative", "reduced", "integral-all"),
        default="relative",
    )
    p_hom.set_defaults(func=cmd_homology)

    p_verify = sub.add_parser(
        "verify", help="run the cross-check grid"
    )
    p_verify.add_argument("--max-n", type=int, default=4)
    p_verify.add_argument("--max-k", type=int, default=8)
    p_verify.add_argument("--max-j", type=int, default=2)
    p_verify.add_argument("--families", default="U,Sp")
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser(
        "export-complex", help="dump a cellular chain complex"
    )
    _add_spec_arguments(p_export, with_j=False)
    p_export.add_argument("--min-rank", type=int, default=None)
    p_export.add_argument("--max-rank", type=int, default=None)
    p_export.set_defaults(func=cmd_export_complex)
    return parser


# Built on the first main call and reused: parse_args keeps its results in
# a fresh namespace, so the parser itself carries nothing from one call to
# the next.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # An exact answer may run past CPython's int-to-str digit limit (3.11+,
    # 3.10.7+).  It is lifted for the command only, after parsing, so that
    # --n and --k are still read under it.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except UsageError as exc:  # the library checked the input and refused it
        _parser.error(str(exc))
    except BrokenPipeError:
        # the reader is gone: the rest goes to devnull, not to a shutdown error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    finally:
        if lift:
            sys.set_int_max_str_digits(previous)


if __name__ == "__main__":
    sys.exit(main())
