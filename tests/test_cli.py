import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from contextlib import contextmanager, redirect_stdout

import pytest

from multiaxial import cli
from multiaxial.abelian import FGAbelianGroup
from multiaxial.family import Family, UsageError, require_valid
from multiaxial.orbit_cells import cell_label, cell_slices, cells_by_rank
from multiaxial.structure_set import ActionSpec, compute_structure_set
from multiaxial.verification import (
    CheckResult,
    VerificationSummary,
    run_verification,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_structure_set_json_document(capsys):
    code, doc = run_json(
        capsys, "structure-set", "--family", "U", "--n", "2", "--k", "4",
        "--j", "0",
    )
    assert code == 0
    assert doc["schema_version"] == 3
    assert doc["command"] == "structure-set"
    assert doc["total"] == {"free_rank": 4, "torsion": [[2, 2]]}
    assert doc["normalized"]["branch"] == "even-gap"
    assert [s["label"] for s in doc["summands"]] == ["stratum_pair(0)"]


def test_structure_set_json_size_follows_the_answer(capsys):
    code, out = run_cli(
        capsys, "structure-set", "--family", "U", "--n", "12", "--k", "26",
        "--format", "json",
    )
    assert code == 0
    assert len(out.encode("utf-8")) < 2048
    assert json.loads(out)["total"] == {
        "free_rank": 8390655, "torsion": [[2, 8386560]],
    }


def test_structure_set_quaternionic_table(capsys):
    code, out = run_cli(
        capsys, "structure-set", "--family", "Sp", "--n", "1", "--k", "2",
    )
    assert code == 0
    assert "total: Z" in out


def test_structure_set_normalizes(capsys):
    code, doc = run_json(
        capsys, "structure-set", "--family", "U", "--n", "5", "--k", "3",
        "--j", "2",
    )
    assert code == 0
    assert doc["input"]["n"] == 5
    assert doc["normalized"]["n"] == 3
    reference = run_json(
        capsys, "structure-set", "--family", "U", "--n", "3", "--k", "3",
        "--j", "2",
    )[1]
    assert doc["total"] == reference["total"]


@contextmanager
def unlimited_int_digits():
    """CPython's int-to-str digit limit lifted, where the interpreter has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def int_digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


HUGE_K = 10**2200  # 2,201 digits in, an answer of over 4,400 digits out


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_structure_set_prints_answers_past_the_int_to_str_limit(capsys, fmt):
    limit = int_digit_limit()
    code, out = run_cli(
        capsys, "structure-set", "--family", "Sp", "--n", "2", "--k",
        str(HUGE_K), "--format", fmt,
    )
    assert code == 0
    assert int_digit_limit() == limit  # restored when main returns
    total = compute_structure_set(
        ActionSpec(Family.QUATERNIONIC, 2, HUGE_K)
    ).total
    with unlimited_int_digits():
        assert len(str(total.free_rank)) > 4300
        if fmt == "json":
            assert json.loads(out)["total"] == total.to_json()
        else:
            assert out.endswith(f"  total: {total}\n")


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this interpreter has no int-to-str digit limit",
)
def test_spec_arguments_are_parsed_under_the_int_to_str_limit(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(
            ["structure-set", "--family", "U", "--n", "1", "--k", "9" * 5000]
        )
    assert exit_info.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


def test_homology_relative_agrees(capsys):
    code, doc = run_json(
        capsys, "homology", "--family", "U", "--n", "2", "--k", "4",
        "--variant", "relative",
    )
    assert code == 0
    assert doc["closed_form"] == {"free_rank": 4, "torsion": [[2, 2]]}
    assert doc["oracle"] == doc["closed_form"]
    assert doc["agree"] is True
    assert doc["dimension"] == 11


def test_homology_reduced_trivial(capsys):
    code, doc = run_json(
        capsys, "homology", "--family", "U", "--n", "2", "--k", "2",
        "--variant", "reduced",
    )
    assert code == 0
    assert doc["closed_form"] == {"free_rank": 0, "torsion": []}
    assert doc["agree"] is True


def test_homology_integral_all(capsys):
    code, doc = run_json(
        capsys, "homology", "--family", "U", "--n", "1", "--k", "2",
        "--variant", "integral-all",
    )
    assert code == 0
    assert doc["groups"] == {
        "0": {"free_rank": 1, "torsion": []},
        "2": {"free_rank": 1, "torsion": []},
    }


def test_homology_disagreement_exits_four(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "relative_l_homology_oracle",
        lambda family, n, k: FGAbelianGroup.free(99),
    )
    code, doc = run_json(
        capsys, "homology", "--family", "U", "--n", "2", "--k", "4",
        "--variant", "relative",
    )
    assert code == 4
    assert doc["agree"] is False


def test_verify_degenerate_grid(capsys):
    code, out = run_cli(
        capsys, "verify", "--max-n", "1", "--max-k", "1", "--max-j", "0",
    )
    assert code == 0
    assert "0 failed" in out


def test_verify_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--max-n", "0"])
    assert excinfo.value.code == 2


# Bad input of every subcommand is refused by the library call that checks
# it, and the CLI prints that call's message.  With two bad inputs the first
# check the command reaches names its input: export-complex builds the rank
# band before it enumerates cells, so the band is named before n and k.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--max-n", "2", "--max-k", "3", "--families", "U,U"],
         "families must not repeat, got U,U"),
        (["verify", "--max-n", "2", "--max-k", "3", "--families", "U,Sp,u"],
         "families must not repeat, got U,Sp,U"),
        (["verify", "--max-n", "0"],
         "max_n and max_k must be at least 1, got max_n=0, max_k=8"),
        (["verify", "--max-k", "0"],
         "max_n and max_k must be at least 1, got max_n=4, max_k=0"),
        (["verify", "--max-j", "-1"],
         "max_j must be nonnegative, got max_j=-1"),
        (["verify", "--families", "U,X"],
         "unknown family 'X', expected 'U' or 'Sp'"),
        (["verify", "--families", "U,u"], "families must not repeat, got U,U"),
        (["structure-set", "--family", "U", "--n", "-1", "--k", "2"],
         "n, k, j must be nonnegative"),
        (["structure-set", "--family", "U", "--n", "1", "--k", "1",
          "--j", "-1"],
         "n, k, j must be nonnegative"),
        (["structure-set", "--family", "X", "--n", "1", "--k", "1"],
         "unknown family 'X', expected 'U' or 'Sp'"),
        (["homology", "--family", "U", "--n", "0", "--k", "2"],
         "need k >= n >= 1, got n=0, k=2"),
        (["homology", "--family", "U", "--n", "3", "--k", "2"],
         "need k >= n >= 1, got n=3, k=2"),
        (["homology", "--family", "X", "--n", "1", "--k", "1"],
         "unknown family 'X', expected 'U' or 'Sp'"),
        (["export-complex", "--family", "U", "--n", "0", "--k", "2"],
         "need k >= n >= 1, got n=0, k=2"),
        (["export-complex", "--family", "U", "--n", "2", "--k", "4",
          "--min-rank", "3", "--max-rank", "1"],
         "min_rank must not exceed max_rank"),
        (["export-complex", "--family", "U", "--n", "0", "--k", "2",
          "--min-rank", "3", "--max-rank", "1"],
         "min_rank must not exceed max_rank"),
    ],
)
def test_verify_grid_is_refused_with_the_library_message(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


@pytest.mark.parametrize(
    "validator",
    [
        lambda: Family.parse("X"),
        lambda: require_valid(0, 2),
        lambda: ActionSpec(Family.COMPLEX, -1, 2),
        lambda: run_verification(0, 8, 2),
        lambda: run_verification(1, 1, -1),
        lambda: run_verification(1, 1, 0, (Family.COMPLEX, Family.COMPLEX)),
        lambda: run_verification(1, 1, 0, families=()),
    ],
    ids=[
        "family", "require_valid", "action_spec",
        "grid_bounds", "grid_max_j", "grid_families", "grid_no_families",
    ],
)
def test_each_input_validator_raises_usage_error(validator):
    with pytest.raises(UsageError):
        validator()


@pytest.mark.parametrize("name", [None, 3, b"U", Family.COMPLEX], ids=repr)
def test_family_parse_refuses_a_name_that_is_not_a_str(name):
    with pytest.raises(TypeError, match="is not a str"):
        Family.parse(name)


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def internal(spec):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "compute_structure_set", internal)
    with pytest.raises(ValueError, match="^internal$") as excinfo:
        cli.main(["structure-set", "--family", "U", "--n", "1", "--k", "3"])
    assert type(excinfo.value) is ValueError


def test_usage_error_on_bad_family():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["structure-set", "--family", "X", "--n", "1", "--k", "1"])
    assert excinfo.value.code == 2


def test_usage_error_on_missing_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


def test_verify_failure_exits_four(capsys, monkeypatch):
    fake = VerificationSummary(
        (CheckResult("fake-check", "n=1 k=1", False, "planted"),)
    )
    monkeypatch.setattr(cli, "run_verification", lambda *a, **kw: fake)
    code, out = run_cli(capsys, "verify", "--max-n", "1", "--max-k", "1")
    assert code == 4
    assert "first failure: fake-check at n=1 k=1" in out


def test_export_complex_round_trip(capsys):
    code, doc = run_json(
        capsys, "export-complex", "--family", "U", "--n", "2", "--k", "2",
    )
    assert code == 0
    assert doc["total_cells"] == 3
    degrees = {entry["degree"]: entry for entry in doc["degrees"]}
    assert degrees[0]["generators"] == ["(1)"]
    assert degrees[0]["boundary"] == [[]]
    assert degrees[3]["boundary"] == [[[0, 1]]]
    assert json.loads(json.dumps(doc)) == doc


# read back, each degree's columns are the in-process stream's, one list
# of [row, coeff] pairs per generator with the rows ascending
@pytest.mark.parametrize(
    "n, k, band",
    [
        (3, 6, ()),
        (4, 7, ()),
        (4, 7, ("--min-rank", "2")),
        (4, 7, ("--min-rank", "2", "--max-rank", "3")),
        (4, 7, ("--max-rank", "1")),
        (4, 7, ("--min-rank", "4")),
    ],
)
@pytest.mark.parametrize("family", ["U", "Sp"])
def test_export_complex_reads_back_as_the_built_complex(
    capsys, family, n, k, band
):
    code, doc = run_json(
        capsys, "export-complex", "--family", family, "--n", str(n),
        "--k", str(k), *band,
    )
    assert code == 0
    low, high = doc["input"]["min_rank"], doc["input"]["max_rank"]
    band = range(1 if low is None else low, (n if high is None else high) + 1)
    cells = cells_by_rank(Family.parse(family), n, k, band)
    stream = list(cell_slices(cells))
    assert [entry["degree"] for entry in doc["degrees"]] == [p for p, _, _ in stream]
    for entry, (_, cells_p, columns) in zip(doc["degrees"], stream):
        assert entry["generators"] == [cell_label(cell) for cell in cells_p]
        for pairs in entry["boundary"]:
            assert all(len(pair) == 2 for pair in pairs)
            assert [row for row, _ in pairs] == sorted({row for row, _ in pairs})
        columns = columns or [{}] * len(cells_p)
        assert [dict(pairs) for pairs in entry["boundary"]] == columns


def test_export_complex_rank_filter(capsys):
    code, doc = run_json(
        capsys, "export-complex", "--family", "U", "--n", "2", "--k", "4",
        "--min-rank", "2", "--max-rank", "2",
    )
    assert code == 0
    assert doc["total_cells"] == 6
    for entry in doc["degrees"]:
        assert entry["boundary"] == [[]] * len(entry["generators"])


# the document grows with the cells and their nonzeros, not with the square
# of a degree's cell count: dense boundaries took 1.69 MB at U(6,14) and
# 21.9 MB at U(7,16)
@pytest.mark.parametrize("n, k, limit", [(6, 14, 200_000), (7, 16, 1_000_000)])
def test_export_complex_json_size_follows_the_columns(capsys, n, k, limit):
    code, out = run_cli(
        capsys, "export-complex", "--family", "U", "--n", str(n), "--k", str(k),
        "--format", "json",
    )
    assert code == 0
    assert len(out.encode("utf-8")) <= limit


def _run_subprocess(args, seed):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    return subprocess.run(
        [sys.executable, "-m", "multiaxial", *args],
        capture_output=True,
        env=env,
        check=True,
    ).stdout


@pytest.mark.parametrize(
    "args",
    [
        ["structure-set", "--family", "U", "--n", "3", "--k", "5", "--j", "1",
         "--format", "json"],
        ["structure-set", "--family", "Sp", "--n", "2", "--k", "4"],
        ["homology", "--family", "Sp", "--n", "2", "--k", "4",
         "--variant", "reduced", "--format", "json"],
        ["export-complex", "--family", "U", "--n", "2", "--k", "3",
         "--format", "json"],
        ["verify", "--max-n", "2", "--max-k", "3", "--max-j", "1"],
    ],
)
def test_byte_identical_output(args):
    first = _run_subprocess(args, "0")
    second = _run_subprocess(args, "424242")
    assert first == second


@pytest.mark.parametrize(
    "args",
    [
        # small enough to sit in the buffer until the flush
        ["verify", "--max-n", "2", "--max-k", "3"],
        # 163 KB, so the cut comes inside a write
        ["export-complex", "--family", "U", "--n", "6", "--k", "14",
         "--format", "json"],
    ],
    ids=["verify", "export-complex"],
)
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(args):
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "multiaxial", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_a_closed_stdout_in_process_leaves_no_descriptor_open():
    # main is also called in process, so each closed pipe it sends to
    # devnull must leave the count of open descriptors where it was
    args = ["export-complex", "--family", "U", "--n", "6", "--k", "14",
            "--format", "json"]
    before = len(os.listdir("/proc/self/fd"))
    codes = []
    for _ in range(3):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stream, redirect_stdout(stream):
            codes.append(cli.main(args))
    assert codes == [141] * 3
    assert len(os.listdir("/proc/self/fd")) == before


def test_parser_is_built_once_and_carries_no_state(capsys, monkeypatch):
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    code, out = run_cli(
        capsys, "structure-set", "--family", "U", "--n", "2", "--k", "4",
        "--j", "2",
    )
    assert code == 0 and "j=2" in out
    code, out = run_cli(
        capsys, "structure-set", "--family", "U", "--n", "2", "--k", "4",
    )
    assert code == 0 and "j=0" in out and "j=2" not in out
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["structure-set", "--family", "U", "--n", "1"])
    assert excinfo.value.code == 2
    assert len(built) == 1


def test_patched_commands_take_effect_on_a_reused_parser(capsys, monkeypatch):
    assert run_cli(capsys, "verify", "--max-n", "1", "--max-k", "1")[0] == 0
    fake = VerificationSummary((CheckResult("fake-check", "n=1 k=1", False),))
    monkeypatch.setattr(cli, "run_verification", lambda *a, **kw: fake)
    code, out = run_cli(capsys, "verify", "--max-n", "1", "--max-k", "1")
    assert code == 4 and "fake-check" in out


# the whole verify report over grids of 728 and 1,596 checks; a change
# to any check's name, order or count shows here
VERIFY_4_8_2 = """\
verification grid: n<=4 k<=8 j<=2 families=U,Sp
  cell-census: 52 passed, 0 failed  [ok]
  full-rank-dimension-parity: 52 passed, 0 failed  [ok]
  relative-closed-vs-oracle: 52 passed, 0 failed  [ok]
  reduced-closed-vs-oracle: 52 passed, 0 failed  [ok]
  collapse-certificate: 52 passed, 0 failed  [ok]
  summand-closed-vs-oracle: 156 passed, 0 failed  [ok]
  branch-dispatch: 156 passed, 0 failed  [ok]
  suspension-monotone: 156 passed, 0 failed  [ok]
total: 728 passed, 0 failed
"""

VERIFY_6_12_2 = """\
verification grid: n<=6 k<=12 j<=2 families=U,Sp
  cell-census: 114 passed, 0 failed  [ok]
  full-rank-dimension-parity: 114 passed, 0 failed  [ok]
  relative-closed-vs-oracle: 114 passed, 0 failed  [ok]
  reduced-closed-vs-oracle: 114 passed, 0 failed  [ok]
  collapse-certificate: 114 passed, 0 failed  [ok]
  summand-closed-vs-oracle: 342 passed, 0 failed  [ok]
  branch-dispatch: 342 passed, 0 failed  [ok]
  suspension-monotone: 342 passed, 0 failed  [ok]
total: 1596 passed, 0 failed
"""


@pytest.mark.parametrize(
    "max_n, max_k, expected",
    [("4", "8", VERIFY_4_8_2), ("6", "12", VERIFY_6_12_2)],
    ids=["4-8-2", "6-12-2"],
)
def test_verify_stdout_is_pinned(capsys, max_n, max_k, expected):
    code, out = run_cli(
        capsys, "verify", "--max-n", max_n, "--max-k", max_k, "--max-j", "2",
    )
    assert code == 0
    assert out == expected


HOMOLOGY_U_2_4 = ("homology", "--family", "U", "--n", "2", "--k", "4", "--variant")

# the table form of each homology variant, and a structure set with a note
TABLES = {
    "relative": (
        (*HOMOLOGY_U_2_4, "relative"),
        """\
relative top-degree homology, family=U n=2 k=4 (degree 11)
  closed form: Z^4 ⊕ Z_2^2
  oracle:      Z^4 ⊕ Z_2^2
  agree:       yes
""",
    ),
    "reduced": (
        (*HOMOLOGY_U_2_4, "reduced"),
        """\
reduced top-degree homology, family=U n=2 k=4 (degree 11)
  closed form: Z^2 ⊕ Z_2
  oracle:      Z^2 ⊕ Z_2
  agree:       yes
""",
    ),
    "integral-all": (
        (*HOMOLOGY_U_2_4, "integral-all"),
        """\
integral homology of the orbit space, family=U n=2 k=4 (dimension 11)
  H_0 = Z
  H_7 = Z
  H_9 = Z
  H_11 = Z
""",
    ),
    "structure-set-note": (
        ("structure-set", "--family", "U", "--n", "1", "--k", "3"),
        """\
structure set of S_U(1)(S(3 rho_1 + 0 eps))
  normalized: family=U n=1 k=3 j=0  branch=even-gap
  free_stratum  Z ⊕ Z_2
  note: no trivial summand (j=0), so the deepest stratum is a free sphere \
quotient (n and k - n make k odd in every firing case) and its summand drops \
one Z
  total: Z ⊕ Z_2
""",
    ),
}


@pytest.mark.parametrize("argv, expected", TABLES.values(), ids=TABLES.keys())
def test_table_stdout_is_pinned(capsys, argv, expected):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


def test_verify_header_names_the_parsed_families(capsys):
    code, out = run_cli(
        capsys, "verify", "--max-n", "1", "--max-k", "2", "--max-j", "0",
        "--families", "u,symplectic",
    )
    assert code == 0
    assert out.splitlines()[0] == (
        "verification grid: n<=1 k<=2 j<=0 families=U,Sp"
    )


# the whole export of a six-cell complex; cells print as "(m1,...,mr)"
EXPORT_U_2_3 = """\
chain complex, family=U n=2 k=3 ranks 1..2
  degree 0: (1)
  degree 2: (2)
  degree 3: (2,1)
    (2,1) -> [[0, 1]]
  degree 4: (3)
  degree 5: (3,1)
    (3,1) -> [[0, 1]]
  degree 7: (3,2)
"""

EXPORT_U_2_3_JSON = """\
{
  "schema_version": 3,
  "tool": {
    "name": "multiaxial",
    "version": "0.1.0"
  },
  "command": "export-complex",
  "input": {
    "family": "U",
    "n": 2,
    "k": 3,
    "min_rank": null,
    "max_rank": null
  },
  "total_cells": 6,
  "euler_characteristic": 0,
  "degrees": [
    {
      "degree": 0,
      "generators": ["(1)"],
      "boundary": [[]]
    },
    {
      "degree": 2,
      "generators": ["(2)"],
      "boundary": [[]]
    },
    {
      "degree": 3,
      "generators": ["(2,1)"],
      "boundary": [[[0, 1]]]
    },
    {
      "degree": 4,
      "generators": ["(3)"],
      "boundary": [[]]
    },
    {
      "degree": 5,
      "generators": ["(3,1)"],
      "boundary": [[[0, 1]]]
    },
    {
      "degree": 7,
      "generators": ["(3,2)"],
      "boundary": [[]]
    }
  ]
}
"""


@pytest.mark.parametrize(
    "fmt, expected",
    [("table", EXPORT_U_2_3), ("json", EXPORT_U_2_3_JSON)],
    ids=["table", "json"],
)
def test_export_complex_stdout_is_pinned(capsys, fmt, expected):
    code, out = run_cli(
        capsys, "export-complex", "--family", "U", "--n", "2", "--k", "3",
        "--format", fmt,
    )
    assert code == 0
    assert out == expected


@pytest.mark.parametrize(
    "band, header, input_band",
    [
        (["--max-rank", "0"], "ranks none", (None, 0)),
        (["--max-rank", "9"], "ranks 1..2", (None, 9)),
        (["--min-rank", "0", "--max-rank", "1"], "ranks 1..1", (0, 1)),
    ],
)
def test_export_complex_header_names_the_selected_band(
    capsys, band, header, input_band
):
    argv = ["export-complex", "--family", "U", "--n", "2", "--k", "3", *band]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0] == f"chain complex, family=U n=2 k=3 {header}"
    # the JSON input echoes the flags as given
    code, doc = run_json(capsys, *argv)
    assert (doc["input"]["min_rank"], doc["input"]["max_rank"]) == input_band


def sweep_digest(argvs) -> str:
    """SHA-256 over the stdout and exit code of each in-process invocation."""
    digest = hashlib.sha256()
    for argv in argvs:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        digest.update(out.getvalue().encode("utf-8"))
        digest.update(f"exit {code}\n".encode())
    return digest.hexdigest()


# SHA-256 of the structure-set sweep below; after a deliberate change to
# that command's output, recompute it with
#   PYTHONPATH=src python -c "import tests.test_cli as t; print(t.structure_set_sweep_digest())"
# and say in the change why the bytes moved
STRUCTURE_SET_SWEEP_SHA256 = (
    "f5cfd899f39f31a58bdb7e148b9143af3aa9e6cdee669b8ef74c676b3dd5ff58"
)


def structure_set_sweep_digest() -> str:
    """SHA-256 over the stdout and exit code of 1,728 in-process
    structure-set invocations: U and Sp, n 0..8, k 0..15, j 0..2, as a
    table and as JSON."""
    return sweep_digest(
        [
            "structure-set", "--family", family, "--n", str(n), "--k", str(k),
            "--j", str(j), "--format", fmt,
        ]
        for family, n, k, j, fmt in itertools.product(
            ("U", "Sp"), range(9), range(16), range(3), ("table", "json")
        )
    )


def test_structure_set_sweep_bytes_are_pinned():
    assert structure_set_sweep_digest() == STRUCTURE_SET_SWEEP_SHA256


# SHA-256 of the homology and export-complex sweeps below, recomputed the
# same way with
#   PYTHONPATH=src python -c "import tests.test_cli as t; print(t.homology_sweep_digest(), t.export_complex_sweep_digest())"
HOMOLOGY_SWEEP_SHA256 = (
    "6a3bc22c69d66d36b99293b7e5ff8eab87d17e07f8834597574feb1449e8bf28"
)
EXPORT_COMPLEX_SWEEP_SHA256 = (
    "19e4b509f4855111776ea8ca6304d81345e6a1b65d2bb5d085a54abda1f90591"
)


def homology_sweep_digest() -> str:
    """SHA-256 over 756 in-process homology invocations: every variant, as
    a table and as JSON, at U n 1..6, k n..14 and Sp n 1..6, k n..12."""
    points = [("U", n, k) for n in range(1, 7) for k in range(n, 15)]
    points += [("Sp", n, k) for n in range(1, 7) for k in range(n, 13)]
    return sweep_digest(
        [
            "homology", "--family", family, "--n", str(n), "--k", str(k),
            "--variant", variant, "--format", fmt,
        ]
        for family, n, k in points
        for variant in ("relative", "reduced", "integral-all")
        for fmt in ("table", "json")
    )


def export_complex_sweep_digest() -> str:
    """SHA-256 over 560 in-process export-complex invocations: U and Sp,
    n 1..5, k n..9, four rank bands, as a table and as JSON."""
    bands = ([], ["--max-rank", "1"], ["--min-rank", "2"], ["--min-rank", "3"])
    return sweep_digest(
        [
            "export-complex", "--family", family, "--n", str(n), "--k", str(k),
            *band, "--format", fmt,
        ]
        for family in ("U", "Sp")
        for n in range(1, 6)
        for k in range(n, 10)
        for band in bands
        for fmt in ("table", "json")
    )


def test_homology_sweep_bytes_are_pinned():
    assert homology_sweep_digest() == HOMOLOGY_SWEEP_SHA256


def test_export_complex_sweep_bytes_are_pinned():
    assert export_complex_sweep_digest() == EXPORT_COMPLEX_SWEEP_SHA256
