"""Every SHA-256 pin of the CLI's output: a name, its command lines and
the digest of their stdout in order, each exiting 0.  Recompute them with
`PYTHONPATH=src python tests/test_pins.py`; a digest that moves is an
output change, named in CHANGES.md."""

import argparse
import hashlib
import io
import itertools
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from multiaxial import cli
from multiaxial.family import Family


def digest(commands) -> str:
    """SHA-256 over the stdout of each command line, run in process."""
    sha = hashlib.sha256()
    for command in commands:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(command.split())
        if code != 0:
            raise RuntimeError(f"{command} exited {code}")
        sha.update(out.getvalue().encode("utf-8"))
    return sha.hexdigest()


PINS = {
    # 1,728 structure sets: U and Sp, n 0..8, k 0..15, j 0..2, in both formats
    "structure-set-sweep": ([
        f"structure-set --family {family} --n {n} --k {k} --j {j} --format {fmt}"
        for family, n, k, j, fmt in itertools.product(
            ("U", "Sp"), range(9), range(16), range(3), ("table", "json"))],
        "d9067b9f840fcbbb0a32d6da27db9bf9791db4eff585471003c298010e4d725b"),
    # every kind of note: the basepoint's with its Z_2, the free stratum's
    # and the trivial action's, and three totals
    "structure-set-notes": ([
        "structure-set --family U --n 3 --k 6 --j 1 --format json",
        "structure-set --family U --n 1 --k 3 --format json",
        "structure-set --family Sp --n 0 --k 2 --j 2 --format json"],
        "102a61573ffb36b07b1ec57ca64529cc9341735c6cad7de4574e93b5ee6d80ba"),
    # 756 homology reads: every variant in both formats, U n 1..6, k n..14
    # and Sp n 1..6, k n..12
    "homology-sweep": ([
        f"homology --family {family} --n {n} --k {k} --variant {variant} --format {fmt}"
        for family, top in (("U", 14), ("Sp", 12))
        for n in range(1, 7)
        for k in range(n, top + 1)
        for variant in ("relative", "reduced", "integral-all")
        for fmt in ("table", "json")],
        "4129c28e0b584f3bf877efa9c2f0c3e31678f769a45ea29ef1d18acccbcda1c4"),
    # integral_homology's largest complex here
    "homology-U-7-16-integral-all": (
        ["homology --family U --n 7 --k 16 --variant integral-all --format json"],
        "a985ed0dd278f23f2342d79cb4392b6a66bc5d6799413497e978869646ab074a"),
    # 6,475 cells, whose degree gaps give slices with and without a slice
    # one degree below
    "homology-Sp-6-14-integral-all": (
        ["homology --family Sp --n 6 --k 14 --variant integral-all --format json"],
        "8200d9f7a920e6aa016f1224aef54af9ccc880bbc99c6f7d3566f66e88f54b1d"),
    # the oracle benchmark workload's largest job
    "homology-U-6-14-integral-all": (
        ["homology --family U --n 6 --k 14 --variant integral-all --format json"],
        "7f7de5933c1b9c37015d45fd91a4118d3d32c9b0ba48c52377c2aaa94157a0bc"),
    # past the sweep's Sp k <= 12
    "homology-Sp-6-14-reduced": (
        ["homology --family Sp --n 6 --k 14 --variant reduced"],
        "70abc07f7a5518e36a4332dc36b0621c0b0c7cbe29eb82490422009302bc0a71"),
    # verify's reports, so that a change to how it computes its rows cannot
    # change a byte; the Sp grid runs one family alone, as the family order
    # must not matter
    "verify-3-6": (["verify --max-n 3 --max-k 6"],
        "9552838ee3c25087fda3d7dda5e5926a3f343693477f59723b0c259c7f9fd89c"),
    "verify-6-12-2": (["verify --max-n 6 --max-k 12 --max-j 2"],
        "29c8b84cc28278470e5b1aa244377928b4a7eda5870116c88e9fe35d497ef177"),
    "verify-6-9-2-Sp": (["verify --max-n 6 --max-k 9 --max-j 2 --families Sp"],
        "77be81e445e6f7cc918f7f62edcf6c843212ed244eaa00e010b9c45f575a9f04"),
    # the largest grid with max_j > 0
    "verify-7-16-2": (["verify --max-n 7 --max-k 16 --max-j 2"],
        "348eb99945927df40c0b690d621ad8d4f195df617eb474496c3aae4a64e21fe7"),
    # the family pass at certificate scale: 2,128 rows, 0 failed
    "verify-7-22-0": (["verify --max-n 7 --max-k 22 --max-j 0"],
        "d37b5bad087cf798ba228ef0781a253a91fc8a1fd79157c0bf106054d41a35c4"),
    # 560 exports: U and Sp, n 1..5, k n..9, four rank bands, in both formats
    "export-complex-sweep": ([
        f"export-complex --family {family} --n {n} --k {k} {band} --format {fmt}"
        for family in ("U", "Sp")
        for n in range(1, 6)
        for k in range(n, 10)
        for band in ("", "--max-rank 1", "--min-rank 2", "--min-rank 3")
        for fmt in ("table", "json")],
        "2c34d28a4d18acfc183271490b22707a64c3520e497daffd424b164ece5304c8"),
    # a rank band of 25,636 cells, whose face walk passes over many missing
    # faces; the sweep stops at n <= 5, k <= 9
    "export-complex-U-7-16-rank-4": (
        ["export-complex --family U --n 7 --k 16 --min-rank 4 --format json"],
        "e083a0fffe27d80d48d2fad89b69cd29fbe946f556c6ae4f16d7fee2d66e151c"),
}


@pytest.mark.parametrize("commands, sha256", PINS.values(), ids=PINS.keys())
def test_pinned_output(commands, sha256):
    assert digest(commands) == sha256


def test_a_pin_holds_on_a_child_s_real_stdout():
    # _render streams the band through sys.stdout.write: a pipe, not a StringIO
    [command], sha256 = PINS["export-complex-U-7-16-rank-4"]
    child = [sys.executable, "-m", "multiaxial", *command.split()]
    out = subprocess.run(child, stdout=subprocess.PIPE, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == sha256


def test_every_subcommand_and_family_is_pinned():
    [subcommands] = [
        action.choices for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    words = {
        word for commands, _ in PINS.values() for c in commands for word in c.split()
    }
    assert {*subcommands, *(family.value for family in Family)} <= words


if __name__ == "__main__":
    moved = 0
    for name, (commands, sha256) in PINS.items():
        current = digest(commands)
        moved += current != sha256
        print(name, current, "ok" if current == sha256 else "MOVED")
    sys.exit(1 if moved else 0)
