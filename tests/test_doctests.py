import ast
import doctest
import os
import pathlib
import subprocess
import sys

import pytest

from multiaxial import abelian, grassmannian, homology, l_homology, orbit_cells

MODULES = [abelian, grassmannian, homology, l_homology, orbit_cells]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0


def test_package_guards_survive_optimized_mode():
    # python -O strips assert statements, so every guard must raise
    package = pathlib.Path(abelian.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        asserts = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not asserts, f"{path.name} has assert statements at {asserts}"


def test_acceptance_passes_in_optimized_mode():
    # python -O strips the package's assert statements; pytest rewrites the
    # test file's own asserts, so every criterion is still checked
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "tests/test_acceptance.py", "-q"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
