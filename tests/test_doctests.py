import ast
import doctest
import pathlib

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
