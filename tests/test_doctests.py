import ast
import doctest
import importlib.util
import inspect
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import multiaxial
from multiaxial import abelian

ROOT = pathlib.Path(__file__).resolve().parent.parent

MODULES = [
    f"multiaxial.{info.name}"
    for info in pkgutil.iter_modules(multiaxial.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module)
    assert result.failed == 0
    # a module whose source shows an example must run at least one
    if ">>>" in inspect.getsource(module):
        assert result.attempted > 0


def test_package_guards_survive_optimized_mode():
    # python -O strips assert statements, so every guard must raise
    package = pathlib.Path(abelian.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        asserts = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not asserts, f"{path.name} has assert statements at {asserts}"


def test_every_parameter_is_read():
    # a parameter that the body never reads is a no-op a caller still has
    # to pass; self and cls are exempt
    package = pathlib.Path(abelian.__file__).parent
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    unread = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, functions):
                continue
            args = node.args
            named = (*args.posonlyargs, *args.args, *args.kwonlyargs)
            params = [
                a.arg
                for a in (*named, args.vararg, args.kwarg)
                if a is not None and a.arg not in ("self", "cls")
            ]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for statement in body
                for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread += [
                f"{path.name}:{node.lineno} {name}({p})"
                for p in params
                if p not in read
            ]
    assert not unread, unread


def test_every_module_level_name_is_read():
    # a function or class that nothing in the package loads by name is dead
    # code, such as a helper left behind when its last caller was deleted;
    # a name read only inside its own def or class does not count
    package = pathlib.Path(abelian.__file__).parent
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unread = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, definitions)
        and not any(
            isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)
            and n.id == node.name
            and not (other == name and node.lineno <= n.lineno <= node.end_lineno)
            for other, other_tree in trees.items()
            for n in ast.walk(other_tree)
        )
    ]
    assert not unread, unread


def test_acceptance_passes_in_optimized_mode():
    # python -O strips the package's assert statements; pytest rewrites the
    # test file's own asserts, so every criterion is still checked
    # src first, then the inherited path, where the test packages may live
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "tests/test_acceptance.py", "-q"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]


def _top_level_names(source: str) -> set[str]:
    """Names taken from the package itself: ``from multiaxial import x`` and
    ``multiaxial.x``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "multiaxial":
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "multiaxial"
        ):
            names.add(node.attr)
    return names


def test_readme_and_bench_import_only_what_the_package_exports():
    # the benchmark scripts and README's example are run by no other tier-1
    # test, so a name dropped from the package surface would break them unseen
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = {
        f"README.md block {i}": block
        for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S))
    }
    for path in sorted((ROOT / "bench").glob("*.py")):
        sources[path.name] = path.read_text(encoding="utf-8")
    used = {name: _top_level_names(source) for name, source in sources.items()}
    assert used["README.md block 0"] and used["record_expected.py"]
    for source, names in used.items():
        for name in sorted(names):
            resolves = hasattr(multiaxial, name) or (
                importlib.util.find_spec(f"multiaxial.{name}") is not None
            )
            assert resolves, f"{source} takes {name!r} from multiaxial"
