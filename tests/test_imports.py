"""Every name a library module imports is used in that module, and so is every private helper.

No linter runs on this repository, so these tests stand in for the unused
import and dead code checks: they parse each module under src/cactusbarrier/
(the package `__init__.py` re-exports names and is skipped). Each imported
name must be among the names the module's code refers to, and each
module-level function or class whose name starts with `_` must be referred
to somewhere in the module outside its own definition.
"""

import ast
import pathlib

import pytest

import cactusbarrier

MODULES = sorted(p for p in pathlib.Path(cactusbarrier.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def dead_private_helpers(source: str) -> list[str]:
    tree = ast.parse(source)
    dead = []
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")):
            used = {n.id for other in tree.body if other is not node
                    for n in ast.walk(other) if isinstance(n, ast.Name)}
            if node.name not in used:
                dead.append(f"line {node.lineno}: {node.name}")
    return dead


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nprint(gcd)\n") == [
        "line 1: os", "line 2: lcm"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_a_dead_private_helper():
    source = ("def _dead(): pass\n"
              "def _recursive(n): return _recursive(n - 1)\n"
              "class _Unused: pass\n"
              "def _used(): return _helper()\n"
              "def _helper(): return 1\n"
              "def public(): return _used()\n"
              "ROWS = [_Kept() for _ in range(2)]\n"
              "class _Kept: pass\n")
    assert dead_private_helpers(source) == [
        "line 1: _dead", "line 2: _recursive", "line 3: _Unused"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_private_helper_it_defines(path):
    assert dead_private_helpers(path.read_text(encoding="utf-8")) == []
