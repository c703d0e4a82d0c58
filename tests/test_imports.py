"""Every name a library module imports is used in that module, and so is every helper.

No linter runs on this repository, so these tests stand in for the unused
import and dead code checks: they parse each module under src/cactusbarrier/
(the package `__init__.py` re-exports names and is skipped). Each imported
name must be among the names the module's code refers to, and so must each
name a test file under tests/ imports. Each
module-level function or class whose name starts with `_` must be referred
to somewhere in the module outside its own definition. A public one must be
referred to in the package outside its own definition, be named in bench/
(as a name, an attribute or a string: the tracer names its targets as
strings), be re-exported by `__init__.py`, or be kept in KEPT_PUBLIC with
its reason. Each method and property of a class in the package, dunders
aside, must be referred to as an attribute in the package or in bench/
(outside its own body), be named as a string in bench/, or be kept in
KEPT_PUBLIC, as "Class.name", with its reason. Every piece of state that
lives as long as the process (a `functools.cache` or `lru_cache` function,
a module-level dict, list or set) is listed in KEPT_STATE with what bounds
it. The README's library example runs as it stands.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import pytest

import cactusbarrier

PACKAGE = pathlib.Path(cactusbarrier.__file__).parent
ROOT = PACKAGE.parents[1]
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted((ROOT / "tests").glob("*.py"))

# public names and methods that no program code uses, each with the reason it stays
KEPT_PUBLIC = {
    "scheme_to_dict": "the scheme reader's round-trip tests write their files with it",
    "PolyRing.t": "tests build the polynomial t with it, as the acceptance tests do",
    "DenseTensor.diagonal": "tests build diagonal tensors, whose ranks are known, with it",
}


# process-lifetime state under src/cactusbarrier/, each with what bounds it
KEPT_STATE = {
    "cli._seed_hash": "one entry: the sha256 constructor",
    "cli.build_parser": "one entry: the argument parser",
    "fileformats._JSON_TYPES": "a fixed table of three JSON types",
    "fileformats._POINT_PIECES": "a fixed table of the two point pieces",
    "fileformats._POINT_TYPES": "the inverse of _POINT_PIECES",
    "rankmethods._schur_blocks": "one entry per (a, p, x)",
    "schemes._MIX_KINDS": "a fixed table of the four mixes",
    "schemes._last_span": "the last (param, scheme) and its span data: one scheme",
    "varieties.monomial_exponents": "one entry per factor shape (n, d)",
    "varieties.monomial_index": "one entry per factor shape (n, d)",
    "varieties._lowerings": "one entry per factor shape (n, d)",
    "varieties._steps": "one entry per factor shape (n, d)",
    "varieties._chart_degrees": "one entry per variety (its factors)",
    "varieties._partial_sources": "one entry per variety (its factors)",
}


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


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
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


_CACHES = {"cache", "lru_cache"}
_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "Counter", "OrderedDict", "deque"}


def process_state(source: str) -> list[str]:
    """Module-level names that hold state for the life of the process.

    A function is state when a decorator is `cache` or `lru_cache`, bare,
    called or as an attribute (`functools.cache`); a name is when it is
    bound at module level to a dict, list or set display or comprehension,
    or to a call of `dict`, `list`, `set` or a `collections` container.
    """
    def cached(dec):
        dec = dec.func if isinstance(dec, ast.Call) else dec
        return (dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", None)) in _CACHES

    def container(value):
        if isinstance(value, ast.Call):
            f = value.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            return name in _CONTAINER_CALLS
        return isinstance(value, _CONTAINERS)

    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(cached(d) for d in node.decorator_list):
                out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            if container(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out += [t.id for t in targets if isinstance(t, ast.Name)]
    return out


def test_the_check_finds_process_state():
    source = ("import collections, functools\n"
              "from functools import cache, lru_cache\n"
              "@cache\ndef a(): pass\n"
              "@functools.lru_cache(maxsize=None)\ndef b(): pass\n"
              "@lru_cache\ndef c(): pass\n"
              "@staticmethod\ndef plain(): memo = {}\n"
              "TABLE = {1: 2}\n"
              "_seen: set = set()\n"
              "ROWS = [x for x in range(3)]\n"
              "COUNTS = collections.Counter()\n"
              "NAME, PAIR, EMPTY = 'x', (1, 2), None\n"
              "_last: list = [None, None]\n")
    assert process_state(source) == ["a", "b", "c", "TABLE", "_seen", "ROWS", "COUNTS", "_last"]


def test_every_piece_of_process_state_is_listed():
    found = [f"{p.stem}.{name}" for p in sorted(PACKAGE.glob("*.py"))
             for name in process_state(p.read_text(encoding="utf-8"))]
    assert sorted(found) == sorted(KEPT_STATE)


def dead_public_names(modules: dict[str, str], bench: list[str], init: str) -> list[str]:
    """Public module-level functions and classes that nothing listed above refers to.

    `modules` maps each library module's name to its source, `bench` holds
    the sources of the bench scripts and `init` that of `__init__.py`.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    named = {alias.asname or alias.name for node in ast.walk(ast.parse(init))
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    for source in bench:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    dead = []
    for modname, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in named):
                continue
            used = {n.id for other in trees.values() for top in other.body if top is not node
                    for n in ast.walk(top) if isinstance(n, ast.Name)}
            if node.name not in used:
                dead.append(f"{modname} line {node.lineno}: {node.name}")
    return dead


def test_the_check_finds_a_dead_public_name():
    modules = {
        "alg": ("def dead(): pass\n"
                "def recursive(n): return recursive(n - 1)\n"
                "class Unused: pass\n"
                "def used_next_door(): pass\n"
                "def exported(): pass\n"
                "def traced(): pass\n"
                "def called_by_bench(): pass\n"
                "def _private(): pass\n"),
        "cli": ("from .alg import used_next_door\n"
                "def main(): return used_next_door(), _private_twin()\n"
                "def _private_twin(): pass\n"),
    }
    bench = ["TARGETS = {('alg', 'traced'): 'alg.traced'}\n"
             "from cactusbarrier import alg, cli\n"
             "cli.main(); alg.called_by_bench()\n"]
    init = "from .alg import exported\n"
    assert dead_public_names(modules, bench, init) == [
        "alg line 1: dead", "alg line 2: recursive", "alg line 3: Unused"]


def test_every_public_name_has_a_caller():
    dead = dead_public_names({p.stem: p.read_text(encoding="utf-8") for p in MODULES},
                             [p.read_text(encoding="utf-8") for p in (ROOT / "bench").glob("*.py")],
                             (PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    # the allow-list holds exactly the names the check would flag
    assert sorted(d.rsplit(": ", 1)[1] for d in dead) == sorted(
        name for name in KEPT_PUBLIC if "." not in name)


def dead_methods(modules: dict[str, str], bench: list[str]) -> list[str]:
    """Methods and properties, dunders aside, that nothing listed refers to.

    `modules` maps each library module's name to its source and `bench`
    holds the sources of the bench scripts. A method is used when a module
    or a bench script refers to its name as an attribute (a use inside its
    own body does not count), or a bench script names it as a string.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    named = Counter(n.attr for tree in trees.values() for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute))
    for source in bench:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                named[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named[node.value] += 1
    dead = []
    for modname, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or node.name.startswith("__") and node.name.endswith("__")):
                    continue
                own = sum(isinstance(n, ast.Attribute) and n.attr == node.name
                          for n in ast.walk(node))
                if named[node.name] == own:
                    dead.append(f"{modname} line {node.lineno}: {cls.name}.{node.name}")
    return dead


def test_the_check_finds_a_dead_method():
    modules = {
        "alg": ("class Ring:\n"
                "    def __init__(self): self.x = self.used()\n"
                "    def used(self): return 1\n"
                "    def dead(self): pass\n"
                "    def recursive(self, n): return self.recursive(n - 1)\n"
                "    @property\n"
                "    def size(self): return 0\n"
                "    def traced(self): pass\n"
                "    def called_by_bench(self): pass\n"
                "    def _norm(self): pass\n"),
        "cli": "def main(r): return r.size\n",
    }
    bench = ["TARGETS = {('alg', 'traced'): 'alg.Ring.traced'}\n"
             "from cactusbarrier import alg\n"
             "alg.Ring().called_by_bench()\n"]
    assert dead_methods(modules, bench) == [
        "alg line 4: Ring.dead", "alg line 5: Ring.recursive", "alg line 10: Ring._norm"]


def test_every_method_has_a_caller():
    dead = dead_methods({p.stem: p.read_text(encoding="utf-8") for p in MODULES},
                        [p.read_text(encoding="utf-8") for p in (ROOT / "bench").glob("*.py")])
    assert sorted(d.rsplit(": ", 1)[1] for d in dead) == sorted(
        name for name in KEPT_PUBLIC if "." in name)


def test_the_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library example\n\n```python\n(.*?)^```", readme, re.M | re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_importing_the_cli_loads_neither_hashlib_nor_multiprocessing():
    # each is imported where it is used: hashlib (sha256 seeds, where the
    # interpreter has no builtin sha256) loads OpenSSL's libcrypto, several
    # MB of RSS, and multiprocessing only serves --jobs above 1, so a
    # process that never derives a seed or forks pays for neither
    code = ("import sys, cactusbarrier, cactusbarrier.cli; "
            "print(sorted({'hashlib', 'multiprocessing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"
