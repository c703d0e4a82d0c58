"""The benchmark calls the program by name; those names and signatures must hold.

`bench/tracer.py` replaces `cactusbarrier.<module>.<name>` for every entry of
its TARGETS, so renaming one of those functions breaks `--trace 1` at install
time. `bench/workloads.py` calls the library directly, so a changed signature
breaks the benchmark; the first operations of the campaign and limits
workloads, and the ladder's first rung and its custom-map rung, run here, and
their results pass the workloads' own checks. Building the ladder replaces
`cli._verify_trial`, so its test restores the function afterwards.
Bench modules are loaded by path, with bench/ on sys.path as the benchmark
runs them.
"""

import importlib
import importlib.util
import inspect
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cactusbarrier.fields import QQ
from cactusbarrier.exactalg import rank_of_rows
from cactusbarrier.schemes import CurvilinearGerm, FirstNeighborhood, ReducedPoint
from cactusbarrier.varieties import Germ, parse_variety

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 20260810  # the benchmark's default seed


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))  # workloads.py imports checks.py
    try:
        yield _load("bench_workloads", BENCH / "workloads.py")
    finally:
        sys.path.remove(str(BENCH))
        sys.modules.pop("bench_workloads", None)
        sys.modules.pop("checks", None)


def _first_results(workload, n: int) -> dict:
    """The results of a pass's first `n` operations, driven as the runner drives them."""
    gen = workload.ops(SEED)
    results: dict = {}
    result = None
    for _ in range(n):
        op = gen.send(result)
        result = results[op.key] = op.fn()
    gen.close()
    return results


def test_every_trace_target_is_a_program_function():
    targets = _load("bench_tracer", BENCH / "tracer.py").TARGETS
    assert targets
    missing = []
    for module_name, func_name in targets:
        module = importlib.import_module(f"cactusbarrier.{module_name}")
        func = getattr(module, func_name, None)
        if not inspect.isfunction(func) or func.__module__ != module.__name__:
            missing.append(f"cactusbarrier.{module_name}.{func_name}")
    assert not missing, f"trace targets that are not functions defined there: {missing}"


@pytest.mark.parametrize("name, n", [("Campaign", 6), ("Limits", 3)])
def test_first_workload_operations_pass_their_checks(workloads, name, n):
    workload = getattr(workloads, name)()
    results = _first_results(workload, n)
    assert len(results) == n
    assert workload.check(results, SEED) == []


def test_oracle_piece_vectors_for_every_piece_type(workloads):
    param = parse_variety("segre:2x2x2")
    oracle = workloads.checks.ChartOracle(param.spec)
    point = (Fraction(2), Fraction(-1), Fraction(3))
    germ = Germ(point, ((Fraction(1), Fraction(2), Fraction(-1)),))
    for piece in (ReducedPoint(point), CurvilinearGerm(germ, 2), FirstNeighborhood(point)):
        vectors = workloads.piece_vectors(oracle, piece)
        assert len(vectors) == piece.degree, piece
        assert oracle.rank(vectors) == rank_of_rows(QQ, piece.span_vectors(param, QQ)), piece


def test_ladder_first_and_custom_rungs_pass_their_checks(workloads, monkeypatch, tmp_path):
    from cactusbarrier import cli

    # the ladder wraps cli._verify_trial in a timer; monkeypatch puts it back
    monkeypatch.setattr(cli, "_verify_trial", cli._verify_trial)
    ladder = workloads.Ladder(tmp_path)
    last = ("rung", len(ladder.rungs) - 1)
    results = {op.key: op.fn() for op in ladder.ops(SEED) if op.key in (("rung", 0), last)}
    assert list(results) == [("rung", 0), last]
    assert ladder.check(results, SEED) == []
