"""The benchmark's tracer wraps program functions by name; those names must exist.

`bench/tracer.py` replaces `cactusbarrier.<module>.<name>` for every entry of
its TARGETS, so renaming one of those functions breaks `--trace 1` at install
time. The tracer is loaded by path, as the benchmark loads it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_a_program_function():
    targets = _load_tracer().TARGETS
    assert targets
    missing = []
    for module_name, func_name in targets:
        module = importlib.import_module(f"cactusbarrier.{module_name}")
        func = getattr(module, func_name, None)
        if not inspect.isfunction(func) or func.__module__ != module.__name__:
            missing.append(f"cactusbarrier.{module_name}.{func_name}")
    assert not missing, f"trace targets that are not functions defined there: {missing}"
