"""Span tracing for the traced benchmark run, from outside the program.

The tracer replaces selected public functions of cactusbarrier by wrappers
that record one span per call: name, start, end, parent span and the
benchmark operation it belongs to. Every binding of a target function in a
cactusbarrier module is replaced, so calls between modules (for example
``cactusbarrier.cli.verify_instance`` or ``cactusbarrier.schemes.nullspace``)
and the benchmark's own calls through module attributes are both seen.
Spans stay in memory until ``write`` is called at the end of the run.

Nothing under ``src/`` is modified; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import json
import sys
import time
from statistics import median

# (defining module, function name) -> span name
TARGETS = {
    ("barrier", "verify_instance"): "barrier.verify_instance",
    ("barrier", "minimal_factor_subspace"): "barrier.factor_subspace",
    ("rankmethods", "check_k_consistency"): "cli.validate_k",
    ("rankmethods", "parse_method"): "rankmethods.method_build",
    ("rankmethods", "builtin_methods"): "rankmethods.method_build",
    ("rankmethods", "evaluate_map"): "rankmethods.evaluate_map",
    ("fileformats", "load_tensor"): "fileformats.load",
    ("fileformats", "load_scheme"): "fileformats.load",
    ("fileformats", "load_family"): "fileformats.load",
    ("schemes", "scheme_span_vectors"): "schemes.span_vectors",
    ("schemes", "scheme_span"): "schemes.scheme_span",
    ("schemes", "family_span"): "schemes.family_span",
    ("schemes", "limit_of_spans"): "schemes.limit_of_spans",
    ("exactalg", "rank"): "exactalg.rank",
    ("exactalg", "rank_of_rows"): "exactalg.rank",
    ("exactalg", "nullspace"): "exactalg.nullspace",
}

# Per-layer metrics, in the order they are printed: name -> unit.
PER_LAYER = {
    "cli.per_trial_overhead_ms": "ms",
    "cli.validate_k_ms": "ms",
    "rankmethods.method_build_ms": "ms",
    "fileformats.load_ms": "ms",
    "schemes.span_vectors_ms": "ms",
    "schemes.span_vectors_calls": "count",
    "schemes.scheme_span_ms": "ms",
    "barrier.factor_subspace_ms": "ms",
    "rankmethods.evaluate_map_ms": "ms",
    "rankmethods.evaluate_map_calls": "count",
    "rankmethods.matrix_cells": "count",
    "exactalg.rank_qq_ms": "ms",
    "exactalg.rank_qq_calls": "count",
    "exactalg.rank_qq_cells": "count",
    "exactalg.rank_fp_ms": "ms",
    "exactalg.rank_fp_calls": "count",
    "exactalg.rank_poly_ms": "ms",
    "exactalg.rank_poly_calls": "count",
    "schemes.family_span_ms": "ms",
    "schemes.limit_of_spans_ms": "ms",
    "schemes.saturation_steps": "count",
    "barrier.verify_instance_ms": "ms",
    "barrier.qq_confirmed": "count",
    "barrier.screen_only": "count",
    "barrier.regime_vacuous": "count",
    "barrier.regime_tight": "count",
    "barrier.regime_slack": "count",
}


def _field_kind(field) -> str:
    name = type(field).__name__
    if name == "RationalField":
        return "qq"
    if name == "PrimeField":
        return "fp"
    return "poly"


def _rank_attrs(args) -> dict:
    if len(args) == 1:  # rank(matrix)
        field, rows = args[0].field, args[0].rows
    else:  # rank_of_rows(field, rows)
        field, rows = args[0], args[1]
    ncols = len(rows[0]) if rows else 0
    return {"field": _field_kind(field), "cells": len(rows) * ncols}


def _evaluate_map_attrs(result) -> dict:
    return {"cells": result.nrows * result.ncols}


def _verify_attrs(args, kwargs, result) -> dict:
    method = args[2] if len(args) > 2 else kwargs["method"]
    cap = method.k * result.degree
    if cap >= min(method.map.a, method.map.b):
        regime = "vacuous"
    elif result.rank == cap:
        regime = "tight"
    else:
        regime = "slack"
    return {"qq_confirmed": result.qq_confirmed, "regime": regime}


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self):
        # span: [id, parent, name, start, end, op, attrs]
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self.op = None
        self.pass_index = 0

    # -- recording -------------------------------------------------------
    def begin(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1][0] if self._stack else None, name,
                time.perf_counter(), None, self.op, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: list, attrs: dict | None = None) -> None:
        span[4] = time.perf_counter()
        span[6] = attrs
        self._stack.pop()

    def start_op(self, key) -> None:
        """Mark the benchmark operation that the following spans belong to."""
        self.op = (self.pass_index, key)

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(span, {"error": True})
                raise
            if name == "exactalg.rank":
                attrs = _rank_attrs(args)
            elif name == "rankmethods.evaluate_map":
                attrs = _evaluate_map_attrs(result)
            elif name == "barrier.verify_instance":
                attrs = _verify_attrs(args, kwargs, result)
            else:
                attrs = None
            tracer.end(span, attrs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        """Replace every binding of each target in the cactusbarrier modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "cactusbarrier" or name.startswith("cactusbarrier.")}
        for (modname, fname), span_name in TARGETS.items():
            fn = getattr(modules[f"cactusbarrier.{modname}"], fname)
            wrapper = self._wrap(fn, span_name)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # -- output ----------------------------------------------------------
    def write(self, path) -> None:
        """Write the spans as JSON lines: one header line, then one list per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start", "end",
                                            "op", "attrs"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def per_layer(self, trials_per_pass: int, scale, ref_time) -> dict:
        """Per-layer metrics: median over passes of each per-pass total.

        A span counts towards its name only when no ancestor span has the
        same name, so nested calls (rank inside rank_of_rows) are not counted
        twice. ``trials_per_pass`` is the number of CLI verify trials per
        pass; ``scale(start)`` normalizes a span's duration for host speed,
        and ``ref_time(start, end)`` is the reference-loop time inside a
        benchmark span, which it does not count.
        """
        by_id = {s[0]: s for s in self.spans}
        passes: dict = {}
        for span in self.spans:
            if span[5] is None:
                continue
            name = span[2]
            parent = span[1]
            nested = False
            inside_limit = False
            inside_cli = False
            while parent is not None:
                ps = by_id[parent]
                if ps[2] == name:
                    nested = True
                if ps[2] == "schemes.limit_of_spans":
                    inside_limit = True
                if ps[2] == "bench.cli_verify":
                    inside_cli = True
                parent = ps[1]
            if nested:
                continue
            totals = passes.setdefault(span[5][0], {})
            wall = span[4] - span[3]
            if name.startswith("bench."):
                wall -= ref_time(span[3], span[4])
            ms = wall * 1e3 * scale(span[3])
            attrs = span[6] or {}

            def add(key, value):
                totals[key] = totals.get(key, 0) + value

            if name == "exactalg.rank":
                kind = attrs.get("field")
                add(f"exactalg.rank_{kind}_ms", ms)
                add(f"exactalg.rank_{kind}_calls", 1)
                if kind == "qq":
                    add("exactalg.rank_qq_cells", attrs.get("cells", 0))
            elif name == "exactalg.nullspace":
                if inside_limit:
                    add("schemes.saturation_steps", 1)
            elif name == "rankmethods.evaluate_map":
                add("rankmethods.evaluate_map_ms", ms)
                add("rankmethods.evaluate_map_calls", 1)
                add("rankmethods.matrix_cells", attrs.get("cells", 0))
            elif name == "schemes.span_vectors":
                add("schemes.span_vectors_ms", ms)
                add("schemes.span_vectors_calls", 1)
            elif name == "barrier.verify_instance":
                add("barrier.verify_instance_ms", ms)
                if "regime" in attrs:
                    add("barrier.qq_confirmed" if attrs["qq_confirmed"]
                        else "barrier.screen_only", 1)
                    add(f"barrier.regime_{attrs['regime']}", 1)
                if inside_cli:
                    add("cli.verify_instance_ms", ms)
            elif name == "bench.cli_verify":
                add("cli.invocation_ms", ms)
            else:
                add(name + "_ms", ms)
        out = {}
        for metric in PER_LAYER:
            if metric == "cli.per_trial_overhead_ms":
                vals = [(t.get("cli.invocation_ms", 0) - t.get("cli.verify_instance_ms", 0))
                        / trials_per_pass if trials_per_pass else 0.0
                        for t in passes.values()]
            else:
                vals = [t.get(metric, 0) for t in passes.values()]
            out[metric] = median(vals) if vals else 0
        return out
