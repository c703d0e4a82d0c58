"""Benchmark for cactusbarrier: one workload per process, one JSON result line.

    python3 bench/run.py --workload campaign --seed 20260810 --seconds 30 --trace 0

Runs whole passes of the workload until --seconds have elapsed (at least
MIN_PASSES), times every operation of every pass on its own, and reports
figures built from per-operation medians across passes. Outputs are checked
after the timed passes. With --trace 1 the run wraps the program's public
functions in spans (bench/tracer.py), writes the spans to bench/_out/ and
prints the per-layer metrics instead of the end-to-end ones.

Times are host-normalized. The host this runs on changes speed by tens of
percent over seconds to minutes, for reasons outside the program. So every
REF_INTERVAL_S the runner also times `reference_loop`, a fixed piece of
pure-Python Fraction and dict work that calls nothing of the program, and
scales each operation's wall time by REF_NOMINAL_S over the reference time
measured around it. A slowdown that hits both cancels; a change in the
program does not touch the reference. Raw wall-clock figures go to stderr.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 when every check passed, 1 when a check failed and 2
when the program's sources are not there.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "_out"
DEFAULT_SEED = 20260810
MIN_PASSES = 3
WORKLOADS = ("campaign", "ladder", "limits")
REF_INTERVAL_S = 0.1
REF_NOMINAL_S = 0.0015  # reference_loop's time on the reference host when it is quiet
# String hashing is salted per process, and the salt alone moves a 1.5 ms
# operation by up to 8% from one process to the next; a fixed salt keeps runs
# comparable. The program's output does not depend on it.
HASH_SEED = "0"


def reference_loop() -> Fraction:
    """Fixed work in the program's idiom (Fractions, big ints, dicts); calls nothing of it."""
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(1, i)
    d: dict = {}
    for i in range(3000):
        d[i % 97] = d.get(i % 97, 0) + i * i
    return s


class RefClock:
    """Samples of reference_loop's wall time, and the scale they give a moment of the run."""

    def __init__(self):
        self.times: list = []  # end of each sample
        self.durations: list = []
        self.spent = 0.0
        self.last = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0
        self.last = t1

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= REF_INTERVAL_S:
            self.sample()

    def scale(self, t: float) -> float:
        """REF_NOMINAL_S over the mean of the reference samples just before and after t."""
        i = bisect.bisect_right(self.times, t)
        around = self.durations[max(i - 1, 0):i + 1]
        return REF_NOMINAL_S * len(around) / sum(around)

    def spent_between(self, start: float, end: float) -> float:
        """Time spent sampling within [start, end], which a span there must not count."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return sum(self.durations[lo:hi])


def run_passes(workload, seed: int, seconds: float, tracer, clock: RefClock) -> dict:
    """Run passes until `seconds` elapse.

    Returns per-key lists of (start, wall seconds), per-pass lists of set-up
    segments, the first pass's results and the counts of operations.
    """
    times: dict = {}
    results: dict = {}
    prep: list = []
    attempted = failed = 0
    mismatches = []
    start = time.perf_counter()
    while len(prep) < MIN_PASSES or time.perf_counter() - start < seconds:
        pass_index = len(prep)
        if tracer:
            tracer.pass_index = pass_index
        clock.sample()
        gen = workload.ops(seed)
        setup: list = []
        result = None
        while True:
            if tracer:
                tracer.start_op("prep")
            t0 = time.perf_counter()
            try:
                op = gen.send(result)
            except StopIteration:
                setup.append((t0, time.perf_counter() - t0))
                break
            setup.append((t0, time.perf_counter() - t0))
            if tracer:
                tracer.start_op(op.key)
                span = tracer.begin(op.span)
            attempted += 1
            spent = clock.spent
            t0 = time.perf_counter()
            try:
                result = op.fn()
            except Exception as e:  # an operation that raises counts as failed
                elapsed = time.perf_counter() - t0
                failed += 1
                result = e
            else:
                elapsed = time.perf_counter() - t0
            if tracer:
                tracer.end(span)
            # a long operation may sample the reference inside (ladder, between trials)
            times.setdefault(op.key, []).append((t0, elapsed - (clock.spent - spent)))
            if pass_index == 0:
                results[op.key] = result
            elif not workload.same(op.key, results[op.key], result):
                mismatches.append(f"{op.key}: pass {pass_index} differs from pass 0")
            clock.maybe_sample()
        clock.sample()
        prep.append(setup)
    return {"times": times, "results": results, "prep": prep, "attempted": attempted,
            "failed": failed, "mismatches": mismatches}


def end_to_end(summary: dict, setup_s: float, rss_mb: float) -> dict:
    from workloads import percentile, tail_percentile

    inst = summary["instance_ms"]
    return {
        "instances_per_s": {"value": summary["instances"] / summary["seconds"], "unit": "1/s"},
        "instance_p50_ms": {"value": median(inst), "unit": "ms"},
        "instance_tail_ms": {"value": percentile(inst, tail_percentile(len(inst))),
                             "unit": "ms"},
        "invocation_p50_ms": {"value": median(summary["invocation_ms"]), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def figures(workload, run: dict, samples: list, import_s: float, rss_mb: float,
            scale) -> tuple[dict, dict]:
    """(summary, end-to-end figures) from per-key medians of scaled operation times."""
    med = {key: median(dt * scale(t) for t, dt in ts) for key, ts in run["times"].items()}
    if workload.name == "ladder":
        by_trial: dict = {}
        for key, t, dt in samples:
            by_trial.setdefault(key, []).append(dt * scale(t))
        summary = workload.summarize(med, {k: median(v) for k, v in by_trial.items()})
    else:
        summary = workload.summarize(med)
    setup_s = import_s + median(sum(dt * scale(t) for t, dt in p) for p in run["prep"])
    return summary, end_to_end(summary, setup_s, rss_mb)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))

    if not (SRC / "cactusbarrier" / "__init__.py").is_file():
        print(f"error: the cactusbarrier sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    clock = RefClock()
    clock.sample()
    t0 = time.perf_counter()
    import workloads  # imports cactusbarrier
    import_wall = time.perf_counter() - t0
    clock.sample()
    import_s = import_wall * clock.scale(t0)

    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "campaign":
        workload = workloads.Campaign()
    elif args.workload == "ladder":
        workload = workloads.Ladder(OUT_DIR, clock.maybe_sample)
    else:
        workload = workloads.Limits()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    run = run_passes(workload, args.seed, args.seconds, tracer, clock)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    samples = getattr(workload, "trial_times", [])
    summary, metrics = figures(workload, run, samples, import_s, rss_mb, clock.scale)
    _, wall = figures(workload, run, samples, import_wall, rss_mb, lambda t: 1.0)

    errors = list(run["mismatches"])
    errors += [f"{k}: raised {r!r}" for k, r in run["results"].items()
               if isinstance(r, Exception)]
    if not errors:
        errors += workload.check(run["results"], args.seed)
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)

    n = len(summary["instance_ms"])
    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={len(run['prep'])} "
          f"instances/pass={summary['instances']} instance samples={n} "
          f"tail=p{workloads.tail_percentile(n)} reference loop median="
          f"{median(clock.durations) * 1e3:.3f}ms", file=sys.stderr)
    for label, figs in (("normalized", metrics), ("wall", wall)):
        print(f"  {label}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in figs.items()),
              file=sys.stderr)
    if tracer:
        trace_path = OUT_DIR / f"trace_{args.workload}_{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path}", file=sys.stderr)
        from tracer import PER_LAYER

        trials = summary["instances"] if args.workload == "ladder" else 0
        layer = tracer.per_layer(trials, clock.scale, clock.spent_between)
        metrics = {k: {"value": layer[k], "unit": unit} for k, unit in PER_LAYER.items()}
    print(json.dumps({"correct": not errors, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
