"""Which functions and methods of `cactusbarrier.fields` do the programs reach?

    PYTHONPATH=src python3 tests/reach_fields.py [--seed N]

Runs every golden CLI case of tests/golden/cases.json in-process, from
tests/golden and at --jobs 1 (worker processes would escape the hook), then
one pass of each bench workload (campaign, ladder, limits) through
bench/workloads.py as it stands. A `sys.setprofile` hook records every call
of a function defined in cactusbarrier/fields.py; the script prints each
reached qualified name with its call count, most called first. It is not
collected by pytest, and takes about 4 s on a 2-core host.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from cactusbarrier import cli, fields  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"


def golden_argvs() -> list[list[str]]:
    """The golden cases' argument lists, with fixture paths filled in and --jobs 1."""
    fixtures = str(Path(cli.__file__).resolve().parent / "fixtures")
    out = []
    for case in json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8")):
        argv = [a.replace("{fixtures}", fixtures) for a in case["argv"]]
        if "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = "1"
        out.append(argv)
    return out


def run_workload(workload, seed: int) -> None:
    """One pass of a bench workload: every operation, each result sent back."""
    gen = workload.ops(seed)
    result = None
    while True:
        try:
            op = gen.send(result)
        except StopIteration:
            return
        result = op.fn()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20260810)
    args = parser.parse_args()

    import workloads  # imported here, after sys.path holds bench/

    target = fields.__file__
    calls: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == target:
            name = getattr(frame.f_code, "co_qualname", frame.f_code.co_name)
            if "<" not in name:  # comprehensions run inside a function already counted
                calls[name] += 1

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(hook)
        try:
            os.chdir(GOLDEN)
            for argv in golden_argvs():
                cli.main(argv, out=io.StringIO())
            os.chdir(cwd)
            for workload in (workloads.Campaign(), workloads.Ladder(Path(tmp)),
                             workloads.Limits()):
                run_workload(workload, args.seed)
        finally:
            sys.setprofile(None)
            os.chdir(cwd)

    for name, count in calls.most_common():
        print(f"{name}\t{count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
