"""Replay recorded CLI streams byte for byte.

tests/golden/cases.json lists fixed `cactus-barrier` invocations. Each runs
in-process from tests/golden (input files are named by relative paths, which
some streams echo), and its exit code and stdout must equal `<name>.exit` and
`<name>.out`. A refactor that keeps the results and the rng consumption order
keeps every stream. To re-record after an intended change of output, run
from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
from pathlib import Path

import pytest

from cactusbarrier import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def run_case(case: dict) -> tuple[int, bytes]:
    """(exit code, stdout bytes) of one case, run from the current directory."""
    fixtures = Path(cli.__file__).resolve().parent / "fixtures"
    argv = [a.replace("{fixtures}", str(fixtures)) for a in case["argv"]]
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_golden_stream(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, stream = run_case(case)
    assert code == int((GOLDEN / f"{case['name']}.exit").read_text())
    assert stream == (GOLDEN / f"{case['name']}.out").read_bytes()


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for case in CASES:
        code, stream = run_case(case)
        (GOLDEN / f"{case['name']}.out").write_bytes(stream)
        (GOLDEN / f"{case['name']}.exit").write_text(f"{code}\n", encoding="utf-8")
        print(f"{case['name']}: exit {code}, {len(stream)} bytes")
