"""Replay recorded CLI streams byte for byte.

tests/golden/cases.json lists fixed `cactus-barrier` invocations. Each runs
in-process from tests/golden (input files are named by relative paths, which
some streams echo), and its exit code and stdout must equal `<name>.exit` and
`<name>.out`. A refactor that keeps the results and the rng consumption order
keeps every stream. To re-record after an intended change of output, run
from the repository root:

    PYTHONPATH=src python tests/test_golden.py

It rewrites only the streams whose exit code or bytes changed, and prints
`changed`, `unchanged` or `new` for each case.
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


VERIFY_JSON = [c for c in CASES if c["argv"][0] == "verify" and "json" in c["argv"]]


@pytest.mark.parametrize("case", VERIFY_JSON, ids=lambda c: c["name"])
def test_verify_stream_is_certified(case):
    # every recorded verify record states a rational rank, and the summary
    # counts the records it follows
    lines = (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8").splitlines()
    *records, summary = [json.loads(line) for line in lines]
    assert summary["kind"] == "summary" and summary["trials"] == len(records)
    for rec in records:
        assert rec["qq_confirmed"] is True and rec["field"] == "QQ"
        # a rank mod p can only undershoot the rational rank
        assert rec["fp_rank"] is None or rec["fp_rank"] <= rec["rank"]
        assert rec["passed"] == (rec["rank"] <= rec["bound"])
    failed = [rec for rec in records if not rec["passed"]]
    assert summary["passed"] == len(records) - len(failed)
    assert summary["failed"] == len(failed)
    assert summary["qq_confirmed_failures"] == sum(rec["qq_confirmed"] for rec in failed)


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for case in CASES:
        code, stream = run_case(case)
        out_path = GOLDEN / f"{case['name']}.out"
        exit_path = GOLDEN / f"{case['name']}.exit"
        exit_text = f"{code}\n"
        if not (out_path.exists() and exit_path.exists()):
            status = "new"
        elif out_path.read_bytes() == stream and exit_path.read_text() == exit_text:
            status = "unchanged"
        else:
            status = "changed"
        if status != "unchanged":
            out_path.write_bytes(stream)
            exit_path.write_text(exit_text, encoding="utf-8")
        print(f"{case['name']}: {status}, exit {code}, {len(stream)} bytes")
