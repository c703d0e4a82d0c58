"""Self-tests of the benchmark's output checks: each must reject a planted wrong result.

    python3 -m pytest -q bench/selftest_checks.py

The file name keeps it out of the default test collection; it runs only
when named.
"""

import copy
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from cactusbarrier import cli, schemes, varieties  # noqa: E402
from cactusbarrier.fields import QQ, PolyRing  # noqa: E402


def _good_record():
    return {"index": 0, "variety": "segre:3x3x3", "method": "koszul:p=1", "k": 2,
            "degree": 3, "a": 9, "b": 9, "rank": 6, "fp_rank": 6, "span_dim": 3,
            "qq_confirmed": True, "factor_dim": 6, "combination": [1, 2, 3]}


def test_campaign_record_accepts_a_valid_instance():
    assert checks.check_campaign_record(_good_record()) == []


def test_campaign_record_rejects_rank_one_above_k_r():
    rec = _good_record()
    rec["rank"] = rec["k"] * rec["degree"] + 1
    rec["fp_rank"] = rec["rank"]
    assert any("rank 7 > k*r" in e for e in checks.check_campaign_record(rec))


def test_campaign_record_rejects_each_planted_fault():
    for field, value in (("factor_dim", 7), ("span_dim", 4), ("fp_rank", 7),
                         ("fp_rank", None), ("qq_confirmed", False)):
        rec = _good_record()
        rec[field] = value
        assert checks.check_campaign_record(rec), field


def test_campaign_run_passes_its_checks_and_rejects_a_changed_rank():
    camp = workloads.Campaign()
    camp.SCHEMES_PER_VARIETY = 2
    gen = camp.ops(7)
    results = {}
    result = None
    for op in iter(lambda: gen.send(result), None):
        result = op.fn()
        results[op.key] = result
        if len(results) > 12:
            break
    gen.close()
    assert camp.check(results, 7) == []
    key = next(k for k in results if k[0] == "inst" and k[1] % camp.SYMPY_EVERY == 0)
    report, factor_dim, method, scheme = results[key]
    bad = copy.copy(report)
    bad.rank = report.rank - 1
    results[key] = (bad, factor_dim, method, scheme)
    assert any("sympy rank" in e for e in camp.check(results, 7))


def test_rank_sample_rejects_an_off_by_one_rank():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert checks.check_rank_sample("m", rows, 1) == []
    assert checks.check_rank_sample("m", rows, 2)


def _stream(trials=3, seed=5, method="koszul:p=1"):
    out = io.StringIO()
    code = cli.main(["verify", "--variety", "segre:3x3x3", "--scheme", "random:deg=4",
                     "--method", method, "--trials", str(trials), "--seed", str(seed),
                     "--format", "json"], out)
    return code, out.getvalue()


def test_ladder_stream_accepts_a_real_run():
    code, text = _stream()
    assert checks.check_ladder_stream("r", code, text, 3, 4, 2) == []


def test_ladder_stream_rejects_planted_faults():
    code, text = _stream()
    lines = text.splitlines()
    rec = json.loads(lines[0])
    rec["rank"] = rec["bound"] + 1
    bad_rank = "\n".join([json.dumps(rec)] + lines[1:]) + "\n"
    assert any("> bound" in e for e in checks.check_ladder_stream("r", code, bad_rank, 3, 4, 2))
    rec = json.loads(lines[0])
    rec["span_dim"] = rec["degree"] + 1
    bad_span = "\n".join([json.dumps(rec)] + lines[1:]) + "\n"
    assert checks.check_ladder_stream("r", code, bad_span, 3, 4, 2)
    assert checks.check_ladder_stream("r", 1, text, 3, 4, 2)
    short = "\n".join(lines[1:]) + "\n"
    assert checks.check_ladder_stream("r", code, short, 3, 4, 2)
    assert checks.check_ladder_stream("r", code, text, 4, 4, 2)


def test_repeat_rejects_a_stream_that_differs_in_one_byte():
    _, text = _stream()
    assert checks.check_repeat("r", text, _stream()[1]) == []
    i = text.index('"rank": ') + len('"rank": ')
    changed = text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]
    assert checks.check_repeat("r", text, changed) == [
        f"r: repeated stream differs from the first at byte {i}"]


def test_same_map_rejects_a_custom_rung_with_one_rank_changed():
    _, text = _stream()
    assert checks.check_same_map(text, text) == []
    lines = text.splitlines()
    rec = json.loads(lines[1])
    rec["rank"] -= 1
    changed = "\n".join([lines[0], json.dumps(rec)] + lines[2:]) + "\n"
    assert checks.check_same_map(text, changed)


def _collision(k=3, seed=11):
    param = varieties.parse_variety("veronese:2,3")
    pieces, limit = workloads.collision_family(param, k, random.Random(seed), PolyRing(QQ))
    return param, pieces, limit


def _limit_errors(param, pieces, limit):
    cmp = schemes.span_of_limit_vs_limit_of_spans(param, pieces, limit)
    oracle = checks.ChartOracle(param.spec)
    generic = oracle.rank([v for p in pieces
                           for v in workloads.piece_vectors(oracle, p, Fraction(3, 7))])
    limit_rank = oracle.rank([v for p in limit.pieces for v in workloads.piece_vectors(oracle, p)])
    dims = (cmp.dim_span_limit, cmp.dim_limit_spans, cmp.inclusion_holds)
    return checks.check_limit("c", dims, generic, limit_rank), dims, generic, limit_rank


def test_limit_accepts_the_collision_with_its_curvilinear_limit():
    errors, dims, generic, _ = _limit_errors(*_collision())
    assert errors == [] and dims == (3, 3, True) and generic == 3


def test_limit_rejects_a_stated_limit_moved_off_the_curve():
    param, pieces, limit = _collision()
    germ = limit.pieces[0].germ
    moved = varieties.Germ(tuple(x + 1 if j == 0 else x for j, x in enumerate(germ.base)),
                           germ.coeffs)
    off = schemes.FiniteScheme((schemes.CurvilinearGerm(moved, limit.pieces[0].length),))
    errors, _, _, _ = _limit_errors(param, pieces, off)
    assert any("not inside the limit of spans" in e for e in errors)


def test_limit_rejects_wrong_dimensions():
    assert checks.check_limit("c", (3, 4, True), 3, 3)
    assert checks.check_limit("c", (2, 3, True), 3, 3)


def test_fixture_check_rejects_wrong_dimensions():
    good = json.dumps({"dim_span_limit": 2, "dim_limit_spans": 3,
                       "inclusion_holds": True, "strict": True})
    assert checks.check_fixture("collinear_collision.json", 0, good) == []
    assert checks.check_fixture("tangent_collision.json", 0, good)
    assert checks.check_fixture("collinear_collision.json", 1, good)


def test_chart_oracle_matches_the_program_on_random_schemes():
    rng = random.Random(3)
    for spec in workloads.CAMPAIGN_VARIETIES:
        param = varieties.parse_variety(spec)
        oracle = checks.ChartOracle(spec)
        for _ in range(3):
            scheme = schemes.random_scheme(param, rng.randint(1, 5), mix="mixed", bound=2,
                                           rng=rng)
            ours = oracle.rank([v for p in scheme.pieces
                                for v in workloads.piece_vectors(oracle, p)])
            assert ours == schemes.scheme_span(param, scheme).dim, spec
