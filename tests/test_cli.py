import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

import cactusbarrier.cli as cli
from cactusbarrier.barrier import BarrierReport
from cactusbarrier.fields import PrimeField
from cactusbarrier.fileformats import (
    FileFormatError,
    load_tensor,
    save_tensor,
    scheme_from_dict,
    scheme_to_dict,
    tensor_from_dict,
    tensor_to_dict,
)
from cactusbarrier.rankmethods import DenseTensor, SymmetricForm
from cactusbarrier.schemes import random_scheme
from cactusbarrier.varieties import parse_variety

FIXTURES = os.path.join(os.path.dirname(cli.__file__), "fixtures")


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def test_tensor_file_round_trip(tmp_path):
    t = DenseTensor((2, 3), ["1/2", 0, -3, "7/5", 2, 1])
    path = tmp_path / "t.json"
    save_tensor(path, t)
    back = load_tensor(path)
    assert back.shape == t.shape and back.entries == t.entries
    # and the dict round-trips identically
    assert tensor_to_dict(tensor_from_dict(tensor_to_dict(t))) == tensor_to_dict(t)


def test_symmetric_tensor_round_trip():
    f = SymmetricForm(3, 3, {(3, 0, 0): "2/3", (1, 1, 1): -1})
    doc = tensor_to_dict(f)
    back = tensor_from_dict(doc)
    assert back.terms == f.terms
    assert tensor_to_dict(back) == doc


def test_sparse_tensor_parsing():
    doc = {
        "format": "tensorfile/1",
        "kind": "sparse",
        "shape": [2, 2],
        "entries": [{"idx": [0, 0], "value": "1"}, {"idx": [1, 1], "value": "1/2"}],
    }
    t = tensor_from_dict(doc)
    assert t.entries[0] == 1 and t.entries[3] == tensor_from_dict(doc).entries[3]
    with pytest.raises(FileFormatError):
        tensor_from_dict({**doc, "entries": [{"idx": [2, 0], "value": "1"}]})


def test_scheme_json_round_trip():
    p = parse_variety("segre:2x2x2")
    sch = random_scheme(p, 5, mix="mixed", bound=3, rng=random.Random(5))
    doc = scheme_to_dict(sch)
    assert scheme_to_dict(scheme_from_dict(doc)) == doc


def test_cmd_bound_diagonal_flattening(tmp_path):
    path = tmp_path / "diag.json"
    save_tensor(path, DenseTensor.diagonal((3, 3, 3), 3))
    code, out = run(["bound", "--tensor", str(path), "--method", "flattening:split=1|23"])
    assert code == 0
    assert "rank M(F) = 3" in out
    assert "border rank >= 3" in out
    assert "cactus ceiling g = 14" in out


def test_cmd_bound_diagonal_koszul(tmp_path):
    path = tmp_path / "diag.json"
    save_tensor(path, DenseTensor.diagonal((3, 3, 3), 3))
    code, out = run(["bound", "--tensor", str(path), "--method", "koszul:p=1",
                     "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 6 and doc["k"] == 2 and doc["bound"] == 3
    assert doc["cactus_ceiling"] == 14


def test_cmd_bound_symmetric(tmp_path):
    path = tmp_path / "form.json"
    save_tensor(path, SymmetricForm(2, 3, {(3, 0): 1, (0, 3): 1}))
    code, out = run(["bound", "--tensor", str(path), "--method", "catalecticant:i=1"])
    assert code == 0
    assert "rank M(F) = 2" in out


def test_cmd_bound_shape_mismatch_is_usage_error(tmp_path):
    path = tmp_path / "diag.json"
    save_tensor(path, DenseTensor.diagonal((3, 3, 3), 3))
    code, _ = run(["bound", "--tensor", str(path), "--method", "flattening:split=1|23",
                   "--variety", "segre:2x2x2"])
    assert code == 2


def test_cmd_verify_pass_and_determinism():
    argv = ["verify", "--variety", "segre:2x2x2", "--scheme", "random:deg=3",
            "--method", "flattening:split=1|23", "--trials", "8", "--seed", "9",
            "--format", "json"]
    code1, out1 = run(argv)
    code2, out2 = run(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = [json.loads(l) for l in out1.splitlines()]
    assert lines[-1]["kind"] == "summary"
    assert lines[-1]["passed"] == 8
    for rec in lines[:-1]:
        assert rec["passed"] is True


def test_cmd_verify_zero_trials():
    code, out = run(["verify", "--variety", "segre:2x2x2", "--scheme", "random:deg=3",
                     "--method", "flattening:split=1|23", "--trials", "0",
                     "--format", "json"])
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["trials"] == 0


def test_cmd_verify_degree_above_ambient_still_passes():
    code, out = run(["verify", "--variety", "segre:2x2x2", "--scheme", "random:deg=10",
                     "--method", "flattening:split=1|23", "--trials", "3", "--seed", "1"])
    assert code == 0
    assert "3/3 pass" in out


def test_cmd_verify_full_confirmation_and_jobs():
    argv = ["verify", "--variety", "veronese:2,3", "--scheme", "random:deg=4",
            "--method", "catalecticant:i=1", "--trials", "6", "--seed", "4",
            "--format", "json"]
    code1, out1 = run(argv)
    code2, out2 = run(argv + ["--jobs", "2"])
    assert code1 == code2 == 0
    assert out1 == out2
    for rec in [json.loads(l) for l in out1.splitlines()][:-1]:
        assert rec["qq_confirmed"] is True
        assert rec["field"] == "QQ"


def test_cmd_verify_scheme_file(tmp_path):
    p = parse_variety("segre:2x2x2")
    sch = random_scheme(p, 3, mix="mixed", bound=2, rng=random.Random(11))
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(scheme_to_dict(sch)))
    code, out = run(["verify", "--variety", "segre:2x2x2", "--scheme", str(path),
                     "--method", "koszul:p=1", "--trials", "4", "--seed", "2"])
    assert code == 0
    assert "4/4 pass" in out


def test_cmd_verify_bad_specs_exit_2():
    code, _ = run(["verify", "--variety", "nope:1", "--scheme", "random:deg=3",
                   "--method", "flattening:split=1|23", "--trials", "1"])
    assert code == 2
    code, _ = run(["verify", "--variety", "segre:2x2x2", "--scheme", "random:deg=zzz",
                   "--method", "flattening:split=1|23", "--trials", "1"])
    assert code == 2
    code, _ = run(["verify", "--variety", "segre:2x2x2", "--scheme", "random:deg=3",
                   "--method", "catalecticant:i=1", "--trials", "1"])
    assert code == 2


@pytest.mark.parametrize("scheme, message", [
    ("random:deg=0", "at least 1"),
    ("random:deg=5,mix=nbhd", "not a multiple of the neighborhood degree 4"),
    ("random:deg=1,mix=curv", "below the smallest admissible piece"),
    ("random:deg=3,mix=bogus", "unknown mix 'bogus'"),
    ("random:deg=three", "'deg' needs an integer"),
    ("random:deg=3,seed=1.5", "'seed' needs an integer"),
])
def test_cmd_verify_checks_random_scheme_specs_before_any_trial(scheme, message, capsys):
    # the spec is rejected up front, so --trials 0 and --trials 1 agree
    for trials in ("0", "1"):
        code, out = run(["verify", "--variety", "segre:2x2x2", "--scheme", scheme,
                         "--method", "flattening:split=1|23", "--trials", trials])
        assert code == 2 and out == "", (scheme, trials)
        assert message in capsys.readouterr().err, (scheme, trials)


def test_cmd_verify_confirmed_failure_exits_1(monkeypatch):
    # the inequality always holds on these varieties, so a real failure cannot
    # be produced; fake one to pin the exit-code contract
    def fake_trial(payload):
        return BarrierReport("segre:2x2x2", "flattening:split=1|23", 1, "formula",
                             3, 3, 99, 3, False, "QQ", qq_confirmed=True,
                             seed=0).to_dict() | {"trial": payload["index"]}

    monkeypatch.setattr(cli, "_verify_trial", fake_trial)
    code, out = run(["verify", "--variety", "segre:2x2x2", "--scheme", "random:deg=3",
                     "--method", "flattening:split=1|23", "--trials", "1", "--seed", "0"])
    assert code == 1
    assert "1 confirmed failures" in out


def test_cmd_ceiling_text_and_json():
    code, out = run(["ceiling", "--variety", "segre:4x4x4"])
    assert code == 0
    assert "cactus ceiling g = 20" in out
    assert "grassmann ceiling g2 = 11" in out
    code, out = run(["ceiling", "--variety", "segre:2x3x4", "--format", "json"])
    doc = json.loads(out)
    assert doc["cactus_ceiling"] == 14
    code, _ = run(["ceiling", "--variety", "segre:2x2"])
    assert code == 2


def test_cmd_limit_fixtures():
    code, out = run(["limit", "--family", os.path.join(FIXTURES, "collinear_collision.json")])
    assert code == 0
    assert "dim span(limit)=2 <= dim lim(spans)=3" in out
    assert "inclusion holds (strict)" in out
    code, out = run(["limit", "--family", os.path.join(FIXTURES, "constant_family.json")])
    assert code == 0
    assert "dim span(limit)=2 <= dim lim(spans)=2" in out
    assert "(equality)" in out
    code, out = run(["limit", "--family", os.path.join(FIXTURES, "tangent_collision.json")])
    assert code == 0
    assert "dim span(limit)=2 <= dim lim(spans)=2" in out


def test_cmd_limit_raw_basis_family(tmp_path):
    doc = {
        "format": "spanfamily/1",
        "variety": "veronese:2,1",
        "family": {
            "kind": "basis",
            "basis": [
                [["1"], ["0"], ["0"]],
                [["0"], ["1"], ["0"]],
                [["1"], ["1"], ["0", "1"]],
            ],
        },
        "limit": {
            "pieces": [
                {"type": "reduced", "point": ["0", "0"]},
                {"type": "reduced", "point": ["1", "0"]},
            ]
        },
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    code, out = run(["limit", "--family", str(path), "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert rec["dim_limit_spans"] == 3 and rec["inclusion_holds"]


def test_cmd_limit_malformed_family(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"format\": \"spanfamily/1\"}")
    code, _ = run(["limit", "--family", str(path)])
    assert code == 2
    path.write_text("not json")
    code, _ = run(["limit", "--family", str(path)])
    assert code == 2


def _family_doc(kind, members, limit):
    return {"format": "spanfamily/1", "variety": "veronese:1,2",
            "family": {"kind": kind, kind: members}, "limit": {"pieces": limit}}


_TWO_POINTS = [{"type": "reduced", "point": ["0"]}, {"type": "reduced", "point": ["1"]}]
# a valid family of two points whose stated limit has both at the support (0)
_LIMIT_SHARES_SUPPORT = _family_doc("schemes", [{"type": "reduced", "point": [["0"]]},
                                                {"type": "reduced", "point": [["1", "1"]]}],
                                    [{"type": "reduced", "point": ["0"]}] * 2)


@pytest.mark.parametrize("doc", [
    # one length-1 germ, stated to tend to a length-2 germ
    _family_doc("schemes", [{"type": "curvilinear", "base": [["0"]], "coeffs": [], "length": 1}],
                [{"type": "curvilinear", "base": ["0"], "coeffs": [["1"]], "length": 2}]),
    _family_doc("schemes", [], _TWO_POINTS),
    # two reduced points with the same support polynomial
    _family_doc("schemes", [{"type": "reduced", "point": [["0", "1"]]}] * 2, _TWO_POINTS),
    # two points stated to tend to three
    _family_doc("schemes", [{"type": "reduced", "point": [["0"]]},
                            {"type": "reduced", "point": [["1", "1"]]}],
                _TWO_POINTS + [{"type": "reduced", "point": ["2"]}]),
    _family_doc("basis", [], _TWO_POINTS),
    _LIMIT_SHARES_SUPPORT,
], ids=["germ_of_length_1", "no_schemes", "shared_support", "degree_mismatch", "empty_basis",
        "invalid_limit"])
def test_cmd_limit_rejects_a_family_that_cannot_have_its_limit(tmp_path, doc):
    # none of these is a flat family with the stated limit, so the inclusion
    # says nothing about them: an input error, never a violation (exit 1)
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    code, out = run(["limit", "--family", str(path)])
    assert code == 2 and out == ""


def _germ(base, row):
    return {"type": "curvilinear", "base": base, "coeffs": [row], "length": 2}


# the base has length 3 (segre:2x2x2) or 1 (veronese:1,2); the coefficient row does not
@pytest.mark.parametrize("argv, doc, lengths", [
    (["verify", "--variety", "segre:2x2x2", "--method", "koszul:p=1", "--trials", "1",
      "--scheme"], {"pieces": [_germ(["0", "0", "0"], ["1", "0"])]}, (2, 3)),
    (["verify", "--variety", "segre:2x2x2", "--method", "koszul:p=1", "--trials", "1",
      "--scheme"], {"pieces": [_germ(["0", "0", "0"], ["1", "0", "0", "5"])]}, (4, 3)),
    (["limit", "--family"],
     _family_doc("schemes", [_germ([["0"]], [])], [_germ(["0"], ["1"])]), (0, 1)),
    (["limit", "--family"],
     _family_doc("schemes", [_germ([["0"]], [["1"], ["0", "1"]])], [_germ(["0"], ["1"])]), (2, 1)),
], ids=["verify_short", "verify_long", "limit_family_short", "limit_family_long"])
def test_germ_coefficient_row_of_the_wrong_length_is_input_error(tmp_path, capsys, argv, doc,
                                                                 lengths):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out = run(argv + [str(path)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        f"error: curvilinear order-1 coefficients have length {lengths[0]}, "
        f"but the base has length {lengths[1]}\n")


@pytest.mark.parametrize("argv, doc, support", [
    (["limit", "--family"],
     _family_doc("schemes", [{"type": "reduced", "point": [["0", "1"]]}] * 2, _TWO_POINTS),
     "([0, 1])"),
    (["limit", "--family"],
     _LIMIT_SHARES_SUPPORT, "(0)"),
    (["verify", "--variety", "segre:2x2", "--method", "flattening:split=1|2", "--trials", "1",
      "--scheme"],
     {"pieces": [{"type": "reduced", "point": ["1/2", "0"]}] * 2},
     "(1/2, 0)"),
], ids=["limit_family", "limit_stated_limit", "verify_scheme_file"])
def test_shared_support_is_printed_as_in_the_file_format(tmp_path, capsys, argv, doc, support):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out = run(argv + [str(path)])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err == f"error: two pieces share the support {support}\n"
    assert "Fraction(" not in err


def test_cmd_estimate_k():
    code, out = run(["estimate-k", "--variety", "segre:3x3x3", "--method", "koszul:p=1",
                     "--trials", "30", "--seed", "5", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["estimated_k"] == 2 and doc["declared_k"] == 2


def _custom_flattening_file(tmp_path):
    """The coefficient tensor of the first flattening of 2x2x2, saved as a custom map."""
    from cactusbarrier.rankmethods import flattening

    m = flattening((2, 2, 2), (0,))
    entries = []
    for w in range(8):
        block = [[0] * 4 for _ in range(2)]
        for (i, j, c) in m.cells[w]:
            block[i][j] = c
        entries.extend(x for row in block for x in row)
    path = tmp_path / "custom.json"
    save_tensor(path, DenseTensor((8, 2, 4), entries))
    return path


def test_custom_method_file(tmp_path):
    path = _custom_flattening_file(tmp_path)
    code, out = run(["verify", "--variety", "segre:2x2x2", "--scheme", "random:deg=3",
                     "--method", f"custom:file={path}", "--trials", "3", "--seed", "8"])
    assert code == 0
    assert "3/3 pass" in out
    code, out = run(["estimate-k", "--variety", "segre:2x2x2",
                     "--method", f"custom:file={path}", "--trials", "10", "--seed", "8"])
    assert code == 0
    assert "empirical (lower estimate)" in out


def test_env_seed_default(monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "77")
    argv = ["verify", "--variety", "segre:2x2x2", "--scheme", "random:deg=2",
            "--method", "flattening:split=1|23", "--trials", "2", "--format", "json"]
    _, out_env = run(argv)
    monkeypatch.delenv(cli.ENV_SEED)
    _, out_flag = run(argv + ["--seed", "77"])
    assert out_env == out_flag


def test_parser_is_shared_and_each_call_gets_fresh_defaults(monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    argv = ["verify", "--variety", "segre:2x2x2", "--scheme", "random:deg=2",
            "--method", "flattening:split=1|23", "--trials", "2", "--format", "json"]
    code, out_5 = run(argv + ["--seed", "5"])
    assert code == 0
    monkeypatch.setenv(cli.ENV_SEED, "77")
    code, out_env = run(argv)  # no --seed: the earlier call's 5 must not linger
    assert code == 0
    monkeypatch.delenv(cli.ENV_SEED)
    _, out_77 = run(argv + ["--seed", "77"])
    assert out_env == out_77 != out_5
    # a usage error leaves nothing behind for the next call
    assert run(argv + ["--trials", "-1"])[0] == 2
    assert run(["ceiling", "--variety", "segre:2x2x2", "--bogus"])[0] == 2
    assert run(argv)[0] == 0


def test_scheme_spec_seed_freezes_scheme():
    argv = ["verify", "--variety", "segre:2x2x2", "--scheme", "random:deg=3,seed=13",
            "--method", "flattening:split=1|23", "--trials", "3", "--format", "json"]
    _, out1 = run(argv + ["--seed", "1"])
    _, out2 = run(argv + ["--seed", "2"])
    deg1 = [json.loads(l)["degree"] for l in out1.splitlines()[:-1]]
    deg2 = [json.loads(l)["degree"] for l in out2.splitlines()[:-1]]
    assert deg1 == deg2 == [3, 3, 3]


def test_custom_method_is_built_once_per_verify(tmp_path, monkeypatch):
    # one k estimate, shared by the --validate-k check and every trial,
    # however many trials run
    import cactusbarrier.rankmethods as rankmethods

    path = _custom_flattening_file(tmp_path)
    calls = []
    real = rankmethods.estimate_k
    monkeypatch.setattr(rankmethods, "estimate_k",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    argv = ["verify", "--variety", "segre:2x2x2", "--scheme", "random:deg=3",
            "--method", f"custom:file={path}", "--seed", "8", "--format", "json"]
    for trials in (1, 5):
        calls.clear()
        code, _ = run(argv + ["--trials", str(trials)])
        assert code == 0
        assert len(calls) == 1
    _, serial = run(argv + ["--trials", "5"])
    _, pooled = run(argv + ["--trials", "5", "--jobs", "2"])
    assert serial == pooled


def test_verify_instance_evaluates_map_once(monkeypatch):
    # the prime screen and the rational rank come from the same integer rows
    # of M(F); no instance builds M(F) a second time
    import cactusbarrier.barrier as barrier

    calls = []

    def counting(name):
        real = getattr(barrier, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("integer_image", "evaluate_map"):
        monkeypatch.setattr(barrier, name, counting(name))
    trials = 4
    code, out = run(["verify", "--variety", "segre:3x3x3", "--scheme", "random:deg=3",
                     "--method", "koszul:p=1", "--trials", str(trials), "--seed", "11",
                     "--format", "json"])
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()[:-1]]
    assert len(reports) == trials
    assert all(r["qq_confirmed"] and r["fp_rank"] is not None for r in reports)
    assert calls == ["integer_image"] * trials


_COMMANDS = {
    "bound": ["bound", "--tensor", "{golden}/diag333.json", "--method", "flattening:split=1|23"],
    "verify": ["verify", "--variety", "segre:2x2x2", "--scheme", "{golden}/scheme_segre222.json",
               "--method", "koszul:p=1", "--trials", "1"],
    "ceiling": ["ceiling", "--variety", "segre:2x2x2"],
    "limit": ["limit", "--family", "{fixtures}/tangent_collision.json"],
    "estimate-k": ["estimate-k", "--variety", "segre:2x2x2", "--method", "koszul:p=1",
                   "--trials", "3"],
}


def _argv(command):
    golden = os.path.join(os.path.dirname(__file__), "golden")
    return [a.format(golden=golden, fixtures=FIXTURES) for a in _COMMANDS[command]]


@pytest.mark.parametrize("command", ["estimate-k", "verify"])
def test_bound_below_one_is_usage_error(command, capsys):
    argv = _argv(command)
    code, _ = run(argv + ["--bound", "1"])
    assert code == 0
    capsys.readouterr()
    for value in ("0", "-1"):
        code, out = run(argv + ["--bound", value])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert "--bound" in err and f"must be a positive integer, got {value}" in err


def test_reduced_piece_without_point_is_input_error(tmp_path):
    with pytest.raises(FileFormatError, match="point"):
        scheme_from_dict({"pieces": [{"type": "reduced"}]})
    with pytest.raises(FileFormatError, match="length"):
        scheme_from_dict({"pieces": [{"type": "curvilinear", "base": ["0"], "coeffs": []}]})
    path = tmp_path / "scheme.json"
    path.write_text('{"pieces": [{"type": "reduced"}]}')
    code, _ = run(["verify", "--variety", "veronese:1,2", "--scheme", str(path),
                   "--method", "catalecticant:i=1", "--trials", "1"])
    assert code == 2


def test_coordinate_vanishing_mod_screening_prime_is_input_error(tmp_path, capsys):
    path = tmp_path / "scheme.json"
    path.write_text('{"pieces": [{"type": "reduced", "point": ["1/2147483647"]}]}')
    argv = ["verify", "--variety", "veronese:1,2", "--scheme", str(path),
            "--method", "catalecticant:i=1", "--trials", "1"]
    code, _ = run(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert "1/2147483647" in err and "--field q" in err
    code, out = run(argv + ["--field", "q"])
    assert code == 0 and "1/1 pass" in out


def test_internal_error_exits_3_with_traceback(monkeypatch, capsys):
    def broken(variety):
        raise RuntimeError("internal failure")

    monkeypatch.setattr(cli, "ceilings", broken)
    code, _ = run(["ceiling", "--variety", "segre:2x2x2"])
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "internal failure" in err


def test_bound_takes_method_and_k_from_the_reported_variety(tmp_path):
    # the 2x2x2 tensor e0 x (e0 + e3) is a point of segre:2x4: border rank 1
    path = tmp_path / "point.json"
    save_tensor(path, DenseTensor((2, 2, 2), [1, 0, 0, 1, 0, 0, 0, 0]))
    argv = ["bound", "--tensor", str(path), "--variety", "segre:2x4"]
    # a split of the file's three modes is not a method on segre:2x4
    code, out = run(argv + ["--method", "flattening:split=12|3"])
    assert code == 2 and out == ""
    code, out = run(argv + ["--method", "flattening:split=1|2"])
    assert code == 0
    assert "rank M(F) = 1" in out and "border rank >= 1" in out


def test_bound_denominator_vanishing_mod_prime_is_input_error(tmp_path, capsys):
    path = tmp_path / "t.json"
    save_tensor(path, DenseTensor((2, 2, 2), ["1/2147483647", 0, 0, 1, 0, 0, 0, 0]))
    argv = ["bound", "--tensor", str(path), "--method", "flattening:split=1|23"]
    code, _ = run(argv + ["--field", "p:2147483647"])
    assert code == 2
    err = capsys.readouterr().err
    assert "1/2147483647" in err and "--field q" in err
    code, out = run(argv)
    assert code == 0 and "rank M(F) = 1" in out


@pytest.mark.parametrize("command", ["verify", "bound"])
def test_custom_map_denominator_vanishing_mod_prime_is_input_error(tmp_path, capsys, command):
    # the first flattening of 2x2x2 with one coefficient 1/P, under the prime P
    path = _custom_flattening_file(tmp_path)
    t = load_tensor(path)
    save_tensor(path, DenseTensor(t.shape, ["1/2147483647"] + list(t.entries[1:])))
    tensor = tmp_path / "t.json"
    save_tensor(tensor, DenseTensor((2, 2, 2), [1, 0, 0, 1, 0, 0, 0, 0]))
    argv = {
        "verify": ["verify", "--variety", "segre:2x2x2", "--scheme", "random:deg=3",
                   "--trials", "2", "--seed", "8"],
        "bound": ["bound", "--tensor", str(tensor)],
    }[command] + ["--method", f"custom:file={path}"]
    # verify screens under the default prime; bound is given it
    code, out = run(argv if command == "verify" else argv + ["--field", "p:2147483647"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"a coefficient denominator of {path} vanishes mod 2147483647" in err
    assert "--field q" in err
    code, out = run(argv + ["--field", "q"])
    assert code == 0


@pytest.mark.parametrize("command, doc", [
    ("bound", {"format": "tensorfile/1", "kind": "dense", "entries": []}),
    ("bound", [1, 2]),
    ("verify", [1, 2]),
    ("limit", [1, 2]),
    ("limit", {"format": "spanfamily/1", "variety": "veronese:1,1",
               "limit": {"pieces": []}, "family": [1]}),
    ("limit", {"format": "spanfamily/1", "variety": "veronese:1,1",
               "limit": {"pieces": []},
               "family": {"kind": "schemes", "schemes": [{"type": "reduced", "point": 5}]}}),
])
def test_malformed_input_file_exits_2(tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = {
        "bound": ["bound", "--tensor", str(path), "--method", "flattening:split=1|23"],
        "verify": ["verify", "--variety", "segre:2x2x2", "--scheme", str(path),
                   "--method", "flattening:split=1|23", "--trials", "1"],
        "limit": ["limit", "--family", str(path)],
    }[command]
    code, _ = run(argv)
    assert code == 2


def test_limit_and_ceiling_import_neither_multiprocessing_nor_hashlib():
    # both are imported on demand: multiprocessing only for --jobs > 1 and
    # hashlib only when a seed is derived
    script = (
        "import io, sys\n"
        "import cactusbarrier.cli as cli\n"
        f"assert cli.main(['limit', '--family', {os.path.join(FIXTURES, 'collinear_collision.json')!r}],"
        " io.StringIO()) == 0\n"
        "assert cli.main(['ceiling', '--variety', 'segre:3x3x3'], io.StringIO()) == 0\n"
        "print(sorted(m for m in ('multiprocessing', 'hashlib') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_jobs_below_one_is_usage_error(value, capsys):
    # verify --jobs and estimate-k --trials are positive; both fail at parse time
    for argv, option in ((_argv("verify"), "--jobs"), (_argv("estimate-k"), "--trials")):
        code, out = run(argv + [option, value])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert option in err and f"must be a positive integer, got {value}" in err


@pytest.mark.parametrize("option", ["--trials", "--validate-k"])
def test_verify_negative_count_is_usage_error(option, capsys):
    # --trials 0 and --validate-k 0 stay valid: an empty campaign, no k check
    argv = ["verify", "--variety", "segre:2x2x2", "--scheme", "random:deg=2",
            "--method", "koszul:p=1", "--trials", "1"]
    code, out = run(argv + [option, "-3"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert option in err and "must be a non-negative integer, got -3" in err
    code, out = run(argv + [option, "0"])
    assert code == 0 and out


def test_default_verify_ranks_each_instance_once(monkeypatch):
    # every instance reports its rational rank, and one integer elimination
    # of M(F) gives it together with the GF(p) screen
    import cactusbarrier.barrier as barrier
    import cactusbarrier.exactalg as exactalg

    images, eliminated, mod_p = [], [], []

    def recording(log, real):
        def wrapper(rows, *args):
            log.append([list(row) for row in rows])
            return real(rows, *args)
        return wrapper

    real_image = barrier.integer_image

    def image(*args):
        rows = real_image(*args)
        images.append([list(row) for row in rows])
        return rows

    monkeypatch.setattr(barrier, "integer_image", image)
    monkeypatch.setattr(exactalg, "_rank_int_bareiss",
                        recording(eliminated, exactalg._rank_int_bareiss))
    real_rank = exactalg.rank_of_rows

    def rank_of_rows(field, rows):
        if isinstance(field, PrimeField):
            mod_p.append([list(row) for row in rows])
        return real_rank(field, rows)

    monkeypatch.setattr(exactalg, "rank_of_rows", rank_of_rows)
    trials = 4
    code, out = run(["verify", "--variety", "segre:4x4x4", "--scheme", "random:deg=5",
                     "--method", "koszul:p=1", "--trials", str(trials), "--seed", "3",
                     "--validate-k", "0", "--format", "json"])
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()[:-1]]
    assert len(reports) == len(images) == trials
    assert all(r["qq_confirmed"] and r["field"] == "QQ" and r["fp_rank"] == r["rank"]
               for r in reports)
    # some ranks stay below k*r: the rational rank is reported there too
    assert any(r["rank"] < r["bound"] for r in reports)
    assert [rows for rows in eliminated if rows in images] == images
    assert not [rows for rows in mod_p if rows in images]
    # the counter sees the fallback: the minor 7 vanishes mod 7
    seen = len(mod_p)
    assert exactalg.rank_qq_and_mod_p([[7]], 7) == (1, 0)
    assert mod_p[seen:] == [[[7]]]


@pytest.mark.parametrize("command", ["ceiling", "limit", "estimate-k"])
def test_field_is_rejected_where_it_is_not_read(command, capsys):
    argv = _argv(command)
    for field in ("p:101", "q", "nonsense"):
        code, out = run(argv + ["--field", field])
        assert code == 2 and out == ""
        assert "unrecognized arguments: --field" in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [
    pytest.param(c, o, id=f"{c}{o}") for c, o in (
        ("bound", "--bound"), ("ceiling", "--seed"), ("ceiling", "--bound"),
        ("limit", "--seed"), ("limit", "--bound"), ("verify", "--confirm"))])
def test_seed_and_bound_are_rejected_where_they_are_not_read(command, option, capsys):
    code, out = run(_argv(command) + [option, "3"])
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_readme_names_only_options_the_cli_has(capsys):
    # a backticked --option in README prose must be listed by some command's
    # --help, so a removed option cannot linger in the docs
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    prose = re.sub(r"^```.*?^```", "", readme.read_text(encoding="utf-8"), flags=re.M | re.S)
    named = {option for span in re.findall(r"`([^`]+)`", prose)
             for option in re.findall(r"--[a-z][a-z-]*", span)}
    listed = set()
    for command in _COMMANDS:
        assert cli.main([command, "--help"]) == 0
        listed |= set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert named and not named - listed, sorted(named - listed)
