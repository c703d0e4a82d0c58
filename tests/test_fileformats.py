"""Parser fuzzing: every JSON document either parses or raises ValueError.

FileFormatError is a ValueError, so each malformed file reaches the command
line as an input error (exit 2), never as a traceback. Documents are drawn at
random and by mutating valid ones; integers stay small so that no drawn shape
asks for a large tensor. `parse_rational` is checked against `Fraction(s)`.
"""

import copy
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactusbarrier.fileformats import (
    FileFormatError,
    family_from_dict,
    load_tensor,
    parse_rational,
    save_tensor,
    scheme_from_dict,
    tensor_from_dict,
)
from cactusbarrier.rankmethods import DenseTensor

PARSERS = (tensor_from_dict, scheme_from_dict, family_from_dict)

_KEYS = ["format", "kind", "shape", "entries", "idx", "value", "vars", "degree", "terms",
         "monomial", "coeff", "pieces", "type", "point", "base", "coeffs", "length",
         "variety", "family", "schemes", "basis", "limit"]
_STRINGS = ["tensorfile/1", "spanfamily/1", "dense", "sparse", "symmetric", "reduced",
            "curvilinear", "neighborhood", "schemes", "basis", "segre:2x2", "veronese:1,2",
            "veronese:2,1", "segre:1x", "1/2", "-3", "0", "2", "x", "1/0", ""]
_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 4),
                     st.sampled_from([0.5, 2.0, float("inf"), float("nan")]),
                     st.sampled_from(_STRINGS))
_json = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(_KEYS), inner, max_size=5)),
    max_leaves=25,
)

_POINT = {"type": "reduced", "point": ["1/2", "0"]}
_SCHEME = {"pieces": [
    _POINT,
    {"type": "curvilinear", "base": ["0", "1"], "coeffs": [["1", "-1"]], "length": 2},
    {"type": "neighborhood", "point": ["2", "3"]},
]}
VALID = [
    (tensor_from_dict, {"format": "tensorfile/1", "kind": "dense", "shape": [2, 2],
                        "entries": [["1", "0"], ["-1/2", 3]]}),
    (tensor_from_dict, {"format": "tensorfile/1", "kind": "sparse", "shape": [2, 3],
                        "entries": [{"idx": [1, 2], "value": "4/5"}]}),
    (tensor_from_dict, {"format": "tensorfile/1", "kind": "symmetric", "vars": 2, "degree": 3,
                        "terms": [{"monomial": [3, 0], "coeff": "1"},
                                  {"monomial": [1, 2], "coeff": -2}]}),
    (scheme_from_dict, _SCHEME),
    (family_from_dict, {"format": "spanfamily/1", "variety": "segre:2x2",
                        "limit": {"pieces": [_POINT]},
                        "family": {"kind": "schemes", "schemes": [
                            {"type": "reduced", "point": [["0", "1"], ["1"]]},
                            {"type": "curvilinear", "base": [["1"], []],
                             "coeffs": [[["1"], ["0", "2"]]], "length": 2}]}}),
    (family_from_dict, {"format": "spanfamily/1", "variety": "veronese:2,1", "limit": _SCHEME,
                        "family": {"kind": "basis", "basis": [[["1"], ["0"], ["0", "1"]]]}}),
]


def _parses_or_rejects(doc) -> None:
    for parse in PARSERS:
        try:
            parse(doc)
        except ValueError:
            pass


def _slots(doc) -> list:
    """(container, key) for every value nested inside doc, outermost first."""
    out, level = [], [doc]
    while level:
        nxt = []
        for node in level:
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in items:
                out.append((node, key))
                if isinstance(value, (dict, list)):
                    nxt.append(value)
        level = nxt
    return out


def test_valid_documents_parse():
    for parse, doc in VALID:
        parse(doc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_json)
def test_random_documents_parse_or_raise_value_error(doc):
    _parses_or_rejects(doc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from([doc for _, doc in VALID]), st.data())
def test_mutated_documents_parse_or_raise_value_error(valid, data):
    doc = copy.deepcopy(valid)
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _slots(doc)
        if not slots:
            break
        container, key = slots[data.draw(st.integers(0, len(slots) - 1))]
        if data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = data.draw(_json)
    _parses_or_rejects(doc)


def _fraction_outcome(s):
    """What parse_rational gives for a string by `Fraction(s)` alone: a value or an error text."""
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        return f"cannot parse rational {s!r}: {e}"


def _outcome(s):
    try:
        value = parse_rational(s)
    except FileFormatError as e:
        return str(e)
    assert type(value) is Fraction
    return value


_integer_strings = st.builds(
    lambda sign, zeros, n: sign + "0" * zeros + str(n),
    st.sampled_from(["", "+", "-"]), st.integers(0, 3), st.integers(0, 10 ** 40 - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_integer_strings,
                 st.text(alphabet="0123456789+-/._e \u0663", max_size=6)))
def test_parse_rational_matches_fraction(s):
    assert _outcome(s) == _fraction_outcome(s)


@pytest.mark.parametrize("s", [" 3", "3/4", "1e3", "0.5", "1_000", "\u0663", "", "3/0", "abc",
                               "-007", "+" + "9" * 40])
def test_parse_rational_cases(s):
    assert _outcome(s) == _fraction_outcome(s)


# -- integer fields ------------------------------------------------------------

# (parser, valid document, path to one of its integer fields)
_INT_FIELDS = [
    (tensor_from_dict, VALID[0][1], ("shape", 1)),
    (tensor_from_dict, VALID[1][1], ("entries", 0, "idx", 0)),
    (tensor_from_dict, VALID[2][1], ("vars",)),
    (tensor_from_dict, VALID[2][1], ("degree",)),
    (tensor_from_dict, VALID[2][1], ("terms", 1, "monomial", 1)),
    (scheme_from_dict, _SCHEME, ("pieces", 1, "length")),
]


def _with(doc, path, value):
    doc = copy.deepcopy(doc)
    slot = doc
    for key in path[:-1]:
        slot = slot[key]
    slot[path[-1]] = value
    return doc


@pytest.mark.parametrize("bad", [True, False, 2.5, 1.9, -0.5, float("inf"), float("nan")])
@pytest.mark.parametrize("parse, doc, path", _INT_FIELDS,
                         ids=["shape", "idx", "vars", "degree", "monomial", "length"])
def test_integer_fields_refuse_bools_and_non_integral_values(parse, doc, path, bad):
    # int() used to truncate these: 2.5 read as 2, true as 1
    with pytest.raises(FileFormatError, match=re.escape(f"not an integer: {bad!r}")):
        parse(json.loads(json.dumps(_with(doc, path, bad))))


@pytest.mark.parametrize("parse, doc, path", _INT_FIELDS,
                         ids=["shape", "idx", "vars", "degree", "monomial", "length"])
def test_integer_fields_take_integral_numbers_and_integer_strings(parse, doc, path):
    slot = doc
    for key in path:
        slot = slot[key]
    want = parse(doc)
    for same in (float(slot), str(slot)):
        assert parse(_with(doc, path, same)) == want


# -- dense tensors, parsed in one flat pass -------------------------------------

def _dense(shape, entries) -> dict:
    return {"format": "tensorfile/1", "kind": "dense", "shape": shape, "entries": entries}


_CUBE = [[["1", "0"], ["2", "-1/2"]], [["0", "3"], [4, "5/7"]]]


@pytest.mark.parametrize("entries, where", [
    (_CUBE[:1], ()),
    ("1", ()),
    ([_CUBE[0], _CUBE[1][:1]], (1,)),
    ([_CUBE[0], ["3", "4"]], (1, 0)),
    ([_CUBE[0], [_CUBE[1][0], ["4"]]], (1, 1)),
    ([[["1"], ["2", "-1/2"]], _CUBE[1]], (0, 0)),
    ([_CUBE[0], [_CUBE[1][0], ["4", "5", "6"]]], (1, 1)),
], ids=["depth0_short", "depth0_scalar", "depth1_short", "depth2_scalars", "depth2_short",
        "depth2_first", "depth2_long"])
def test_dense_shape_mismatch_says_where(entries, where):
    assert tensor_from_dict(_dense([2, 2, 2], _CUBE)).entries[-1] == Fraction(5, 7)
    with pytest.raises(FileFormatError,
                       match=re.escape(f"dense entries at {where} do not match shape (2, 2, 2)")):
        tensor_from_dict(_dense([2, 2, 2], entries))


@pytest.mark.parametrize("seen, bad", [(1, True), (1, 1.0), (1, None), (1, [1]), (1, {"v": 1}),
                                       (0, False), (0, 0.0)])
def test_dense_leaf_that_is_no_rational_raises_after_an_equal_int(seen, bad):
    # the parse memo is keyed by (type, value): JSON true equals 1 as a Python value
    doc = json.loads(json.dumps(_dense([2, 2], [[seen, "2"], [seen, bad]])))
    with pytest.raises(FileFormatError, match="not a rational"):
        tensor_from_dict(doc)


def test_dense_tensor_save_load_round_trip_is_exact(tmp_path):
    rng = random.Random(20260810)
    entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3 * 4 * 2)]
    t = DenseTensor((3, 4, 2), entries)
    path = tmp_path / "t.json"
    save_tensor(path, t)
    back = load_tensor(path)
    assert back == t
    assert all(type(x) is Fraction for x in back.entries)
    text = path.read_text(encoding="utf-8")
    save_tensor(path, back)
    assert path.read_text(encoding="utf-8") == text
