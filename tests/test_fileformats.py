"""Parser fuzzing: every JSON document either parses or raises ValueError.

FileFormatError is a ValueError, so each malformed file reaches the command
line as an input error (exit 2), never as a traceback. Documents are drawn at
random and by mutating valid ones; integers stay small so that no drawn shape
asks for a large tensor.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from cactusbarrier.fileformats import family_from_dict, scheme_from_dict, tensor_from_dict

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
