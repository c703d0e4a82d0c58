"""JSON file formats: tensors, schemes, and one-parameter span families.

Rationals are serialized as strings like "3/4" so nothing is ever squeezed
through a float. Every writer output re-parses to an identical object.
Dense tensor entries are read in one flat pass (the nesting checked level
by level, each distinct entry parsed once), and integer fields refuse bools
and non-integral numbers instead of truncating them.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .fields import POLY
from .rankmethods import DenseTensor, LinearMatrixMap, SymmetricForm, _flat_index, _strides
from .schemes import CurvilinearGerm, FiniteScheme, FirstNeighborhood, ReducedPoint
from .varieties import Germ, parse_variety

TENSOR_FORMAT = "tensorfile/1"
FAMILY_FORMAT = "spanfamily/1"

# a signed ASCII integer; Fraction(int(s)) equals Fraction(s) on it and
# skips the general rational regex
_INTEGER = re.compile(r"[+-]?[0-9]+")


class FileFormatError(ValueError):
    """Raised for malformed input files."""


def parse_rational(s) -> Fraction:
    if isinstance(s, bool):
        raise FileFormatError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(int(s)) if _INTEGER.fullmatch(s) else Fraction(s)
        except (ValueError, ZeroDivisionError) as e:
            raise FileFormatError(f"cannot parse rational {s!r}: {e}") from None
    raise FileFormatError(f"not a rational: {s!r}")


def format_rational(x: Fraction) -> str:
    return str(x if type(x) is Fraction else Fraction(x))


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}


def _get(doc, key: str, kind: type = object):
    """doc[key], checked to be present in a JSON object and of type `kind`."""
    if not isinstance(doc, dict):
        raise FileFormatError(f"expected a JSON object, got {doc!r}")
    if key not in doc:
        raise FileFormatError(f"missing key {key!r}")
    if not isinstance(doc[key], kind):
        raise FileFormatError(f"{key!r} must be {_JSON_TYPES[kind]}, got {doc[key]!r}")
    return doc[key]


def _int(x) -> int:
    """An integer-valued JSON number or integer string; a bool or a non-integral value raises."""
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise FileFormatError(f"not an integer: {x!r}")
    try:
        return int(x)
    except (TypeError, ValueError):
        raise FileFormatError(f"not an integer: {x!r}") from None


def _coords(value, coord) -> tuple:
    if not isinstance(value, list):
        raise FileFormatError(f"coordinates must be a list, got {value!r}")
    return tuple(coord(x) for x in value)


def _check_format(doc, marker: str) -> None:
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != marker:
        raise FileFormatError(f"missing or unknown format marker {found!r}")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise FileFormatError(f"{path}: invalid JSON: {e}") from None


def _dense_entries(shape: tuple, entries) -> list:
    """The nested dense entries as one row-major list of rationals.

    The nesting is checked against `shape` one level at a time, and each
    distinct leaf is parsed once: the memo is keyed by (type, value), so
    `true` and `1.0` are not taken for a `1` seen before them.
    """
    level = [entries]
    for depth, d in enumerate(shape):
        for k, sub in enumerate(level):
            if not isinstance(sub, list) or len(sub) != d:
                path = tuple(k // math.prod(shape[i + 1:depth]) % shape[i] for i in range(depth))
                raise FileFormatError(f"dense entries at {path} do not match shape {shape}")
        level = [x for sub in level for x in sub]
    memo: dict = {}
    for x in level:
        if isinstance(x, (list, dict)):  # unhashable, and never a rational
            raise FileFormatError(f"not a rational: {x!r}")
        if (type(x), x) not in memo:
            memo[type(x), x] = parse_rational(x)
    return [memo[type(x), x] for x in level]


def tensor_from_dict(doc: dict):
    """Parse a tensor document into a DenseTensor or SymmetricForm."""
    _check_format(doc, TENSOR_FORMAT)
    kind = doc.get("kind")
    if kind in ("dense", "sparse"):
        shape = tuple(_int(d) for d in _get(doc, "shape", list))
        if kind == "dense":
            return DenseTensor(shape, _dense_entries(shape, _get(doc, "entries")))
        flat = [Fraction(0)] * math.prod(shape)
        strides = _strides(shape)
        for item in _get(doc, "entries", list):
            idx = tuple(_int(i) for i in _get(item, "idx", list))
            if len(idx) != len(shape) or any(i < 0 or i >= d for i, d in zip(idx, shape)):
                raise FileFormatError(f"sparse index {idx} outside shape {shape}")
            flat[_flat_index(idx, strides)] += parse_rational(_get(item, "value"))
        return DenseTensor(shape, flat)
    if kind == "symmetric":
        nvars = _int(_get(doc, "vars"))
        degree = _int(_get(doc, "degree"))
        terms = {}
        for item in _get(doc, "terms", list):
            exps = tuple(_int(e) for e in _get(item, "monomial", list))
            if len(exps) != nvars or sum(exps) != degree or any(e < 0 for e in exps):
                raise FileFormatError(
                    f"monomial {exps} is not a degree-{degree} exponent tuple over {nvars} variables"
                )
            terms[exps] = terms.get(exps, Fraction(0)) + parse_rational(_get(item, "coeff"))
        return SymmetricForm(nvars, degree, terms)
    raise FileFormatError(f"unknown tensor kind {kind!r}")


def tensor_to_dict(t) -> dict:
    if isinstance(t, DenseTensor):
        def nest(shape, flat):
            if len(shape) == 1:
                return [format_rational(x) for x in flat]
            step = len(flat) // shape[0]
            return [nest(shape[1:], flat[i * step:(i + 1) * step]) for i in range(shape[0])]

        return {
            "format": TENSOR_FORMAT,
            "kind": "dense",
            "shape": list(t.shape),
            "entries": nest(t.shape, t.entries),
        }
    if isinstance(t, SymmetricForm):
        return {
            "format": TENSOR_FORMAT,
            "kind": "symmetric",
            "vars": t.nvars,
            "degree": t.degree,
            "terms": [
                {"monomial": list(e), "coeff": format_rational(c)}
                for e, c in sorted(t.terms.items())
            ],
        }
    raise TypeError(f"cannot serialize {type(t).__name__}")


def load_tensor(path):
    return tensor_from_dict(_read_json(path))


def save_tensor(path, t) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tensor_to_dict(t), fh, indent=2)
        fh.write("\n")


def custom_map_from_tensor(t: DenseTensor, name: str) -> LinearMatrixMap:
    """Interpret a dense 3-mode tensor of shape (w, a, b) as a coefficient map.

    `name` (the file it came from) becomes the map's spec, so errors about
    the map name the file.
    """
    if len(t.shape) != 3:
        raise FileFormatError("a custom method file must hold a (w, a, b) coefficient tensor")
    w, a, b = t.shape
    cells: dict = {}
    pos = 0
    for wi in range(w):
        for i in range(a):
            for j in range(b):
                c = t.entries[pos]
                pos += 1
                if c:
                    cells.setdefault(wi, []).append((i, j, c))
    return LinearMatrixMap(a, b, w, cells, spec=name)


# file "type" of each piece given by its point alone; the reverse map serves the writer
_POINT_PIECES = {"reduced": ReducedPoint, "neighborhood": FirstNeighborhood}
_POINT_TYPES = {cls: name for name, cls in _POINT_PIECES.items()}


def piece_from_dict(doc: dict, coord=parse_rational):
    """Parse one scheme piece; `coord` parses each chart coordinate."""
    kind = _get(doc, "type")
    if kind == "curvilinear":
        base = _coords(_get(doc, "base"), coord)
        coeffs = tuple(_coords(c, coord) for c in _get(doc, "coeffs", list))
        return CurvilinearGerm(Germ(base, coeffs), _int(_get(doc, "length")))
    if isinstance(kind, str) and kind in _POINT_PIECES:  # a JSON list or object is unhashable
        return _POINT_PIECES[kind](_coords(_get(doc, "point"), coord))
    raise FileFormatError(f"unknown piece type {kind!r}")


def piece_to_dict(piece) -> dict:
    if isinstance(piece, CurvilinearGerm):
        return {
            "type": "curvilinear",
            "base": [format_rational(x) for x in piece.germ.base],
            "coeffs": [[format_rational(x) for x in c] for c in piece.germ.coeffs],
            "length": piece.length,
        }
    if type(piece) not in _POINT_TYPES:
        raise TypeError(f"cannot serialize {type(piece).__name__}")
    return {"type": _POINT_TYPES[type(piece)], "point": [format_rational(x) for x in piece.point]}


def scheme_from_dict(doc: dict) -> FiniteScheme:
    return FiniteScheme(tuple(piece_from_dict(p) for p in _get(doc, "pieces", list)))


def scheme_to_dict(scheme: FiniteScheme) -> dict:
    return {"pieces": [piece_to_dict(p) for p in scheme.pieces]}


def load_scheme(path) -> FiniteScheme:
    return scheme_from_dict(_read_json(path))


def family_from_dict(doc: dict):
    """Parse a span family document; returns what load_family returns."""
    _check_format(doc, FAMILY_FORMAT)
    param = parse_variety(_get(doc, "variety", str))
    limit = scheme_from_dict(_get(doc, "limit"))
    fam = _get(doc, "family", dict)
    def poly(coeffs):
        return POLY.from_coeffs(_coords(coeffs, parse_rational))

    if fam.get("kind") == "schemes":
        pieces = [piece_from_dict(p, poly) for p in _get(fam, "schemes", list)]
        return param, ("schemes", pieces), limit
    if fam.get("kind") == "basis":
        basis = [list(_coords(vec, poly)) for vec in _get(fam, "basis", list)]
        if any(len(v) != param.dim_W for v in basis):
            raise FileFormatError("basis vector length does not match the variety's ambient space")
        return param, ("basis", basis), limit
    raise FileFormatError(f"unknown family kind {fam.get('kind')!r}")


def load_family(path):
    """Load a span family file.

    Returns (param, family, limit_scheme) where family is either a list of
    scheme pieces with polynomial chart data ("schemes" kind) or a list of
    polynomial basis vectors ("basis" kind).
    """
    return family_from_dict(_read_json(path))
