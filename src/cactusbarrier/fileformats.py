"""JSON file formats: tensors, schemes, and one-parameter span families.

Rationals are serialized as strings like "3/4" so nothing is ever squeezed
through a float. Every writer output re-parses to an identical object.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .fields import QQ, PolyRing
from .rankmethods import DenseTensor, LinearMatrixMap, SymmetricForm
from .schemes import CurvilinearGerm, FiniteScheme, FirstNeighborhood, ReducedPoint
from .varieties import Germ, parse_variety

TENSOR_FORMAT = "tensorfile/1"
FAMILY_FORMAT = "spanfamily/1"


class FileFormatError(ValueError):
    """Raised for malformed input files."""


def parse_rational(s) -> Fraction:
    if isinstance(s, bool):
        raise FileFormatError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as e:
            raise FileFormatError(f"cannot parse rational {s!r}: {e}") from None
    raise FileFormatError(f"not a rational: {s!r}")


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def _nested_entries(shape, entries, path=()):
    if not shape:
        yield path, entries
        return
    if not isinstance(entries, list) or len(entries) != shape[0]:
        raise FileFormatError(f"dense entries at {path} do not match shape {shape}")
    for i, sub in enumerate(entries):
        yield from _nested_entries(shape[1:], sub, path + (i,))


def tensor_from_dict(doc: dict):
    """Parse a tensor document into a DenseTensor or SymmetricForm."""
    if doc.get("format") != TENSOR_FORMAT:
        raise FileFormatError(f"missing or unknown format marker {doc.get('format')!r}")
    kind = doc.get("kind")
    if kind == "dense":
        shape = tuple(int(d) for d in doc["shape"])
        flat = [Fraction(0)] * math.prod(shape)
        strides = [1] * len(shape)
        for i in range(len(shape) - 2, -1, -1):
            strides[i] = strides[i + 1] * shape[i + 1]
        for path, val in _nested_entries(shape, doc["entries"]):
            flat[sum(i * s for i, s in zip(path, strides))] = parse_rational(val)
        return DenseTensor(shape, flat)
    if kind == "sparse":
        shape = tuple(int(d) for d in doc["shape"])
        flat = [Fraction(0)] * math.prod(shape)
        strides = [1] * len(shape)
        for i in range(len(shape) - 2, -1, -1):
            strides[i] = strides[i + 1] * shape[i + 1]
        for item in doc["entries"]:
            idx = tuple(int(i) for i in item["idx"])
            if len(idx) != len(shape) or any(i < 0 or i >= d for i, d in zip(idx, shape)):
                raise FileFormatError(f"sparse index {idx} outside shape {shape}")
            flat[sum(i * s for i, s in zip(idx, strides))] += parse_rational(item["value"])
        return DenseTensor(shape, flat)
    if kind == "symmetric":
        nvars = int(doc["vars"])
        degree = int(doc["degree"])
        terms = {}
        for item in doc["terms"]:
            exps = tuple(int(e) for e in item["monomial"])
            if len(exps) != nvars or sum(exps) != degree or any(e < 0 for e in exps):
                raise FileFormatError(
                    f"monomial {exps} is not a degree-{degree} exponent tuple over {nvars} variables"
                )
            terms[exps] = terms.get(exps, Fraction(0)) + parse_rational(item["coeff"])
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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise FileFormatError(f"{path}: invalid JSON: {e}") from None
    return tensor_from_dict(doc)


def save_tensor(path, t) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tensor_to_dict(t), fh, indent=2)
        fh.write("\n")


def custom_map_from_tensor(t: DenseTensor) -> LinearMatrixMap:
    """Interpret a dense 3-mode tensor of shape (w, a, b) as a coefficient map."""
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
    return LinearMatrixMap(a, b, w, cells, spec="custom")


def _point_from_json(coords) -> tuple:
    if not isinstance(coords, list):
        raise FileFormatError(f"coordinates must be a list, got {coords!r}")
    return tuple(parse_rational(x) for x in coords)


def piece_from_dict(doc: dict):
    kind = doc.get("type")
    try:
        if kind == "reduced":
            return ReducedPoint(_point_from_json(doc["point"]))
        if kind == "curvilinear":
            base = _point_from_json(doc["base"])
            coeffs = tuple(_point_from_json(c) for c in doc["coeffs"])
            return CurvilinearGerm(Germ(base, coeffs), int(doc["length"]))
        if kind == "neighborhood":
            return FirstNeighborhood(_point_from_json(doc["point"]))
    except KeyError as e:
        raise FileFormatError(f"{kind} piece is missing key {e}") from None
    raise FileFormatError(f"unknown piece type {kind!r}")


def piece_to_dict(piece) -> dict:
    if isinstance(piece, ReducedPoint):
        return {"type": "reduced", "point": [format_rational(x) for x in piece.point]}
    if isinstance(piece, CurvilinearGerm):
        return {
            "type": "curvilinear",
            "base": [format_rational(x) for x in piece.germ.base],
            "coeffs": [[format_rational(x) for x in c] for c in piece.germ.coeffs],
            "length": piece.length,
        }
    if isinstance(piece, FirstNeighborhood):
        return {"type": "neighborhood", "point": [format_rational(x) for x in piece.point]}
    raise TypeError(f"cannot serialize {type(piece).__name__}")


def scheme_from_dict(doc: dict) -> FiniteScheme:
    pieces = doc.get("pieces") if isinstance(doc, dict) else None
    if not isinstance(pieces, list) or not all(isinstance(p, dict) for p in pieces):
        raise FileFormatError('a scheme needs a "pieces" list of objects')
    return FiniteScheme(tuple(piece_from_dict(p) for p in pieces))


def scheme_to_dict(scheme: FiniteScheme) -> dict:
    return {"pieces": [piece_to_dict(p) for p in scheme.pieces]}


def load_scheme(path) -> FiniteScheme:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise FileFormatError(f"{path}: invalid JSON: {e}") from None
    return scheme_from_dict(doc)


def _poly_from_json(ring: PolyRing, coeffs):
    if not isinstance(coeffs, list):
        raise FileFormatError(f"polynomial coefficients must be a list, got {coeffs!r}")
    return ring.from_coeffs([parse_rational(c) for c in coeffs])


def _family_piece_from_dict(ring: PolyRing, doc: dict):
    kind = doc.get("type")
    if kind == "reduced":
        return ReducedPoint(tuple(_poly_from_json(ring, c) for c in doc["point"]))
    if kind == "curvilinear":
        base = tuple(_poly_from_json(ring, c) for c in doc["base"])
        coeffs = tuple(tuple(_poly_from_json(ring, c) for c in cc) for cc in doc["coeffs"])
        return CurvilinearGerm(Germ(base, coeffs), int(doc["length"]))
    if kind == "neighborhood":
        return FirstNeighborhood(tuple(_poly_from_json(ring, c) for c in doc["point"]))
    raise FileFormatError(f"unknown piece type {kind!r}")


def load_family(path):
    """Load a span family file.

    Returns (param, family, limit_scheme) where family is either a list of
    scheme pieces with polynomial chart data ("schemes" kind) or a list of
    polynomial basis vectors ("basis" kind).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise FileFormatError(f"{path}: invalid JSON: {e}") from None
    if doc.get("format") != FAMILY_FORMAT:
        raise FileFormatError(f"missing or unknown format marker {doc.get('format')!r}")
    try:
        param = parse_variety(doc["variety"])
        limit = scheme_from_dict(doc["limit"])
        fam = doc["family"]
        ring = PolyRing(QQ)
        if fam.get("kind") == "schemes":
            pieces = [_family_piece_from_dict(ring, p) for p in fam["schemes"]]
            return param, ("schemes", pieces), limit
        if fam.get("kind") == "basis":
            basis = [[_poly_from_json(ring, e) for e in vec] for vec in fam["basis"]]
            if any(len(v) != param.dim_W for v in basis):
                raise FileFormatError("basis vector length does not match the variety's ambient space")
            return param, ("basis", basis), limit
        raise FileFormatError(f"unknown family kind {fam.get('kind')!r}")
    except KeyError as e:
        raise FileFormatError(f"family file is missing key {e}") from None
