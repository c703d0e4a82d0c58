"""Segre-Veronese parameterizations in affine charts: points, jets, tangent frames.

A variety is a product of factors; factor (n, d) contributes all monomials of
degree exactly d in (1, u_1, ..., u_n), and the full chart map is the Kronecker
product over factors. Chart coordinates of the ambient tensor space are indexed
accordingly, so a point evaluation is just a vector of monomials; its leading
entry is always 1, which keeps chart images away from zero.

Jets of curve germs are computed by polynomial composition, never by
differentiating and dividing by factorials. Each monomial costs one product,
and a tangent frame is the point plus its first partials, read off the point
by the product rule d(u^e)/du_j = e_j * u^(e - e_j). Only sums and products
occur, so the chart maps take no ring: coordinates are ints, Fractions or
polynomials in t (tuples of them), and `fields._exact` first turns every
integral rational, and every integral coefficient, into an int (any other
coordinate is a TypeError). Scalars then multiply on their own `*`, each
level of the Kronecker product one list comprehension, so integral data
give ints, equal to the rationals entry by entry; polynomials call
`PolyRing.mul` once per monomial of degree >= 2 (see `_kron`).

A jet of length L is one chart evaluation on packed ints (Kronecker
substitution): a rational germ is first scaled to an integral one, and
coordinate j's series c_0 + c_1 s + ... becomes the int sum of
c_m 2^(K T m), where c_m, a polynomial in t, fills T K-bit digits (T = 1 for
scalars). A product of series is then one int product, read back as K-bit
digits; `jet_vectors` bounds every digit by 2^(K-2), so that none borrows
from the next.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .fields import POLY, _exact


class VarietySpecError(ValueError):
    """Raised for malformed variety spec strings."""


@dataclass(frozen=True)
class Factor:
    """One chart factor: n affine coordinates embedded by degree-d monomials."""

    n: int
    d: int

    @property
    def dim(self) -> int:
        return math.comb(self.n + self.d, self.d)


@lru_cache(maxsize=None)
def monomial_exponents(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Affine exponent tuples (e_1..e_n) with sum <= d, in canonical order.

    Canonical order is by total degree, then by exponent tuple with earlier
    variables weighted heavier, so (n=1, d=2) enumerates 1, u, u^2 and
    (n=2, d=1) enumerates 1, u_1, u_2.
    """
    exps = [e for e in product(range(d + 1), repeat=n) if sum(e) <= d]
    exps.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
    return tuple(exps)


@lru_cache(maxsize=None)
def monomial_index(n: int, d: int) -> dict[tuple[int, ...], int]:
    return {e: i for i, e in enumerate(monomial_exponents(n, d))}


def homogeneous_exponents(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Degree-d exponent tuples over n+1 variables, aligned with the affine order."""
    return tuple((d - sum(e),) + e for e in monomial_exponents(n, d))


def homogeneous_index(n: int, d: int, exps: tuple[int, ...]) -> int:
    if len(exps) != n + 1 or sum(exps) != d or any(e < 0 for e in exps):
        raise ValueError(f"not a degree-{d} exponent tuple over {n + 1} variables: {exps}")
    return monomial_index(n, d)[tuple(exps[1:])]


class VarietyParam:
    """Chart parameterization of a product of Veronese factors in one tensor space."""

    def __init__(self, factors, spec: str):
        factors = tuple(Factor(*f) if not isinstance(f, Factor) else f for f in factors)
        if not factors:
            raise VarietySpecError("a variety needs at least one factor")
        for f in factors:
            if f.n < 1 or f.d < 1:
                raise VarietySpecError(f"factor {f} must have n >= 1 and d >= 1")
        self.factors = factors
        self.dim_X = sum(f.n for f in factors)
        self.factor_dims = tuple(f.dim for f in factors)
        self.dim_W = math.prod(self.factor_dims)
        self.spec = spec

    def __repr__(self):
        return f"VarietyParam({self.spec!r})"

    def __eq__(self, other):
        return isinstance(other, VarietyParam) and other.factors == self.factors

    def __hash__(self):
        return hash(self.factors)


def parse_variety(spec: str) -> VarietyParam:
    """Parse "segre:a x b x c", "veronese:n,d" or "segre-veronese:(n1,d1)x(n2,d2)x..."."""
    s = spec.replace(" ", "")
    if s.startswith("segre-veronese:"):
        body = s[len("segre-veronese:"):]
        pairs = re.findall(r"\((\d+),(\d+)\)", body)
        if not pairs or "x".join(f"({a},{b})" for a, b in pairs) != body:
            raise VarietySpecError(f"cannot parse segre-veronese spec {spec!r}")
        return VarietyParam([(int(a), int(b)) for a, b in pairs], spec=s)
    if s.startswith("segre:"):
        dims = s[len("segre:"):].split("x")
        try:
            dims = [int(d) for d in dims]
        except ValueError:
            raise VarietySpecError(f"cannot parse segre spec {spec!r}") from None
        if any(d < 2 for d in dims):
            raise VarietySpecError("segre factor dimensions must be at least 2")
        return VarietyParam([(d - 1, 1) for d in dims], spec=s)
    if s.startswith("veronese:"):
        m = re.fullmatch(r"veronese:(\d+),(\d+)", s)
        if not m:
            raise VarietySpecError(f"cannot parse veronese spec {spec!r}")
        return VarietyParam([(int(m.group(1)), int(m.group(2)))], spec=s)
    raise VarietySpecError(f"unknown variety spec {spec!r}")


@dataclass(frozen=True)
class Germ:
    """Polynomial curve germ in a chart: base + c_1 t + ... + c_m t^m."""

    base: tuple
    coeffs: tuple = ()


def _split_coords(param: VarietyParam, coords):
    pos = 0
    for f in param.factors:
        yield f, coords[pos:pos + f.n]
        pos += f.n


@lru_cache(maxsize=None)
def _lowerings(n: int, d: int) -> tuple:
    """Per monomial u^e in canonical order, (j, index of u^(e - e_j), e_j) for each j with e_j > 0."""
    index = monomial_index(n, d)
    return tuple(
        tuple((j, index[e[:j] + (x - 1,) + e[j + 1:]], x) for j, x in enumerate(e) if x)
        for e in monomial_exponents(n, d)
    )


@lru_cache(maxsize=None)
def _steps(n: int, d: int) -> tuple:
    """(index p, variable j) per monomial of degree >= 2, which is u_j times monomial p."""
    return tuple((p, j) for (j, p, _), *_ in _lowerings(n, d)[n + 1:])


def _factor_monomials(factor: Factor, u: list, one, mul) -> list:
    """1, u_1, ..., u_n, then each monomial of degree >= 2 as an earlier one times one variable."""
    out = [one, *u]
    for p, j in _steps(factor.n, factor.d):
        out.append(mul(out[p], u[j]))
    return out


def _kron(vectors: list[list], mul) -> list:
    """Kronecker product of vectors that each lead with 1.

    On scalars (`operator.mul`) a level is one comprehension, products by 1
    included; polynomials copy the products with a leading 1 and `mul` only
    the rest.
    """
    out = vectors[0]
    for nxt in vectors[1:]:
        if mul is operator.mul:
            out = [a * b for a in out for b in nxt]
            continue
        prev, out, tail = out, list(nxt), nxt[1:]
        for a in prev[1:]:
            out.append(a)
            out.extend([mul(a, b) for b in tail])
    return out


def evaluate(param: VarietyParam, coords) -> list:
    """Affine-cone point of the chart map; its leading coordinate is always 1.

    Coordinates are ints, Fractions or polynomials (tuples), else TypeError;
    integral data give ints, or polynomials with int coefficients.
    """
    if len(coords) != param.dim_X:
        raise ValueError(
            f"chart point has length {len(coords)}, expected {param.dim_X}"
        )
    if not all(type(x) is int for x in coords):
        coords = [_exact(x) for x in coords]
    mul, one = (POLY.mul, POLY.one) if isinstance(coords[0], tuple) else (operator.mul, 1)
    parts = [_factor_monomials(f, list(u), one, mul) for f, u in _split_coords(param, coords)]
    return _kron(parts, mul)


@lru_cache(maxsize=None)
def _chart_degrees(factors: tuple) -> tuple:
    """Per chart entry, the total degree of its monomial in the chart variables."""
    out = [0]
    for f in factors:
        out = [g + sum(e) for g in out for e in monomial_exponents(f.n, f.d)]
    return tuple(out)


def jet_vectors(param: VarietyParam, base: list, coeffs: list, length: int) -> list[list]:
    """Coefficient vectors of orders 0..length-1 of the chart map along a germ.

    `base` and each entry of `coeffs` are ints and Fractions, or all
    polynomials (tuples); rows of `coeffs` past order length-1 are unused.
    A rational germ is scaled by q, the common denominator of all its
    coefficients, so an entry whose chart monomial has degree g scales by
    q^g, and is divided back. Coefficient i of t in the order-m coefficient
    of a coordinate becomes K-bit digit i + T m, with T = D e + 1, D the sum
    of the factor degrees and e the largest degree in t: a product of at
    most D coordinates has degree at most D e < T in t, so no order spills
    into the next. Each coordinate's digits have l1 norm at most L T h, for
    L = length and h = max(1, largest |scaled coefficient|), so an entry's
    digits are at most (L T h)^D < 2^(K-2) for K = bit_length((L T h)^D) + 2.
    With 2^(K-1) added at each digit below T L, digit k less 2^(K-1) is the
    coefficient there; higher orders add multiples of 2^(K T L). For
    scalars T = 1, and for integral data q = 1 and the entries are ints.
    """
    if length < 1:
        raise ValueError("jet length must be at least 1")
    poly = isinstance(base[0], tuple)
    d = sum(f.d for f in param.factors)
    rows = [base, *coeffs[: length - 1]]
    # planes[i + width m][j] is coefficient i of t at order m of coordinate j; width is T
    width, planes = 1, rows
    if poly:
        width = d * max(0, *(len(c) - 1 for r in rows for c in r)) + 1
        planes = [[c[i] if i < len(c) else 0 for c in r] for r in rows for i in range(width)]
    try:
        q = math.lcm(*(x.denominator for p in planes for x in p))
    except AttributeError:
        [_exact(x) for r in rows for x in r]  # the TypeError that names the coordinate
        raise
    planes = [[x.numerator * (q // x.denominator) for x in p] for p in planes]
    h = max(abs(x) for p in planes for x in p) or 1
    k = ((length * width * h) ** d).bit_length() + 2
    packed = [0] * param.dim_X
    for p in planes[::-1]:
        packed = [(x << k) + c for x, c in zip(packed, p)]
    half, mask, shifts = 1 << (k - 1), (1 << k) - 1, range(0, k * width * length, k)
    offset = sum(half << s for s in shifts)
    w = [x + offset for x in evaluate(param, packed)]
    planes = [[((x >> s) & mask) - half for x in w] for s in shifts]
    if q > 1:
        dens = [q**g for g in _chart_degrees(param.factors)]
        planes = [[Fraction(x, n) for x, n in zip(p, dens)] for p in planes]
    if not poly:
        return planes
    return [[POLY.from_elems(c) for c in zip(*planes[m * width:(m + 1) * width])]
            for m in range(length)]


@lru_cache(maxsize=None)
def _partial_sources(factors: tuple) -> tuple:
    """Per chart variable u_j, (entry, source, e_j) for each nonzero entry of its partial.

    Entry `entry` is a monomial u^e in all the variables, and `source` is u^(e - e_j).
    """
    dims = [f.dim for f in factors]
    out = []
    for k, f in enumerate(factors):
        stride, lower = math.prod(dims[k + 1:]), _lowerings(f.n, f.d)
        per_var = [[] for _ in range(f.n)]
        for w in range(math.prod(dims)):
            i = w // stride % f.dim
            for j, p, x in lower[i]:
                per_var[j].append((w, w - (i - p) * stride, x))
        out += map(tuple, per_var)
    return tuple(out)


def tangent_vectors(param: VarietyParam, coords) -> list[list]:
    """Chart point together with all first partial derivative vectors, by the product rule."""
    point = evaluate(param, coords)
    zero, scale = (POLY.zero, POLY.scale) if isinstance(point[0], tuple) else (0, operator.mul)
    out = [point]
    for sources in _partial_sources(param.factors):
        v = [zero] * param.dim_W
        for entry, src, e in sources:
            v[entry] = point[src] if e == 1 else scale(e, point[src])
        out.append(v)
    return out


def random_chart_point(param: VarietyParam, bound: int, rng) -> tuple:
    return tuple(rng.randint(-bound, bound) for _ in range(param.dim_X))


def random_point(param: VarietyParam, bound: int, rng) -> list:
    """Evaluate at a uniformly random integer chart point in [-bound, bound]^dim_X."""
    return evaluate(param, random_chart_point(param, bound, rng))
