"""Finite subschemes as unions of local pieces, their spans, and limits of spans.

Supported local pieces are reduced points, curvilinear germs (jets of a curve),
and first infinitesimal neighborhoods. These three families have unambiguous
span computations and already realize the span-degeneration phenomena this
package verifies; arbitrary zero-dimensional ideals are out of scope. Each
piece class carries its own `span_vectors`, `map_coords` and `validate`.

Span vectors of a piece whose chart coordinates are all integral are computed
over ZZ, and those of a family piece whose coordinates are polynomials with
integral coefficients over ZZ[t] (see `fields.chart_ring`; schemes and
families share one per-piece loop): points, jets and tangent frames are sums
of products of coordinates, so the ints equal the rational vectors entry by
entry. Pieces with rational coordinates, prime fields, GF(q)[t] families and
truncated rings keep their own arithmetic. The dimension of the stated
limit's span and its inclusion in the limit of the spans are two ranks
(`rank_of_rows`, on integer rows over QQ), and each t-saturation step takes
a primitive integer relation from one fraction-free elimination
(`first_relation`), so Fractions remain only for rational coordinates.

Flat limits are never computed here. A one-parameter family carries its own
explicitly stated limit, and the code checks that the span of the stated limit
sits inside the limit of the family's spans, which it computes exactly by
t-saturation over the polynomial ring.

Generic ranks over the polynomial ring (which vectors `family_span` keeps,
and whether a family basis is flat) are the largest rank among the
specializations t = 1, ..., D + 1, where D bounds the degree of every minor
(see `exactalg.rank_of_rows`). Each specialization is ranked on integer rows
over QQ, or mod q over GF(q), so no polynomial elimination runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import Subspace, first_relation, rank_of_rows, subspace_from_vectors
from .fields import QQ, PolyRing, chart_ring
from .varieties import (
    Germ,
    VarietyParam,
    check_characteristic,
    evaluate_in_ring,
    jet_vectors_in_ring,
    tangent_vectors_in_ring,
)


class OverlappingSupportsError(ValueError):
    """Raised when two local pieces share a support point."""


@dataclass(frozen=True)
class _PointPiece:
    """A piece given by its support point alone; the base of the two point pieces.

    Neither point piece subclasses the other, so `isinstance` and equality
    tell them apart.
    """

    point: tuple

    @property
    def support(self) -> tuple:
        return self.point

    @property
    def coords(self) -> tuple:
        return self.point

    def map_coords(self, fn):
        """The same piece with `fn` applied to every chart coordinate."""
        return type(self)(tuple(fn(x) for x in self.point))

    def validate(self) -> None:
        """A point piece is valid whatever its point."""


class ReducedPoint(_PointPiece):
    """A single reduced chart point; degree 1."""

    @property
    def degree(self) -> int:
        return 1

    def span_vectors(self, param: VarietyParam, ring) -> list[list]:
        """The chart point, its coordinates elements of `ring`."""
        return [evaluate_in_ring(param, list(self.point), ring)]


class FirstNeighborhood(_PointPiece):
    """A point together with all its first-order directions; degree = dim_X + 1."""

    @property
    def degree(self) -> int:
        return len(self.point) + 1

    def span_vectors(self, param: VarietyParam, ring) -> list[list]:
        """The chart point and its first partials, its coordinates elements of `ring`."""
        check_characteristic(ring, param, 2)
        return tangent_vectors_in_ring(param, list(self.point), ring)


@dataclass(frozen=True)
class CurvilinearGerm:
    """Jet of a curve germ up to order length-1; degree = length."""

    germ: Germ
    length: int

    @property
    def support(self) -> tuple:
        return self.germ.base

    @property
    def coords(self) -> tuple:
        return self.germ.base + tuple(x for c in self.germ.coeffs for x in c)

    @property
    def degree(self) -> int:
        return self.length

    def map_coords(self, fn) -> CurvilinearGerm:
        """The same germ with `fn` applied to every chart coordinate, base first, then coeffs."""
        base = tuple(fn(x) for x in self.germ.base)
        coeffs = tuple(tuple(fn(x) for x in c) for c in self.germ.coeffs)
        return CurvilinearGerm(Germ(base, coeffs), self.length)

    def validate(self) -> None:
        if self.length < 2:
            raise ValueError("curvilinear pieces need length >= 2")
        for m, c in enumerate(self.germ.coeffs, 1):
            if len(c) != len(self.germ.base):
                raise ValueError(f"curvilinear order-{m} coefficients have length {len(c)}, "
                                 f"but the base has length {len(self.germ.base)}")
        if not self.germ.coeffs or not any(self.germ.coeffs[0]):
            raise ValueError("curvilinear germ needs a nonzero first-order direction")

    def span_vectors(self, param: VarietyParam, ring) -> list[list]:
        """The jets of orders 0..length-1, the germ's coordinates elements of `ring`."""
        check_characteristic(ring, param, self.length)
        return jet_vectors_in_ring(
            param, list(self.germ.base), [list(c) for c in self.germ.coeffs], self.length, ring)


Piece = ReducedPoint | CurvilinearGerm | FirstNeighborhood


@dataclass(frozen=True)
class FiniteScheme:
    """A zero-dimensional subscheme given as a union of local pieces with disjoint supports."""

    pieces: tuple

    @property
    def degree(self) -> int:
        return sum(p.degree for p in self.pieces)

    def supports(self) -> list[tuple]:
        return [p.support for p in self.pieces]


def _format_support(support: tuple) -> str:
    """A support as the file formats write it: 1/2, and a polynomial as its coefficient list."""
    return "(" + ", ".join(
        "[" + ", ".join(map(str, x)) + "]" if isinstance(x, tuple) else str(x)
        for x in support) + ")"


def validate_scheme(param: VarietyParam, scheme: FiniteScheme) -> None:
    seen = set()
    for p in scheme.pieces:
        if len(p.support) != param.dim_X:
            raise ValueError(
                f"piece support length {len(p.support)} does not match dim_X={param.dim_X}"
            )
        if p.support in seen:
            raise OverlappingSupportsError(
                f"two pieces share the support {_format_support(p.support)}")
        seen.add(p.support)
        p.validate()


def _span_vectors(param: VarietyParam, pieces, field) -> list[list]:
    """Spanning vectors of the pieces over `field`, each piece in its `chart_ring`.

    `field` is a field for a scheme and a polynomial ring in t for a family.
    """
    out = []
    for p in pieces:
        ring = chart_ring(field, p.coords)
        coerce = ring.from_coeffs if isinstance(ring, PolyRing) else ring.of
        out.extend(p.map_coords(coerce).span_vectors(param, ring))
    return out


def scheme_span_vectors(param: VarietyParam, scheme: FiniteScheme, field=QQ) -> list[list]:
    """Raw spanning vectors of the scheme, concatenated piece by piece.

    Over QQ, a piece with integral coordinates gives int vectors.
    """
    validate_scheme(param, scheme)
    return _span_vectors(param, scheme.pieces, field)


def scheme_span(param: VarietyParam, scheme: FiniteScheme, field=QQ) -> Subspace:
    """Linear span of the scheme; its dimension never exceeds the degree."""
    return subspace_from_vectors(field, param.dim_W, scheme_span_vectors(param, scheme, field))


_MIX_KINDS = {
    "reduced": ("reduced",),
    "curv": ("curv",),
    "nbhd": ("nbhd",),
    "mixed": ("reduced", "curv", "nbhd"),
}


def _fresh_support(param: VarietyParam, bound: int, rng, used: set) -> tuple:
    for _ in range(200):
        pt = tuple(rng.randint(-bound, bound) for _ in range(param.dim_X))
        if pt not in used:
            used.add(pt)
            return pt
    raise ValueError(
        f"cannot place distinct supports with bound {bound} in dimension {param.dim_X}"
    )


def _random_direction(dim: int, bound: int, rng) -> tuple:
    while True:
        c = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if any(c):
            return c


def check_random_degree(param: VarietyParam, degree: int, mix: str) -> None:
    """Raise ValueError unless `random_scheme` can fill `degree` under `mix`.

    The degree is at least 1, the mix is a key of the mix table, and the
    degree is admissible for the mix: no smaller than its smallest piece,
    and a multiple of the neighborhood degree when only neighborhoods are
    allowed.
    """
    if degree < 1:
        raise ValueError("degree budget must be at least 1")
    if mix not in _MIX_KINDS:
        raise ValueError(f"unknown mix {mix!r}; choose from {sorted(_MIX_KINDS)}")
    kinds = _MIX_KINDS[mix]
    nbhd_deg = param.dim_X + 1
    minimal = min({"reduced": 1, "curv": 2, "nbhd": nbhd_deg}[k] for k in kinds)
    if degree < minimal:
        raise ValueError(
            f"degree {degree} is below the smallest admissible piece ({minimal}) for mix {mix!r}"
        )
    if kinds == ("nbhd",) and degree % nbhd_deg:
        raise ValueError(
            f"degree {degree} is not a multiple of the neighborhood degree {nbhd_deg}"
        )


def random_scheme(param: VarietyParam, degree_budget: int, mix: str = "mixed",
                  bound: int = 3, rng=None) -> FiniteScheme:
    """A random scheme of total degree exactly `degree_budget` with distinct supports."""
    if rng is None:
        raise ValueError("an explicit rng is required")
    if bound < 1:
        raise ValueError("support bound must be at least 1")
    check_random_degree(param, degree_budget, mix)
    kinds = _MIX_KINDS[mix]
    nbhd_deg = param.dim_X + 1

    used: set = set()
    pieces: list[Piece] = []
    remaining = degree_budget
    while remaining:
        options = []
        if "reduced" in kinds and remaining >= 1:
            options.append("reduced")
        if "curv" in kinds and remaining >= 2:
            options.append("curv")
        if "nbhd" in kinds and remaining >= nbhd_deg:
            if kinds != ("nbhd",) or remaining % nbhd_deg == 0:
                options.append("nbhd")
        if not options:
            raise ValueError(
                f"cannot fill remaining degree {remaining} under mix {mix!r}"
            )
        kind = rng.choice(options)
        if kind == "reduced":
            pieces.append(ReducedPoint(_fresh_support(param, bound, rng, used)))
            remaining -= 1
        elif kind == "nbhd":
            pieces.append(FirstNeighborhood(_fresh_support(param, bound, rng, used)))
            remaining -= nbhd_deg
        else:
            lengths = [l for l in range(2, remaining + 1) if remaining - l != 1 or "reduced" in kinds]
            length = rng.choice(lengths)
            base = _fresh_support(param, bound, rng, used)
            coeffs = [_random_direction(param.dim_X, bound, rng)]
            for _ in range(length - 2):
                coeffs.append(tuple(rng.randint(-bound, bound) for _ in range(param.dim_X)))
            pieces.append(CurvilinearGerm(Germ(base, tuple(coeffs)), length))
            remaining -= length
    return FiniteScheme(tuple(pieces))


@dataclass
class SpanFamily:
    """A family of subspaces over a punctured disk, spanned by polynomial vectors in t.

    The basis must have full generic rank (rank over the fraction field of the
    polynomial ring equals the basis length).
    """

    ambient_dim: int
    basis: list
    ring: PolyRing


def generic_rank(fam: SpanFamily) -> int:
    """Rank of the basis over the fraction field of the polynomial ring.

    See `rank_of_rows`: the largest rank among enough specializations of t.
    """
    return rank_of_rows(fam.ring, fam.basis)


def limit_of_spans(fam: SpanFamily) -> Subspace:
    """The t->0 limit of the family of spans, computed by exact t-saturation.

    Iteratively: evaluate at t=0; while a row there depends on those before
    it, replace the first such row by its relation (`first_relation`, one
    elimination per step) divided by the largest possible power of t;
    repeat. The output dimension equals the generic rank of the family.

    The basis must have full generic rank (see `generic_rank`), or
    ValueError is raised. Over QQ[t] the relation is the primitive integer
    one, a nonzero multiple of the rational kernel vector, so the steps and
    the limit are the same, and int vectors stay ints.
    """
    ring = fam.ring
    base = ring.base
    m = len(fam.basis)
    if m == 0:
        return Subspace(base, fam.ambient_dim, [])
    vecs = [list(v) for v in fam.basis]
    for v in vecs:
        vals = [ring.valuation(e) for e in v if not ring.is_zero(e)]
        if not vals:
            raise ValueError("family contains an identically zero column")
        shift = min(vals)
        if shift:
            for j in range(fam.ambient_dim):
                v[j] = ring.shift_down(v[j], shift)
    if generic_rank(SpanFamily(fam.ambient_dim, vecs, ring)) != m:
        raise ValueError("family basis drops rank generically (non-flat presentation)")

    max_steps = sum(max(ring.degree(e), 0) for v in vecs for e in v) + m + 8
    for _ in range(max_steps):
        # constant terms; 0 is the zero of QQ and of GF(q) alike
        at0 = [[e[0] if e else 0 for e in v] for v in vecs]
        combo = first_relation(base, at0)
        if combo is None:
            return Subspace(base, fam.ambient_dim, at0)
        target = max(i for i, c in enumerate(combo) if c)
        new = [ring.zero] * fam.ambient_dim
        for i, c in enumerate(combo):
            if not c:
                continue
            for j in range(fam.ambient_dim):
                new[j] = ring.add(new[j], ring.scale(c, vecs[i][j]))
        vals = [ring.valuation(e) for e in new if not ring.is_zero(e)]
        if not vals:
            raise ValueError("family basis drops rank generically (non-flat presentation)")
        shift = min(vals)
        vecs[target] = [ring.shift_down(e, shift) for e in new]
    raise RuntimeError("t-saturation did not stabilize; malformed family")


def family_span(param: VarietyParam, pieces, ring: PolyRing | None = None) -> SpanFamily:
    """SpanFamily of a scheme family, keeping a generically independent subset.

    Raw spanning vectors are scanned in order, and each is kept when it is
    generically independent of those kept before it: when appending it
    raises the generic rank (`rank_of_rows` over the polynomial ring).

    Over QQ[t], a piece whose coordinates have integral coefficients gives
    vectors of int polynomials (see `fields.chart_ring`).
    """
    if ring is None:
        ring = PolyRing(QQ)
    kept: list = []
    for v in _span_vectors(param, pieces, ring):
        if rank_of_rows(ring, kept + [v]) > len(kept):
            kept.append(v)
    return SpanFamily(param.dim_W, kept, ring)


@dataclass
class LimitComparison:
    """Dimensions of the span of the stated limit vs the limit of the spans."""

    dim_span_limit: int
    dim_limit_spans: int
    inclusion_holds: bool

    @property
    def strict(self) -> bool:
        return self.inclusion_holds and self.dim_span_limit < self.dim_limit_spans


def compare_limit(param: VarietyParam, fam: SpanFamily,
                  limit_scheme: FiniteScheme) -> LimitComparison:
    """Check that the span of the stated limit lies inside the limit of the family's spans.

    Both answers are ranks: the limit's basis is independent, so the span of
    the stated limit lies inside it exactly when adding the limit scheme's
    vectors leaves the rank at its dimension.
    """
    lim = limit_of_spans(fam)
    base = fam.ring.base
    raw0 = scheme_span_vectors(param, limit_scheme, base)
    inclusion = rank_of_rows(base, lim.basis + raw0) == lim.dim
    return LimitComparison(rank_of_rows(base, raw0), lim.dim, inclusion)


def span_of_limit_vs_limit_of_spans(param: VarietyParam, family_pieces,
                                    limit_scheme: FiniteScheme, field=QQ) -> LimitComparison:
    """Check that the span of the stated limit lies inside the limit of the spans.

    The family is a list of pieces whose chart data are polynomials in t; the
    flat limit at t=0 is supplied by the caller, not computed.
    """
    return compare_limit(param, family_span(param, family_pieces, PolyRing(field)), limit_scheme)


def constant_family_pieces(pieces, field=QQ) -> list:
    """Lift a rational scheme to a constant-in-t family (each coordinate a constant polynomial)."""
    ring = PolyRing(field)
    return [p.map_coords(ring.of) for p in pieces]


def perturbed_family(scheme: FiniteScheme, rng, bound: int = 2, tdeg: int = 2, field=QQ) -> list:
    """Random polynomial deformation of a scheme whose member at t=0 is the scheme itself.

    Constant terms are kept, higher t-coefficients are random integers, so the
    stated limit of the family is exactly the input scheme.
    """
    ring = PolyRing(field)

    def wiggle(x):
        return ring.from_coeffs([x] + [rng.randint(-bound, bound) for _ in range(tdeg)])

    return [p.map_coords(wiggle) for p in scheme.pieces]
