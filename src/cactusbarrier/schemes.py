"""Finite subschemes as unions of local pieces, their spans, and limits of spans.

Supported local pieces are reduced points, curvilinear germs (jets of a curve),
and first infinitesimal neighborhoods. These three families have unambiguous
span computations and already realize the span-degeneration phenomena this
package verifies; arbitrary zero-dimensional ideals are out of scope. Each
piece class carries its own `span_vectors`, `map_coords` and `validate`.

Spans are over QQ and families over QQ[t], the one ring `fields.POLY`: a
`SpanFamily` is an ambient dimension and a basis, and carries no ring. A
piece's span vectors take their arithmetic from its chart coordinates (see
`varieties`; schemes and families share one per-piece loop): integral
coordinates, or polynomials with integral coefficients, give ints, or
polynomials with int coefficients, equal to the rational vectors entry by
entry, and rational ones give Fractions among the entries. The stated
limit's span dimension and its inclusion in the limit of the spans are two
ranks (`rank_of_rows` on integer rows), and each t-saturation step takes a
primitive integer relation (`first_relation`). Both, and the t = 1 scan of
`family_span` (`first_dependent`), run the one fraction-free elimination,
`exactalg.bareiss`.

A scheme's span data are computed once: `scheme_span_vectors` keeps one
memo entry, keyed by the identity of (param, scheme), so the same two
objects get the same shared list back, unvalidated, and any other pair
replaces the entry. It also keeps the cleared rows and their rank
(`cleared_span`), which the first `barrier.verify_instance` computes.

Flat limits are never computed here. A one-parameter family carries its own
explicitly stated limit, and the code checks that the span of the stated limit
sits inside the limit of the family's spans, which it computes exactly by
t-saturation over QQ[t].

A family proves its independence once. Specializing never raises a rank,
so `family_span` keeps every vector before the first one dependent at t = 1
with no generic rank, and `limit_of_spans` checks flatness only when the
constant terms are dependent. A generic rank, where one still runs, is the
largest rank among the specializations t = 1, ..., D + 1, D a bound on the
degree of every minor (see `exactalg.rank_of_rows`), each ranked on integer
rows over QQ, so no polynomial elimination runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import (Subspace, clear_rows, first_dependent, first_relation, rank_of_rows,
                       subspace_from_vectors)
from .fields import POLY, QQ, RationalField
from .varieties import Germ, VarietyParam, evaluate, jet_vectors, tangent_vectors


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

    def span_vectors(self, param: VarietyParam) -> list[list]:
        """The chart point."""
        return [evaluate(param, self.point)]


class FirstNeighborhood(_PointPiece):
    """A point together with all its first-order directions; degree = dim_X + 1."""

    @property
    def degree(self) -> int:
        return len(self.point) + 1

    def span_vectors(self, param: VarietyParam) -> list[list]:
        """The chart point and its first partials."""
        return tangent_vectors(param, self.point)


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

    def span_vectors(self, param: VarietyParam) -> list[list]:
        """The jets of orders 0..length-1."""
        return jet_vectors(param, self.germ.base, self.germ.coeffs, self.length)


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


def _span_vectors(param: VarietyParam, pieces) -> list[list]:
    """Spanning vectors of the pieces, concatenated piece by piece."""
    return [v for p in pieces for v in p.span_vectors(param)]


_last_span: list = [None, None, None, None]  # param, scheme, vectors, `cleared_span` or None


def scheme_span_vectors(param: VarietyParam, scheme: FiniteScheme, field=QQ) -> list[list]:
    """Raw spanning vectors of the scheme over QQ, concatenated piece by piece.

    A piece with integral coordinates gives int vectors. `field` must be
    QQ; any other raises TypeError (the benchmark passes `QQ` positionally,
    so the parameter stays until ROADMAP item 11). The list is shared
    through the memo (see above), so no caller may change it. A scheme that
    fails validation raises and leaves the memo as it was.
    """
    if not isinstance(field, RationalField):
        raise TypeError(f"no span vectors over {field!r}")
    if _last_span[0] is not param or _last_span[1] is not scheme:
        validate_scheme(param, scheme)
        _last_span[:] = [param, scheme, _span_vectors(param, scheme.pieces), None]
    return _last_span[2]


def cleared_span(param: VarietyParam, scheme: FiniteScheme) -> tuple:
    """(d, the shared span vectors times d as int rows, their rank), once per memo entry."""
    vectors = scheme_span_vectors(param, scheme)
    if _last_span[3] is None:
        den, ints = clear_rows(vectors)
        _last_span[3] = den, ints, rank_of_rows(QQ, ints)
    return _last_span[3]


def scheme_span(param: VarietyParam, scheme: FiniteScheme) -> Subspace:
    """Linear span of the scheme over QQ; its dimension never exceeds the degree."""
    return subspace_from_vectors(param.dim_W, scheme_span_vectors(param, scheme))


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
    """A family of subspaces over a punctured disk, spanned by vectors over QQ[t].

    The basis must have full generic rank (rank over the fraction field of
    QQ[t] equals the basis length).
    """

    ambient_dim: int
    basis: list


def generic_rank(fam: SpanFamily) -> int:
    """Rank of the basis over the fraction field of QQ[t].

    See `rank_of_rows`: the largest rank among enough specializations of t.
    """
    return rank_of_rows(POLY, fam.basis)


def limit_of_spans(fam: SpanFamily) -> Subspace:
    """The t->0 limit of the family of spans, computed by exact t-saturation.

    Iteratively: evaluate at t=0; while a row there depends on those before
    it, replace the first such row by its relation (`first_relation`, one
    elimination per step) divided by the largest possible power of t;
    repeat. The output dimension equals the generic rank of the family.

    The basis must have full generic rank, or ValueError is raised. Its
    `generic_rank` runs only when the first constant terms are dependent:
    independent ones prove it, and a dependent basis has dependent constant
    terms. Over QQ[t] the relation is the primitive integer one, a nonzero
    multiple of the rational kernel vector, so the steps and the limit are
    the same, and int vectors stay ints.
    """
    m = len(fam.basis)
    if m == 0:
        return Subspace(fam.ambient_dim, [])
    vecs = []
    for v in fam.basis:
        vals = [POLY.valuation(e) for e in v if e]
        if not vals:
            raise ValueError("family contains an identically zero column")
        shift = min(vals)
        vecs.append([e[shift:] for e in v])
    max_steps = sum(max(len(e) - 1, 0) for v in vecs for e in v) + m + 8
    for step in range(max_steps):
        at0 = [[e[0] if e else 0 for e in v] for v in vecs]  # constant terms
        combo = first_relation(at0)
        if combo is None:
            return Subspace(fam.ambient_dim, at0)
        if not step and generic_rank(SpanFamily(fam.ambient_dim, vecs)) != m:
            raise ValueError("family basis drops rank generically (non-flat presentation)")
        target = max(i for i, c in enumerate(combo) if c)
        new = [POLY.zero] * fam.ambient_dim
        for i, c in enumerate(combo):
            if not c:
                continue
            for j in range(fam.ambient_dim):
                new[j] = POLY.add(new[j], POLY.scale(c, vecs[i][j]))
        vals = [POLY.valuation(e) for e in new if e]
        if not vals:
            raise ValueError("family basis drops rank generically (non-flat presentation)")
        shift = min(vals)
        vecs[target] = [e[shift:] for e in new]
    raise RuntimeError("t-saturation did not stabilize; malformed family")


def family_span(param: VarietyParam, pieces) -> SpanFamily:
    """SpanFamily over QQ[t] of a scheme family, keeping a generically independent subset.

    Raw spanning vectors are scanned in order, and each is kept when it is
    generically independent of those kept before it. Every vector before
    the first one dependent at t = 1 (`first_dependent` of the t = 1
    values) is kept with no generic rank: specializing never raises a rank.
    From that one on, a vector is kept when appending it raises the generic
    rank (`rank_of_rows` over QQ[t]). Integral pieces give vectors of int
    polynomials (see `varieties`).
    """
    raw = _span_vectors(param, pieces)
    found = first_dependent([[sum(e) for e in v] for v in raw])  # the values at t = 1
    first = len(raw) if found is None else found[0]
    kept = raw[:first]
    for v in raw[first:]:
        if rank_of_rows(POLY, kept + [v]) > len(kept):
            kept.append(v)
    return SpanFamily(param.dim_W, kept)


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
    raw0 = scheme_span_vectors(param, limit_scheme)
    inclusion = rank_of_rows(QQ, lim.basis + raw0) == lim.dim
    return LimitComparison(rank_of_rows(QQ, raw0), lim.dim, inclusion)


def span_of_limit_vs_limit_of_spans(param: VarietyParam, family_pieces,
                                    limit_scheme: FiniteScheme) -> LimitComparison:
    """Check that the span of the stated limit lies inside the limit of the spans.

    The family is a list of pieces whose chart data are polynomials in t; the
    flat limit at t=0 is supplied by the caller, not computed.
    """
    return compare_limit(param, family_span(param, family_pieces), limit_scheme)


def constant_family_pieces(pieces) -> list:
    """Lift a rational scheme to a constant-in-t family (each coordinate a constant polynomial)."""
    return [p.map_coords(POLY.of) for p in pieces]


def perturbed_family(scheme: FiniteScheme, rng, bound: int = 2, tdeg: int = 2) -> list:
    """Random polynomial deformation of a scheme whose member at t=0 is the scheme itself.

    Constant terms are kept, higher t-coefficients are random integers, so the
    stated limit of the family is exactly the input scheme.
    """
    def wiggle(x):
        return POLY.from_coeffs([x] + [rng.randint(-bound, bound) for _ in range(tdeg)])

    return [p.map_coords(wiggle) for p in scheme.pieces]
