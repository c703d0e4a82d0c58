"""Verification of the barrier inequalities on concrete scheme instances.

The verified statement is always the same: for F in the span of a finite
subscheme of degree r on a smooth chart variety, rank M(F) <= k * r for any
linear matrix map whose rank on chart points is at most k. Each instance
clears the span vectors once, to integer rows, draws F on them and ranks
M(F) once, by one fraction-free elimination over the integers, which gives
the rational rank that every report states and, as `fp_rank`, the rank over
a large prime field (the screen). So every report is confirmed over QQ,
and a violation is a build-stopping bug, never a discovery, since only
smooth varieties are in scope here.

The ceiling calculator reports the closed-form degrees at which scheme spans
fill the ambient space, which cap every bound any such method can certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from .exactalg import (
    DEFAULT_PRIME,
    Subspace,
    clear_rows,
    rank_of_rows,
    rank_qq_and_mod_p,
    sample_combination,
    subspace_from_vectors,
)
from .fields import QQ, ZZ
from .rankmethods import LinearMatrixMap, RankMethod, evaluate_map, integer_image
from .schemes import FiniteScheme, scheme_span, scheme_span_vectors
from .varieties import VarietyParam, parse_variety


@dataclass
class BarrierReport:
    """Outcome of one verified instance."""

    variety: str
    method: str
    k: int
    k_source: str
    degree: int
    span_dim: int
    rank: int
    bound: int
    passed: bool
    field: str = "QQ"
    fp_rank: int | None = None
    qq_confirmed: bool = True
    seed: int | None = None
    kind: str = "instance"
    extra: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "variety": self.variety,
            "method": self.method,
            "k": self.k,
            "k_source": self.k_source,
            "degree": self.degree,
            "span_dim": self.span_dim,
            "rank": self.rank,
            "bound": self.bound,
            "passed": self.passed,
            "field": self.field,
            "fp_rank": self.fp_rank,
            "qq_confirmed": self.qq_confirmed,
            "seed": self.seed,
        }
        d.update(self.extra)
        return d


def _sample_and_check(param: VarietyParam, method: RankMethod, vectors: list, degree: int,
                      rng, *, bound: int, prime: int | None, seed: int | None, kind: str,
                      extra: dict) -> tuple:
    """(coefficients, report) for F sampled from `vectors`: is rank M(F) <= k * degree?

    The vectors are cleared once, over one common denominator d, and F is
    f / d for an integer combination f of the rows. `integer_image` gets
    lambda * F = f // gcd(d, f), lambda the least denominator of F (a prime
    dividing lambda raises ZeroDivisionError, as `common_denominator` does).
    The rows of M(F) are ranked once: with a prime, `rank_qq_and_mod_p` also
    gives fp_rank (never above the rational rank), else fp_rank is None. At
    degree zero nothing is drawn, the report is all zeros and the
    coefficients are None.
    """
    head = (param.spec, method.spec, method.k, method.k_source)
    if degree == 0:
        return None, BarrierReport(*head, 0, 0, 0, 0, True, seed=seed, kind=kind, extra=extra)
    den, ints = clear_rows(vectors)
    coeffs, f = sample_combination(ZZ, ints, bound, rng)
    if den > 1:
        g = math.gcd(den, *f)
        if prime is not None and den // g % prime == 0:
            raise ZeroDivisionError(f"the denominator {den // g} of F vanishes mod {prime}")
        f = [x // g for x in f]
    rows = integer_image(method.map, f, prime)
    if prime is None:
        rk, fp_rank = rank_of_rows(QQ, rows), None
    else:
        rk, fp_rank = rank_qq_and_mod_p(rows, prime)
    cap = method.k * degree
    return coeffs, BarrierReport(*head, degree, rank_of_rows(QQ, ints), rk, cap, rk <= cap,
                                 fp_rank=fp_rank, seed=seed, kind=kind, extra=extra)


def verify_instance(param: VarietyParam, scheme: FiniteScheme, method: RankMethod,
                    rng, *, prime: int | None = DEFAULT_PRIME, confirm: str = "full",
                    bound: int = 5, seed: int | None = None) -> BarrierReport:
    """Sample F in the span of the scheme and check rank M(F) <= k * degree.

    The report states the rational rank of M(F) and, as ``fp_rank``, its
    rank mod ``prime`` from the same elimination (None with ``prime=None``).
    ``confirm`` accepts only "full": every report is confirmed over QQ, and
    any other value raises ValueError before ``rng`` is drawn from.
    """
    if confirm != "full":
        raise ValueError(f"confirm={confirm!r}: every rank is confirmed, only 'full' remains")
    if method.map.w != param.dim_W:
        raise ValueError(
            f"method acts on W of dimension {method.map.w}, variety has {param.dim_W}"
        )
    raw = scheme_span_vectors(param, scheme, QQ) if scheme.degree else []
    coeffs, report = _sample_and_check(param, method, raw, scheme.degree, rng, bound=bound,
                                       prime=prime, seed=seed, kind="instance", extra={})
    if coeffs is not None:
        report.extra["combination"] = coeffs
    return report


def minimal_factor_subspace(m: LinearMatrixMap, u: Subspace) -> Subspace:
    """Smallest subspace B' of the column index space with every M(x), x in u, inside A (x) B'.

    Concretely the span of all rows of M(x) over a basis of u; when u is the
    span of a degree-r scheme and the method constant is k, its dimension is
    at most k * r.
    """
    if u.ambient_dim != m.w:
        raise ValueError(f"subspace lives in dimension {u.ambient_dim}, map needs {m.w}")
    rows = (row for x in u.basis for row in evaluate_map(m, x, u.field).rows)
    return subspace_from_vectors(u.field, m.b, rows)


def verify_join_decomposition(param1: VarietyParam, param2: VarietyParam,
                              r1: FiniteScheme, r2: FiniteScheme, method: RankMethod,
                              rng, *, prime: int | None = DEFAULT_PRIME, bound: int = 5,
                              seed: int | None = None) -> BarrierReport:
    """Sample F in the span of {F1, F2} with Fi in the span of Ri and check the joint bound.

    The two schemes play the role of pieces on disjoint (regions of) varieties;
    the empty scheme is allowed on either side, matching the conventions that
    degree zero contributes nothing and a join with nothing is the other side.
    ``prime`` acts as in `verify_instance`.
    """
    if param1.spec != param2.spec or param1.dim_W != param2.dim_W:
        raise ValueError("join verification needs two copies of the same chart variety")
    overlap = set(r1.supports()) & set(r2.supports())
    if overlap:
        raise ValueError(f"scheme supports overlap at {sorted(overlap)}")
    parts = [sample_combination(QQ, scheme_span_vectors(param1, scheme, QQ), bound, rng)[1]
             for scheme in (r1, r2) if scheme.degree]
    return _sample_and_check(param1, method, parts, r1.degree + r2.degree, rng, bound=bound,
                             prime=prime, seed=seed, kind="join",
                             extra={"degree1": r1.degree, "degree2": r2.degree})[1]


def grassmann_containment(e: Subspace, param: VarietyParam, scheme: FiniteScheme) -> bool:
    """True iff every basis vector of the plane lies in the span of the scheme.

    A positive answer witnesses membership of the plane in the corresponding
    pre-closure Grassmann locus; nothing is asserted beyond the witness.
    """
    if e.ambient_dim != param.dim_W:
        raise ValueError("plane and variety live in different ambient spaces")
    span = scheme_span(param, scheme, e.field)
    return rank_of_rows(e.field, span.basis + e.basis) == span.dim


class UnsupportedVarietyError(ValueError):
    """Raised when no ceiling formula is on record for the requested variety."""


@dataclass
class CeilingReport:
    """Closed-form ceilings for a variety; every number carries its formula label."""

    variety: str
    cactus_ceiling: int | None
    secant_fill_in: int
    grassmann_ceiling: int | None
    labels: dict
    notes: list

    def to_dict(self) -> dict:
        return {
            "variety": self.variety,
            "cactus_ceiling": self.cactus_ceiling,
            "secant_fill_in": self.secant_fill_in,
            "grassmann_ceiling": self.grassmann_ceiling,
            "labels": self.labels,
            "notes": self.notes,
        }


def ceilings(variety) -> CeilingReport:
    """Ceiling constants for three-factor Segre and Veronese varieties.

    Reports the degree g at which spans of degree-g schemes fill the ambient
    space (so no linear rank method can certify border rank beyond g), the
    generic-secant fill-in lower bound, and, for balanced three-factor Segre,
    the analogous ceiling for planes. Numbers are only reported where a
    closed formula is on record; nothing is guessed.
    """
    param = parse_variety(variety) if isinstance(variety, str) else variety
    labels: dict = {}
    notes: list = []
    fill_in = -(-param.dim_W // (param.dim_X + 1))
    labels["secant_fill_in"] = "ceil(dim W / (dim X + 1))"

    g = None
    g2 = None
    if len(param.factors) == 3 and all(f.d == 1 for f in param.factors):
        a, b, c = (f.n + 1 for f in param.factors)
        g = 2 * (a + b + c - 2)
        labels["cactus_ceiling"] = "2(a+b+c-2)"
        labels["secant_fill_in"] = "ceil(abc / (a+b+c-2))"
        if a == b == c:
            labels["cactus_ceiling"] = "2(a+b+c-2) = 6m-4"
            g2 = 3 * a - 1
            labels["grassmann_ceiling"] = "3m-1"
    elif len(param.factors) == 1:
        f = param.factors[0]
        if f.d == 3:
            notes.append(
                "generic cactus rank of cubics admits a known upper bound from "
                "small apolar schemes; no closed formula is reported here"
            )
        else:
            notes.append("no cactus ceiling formula on record for this variety")
    else:
        raise UnsupportedVarietyError(
            f"no ceiling formulas on record for {param.spec}; "
            "supported: three-factor segre and veronese"
        )
    return CeilingReport(param.spec, g, fill_in, g2, labels, notes)
