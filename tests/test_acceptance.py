"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavy barrier campaign is shared between the criteria that reuse its
instances (barrier inequality, factorization bound, prime-vs-rational
agreement); everything is rationally confirmed.
"""

import math
import random
import sys
import time
from fractions import Fraction

import pytest

from cactusbarrier.barrier import (
    ceilings,
    minimal_factor_subspace,
    verify_instance,
    verify_join_decomposition,
)
from cactusbarrier.exactalg import DEFAULT_PRIME, rank, rank_of_rows
from cactusbarrier.fields import QQ, PrimeField
from cactusbarrier.rankmethods import (
    DenseTensor,
    SymmetricForm,
    builtin_methods,
    catalecticant_method,
    check_k_consistency,
    evaluate_map,
    flattening,
    integer_image,
    koszul_flattening,
    lower_bound,
)
from cactusbarrier.schemes import (
    CurvilinearGerm,
    FiniteScheme,
    FirstNeighborhood,
    ReducedPoint,
    perturbed_family,
    random_scheme,
    scheme_span,
    scheme_span_vectors,
    span_of_limit_vs_limit_of_spans,
)
from cactusbarrier.varieties import homogeneous_exponents, parse_variety, random_point

VARIETIES = (
    "segre:2x2x2",
    "segre:3x3x3",
    "veronese:2,3",
    "veronese:3,3",
    "segre-veronese:(1,2)x(2,1)",
)

SCHEMES_PER_VARIETY = 100


def announce(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {label} ... {status}{extra}", file=sys.stderr, flush=True)
    assert ok, f"criterion {criterion} failed: {label} {extra}"


@pytest.fixture(scope="module")
def barrier_campaign():
    """Shared instances: (report, factor_dim, k, degree) per verified case.

    "fp_ranks" holds, per instance, the rank of M(F) over GF(p) from elimination
    mod p, with F rebuilt from the report's combination of the span vectors:
    a cross-check independent of the reported fp_rank, which is read off the
    rational elimination.
    """
    start = time.monotonic()
    rng = random.Random(20260810)
    results = []
    fp_ranks = []
    piece_kinds = set()
    for spec in VARIETIES:
        param = parse_variety(spec)
        methods = builtin_methods(param)
        assert methods, f"no methods for {spec}"
        for _ in range(SCHEMES_PER_VARIETY):
            r = rng.randint(1, 8)
            scheme = random_scheme(param, r, mix="mixed", bound=3, rng=rng)
            piece_kinds.update(type(p).__name__ for p in scheme.pieces)
            span = scheme_span(param, scheme)
            raw = scheme_span_vectors(param, scheme, QQ)
            for method in methods:
                rep = verify_instance(param, scheme, method, rng,
                                      prime=DEFAULT_PRIME, confirm="full")
                factor_dim = minimal_factor_subspace(method.map, span).dim
                results.append((rep, factor_dim, method.k, scheme.degree))
                f = [sum(c * v[j] for c, v in zip(rep.extra["combination"], raw))
                     for j in range(param.dim_W)]
                fp_ranks.append(rank_of_rows(PrimeField(DEFAULT_PRIME),
                                             integer_image(method.map, f, DEFAULT_PRIME)))
    elapsed = time.monotonic() - start
    return {"results": results, "fp_ranks": fp_ranks, "elapsed": elapsed,
            "piece_kinds": piece_kinds}


def test_criterion_1_barrier_suite(barrier_campaign):
    results = barrier_campaign["results"]
    confirmed = [rep for rep, *_ in results if rep.qq_confirmed]
    failures = [rep for rep in confirmed if rep.rank > rep.bound]
    all_kinds = barrier_campaign["piece_kinds"] == {
        "ReducedPoint", "CurvilinearGerm", "FirstNeighborhood"
    }
    elapsed = barrier_campaign["elapsed"]
    ok = (not failures) and len(confirmed) == len(results) and all_kinds and elapsed < 300
    announce(1, "barrier inequality rk M(F) <= k*r on all confirmed instances", ok,
             f"{len(confirmed)} instances, 0 failures expected, got {len(failures)}, "
             f"{elapsed:.1f}s")


def test_criterion_2_factorization_suite(barrier_campaign):
    bad = [
        (rep, dim) for rep, dim, k, deg in barrier_campaign["results"]
        if dim > k * deg
    ]
    announce(2, "minimal factor subspace dimension <= k*r on the same instances",
             not bad, f"{len(barrier_campaign['results'])} instances, {len(bad)} violations")


def test_criterion_3_ceiling_constants():
    ok = True
    details = []
    for m in (2, 3, 4, 5):
        rep = ceilings(f"segre:{m}x{m}x{m}")
        if rep.cactus_ceiling != 6 * m - 4:
            ok = False
            details.append(f"6m-4 failed at m={m}")
        if rep.grassmann_ceiling != 3 * m - 1:
            ok = False
            details.append(f"3m-1 failed at m={m}")
        expect_fill = -(-m**3 // (3 * m - 2))
        if rep.secant_fill_in != expect_fill:
            ok = False
            details.append(f"fill-in failed at m={m}")
    for (a, b, c) in ((2, 3, 4), (2, 2, 3), (3, 4, 5), (2, 3, 5), (4, 5, 6)):
        rep = ceilings(f"segre:{a}x{b}x{c}")
        if rep.cactus_ceiling != 2 * (a + b + c - 2):
            ok = False
            details.append(f"2(a+b+c-2) failed at {(a, b, c)}")
        if rep.secant_fill_in != -(-a * b * c // (a + b + c - 2)):
            ok = False
            details.append(f"fill-in failed at {(a, b, c)}")
    announce(3, "ceiling constants 6m-4, 2(a+b+c-2), fill-in, 3m-1", ok,
             "; ".join(details) if details else "all exact")


def test_criterion_4_barrier_gap():
    rng = random.Random(4)
    ok = True
    details = []
    for n in (3, 4, 5):
        param = parse_variety(f"veronese:{n},3")
        exps = homogeneous_exponents(n, 3)
        form = SymmetricForm(n + 1, 3, {e: rng.randint(1, 9) for e in exps})
        vec = form.to_vector()
        best = max(
            lower_bound(catalecticant_method(param, i), vec) for i in (1, 2)
        )
        fill = ceilings(param).secant_fill_in
        expect_fill = -(-math.comb(n + 3, 3) // (n + 1))
        gap_ok = best == n + 1 and fill == expect_fill and fill > best
        details.append(f"n={n}: catalecticant {best}, fill-in {fill}")
        ok = ok and gap_ok
    announce(4, "catalecticant bound n+1 strictly below the secant fill-in bound",
             ok, "; ".join(details))


def test_criterion_5_limit_principle():
    from cactusbarrier.fields import PolyRing

    R = PolyRing(QQ)
    ok = True
    details = []

    v21 = parse_variety("veronese:2,1")
    collinear = [
        ReducedPoint((R.of(0), R.of(0))),
        ReducedPoint((R.of(1), R.of(0))),
        ReducedPoint((R.of(2), R.t())),
    ]
    limit = FiniteScheme((
        ReducedPoint((Fraction(0), Fraction(0))),
        ReducedPoint((Fraction(1), Fraction(0))),
        ReducedPoint((Fraction(2), Fraction(0))),
    ))
    cmp1 = span_of_limit_vs_limit_of_spans(v21, collinear, limit)
    if not (cmp1.dim_span_limit == 2 and cmp1.dim_limit_spans == 3 and cmp1.inclusion_holds):
        ok = False
        details.append("collinear collision fixture wrong")

    v12 = parse_variety("veronese:1,2")
    from cactusbarrier.varieties import Germ

    tangent = [ReducedPoint((R.of(0),)), ReducedPoint((R.t(),))]
    tangent_limit = FiniteScheme((CurvilinearGerm(Germ((Fraction(0),), ((Fraction(1),),)), 2),))
    cmp2 = span_of_limit_vs_limit_of_spans(v12, tangent, tangent_limit)
    if not (cmp2.dim_span_limit == cmp2.dim_limit_spans == 2 and cmp2.inclusion_holds):
        ok = False
        details.append("tangent collision fixture wrong")

    rng = random.Random(5)
    specs = ("veronese:1,3", "veronese:2,2", "segre:2x2", "segre:2x2x2")
    fail = 0
    const_equal = True
    for i in range(100):
        param = parse_variety(specs[i % len(specs)])
        scheme = random_scheme(param, rng.randint(1, 4), mix="mixed", bound=2, rng=rng)
        if i % 10 == 0:
            from cactusbarrier.schemes import constant_family_pieces

            fam = constant_family_pieces(scheme.pieces)
            cmp = span_of_limit_vs_limit_of_spans(param, fam, scheme)
            const_equal = const_equal and cmp.dim_span_limit == cmp.dim_limit_spans
        else:
            fam = perturbed_family(scheme, rng, bound=2, tdeg=2)
            cmp = span_of_limit_vs_limit_of_spans(param, fam, scheme)
        if not cmp.inclusion_holds:
            fail += 1
    if fail or not const_equal:
        ok = False
        details.append(f"{fail} inclusion failures in 100 random families")
    announce(5, "span of limit inside limit of spans (fixtures + 100 random families)",
             ok, "; ".join(details) if details else "dims (2,3) strict, (2,2) equal, 0 failures")


def test_criterion_6_join_suite():
    rng = random.Random(6)
    cases = (
        ("segre:2x2x2", "flattening:split=1|23"),
        ("segre:2x2x2", "koszul:p=1"),
        ("segre:3x3x3", "koszul:p=1"),
        ("veronese:2,3", "catalecticant:i=1"),
    )
    from cactusbarrier.rankmethods import parse_method

    failures = 0
    additivity_bad = 0
    for i in range(100):
        spec, mspec = cases[i % len(cases)]
        param = parse_variety(spec)
        method = parse_method(mspec, param)
        r1 = random_scheme(param, rng.randint(1, 4), mix="mixed", bound=3, rng=rng)
        while True:
            r2 = random_scheme(param, rng.randint(1, 4), mix="mixed", bound=3, rng=rng)
            if not set(r1.supports()) & set(r2.supports()):
                break
        rep = verify_join_decomposition(param, param, r1, r2, method, rng)
        if not rep.passed or not rep.qq_confirmed:
            failures += 1
        if rep.bound != method.k * r1.degree + method.k * r2.degree:
            additivity_bad += 1

    # edge conventions: an empty side contributes nothing
    param = parse_variety("segre:2x2x2")
    from cactusbarrier.rankmethods import flattening_method

    meth = flattening_method(param, (0,))
    r = random_scheme(param, 3, mix="mixed", bound=3, rng=rng)
    empty = FiniteScheme(())
    e1 = verify_join_decomposition(param, param, empty, r, meth, rng)
    e2 = verify_join_decomposition(param, param, r, empty, meth, rng)
    e3 = verify_join_decomposition(param, param, empty, empty, meth, rng)
    edges_ok = (
        e1.passed and e1.bound == meth.k * r.degree
        and e2.passed and e2.bound == meth.k * r.degree
        and e3.passed and e3.bound == 0
    )
    ok = failures == 0 and additivity_bad == 0 and edges_ok
    announce(6, "join inequality rk M(F) <= k*(r1+r2) with empty-side conventions", ok,
             f"100 pairs, {failures} failures, edges {'ok' if edges_ok else 'bad'}")


def test_criterion_7_method_sanity():
    rng = random.Random(7)
    ok = True
    details = []

    for spec in VARIETIES:
        param = parse_variety(spec)
        for method in builtin_methods(param):
            best, attained = check_k_consistency(method, param, 200, 3, rng)
            if not attained:
                ok = False
                details.append(f"k not attained for {method.spec} on {spec}")

    # linearity and scaling invariance on 100 random fixtures
    maps = [
        flattening((3, 3, 3), (0,)),
        koszul_flattening((3, 3, 3), 1),
        flattening((2, 2, 2), (1,)),
    ]
    bad_linear = bad_scaling = 0
    for i in range(100):
        m = maps[i % len(maps)]
        f = [Fraction(rng.randint(-4, 4)) for _ in range(m.w)]
        g = [Fraction(rng.randint(-4, 4)) for _ in range(m.w)]
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        combo = [a * x + b * y for x, y in zip(f, g)]
        lhs = evaluate_map(m, combo).rows
        mf, mg = evaluate_map(m, f).rows, evaluate_map(m, g).rows
        rhs = [[a * x + b * y for x, y in zip(r1, r2)] for r1, r2 in zip(mf, mg)]
        if lhs != rhs:
            bad_linear += 1
        lam = Fraction(rng.randint(1, 9))
        if rank(evaluate_map(m, [lam * x for x in f])) != rank(evaluate_map(m, f)):
            bad_scaling += 1
    if bad_linear or bad_scaling:
        ok = False
        details.append(f"{bad_linear} linearity, {bad_scaling} scaling failures")

    first = flattening((4, 4, 4), (0,))
    for r in range(1, 5):
        t = DenseTensor.diagonal((4, 4, 4), r)
        if rank(evaluate_map(first, t.to_vector())) != r:
            ok = False
            details.append(f"diagonal flattening rank wrong at r={r}")

    p333 = parse_variety("segre:3x3x3")
    kmap = koszul_flattening((3, 3, 3), 1)
    for _ in range(10):
        x = random_point(p333, 3, rng)
        if rank(evaluate_map(kmap, x)) != 2:
            ok = False
            details.append("koszul rank of a rank-one tensor is not 2")
            break
    announce(7, "k-consistency, linearity, scaling, diagonal and rank-one values",
             ok, "; ".join(details) if details else "all checks exact")


def test_criterion_8_exactness_cross_check(barrier_campaign):
    reps = [rep for rep, *_ in barrier_campaign["results"]]
    screened = [rep for rep in reps if rep.fp_rank is not None]
    disagreements = [rep for rep in screened if rep.fp_rank != rep.rank]
    frac = len(disagreements) / len(screened) if screened else 0.0
    direction_ok = all(rep.fp_rank < rep.rank and rep.rank <= rep.bound
                       for rep in disagreements)
    fp_ranks = barrier_campaign["fp_ranks"]
    mismatched = [i for i, (rep, fp) in enumerate(zip(reps, fp_ranks)) if rep.fp_rank != fp]
    ok = (frac < 0.01 and direction_ok and len(screened) == len(reps)
          and len(fp_ranks) == len(reps) and not mismatched)
    announce(8, "prime screening vs rational confirmation agreement", ok,
             f"{len(disagreements)}/{len(screened)} disagreements ({frac:.2%}); "
             f"fp_rank equals elimination mod p on {len(reps) - len(mismatched)}/{len(reps)}")
