import copy
import gc
import random
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cactusbarrier.barrier as barrier
import cactusbarrier.schemes as schemes
from cactusbarrier.barrier import (
    BarrierReport,
    UnsupportedVarietyError,
    _sample_and_check,
    ceilings,
    grassmann_containment,
    minimal_factor_subspace,
    verify_instance,
    verify_join_decomposition,
)
from cactusbarrier.exactalg import (
    DEFAULT_PRIME,
    Subspace,
    clear_denominators,
    clear_rows,
    rank,
    sample_combination,
    subspace_from_vectors,
)
from cactusbarrier.fields import QQ, RationalField
from cactusbarrier.rankmethods import (
    builtin_methods,
    catalecticant_method,
    evaluate_map,
    flattening,
    flattening_method,
    integer_image,
    koszul_flattening,
    koszul_method,
    map_rank,
)
from cactusbarrier.schemes import (
    CurvilinearGerm,
    FiniteScheme,
    FirstNeighborhood,
    OverlappingSupportsError,
    ReducedPoint,
    cleared_span,
    compare_limit,
    family_span,
    perturbed_family,
    random_scheme,
    scheme_span,
    scheme_span_vectors,
)
from cactusbarrier.varieties import (
    Germ,
    evaluate,
    parse_variety,
    random_point,
    tangent_vectors,
)
from oracles import (
    ReducedEchelon,
    Scalars,
    fraction_sample_combination,
    in_span,
    reduced_echelon,
)


def fr(x):
    return Fraction(x)


def test_verify_instance_reduced_points_flattening():
    p = parse_variety("segre:3x3x3")
    rng = random.Random(50)
    sch = random_scheme(p, 4, mix="reduced", bound=3, rng=rng)
    rep = verify_instance(p, sch, flattening_method(p, (0,)), rng)
    assert rep.passed and rep.rank <= 4
    assert rep.qq_confirmed and rep.field == "QQ"


def test_verify_instance_curvilinear_koszul():
    p = parse_variety("segre:3x3x3")
    rng = random.Random(51)
    base = (fr(0),) * 6
    coeffs = tuple(
        tuple(fr(rng.randint(-2, 2)) for _ in range(6)) for _ in range(4)
    )
    coeffs = ((fr(1),) * 6,) + coeffs[1:]
    sch = FiniteScheme((CurvilinearGerm(Germ(base, coeffs), 5),))
    rep = verify_instance(p, sch, koszul_method(p, 1), rng)
    assert rep.bound == 10
    assert rep.passed and rep.rank <= 10


def test_verify_instance_neighborhood_catalecticant():
    p = parse_variety("veronese:3,3")
    rng = random.Random(52)
    sch = FiniteScheme((FirstNeighborhood((fr(1), fr(-1), fr(2))),))
    assert sch.degree == 4
    rep = verify_instance(p, sch, catalecticant_method(p, 1), rng)
    assert rep.bound == 4
    assert rep.passed and rep.rank <= 4


def test_verify_instance_empty_scheme():
    p = parse_variety("segre:2x2x2")
    rep = verify_instance(p, FiniteScheme(()), flattening_method(p, (0,)), random.Random(0))
    assert rep.passed and rep.rank == 0 and rep.bound == 0


def test_verify_instance_confirm_policies():
    # one policy remains: every report states the rational rank, with the
    # GF(p) rank of the same elimination as fp_rank; others are refused
    # before the rng is drawn from. A join has no policy to choose.
    p = parse_variety("segre:2x2x2")
    sch = random_scheme(p, 3, mix="mixed", bound=3, rng=random.Random(53))
    r1 = FiniteScheme((ReducedPoint((fr(0), fr(0), fr(0))),))
    r2 = FiniteScheme((ReducedPoint((fr(1), fr(0), fr(1))),))
    meth = flattening_method(p, (0,))
    for policy in ("tight", "never"):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match="confirm"):
            verify_instance(p, sch, meth, rng, confirm=policy)
        assert rng.getstate() == state, policy
    full = verify_instance(p, sch, meth, random.Random(1), confirm="full")
    assert full.to_dict() == verify_instance(p, sch, meth, random.Random(1)).to_dict()
    with pytest.raises(TypeError, match="confirm"):
        verify_join_decomposition(p, p, r1, r2, meth, random.Random(1), confirm="full")
    runs = {
        "instance": lambda rng, **kw: verify_instance(p, sch, meth, rng, **kw),
        "join": lambda rng, **kw: verify_join_decomposition(p, p, r1, r2, meth, rng, **kw),
    }
    for name, run in runs.items():
        rep = run(random.Random(1))
        assert rep.field == "QQ" and rep.qq_confirmed, name
        assert rep.fp_rank is not None and rep.fp_rank <= rep.rank, name
        rational_only = run(random.Random(1), prime=None)
        assert rational_only.qq_confirmed and rational_only.fp_rank is None, name
        assert rational_only.rank == rep.rank, name


def test_verify_instance_mismatched_method():
    p22 = parse_variety("segre:2x2x2")
    p33 = parse_variety("segre:3x3x3")
    sch = random_scheme(p22, 2, mix="reduced", bound=2, rng=random.Random(2))
    with pytest.raises(ValueError):
        verify_instance(p22, sch, flattening_method(p33, (0,)), random.Random(3))


def test_minimal_factor_subspace_single_vector():
    p = parse_variety("segre:3x3x3")
    rng = random.Random(54)
    m = flattening((3, 3, 3), (0,))
    x = random_point(p, 3, rng)
    u = subspace_from_vectors(27, [x])
    bprime = minimal_factor_subspace(m, u)
    assert bprime.dim == rank(evaluate_map(m, x)) == 1


def test_minimal_factor_subspace_zero_space():
    m = flattening((3, 3, 3), (0,))
    assert minimal_factor_subspace(m, Subspace(27, [])).dim == 0


def test_rational_data_take_no_qq_method(monkeypatch):
    # spans, factor subspaces, M(F) and chart maps combine Fractions on their
    # own operators: QQ has no arithmetic method, and one planted here would
    # be refused
    p = parse_variety("segre:3x3x3")
    rng = random.Random(56)
    halves = lambda x: Fraction(x, 2)
    scheme = FiniteScheme(tuple(piece.map_coords(halves) for piece in
                                random_scheme(p, 9, mix="mixed", bound=3, rng=rng).pieces))
    coords = [halves(x) for x in range(1, p.dim_X + 1)]
    maps = [flattening((3, 3, 3), (0,)), koszul_flattening((3, 3, 3), 1)]

    def run():
        span = scheme_span(p, scheme)
        f = [sum(Fraction(k + 1, 3) * v[j] for k, v in enumerate(span.basis)) for j in range(27)]
        return (span.basis, [minimal_factor_subspace(m, span).basis for m in maps],
                [evaluate_map(m, f).rows for m in maps], evaluate(p, coords),
                tangent_vectors(p, coords))

    want = run()
    # the integral coordinates 1, 2, 3 enter as ints, the others as Fractions
    assert {type(x) for x in want[3]} == {int, Fraction}

    def refuse(self, *args):
        raise AssertionError("a QQ method on rational data")

    for name in ("add", "sub", "mul", "inv", "is_zero"):
        monkeypatch.setattr(RationalField, name, refuse, raising=False)
    assert run() == want


def test_minimal_factor_subspace_scheme_bound():
    rng = random.Random(55)
    p = parse_variety("segre:3x3x3")
    meth = koszul_method(p, 1)
    for _ in range(10):
        sch = random_scheme(p, rng.randint(1, 6), mix="mixed", bound=3, rng=rng)
        u = scheme_span(p, sch)
        bprime = minimal_factor_subspace(meth.map, u)
        assert bprime.dim <= meth.k * sch.degree


def test_join_decomposition_basic():
    p = parse_variety("segre:2x2x2")
    rng = random.Random(56)
    r1 = FiniteScheme((ReducedPoint((fr(0), fr(0), fr(0))), ReducedPoint((fr(1), fr(0), fr(0)))))
    r2 = FiniteScheme((ReducedPoint((fr(0), fr(1), fr(1))),))
    meth = flattening_method(p, (0,))
    rep = verify_join_decomposition(p, p, r1, r2, meth, rng)
    assert rep.passed and rep.bound == 3
    assert rep.extra["degree1"] == 2 and rep.extra["degree2"] == 1
    # the joint bound is the sum of the per-piece bounds
    assert rep.bound == meth.k * r1.degree + meth.k * r2.degree


def test_join_decomposition_empty_side_conventions():
    p = parse_variety("segre:2x2x2")
    rng = random.Random(57)
    r2 = FiniteScheme((ReducedPoint((fr(0), fr(0), fr(0))), ReducedPoint((fr(1), fr(1), fr(1)))))
    meth = flattening_method(p, (0,))
    left_empty = verify_join_decomposition(p, p, FiniteScheme(()), r2, meth, rng)
    assert left_empty.passed and left_empty.bound == meth.k * r2.degree
    right_empty = verify_join_decomposition(p, p, r2, FiniteScheme(()), meth, rng)
    assert right_empty.passed and right_empty.bound == meth.k * r2.degree
    both_empty = verify_join_decomposition(p, p, FiniteScheme(()), FiniteScheme(()), meth, rng)
    assert both_empty.passed and both_empty.bound == 0


def test_join_decomposition_disjoint_regions_koszul():
    p = parse_variety("segre:3x3x3")
    rng = random.Random(58)
    r1 = random_scheme(p, 3, mix="mixed", bound=2, rng=rng)
    while True:
        r2 = random_scheme(p, 4, mix="mixed", bound=2, rng=rng)
        if not set(r1.supports()) & set(r2.supports()):
            break
    rep = verify_join_decomposition(p, p, r1, r2, koszul_method(p, 1), rng)
    assert rep.passed
    assert rep.bound == 2 * 7


def test_join_decomposition_rejects_overlap():
    p = parse_variety("segre:2x2x2")
    r1 = FiniteScheme((ReducedPoint((fr(0), fr(0), fr(0))),))
    r2 = FiniteScheme((ReducedPoint((fr(0), fr(0), fr(0))),))
    with pytest.raises(ValueError):
        verify_join_decomposition(p, p, r1, r2, flattening_method(p, (0,)), random.Random(0))


def test_join_decomposition_rejects_different_varieties():
    p1 = parse_variety("segre:2x2x2")
    p2 = parse_variety("veronese:1,7")
    with pytest.raises(ValueError):
        verify_join_decomposition(p1, p2, FiniteScheme(()), FiniteScheme(()),
                                  flattening_method(p1, (0,)), random.Random(0))


def test_grassmann_containment_witness():
    p = parse_variety("segre:2x2x2")
    rng = random.Random(59)
    sch = random_scheme(p, 4, mix="mixed", bound=3, rng=rng)
    span = scheme_span(p, sch)
    # planes sampled inside the span are contained
    e_in = subspace_from_vectors(8, span.basis[:2])
    assert grassmann_containment(e_in, p, sch)
    # a line through a generic outside vector is not
    outside = [fr(rng.randint(1, 5)) for _ in range(8)]
    e_out = subspace_from_vectors(8, [outside])
    if not grassmann_containment(e_out, p, sch):
        assert True
    else:
        # astronomically unlikely; the witness must then check out directly
        assert in_span(QQ, span.basis, outside)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["segre:2x2x2", "veronese:1,3", "veronese:2,2"]),
       st.integers(1, 4), st.integers(0, 2**32), st.data())
def test_grassmann_containment_matches_membership_in_the_rref_oracle(spec, degree, seed, data):
    p = parse_variety(spec)
    rng = random.Random(seed)
    sch = random_scheme(p, degree, mix="mixed", bound=3, rng=rng)
    span = scheme_span(p, sch)
    vectors = [[Fraction(sum(rng.randint(-2, 2) * v[j] for v in span.basis))
                for j in range(p.dim_W)] for _ in range(data.draw(st.integers(1, 3)))]
    if data.draw(st.booleans()):
        vectors.append([Fraction(rng.randint(-3, 3)) for _ in range(p.dim_W)])
    e = subspace_from_vectors(p.dim_W, vectors)
    ech = reduced_echelon(QQ, span.basis, p.dim_W)
    assert grassmann_containment(e, p, sch) == all(ech.contains(v) for v in e.basis)


def test_grassmann_containment_line_case_matches_membership():
    # for one-dimensional planes the witness is exactly span membership
    p = parse_variety("veronese:1,3")
    sch = FiniteScheme((ReducedPoint((fr(0),)), ReducedPoint((fr(1),))))
    span = scheme_span(p, sch)
    v = [a + b for a, b in zip(span.basis[0], span.basis[1])]
    assert grassmann_containment(subspace_from_vectors(4, [v]), p, sch)
    assert not grassmann_containment(
        subspace_from_vectors(4, [[fr(0), fr(1), fr(0), fr(0)]]), p, sch
    )


def test_ceilings_balanced_segre():
    rep = ceilings("segre:3x3x3")
    assert rep.cactus_ceiling == 14
    assert rep.secant_fill_in == 4
    assert rep.grassmann_ceiling == 8
    assert "6m-4" in rep.labels["cactus_ceiling"]
    rep2 = ceilings("segre:2x2x2")
    assert rep2.cactus_ceiling == 8 and rep2.secant_fill_in == 2 and rep2.grassmann_ceiling == 5


def test_ceilings_asymmetric_segre():
    rep = ceilings("segre:2x3x4")
    assert rep.cactus_ceiling == 2 * (2 + 3 + 4 - 2) == 14
    assert rep.grassmann_ceiling is None
    assert rep.labels["cactus_ceiling"] == "2(a+b+c-2)"


def test_ceilings_veronese():
    rep = ceilings("veronese:3,3")
    assert rep.cactus_ceiling is None
    assert rep.secant_fill_in == 5  # ceil(20 / 4)
    assert rep.notes


def test_ceilings_unsupported():
    with pytest.raises(UnsupportedVarietyError):
        ceilings("segre:2x2")
    with pytest.raises(UnsupportedVarietyError):
        ceilings("segre-veronese:(1,2)x(2,1)")


def test_builtin_map_shapes_never_certify_beyond_6m_minus_4():
    # the barrier statement itself, from the built maps alone: rank M(F) <=
    # min(a, b), so no builtin method on m x m x m tensors certifies border
    # rank above ceil(min(a, b) / k), and that never exceeds 6m - 4
    for m in range(2, 9):
        p = parse_variety(f"segre:{m}x{m}x{m}")
        methods = builtin_methods(p, koszul_ps=range(1, m))
        assert len(methods) == 3 + m - 1  # three flattenings, every Koszul p
        for meth in methods:
            assert -(-min(meth.map.a, meth.map.b) // meth.k) <= 6 * m - 4, (m, meth.spec)


def test_lower_bound_never_beats_scheme_degree():
    rng = random.Random(60)
    p = parse_variety("segre:3x3x3")
    meth = koszul_method(p, 1)
    for _ in range(15):
        sch = random_scheme(p, rng.randint(1, 8), mix="mixed", bound=3, rng=rng)
        rep = verify_instance(p, sch, meth, rng)
        assert rep.passed
        bound_from_rank = -(-rep.rank // meth.k)
        assert bound_from_rank <= sch.degree


def test_ceiling_dominance():
    # every bound certified on a span witness of degree <= g stays below the
    # ceiling g at which scheme spans fill the ambient space
    rng = random.Random(61)
    for spec in ("segre:2x2x2", "segre:3x3x3"):
        p = parse_variety(spec)
        g = ceilings(p).cactus_ceiling
        methods = [flattening_method(p, (0,)), koszul_method(p, 1)]
        for i in range(500):
            meth = methods[i % len(methods)]
            sch = random_scheme(p, rng.randint(1, g), mix="mixed", bound=3, rng=rng)
            span = scheme_span(p, sch)
            if span.dim == 0:
                continue
            f = sample_combination(span.basis, 3, rng)[1]
            assert -(-map_rank(meth.map, f) // meth.k) <= g


def test_report_round_trip_dict():
    rep = BarrierReport("segre:2x2x2", "flattening:split=1|23", 1, "formula",
                        3, 3, 2, 3, True, "QQ", fp_rank=2, qq_confirmed=True, seed=7)
    d = rep.to_dict()
    assert d["variety"] == "segre:2x2x2"
    assert d["passed"] is True
    assert d["fp_rank"] == 2
    assert d["seed"] == 7


# -- the integer instance path against a Fraction reference -----------------

CAMPAIGN_VARIETIES = ("segre:2x2x2", "segre:3x3x3", "veronese:2,3", "veronese:3,3",
                      "segre-veronese:(1,2)x(2,1)")


@st.composite
def _instances(draw):
    """(param, scheme, method): a random scheme with each piece's chart coordinates over its own denominator."""
    param = parse_variety(draw(st.sampled_from(CAMPAIGN_VARIETIES)))
    scheme = random_scheme(param, draw(st.integers(1, 6)), mix="mixed", bound=3,
                           rng=random.Random(draw(st.integers(0, 2**32))))
    if draw(st.booleans()):
        dens = draw(st.lists(st.integers(1, 12), min_size=len(scheme.pieces),
                             max_size=len(scheme.pieces)))
        scheme = FiniteScheme(tuple(p.map_coords(lambda x, d=d: Fraction(x, d))
                                    for p, d in zip(scheme.pieces, dens)))
        assume(len(set(scheme.supports())) == len(scheme.pieces))
    methods = builtin_methods(param)
    return param, scheme, methods[draw(st.integers(0, len(methods) - 1))]


# B' is the whole column space for about half the campaign's instances, and
# `subspace_from_vectors` stops reading rows there; the oracle reads them all.
@pytest.mark.parametrize("spec", CAMPAIGN_VARIETIES)
def test_minimal_factor_subspace_equals_the_rref_oracle_on_every_row(spec, monkeypatch):
    param = parse_variety(spec)
    rng = random.Random(56)
    built = []

    def counted(m, x, field=QQ):
        built.append(x)
        return evaluate_map(m, x, field)

    monkeypatch.setattr(barrier, "evaluate_map", counted)
    seen = set()
    for _ in range(12):
        u = scheme_span(param, random_scheme(param, rng.randint(1, 8), mix="mixed", bound=3,
                                             rng=rng))
        for method in builtin_methods(param):
            m = method.map
            ech, basis, dims = ReducedEchelon(QQ, m.b), [], []
            for x in u.basis:
                basis += [row for row in evaluate_map(m, x, QQ).rows if ech.add(row)]
                dims.append(len(basis))
            built.clear()
            bprime = minimal_factor_subspace(m, u)
            assert (bprime.dim, bprime.basis) == (len(basis), basis)
            # M(x) is built up to the basis vector whose rows fill all b columns
            filled = dims.index(m.b) + 1 if m.b in dims else len(u.basis)
            assert built == u.basis[:filled]
            seen.add("B' < b" if bprime.dim < m.b else
                     "B' = b, stopped early" if filled < len(u.basis) else "B' = b")
    assert seen >= {"B' < b", "B' = b, stopped early"}


def _oracle_rank(field, rows, ncols):
    return len(reduced_echelon(field, rows, ncols).rows)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=_instances(), seed=st.integers(0, 2**32), bound=st.integers(1, 5),
       prime=st.sampled_from([DEFAULT_PRIME, 101, None]))
def test_integer_instance_path_matches_the_fraction_reference(case, seed, bound, prime):
    param, scheme, method = case
    vectors = scheme_span_vectors(param, scheme, QQ)
    integral = all(x.denominator == 1 for p in scheme.pieces for x in p.coords)
    images = []

    def image(m, f, p):
        images.append(f)
        return integer_image(m, f, p)

    rng, ref = random.Random(seed), random.Random(seed)
    with mock.patch.object(barrier, "integer_image", image):
        report = verify_instance(param, scheme, method, rng, prime=prime, bound=bound)
    coeffs, f = fraction_sample_combination(QQ, [[Fraction(x) for x in v] for v in vectors],
                                            bound, ref)
    m = method.map
    rank = _oracle_rank(QQ, evaluate_map(m, f, QQ).rows, m.b)
    fp_rank = None
    if prime is not None:  # M(F) over QQ, reduced entry by entry
        reduced = [[Scalars(prime).of(x) for x in row] for row in evaluate_map(m, f, QQ).rows]
        fp_rank = _oracle_rank(prime, reduced, m.b)
    span_dim = _oracle_rank(QQ, [[Fraction(x) for x in v] for v in vectors], param.dim_W)
    assert ((report.extra["combination"], report.rank, report.fp_rank, report.span_dim)
            == (coeffs, rank, fp_rank, span_dim))
    assert rng.getstate() == ref.getstate()
    # integer_image gets lambda * F, lambda the least common denominator of F
    assert len(images) == 1 and images[0] == clear_denominators(f)
    if integral:
        assert all(type(x) is int for x in images[0])


class _Draws:
    """An rng that hands out fixed coefficients."""

    def __init__(self, *values):
        self.values = iter(values)

    def randint(self, lo, hi):
        return next(self.values)


def test_a_prime_raises_only_when_it_divides_the_denominator_of_f():
    p = parse_variety("segre:2x2x2")
    meth = flattening_method(p, (0,))
    zeros = [Fraction(0)] * 6
    vectors = [[Fraction(1, 7), Fraction(1, 7)] + zeros, [Fraction(6, 7), Fraction(-1, 7)] + zeros]
    cleared = (*clear_rows(vectors), 2)  # d = 7, the int rows and the span's rank

    def check(coeffs, prime):
        return _sample_and_check(p, meth, cleared, 2, _Draws(*coeffs), bound=1, prime=prime,
                                 seed=None, kind="instance", extra={})[1]

    # F = v1 + v2 = e1 is integral: 7 divides only the vectors' common denominator
    assert (check((1, 1), 7).rank, check((1, 1), 7).fp_rank) == (1, 1)
    # F = v1 has denominator 7, which has no image mod 7
    with pytest.raises(ZeroDivisionError, match="denominator 7 of F vanishes mod 7"):
        check((1, 0), 7)
    assert (check((1, 0), 11).rank, check((1, 0), None).fp_rank) == (1, None)


# -- span data once per scheme: the one-entry memo of `schemes.scheme_span_vectors`

def _counting(monkeypatch, module, name):
    """Count the calls of `module.name` from here on; the list grows by one per call."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def _halves(scheme):
    return FiniteScheme(tuple(p.map_coords(lambda x: x + Fraction(1, 2)) for p in scheme.pieces))


def test_a_scheme_block_evaluates_and_ranks_its_span_once(monkeypatch):
    # the campaign's block: scheme_span, then verify_instance under every builtin method
    param = parse_variety("segre:3x3x3")
    methods = builtin_methods(param)
    assert len(methods) == 4
    spans = _counting(monkeypatch, schemes, "_span_vectors")
    ranks = _counting(monkeypatch, schemes, "rank_of_rows")
    clears = _counting(monkeypatch, schemes, "clear_rows")
    for seed in range(3):
        rng = random.Random(seed)
        scheme = random_scheme(param, 6, mix="mixed", bound=3, rng=rng)
        span = scheme_span(param, scheme)
        reports = [verify_instance(param, scheme, m, rng) for m in methods]
        assert (len(spans), len(ranks), len(clears)) == (seed + 1,) * 3
        assert all(r.passed and r.span_dim == span.dim for r in reports)


def test_an_equal_scheme_is_recomputed_to_equal_vectors(monkeypatch):
    # the memo is keyed by identity: an equal but distinct scheme is evaluated again
    param = parse_variety("segre:3x3x3")
    scheme = random_scheme(param, 5, mix="mixed", bound=3, rng=random.Random(2))
    spans = _counting(monkeypatch, schemes, "_span_vectors")
    first = scheme_span_vectors(param, scheme)
    assert scheme_span_vectors(param, scheme) is first and len(spans) == 1
    twin = FiniteScheme(tuple(scheme.pieces))
    assert twin == scheme and twin is not scheme
    again = scheme_span_vectors(param, twin)
    assert len(spans) == 2 and again is not first and again == first
    # so is the same scheme under an equal but distinct param
    assert scheme_span_vectors(parse_variety("segre:3x3x3"), twin) == first and len(spans) == 3


@pytest.mark.parametrize("rational", [False, True])
def test_no_caller_changes_the_shared_span_data(rational):
    # each caller gets the memo's lists; compare them after its call with a deep copy
    param = parse_variety("segre:2x2x3")
    rng = random.Random(7)
    r1 = random_scheme(param, 4, mix="mixed", bound=3, rng=rng)
    r1 = _halves(r1) if rational else r1
    r2 = FiniteScheme((ReducedPoint((9, 9, 9, 9)), FirstNeighborhood((9, 8, 7, 6))))
    method = flattening_method(param, (0,))
    assert (cleared_span(param, r1)[0] > 1) == rational
    for use in (lambda: scheme_span(param, r1),
                lambda: verify_instance(param, r1, method, rng),
                lambda: verify_join_decomposition(param, param, r1, r2, method, rng),
                lambda: compare_limit(param, family_span(param, perturbed_family(r1, rng)), r1),
                lambda: grassmann_containment(scheme_span(param, r1), param, r1)):
        shared = scheme_span_vectors(param, r1), cleared_span(param, r1)
        want = copy.deepcopy(shared)
        use()
        assert shared == want


def test_the_memo_holds_only_the_last_scheme():
    param = parse_variety("segre:3x3x3")
    rng = random.Random(4)
    first = random_scheme(param, 4, mix="mixed", bound=3, rng=rng)
    verify_instance(param, first, flattening_method(param, (0,)), rng)
    ref = weakref.ref(first)
    del first
    gc.collect()
    assert ref() is not None  # the memo holds it
    second = random_scheme(param, 4, mix="mixed", bound=3, rng=rng)
    scheme_span_vectors(param, second)
    gc.collect()
    assert ref() is None


def test_a_scheme_that_fails_validation_raises_every_time(monkeypatch):
    param = parse_variety("segre:3x3x3")
    good = random_scheme(param, 3, mix="mixed", bound=3, rng=random.Random(5))
    vectors = scheme_span_vectors(param, good)
    spans = _counting(monkeypatch, schemes, "_span_vectors")
    bad = FiniteScheme((ReducedPoint((1, 2, 3, 4, 5, 6)), FirstNeighborhood((1, 2, 3, 4, 5, 6))))
    for _ in range(3):
        with pytest.raises(OverlappingSupportsError):
            scheme_span_vectors(param, bad)
        with pytest.raises(OverlappingSupportsError):
            verify_instance(param, bad, flattening_method(param, (0,)), random.Random(0))
    # the failed calls left the memo as it was
    assert scheme_span_vectors(param, good) is vectors and spans == []
