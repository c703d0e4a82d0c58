import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactusbarrier.barrier import (
    BarrierReport,
    UnsupportedVarietyError,
    ceilings,
    grassmann_containment,
    minimal_factor_subspace,
    verify_instance,
    verify_join_decomposition,
)
from cactusbarrier.exactalg import (
    DEFAULT_PRIME,
    Subspace,
    rank,
    subspace_contains,
    subspace_from_vectors,
)
from cactusbarrier.fields import QQ, PrimeField
from cactusbarrier.rankmethods import (
    catalecticant_method,
    evaluate_map,
    flattening,
    flattening_method,
    koszul_method,
    lower_bound,
)
from cactusbarrier.schemes import (
    CurvilinearGerm,
    FiniteScheme,
    FirstNeighborhood,
    ReducedPoint,
    random_scheme,
    scheme_span,
)
from cactusbarrier.varieties import Germ, parse_variety, random_point
from oracles import reduced_echelon


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
    u = subspace_from_vectors(QQ, 27, [x])
    bprime = minimal_factor_subspace(m, u)
    assert bprime.dim == rank(evaluate_map(m, x)) == 1


def test_minimal_factor_subspace_zero_space():
    m = flattening((3, 3, 3), (0,))
    assert minimal_factor_subspace(m, Subspace(QQ, 27, [])).dim == 0


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
    e_in = subspace_from_vectors(QQ, 8, span.basis[:2])
    assert grassmann_containment(e_in, p, sch)
    # a line through a generic outside vector is not
    outside = [fr(rng.randint(1, 5)) for _ in range(8)]
    e_out = subspace_from_vectors(QQ, 8, [outside])
    if not grassmann_containment(e_out, p, sch):
        assert True
    else:
        # astronomically unlikely; the witness must then check out directly
        assert subspace_contains(span, outside)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["segre:2x2x2", "veronese:1,3", "veronese:2,2"]),
       st.sampled_from([QQ, PrimeField(101), PrimeField(DEFAULT_PRIME)]),
       st.integers(1, 4), st.integers(0, 2**32), st.data())
def test_grassmann_containment_matches_membership_in_the_rref_oracle(spec, field, degree,
                                                                       seed, data):
    p = parse_variety(spec)
    rng = random.Random(seed)
    sch = random_scheme(p, degree, mix="mixed", bound=3, rng=rng)
    span = scheme_span(p, sch, field)
    vectors = [[field.of(sum(rng.randint(-2, 2) * v[j] for v in span.basis))
                for j in range(p.dim_W)] for _ in range(data.draw(st.integers(1, 3)))]
    if data.draw(st.booleans()):
        vectors.append([field.of(rng.randint(-3, 3)) for _ in range(p.dim_W)])
    e = subspace_from_vectors(field, p.dim_W, vectors)
    ech = reduced_echelon(field, span.basis, p.dim_W)
    assert grassmann_containment(e, p, sch) == all(ech.contains(v) for v in e.basis)


def test_grassmann_containment_line_case_matches_membership():
    # for one-dimensional planes the witness is exactly span membership
    p = parse_variety("veronese:1,3")
    sch = FiniteScheme((ReducedPoint((fr(0),)), ReducedPoint((fr(1),))))
    span = scheme_span(p, sch)
    v = [a + b for a, b in zip(span.basis[0], span.basis[1])]
    assert grassmann_containment(subspace_from_vectors(QQ, 4, [v]), p, sch)
    assert not grassmann_containment(
        subspace_from_vectors(QQ, 4, [[fr(0), fr(1), fr(0), fr(0)]]), p, sch
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
            from cactusbarrier.exactalg import random_in_span

            f = random_in_span(span, 3, rng)
            assert lower_bound(meth, f) <= g


def test_report_round_trip_dict():
    rep = BarrierReport("segre:2x2x2", "flattening:split=1|23", 1, "formula",
                        3, 3, 2, 3, True, "QQ", fp_rank=2, qq_confirmed=True, seed=7)
    d = rep.to_dict()
    assert d["variety"] == "segre:2x2x2"
    assert d["passed"] is True
    assert d["fp_rank"] == 2
    assert d["seed"] == 7
