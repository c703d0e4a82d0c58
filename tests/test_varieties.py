import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactusbarrier.exactalg import rank, subspace_contains, subspace_from_vectors
from cactusbarrier.fields import QQ, ZZ, IntegerRing, PolyRing, PrimeField
from cactusbarrier.schemes import CurvilinearGerm
from cactusbarrier.varieties import (
    Germ,
    VarietySpecError,
    evaluate,
    evaluate_in_ring,
    jet_vectors_in_ring,
    monomial_exponents,
    parse_variety,
    random_chart_point,
    random_point,
    tangent_vectors_in_ring,
)

from oracles import (
    brute_catalecticant_matrix,
    brute_flattening_matrix,
    brute_jet_vectors,
    vector_coeff_lookup,
)


def qvec(*xs):
    return [Fraction(x) for x in xs]


def _jets(param, germ, length):
    """Jet vectors over QQ, through `PolyRing(QQ, trunc=length)`."""
    return jet_vectors_in_ring(param, [QQ.of(x) for x in germ.base],
                               [[QQ.of(x) for x in c] for c in germ.coeffs], length, QQ)


def _span(param, vectors, field=QQ):
    return subspace_from_vectors(field, param.dim_W, vectors)


def test_monomial_order_small_cases():
    assert monomial_exponents(1, 2) == ((0,), (1,), (2,))
    assert monomial_exponents(2, 1) == ((0, 0), (1, 0), (0, 1))
    assert monomial_exponents(2, 2)[:4] == ((0, 0), (1, 0), (0, 1), (2, 0))


def test_parse_variety_grammar():
    p = parse_variety("segre:3 x 3 x 3")
    assert p.dim_W == 27 and p.dim_X == 6
    v = parse_variety("veronese:2,3")
    assert v.dim_W == 10 and v.dim_X == 2
    sv = parse_variety("segre-veronese:(1,2)x(2,1)")
    assert sv.dim_W == 9 and sv.dim_X == 3
    for bad in ("segre:1x2", "veronese:2", "segre-veronese:(1,2)y(2,1)", "plucker:3"):
        with pytest.raises(VarietySpecError):
            parse_variety(bad)


def test_evaluate_segre_origin():
    p = parse_variety("segre:2x2x2")
    assert evaluate(p, (0, 0, 0)) == qvec(1, 0, 0, 0, 0, 0, 0, 0)


def test_evaluate_veronese_points():
    assert evaluate(parse_variety("veronese:1,3"), (1,)) == qvec(1, 1, 1, 1)
    assert evaluate(parse_variety("veronese:1,2"), (2,)) == qvec(1, 2, 4)


def test_evaluate_rejects_wrong_length():
    with pytest.raises(ValueError):
        evaluate(parse_variety("segre:2x2"), (0, 0, 0))


def test_jet_span_length_one_is_point_span():
    p = parse_variety("segre:2x2x2")
    rng = random.Random(3)
    for _ in range(5):
        base = random_chart_point(p, 3, rng)
        g = Germ(base, ((Fraction(1),) * p.dim_X,))
        s = _span(p, _jets(p, g, 1))
        assert s.dim == 1
        assert subspace_contains(s, evaluate(p, base))


def test_jet_span_conic_examples():
    v = parse_variety("veronese:1,2")
    g = Germ((Fraction(0),), ((Fraction(1),),))
    s2 = _span(v, _jets(v, g, 2))
    assert [list(map(int, b)) for b in s2.basis] == [[1, 0, 0], [0, 1, 0]]
    s3 = _span(v, _jets(v, g, 3))
    assert s3.dim == 3


def test_jet_vectors_match_full_expansion_oracle():
    rng = random.Random(8)
    for spec in ("veronese:2,3", "segre:2x3", "segre-veronese:(1,2)x(2,1)"):
        p = parse_variety(spec)
        for _ in range(4):
            base = random_chart_point(p, 2, rng)
            coeffs = tuple(
                tuple(Fraction(rng.randint(-2, 2)) for _ in range(p.dim_X))
                for _ in range(3)
            )
            g = Germ(base, coeffs)
            ours = _jets(p, g, 4)
            brute = brute_jet_vectors(p, g, 4)
            assert ours == brute


def test_jet_span_monotone_and_bounded():
    p = parse_variety("veronese:2,3")
    rng = random.Random(9)
    for _ in range(6):
        base = random_chart_point(p, 2, rng)
        c1 = tuple(Fraction(rng.randint(-2, 2)) for _ in range(2))
        if not any(c1):
            c1 = (Fraction(1), Fraction(0))
        g = Germ(base, (c1, tuple(Fraction(rng.randint(-2, 2)) for _ in range(2))))
        dims = [_span(p, _jets(p, g, l)).dim for l in range(1, 5)]
        assert all(d <= l for d, l in zip(dims, range(1, 5)))
        assert all(a <= b for a, b in zip(dims, dims[1:]))


def _tangent_span(param, chart_point):
    return _span(param, tangent_vectors_in_ring(param, [QQ.of(x) for x in chart_point], QQ))


def test_tangent_frame_examples():
    v = parse_variety("veronese:1,2")
    tf = _tangent_span(v, (0,))
    assert tf.dim == 2
    assert [list(map(int, b)) for b in tf.basis] == [[1, 0, 0], [0, 1, 0]]
    p = parse_variety("segre:2x2")
    assert _tangent_span(p, (0, 0)).dim == 3


def test_tangent_frame_contains_point_and_order2_jets():
    rng = random.Random(10)
    for spec in ("segre:2x2x2", "veronese:2,3"):
        p = parse_variety(spec)
        for _ in range(4):
            base = random_chart_point(p, 2, rng)
            tf = _tangent_span(p, base)
            assert tf.dim == p.dim_X + 1
            assert subspace_contains(tf, evaluate(p, base))
            direction = tuple(Fraction(rng.randint(-2, 2)) for _ in range(p.dim_X))
            if not any(direction):
                direction = (Fraction(1),) * p.dim_X
            for vec in _jets(p, Germ(base, (direction,)), 2):
                assert subspace_contains(tf, vec)


def test_random_point_bound_zero_gives_chart_origin():
    p = parse_variety("segre:3x3x3")
    v = random_point(p, 0, random.Random(0))
    assert v == evaluate(p, (0,) * 6)


def test_segre_points_have_rank_one_flattenings():
    p = parse_variety("segre:3x3x3")
    rng = random.Random(12)
    for _ in range(8):
        v = random_point(p, 3, rng)
        for rows in ((0,), (1,), (2,), (0, 1)):
            m = brute_flattening_matrix((3, 3, 3), v, rows)
            assert rank(m) == 1


def test_veronese_cube_points_have_rank_one_catalecticant():
    p = parse_variety("veronese:2,3")
    rng = random.Random(13)
    for _ in range(8):
        v = random_point(p, 3, rng)
        m = brute_catalecticant_matrix(3, 3, 1, vector_coeff_lookup(3, 3, v))
        assert rank(m) == 1


def test_evaluate_over_prime_field():
    gf = PrimeField(2**31 - 1)
    p = parse_variety("veronese:1,2")
    assert evaluate(p, (2,), gf) == [1, 2, 4]


def test_characteristic_guard_refuses_small_primes():
    p = parse_variety("veronese:1,3")
    piece = CurvilinearGerm(Germ((Fraction(0),), ((Fraction(1),),)), 2)
    with pytest.raises(ValueError):
        piece.span_vectors(p, PrimeField(5))
    # large prime is fine
    gf = PrimeField(2**31 - 1)
    assert _span(p, piece.map_coords(gf.of).span_vectors(p, gf), gf).dim == 2


def test_jet_span_requires_immersed_germ():
    with pytest.raises(ValueError, match="nonzero first-order direction"):
        CurvilinearGerm(Germ((Fraction(0),), ((Fraction(0),),)), 2).validate()


# -- chart evaluation over ZZ for integral chart points ---------------------

CAMPAIGN_VARIETIES = ("segre:2x2x2", "segre:3x3x3", "veronese:2,3", "veronese:3,3",
                      "segre-veronese:(1,2)x(2,1)")


def _fraction_path(param, point, field):
    return evaluate_in_ring(param, [field.of(x) for x in point], field)


# the ladder's widest rungs, next to the campaign varieties
LADDER_VARIETIES = ("segre:5x5x5", "veronese:5,3")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=st.sampled_from(CAMPAIGN_VARIETIES + LADDER_VARIETIES), seed=st.integers(0, 2**32),
       bound=st.integers(0, 5), den=st.integers(1, 7))
def test_evaluate_and_random_point_equal_the_fraction_path(spec, seed, bound, den):
    p = parse_variety(spec)
    gf = PrimeField(101)
    for field in (QQ, gf):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        v = random_point(p, bound, rng, field)
        point = random_chart_point(p, bound, ref_rng)
        assert all(type(x) is int for x in point)
        ref = _fraction_path(p, point, field)
        assert len(v) == len(ref) and all(x == y for x, y in zip(v, ref))
        assert rng.getstate() == ref_rng.getstate()
        if field == QQ:
            assert all(type(x) is int for x in v)
            assert v == brute_jet_vectors(p, Germ(point), 1)[0]
        scaled = [Fraction(x, den) for x in point]
        w = evaluate(p, scaled, field)
        assert w == _fraction_path(p, scaled, field)
        if field == QQ and den > 1 and any(x.denominator > 1 for x in scaled):
            assert all(type(x) is Fraction for x in w)


# -- product-rule tangent frames ----------------------------------------------

def _axis_jet_frame(param, coords, ring):
    """The point and the length-2 jet along each coordinate axis: one chart evaluation each."""
    axes = [[ring.one if i == j else ring.zero for i in range(param.dim_X)]
            for j in range(param.dim_X)]
    return [evaluate_in_ring(param, coords, ring)] + [
        jet_vectors_in_ring(param, coords, [axis], 2, ring)[1] for axis in axes]


def _entry_types(vectors):
    return [[(type(x), tuple(map(type, x)) if isinstance(x, tuple) else ()) for x in v]
            for v in vectors]


def _brute_frame(param, point):
    """Point and first partials from the full-convolution jet oracle, along each axis."""
    axes = [tuple(Fraction(int(i == j)) for i in range(param.dim_X)) for j in range(param.dim_X)]
    jets = [brute_jet_vectors(param, Germ(tuple(point), (axis,)), 2) for axis in axes]
    return [jets[0][0]] + [jet[1] for jet in jets]


@pytest.mark.parametrize("spec", CAMPAIGN_VARIETIES + LADDER_VARIETIES + ("veronese:1,7",))
def test_tangent_vectors_equal_the_jet_oracle_along_each_axis(spec):
    p = parse_variety(spec)
    rng = random.Random(spec)
    gf, zt = PrimeField(101), PolyRing(ZZ)
    for ring in (ZZ, QQ, gf, zt):
        if ring is zt:
            raw = [[rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] for _ in range(p.dim_X)]
            coords = [zt.from_coeffs(c) for c in raw]
        else:
            den = 3 if ring is QQ else 1
            raw = [Fraction(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(p.dim_X)]
            coords = [ring.of(x) for x in raw]
        frame = tangent_vectors_in_ring(p, coords, ring)
        old = _axis_jet_frame(p, coords, ring)
        assert frame == old and _entry_types(frame) == _entry_types(old)
        if ring is zt:
            # entries have degree <= 2 * (sum of factor degrees); that many + 1 values fix them
            for s in range(2 * sum(f.d for f in p.factors) + 1):
                at = [sum(c * s**i for i, c in enumerate(x)) for x in raw]
                want = _brute_frame(p, at)
                assert [[sum(c * s**i for i, c in enumerate(x)) for x in v] for v in frame] == want
        else:
            want = _brute_frame(p, raw)
            assert frame == [[ring.of(x) for x in v] for v in want]


class _CountingZZ(IntegerRing):
    def __init__(self):
        self.muls = 0

    def mul(self, a, b):
        self.muls += 1
        return a * b


# For scale: a power table per variable and one length-2 jet per axis take
# 48 and 414 (segre:3x3x3), 39 and 213 (veronese:3,3) multiplications.
@pytest.mark.parametrize("spec, evaluate_muls, tangent_muls",
                         [("segre:3x3x3", 20, 20), ("veronese:3,3", 16, 28)])
def test_chart_maps_take_one_product_per_monomial(spec, evaluate_muls, tangent_muls):
    p = parse_variety(spec)
    coords = list(range(2, 2 + p.dim_X))
    ring = _CountingZZ()
    point = evaluate_in_ring(p, coords, ring)
    assert ring.muls == evaluate_muls and point == evaluate_in_ring(p, coords, ZZ)
    ring.muls = 0
    frame = tangent_vectors_in_ring(p, coords, ring)
    assert ring.muls == tangent_muls and frame == tangent_vectors_in_ring(p, coords, ZZ)


# -- jets over ZZ by Kronecker substitution -------------------------------------

def _coordinate(rng, h, signs):
    if signs == "top":
        return h
    return rng.randint(-h if signs != "+" else 0, h if signs != "-" else 0)


# "top" sets every coordinate to h, so length-1 jets reach the digit bound (L h)^D itself
@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=st.sampled_from(CAMPAIGN_VARIETIES + ("segre:5x5x5", "veronese:1,7")),
       length=st.integers(1, 8), rows=st.integers(0, 8),
       h=st.sampled_from((1, 2, 3, 10, 10**6, 10**12)),
       signs=st.sampled_from(("mixed", "+", "-", "top")), seed=st.integers(0, 2**32))
def test_int_jets_equal_the_oracle_and_the_rational_path(spec, length, rows, h, signs, seed):
    p = parse_variety(spec)
    rng = random.Random(seed)
    base, *coeffs = [[_coordinate(rng, h, signs) for _ in range(p.dim_X)] for _ in range(rows + 1)]
    ours = jet_vectors_in_ring(p, base, coeffs, length, ZZ)
    assert all(type(x) is int for v in ours for x in v)
    rational = jet_vectors_in_ring(p, [Fraction(x) for x in base],
                                   [[Fraction(x) for x in c] for c in coeffs], length, QQ)
    assert ours == rational
    assert ours == brute_jet_vectors(p, Germ(tuple(base), tuple(map(tuple, coeffs))), length)
