import dataclasses
import io
import json
import pickle
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cactusbarrier.exactalg as exactalg
from cactusbarrier import cli
import cactusbarrier.schemes as schemes
import cactusbarrier.varieties as varieties
from cactusbarrier.exactalg import (
    DEFAULT_PRIME,
    Matrix,
    clear_denominators,
    nullspace,
    rank_of_rows,
)
from cactusbarrier.fields import POLY, QQ, PolyRing, RationalField
from cactusbarrier.fileformats import piece_from_dict, piece_to_dict
from cactusbarrier.schemes import (
    CurvilinearGerm,
    FiniteScheme,
    FirstNeighborhood,
    LimitComparison,
    OverlappingSupportsError,
    ReducedPoint,
    SpanFamily,
    constant_family_pieces,
    family_span,
    generic_rank,
    limit_of_spans,
    perturbed_family,
    random_scheme,
    scheme_span,
    scheme_span_vectors,
    compare_limit,
    span_of_limit_vs_limit_of_spans,
    validate_scheme,
)
from cactusbarrier.varieties import Germ, parse_variety, random_point
from oracles import Scalars, brute_piece_vectors, in_span, same_span


def fr(x):
    return Fraction(x)


def reduced(*coords):
    return ReducedPoint(tuple(fr(c) for c in coords))


# one piece of each type at a generic integral point of segre:2x2x2 (dim_X = 3)
PIECES = [
    ReducedPoint((2, -1, 3)),
    CurvilinearGerm(Germ((2, -1, 3), ((1, 2, -1), (0, 1, 1))), 3),
    FirstNeighborhood((2, -1, 3)),
]


@pytest.mark.parametrize("piece", PIECES, ids=lambda p: type(p).__name__)
def test_piece_protocol(piece):
    param = parse_variety("segre:2x2x2")
    rational = piece.map_coords(Fraction)
    assert piece_from_dict(piece_to_dict(rational)) == rational
    assert pickle.loads(pickle.dumps(rational)) == rational
    assert piece.map_coords(lambda x: x) == piece
    piece.validate()
    ints = piece.span_vectors(param)
    assert len(ints) == piece.degree == rank_of_rows(QQ, ints)
    assert all(type(x) is int for v in ints for x in v)
    assert rational.span_vectors(param) == ints  # entry for entry, as ints
    assert ReducedPoint(piece.support) != FirstNeighborhood(piece.support)


def test_degrees():
    p333 = parse_variety("segre:2x2x2")
    three = FiniteScheme((reduced(0, 0, 0), reduced(1, 0, 0), reduced(0, 1, 0)))
    assert three.degree == 3
    curv = CurvilinearGerm(Germ((fr(0),), ((fr(1),), (fr(0),), (fr(0),))), 4)
    assert FiniteScheme((curv,)).degree == 4
    nbhd = FirstNeighborhood((fr(0), fr(0), fr(0)))
    assert FiniteScheme((nbhd,)).degree == 4
    assert p333.dim_X == 3


def test_scheme_span_two_points_on_conic():
    v = parse_variety("veronese:1,2")
    s = scheme_span(v, FiniteScheme((reduced(0), reduced(1))))
    assert s.dim == 2
    assert [list(map(int, b)) for b in s.basis] == [[1, 0, 0], [1, 1, 1]]


def test_scheme_span_curvilinear_on_conic():
    v = parse_variety("veronese:1,2")
    piece = CurvilinearGerm(Germ((fr(0),), ((fr(1),),)), 2)
    s = scheme_span(v, FiniteScheme((piece,)))
    assert s.dim == 2


def test_scheme_span_three_random_points_on_segre():
    p = parse_variety("segre:2x2x2")
    rng = random.Random(21)
    sch = random_scheme(p, 3, mix="reduced", bound=4, rng=rng)
    assert scheme_span(p, sch).dim == 3


def test_scheme_span_rejects_overlapping_supports():
    v = parse_variety("veronese:1,2")
    bad = FiniteScheme((reduced(1), reduced(1)))
    with pytest.raises(OverlappingSupportsError):
        scheme_span(v, bad)


def test_span_dim_never_exceeds_degree():
    rng = random.Random(22)
    for spec in ("segre:2x2x2", "veronese:2,3", "segre-veronese:(1,2)x(2,1)"):
        p = parse_variety(spec)
        for _ in range(10):
            sch = random_scheme(p, rng.randint(1, 7), mix="mixed", bound=3, rng=rng)
            assert scheme_span(p, sch).dim <= sch.degree


def test_disjoint_union_span_is_span_sum():
    p = parse_variety("veronese:2,3")
    rng = random.Random(23)
    for _ in range(5):
        sch = random_scheme(p, 6, mix="mixed", bound=4, rng=rng)
        if len(sch.pieces) < 2:
            continue
        left = FiniteScheme(sch.pieces[:1])
        right = FiniteScheme(sch.pieces[1:])
        total = scheme_span(p, sch)
        glued = scheme_span(p, left).basis + scheme_span(p, right).basis
        assert same_span(QQ, total.basis, glued)


def test_random_scheme_exact_degrees_and_mixes():
    p = parse_variety("segre:2x2x2")
    rng = random.Random(24)
    assert random_scheme(p, 1, mix="mixed", rng=rng).degree == 1
    curv = random_scheme(p, 2, mix="curv", rng=rng)
    assert len(curv.pieces) == 1 and curv.pieces[0].length == 2
    for _ in range(20):
        r = rng.randint(1, 9)
        sch = random_scheme(p, r, mix="mixed", rng=rng)
        assert sch.degree == r
        assert len(set(sch.supports())) == len(sch.pieces)
    only_nbhd = random_scheme(p, 8, mix="nbhd", rng=rng)
    assert all(isinstance(q, FirstNeighborhood) for q in only_nbhd.pieces)


def test_random_scheme_rejects_infeasible_budgets():
    p = parse_variety("segre:2x2x2")
    rng = random.Random(25)
    with pytest.raises(ValueError):
        random_scheme(p, 1, mix="curv", rng=rng)
    with pytest.raises(ValueError):
        random_scheme(p, 3, mix="nbhd", rng=rng)
    with pytest.raises(ValueError):
        random_scheme(p, 0, mix="mixed", rng=rng)


def test_limit_of_spans_constant_family():
    R = PolyRing(QQ)
    fam = SpanFamily(3, [[R.of(1), R.zero, R.zero], [R.zero, R.of(1), R.zero]])
    lim = limit_of_spans(fam)
    assert lim.dim == 2
    assert in_span(QQ, lim.basis, [fr(1), fr(0), fr(0)])
    assert in_span(QQ, lim.basis, [fr(0), fr(1), fr(0)])


def test_limit_of_spans_saturation_recovers_third_direction():
    # naive evaluation at t=0 of {e1, e2, (1,1,t)} only has rank 2;
    # saturation recovers (0,0,1) and the limit is the full space
    R = PolyRing(QQ)
    fam = SpanFamily(3, [
        [R.of(1), R.zero, R.zero],
        [R.zero, R.of(1), R.zero],
        [R.of(1), R.of(1), R.t()],
    ])
    lim = limit_of_spans(fam)
    assert lim.dim == 3
    assert in_span(QQ, lim.basis, [fr(0), fr(0), fr(1)])


def test_span_family_is_a_dimension_and_a_basis():
    # QQ[t] is one ring, `fields.POLY`: a family carries no ring of its own
    assert [f.name for f in dataclasses.fields(SpanFamily)] == ["ambient_dim", "basis"]
    assert limit_of_spans(SpanFamily(1, [[POLY.t()]])).basis == [[1]]


def test_limit_of_spans_single_vector():
    R = PolyRing(QQ)
    lim = limit_of_spans(SpanFamily(2, [[R.of(1), R.t()]]))
    assert lim.dim == 1
    assert [list(map(int, b)) for b in lim.basis] == [[1, 0]]


def test_limit_of_spans_rejects_degenerate_families():
    R = PolyRing(QQ)
    with pytest.raises(ValueError):
        limit_of_spans(SpanFamily(2, [[R.zero, R.zero]]))
    with pytest.raises(ValueError):
        # second column is t times the first: generic rank 1 < 2
        limit_of_spans(SpanFamily(2, [[R.of(1), R.of(2)], [R.t(), R.mul(R.t(), R.of(2))]]))


def test_limit_dimension_equals_generic_rank():
    rng = random.Random(26)
    R = PolyRing(QQ)
    for _ in range(10):
        n, m = rng.randint(2, 5), rng.randint(1, 3)
        basis = [
            [R.from_coeffs([rng.randint(-3, 3) for _ in range(3)]) for _ in range(n)]
            for _ in range(m)
        ]
        if rank_of_rows(R, basis) != m:
            continue
        assert limit_of_spans(SpanFamily(n, basis)).dim == m


def test_collinear_collision_scheme_family():
    # three points in general position degenerating onto a line: the span of
    # the limit is strictly smaller than the limit of the spans
    v = parse_variety("veronese:2,1")
    R = PolyRing(QQ)
    pieces = [
        ReducedPoint((R.of(0), R.of(0))),
        ReducedPoint((R.of(1), R.of(0))),
        ReducedPoint((R.of(2), R.t())),
    ]
    limit = FiniteScheme((reduced(0, 0), reduced(1, 0), reduced(2, 0)))
    cmp = span_of_limit_vs_limit_of_spans(v, pieces, limit)
    assert (cmp.dim_span_limit, cmp.dim_limit_spans) == (2, 3)
    assert cmp.inclusion_holds and cmp.strict


def test_tangent_collision_scheme_family():
    # two points colliding along a tangent direction against the stated
    # curvilinear limit: equal dimensions
    v = parse_variety("veronese:1,2")
    R = PolyRing(QQ)
    pieces = [ReducedPoint((R.of(0),)), ReducedPoint((R.t(),))]
    limit = FiniteScheme((CurvilinearGerm(Germ((fr(0),), ((fr(1),),)), 2),))
    cmp = span_of_limit_vs_limit_of_spans(v, pieces, limit)
    assert (cmp.dim_span_limit, cmp.dim_limit_spans) == (2, 2)
    assert cmp.inclusion_holds and not cmp.strict


def test_constant_families_give_equal_dims():
    rng = random.Random(27)
    for spec in ("veronese:1,3", "segre:2x2"):
        p = parse_variety(spec)
        sch = random_scheme(p, 3, mix="mixed", bound=3, rng=rng)
        cmp = span_of_limit_vs_limit_of_spans(p, constant_family_pieces(sch.pieces), sch)
        assert cmp.inclusion_holds
        assert cmp.dim_span_limit == cmp.dim_limit_spans


def test_translation_family_demo():
    # moving a fixed scheme by t * v: flat by construction, the stated limit is
    # the scheme itself and the inclusion holds with equal dimensions
    p = parse_variety("veronese:2,2")
    rng = random.Random(28)
    sch = random_scheme(p, 4, mix="mixed", bound=2, rng=rng)
    R = PolyRing(QQ)
    direction = (fr(1), fr(-2))

    def translate(point):
        return tuple(R.from_coeffs([c, d]) for c, d in zip(point, direction))

    pieces = []
    for q in sch.pieces:
        if isinstance(q, ReducedPoint):
            pieces.append(ReducedPoint(translate(q.point)))
        elif isinstance(q, CurvilinearGerm):
            base = translate(q.germ.base)
            coeffs = tuple(tuple(R.of(c) for c in cc) for cc in q.germ.coeffs)
            pieces.append(CurvilinearGerm(Germ(base, coeffs), q.length))
        else:
            pieces.append(FirstNeighborhood(translate(q.point)))
    cmp = span_of_limit_vs_limit_of_spans(p, pieces, sch)
    assert cmp.inclusion_holds
    assert cmp.dim_span_limit == cmp.dim_limit_spans


def test_perturbed_families_inclusion():
    rng = random.Random(29)
    for spec in ("veronese:1,3", "segre:2x2x2"):
        p = parse_variety(spec)
        for _ in range(5):
            sch = random_scheme(p, rng.randint(1, 5), mix="mixed", bound=2, rng=rng)
            fam = perturbed_family(sch, rng, bound=2, tdeg=2)
            cmp = span_of_limit_vs_limit_of_spans(p, fam, sch)
            assert cmp.inclusion_holds


def test_family_span_keeps_generically_independent_subset():
    # a curvilinear germ along a straight line inside a linearly embedded
    # plane has dependent jets; the family span must drop them
    p = parse_variety("veronese:2,1")
    R = PolyRing(QQ)
    germ = Germ((R.of(0), R.of(0)), ((R.of(1), R.of(0)),))
    fam = family_span(p, [CurvilinearGerm(germ, 3)])
    assert len(fam.basis) == 2
    assert limit_of_spans(fam).dim == 2


def test_validate_scheme_checks_chart_dimension():
    p = parse_variety("segre:2x2")
    with pytest.raises(ValueError):
        validate_scheme(p, FiniteScheme((reduced(0, 0, 0),)))
    for row in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="order-1 coefficients have length"):
            validate_scheme(p, FiniteScheme((CurvilinearGerm(Germ((0, 0), (row,)), 2),)))


# -- generic ranks over R[t] by specialization ------------------------------

def _outcome(fn):
    try:
        return fn()
    except ValueError as e:
        return ("ValueError", str(e))


def _family_outcomes(param, pieces):
    fam = family_span(param, pieces)
    return (fam.basis, generic_rank(fam), limit_of_spans(fam).basis)


def _basis_outcomes(n, basis):
    fam = SpanFamily(n, basis)
    return (generic_rank(fam), _outcome(lambda: limit_of_spans(fam).basis))


def _sympy_generic_rank(rows):
    """Rank over QQ(t), by sympy's DomainMatrix."""
    from sympy import QQ as SQQ
    from sympy import Rational, symbols
    from sympy.polys.matrices import DomainMatrix

    if not rows:
        return 0
    t = symbols("t")
    dom = SQQ.frac_field(t)

    def conv(e):
        return dom.from_sympy(sum(Rational(c.numerator, c.denominator) * t**i
                                  for i, c in enumerate(e)))

    return DomainMatrix([[conv(e) for e in row] for row in rows],
                        (len(rows), len(rows[0])), dom).rank()


def _specializations(fn):
    """fn's result, how many ranks over a polynomial ring it computed, how
    many specializations those ranks took, and how many t = 1 echelons
    `family_span` ran."""
    poly, base, echelons = [], [], []
    real = exactalg.rank_of_rows

    def counting(calls):
        def rank(field, rows):
            calls.append(field)
            return real(field, rows)
        return rank

    def echelon(rows, relations=True, q=None):
        echelons.append(q)
        return exactalg._echelon(rows, relations, q)

    with mock.patch.object(schemes, "rank_of_rows", counting(poly)), \
            mock.patch.object(exactalg, "rank_of_rows", counting(base)), \
            mock.patch.object(schemes, "_echelon", echelon):
        out = fn()
    return out, sum(isinstance(f, PolyRing) for f in poly), len(base), len(echelons)


RQ = PolyRing(QQ)
_polys = st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                  max_size=3).map(RQ.from_coeffs)


def _pieces(dim_x):
    point = st.tuples(*[_polys] * dim_x)
    return st.lists(st.one_of(
        point.map(ReducedPoint),
        point.map(FirstNeighborhood),
        st.tuples(point, point, st.integers(2, 3)).map(
            lambda a: CurvilinearGerm(Germ(a[0], (a[1],)), a[2])),
    ), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_family_span_matches_a_sympy_greedy_selection(data):
    spec = data.draw(st.sampled_from(["veronese:1,3", "veronese:2,2", "segre:2x2"]))
    param = parse_variety(spec)
    pieces = data.draw(_pieces(param.dim_X))
    kept = []
    for v in schemes._span_vectors(param, pieces):
        if _sympy_generic_rank(kept + [v]) > len(kept):
            kept.append(v)
    basis, rank, lim = _family_outcomes(param, pieces)
    assert basis == kept
    assert rank == len(lim) == len(kept)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), data=st.data())
def test_poly_rank_matches_sympy(n, data):
    # some drawn vectors, then QQ[t]-combinations of them so that generic
    # dependence with cancellation occurs, in a drawn order
    basis = data.draw(st.lists(st.lists(_polys, min_size=n, max_size=n),
                               min_size=1, max_size=3))
    for mults in data.draw(st.lists(st.lists(_polys, min_size=len(basis),
                                             max_size=len(basis)), max_size=2)):
        combo = [RQ.zero] * n
        for g, v in zip(mults, basis):
            combo = [RQ.add(c, RQ.mul(g, x)) for c, x in zip(combo, v)]
        basis.append(combo)
    basis = data.draw(st.permutations(basis))
    expected = _sympy_generic_rank(basis)
    assert rank_of_rows(RQ, basis) == expected
    rank, lim = _basis_outcomes(n, basis)
    assert rank == expected
    if expected < len(basis):
        assert lim[0] == "ValueError"
    else:
        assert isinstance(lim, list) and len(lim) == expected


def test_poly_rank_needs_all_d_plus_one_points():
    # rank 2 over QQ(t), but f * g vanishes at t = 1, ..., 4 = D (entry
    # degree 2, two rows): only the last point t = D + 1 shows the rank
    f = RQ.mul(RQ.from_coeffs([-1, 1]), RQ.from_coeffs([-2, 1]))
    g = RQ.mul(RQ.from_coeffs([-3, 1]), RQ.from_coeffs([-4, 1]))
    rows = [[f, RQ.zero], [RQ.zero, g]]
    assert _sympy_generic_rank(rows) == 2
    assert rank_of_rows(RQ, rows) == 2
    assert generic_rank(SpanFamily(2, rows)) == 2


def test_generic_rank_on_dependence_hidden_from_leading_terms():
    # v3 = v1 - v2, but the t-leading coefficients of v1, v2, v3 are independent
    t1 = RQ.from_coeffs([1, 1])
    basis = [[t1, RQ.zero, RQ.one], [RQ.t(), RQ.one, RQ.zero], [RQ.one, RQ.of(-1), RQ.one]]
    assert _sympy_generic_rank(basis) == 2
    assert _basis_outcomes(3, basis) == (
        2, ("ValueError", "family basis drops rank generically (non-flat presentation)"))


def _perturbed_reduced_family():
    p = parse_variety("segre:2x2x2")
    sch = random_scheme(p, 4, mix="reduced", bound=2, rng=random.Random(30))
    return p, perturbed_family(sch, random.Random(31), bound=2, tdeg=2)


def test_independent_rows_need_one_specialization():
    p, pieces = _perturbed_reduced_family()
    (kept, rank, lim), poly, points, echelons = _specializations(
        lambda: _family_outcomes(p, pieces))
    assert len(kept) == rank == len(lim) == 4
    # family_span keeps all four on one t = 1 echelon; generic_rank takes one
    # specialization; limit_of_spans, on independent constant terms, none
    assert (poly, points, echelons) == (1, 1, 1)
    # dependent rows take every point: the second row is t times the first
    rows = [[RQ.one, RQ.t()], [RQ.t(), RQ.mul(RQ.t(), RQ.t())]]
    rank, poly, points, _ = _specializations(lambda: generic_rank(SpanFamily(2, rows)))
    assert (rank, poly, points) == (1, 1, 2 * 2 + 1)


def test_limit_of_spans_ranks_generically_only_on_dependent_constant_terms():
    # independent constant terms prove generic independence: no flatness rank
    p, pieces = _perturbed_reduced_family()
    fam = family_span(p, pieces)
    lim, poly, points, _ = _specializations(lambda: limit_of_spans(fam))
    assert (lim.dim, poly, points) == (4, 0, 0)
    # two points colliding at (0, 0): dependent constant terms, one flatness rank
    collide = SpanFamily(4, [[RQ.one, RQ.zero, RQ.zero, RQ.zero],
                             [RQ.one, RQ.zero, RQ.t(), RQ.zero]])
    lim, poly, points, _ = _specializations(lambda: limit_of_spans(collide))
    assert (lim.basis, poly, points) == ([[1, 0, 0, 0], [0, 0, 1, 0]], 1, 1)


def test_family_span_cost_on_generically_dependent_vectors():
    # points (i t, 0) on segre:2x2 give (1, 0, i t, 0): the third raw vector
    # is 2 v1 - v0, dependent below dim W = 4, so no full-column stop applies
    p = parse_variety("segre:2x2")
    pieces = [ReducedPoint((RQ.from_coeffs([0, i]), RQ.zero)) for i in range(3)]
    calls = []
    real, real_echelon = exactalg._rank_int_bareiss, exactalg._echelon

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    def echelon(rows, relations=True, q=None):
        calls.append("t = 1")
        return real_echelon(rows, relations, q)

    with mock.patch.object(exactalg, "_rank_int_bareiss", counting), \
            mock.patch.object(schemes, "_echelon", echelon):
        fam = family_span(p, pieces)
    assert len(fam.basis) == 2
    # one t = 1 echelon keeps the two vectors before the first one dependent
    # at t = 1; that one takes all D + 1 = 3 * 1 + 1 points, each
    # re-eliminating the kept rows with it
    assert calls == ["t = 1"] + [3] * 4


def test_family_span_falls_back_to_the_generic_rank_after_t_1():
    # reduced points (0, 0), (t - 1, 0), (2t, 0) on segre:2x2 give
    # (1, 0, x, 0): the second is dependent at t = 1 but generically
    # independent, so it is kept; the third is independent at t = 1 of the
    # rows the echelon kept, but generically in the span of the first two.
    # A mutant that keeps every vector independent at t = 1 keeps the third.
    p = parse_variety("segre:2x2")
    pieces = [ReducedPoint((RQ.from_coeffs(c), RQ.zero)) for c in ([], [-1, 1], [0, 2])]
    raw = schemes._span_vectors(p, pieces)
    oracle = []
    for v in raw:
        if _sympy_generic_rank(oracle + [v]) > len(oracle):
            oracle.append(v)
    assert family_span(p, pieces).basis == oracle == raw[:2]


def test_a_cycling_dependent_basis_is_refused_as_non_flat(tmp_path, capsys):
    """The rows 1 + t and 1 + 2t are dependent, and t-saturation on them
    cycles (each step swaps in t, then a constant) until its step limit.

    The flatness check runs only once the constant terms are dependent;
    the mutant that drops it ends in RuntimeError and fails here, through
    `limit_of_spans`, `compare_limit` and `cactus-barrier limit` alike.
    """
    msg = "family basis drops rank generically (non-flat presentation)"
    with pytest.raises(ValueError) as err:
        limit_of_spans(SpanFamily(1, [[RQ.from_coeffs([1, 1])], [RQ.from_coeffs([1, 2])]]))
    assert str(err.value) == msg
    # the same rows padded into veronese:1,2, whose W has dimension 3
    p = parse_variety("veronese:1,2")
    padded = [[RQ.from_coeffs([1, c]), RQ.zero, RQ.zero] for c in (1, 2)]
    limit = FiniteScheme((reduced(0), reduced(1)))
    with pytest.raises(ValueError) as err:
        compare_limit(p, SpanFamily(3, padded), limit)
    assert str(err.value) == msg
    path = tmp_path / "family.json"
    path.write_text(json.dumps({
        "format": "spanfamily/1", "variety": "veronese:1,2",
        "family": {"kind": "basis", "basis": [[["1", c], ["0"], ["0"]] for c in ("1", "2")]},
        "limit": {"pieces": [{"type": "reduced", "point": [x]} for x in ("0", "1")]},
    }))
    assert cli.main(["limit", "--family", str(path)], out=io.StringIO()) == 2
    assert capsys.readouterr().err == f"error: {msg}\n"


def test_generic_rank_with_a_denominator_divisible_by_2_31_minus_1():
    v = parse_variety("veronese:1,1")
    small = RQ.from_coeffs([0, Fraction(1, DEFAULT_PRIME)])
    pieces = [ReducedPoint((RQ.zero,)), ReducedPoint((small,))]
    kept, rank, lim = _family_outcomes(v, pieces)
    assert len(kept) == rank == len(lim) == 2
    assert _sympy_generic_rank(kept) == 2


# -- span vectors on ints for integral chart points ---------------------------

CAMPAIGN_VARIETIES = ("segre:2x2x2", "segre:3x3x3", "veronese:2,3", "veronese:3,3",
                      "segre-veronese:(1,2)x(2,1)")


def _fraction_path(param, scheme):
    """Span vectors of the scheme's pieces by the brute-force oracle, in Fractions."""
    return [v for p in scheme.pieces for v in brute_piece_vectors(param, p)]


@st.composite
def _random_schemes(draw):
    param = parse_variety(draw(st.sampled_from(CAMPAIGN_VARIETIES)))
    mix = draw(st.sampled_from(["reduced", "curv", "nbhd", "mixed"]))
    if mix == "nbhd":
        deg = (param.dim_X + 1) * draw(st.integers(1, 2))
    else:
        deg = draw(st.integers(2 if mix == "curv" else 1, 6))
    seed = draw(st.integers(0, 2**32))
    return param, random_scheme(param, deg, mix=mix, bound=3, rng=random.Random(seed))


def _entries_equal(a, b):
    return len(a) == len(b) and all(len(u) == len(v) and all(x == y for x, y in zip(u, v))
                                    for u, v in zip(a, b))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=_random_schemes())
def test_integral_span_vectors_equal_the_fraction_path(case):
    param, s = case
    out = scheme_span_vectors(param, s, QQ)
    assert _entries_equal(out, _fraction_path(param, s))
    assert all(type(x) is int for v in out for x in v)


def _ring_methods():
    """(class, name) of every method of `PolyRing` and of the `QQ` marker, dunders aside."""
    return [(cls, name) for cls in (PolyRing, RationalField) for name, f in vars(cls).items()
            if callable(f) and not name.startswith("__")]


@pytest.mark.parametrize("spec", CAMPAIGN_VARIETIES)
def test_integral_spans_and_points_take_no_ring_product(spec, monkeypatch):
    # the int path multiplies with int `*` and calls no ring method: each one
    # is refused here
    param = parse_variety(spec)
    schemes_by_kind = [random_scheme(param, 2 * (param.dim_X + 1), mix=mix, bound=3,
                                     rng=random.Random(mix)) for mix in ("reduced", "curv", "nbhd")]
    want = [scheme_span_vectors(param, s) for s in schemes_by_kind]
    point = random_point(param, 5, random.Random(spec))

    def refuse(self, *args):
        raise AssertionError("a ring method on the int path")

    for cls, name in _ring_methods():
        monkeypatch.setattr(cls, name, refuse)
    for s, vectors in zip(schemes_by_kind, want):
        assert scheme_span_vectors(param, s) == vectors
        assert all(type(x) is int for v in vectors for x in v)
    assert random_point(param, 5, random.Random(spec)) == point


def _schemes_of_each_piece_type(param):
    """One random scheme of reduced points, one of germs, one of first neighborhoods."""
    return [random_scheme(param, 2 * (param.dim_X + 1), mix=mix, bound=3, rng=random.Random(mix))
            for mix in ("reduced", "curv", "nbhd")]


def _map_scheme(fn, scheme):
    return FiniteScheme(tuple(p.map_coords(fn) for p in scheme.pieces))


@pytest.mark.parametrize("spec", ["segre:3x3x3", "veronese:3,3"])
def test_int_and_integral_fraction_coordinates_give_the_same_int_vectors(spec):
    param = parse_variety(spec)
    for s in _schemes_of_each_piece_type(param):
        assert all(type(x) is int for p in s.pieces for x in p.coords)
        ints = scheme_span_vectors(param, s)
        assert all(type(x) is int for v in ints for x in v)
        from_fractions = scheme_span_vectors(param, _map_scheme(Fraction, s))
        assert all(type(x) is int for v in from_fractions for x in v)
        assert from_fractions == ints == _fraction_path(param, s)
        # x + 1/2 is never integral, so every piece gives Fractions among its entries
        halves = _map_scheme(lambda x: x + Fraction(1, 2), s)
        rational = scheme_span_vectors(param, halves)
        assert rational == _fraction_path(param, halves)
        pos = 0
        for p in halves.pieces:
            assert any(type(x) is Fraction for v in rational[pos:pos + p.degree] for x in v)
            pos += p.degree


@pytest.mark.parametrize("spec", ["segre:3x3x3", "veronese:3,3"])
def test_int_coordinates_do_not_pass_through_zz_of(spec, monkeypatch):
    # the one conversion to ints, `varieties._exact`, sees no int point;
    # integral Fractions pass through it once per coordinate of a point piece
    # (a germ's jet reads the denominators itself)
    param = parse_variety(spec)
    calls = []
    real = varieties._exact

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(varieties, "_exact", counting)

    def count(scheme):
        calls.clear()
        scheme_span_vectors(param, scheme)
        return len(calls)

    for s in _schemes_of_each_piece_type(param):
        points = [p for p in s.pieces if not isinstance(p, CurvilinearGerm)]
        assert count(s) == 0
        assert count(_map_scheme(Fraction, s)) == sum(len(p.coords) for p in points)


def test_family_coefficients_stay_ints():
    # `PolyRing.of` and `from_coeffs` keep ints and make integral Fractions ints,
    # so integral families never pass through Fractions
    param = parse_variety("segre:2x2x2")
    scheme = random_scheme(param, 5, mix="mixed", bound=3, rng=random.Random(1))
    for pieces in (constant_family_pieces(scheme.pieces),
                   constant_family_pieces(_map_scheme(Fraction, scheme).pieces),
                   perturbed_family(scheme, random.Random(2)),
                   perturbed_family(_map_scheme(Fraction, scheme), random.Random(2))):
        assert all(type(c) is int for p in pieces for x in p.coords for c in x)
    halves = perturbed_family(_map_scheme(lambda x: Fraction(2 * x + 1, 2), scheme),
                              random.Random(2))
    assert all([type(c) for c in x] == [Fraction, int, int][:len(x)]
               for p in halves for x in p.coords if x)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_random_schemes(), den=st.integers(2, 7), which=st.integers(0, 7))
def test_rational_span_vectors_equal_the_fraction_path(case, den, which):
    # pieces picked by the bits of `which` get coordinates x/den; the rest stay
    # integral, so both kinds meet in one scheme
    param, s = case
    pieces = tuple(p.map_coords(lambda x: Fraction(x, den)) if which >> i & 1 else p
                   for i, p in enumerate(s.pieces))
    s = FiniteScheme(pieces)
    out = scheme_span_vectors(param, s, QQ)
    assert _entries_equal(out, _fraction_path(param, s))
    pos = 0
    for p in s.pieces:
        integral = all(x.denominator == 1 for x in p.coords)
        assert all(type(x) is int for v in out[pos:pos + p.degree] for x in v) == integral
        pos += p.degree
    assert pos == len(out)


# -- the chart coordinates pick the arithmetic ---------------------------------

_KINDS = ("int", "integral Fraction", "rational", "int polynomial", "rational polynomial")
_CHART_VARIETIES = ("segre:2x2x2", "veronese:2,3", "veronese:1,7", "segre-veronese:(1,2)x(2,1)",
                    "segre:3x3x3")


def _coordinates(kind, n, rng):
    """n chart coordinates of one kind; the rational kinds keep one denominator above 1."""
    def number(den):
        return Fraction(rng.randint(-3, 3), rng.randint(1, den))
    if kind == "int":
        return tuple(rng.randint(-3, 3) for _ in range(n))
    if kind == "integral Fraction":
        return tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
    if kind == "rational":
        return (Fraction(1, 2),) + tuple(number(4) for _ in range(n - 1))
    polys = [tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 3))) for _ in range(n)]
    if kind == "rational polynomial":
        polys = [(Fraction(1, 3),) + polys[0]] + [tuple(Fraction(c, rng.randint(1, 4)) for c in x)
                                                   for x in polys[1:]]
    return tuple(RQ.from_elems(x) for x in polys)


def _piece(kind, param, length, rng):
    """A piece of each type, its coordinates all of `kind`."""
    def point():
        return _coordinates(kind, param.dim_X, rng)
    return [ReducedPoint(point()), FirstNeighborhood(point()),
            CurvilinearGerm(Germ(point(), tuple(point() for _ in range(length - 1))), length)]


def _scalars(xs):
    return [c for x in xs for c in (x if isinstance(x, tuple) else (x,))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spec=st.sampled_from(_CHART_VARIETIES), kind=st.sampled_from(_KINDS),
       length=st.integers(2, 4), seed=st.integers(0, 2**32))
def test_span_vectors_take_their_arithmetic_from_the_coordinates(spec, kind, length, seed):
    param = parse_variety(spec)
    rng = random.Random(seed)
    for piece in _piece(kind, param, length, rng):
        vectors = piece.span_vectors(param)
        assert len(vectors) == piece.degree and all(len(v) == param.dim_W for v in vectors)
        # ints, or polynomials with int coefficients, exactly when the data are integral
        integral = all(c.denominator == 1 for c in _scalars(piece.coords))
        assert integral == (kind in ("int", "integral Fraction", "int polynomial"))
        assert all(type(c) is int for v in vectors for c in _scalars(v)) == integral
        if not kind.endswith("polynomial"):
            assert vectors == brute_piece_vectors(param, piece)
            continue
        # an entry has degree at most D e in t (D the sum of the factor
        # degrees, e < 4 the largest coordinate degree), so 3 D + 1 values fix it
        for t in range(3 * sum(f.d for f in param.factors) + 1):
            at = piece.map_coords(lambda x: sum(c * t**i for i, c in enumerate(x)))
            assert ([[sum(c * t**i for i, c in enumerate(x)) for x in v] for v in vectors]
                    == brute_piece_vectors(param, at))


# -- family span vectors on int polynomials and the fraction-free limit --------

FAMILY_VARIETIES = CAMPAIGN_VARIETIES + ("veronese:1,3",)


def _collision(param, k, den, rng):
    """k points gamma(lam t), lam = 0..k-1, colliding into the length-k jet of gamma.

    gamma's coefficients have denominator `den`, so for den > 1 every point
    but the constant one has rational coordinates.
    """
    n = param.dim_X
    base = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
    coeffs = [tuple(Fraction(rng.choice((-2, -1, 1, 2)), den) for _ in range(n))
              for _ in range(k)]
    pieces = [ReducedPoint(tuple(
        RQ.from_coeffs([base[j]] + [c[j] * lam ** (i + 1) for i, c in enumerate(coeffs)])
        for j in range(n))) for lam in range(k)]
    return pieces, FiniteScheme((CurvilinearGerm(Germ(base, tuple(coeffs[:k - 1])), k),))


@st.composite
def _families(draw, rational):
    """(param, family pieces, stated limit): collisions, perturbed and constant families.

    With `rational`, a collision gets coefficients over a denominator and
    the pieces picked by a drawn bit mask get rational constant terms, so
    integral and rational pieces meet in one family.
    """
    param = parse_variety(draw(st.sampled_from(FAMILY_VARIETIES)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    den = draw(st.integers(2, 7)) if rational else 1
    kind = draw(st.sampled_from(["collision", "perturbed", "constant"]))
    if kind == "collision":
        pieces, limit = _collision(param, draw(st.integers(2, 5)), den, rng)
        return param, pieces, limit
    limit = random_scheme(param, draw(st.integers(1, 4)), mix="mixed", bound=2, rng=rng)
    if rational:
        which = draw(st.integers(1, 15))
        limit = FiniteScheme(tuple(
            p.map_coords(lambda x: Fraction(x, den)) if which >> i & 1 else p
            for i, p in enumerate(limit.pieces)))
    if kind == "constant":
        return param, constant_family_pieces(limit.pieces), limit
    return param, perturbed_family(limit, rng, bound=2, tdeg=2), limit


def _fraction_family_path(fn):
    """fn() with chart coordinates kept as they are given: Fraction coefficients stay Fractions."""
    with mock.patch.object(varieties, "_exact", lambda x: x):
        return fn()


def _relation_calls(fn):
    """fn(), the `first_relation` calls it made in `schemes`, and how many found a relation."""
    found = []
    real = schemes.first_relation

    def counting(rows):
        rel = real(rows)
        found.append(rel is not None)
        return rel

    with mock.patch.object(schemes, "first_relation", counting):
        return fn(), len(found), sum(found)


def _limit_by_products(fam, clear=False):
    """The t-saturation as it was: rational combinations, formed by polynomial products.

    With `clear`, each combination is cleared to integers first, the step
    rule before `first_relation`. Returns the t = 0 rows at the end, which
    are a basis of the limit, and the number of saturation steps.
    """
    ring, base, n = RQ, QQ, fam.ambient_dim
    scalars = Scalars(base)
    vecs = []
    for v in fam.basis:
        shift = min(ring.valuation(e) for e in v if e)
        vecs.append([e[shift:] for e in v])
    steps = 0
    while True:
        at0 = [[e[0] if e else Fraction(0) for e in v] for v in vecs]
        if rank_of_rows(base, at0) == len(vecs):
            return at0, steps
        steps += 1
        combo = nullspace(Matrix(base, [list(col) for col in zip(*at0)]))[0]
        if clear:
            combo = clear_denominators(combo)
        target = max(i for i, c in enumerate(combo) if not scalars.is_zero(c))
        new = [ring.zero] * n
        for c, v in zip(combo, vecs):
            if not scalars.is_zero(c):
                new = [ring.add(a, ring.mul(ring.from_elems([c]), e)) for a, e in zip(new, v)]
        shift = min(ring.valuation(e) for e in new if e)
        vecs[target] = [e[shift:] for e in new]


def _membership_compare(param, fam, limit_scheme):
    """compare_limit as it was: the stated limit's span, then membership in the limit."""
    lim = limit_of_spans(fam)
    span0 = scheme_span(param, limit_scheme)
    return LimitComparison(span0.dim, lim.dim,
                           all(in_span(QQ, lim.basis, v) for v in span0.basis))


def _integral(piece):
    return all(c.denominator == 1 for x in piece.coords for c in x)


def _is_int_poly_vector(v):
    return all(type(c) is int for e in v for c in e)


def _entries_are_ints(vectors):
    return all(type(x) is int for v in vectors for x in v)


def _check_against_fraction_path(param, pieces, limit):
    # families store integral coefficients as ints; the reference takes every one as a Fraction
    as_fractions = [p.map_coords(lambda x: tuple(map(Fraction, x))) for p in pieces]
    fam = family_span(param, pieces)
    old = _fraction_family_path(lambda: family_span(param, as_fractions))
    assert fam.ambient_dim == old.ambient_dim == param.dim_W
    assert _entries_equal(fam.basis, old.basis)
    # kept vectors are a subsequence of the raw ones; tag each with its piece
    raw = [(v, _integral(p)) for p in pieces for v in schemes._span_vectors(param, [p])]
    tags = iter(raw)
    for v in fam.basis:
        integral = next(i for r, i in tags if r == v)
        assert _is_int_poly_vector(v) or not integral
    assert generic_rank(fam) == generic_rank(old)

    lim, ncalls, calls = _relation_calls(lambda: limit_of_spans(fam))
    old_lim, _, old_calls = _fraction_family_path(
        lambda: _relation_calls(lambda: limit_of_spans(old)))
    by_products, steps = _limit_by_products(old)
    by_kernel, kernel_steps = _limit_by_products(fam, clear=True)
    assert calls == old_calls == steps == kernel_steps
    assert ncalls == calls + 1  # one relation per step, and one for the final rows
    assert lim.dim == len(fam.basis)
    assert _entries_equal(lim.basis, by_kernel) and _entries_equal(lim.basis, old_lim.basis)
    assert same_span(QQ, lim.basis, by_products)

    # a stated limit that is not the family's, where the inclusion can fail
    other = random_scheme(param, 2, mix="reduced", bound=3, rng=random.Random(len(fam.basis)))
    for stated in (limit, other):
        cmp = compare_limit(param, fam, stated)
        # an equal copy misses the span memo, so the reference evaluates it again
        twin = FiniteScheme(stated.pieces)
        assert cmp == _fraction_family_path(lambda: compare_limit(param, old, twin))
        assert cmp == _membership_compare(param, old, stated)
    assert compare_limit(param, fam, limit).inclusion_holds
    return fam, calls


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_families(rational=False))
def test_integral_families_run_on_int_polynomials(case):
    param, pieces, limit = case
    fam, _ = _check_against_fraction_path(param, pieces, limit)
    assert all(_is_int_poly_vector(v) for v in fam.basis)
    assert _entries_are_ints(limit_of_spans(fam).basis)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_families(rational=True))
def test_mixed_families_equal_the_fraction_path(case):
    _check_against_fraction_path(*case)


def test_integral_collisions_saturate_on_ints():
    p = parse_variety("veronese:2,3")
    pieces, limit = _collision(p, 5, 1, random.Random(7))
    fam, calls = _check_against_fraction_path(p, pieces, limit)
    assert calls > 0
    assert _entries_are_ints(limit_of_spans(fam).basis)
    assert compare_limit(p, fam, limit) == LimitComparison(5, 5, True)
    # no rank of the t = 0 rows: the only rank left is the flatness check over QQ[t]
    ranked = []
    real = schemes.rank_of_rows
    with mock.patch.object(schemes, "rank_of_rows",
                           lambda field, rows: ranked.append(field) or real(field, rows)):
        limit_of_spans(fam)
    assert ranked == [RQ]
