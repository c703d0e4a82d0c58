import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactusbarrier.exactalg import DEFAULT_PRIME, rank, rank_of_rows
from cactusbarrier.fields import QQ, PrimeField
from cactusbarrier.rankmethods import (
    DenseTensor,
    LinearMatrixMap,
    MethodSpecError,
    SymmetricForm,
    builtin_methods,
    catalecticant,
    check_k_consistency,
    custom_method,
    estimate_k,
    evaluate_map,
    flattening,
    flattening_method,
    integer_image,
    koszul_flattening,
    koszul_method,
    lower_bound,
    map_rank,
    parse_method,
)
from cactusbarrier.varieties import parse_variety, random_point

from oracles import (
    brute_catalecticant_matrix,
    brute_flattening_matrix,
    brute_koszul_matrix,
    perm_sign,
    vector_coeff_lookup,
)


def random_dense(shape, rng, bound=4):
    return DenseTensor(shape, [rng.randint(-bound, bound) for _ in range(math.prod(shape))])


def random_form(nvars, degree, rng, bound=4):
    from cactusbarrier.varieties import homogeneous_exponents

    terms = {e: rng.randint(-bound, bound) for e in homogeneous_exponents(nvars - 1, degree)}
    return SymmetricForm(nvars, degree, terms)


def test_evaluate_map_zero_vector():
    m = flattening((2, 2, 2), (0,))
    z = DenseTensor.zero((2, 2, 2))
    out = evaluate_map(m, z.to_vector())
    assert all(all(x == 0 for x in row) for row in out.rows)


def test_evaluate_map_rank_one_point():
    p = parse_variety("segre:2x2x2")
    m = flattening((2, 2, 2), (0,))
    x = random_point(p, 3, random.Random(0))
    assert rank(evaluate_map(m, x)) == 1


def test_evaluate_map_linearity():
    rng = random.Random(31)
    m = flattening((2, 3, 2), (0, 2))
    for _ in range(10):
        f = random_dense((2, 3, 2), rng).to_vector()
        g = random_dense((2, 3, 2), rng).to_vector()
        a, b = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        combo = [a * x + b * y for x, y in zip(f, g)]
        lhs = evaluate_map(m, combo)
        fa = evaluate_map(m, f)
        gb = evaluate_map(m, g)
        rhs = [[a * x + b * y for x, y in zip(r1, r2)] for r1, r2 in zip(fa.rows, gb.rows)]
        assert lhs.rows == rhs


def test_scaling_invariance_of_rank():
    rng = random.Random(32)
    m = koszul_flattening((3, 3, 3), 1)
    for _ in range(10):
        f = random_dense((3, 3, 3), rng).to_vector()
        scaled = [Fraction(5) * x for x in f]
        assert rank(evaluate_map(m, f)) == rank(evaluate_map(m, scaled))


def test_flattening_matches_reshape_oracle():
    rng = random.Random(33)
    for shape, rows in (((2, 2, 2), (0,)), ((2, 3, 4), (1,)), ((2, 3, 4), (0, 2)), ((3, 3), (0,))):
        m = flattening(shape, rows)
        for _ in range(4):
            t = random_dense(shape, rng)
            ours = evaluate_map(m, t.to_vector())
            brute = brute_flattening_matrix(shape, t.entries, rows)
            assert ours.rows == brute.rows


def test_flattening_diagonal_rank():
    for r in (1, 2, 3):
        t = DenseTensor.diagonal((3, 3, 3), r)
        m = flattening((3, 3, 3), (0,))
        assert rank(evaluate_map(m, t.to_vector())) == r


def test_flattening_rank_one_for_every_split():
    p = parse_variety("segre:2x3x2")
    x = random_point(p, 2, random.Random(34))
    for rows in ((0,), (1,), (2,), (0, 1), (0, 2)):
        assert rank(evaluate_map(flattening((2, 3, 2), rows), x)) == 1


def test_random_2x2x2_first_flattening_rank_two():
    rng = random.Random(35)
    t = random_dense((2, 2, 2), rng)
    assert rank(evaluate_map(flattening((2, 2, 2), (0,)), t.to_vector())) == 2


def test_flattening_rejects_bad_split():
    with pytest.raises(MethodSpecError):
        flattening((2, 2, 2), ())
    with pytest.raises(MethodSpecError):
        flattening((2, 2, 2), (0, 1, 2))


def test_catalecticant_matches_hankel_oracle():
    rng = random.Random(36)
    for nvars, d, i in ((2, 3, 1), (3, 3, 1), (3, 4, 2), (4, 3, 1)):
        m = catalecticant(nvars, d, i)
        for _ in range(3):
            f = random_form(nvars, d, rng)
            vec = f.to_vector()
            ours = evaluate_map(m, vec)
            brute = brute_catalecticant_matrix(nvars, d, i, vector_coeff_lookup(nvars, d, vec))
            assert ours.rows == brute.rows


def test_catalecticant_spec_examples():
    m = catalecticant(2, 3, 1)
    cube = SymmetricForm(2, 3, {(3, 0): 1})
    assert rank(evaluate_map(m, cube.to_vector())) == 1
    two_cubes = SymmetricForm(2, 3, {(3, 0): 1, (0, 3): 1})
    assert rank(evaluate_map(m, two_cubes.to_vector())) == 2


def test_catalecticant_generic_cubic_full_rank():
    rng = random.Random(37)
    f = random_form(4, 3, rng)
    m = catalecticant(4, 3, 1)
    assert (m.a, m.b) == (10, 4)
    assert rank(evaluate_map(m, f.to_vector())) == 4


def test_catalecticant_rejects_bad_index():
    with pytest.raises(MethodSpecError):
        catalecticant(3, 3, 0)
    with pytest.raises(MethodSpecError):
        catalecticant(3, 3, 3)


def test_koszul_matches_alternating_embedding_oracle():
    rng = random.Random(38)
    for shape, p in (((3, 3, 3), 1), ((2, 2, 2), 1), ((4, 2, 3), 1), ((4, 2, 3), 2)):
        m = koszul_flattening(shape, p)
        a, b, c = shape
        # embedding of wedge basis vectors into the (p+1)-fold tensor power
        rows_w = list(combinations(range(a), p + 1))
        emb = {}
        for k, s in enumerate(rows_w):
            col = {}
            for perm in permutations(range(p + 1)):
                flat = 0
                for q in perm:
                    flat = flat * a + s[q]
                col[flat] = perm_sign(perm)
            emb[k] = col
        for _ in range(3):
            t = random_dense(shape, rng)
            ours = evaluate_map(m, t.to_vector())
            brute = brute_koszul_matrix(shape, t.entries, p)
            # same rank through the embedding
            assert rank(ours) == rank(brute)
            # entrywise: the embedded image of our matrix equals the oracle
            composed = [[Fraction(0)] * ours.ncols for _ in range(a ** (p + 1) * c)]
            for rr in range(ours.nrows):
                wedge, l = divmod(rr, c)
                for flat, sign in emb[wedge].items():
                    for cc in range(ours.ncols):
                        composed[flat * c + l][cc] += sign * ours.rows[rr][cc]
            assert composed == brute.rows


def test_koszul_spec_values():
    rng = random.Random(39)
    p333 = parse_variety("segre:3x3x3")
    m = koszul_flattening((3, 3, 3), 1)
    x = random_point(p333, 3, rng)
    assert rank(evaluate_map(m, x)) == 2 == math.comb(2, 1)
    for r in (1, 2, 3):
        t = DenseTensor.diagonal((3, 3, 3), r)
        assert rank(evaluate_map(m, t.to_vector())) == 2 * r
    z = DenseTensor.zero((3, 3, 3))
    assert rank(evaluate_map(m, z.to_vector())) == 0


def test_koszul_rejects_bad_p():
    with pytest.raises(MethodSpecError):
        koszul_flattening((3, 3, 3), 3)
    with pytest.raises(MethodSpecError):
        koszul_flattening((3, 3), 1)


def test_estimate_k_matches_formulas():
    rng = random.Random(40)
    p333 = parse_variety("segre:3x3x3")
    assert estimate_k(flattening((3, 3, 3), (0,)), p333, 10, 3, rng) == 1
    v23 = parse_variety("veronese:2,3")
    assert estimate_k(catalecticant(3, 3, 1), v23, 10, 3, rng) == 1
    assert estimate_k(koszul_flattening((3, 3, 3), 1), p333, 10, 3, rng) == 2


def test_check_k_consistency_attains_k():
    rng = random.Random(41)
    p333 = parse_variety("segre:3x3x3")
    best, attained = check_k_consistency(koszul_method(p333, 1), p333, 50, 3, rng)
    assert best == 2 and attained


def test_check_k_consistency_detects_undershoot():
    rng = random.Random(42)
    p333 = parse_variety("segre:3x3x3")
    lying = koszul_method(p333, 1)
    lying.k = 1
    with pytest.raises(ArithmeticError):
        check_k_consistency(lying, p333, 50, 3, rng)


def test_lower_bound_examples():
    p333 = parse_variety("segre:3x3x3")
    diag = DenseTensor.diagonal((3, 3, 3), 3)
    assert lower_bound(flattening_method(p333, (0,)), diag.to_vector()) == 3
    assert lower_bound(flattening_method(p333, (0,)), DenseTensor.zero((3, 3, 3)).to_vector()) == 0
    x = random_point(p333, 2, random.Random(43))
    assert lower_bound(koszul_method(p333, 1), x) == 1


def test_lower_bound_rejects_vacuous_method():
    p333 = parse_variety("segre:3x3x3")
    m = flattening_method(p333, (0,))
    m.k = 0
    with pytest.raises(ValueError):
        lower_bound(m, DenseTensor.zero((3, 3, 3)).to_vector())


def test_flattening_subadditivity():
    rng = random.Random(44)
    m = flattening((3, 3, 3), (0,))
    for _ in range(10):
        f = random_dense((3, 3, 3), rng).to_vector()
        g = random_dense((3, 3, 3), rng).to_vector()
        s = [x + y for x, y in zip(f, g)]
        assert rank(evaluate_map(m, s)) <= rank(evaluate_map(m, f)) + rank(evaluate_map(m, g))


def test_builtin_methods_zoo():
    p333 = parse_variety("segre:3x3x3")
    specs = {m.spec for m in builtin_methods(p333)}
    assert specs == {
        "flattening:split=1|23",
        "flattening:split=12|3",
        "flattening:split=13|2",
        "koszul:p=1",
    }
    v23 = parse_variety("veronese:2,3")
    assert {m.spec for m in builtin_methods(v23)} == {"catalecticant:i=1", "catalecticant:i=2"}
    sv = parse_variety("segre-veronese:(1,2)x(2,1)")
    assert {m.spec for m in builtin_methods(sv)} == {"flattening:split=1|2"}
    p22 = parse_variety("segre:2x2x2")
    assert "koszul:p=1" in {m.spec for m in builtin_methods(p22)}


def test_parse_method():
    p333 = parse_variety("segre:3x3x3")
    m = parse_method("flattening:split=2|13", p333)
    assert m.spec == "flattening:split=2|13" and m.k == 1
    k = parse_method("koszul:p=1", p333)
    assert k.k == 2
    v = parse_variety("veronese:2,3")
    c = parse_method("catalecticant:i=2", v)
    assert c.k == 1
    with pytest.raises(MethodSpecError):
        parse_method("catalecticant:i=1", p333)
    with pytest.raises(MethodSpecError):
        parse_method("flattening:split=1|2", p333)
    with pytest.raises(MethodSpecError):
        parse_method("nonsense", p333)


def test_custom_method_gets_empirical_label():
    rng = random.Random(45)
    p333 = parse_variety("segre:3x3x3")
    m = custom_method(koszul_flattening((3, 3, 3), 1), p333, 20, 3, rng)
    assert m.k == 2
    assert m.is_empirical
    assert "empirical" in m.k_source


def test_evaluate_map_over_prime_field():
    gf = PrimeField(2**31 - 1)
    t = DenseTensor.diagonal((3, 3, 3), 2)
    m = flattening((3, 3, 3), (0,))
    assert rank(evaluate_map(m, t.to_vector(gf), gf)) == 2


def test_symmetric_form_embedding_consistency():
    # the form whose coefficients match a chart point evaluation must produce
    # the same W-vector as the chart map itself
    from cactusbarrier.varieties import evaluate, homogeneous_exponents

    v = parse_variety("veronese:2,2")
    pt = (Fraction(2), Fraction(-1))
    vec = evaluate(v, pt)
    terms = {}
    for e in homogeneous_exponents(2, 2):
        coeff = (pt[0] ** e[1]) * (pt[1] ** e[2])
        terms[e] = coeff
    f = SymmetricForm(3, 2, terms)
    assert f.to_vector() == vec


def test_dense_tensor_validation():
    with pytest.raises(ValueError):
        DenseTensor((2, 2), [1, 2, 3])
    with pytest.raises(ValueError):
        DenseTensor.diagonal((2, 3), 3)
    with pytest.raises(ValueError):
        SymmetricForm(2, 3, {(1, 1): 1})


# -- the integer image of M(F) against evaluate_map over QQ and GF(p) ---------

_BUILTIN_MAPS = [
    flattening((2, 2, 2), (0,)),
    flattening((2, 3, 2), (0, 2)),
    catalecticant(3, 3, 1),
    catalecticant(2, 4, 2),
    koszul_flattening((3, 3, 3), 1),
    koszul_flattening((3, 2, 2), 2),
]


@st.composite
def _custom_maps(draw):
    """A small map with rational cells, some with denominators, some integral."""
    w, a, b = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    coeff = st.one_of(st.integers(-3, 3).map(Fraction),
                      st.fractions(-3, 3, max_denominator=7))
    cells = {}
    for wi in range(w):
        for i in range(a):
            for j in range(b):
                c = draw(coeff)
                if c and draw(st.booleans()):
                    cells.setdefault(wi, []).append((i, j, c))
    return LinearMatrixMap(a, b, w, cells, spec="custom")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from(_BUILTIN_MAPS), _custom_maps()), st.data())
def test_integer_image_ranks_match_evaluate_map(m, data):
    entry = st.one_of(st.just(Fraction(0)), st.integers(-4, 4).map(Fraction),
                      st.fractions(-4, 4, max_denominator=10))
    f = data.draw(st.lists(entry, min_size=m.w, max_size=m.w))
    rows = integer_image(m, f)
    assert all(type(x) is int for row in rows for x in row)
    assert rank_of_rows(QQ, rows) == rank(evaluate_map(m, f, QQ)) == map_rank(m, f)
    for p in (2, 3, 7, DEFAULT_PRIME):
        gf = PrimeField(p)
        denominators = [x.denominator for x in f]
        denominators += [c.denominator for cs in m.cells.values() for _, _, c in cs]
        if any(d % p == 0 for d in denominators):
            with pytest.raises(ZeroDivisionError):
                integer_image(m, f, p)
            continue
        expected = rank(evaluate_map(m, [gf.of(x) for x in f], gf))
        assert rank_of_rows(gf, integer_image(m, f, p)) == expected
        assert map_rank(m, f, gf) == expected


def test_integer_image_scales_by_both_denominators():
    m = LinearMatrixMap(1, 2, 2, {0: [(0, 0, Fraction(1, 2))], 1: [(0, 1, Fraction(2, 3))]})
    assert m.integer_cells == (6, {0: [(0, 0, 3)], 1: [(0, 1, 4)]})
    # lambda = 5 clears F, mu = 6 clears the cells: M(30 F) = [[3, 4]]
    assert integer_image(m, [Fraction(1, 5), Fraction(1, 5)]) == [[3, 4]]
    assert integer_image(m, [Fraction(1, 5), Fraction(1, 5)], 7) == [[3, 4]]
    for p, bad in ((5, "1/5"), (2, "coefficient"), (3, "coefficient")):
        with pytest.raises(ZeroDivisionError, match=bad):
            integer_image(m, [Fraction(1, 5), Fraction(1, 5)], p)
    with pytest.raises(ValueError, match="W-dimension"):
        integer_image(m, [Fraction(1)])
