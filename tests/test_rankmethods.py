import math
import random
from fractions import Fraction
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactusbarrier import rankmethods
from cactusbarrier.exactalg import (
    DEFAULT_PRIME,
    common_denominator,
    rank,
    rank_of_rows,
    rank_qq_and_mod_p,
)
from cactusbarrier.exactalg import rank_mod_p as exactalg_rank_mod_p
from cactusbarrier.fields import QQ
from cactusbarrier.fileformats import custom_map_from_tensor
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
    koszul_ranks,
    map_rank,
    parse_method,
)
from cactusbarrier.varieties import parse_variety, random_point

from oracles import (
    Scalars,
    brute_catalecticant_matrix,
    brute_flattening_matrix,
    brute_koszul_matrix,
    perm_sign,
    rank_mod_p,
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


def test_evaluate_map_is_built_over_qq_only():
    # ranks mod p take the integer image; Fraction entries are never labelled GF(p)
    m = flattening((2, 2, 2), (0,))
    with pytest.raises(TypeError, match=r"no M\(F\) over 101"):
        evaluate_map(m, [1] * 8, 101)


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


def _lower_bound(method, vec):
    """ceil(rank M(F) / k), as `cactus-barrier bound` reports it."""
    return -(-map_rank(method.map, vec) // method.k)


def test_lower_bound_examples():
    p333 = parse_variety("segre:3x3x3")
    diag = DenseTensor.diagonal((3, 3, 3), 3)
    assert _lower_bound(flattening_method(p333, (0,)), diag.to_vector()) == 3
    assert _lower_bound(flattening_method(p333, (0,)),
                        DenseTensor.zero((3, 3, 3)).to_vector()) == 0
    x = random_point(p333, 2, random.Random(43))
    assert _lower_bound(koszul_method(p333, 1), x) == 1


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
    assert "empirical" in m.k_source


def test_map_rank_over_prime_field():
    t = DenseTensor.diagonal((3, 3, 3), 2)
    m = flattening((3, 3, 3), (0,))
    assert map_rank(m, t.to_vector(), 2**31 - 1) == 2
    # 7 * e0 x e0 x e0 + e1 x e1 x e1 has rank 2 over QQ and 1 mod 7
    t.entries[0] = Fraction(7)
    assert (map_rank(m, t.to_vector()), map_rank(m, t.to_vector(), prime=7)) == (2, 1)
    # the prime is checked where it is used, as `rank_mod_p` checks it
    with pytest.raises(ValueError, match="modulus 6 is not prime"):
        map_rank(m, t.to_vector(), prime=6)


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
        denominators = [x.denominator for x in f]
        denominators += [c.denominator for cs in m.cells.values() for _, _, c in cs]
        if any(d % p == 0 for d in denominators):
            with pytest.raises(ZeroDivisionError):
                integer_image(m, f, p)
            continue
        # M(F) over QQ, reduced entry by entry
        reduced = [[Scalars(p).of(x) for x in row] for row in evaluate_map(m, f, QQ).rows]
        expected = rank_mod_p(reduced, p)
        assert exactalg_rank_mod_p(integer_image(m, f, p), p) == expected
        assert map_rank(m, f, p) == expected


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


# -- integer_image against evaluate_map, cleared by lambda * mu ---------------

# the campaign's five varieties and the ladder's rungs
_GATHER_VARIETIES = ("segre:2x2x2", "segre:3x3x3", "veronese:2,3", "veronese:3,3",
                     "segre-veronese:(1,2)x(2,1)", "segre:4x4x4", "segre:5x5x5",
                     "veronese:4,3", "veronese:5,3")
_GATHER_MAPS = [meth.map for spec in _GATHER_VARIETIES
                for meth in builtin_methods(parse_variety(spec), koszul_ps=(1, 2))]


def _cleared_evaluate_map(m, f):
    """M(lambda * mu * F) from the QQ `evaluate_map`, lambda and mu the two denominators."""
    lam = common_denominator(f)
    mu = common_denominator([c for cs in m.cells.values() for _, _, c in cs])
    return [[int(x * lam * mu) for x in row] for row in evaluate_map(m, f, QQ).rows]


def _multi_term_custom_map():
    """A (3, 2, 2) coefficient tensor: cell (0, 1) has the three terms 1, -1/2 and 3."""
    entries = [0, 1, 0, "2/3",
               0, "-1/2", 5, 0,
               4, 3, 0, 0]
    return custom_map_from_tensor(DenseTensor((3, 2, 2), entries), "multi.json")


def test_every_builtin_map_gathers_and_a_multi_term_cell_does_not():
    assert all(m.gather is not None for m in _GATHER_MAPS)
    assert {m.spec.split(":")[0] for m in _GATHER_MAPS} == {"flattening", "catalecticant", "koszul"}
    m = _multi_term_custom_map()
    assert m.gather is None
    assert m.integer_cells[0] == 6


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(_GATHER_MAPS + [_multi_term_custom_map()]), st.data())
def test_integer_image_equals_the_cleared_evaluate_map(m, data):
    # builtin maps take the gather table, the custom map the cell loop
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.fractions(-4, 4, max_denominator=10))
    f = data.draw(st.lists(entry, min_size=m.w, max_size=m.w))
    rows = integer_image(m, f)
    assert all(type(x) is int for row in rows for x in row)
    assert rows == _cleared_evaluate_map(m, f)


# -- Koszul ranks through an invertible slice, against the whole M(F) ---------

def _sympy_ranks(rows, prime):
    """(rank over QQ, rank mod prime or None) of int rows, by sympy."""
    from sympy import GF, ZZ
    from sympy.polys.matrices import DomainMatrix

    shape = (len(rows), len(rows[0]))
    qq = DomainMatrix([[ZZ(x) for x in row] for row in rows], shape, ZZ).to_field().rank()
    if prime is None:
        return qq, None
    gf = GF(prime)
    return qq, DomainMatrix([[gf(x) for x in row] for row in rows], shape, gf).rank()


def _slice_dets(a, n, f):
    """sympy's det of each slice F[i, :, :]."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    return [DomainMatrix([[ZZ(f[(i * n + j) * n + l]) for l in range(n)] for j in range(n)],
                         (n, n), ZZ).det() for i in range(a)]


def _whole_ranks(m, f, prime):
    """(rank, fp_rank) of all of M(F), as the barrier takes them without the reduction."""
    rows = integer_image(m, f, prime)
    return (rank_of_rows(QQ, rows), None) if prime is None else rank_qq_and_mod_p(rows, prime)


def _any_size_koszul_ranks(m, f, prime):
    with mock.patch.object(rankmethods, "SCHUR_MIN_SIDE", 0):
        return koszul_ranks(m, f, prime)


@st.composite
def _koszul_cases(draw):
    """(map, F) on shape (a, n, n): F sums n - 1 to n + 2 rank-one terms, so tight or slack.

    With n - 1 terms every slice is singular; a zero first-mode coordinate
    leaves a slice singular among invertible ones.
    """
    a, n = draw(st.sampled_from((3, 4, 5))), draw(st.integers(2, 5))
    p = draw(st.integers(1, a - 1))
    rng = draw(st.randoms(use_true_random=False))
    f = [0] * (a * n * n)
    for _ in range(rng.randint(n - 1, n + 2)):
        u, v, w = ([rng.randint(-3, 3) for _ in range(k)] for k in (a, n, n))
        for i in range(a):
            for j in range(n):
                for l in range(n):
                    f[(i * n + j) * n + l] += u[i] * v[j] * w[l]
    return koszul_flattening((a, n, n), p), f


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_koszul_cases(), st.sampled_from((None, 2, 3, 5, DEFAULT_PRIME)))
def test_koszul_ranks_match_the_whole_elimination_and_sympy(case, prime):
    m, f = case
    (a, n, _), _ = m.koszul
    whole = _whole_ranks(m, f, prime)
    assert whole == _sympy_ranks(integer_image(m, f), prime)
    got = _any_size_koszul_ranks(m, f, prime)
    dets = _slice_dets(a, n, f)
    if not any(dets):
        assert got is None
    elif prime is None:
        # an invertible slice and no prime: the reduction always answers
        assert got == whole
    elif next(d for d in dets if d) % prime == 0:
        assert got is None
    else:
        # None only when the prime divides the Schur complement's last pivot
        assert got in (whole, None)


def _slices_to_f(slices):
    """The W-vector of F with F[i, j, l] = slices[i][j][l]."""
    return [x for sl in slices for row in sl for x in row]


def test_koszul_ranks_falls_back_when_the_prime_divides_the_slice_determinant():
    # F = e_0 (x) diag(1, 3): M(F) has two blocks diag(1, 3), so rank 4, and 2 mod 3
    m = koszul_flattening((3, 2, 2), 1)
    zero = [[0, 0], [0, 0]]
    f = _slices_to_f([[[1, 0], [0, 3]], zero, zero])
    assert _whole_ranks(m, f, 3) == (4, 2)
    assert _any_size_koszul_ranks(m, f, 3) is None
    assert _any_size_koszul_ranks(m, f, 5) == _whole_ranks(m, f, 5) == (4, 4)
    assert _any_size_koszul_ranks(m, f, None) == (4, None)


def test_koszul_ranks_passes_over_singular_slices():
    # the first two slices are singular and the third is not, so x = 2
    rng = random.Random(7)
    for a, n, p in ((3, 2, 1), (4, 3, 2), (5, 3, 2), (5, 4, 3)):
        m = koszul_flattening((a, n, n), p)
        for _ in range(5):
            terms = [([0, 0] + [rng.randint(-3, 3) or 1 for _ in range(a - 2)],
                      [rng.randint(-3, 3) for _ in range(n)],
                      [rng.randint(-3, 3) for _ in range(n)]) for _ in range(n)]
            terms.append(([1] + [0] * (a - 1), [1] + [0] * (n - 1), [1] + [0] * (n - 1)))
            f = [sum(u[i] * v[j] * w[l] for u, v, w in terms)
                 for i in range(a) for j in range(n) for l in range(n)]
            dets = _slice_dets(a, n, f)
            if dets[2] == 0:
                continue
            assert dets[:2] == [0, 0]
            for prime in (None, DEFAULT_PRIME):
                assert _any_size_koszul_ranks(m, f, prime) == _whole_ranks(m, f, prime)


def test_koszul_slice_screen_inverts_no_singular_slice():
    # the screen tests det K_i != 0 by a rank elimination; only the chosen
    # slice is solved through, by an elimination with relations, so F with
    # every slice singular solves nothing
    rng = random.Random(11)
    a, n = 4, 4
    terms = [[[rng.randint(-3, 3) for _ in range(k)] for k in (a, n, n)] for _ in range(n - 1)]
    f = [sum(u[i] * v[j] * w[l] for u, v, w in terms)
         for i in range(a) for j in range(n) for l in range(n)]
    assert not any(_slice_dets(a, n, f))
    m = koszul_flattening((a, n, n), 1)
    with mock.patch.object(rankmethods, "bareiss", wraps=rankmethods.bareiss) as solve:
        assert koszul_ranks(m, f, DEFAULT_PRIME) is None
    assert solve.call_count == 0


def test_koszul_ranks_reject_a_vector_of_the_wrong_length():
    # as `integer_image` does, before any slice is taken: a short F would
    # otherwise be ranked as the tensor its slices happen to cut out
    f = [random.Random(9).randint(-5, 5) for _ in range(65)]
    for m in (koszul_flattening((4, 4, 4), 1), flattening((4, 4, 4), (0,))):
        for vec in (f[:63], f):
            for prime in (None, DEFAULT_PRIME):
                for fn in (koszul_ranks, integer_image):
                    with pytest.raises(ValueError, match=f"vector length {len(vec)} does not "
                                                         "match W-dimension 64"):
                        fn(m, vec, prime)


def test_koszul_ranks_size_rule_and_the_maps_it_leaves_alone():
    rng = random.Random(3)

    def full(shape):
        return [rng.randint(-5, 5) for _ in range(math.prod(shape))]

    # M(F) at least 12 x 12: segre:4x4x4 and up take the reduction
    for shape, p in (((4, 4, 4), 1), ((4, 4, 4), 2), ((5, 5, 5), 1), ((5, 5, 5), 2)):
        m = koszul_flattening(shape, p)
        f = full(shape)
        assert koszul_ranks(m, f, DEFAULT_PRIME) == _whole_ranks(m, f, DEFAULT_PRIME)
    # smaller M(F), non-square slices, and every other map take the whole M(F)
    kmap = koszul_flattening((3, 3, 3), 1)
    entries = [0] * (kmap.w * kmap.a * kmap.b)
    for w, cells in kmap.cells.items():
        for i, j, c in cells:
            entries[(w * kmap.a + i) * kmap.b + j] = c
    custom = custom_map_from_tensor(DenseTensor((kmap.w, kmap.a, kmap.b), entries), "k.json")
    for m in (kmap, koszul_flattening((5, 5, 5), 4), koszul_flattening((4, 4, 5), 1),
              custom, flattening((5, 5, 5), (0,)), catalecticant(5, 3, 1)):
        assert koszul_ranks(m, full((m.w,)), DEFAULT_PRIME) is None
    assert _any_size_koszul_ranks(kmap, full((27,)), None) is not None
