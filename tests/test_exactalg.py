import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cactusbarrier.exactalg as exactalg
from cactusbarrier.exactalg import (
    DEFAULT_PRIME,
    Matrix,
    bareiss,
    clear_denominators,
    common_denominator,
    first_relation,
    nullspace,
    rank,
    rank_and_minor,
    rank_of_rows,
    rank_qq_and_mod_p,
    sample_combination,
    subspace_from_vectors,
)
from cactusbarrier.fields import POLY, QQ, is_probable_prime
from oracles import (
    Scalars,
    fraction_sample_combination,
    in_span,
    rank_mod_p,
    reduced_echelon,
    rref_nullspace,
    rref_solve_membership,
    same_span,
)


def _of(field, x):
    return Scalars(field).of(x)


def mat(field, rows):
    return Matrix(field, [[_of(field, x) for x in row] for row in rows])


def identity(field, n):
    return Matrix(field, [[_of(field, int(i == j)) for j in range(n)] for i in range(n)])


def test_rank_identity():
    assert rank(identity(QQ, 3)) == 3


def test_rank_zero_matrix():
    assert rank(mat(QQ, [[0, 0]] * 4)) == 0


def test_rank_proportional_rows():
    assert rank(mat(QQ, [[1, 2], [2, 4]])) == 1


def test_rank_rectangular_rational():
    m = mat(QQ, [["1/2", "1/3", 0], [1, "2/3", 0], [0, 0, 5]])
    assert rank(m) == 2


def test_rank_mod_p():
    # a prime is an int: `exactalg.rank_mod_p` reduces int rows mod it
    assert exactalg.rank_mod_p([[1, 2], [2, 4]], 7) == 1
    assert exactalg.rank_mod_p([[int(i == j) for j in range(4)] for i in range(4)], 7) == 4
    # 7 divides the determinant of [[1,3],[3,2]] (= -7), so rank drops mod 7
    assert exactalg.rank_mod_p([[1, 3], [3, 2]], 7) == 1
    assert rank(mat(QQ, [[1, 3], [3, 2]])) == 2
    assert exactalg.rank_mod_p([[8, 6], [1, 0]], 7) == 2
    assert exactalg.rank_mod_p([], 7) == exactalg.rank_mod_p([[], []], 7) == 0
    with pytest.raises(ValueError, match="modulus 6 is not prime"):
        exactalg.rank_mod_p([[1, 3], [3, 2]], 6)


def test_rank_equals_rank_of_transpose():
    rng = random.Random(11)
    for _ in range(30):
        rows = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]]
        ncols = len(rows[0])
        for _ in range(rng.randint(0, 5)):
            rows.append([rng.randint(-9, 9) for _ in range(ncols)])
        m = mat(QQ, rows)
        assert rank(m) == rank(Matrix(QQ, [list(col) for col in zip(*m.rows)]))


def test_rank_agreement_rational_vs_prime_field():
    # ranks over a large prime agree with rational ranks on almost all samples;
    # any disagreement must come from a bad prime, i.e. undershoot the QQ rank
    rng = random.Random(2024)
    agree = total = 0
    for _ in range(120):
        n, m, r = rng.randint(2, 5), rng.randint(2, 5), rng.randint(1, 3)
        left = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(n)]
        right = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(r)]
        prod = [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(m)]
                for i in range(n)]
        rq = rank(mat(QQ, prod))
        rp = exactalg.rank_mod_p(prod, 1_000_003)
        total += 1
        if rq == rp:
            agree += 1
        else:
            assert rp < rq
    assert agree / total >= 0.99


def test_nullspace():
    m = mat(QQ, [[1, 2, 3], [2, 4, 6]])
    basis = nullspace(m)
    assert len(basis) == 2
    for v in basis:
        for row in m.rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_rank_of_rows_and_nullspace_take_only_their_own_fields():
    # rank_of_rows ranks over QQ or QQ[t]; a prime goes to rank_mod_p, and kernels are over QQ
    assert rank_of_rows(POLY, [[(0, 1), (1,)], [(1,), (0, 0, 1)]]) == 2
    with pytest.raises(TypeError, match="no rank routine for 7"):
        rank_of_rows(7, [[1]])
    with pytest.raises(TypeError, match=r"no kernel over QQ\[t\]"):
        nullspace(Matrix(POLY, [[(1,)]]))


def test_rank_of_rows_prime_field_matches_default_prime():
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert exactalg.rank_mod_p(rows, DEFAULT_PRIME) == 2
    assert rank_of_rows(QQ, [[Fraction(x) for x in r] for r in rows]) == 2


# -- sympy oracle for kernels and membership ---------------------------------

_ORACLE_FIELDS = [QQ, 7, 101, DEFAULT_PRIME]  # QQ or a prime


def _sympy_rank(field, rows, ncols) -> int:
    from sympy import GF
    from sympy import QQ as SQQ
    from sympy.polys.matrices import DomainMatrix

    if not rows:
        return 0
    if field == QQ:
        dom, conv = SQQ, lambda x: SQQ(x.numerator, x.denominator)
    else:
        dom = GF(field)
        conv = dom
    return DomainMatrix([[conv(x) for x in row] for row in rows],
                        (len(rows), ncols), dom).rank()


@st.composite
def _oracle_matrices(draw, fields=_ORACLE_FIELDS):
    """(field, rows, ncols) over one of `fields`: small, often tall, and often rank-deficient."""
    field = draw(st.sampled_from(fields))
    if field == QQ:
        entry = st.fractions(-3, 3, max_denominator=4)
    else:
        entry = st.one_of(st.integers(-3, 3), st.integers(0, field - 1)).map(Scalars(field).of)
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(1, 7))
    free = draw(st.integers(1, nrows))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=free, max_size=free))
    while len(rows) < nrows:  # integer combinations of earlier rows
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        rows.append([_of(field, sum(c * r[j] for c, r in zip(coeffs, rows)))
                     for j in range(ncols)])
    return field, draw(st.permutations(rows)), ncols


def _dot(field, a, b):
    f = Scalars(field)
    acc = f.zero
    for x, y in zip(a, b):
        acc = f.add(acc, f.mul(x, y))
    return acc


# kernels are over QQ only; GF(p) gives ranks only
@settings(max_examples=200, deadline=None, derandomize=True)
@given(_oracle_matrices([QQ]))
def test_nullspace_matches_sympy(case):
    field, rows, ncols = case
    basis = nullspace(Matrix(field, rows))
    assert len(basis) == ncols - _sympy_rank(field, rows, ncols)
    assert _sympy_rank(field, basis, ncols) == len(basis)
    for v in basis:
        assert all(not _dot(field, row, v) for row in rows)


# spans are built over QQ only; the oracles below serve the span assertions
@settings(max_examples=200, deadline=None, derandomize=True)
@given(_oracle_matrices([QQ]), st.data())
def test_in_span_oracle_matches_sympy(case, data):
    # the membership oracle that span assertions in other tests rest on
    field, rows, ncols = case
    s = subspace_from_vectors(ncols, rows)
    assert s.dim == _sympy_rank(field, rows, ncols)
    if data.draw(st.booleans()):  # a combination of the rows
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        target = [_dot(field, [_of(field, c) for c in coeffs], [r[j] for r in rows])
                  for j in range(ncols)]
    else:
        target = [_of(field, x) for x in data.draw(
            st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))]
    inside = _sympy_rank(field, rows + [target], ncols) == _sympy_rank(field, rows, ncols)
    # on the span's basis and on the raw rows, which may be dependent
    for basis in (s.basis, rows):
        assert in_span(field, basis, target) == inside
        x = rref_solve_membership(field, basis, target)
        if x is not None:
            assert len(x) == len(basis)
            for j in range(ncols):
                assert _dot(field, x, [b[j] for b in basis]) == target[j]


def _types(vectors):
    return [[type(x) for x in v] for v in vectors]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_oracle_matrices([QQ]))
def test_nullspace_equals_the_rref_oracle(case):
    field, rows, ncols = case
    basis = nullspace(Matrix(field, rows))
    expected = rref_nullspace(field, rows, ncols)
    assert basis == expected
    assert _types(basis) == _types(expected)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_oracle_matrices([QQ]), st.data())
def test_same_span_oracle_matches_sympy(case, data):
    field, rows, ncols = case
    a = subspace_from_vectors(ncols, rows)
    kind = data.draw(st.sampled_from(["recombined", "one more", "random"]))
    if kind == "random":
        other = [[_of(field, x) for x in data.draw(
            st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))]
            for _ in range(data.draw(st.integers(0, ncols)))]
    else:  # combinations of a's basis, then maybe one vector more
        other = [[_dot(field, [_of(field, c) for c in data.draw(st.lists(
            st.integers(-2, 2), min_size=a.dim, max_size=a.dim))], [v[j] for v in a.basis])
            for j in range(ncols)] for _ in range(a.dim + 1)]
        if kind == "one more":
            other.append([_of(field, x) for x in data.draw(
                st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))])
    ra = _sympy_rank(field, a.basis, ncols)
    # the other side's basis as spanned and as drawn, which may be dependent
    for basis in (subspace_from_vectors(ncols, other).basis, other):
        expected = ra == _sympy_rank(field, basis, ncols) == _sympy_rank(field, a.basis + basis,
                                                                         ncols)
        assert same_span(field, a.basis, basis) == same_span(field, basis, a.basis) == expected


def test_subspace_from_vectors_rejects_a_vector_of_the_wrong_length():
    # after an independent vector, short and long, and as the first vector;
    # then read before the span is full: after a dependent vector, after two
    # independent ones, and a long vector whose first entries would fill it
    for vectors in ([[1, 0, 0], [1]], [[1, 0, 0], [1, 0, 0, 0]], [[0]],
                    [[1, 0, 0], [2, 0, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [1]],
                    [[1, 0, 0], [0, 1, 0], [0, 0, 1, 0]]):
        with pytest.raises(ValueError, match="vector length does not match ambient dimension"):
            subspace_from_vectors(3, vectors)


def test_subspace_from_vectors_stops_reading_once_the_span_is_full():
    # a span equal to its ambient space cannot grow: the vector that fills it
    # is the last one read, and nothing after it is length-checked
    def then_fail(vectors):
        yield from vectors
        raise AssertionError("read past the vector that fills the space")

    for vectors, basis in (([[1, 0], [0, 1]], [[1, 0], [0, 1]]),
                           ([[0, 0], [2, 4], [1, 2], [0, 3]], [[2, 4], [0, 3]]),
                           ([[Fraction(1, 2), 1], [1, Fraction(1, 3)]],
                            [[Fraction(1, 2), 1], [1, Fraction(1, 3)]])):
        assert subspace_from_vectors(2, then_fail(vectors)).basis == basis
    full = subspace_from_vectors(2, [[1, 1], [1, -1], [1], [0, 0, 0]])
    assert full.basis == [[1, 1], [1, -1]]
    with pytest.raises(AssertionError, match="read past"):  # a span short of full reads on
        subspace_from_vectors(2, then_fail([[1, 1], [2, 2]]))


# -- integer rows: Bareiss against sympy, denominator clearing, sampling ------

@st.composite
def _int_matrices(draw):
    """Integer rows, often sparse and rank-deficient, with zero rows and columns."""
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**6, 10**6))
    ncols = draw(st.integers(1, 8))
    nrows = draw(st.integers(1, 8))
    free = draw(st.integers(0, nrows))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=free, max_size=free))
    while len(rows) < nrows:  # zero rows when there is nothing to combine
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
    for j in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    return draw(st.permutations(rows)), ncols


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_int_matrices())
def test_integer_bareiss_matches_sympy(case):
    rows, ncols = case
    expected = _sympy_rank(QQ, [[Fraction(x) for x in row] for row in rows], ncols)
    # the kernel's pivot count on the rows as they are, and on the side with fewer rows
    assert bareiss([row[:] for row in rows])[0] == expected
    assert rank_and_minor(rows)[0] == expected
    assert rank_of_rows(QQ, rows) == expected
    # the same rows as Fractions with a common denominator per row
    scaled = [[Fraction(x, 6 * (i + 1)) for x in row] for i, row in enumerate(rows)]
    assert rank_of_rows(QQ, scaled) == expected


@st.composite
def _wide_matrices(draw):
    """(kind, m x n integer rows with n > 2m), for the prefix rule of `rank_of_rows`.

    "prefix": the first 2m columns have rank k < m (all zero at k = 0), and a
    nonzero diagonal in columns 2m..3m-1 gives the whole matrix rank m;
    "deficient": one row is a combination of the others; "zero": one or more
    rows are zero; "random": no structure, so almost always rank m.
    """
    kind = draw(st.sampled_from(("prefix", "deficient", "zero", "random")))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(3 * m if kind == "prefix" else 2 * m + 1, 3 * m + 8))
    entry = st.one_of(st.integers(-9, 9), st.integers(-10**6, 10**6))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))

    def combination(src):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(src), max_size=len(src)))
        return [sum(c * r[j] for c, r in zip(coeffs, src)) for j in range(n)]

    if kind == "prefix":
        k = draw(st.integers(0, m - 1))
        for i in range(m):
            if i >= k:
                rows[i][:2 * m] = combination(rows[:k])[:2 * m]
            rows[i][2 * m:3 * m] = [0] * m
            rows[i][2 * m + i] = draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1)))
    elif kind == "deficient":
        rows[-1] = combination(rows[:-1])
    elif kind == "zero":
        for i in draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)):
            rows[i] = [0] * n
    return kind, draw(st.permutations(rows))


def _oracle_rank(rows, ncols) -> int:
    return len(reduced_echelon(QQ, [[Fraction(x) for x in row[:ncols]] for row in rows],
                               ncols).rows)


# Over QQ, m rows of more than 2m columns are ranked on the first 2m columns
# first, and rank m there is the answer. Mutants that return the prefix rank
# unconditionally ("prefix" cases) or accept rank m - 1 from the prefix
# ("deficient" and "zero" cases) fail here.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_wide_matrices())
def test_wide_rank_rule_matches_the_rref_oracle(case):
    kind, rows = case
    m, n = len(rows), len(rows[0])
    assert n > 2 * m
    expected = _oracle_rank(rows, n)
    if kind == "prefix":
        assert _oracle_rank(rows, 2 * m) < expected == m
    elif kind != "random":
        assert expected < m
    before = [row[:] for row in rows]
    assert rank_of_rows(QQ, rows) == expected
    assert rows == before
    scaled = [[Fraction(x, 6 * (i + 1)) for x in row] for i, row in enumerate(rows)]
    assert rank_of_rows(QQ, scaled) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_int_matrices(), st.sampled_from([2, 3, 5, 7, 101, DEFAULT_PRIME]))
def test_rank_over_a_prime_field_matches_elimination_mod_p(case, p):
    rows, ncols = case
    expected = rank_mod_p(rows, p)
    assert exactalg.rank_mod_p(rows, p) == expected
    assert expected == _sympy_rank(p, [[x % p for x in row] for row in rows], ncols)


_SMALL_PRIMES = [q for q in range(2, 100) if is_probable_prime(q)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_int_matrices())
def test_rank_qq_and_mod_p_ranks_again_mod_a_prime_that_divides_the_minor(case):
    # the prime is chosen to divide the last Bareiss pivot, so the one-elimination
    # answer cannot stand and `rank_mod_p` ranks the rows again
    rows, ncols = case
    minor = rank_and_minor(rows)[1]
    p = next((q for q in _SMALL_PRIMES if minor % q == 0), None)
    assume(p is not None)
    calls = []
    real = exactalg.rank_mod_p

    def spy(r, q):
        calls.append(q)
        return real(r, q)

    with mock.patch.object(exactalg, "rank_mod_p", spy):
        got = rank_qq_and_mod_p(rows, p)
    assert calls == [p]
    assert got == (_sympy_rank(QQ, [[Fraction(x) for x in row] for row in rows], ncols),
                   _sympy_rank(p, [[x % p for x in row] for row in rows], ncols))
    assert got[1] == rank_mod_p(rows, p)


def test_rank_qq_and_mod_p_pins():
    p = 7
    assert rank_qq_and_mod_p([[p]], p) == (1, 0)
    # the first pivot p vanishes mod p, so the rows are ranked again mod p
    assert rank_qq_and_mod_p([[p], [1]], p) == (1, 1)
    # the first pivot is 1; the last, the minor p, vanishes mod p
    assert rank_qq_and_mod_p([[1, 0], [0, p]], p) == (2, 1)
    # rational rows are cleared first, each by its own denominator
    assert rank_qq_and_mod_p([clear_denominators(row, p) for row in
                              [[Fraction(1, 3), 2], [1, 6]]], p) == (1, 1)
    assert rank_qq_and_mod_p([], p) == (0, 0)
    assert rank_qq_and_mod_p([[0, 0]], p) == (0, 0)
    with pytest.raises(ZeroDivisionError, match="vanishes mod 7"):
        clear_denominators([Fraction(1, 14), 1], p)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_int_matrices(), st.sampled_from([2, 3, 5, 7]))
def test_rank_qq_and_mod_p_matches_sympy_and_elimination_mod_p(case, p):
    from sympy import Matrix as SMatrix

    rows, ncols = case
    expected = (_sympy_rank(QQ, [[Fraction(x) for x in row] for row in rows], ncols),
                rank_mod_p(rows, p))
    assert expected[1] == _sympy_rank(p, [[x % p for x in row] for row in rows], ncols)
    assert rank_qq_and_mod_p(rows, p) == expected
    # the same rows over a denominator that p does not divide
    assert rank_qq_and_mod_p([clear_denominators([Fraction(x, 11) for x in row], p)
                              for row in rows], p) == expected
    # the last pivot is a nonzero minor: the determinant, on a square matrix of full rank
    r, minor = bareiss([row[:] for row in rows])[:2]
    assert minor != 0
    if r == len(rows) == ncols:
        assert abs(minor) == abs(SMatrix(rows).det())


@st.composite
def _shaped_int_matrices(draw):
    """Tall, wide or square int rows of a drawn rank: a product of an m x r and an r x n matrix."""
    shape = draw(st.sampled_from(["tall", "wide", "square"]))
    short = draw(st.integers(1, 6))
    long = short if shape == "square" else short + draw(st.integers(1, 4))
    m, n = (long, short) if shape == "tall" else (short, long)
    r = draw(st.integers(0, min(m, n)))
    entry = st.one_of(st.integers(-3, 3), st.integers(-10**4, 10**4))
    left = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if r else [0] * n
            for row in left]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_shaped_int_matrices(), st.sampled_from([2, 3, 5, 7, DEFAULT_PRIME]))
def test_rank_qq_and_mod_p_eliminates_the_side_with_fewer_rows(rows, p):
    # tall rows are eliminated as their transpose, wide and square ones as
    # they are, over QQ and, when p divides the minor, mod p
    m, n = len(rows), len(rows[0])
    expected = (_sympy_rank(QQ, [[Fraction(x) for x in row] for row in rows], n),
                rank_mod_p(rows, p))
    seen = []
    real = exactalg.bareiss

    def spy(a, *args, **kwargs):
        seen.append([row[:] for row in a])
        return real(a, *args, **kwargs)

    with mock.patch.object(exactalg, "bareiss", spy):
        assert rank_qq_and_mod_p(rows, p) == expected
    assert seen[0] == ([list(c) for c in zip(*rows)] if m > n else rows)
    assert all(len(a) == min(m, n) for a in seen)


def test_first_relation_pins():
    assert first_relation([[1, 0], [0, 1]]) is None
    assert first_relation([]) is None
    # a row of zeros, of no entries or of two, depends on the (no) rows before it
    assert first_relation([[]]) == first_relation([[0, 0]]) == [1]
    assert first_relation([[0, 0], [1, 2]]) == [1, 0]
    assert first_relation([[1, 2], [2, 4]]) == [-2, 1]
    # rows 0, 1, 2 already depend; row 3 is never reached
    assert first_relation([[1, 0], [0, 1], [1, 1], [5, 5]]) == [-1, -1, 1, 0]
    # Fraction rows: the primitive integer relation, last coefficient positive
    half = [Fraction(1, 2), Fraction(1, 3)]
    assert first_relation([half, [3, 2]]) == [-6, 1]
    assert first_relation([[3, 2], half]) == [-1, 6]
    assert first_relation([[Fraction(2, 3), 1], [Fraction(1, 3), Fraction(1, 2)]]) == [-1, 2]
    # the gcd division keeps the combination primitive through several updates
    assert first_relation([[2, 4, 0], [0, 6, 3], [2, 10, 3]]) == [-1, -1, 1]


def test_edge_pins():
    # no columns: an empty kernel; no rows or no columns: rank 0 and the empty minor 1
    assert nullspace(Matrix(QQ, [[], []])) == nullspace(Matrix(QQ, [])) == []
    assert rank_and_minor([]) == rank_and_minor([[]]) == (0, 1)


def test_bareiss_lists_every_dependent_column_with_its_relation():
    # the columns of m are the rows [1, 0], [2, 0], [0, 1], [1, 1], [0, 0]:
    # column 1 is 2 * column 0, column 3 is columns 0 + 2, column 4 is zero
    m = [[1, 2, 0, 1, 0], [0, 0, 1, 1, 0]]
    assert bareiss([row[:] for row in m], 5, relations=True) == (2, 1, [
        (1, [2, -1, 0, 0, 0]), (3, [1, 0, 1, -1, 0]), (4, [0, 0, 0, 0, -1])])
    # the scan stops at the first one, with the rank and pivot before it
    assert bareiss([row[:] for row in m], 5, relations=True, first=True) == (1, 1, [
        (1, [2, -1, 0, 0, 0])])
    # without relations, at full row rank; mod a prime q only ranks are asked for
    assert bareiss([row[:] for row in m], 5) == bareiss([row[:] for row in m], 5, q=7) == (2, 1, [])
    # the columns [1, 3], [3, 2], [8, 3]: the minor -7 makes column 2
    # dependent over QQ only past full rank, with the relation 7 * (1, 3) -
    # 21 * (3, 2) + 7 * (8, 3) = 0; mod 7 (8 is 1) the rank is 1
    m = [[1, 3, 8], [3, 2, 3]]
    assert bareiss([row[:] for row in m], 3, relations=True) == (2, -7, [(2, [7, -21, 7])])
    assert bareiss([row[:] for row in m], 3) == (2, -7, [])
    assert bareiss([[x % 7 for x in row] for row in m], 3, q=7) == (1, 1, [])
    # a pivot row that a skipped row reaches at a lower level: row 1 is zero
    # at column 0, so it enters column 1 at level 1 and is rescaled by 2
    assert bareiss([[2, 1, 1], [0, 1, 1]], 3, relations=True) == (2, 2, [(2, [0, 2, -2])])


@st.composite
def _kernel_cases(draw):
    """Tall, wide or square int rows of a drawn rank, with up to two zero columns."""
    shape = draw(st.sampled_from(["tall", "wide", "square"]))
    short = draw(st.integers(1, 5))
    long = short if shape == "square" else short + draw(st.integers(1, 3))
    m, n = (long, short) if shape == "tall" else (short, long)
    r = draw(st.integers(0, min(m, n)))
    entry = st.one_of(st.integers(-3, 3), st.integers(-10**4, 10**4))
    left = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        for row in right:
            row[j] = 0
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


def _primitive(c, j):
    g = math.gcd(*c)
    return [x // g if c[j] > 0 else -x // g for x in c]


# The one elimination against integer arithmetic, sympy and the mod-p
# oracle: relations, ranks over QQ and mod q, and the solve of the Koszul
# slice reduction.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(_kernel_cases(), st.data())
def test_bareiss_matches_the_oracles(rows, data):
    from sympy import Matrix as SMatrix

    m, n = len(rows), len(rows[0])
    rank, _, dependent = bareiss([row[:] for row in rows], n, relations=True)
    assert rank == SMatrix(rows).rank() and len(dependent) == n - rank
    columns = [j for j, _ in dependent]
    if dependent:
        # the scan that stops at the first dependent column j has the j
        # pivots before it, and its last pivot is -c_j
        j, c = dependent[0]
        before, d, first = bareiss([row[:] for row in rows], n, relations=True, first=True)
        assert (before, first) == (j, [(j, c)]) and c[j] == -d
    for j, c in dependent:
        # M c = 0, c_j != 0, and 0 past j and at the other dependent columns
        assert all(sum(x * y for x, y in zip(row, c)) == 0 for row in rows)
        assert c[j] and not any(c[j + 1:]) and not any(c[i] for i in columns if i != j)
        # the one relation on column j and the pivot columns before it
        support = [i for i in range(j) if i not in columns] + [j]
        kernel = SMatrix([[row[i] for i in support] for row in rows]).nullspace()
        assert len(kernel) == 1
        den = math.lcm(*[x.q for x in kernel[0]])
        cleared = [int(x * den) for x in kernel[0]]
        assert [_primitive(c, j)[i] for i in support] == _primitive(cleared, len(support) - 1)
    # the pivot count mod q against the oracle, and over QQ in rank order
    for q in (2, 3, 7, DEFAULT_PRIME):
        assert bareiss([[x % q for x in row] for row in rows], q=q)[0] == rank_mod_p(rows, q)
    assert bareiss([row[:] for row in rows])[0] == rank
    # the solve: for an invertible g, the relations of [g | rhs] past g's
    # columns are X with g X = d rhs, |d| = |det g|
    g = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=m, max_size=m),
                           min_size=m, max_size=m))
    det = SMatrix(g).det()
    assume(det != 0)
    w = [gr + row for gr, row in zip(g, rows)]
    _, d, solved = bareiss(w, m + n, relations=True)
    x = [c[:m] for _, c in solved]
    assert [j for j, _ in solved] == list(range(m, m + n)) and abs(d) == abs(det)
    assert all(sum(g[i][t] * col[t] for t in range(m)) == d * rows[i][j]
               for j, col in enumerate(x) for i in range(m))


@st.composite
def _relation_cases(draw):
    """(QQ, rows, ncols), rows of ints and Fractions.

    Rows are drawn one at a time as free, zero, repeated or combined from
    earlier rows, in tall and wide shapes.
    """
    field = QQ
    entry = st.one_of(st.integers(-9, 9), st.fractions(-3, 3, max_denominator=6))
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 8))
    rows = []
    while len(rows) < nrows:
        kind = draw(st.sampled_from(["free", "zero", "repeat", "combination"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "free" or not rows:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            rows.append([_of(field, sum(c * r[j] for c, r in zip(coeffs, rows)))
                         for j in range(ncols)])
    return field, rows, ncols


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_relation_cases())
def test_first_relation_matches_the_kernel_of_the_first_dependent_prefix(case):
    field, rows, ncols = case
    rel = first_relation(rows)
    if rel is None:
        assert _sympy_rank(field, rows, ncols) == len(rows)
        return
    assert _sympy_rank(field, rows, ncols) < len(rows)
    i = next(k for k in range(len(rows)) if _sympy_rank(field, rows[:k + 1], ncols) == k)
    assert len(rel) == len(rows)
    assert rel[i] and not any(rel[i + 1:])
    for j in range(ncols):
        assert not _of(field, sum(c * row[j] for c, row in zip(rel, rows)))
    prefix = [[_of(field, x) for x in col] for col in zip(*rows[:i + 1])]
    kernel = clear_denominators(rref_nullspace(field, prefix, i + 1)[0])
    assert all(type(c) is int for c in rel)
    assert rel[:i + 1] == kernel


def test_clear_denominators_and_prime_check():
    row = [Fraction(1, 3), Fraction(-3, 4), 2, Fraction(0)]
    assert clear_denominators(row) == [4, -9, 24, 0]
    assert clear_denominators([3, -1]) == [3, -1]
    assert clear_denominators(row, 5) == [4, -9, 24, 0]
    with pytest.raises(ZeroDivisionError, match="of -3/4 vanishes mod 2"):
        clear_denominators(row, 2)
    with pytest.raises(ZeroDivisionError, match="of 1/3 vanishes mod 3"):
        clear_denominators(row, 3)
    # common_denominator decides it for every caller, naming the first such entry
    with pytest.raises(ZeroDivisionError, match="of -3/4 vanishes mod 2"):
        common_denominator([Fraction(1, 3), Fraction(-3, 4), Fraction(1, 6)], 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32),
       st.data())
def test_sample_combination_matches_fraction_sums(n, count, bound, seed, data):
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-5, 5, max_denominator=12))
    vectors = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                 min_size=count, max_size=count))
    if data.draw(st.booleans()):  # a dependent pair, so that some draws vanish
        vectors.append([-x for x in vectors[0]])
    # on int vectors (as the barrier check samples) the reference sums the
    # same ints as rationals, and the combination stays all-int
    for vecs, kind in ((vectors, Fraction), ([[x.numerator for x in v] for v in vectors], int)):
        new, ref = random.Random(seed), random.Random(seed)
        try:
            expected = fraction_sample_combination(QQ, vecs, bound, ref)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                sample_combination(vecs, bound, new)
        else:
            coeffs, f = sample_combination(vecs, bound, new)
            assert (coeffs, f) == expected
            assert all(type(x) is kind for x in f)
        assert new.getstate() == ref.getstate()
