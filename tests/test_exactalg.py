import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactusbarrier.exactalg import (
    DEFAULT_PRIME,
    FieldMismatchError,
    Matrix,
    Subspace,
    _echelon,
    _rank_int_bareiss,
    clear_denominators,
    first_relation,
    nullspace,
    rank,
    rank_of_rows,
    rank_qq_and_mod_p,
    sample_combination,
    solve_membership,
    span_sum,
    subspace_contains,
    subspace_from_vectors,
    subspaces_equal,
)
from cactusbarrier.fields import QQ, ZZ, PolyRing, PrimeField
from oracles import (
    fraction_sample_combination,
    rank_mod_p,
    reduced_echelon,
    rref_nullspace,
    rref_solve_membership,
)


def qvec(*xs):
    return [Fraction(x) for x in xs]


def test_rank_identity():
    assert rank(Matrix.identity(QQ, 3)) == 3


def test_rank_zero_matrix():
    assert rank(Matrix.zeros(QQ, 4, 2)) == 0


def test_rank_proportional_rows():
    assert rank(Matrix.from_rows(QQ, [[1, 2], [2, 4]])) == 1


def test_rank_rectangular_rational():
    m = Matrix.from_rows(QQ, [["1/2", "1/3", 0], [1, "2/3", 0], [0, 0, 5]])
    assert rank(m) == 2


def test_rank_mod_p():
    gf = PrimeField(7)
    m = Matrix.from_rows(gf, [[1, 2], [2, 4]])
    assert rank(m) == 1
    assert rank(Matrix.identity(gf, 4)) == 4
    # 7 divides the determinant of [[1,3],[3,2]] (= -7), so rank drops mod 7
    assert rank(Matrix.from_rows(gf, [[1, 3], [3, 2]])) == 1
    assert rank(Matrix.from_rows(QQ, [[1, 3], [3, 2]])) == 2


def test_rank_equals_rank_of_transpose():
    rng = random.Random(11)
    for _ in range(30):
        rows = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]]
        ncols = len(rows[0])
        for _ in range(rng.randint(0, 5)):
            rows.append([rng.randint(-9, 9) for _ in range(ncols)])
        m = Matrix.from_rows(QQ, rows)
        assert rank(m) == rank(m.transpose())


def test_rank_agreement_rational_vs_prime_field():
    # ranks over a large prime agree with rational ranks on almost all samples;
    # any disagreement must come from a bad prime, i.e. undershoot the QQ rank
    rng = random.Random(2024)
    gf = PrimeField(1_000_003)
    agree = total = 0
    for _ in range(120):
        n, m, r = rng.randint(2, 5), rng.randint(2, 5), rng.randint(1, 3)
        left = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(n)]
        right = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(r)]
        prod = [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(m)]
                for i in range(n)]
        rq = rank(Matrix.from_rows(QQ, prod))
        rp = rank(Matrix.from_rows(gf, prod))
        total += 1
        if rq == rp:
            agree += 1
        else:
            assert rp < rq
    assert agree / total >= 0.99


def test_nullspace():
    m = Matrix.from_rows(QQ, [[1, 2, 3], [2, 4, 6]])
    basis = nullspace(m)
    assert len(basis) == 2
    for v in basis:
        for row in m.rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_span_sum_dims():
    e1 = subspace_from_vectors(QQ, 3, [qvec(1, 0, 0)])
    e2 = subspace_from_vectors(QQ, 3, [qvec(0, 1, 0)])
    assert span_sum(e1, e2).dim == 2
    assert span_sum(e1, e1).dim == 1
    e12 = subspace_from_vectors(QQ, 3, [qvec(1, 0, 0), qvec(0, 1, 0)])
    diag = subspace_from_vectors(QQ, 3, [qvec(1, 1, 0)])
    assert span_sum(e12, diag).dim == 2


def test_span_sum_requires_matching_ambient():
    a = subspace_from_vectors(QQ, 2, [qvec(1, 0)])
    b = subspace_from_vectors(QQ, 3, [qvec(1, 0, 0)])
    with pytest.raises(ValueError):
        span_sum(a, b)
    gf = PrimeField(7)
    c = subspace_from_vectors(gf, 2, [[1, 0]])
    with pytest.raises(FieldMismatchError):
        span_sum(a, c)


def test_span_sum_commutative_associative():
    rng = random.Random(5)
    for _ in range(10):
        spaces = [
            subspace_from_vectors(
                QQ, 4, [qvec(*(rng.randint(-3, 3) for _ in range(4))) for _ in range(2)]
            )
            for _ in range(3)
        ]
        a, b, c = spaces
        assert subspaces_equal(span_sum(a, b), span_sum(b, a))
        assert subspaces_equal(span_sum(span_sum(a, b), c), span_sum(a, span_sum(b, c)))


def test_solve_membership_coordinates():
    s = subspace_from_vectors(QQ, 3, [qvec(1, 0, 0), qvec(0, 1, 0)])
    assert solve_membership(s, qvec(1, 1, 0)) == [1, 1]
    assert solve_membership(subspace_from_vectors(QQ, 2, [qvec(1, 0)]), qvec(0, 1)) is None
    scaled = subspace_from_vectors(QQ, 2, [qvec(2, 0)])
    assert solve_membership(scaled, qvec(1, 0)) == [Fraction(1, 2)]


def test_subspaces_equal_by_mutual_membership():
    a = subspace_from_vectors(QQ, 3, [qvec(1, 1, 0), qvec(1, -1, 0)])
    b = subspace_from_vectors(QQ, 3, [qvec(1, 0, 0), qvec(0, 1, 0)])
    assert subspaces_equal(a, b)
    c = subspace_from_vectors(QQ, 3, [qvec(1, 0, 0), qvec(0, 0, 1)])
    assert not subspaces_equal(a, c)


def test_membership_and_equality_on_a_dependent_basis():
    # a basis whose length overstates its dimension: the line x-axis
    s = Subspace(QQ, 2, [[1, 0], [2, 0]])
    plane = subspace_from_vectors(QQ, 2, [[1, 0], [0, 1]])
    assert subspace_contains(s, [1, 0])
    assert not subspace_contains(s, [0, 1])
    assert not subspaces_equal(s, plane) and not subspaces_equal(plane, s)
    assert subspaces_equal(s, subspace_from_vectors(QQ, 2, [[3, 0]]))


def test_rank_of_rows_prime_field_matches_default_prime():
    gf = PrimeField(DEFAULT_PRIME)
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert rank_of_rows(gf, rows) == 2
    assert rank_of_rows(QQ, [[Fraction(x) for x in r] for r in rows]) == 2


# -- sympy oracle for kernels and membership ---------------------------------

_ORACLE_FIELDS = [QQ, PrimeField(7), PrimeField(101), PrimeField(DEFAULT_PRIME)]


def _sympy_rank(field, rows, ncols) -> int:
    from sympy import GF
    from sympy import QQ as SQQ
    from sympy.polys.matrices import DomainMatrix

    if not rows:
        return 0
    if field == QQ:
        dom, conv = SQQ, lambda x: SQQ(x.numerator, x.denominator)
    else:
        dom = GF(field.p)
        conv = dom
    return DomainMatrix([[conv(x) for x in row] for row in rows],
                        (len(rows), ncols), dom).rank()


@st.composite
def _oracle_matrices(draw):
    """(field, rows, ncols): small, often tall, and often rank-deficient."""
    field = draw(st.sampled_from(_ORACLE_FIELDS))
    if field == QQ:
        entry = st.fractions(-3, 3, max_denominator=4)
    else:
        entry = st.one_of(st.integers(-3, 3), st.integers(0, field.p - 1)).map(field.of)
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(1, 7))
    free = draw(st.integers(1, nrows))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=free, max_size=free))
    while len(rows) < nrows:  # integer combinations of earlier rows
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        rows.append([field.of(sum(field.mul(field.of(c), r[j]) for c, r in zip(coeffs, rows)))
                     for j in range(ncols)])
    return field, draw(st.permutations(rows)), ncols


def _dot(field, a, b):
    acc = field.zero
    for x, y in zip(a, b):
        acc = field.add(acc, field.mul(x, y))
    return acc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_oracle_matrices())
def test_nullspace_matches_sympy(case):
    field, rows, ncols = case
    basis = nullspace(Matrix(field, rows))
    assert len(basis) == ncols - _sympy_rank(field, rows, ncols)
    assert _sympy_rank(field, basis, ncols) == len(basis)
    for v in basis:
        assert all(field.is_zero(_dot(field, row, v)) for row in rows)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_oracle_matrices(), st.data())
def test_solve_membership_matches_sympy(case, data):
    field, rows, ncols = case
    s = subspace_from_vectors(field, ncols, rows)
    if data.draw(st.booleans()):  # a combination of the rows
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        target = [_dot(field, [field.of(c) for c in coeffs], [r[j] for r in rows])
                  for j in range(ncols)]
    else:
        target = [field.of(x) for x in data.draw(
            st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))]
    x = solve_membership(s, target)
    inside = _sympy_rank(field, s.basis + [target], ncols) == _sympy_rank(field, s.basis, ncols)
    assert (x is not None) == inside
    if x is not None:
        assert len(x) == s.dim
        for j in range(ncols):
            assert field.is_zero(field.sub(_dot(field, x, [b[j] for b in s.basis]), target[j]))


def _types(vectors):
    return [[type(x) for x in v] for v in vectors]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_oracle_matrices())
def test_nullspace_equals_the_rref_oracle(case):
    field, rows, ncols = case
    basis = nullspace(Matrix(field, rows))
    expected = rref_nullspace(field, rows, ncols)
    assert basis == expected
    assert _types(basis) == _types(expected)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_oracle_matrices(), st.data())
def test_membership_equals_the_rref_oracle(case, data):
    field, rows, ncols = case
    if data.draw(st.booleans()):  # a combination of the rows
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        target = [_dot(field, [field.of(c) for c in coeffs], [r[j] for r in rows])
                  for j in range(ncols)]
    else:
        target = [field.of(x) for x in data.draw(
            st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))]
    s = subspace_from_vectors(field, ncols, rows)
    # on the raw rows, too: a basis vector that depends on earlier ones gets 0
    for basis in (s.basis, rows):
        x = solve_membership(Subspace(field, ncols, basis), target)
        expected = rref_solve_membership(field, basis, target)
        assert x == expected
        if x is not None:
            assert [type(c) for c in x] == [type(c) for c in expected]
        assert subspace_contains(Subspace(field, ncols, basis), target) == \
            reduced_echelon(field, basis, ncols).contains(target)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_oracle_matrices(), st.data())
def test_subspaces_equal_matches_mutual_membership(case, data):
    field, rows, ncols = case
    a = subspace_from_vectors(field, ncols, rows)
    kind = data.draw(st.sampled_from(["recombined", "one more", "random"]))
    if kind == "random":
        other = [[field.of(x) for x in data.draw(
            st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))]
            for _ in range(data.draw(st.integers(0, ncols)))]
    else:  # combinations of a's basis, then maybe one vector more
        other = [[_dot(field, [field.of(c) for c in data.draw(st.lists(
            st.integers(-2, 2), min_size=a.dim, max_size=a.dim))], [v[j] for v in a.basis])
            for j in range(ncols)] for _ in range(a.dim + 1)]
        if kind == "one more":
            other.append([field.of(x) for x in data.draw(
                st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))])
    ea = reduced_echelon(field, a.basis, ncols)
    # b's basis as spanned and as drawn, which may be dependent
    for basis in (subspace_from_vectors(field, ncols, other).basis, other):
        b = Subspace(field, ncols, basis)
        eb = reduced_echelon(field, basis, ncols)
        expected = all(ea.contains(v) for v in basis) and all(eb.contains(v) for v in a.basis)
        assert subspaces_equal(a, b) == subspaces_equal(b, a) == expected


def test_subspace_contains_rejects_a_vector_of_the_wrong_length():
    line = subspace_from_vectors(QQ, 3, [[1, 0, 0]])
    for s, v in ((line, [1]), (line, [1, 0, 0, 0]), (Subspace(QQ, 3, []), [0])):
        with pytest.raises(ValueError, match="vector length does not match ambient dimension"):
            subspace_contains(s, v)


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
    assert _rank_int_bareiss([row[:] for row in rows])[0] == expected
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
    rows, _ = case
    assert rank_of_rows(PrimeField(p), rows) == rank_mod_p(rows, p)


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
    assert expected[1] == _sympy_rank(PrimeField(p), [[x % p for x in row] for row in rows],
                                      ncols)
    assert rank_qq_and_mod_p(rows, p) == expected
    # the same rows over a denominator that p does not divide
    assert rank_qq_and_mod_p([clear_denominators([Fraction(x, 11) for x in row], p)
                              for row in rows], p) == expected
    # the last pivot is a nonzero minor: the determinant, on a square matrix of full rank
    r, minor = _rank_int_bareiss([row[:] for row in rows])
    assert minor != 0
    if r == len(rows) == ncols:
        assert abs(minor) == abs(SMatrix(rows).det())


def test_first_relation_pins():
    assert first_relation(QQ, [[1, 0], [0, 1]]) is None
    assert first_relation(QQ, []) is None
    assert first_relation(QQ, [[0, 0], [1, 2]]) == [1, 0]
    assert first_relation(QQ, [[1, 2], [2, 4]]) == [-2, 1]
    # rows 0, 1, 2 already depend; row 3 is never reached
    assert first_relation(QQ, [[1, 0], [0, 1], [1, 1], [5, 5]]) == [-1, -1, 1, 0]
    # Fraction rows: the primitive integer relation, last coefficient positive
    half = [Fraction(1, 2), Fraction(1, 3)]
    assert first_relation(QQ, [half, [3, 2]]) == [-6, 1]
    assert first_relation(QQ, [[3, 2], half]) == [-1, 6]
    assert first_relation(QQ, [[Fraction(2, 3), 1], [Fraction(1, 3), Fraction(1, 2)]]) == [-1, 2]
    # the gcd division keeps the combination primitive through several updates
    assert first_relation(QQ, [[2, 4, 0], [0, 6, 3], [2, 10, 3]]) == [-1, -1, 1]
    # over GF(7): row 1 is 3 * row 0, so the relation is (-3, 1) = (4, 1)
    assert first_relation(PrimeField(7), [[1, 2], [3, 6]]) == [4, 1]
    assert first_relation(PrimeField(7), [[2, 1], [1, 3], [3, 4]]) == [6, 6, 1]
    with pytest.raises(TypeError):
        first_relation(PolyRing(QQ), [[(1,)]])


def test_echelon_yields_every_dependent_row_with_its_relation():
    rows = [[1, 0], [2, 0], [0, 1], [1, 1], [0, 0]]
    # row 1 is dropped, so row 3's relation is on rows 0 and 2 only
    assert list(_echelon(QQ, rows)) == [
        (1, [-2, 1, 0, 0, 0]), (3, [-1, 0, -1, 1, 0]), (4, [0, 0, 0, 0, 1])]
    assert list(_echelon(PrimeField(7), rows)) == [
        (1, [5, 1, 0, 0, 0]), (3, [6, 0, 6, 1, 0]), (4, [0, 0, 0, 0, 1])]
    assert list(_echelon(QQ, rows, relations=False)) == [(1, None), (3, None), (4, None)]
    assert list(_echelon(QQ, [[Fraction(1, 2), 1], [1, 2], [3, 0]])) == [(1, [-2, 1, 0])]
    with pytest.raises(TypeError):
        next(_echelon(PolyRing(QQ), [[(1,)]]))


@st.composite
def _relation_cases(draw):
    """(field, rows, ncols) over QQ (ints and Fractions) or GF(q) for small q.

    Rows are drawn one at a time as free, zero, repeated or combined from
    earlier rows, in tall and wide shapes.
    """
    q = draw(st.sampled_from([None, 2, 3, 5, 7]))
    field = QQ if q is None else PrimeField(q)
    if q is None:
        entry = st.one_of(st.integers(-9, 9), st.fractions(-3, 3, max_denominator=6))
    else:
        entry = st.integers(0, q - 1)
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
            rows.append([field.of(sum(c * r[j] for c, r in zip(coeffs, rows)))
                         for j in range(ncols)])
    return field, rows, ncols


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_relation_cases())
def test_first_relation_matches_the_kernel_of_the_first_dependent_prefix(case):
    field, rows, ncols = case
    rel = first_relation(field, rows)
    if rel is None:
        assert _sympy_rank(field, rows, ncols) == len(rows)
        return
    assert _sympy_rank(field, rows, ncols) < len(rows)
    i = next(k for k in range(len(rows)) if _sympy_rank(field, rows[:k + 1], ncols) == k)
    assert len(rel) == len(rows)
    assert rel[i] and not any(rel[i + 1:])
    for j in range(ncols):
        assert field.is_zero(field.of(sum(c * row[j] for c, row in zip(rel, rows))))
    prefix = [[field.of(x) for x in col] for col in zip(*rows[:i + 1])]
    kernel = rref_nullspace(field, prefix, i + 1)[0]
    if field == QQ:
        kernel = clear_denominators(kernel)
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
    # PrimeField.of raises the same error for the same entry
    with pytest.raises(ZeroDivisionError, match="of -3/4 vanishes mod 2"):
        PrimeField(2).of(Fraction(-3, 4))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32),
       st.data())
def test_sample_combination_matches_fraction_sums(n, count, bound, seed, data):
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-5, 5, max_denominator=12))
    vectors = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                 min_size=count, max_size=count))
    if data.draw(st.booleans()):  # a dependent pair, so that some draws vanish
        vectors.append([-x for x in vectors[0]])
    # over ZZ (int vectors, as the barrier check samples) the reference sums
    # the same ints as rationals, and the combination stays all-int
    for field in (QQ, ZZ, PrimeField(101)):
        vecs = vectors if field == QQ else [[x.numerator for x in v] for v in vectors]
        ref_field = QQ if field == ZZ else field
        new, ref = random.Random(seed), random.Random(seed)
        try:
            expected = fraction_sample_combination(ref_field, vecs, bound, ref)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                sample_combination(field, vecs, bound, new)
        else:
            coeffs, f = sample_combination(field, vecs, bound, new)
            assert (coeffs, f) == expected
            if field == ZZ:
                assert all(type(x) is int for x in f)
            else:
                assert all(type(x) is type(y) for x, y in zip(f, expected[1]))
        assert new.getstate() == ref.getstate()
