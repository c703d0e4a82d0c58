from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactusbarrier.exactalg import rank_mod_p
from cactusbarrier.fields import POLY, QQ, PolyRing, is_probable_prime

from oracles import SchoolbookPolyRing


def test_primality():
    assert is_probable_prime(2)
    assert is_probable_prime(2**31 - 1)
    assert is_probable_prime(1_000_003)
    assert not is_probable_prime(1)
    assert not is_probable_prime(2**31)
    assert not is_probable_prime(3 * 5 * 7)


def test_rational_field_basics():
    # QQ is a marker: no arithmetic and no element constructor
    assert repr(QQ) == "QQ"
    assert not hasattr(QQ, "of") and not hasattr(QQ, "zero")


def test_polyring_over_prime_field():
    # a prime only screens ranks: there is no polynomial ring over GF(p)
    with pytest.raises(TypeError, match=r"no polynomial ring over 101"):
        PolyRing(101)


def test_jets_over_integers_match_rationals():
    # int coefficients stay ints: products sum from int 0
    R = PolyRing(QQ)
    a, b = (2, -1, 3), R.from_coeffs([2, -1, 3])
    assert R.mul(R.mul(a, a), a) == R.mul(R.mul(b, b), b)
    assert all(type(c) is int for c in R.mul(a, a))


def test_prime_field_arithmetic():
    # a prime is an int; the one mod-p routine refuses a composite modulus
    assert rank_mod_p([[1, 2], [3, 6]], 7) == 1
    with pytest.raises(ValueError, match="modulus 6 is not prime"):
        rank_mod_p([[1]], 6)


def test_field_identity():
    assert QQ == QQ and hash(QQ) == hash(QQ)
    assert PolyRing(QQ) == PolyRing(QQ) == POLY and hash(PolyRing(QQ)) == hash(POLY)
    assert QQ != 7 and QQ != POLY


def test_polyring_arithmetic():
    R = POLY
    t = R.t()
    one = R.one
    p = R.add(one, t)                      # 1 + t
    q = R.mul(p, p)                        # 1 + 2t + t^2
    assert q == (Fraction(1), Fraction(2), Fraction(1))
    assert R.add(q, R.scale(Fraction(-1), q)) == ()
    assert q[1] == 2
    assert len(q) - 1 == 2                 # the degree
    assert R.valuation(R.mul(t, q)) == 1
    assert R.mul(t, q)[1:] == q            # division by t


def test_polyring_one_and_t_have_int_coefficients():
    # as `of` and `from_coeffs` give them: a polynomial built from them keeps ints
    assert POLY.one == (1,) and POLY.t() == (0, 1)
    assert all(type(c) is int for c in POLY.one + POLY.t())
    assert all(type(c) is int for c in POLY.mul(POLY.add(POLY.one, POLY.t()), POLY.t()))
    assert POLY.from_elems([0, 1, 0, 0]) == POLY.t() and POLY.from_elems(()) == POLY.zero


# -- QQ[t] arithmetic on int and rational coefficients, against a schoolbook oracle

_COEFFS = {
    "int": st.integers(-30, 30),
    "rational": st.integers(-5, 5) | st.fractions(min_value=-5, max_value=5, max_denominator=6),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(sorted(_COEFFS)))
def test_polyring_matches_the_schoolbook_oracle(data, kind):
    # values equal the oracle's; int coefficients give int coefficients
    R, O = PolyRing(QQ), SchoolbookPolyRing(QQ)
    coeff = _COEFFS[kind]
    a, b = (R.from_elems(data.draw(st.lists(coeff, max_size=7))) for _ in range(2))
    c = data.draw(coeff.filter(bool))
    raw = data.draw(st.lists(coeff, max_size=7))
    got = R.from_coeffs(raw)
    # from_coeffs keeps ints and turns integral Fractions into ints
    assert got == O.from_coeffs(raw)
    assert all(type(x) is (int if x.denominator == 1 else Fraction) for x in got)
    for got, want in ((R.mul(a, b), O.mul(a, b)), (R.add(a, b), O.add(a, b)),
                      (R.scale(c, a), O.scale(c, a))):
        assert got == want
        assert kind == "rational" or all(type(x) is int for x in got)


def test_polyring_takes_only_rational_bases():
    # no integer, nested or truncated rings: chart maps take int coefficients as they are
    with pytest.raises(TypeError, match=r"no polynomial ring over QQ\[t\]"):
        PolyRing(PolyRing(QQ))
    with pytest.raises(TypeError):
        PolyRing(QQ, 3)
