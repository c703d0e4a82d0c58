from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactusbarrier.fields import (
    QQ,
    ZZ,
    PolyRing,
    PrimeField,
    chart_ring,
    is_probable_prime,
)

from oracles import SchoolbookPolyRing


def test_primality():
    assert is_probable_prime(2)
    assert is_probable_prime(2**31 - 1)
    assert is_probable_prime(1_000_003)
    assert not is_probable_prime(1)
    assert not is_probable_prime(2**31)
    assert not is_probable_prime(3 * 5 * 7)


def test_rational_field_basics():
    assert QQ.of("3/4") == Fraction(3, 4)


def test_integer_ring_basics():
    assert ZZ.zero == 0 and ZZ.one == 1
    assert ZZ.of(Fraction(6, 3)) == 2 and type(ZZ.of(Fraction(6, 3))) is int
    assert ZZ.of(-5) == -5 and ZZ.of("7") == 7
    for bad in (Fraction(1, 2), "1/2", Fraction(-7, 3)):
        with pytest.raises(ValueError):
            ZZ.of(bad)
    assert ZZ != QQ and QQ != ZZ and hash(ZZ) != hash(QQ)
    assert ZZ == ZZ and ZZ != PrimeField(7)
    assert PolyRing(ZZ) != PolyRing(QQ)


def test_chart_ring_picks_integers_only_for_integral_rationals():
    assert chart_ring(QQ, [Fraction(3), -2, Fraction(0)]) is ZZ
    assert chart_ring(QQ, []) is ZZ
    assert chart_ring(QQ, [Fraction(3), Fraction(1, 2)]) is QQ
    assert chart_ring(QQ, ["3"]) is QQ  # parsed by the field, as before


def test_polyring_over_prime_field():
    # GF(p) only screens ranks: there is no polynomial ring over it
    with pytest.raises(TypeError, match=r"no polynomial ring over GF\(101\)"):
        PolyRing(PrimeField(101))


def test_jets_over_integers_match_rationals():
    R, S = PolyRing(ZZ), PolyRing(QQ)
    a, b = R.from_coeffs([2, -1, 3]), S.from_coeffs([2, -1, 3])
    assert R.mul(R.mul(a, a), a) == S.mul(S.mul(b, b), b)
    assert all(type(c) is int for c in R.mul(a, a))


def test_prime_field_arithmetic():
    gf = PrimeField(7)
    assert gf.p == 7 and gf.name == "GF(7)"
    assert gf.of(10) == 3
    assert gf.of(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ZeroDivisionError):
        gf.of(Fraction(1, 7))


def test_field_identity():
    assert QQ == QQ and hash(QQ) == hash(QQ)
    assert PolyRing(QQ) == PolyRing(QQ) and hash(PolyRing(QQ)) == hash(PolyRing(QQ))
    assert QQ != PrimeField(7)


def test_polyring_arithmetic():
    R = PolyRing(QQ)
    t = R.t()
    one = R.one
    p = R.add(one, t)                      # 1 + t
    q = R.mul(p, p)                        # 1 + 2t + t^2
    assert q == (Fraction(1), Fraction(2), Fraction(1))
    assert R.add(q, R.scale(Fraction(-1), q)) == ()
    assert q[1] == 2
    assert R.degree(q) == 2
    assert R.valuation(R.mul(t, q)) == 1
    assert R.shift_down(R.mul(t, q), 1) == q


# -- ZZ/QQ polynomial arithmetic against a schoolbook oracle -----------------

_COEFFS = {
    ZZ: st.integers(-30, 30),
    QQ: st.integers(-5, 5) | st.fractions(min_value=-5, max_value=5, max_denominator=6),
}


def _same_entries(got, want):
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), base=st.sampled_from(list(_COEFFS)))
def test_polyring_matches_the_schoolbook_oracle(data, base):
    R, O = PolyRing(base), SchoolbookPolyRing(base)
    coeff = _COEFFS[base]
    a, b = (O.norm(map(base.of, data.draw(st.lists(coeff, max_size=7)))) for _ in range(2))
    c = base.of(data.draw(coeff.filter(bool)))
    raw = data.draw(st.lists(coeff, max_size=7))
    _same_entries(R.from_coeffs(raw), O.from_coeffs(raw))
    _same_entries(R.mul(a, b), O.mul(a, b))
    _same_entries(R.add(a, b), O.add(a, b))
    _same_entries(R.scale(c, a), O.scale(c, a))


def test_native_polyring_keeps_fraction_zeros():
    R = PolyRing(QQ)
    a = R.from_coeffs([1, 1, 1])
    diff = R.add(a, R.from_coeffs([0, -1]))
    assert diff == (1, 0, 1) and all(type(c) is Fraction for c in diff)
    square = R.mul(R.from_coeffs([1, 0, 1]), R.from_coeffs([1, 0, -1]))
    assert square == (1, 0, 0, 0, -1) and all(type(c) is Fraction for c in square)


def test_polyring_takes_only_integer_and_rational_bases():
    # no nested or truncated rings: jets of every chart ring are packed ints
    with pytest.raises(TypeError, match=r"no polynomial ring over QQ\[t\]"):
        PolyRing(PolyRing(QQ))
    with pytest.raises(TypeError):
        PolyRing(QQ, 3)
