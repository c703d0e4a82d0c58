from fractions import Fraction

import pytest

from cactusbarrier.fields import QQ, ZZ, PolyRing, PrimeField, chart_ring, is_probable_prime


def test_primality():
    assert is_probable_prime(2)
    assert is_probable_prime(2**31 - 1)
    assert is_probable_prime(1_000_003)
    assert not is_probable_prime(1)
    assert not is_probable_prime(2**31)
    assert not is_probable_prime(3 * 5 * 7)


def test_rational_field_basics():
    assert QQ.of("3/4") == Fraction(3, 4)
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.is_zero(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_integer_ring_basics():
    assert ZZ.char == 0 and ZZ.zero == 0 and ZZ.one == 1
    assert ZZ.of(Fraction(6, 3)) == 2 and type(ZZ.of(Fraction(6, 3))) is int
    assert ZZ.of(-5) == -5 and ZZ.of("7") == 7
    for bad in (Fraction(1, 2), "1/2", Fraction(-7, 3)):
        with pytest.raises(ValueError):
            ZZ.of(bad)
    assert ZZ.add(2, 3) == 5 and ZZ.sub(2, 3) == -1
    assert ZZ.mul(-4, 3) == -12 and ZZ.neg(4) == -4
    assert ZZ.is_zero(0) and not ZZ.is_zero(-1)
    assert ZZ != QQ and QQ != ZZ and hash(ZZ) != hash(QQ)
    assert ZZ == ZZ and ZZ != PrimeField(7)
    assert PolyRing(ZZ) != PolyRing(QQ)


def test_chart_ring_picks_integers_only_for_integral_rationals():
    assert chart_ring(QQ, [Fraction(3), -2, Fraction(0)]) is ZZ
    assert chart_ring(QQ, []) is ZZ
    assert chart_ring(QQ, [Fraction(3), Fraction(1, 2)]) is QQ
    assert chart_ring(QQ, ["3"]) is QQ  # parsed by the field, as before
    gf = PrimeField(101)
    assert chart_ring(gf, [Fraction(3), 4]) is gf


def test_jets_over_integers_match_rationals():
    R, S = PolyRing(ZZ, trunc=4), PolyRing(QQ, trunc=4)
    a, b = R.from_coeffs([2, -1, 3]), S.from_coeffs([2, -1, 3])
    assert R.mul(R.mul(a, a), a) == S.mul(S.mul(b, b), b)
    assert all(type(c) is int for c in R.mul(a, a))


def test_prime_field_arithmetic():
    gf = PrimeField(7)
    assert gf.of(10) == 3
    assert gf.of(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    assert gf.mul(3, 5) == 1
    assert gf.inv(3) == 5
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ZeroDivisionError):
        gf.of(Fraction(1, 7))


def test_field_identity():
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
    assert QQ != PrimeField(7)


def test_polyring_arithmetic():
    R = PolyRing(QQ)
    t = R.t()
    one = R.one
    p = R.add(one, t)                      # 1 + t
    q = R.mul(p, p)                        # 1 + 2t + t^2
    assert q == (Fraction(1), Fraction(2), Fraction(1))
    assert R.sub(q, q) == ()
    assert R.coeff(q, 1) == 2
    assert R.degree(q) == 2
    assert R.valuation(R.mul(t, q)) == 1
    assert R.shift_down(R.mul(t, q), 1) == q


def test_polyring_truncation():
    R = PolyRing(QQ, trunc=3)
    p = R.from_coeffs([1, 1])
    cube = R.mul(R.mul(p, p), p)           # (1+t)^3 cut to order < 3
    assert cube == (Fraction(1), Fraction(3), Fraction(3))


def test_polyring_over_prime_field():
    R = PolyRing(PrimeField(5), trunc=4)
    p = R.from_coeffs([1, 1])
    sq = R.mul(p, p)
    assert sq == (1, 2, 1)
    assert R.char == 5


def test_nested_polyring():
    # polynomials in s whose coefficients are polynomials in t
    Rt = PolyRing(QQ)
    Rst = PolyRing(Rt, trunc=3)
    s_plus_t = Rst.from_elems([Rt.t(), Rt.one])
    sq = Rst.mul(s_plus_t, s_plus_t)
    # (t + s)^2 = t^2 + 2ts + s^2
    assert Rst.coeff(sq, 0) == (Fraction(0), Fraction(0), Fraction(1))
    assert Rst.coeff(sq, 1) == (Fraction(0), Fraction(2))
    assert Rst.coeff(sq, 2) == (Fraction(1),)
