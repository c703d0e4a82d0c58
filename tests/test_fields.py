from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactusbarrier.fields import (
    QQ,
    ZZ,
    IntegerRing,
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


# -- native ZZ/QQ polynomial arithmetic against a schoolbook oracle -----------

class _SubZZ(IntegerRing):
    """A subclass may override the arithmetic, so it must keep the base-ring calls."""


GF101 = PrimeField(101)
ZT = PolyRing(ZZ)
_COEFFS = {
    ZZ: st.integers(-30, 30),
    QQ: st.integers(-5, 5) | st.fractions(min_value=-5, max_value=5, max_denominator=6),
    GF101: st.integers(0, 100),
    ZT: st.lists(st.integers(-3, 3), max_size=3).map(ZT.from_coeffs),
}


def _same_entries(got, want):
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), base=st.sampled_from(list(_COEFFS)),
       trunc=st.sampled_from([None, 2, 4, 8]))
def test_polyring_matches_the_schoolbook_oracle(data, base, trunc):
    R, O = PolyRing(base, trunc), SchoolbookPolyRing(base, trunc)
    assert R.native == (base in (ZZ, QQ))
    coeff = _COEFFS[base]
    elem = (lambda x: x) if base is ZT else base.of  # ZZ[t] coefficients are drawn as elements
    a, b = (O.norm(map(elem, data.draw(st.lists(coeff, max_size=7)))) for _ in range(2))
    c = elem(data.draw(coeff.filter(lambda x: not base.is_zero(elem(x)))))
    if base is not ZT:
        raw = data.draw(st.lists(coeff, max_size=7))
        _same_entries(R.from_coeffs(raw), O.from_coeffs(raw))
    _same_entries(R.mul(a, b), O.mul(a, b))
    _same_entries(R.add(a, b), O.add(a, b))
    _same_entries(R.sub(a, b), O.sub(a, b))
    _same_entries(R.scale(c, a), O.scale(c, a))


def test_native_polyring_keeps_fraction_zeros():
    R = PolyRing(QQ)
    a = R.from_coeffs([1, 1, 1])
    diff = R.sub(a, R.from_coeffs([0, 1]))
    assert diff == (1, 0, 1) and all(type(c) is Fraction for c in diff)
    square = R.mul(R.from_coeffs([1, 0, 1]), R.from_coeffs([1, 0, -1]))
    assert square == (1, 0, 0, 0, -1) and all(type(c) is Fraction for c in square)


def test_only_integer_and_rational_bases_take_the_native_path():
    assert PolyRing(ZZ).native and PolyRing(QQ, trunc=3).native
    assert not PolyRing(GF101).native
    assert not PolyRing(PolyRing(ZZ), trunc=2).native
    assert not PolyRing(PolyRing(QQ)).native
    assert not PolyRing(_SubZZ()).native
