"""Exact scalars: rationals, integers, dense univariate polynomials, prime moduli.

Nothing is floating point. Elements are plain Python data (Fraction, int,
tuple), added, multiplied, divided and tested for zero on their own
operators; `QQ` and `ZZ` are markers, with `of` and no arithmetic. `ZZ`
marks integral chart data: chart evaluation needs only sums and products,
so `chart_ring` runs it on ints when the target is QQ and every coordinate
is integral, and on ZZ[t] (one shared instance) when the target is QQ[t]
and every coefficient is integral; an int equals the Fraction it stands
for. `PolyRing` is a flat ring of polynomials over ZZ or QQ.

`PrimeField` is a modulus, not a ring: the rank screen reduces integer rows
mod p (see `exactalg`), and `PrimeField.of` tells whether a rational has an
image mod p. Nothing is evaluated, spanned or deformed over GF(p), so
`PolyRing` and `chart_ring` refuse a prime field.
"""

from __future__ import annotations

from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    # deterministic Miller-Rabin; the base set covers all n < 3.3e24
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The rationals; elements are `fractions.Fraction` (lowest terms, positive denominator)."""

    name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x) -> Fraction:
        return Fraction(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class IntegerRing:
    """The integers, for chart data; elements are ints, added and multiplied on their own operators."""

    name = "ZZ"
    zero = 0
    one = 1

    def of(self, x) -> int:
        if isinstance(x, int):
            return int(x)
        q = x if isinstance(x, Fraction) else Fraction(x)
        if q.denominator != 1:
            raise ValueError(f"{x} is not an integer")
        return q.numerator

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("ZZ")

    def __repr__(self):
        return "ZZ"


ZZ = IntegerRing()


class PrimeField:
    """A prime modulus p: the rank screen's field GF(p), whose elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not is_probable_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def of(self, x) -> int:
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(
                    f"denominator of {x} vanishes mod {self.p}"
                )
            return x.numerator * pow(den, self.p - 2, self.p) % self.p
        return int(x) % self.p

    def __repr__(self):
        return self.name


def chart_ring(field, coords):
    """The ring to evaluate chart coordinates `coords` in, for results over `field`.

    ZZ when `field` is QQ and every coordinate is integral; ZZ[t] when
    `field` is QQ[t] and every coefficient of every coordinate (a
    polynomial in t) is integral; else `field`. Vectors over the returned
    ring are vectors over `field`, entry for entry. A prime field raises
    TypeError: nothing is evaluated over GF(p).
    """
    if isinstance(field, PrimeField):
        raise TypeError(f"no chart evaluation over {field!r}; GF(p) only screens ranks")
    if isinstance(field, PolyRing):
        if chart_ring(field.base, [c for x in coords for c in x]) is ZZ:
            return _ZZ_T
        return field
    if isinstance(field, RationalField) and all(
        getattr(x, "denominator", None) == 1 for x in coords
    ):
        return ZZ
    return field


class PolyRing:
    """Dense univariate polynomials over ZZ or QQ.

    Elements are tuples of ints or Fractions with no trailing zeros, added
    and multiplied on the coefficients' own operators; the zero polynomial
    is the empty tuple. Any other base raises TypeError.
    """

    def __init__(self, base):
        if not isinstance(base, (IntegerRing, RationalField)):
            raise TypeError(f"no polynomial ring over {base!r}")
        self.base = base
        self.name = f"{base.name}[t]"
        self.zero = ()
        self.one = (base.one,)

    def _norm(self, cs: list) -> tuple:
        n = len(cs)
        while n and not cs[n - 1]:
            n -= 1
        return tuple(cs[:n])

    def of(self, x):
        c = self.base.of(x)
        return (c,) if c else ()

    def from_coeffs(self, coeffs) -> tuple:
        return self._norm([self.base.of(c) for c in coeffs])

    def from_elems(self, elems) -> tuple:
        """Normalize a coefficient list whose entries are already base elements."""
        return self._norm(list(elems))

    def t(self) -> tuple:
        return self._norm([self.base.zero, self.base.one])

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._norm(out)

    def scale(self, c, a):
        """c * a for a nonzero base element c; the base has no zero divisors."""
        return tuple(c * x for x in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [self.base.zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for k, cb in enumerate(b, i):
                    if cb:
                        out[k] += ca * cb
        return self._norm(out)

    def degree(self, a) -> int:
        return len(a) - 1

    def valuation(self, a) -> int | None:
        for i, c in enumerate(a):
            if c:
                return i
        return None

    def shift_down(self, a, v: int):
        return a[v:] if v else a

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.base == self.base

    def __hash__(self):
        return hash(("poly", self.base))

    def __repr__(self):
        return self.name


# the one ZZ[t] that `chart_ring` returns for integral family pieces
_ZZ_T = PolyRing(ZZ)
