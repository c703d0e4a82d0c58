"""Exact scalar arithmetic: integers, rationals, prime fields, dense univariate polynomials.

Every computation in this package runs over one of these coefficient
structures; nothing is floating point. Ring objects carry the operations,
element values are plain Python data (Fraction, int, tuple), which keeps
them hashable and trivially immutable.

`ZZ` is a ring, not a field: it only adds, subtracts and multiplies. Chart
evaluation and jets need nothing more, so `chart_ring` runs them on plain
ints whenever the target field is QQ and every chart coordinate is integral,
and on ZZ[t] whenever the target is an untruncated QQ[t] and every
coefficient of every coordinate is integral. An int equals the Fraction it
stands for, so the resulting vectors are the same rationals. Rational
coordinates keep Fractions, and prime fields keep their own arithmetic.
`PolyRing` over ZZ or QQ runs on the coefficients' own operators instead of
the base ring's methods; other bases, nested rings included, keep the calls.
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

    char = 0
    name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x) -> Fraction:
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(a.denominator, a.numerator)

    def is_zero(self, a) -> bool:
        return not a

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class IntegerRing:
    """The integers as a ring (no division); elements are ints."""

    char = 0
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

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return not a

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("ZZ")

    def __repr__(self):
        return "ZZ"


ZZ = IntegerRing()


def chart_ring(field, coords):
    """The ring to evaluate chart coordinates `coords` in, for results over `field`.

    ZZ when `field` is QQ and every coordinate is integral; ZZ[t] when
    `field` is an untruncated QQ[t] and every coefficient of every coordinate
    (a polynomial in t) is integral; else `field`. Vectors over the returned
    ring are vectors over `field`, entry for entry.
    """
    if isinstance(field, PolyRing):
        if field.trunc is None and chart_ring(field.base, [c for x in coords for c in x]) is ZZ:
            return PolyRing(ZZ)
        return field
    if isinstance(field, RationalField) and all(
        getattr(x, "denominator", None) == 1 for x in coords
    ):
        return ZZ
    return field


class PrimeField:
    """Integers mod a prime p; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not is_probable_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.char = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def of(self, x) -> int:
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(
                    f"denominator of {x} vanishes mod {self.p}"
                )
            return x.numerator * pow(den, self.p - 2, self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


class PolyRing:
    """Dense univariate polynomials over a base ring.

    Elements are tuples of base elements with no trailing zeros; the zero
    polynomial is the empty tuple. With ``trunc=L`` every result is cut to
    degree < L (truncated power series), which is how jet expansions avoid
    any division by factorials.
    """

    def __init__(self, base, trunc: int | None = None):
        self.base = base
        self.trunc = trunc
        self.char = base.char
        self.name = f"{base.name}[t]"
        self.zero = ()
        self.one = (base.one,)
        # ints and Fractions: their own +, * and truthiness are what ZZ and QQ call
        self.native = type(base) in (IntegerRing, RationalField)

    def _norm(self, cs: list) -> tuple:
        if self.trunc is not None:
            cs = cs[: self.trunc]
        n = len(cs)
        while n and (not cs[n - 1] if self.native else self.base.is_zero(cs[n - 1])):
            n -= 1
        return tuple(cs[:n])

    def of(self, x):
        c = self.base.of(x)
        return () if self.base.is_zero(c) else (c,)

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
            out[i] = out[i] + c if self.native else self.base.add(out[i], c)
        return self._norm(out)

    def neg(self, a):
        return tuple(-c for c in a) if self.native else tuple(self.base.neg(c) for c in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def scale(self, c, a):
        """c * a for a nonzero base element c; the base has no zero divisors."""
        return tuple(c * x for x in a) if self.native else tuple(self.base.mul(c, x) for x in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        n = len(a) + len(b) - 1
        if self.trunc is not None:
            n = min(n, self.trunc)
        out = [self.base.zero] * n
        if self.native:
            for i, ca in enumerate(a[:n]):
                if ca:
                    for k, cb in enumerate(b[: n - i], i):
                        if cb:
                            out[k] += ca * cb
            return self._norm(out)
        for i, ca in enumerate(a):
            if i >= n:
                break
            if self.base.is_zero(ca):
                continue
            for j, cb in enumerate(b):
                if i + j >= n:
                    break
                if not self.base.is_zero(cb):
                    out[i + j] = self.base.add(out[i + j], self.base.mul(ca, cb))
        return self._norm(out)

    def is_zero(self, a) -> bool:
        return not a

    def coeff(self, a, m: int):
        return a[m] if m < len(a) else self.base.zero

    def degree(self, a) -> int:
        return len(a) - 1

    def valuation(self, a) -> int | None:
        for i, c in enumerate(a):
            if not self.base.is_zero(c):
                return i
        return None

    def shift_down(self, a, v: int):
        return a[v:] if v else a

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.base == self.base
            and other.trunc == self.trunc
        )

    def __hash__(self):
        return hash(("poly", self.base, self.trunc))

    def __repr__(self):
        return self.name
