"""Exact scalars: rationals and dense univariate polynomials over them.

Nothing is floating point. Elements are plain Python data (Fraction, int,
tuple), added, multiplied, divided and tested for zero on their own
operators; `QQ` is a marker with no arithmetic, and an int equals the
Fraction it stands for. `PolyRing` is the flat ring QQ[t], and `POLY` the
one instance the program uses: it takes coefficients in through `_exact`,
which makes integral Fractions ints, as the chart maps do, and its products
sum from int 0, so int coefficients stay ints. Chart maps take no ring (see
`varieties`).

A prime is an int: the rank screen reduces integer rows mod p (see
`exactalg.rank_mod_p`), and nothing is evaluated, spanned or deformed over
GF(p), so `PolyRing` takes no other base than QQ. The `QQ` marker, the
`PolyRing(QQ)` constructor and `from_coeffs` stay public for the benchmark,
which passes `QQ` and builds its limits families with them, until ROADMAP
item 11.
"""

from __future__ import annotations

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
    """The marker of the rationals, `QQ`: elements are ints and Fractions, on their own operators."""

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def _exact(x):
    """x with an integral rational, or each integral coefficient of a polynomial (tuple), as an int.

    x with no denominator, such as a float or a string, is a TypeError.
    """
    try:
        if isinstance(x, tuple):
            return tuple(c.numerator if c.denominator == 1 else c for c in x)
        return x.numerator if x.denominator == 1 else x
    except AttributeError:
        raise TypeError(f"{x!r} is neither a rational nor a polynomial over QQ") from None


class PolyRing:
    """Dense univariate polynomials over QQ.

    Elements are tuples of ints or Fractions with no trailing zeros, added
    and multiplied on the coefficients' own operators; the zero polynomial
    is the empty tuple, a polynomial e has degree len(e) - 1, and e[v:] is
    e divided by t^v. `of` and `from_coeffs` keep ints and turn integral
    Fractions into ints; `from_elems` only drops trailing zeros. Any other
    base raises TypeError.
    """

    zero = ()
    one = (1,)

    def __init__(self, base):
        if not isinstance(base, RationalField):
            raise TypeError(f"no polynomial ring over {base!r}")

    def of(self, x):
        c = _exact(x)
        return (c,) if c else ()

    def from_coeffs(self, coeffs) -> tuple:
        return self.from_elems([_exact(c) for c in coeffs])

    def from_elems(self, elems) -> tuple:
        """The polynomial of a coefficient sequence of ints and Fractions, trailing zeros dropped."""
        cs = tuple(elems)
        n = len(cs)
        while n and not cs[n - 1]:
            n -= 1
        return cs[:n]

    def t(self) -> tuple:
        return (0, 1)

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self.from_elems(out)

    def scale(self, c, a):
        """c * a for a nonzero rational c; QQ has no zero divisors."""
        return tuple(c * x for x in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for k, cb in enumerate(b, i):
                    if cb:
                        out[k] += ca * cb
        return self.from_elems(out)

    def valuation(self, a) -> int | None:
        for i, c in enumerate(a):
            if c:
                return i
        return None

    def __eq__(self, other):
        return isinstance(other, PolyRing)

    def __hash__(self):
        return hash("QQ[t]")

    def __repr__(self):
        return "QQ[t]"


POLY = PolyRing(QQ)

