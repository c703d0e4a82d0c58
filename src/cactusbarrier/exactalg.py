"""Exact dense linear algebra: ranks, kernels, subspace arithmetic, span sampling.

Ranks are taken on plain Python ints wherever the rows allow it. Over the
rationals, each row is cleared of denominators through `.numerator` and
`.denominator` and ranked by fraction-free (Bareiss) elimination, so
coefficient growth stays polynomial; over a prime field, ints are reduced
mod p by plain elimination. The barrier check ranks the integer rows of
M(F) (see `rankmethods.integer_image`) once, by `rank_qq_and_mod_p`: the
last Bareiss pivot is a nonzero r x r minor, r the rational rank, and when
the prime does not divide it the rank mod p is r as well. Span vectors of
integral chart points arrive as ints as well (chart evaluation and jets run
over `fields.ZZ`); every routine here that takes QQ vectors accepts ints and
Fractions alike. Each t-saturation step takes its relation from one
fraction-free elimination (`first_relation`). Fractions remain for rational
scheme-file coordinates and where elements must be divided: spans and factor
subspaces (`SpanBuilder`), `nullspace` and membership. Sampling over QQ sums
integer numerators over one common denominator. Ranks over a polynomial ring
(generic ranks of one-parameter families) are the largest of enough integer
specializations of t, each ranked by one of the two routines above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .fields import PolyRing, PrimeField, RationalField

DEFAULT_PRIME = 2**31 - 1


class FieldMismatchError(ValueError):
    """Raised when operands live over different coefficient fields."""


@dataclass
class Matrix:
    """Dense matrix; `rows` holds field elements in row-major nested lists."""

    field: object
    rows: list

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def from_rows(cls, field, rows) -> "Matrix":
        return cls(field, [[field.of(x) for x in row] for row in rows])

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        return cls(field, [[field.zero] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [list(col) for col in zip(*self.rows)] if self.rows else [])


def _rank_int_bareiss(rows: list[list[int]]) -> tuple[int, int]:
    # Fraction-free (Bareiss) elimination; overwrites `rows` and returns
    # (rank, last pivot). A row with a zero in the pivot column is skipped
    # instead of multiplied through: level[i] is the pivot that last updated
    # row i (1 if none), so its Bareiss entries are the stored ones times
    # prev / level[i]. Updating the row, or rescaling it when it becomes the
    # pivot row, divides by level[i] exactly; so every pivot is a true
    # Bareiss entry, and by Sylvester's identity the last one is, up to
    # sign, the rank x rank minor on the pivot rows and columns (1 at rank 0).
    a = rows
    m = len(a)
    n = len(a[0]) if a else 0
    level = [1] * m
    rank = 0
    prev = 1
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        level[rank], level[piv] = level[piv], level[rank]
        ar = a[rank]
        d = level[rank]
        if d != prev:
            for j in range(col, n):
                ar[j] = ar[j] * prev // d
        pv = ar[col]
        for i in range(rank + 1, m):
            ai = a[i]
            c = ai[col]
            if c:
                d = level[i]
                for j in range(col + 1, n):
                    ai[j] = (pv * ai[j] - c * ar[j]) // d
                level[i] = pv
        prev = pv
        rank += 1
        if rank == m:
            break
    return rank, prev


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    m = len(rows)
    if m == 0:
        return 0
    n = len(rows[0])
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(n):
        piv = None
        for i in range(rank, m):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            a[piv], a[rank] = a[rank], a[piv]
        inv = pow(a[rank][col], p - 2, p)
        ar = a[rank]
        for i in range(rank + 1, m):
            f = a[i][col]
            if f:
                f = f * inv % p
                ai = a[i]
                for j in range(col, n):
                    ai[j] = (ai[j] - f * ar[j]) % p
        rank += 1
        if rank == m:
            break
    return rank


def common_denominator(xs, prime: int | None = None) -> int:
    """Least common denominator of the rationals (or ints) `xs`.

    With `prime`, a denominator that the prime divides raises the
    ZeroDivisionError of `PrimeField.of`: `xs` has no image mod the prime.
    """
    den = math.lcm(*[x.denominator for x in xs])
    if prime is not None and den % prime == 0:
        bad = next(x for x in xs if x.denominator % prime == 0)
        raise ZeroDivisionError(f"denominator of {bad} vanishes mod {prime}")
    return den


def clear_denominators(row: list, prime: int | None = None) -> list[int]:
    """`row` times its least common denominator, as a new list of ints.

    The scaling keeps the rank of any set of rows over QQ, and mod `prime`
    too, since the prime cannot divide the denominator (see
    `common_denominator`).
    """
    den = common_denominator(row, prime)
    if den == 1:
        return [x.numerator for x in row]
    return [x.numerator * (den // x.denominator) for x in row]


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rank_of_rows(field, rows: list) -> int:
    """Exact rank of a list of row vectors over `field`.

    Over QQ the rows may hold Fractions or ints; over a prime field, any
    ints, which are reduced mod p.

    Over an untruncated polynomial ring R[t], the rank is the one over the
    fraction field of R[t] (the generic rank), taken from specializations.
    Let d be the largest entry degree and D = min(#rows, #cols) * d. Every
    r x r minor is a polynomial of degree at most r * d <= D, and a nonzero
    polynomial of degree at most D is nonzero at one of any D + 1 points.
    Specializing never raises a rank, so the largest rank over R among
    t = 1, ..., D + 1 is the generic rank. Over GF(q)[t] those points must
    be distinct mod q, so q < D + 1 raises ValueError; a truncated ring is
    not a domain and raises TypeError.
    """
    rows = [row for row in rows if row]
    if not rows:
        return 0
    if isinstance(field, RationalField):
        return _rank_int_bareiss([clear_denominators(row) for row in rows])[0]
    if isinstance(field, PrimeField):
        return _rank_mod_p(rows, field.p)
    if isinstance(field, PolyRing):
        if field.trunc is not None:
            raise TypeError(f"{field!r} truncated below degree {field.trunc} is not a domain")
        full = min(len(rows), len(rows[0]))
        points = full * max(max(len(e) for row in rows for e in row) - 1, 0) + 1
        if isinstance(field.base, PrimeField) and field.base.p < points:
            raise ValueError(f"{field.base!r} has fewer than the {points} points "
                             "a generic rank of these rows needs")
        best = 0
        for x in range(1, points + 1):
            at_x = [[_horner(e, x) for e in row] for row in rows]
            best = max(best, rank_of_rows(field.base, at_x))
            if best == full:
                break
        return best
    raise TypeError(f"no rank routine for {field!r}")


def rank_qq_and_mod_p(rows: list, p: int) -> tuple[int, int]:
    """(rank over QQ, rank mod the prime p) of rows of ints or Fractions, by one elimination.

    The rows are cleared of denominators as in `rank_of_rows` over QQ (p may
    not divide one; see `common_denominator`) and ranked by Bareiss
    elimination, whose last pivot is an r x r minor of the rows, r the
    rational rank. If p does not divide that minor, the rank mod p is at
    least r; it is never more than the rational rank, since a minor that is
    nonzero mod p is nonzero. So it is r, and only when p divides the minor
    are the rows ranked again, mod p.
    """
    rows = [clear_denominators(row, p) for row in rows if row]
    r, minor = _rank_int_bareiss([row[:] for row in rows])
    if minor % p:
        return r, r
    return r, rank_of_rows(PrimeField(p), rows)


def first_relation(field, rows: list):
    """The relation on the first row that lies in the span of the rows before it; None if independent.

    Rows are scanned into a fraction-free echelon, each followed by its
    combination of the input rows. Over QQ a row is cleared of denominators,
    reduced against each kept row r by e * v - x * r (e the pivot of r, x the
    entry of v there) and divided by its gcd; over GF(q) this runs mod q.
    When row i reduces to zero, rows 0..i-1 are independent, so the relation
    on rows 0..i is unique up to scale. It is returned over all rows, zero
    beyond i, as the primitive integer vector with c_i > 0 over QQ and with
    c_i = 1 over GF(q). That is `clear_denominators(nullspace(M)[0])`, resp.
    `nullspace(M)[0]`, for M the transpose of rows 0..i: the first kernel
    vector has a 1 at the first free column, which is row i.
    """
    q = field.p if isinstance(field, PrimeField) else None
    if q is None and not isinstance(field, RationalField):
        raise TypeError(f"no relation routine for {field!r}")
    m = len(rows)
    n = len(rows[0]) if rows else 0
    kept = []  # (pivot column, row followed by its combination)
    for i, row in enumerate(rows):
        if q is None:
            den = math.lcm(*[x.denominator for x in row])
            w = [x.numerator * (den // x.denominator) for x in row] + [0] * m
        else:
            den, w = 1, [x % q for x in row] + [0] * m
        w[n + i] = den
        for pc, r in kept:
            x = w[pc]
            if x:
                w = [r[pc] * a - x * b for a, b in zip(w, r)]
                if q:
                    w = [a % q for a in w]
                elif (g := math.gcd(*w)) > 1:
                    w = [a // g for a in w]
        pc = next((j for j in range(n) if w[j]), None)
        if pc is None:
            c = w[n:]  # primitive after the gcd divisions (e_i for a zero row)
            if q:
                inv = pow(c[i], -1, q)
                return [a * inv % q for a in c]
            return c if c[i] > 0 else [-a for a in c]
        kept.append((pc, w))
    return None


def rank(m: Matrix) -> int:
    return rank_of_rows(m.field, m.rows)


def _pivot_rows(field, rows: list, ncols: int) -> list:
    """(pivot column, row) pairs of the reduced row echelon form, in no fixed order."""
    builder = SpanBuilder(field, ncols)
    for row in rows:
        builder.add(row)
    return builder._rows


def nullspace(m: Matrix) -> list[list]:
    """Basis of the right kernel {x : m x = 0}."""
    field = m.field
    n = m.ncols
    pivots = _pivot_rows(field, m.rows, n)
    pivot_set = {pc for pc, _ in pivots}
    basis = []
    for j in range(n):
        if j in pivot_set:
            continue
        v = [field.zero] * n
        v[j] = field.one
        for pc, row in pivots:
            v[pc] = field.neg(row[j])
        basis.append(v)
    return basis


def solve_columns(field, columns: list, target: list):
    """Solve sum_i x_i * columns[i] = target; None when inconsistent."""
    k = len(columns)
    aug = [[c[r] for c in columns] + [target[r]] for r in range(len(target))]
    x = [field.zero] * k
    for pc, row in _pivot_rows(field, aug, k + 1):
        if pc == k:
            return None
        x[pc] = row[k]
    return x


class SpanBuilder:
    """Grows a subspace one vector at a time.

    Keeps a fully reduced pivot system internally (every stored row is zero
    at every other stored pivot), so membership is a single pass, and keeps
    the accepted original vectors as the exposed basis.
    """

    def __init__(self, field, ambient_dim: int):
        self.field = field
        self.ambient_dim = ambient_dim
        self.vectors: list = []
        self._rows: list = []  # (pivot index, row with pivot normalized to 1)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def residual(self, vec: list) -> list:
        f = self.field
        v = list(vec)
        for piv, row in self._rows:
            c = v[piv]
            if f.is_zero(c):
                continue
            for j in range(self.ambient_dim):
                if not f.is_zero(row[j]):
                    v[j] = f.sub(v[j], f.mul(c, row[j]))
        return v

    def contains(self, vec: list) -> bool:
        return all(self.field.is_zero(x) for x in self.residual(vec))

    def add(self, vec: list) -> bool:
        """Insert `vec`; True when the dimension grew."""
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        f = self.field
        v = self.residual(vec)
        piv = None
        for j, x in enumerate(v):
            if not f.is_zero(x):
                piv = j
                break
        if piv is None:
            return False
        inv = f.inv(v[piv])
        v = [f.mul(inv, x) for x in v]
        for k, (p, row) in enumerate(self._rows):
            c = row[piv]
            if not f.is_zero(c):
                self._rows[k] = (p, [f.sub(x, f.mul(c, y)) for x, y in zip(row, v)])
        self._rows.append((piv, v))
        self.vectors.append(list(vec))
        return True

    def to_subspace(self) -> "Subspace":
        return Subspace(self.field, self.ambient_dim, [list(v) for v in self.vectors])


@dataclass
class Subspace:
    """A linear subspace given by an independent list of spanning vectors.

    Dimensions here are always vector-space (cone) dimensions.
    """

    field: object
    ambient_dim: int
    basis: list

    @property
    def dim(self) -> int:
        return len(self.basis)

    def builder(self) -> SpanBuilder:
        b = SpanBuilder(self.field, self.ambient_dim)
        for v in self.basis:
            b.add(v)
        return b


def subspace_from_vectors(field, ambient_dim: int, vectors: list) -> Subspace:
    b = SpanBuilder(field, ambient_dim)
    for v in vectors:
        b.add(v)
    return b.to_subspace()


def _check_compatible(a: Subspace, b: Subspace) -> None:
    if a.field != b.field:
        raise FieldMismatchError(f"mixed fields {a.field!r} and {b.field!r}")
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def span_sum(a: Subspace, b: Subspace) -> Subspace:
    """Sum of two subspaces of the same ambient space."""
    _check_compatible(a, b)
    builder = SpanBuilder(a.field, a.ambient_dim)
    for v in a.basis:
        builder.add(v)
    for v in b.basis:
        builder.add(v)
    return builder.to_subspace()


def sample_combination(field, vectors: list, bound: int, rng) -> tuple[list, list]:
    """Nonzero integer combination of `vectors` with coefficients in [-bound, bound].

    Returns (coefficients, vector). All-zero draws are skipped, and so is a
    draw whose combination vanishes, which only dependent vectors allow.
    Over QQ the sums run on integer numerators over one common denominator.
    """
    n = len(vectors[0])
    if isinstance(field, RationalField):
        den = common_denominator([x for v in vectors for x in v])
        ints = [[x.numerator * (den // x.denominator) for x in v] for v in vectors]

        def combine(coeffs):
            out = [0] * n
            for c, v in zip(coeffs, ints):
                if c:
                    out = [o + c * x for o, x in zip(out, v)]
            return [Fraction(o, den) for o in out]
    else:
        def combine(coeffs):
            out = [field.zero] * n
            for c, v in zip(coeffs, vectors):
                if c:
                    fc = field.of(c)
                    out = [field.add(o, field.mul(fc, x)) for o, x in zip(out, v)]
            return out
    for _ in range(64):
        coeffs = [rng.randint(-bound, bound) for _ in range(len(vectors))]
        if not any(coeffs):
            continue
        out = combine(coeffs)
        if any(not field.is_zero(x) for x in out):
            return coeffs, out
    raise RuntimeError("could not sample a nonzero span element")


def random_in_span(s: Subspace, bound: int, rng) -> list:
    """Nonzero integer combination of the basis with coefficients in [-bound, bound]."""
    if s.dim == 0:
        raise ValueError("cannot sample from a zero-dimensional subspace")
    if bound < 1:
        raise ValueError("coefficient bound must be at least 1")
    return sample_combination(s.field, s.basis, bound, rng)[1]


def solve_membership(s: Subspace, v: list):
    """Coordinates of v in s.basis, or None when v is outside s."""
    if len(v) != s.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    if s.dim == 0:
        return [] if all(s.field.is_zero(x) for x in v) else None
    return solve_columns(s.field, s.basis, v)


def subspace_contains(s: Subspace, v: list) -> bool:
    return s.builder().contains(v)


def subspaces_equal(a: Subspace, b: Subspace) -> bool:
    """Equality of column spaces, decided by mutual membership of bases."""
    _check_compatible(a, b)
    if a.dim != b.dim:
        return False
    ba = a.builder()
    bb = b.builder()
    return all(ba.contains(v) for v in b.basis) and all(bb.contains(v) for v in a.basis)
