"""Exact dense linear algebra: ranks, kernels, subspace arithmetic, span sampling.

Two eliminations run on plain Python ints, after rational rows are cleared
of denominators through `.numerator` and `.denominator`; over QQ both are
fraction-free (Bareiss, Math. Comp. 22, 1968), dividing only exactly:

- Batch ranks over QQ use fraction-free (Bareiss) elimination, so
  coefficient growth stays polynomial; `rank_of_rows` clears all rows over
  one common denominator (`clear_rows`), and m rows of more than 2m entries
  stop at rank m of their first 2m columns (exact; see there). The barrier
  check ranks the integer rows of M(F) (see `rankmethods.integer_image`)
  once, by `rank_qq_and_mod_p`, which takes int rows as they are: the last
  Bareiss pivot is a nonzero r x r minor, r the rational rank, and when the
  prime does not divide it the rank mod p is r as well.
- Everything incremental uses one row-incremental fraction-free echelon
  (`_echelon`), mod q over GF(q). It yields each row that lies in the span
  of the rows kept before it, with that row's relation: `first_relation`
  (one t-saturation step) is its first yield, `nullspace` the relations of
  the dependent columns, `solve_membership` the relation of the vector
  against the basis, and a rank over GF(q) is the number of rows it keeps.
  Membership and equality of subspaces are read off `solve_membership`, so
  a dependent basis answers as its span does.

Span vectors of integral chart points arrive as ints (chart evaluation and
jets run over `fields.ZZ`), and `clear_rows` copies rows of ints without a
denominator pass. A barrier trial clears its span vectors once and stays on
ints: `sample_combination` sums on the entries' own operators over QQ and
ZZ. Spans and factor subspaces (`subspace_from_vectors`) still run a reduced
row echelon form on field elements, Fractions over QQ. Ranks over a
polynomial ring (generic ranks of one-parameter families) are the largest
of enough integer specializations of t, each ranked over the base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from fractions import Fraction

from .fields import IntegerRing, PolyRing, PrimeField, RationalField

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
    return clear_rows([row], prime)[1][0]


def clear_rows(rows: list, prime: int | None = None) -> tuple[int, list[list[int]]]:
    """(d, the rows times d as new lists of ints), d the least common denominator of every entry.

    `prime` is checked against d as in `common_denominator`. Rows of ints
    are copied as they are (d = 1), after one type check per entry.
    """
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return 1, [list(row) for row in rows]
    den = common_denominator([x for row in rows for x in row], prime)
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rank_of_rows(field, rows: list) -> int:
    """Exact rank of a list of row vectors over `field`.

    Over QQ the rows may hold Fractions or ints; over a prime field, any
    ints, which are reduced mod p. Over QQ, m rows of n > 2m entries stop at
    rank m of their first 2m columns: a nonzero m x m minor there is one of
    the whole matrix, and m rows cap the rank. Only a smaller rank goes on.

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
        m = len(rows)
        if len(rows[0]) > 2 * m and _rank_int_bareiss(clear_rows([r[:2 * m] for r in rows])[1])[0] == m:
            return m
        return _rank_int_bareiss(clear_rows(rows)[1])[0]
    if isinstance(field, PrimeField):
        return len(rows) - sum(1 for _ in _echelon(field, rows, relations=False))
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


def rank_qq_and_mod_p(rows: list[list[int]], p: int) -> tuple[int, int]:
    """(rank over QQ, rank mod the prime p) of rows of ints, by one elimination.

    The rows are ranked by Bareiss elimination, whose last pivot is an
    r x r minor of the rows, r the rational rank. If p does not divide that
    minor, the rank mod p is at least r; it is never more than the rational
    rank, since a minor that is nonzero mod p is nonzero. So it is r, and
    only when p divides the minor are the rows ranked again, mod p.
    """
    r, minor = _rank_int_bareiss([row[:] for row in rows])
    if minor % p:
        return r, r
    return r, rank_of_rows(PrimeField(p), rows)


def _echelon(field, rows: list, relations: bool = True):
    """Yield (i, relation) for each row i that lies in the span of the rows kept before it.

    Rows are scanned into a fraction-free echelon, each followed by its
    combination of the input rows (or, without `relations`, by nothing, and
    every relation is None). Over QQ a row is cleared of denominators,
    reduced against each kept row r by e * v - x * r (e the pivot of r, x the
    entry of v there) and divided by its gcd; over GF(q) this runs mod q,
    with every kept row scaled to pivot e = 1. A row that reduces to zero is
    not kept. The rows kept before it are
    independent, so its relation on them is unique up to scale: it comes
    over all rows, zero at every row not kept and beyond i, as the primitive
    integer vector with c_i > 0 over QQ and with c_i = 1 over GF(q).
    """
    q = field.p if isinstance(field, PrimeField) else None
    if q is None and not isinstance(field, RationalField):
        raise TypeError(f"no echelon over {field!r}")
    m = len(rows) if relations else 0
    kept = []  # (pivot column, row followed by its combination)
    for i, row in enumerate(rows):
        n = len(row)
        if q is None:
            den = math.lcm(*[x.denominator for x in row])
            w = [x.numerator * (den // x.denominator) for x in row] + [0] * m
        else:
            den, w = 1, [x % q for x in row] + [0] * m
        if relations:
            w[n + i] = den
        for pc, r in kept:
            x = w[pc]
            if x:
                if q:
                    w = [(a - x * b) % q for a, b in zip(w, r)]
                else:
                    w = [r[pc] * a - x * b for a, b in zip(w, r)]
                    if (g := math.gcd(*w)) > 1:
                        w = [a // g for a in w]
        pc = next((j for j in range(n) if w[j]), None)
        if pc is not None:
            if q:
                inv = pow(w[pc], -1, q)
                w = [a * inv % q for a in w]
            kept.append((pc, w))
        elif not relations:
            yield i, None
        elif q:
            inv = pow(w[n + i], -1, q)
            yield i, [a * inv % q for a in w[n:]]
        else:
            c = w[n:]  # primitive after the gcd divisions (e_i for a zero row)
            yield i, c if c[i] > 0 else [-a for a in c]


def first_relation(field, rows: list):
    """The relation on the first row that lies in the span of the rows before it; None if independent.

    This is the first relation `_echelon` yields. When row i is the first
    that depends on the rows before it, rows 0..i-1 are independent, so the
    relation on rows 0..i is unique up to scale. It is returned over all
    rows, zero beyond i, as the primitive integer vector with c_i > 0 over QQ
    and with c_i = 1 over GF(q). That is `clear_denominators(nullspace(M)[0])`,
    resp. `nullspace(M)[0]`, for M the transpose of rows 0..i: the first
    kernel vector has a 1 at the first free column, which is row i.
    """
    return next((c for _, c in _echelon(field, rows)), None)


def rank(m: Matrix) -> int:
    return rank_of_rows(m.field, m.rows)


def nullspace(m: Matrix) -> list[list]:
    """Basis of the right kernel {x : m x = 0}, the one the reduced row echelon form gives.

    For each column j that depends on the columns before it, its relation
    (see `_echelon`) divided by its entry at j: 1 at j, and 0 at every later
    column and at every other dependent column, as in the RREF basis.
    Entries are Fractions over QQ and ints in [0, q) over GF(q).
    """
    cols = [list(col) for col in zip(*m.rows)]
    if isinstance(m.field, PrimeField):
        return [c for _, c in _echelon(m.field, cols)]
    return [[Fraction(x, c[j]) for x in c] for j, c in _echelon(m.field, cols)]


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


def _check_length(ambient_dim: int, vec: list) -> None:
    if len(vec) != ambient_dim:
        raise ValueError("vector length does not match ambient dimension")


def subspace_from_vectors(field, ambient_dim: int, vectors) -> Subspace:
    """The span of `vectors`, with the vectors that raise its dimension, in order, as basis.

    Each vector is reduced against a fully reduced pivot system (every row
    is zero at every other row's pivot, which is 1), so it lies in the span
    when it reduces to zero; otherwise its reduction joins the system.
    """
    f = field
    rows = []  # (pivot index, row with pivot normalized to 1)
    basis = []
    for vec in vectors:
        _check_length(ambient_dim, vec)
        v = list(vec)
        for piv, row in rows:
            c = v[piv]
            if f.is_zero(c):
                continue
            for j in range(ambient_dim):
                if not f.is_zero(row[j]):
                    v[j] = f.sub(v[j], f.mul(c, row[j]))
        piv = next((j for j, x in enumerate(v) if not f.is_zero(x)), None)
        if piv is None:
            continue
        inv = f.inv(v[piv])
        v = [f.mul(inv, x) for x in v]
        for k, (p, row) in enumerate(rows):
            c = row[piv]
            if not f.is_zero(c):
                rows[k] = (p, [f.sub(x, f.mul(c, y)) for x, y in zip(row, v)])
        rows.append((piv, v))
        basis.append(list(vec))
    return Subspace(field, ambient_dim, basis)


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
    return subspace_from_vectors(a.field, a.ambient_dim, a.basis + b.basis)


def sample_combination(field, vectors: list, bound: int, rng) -> tuple[list, list]:
    """Nonzero integer combination of `vectors` with coefficients in [-bound, bound].

    Returns (coefficients, vector). All-zero draws are skipped, and so is a
    draw whose combination vanishes, which only dependent vectors allow.
    Over QQ and ZZ the sums run on the entries' own operators, so int
    vectors give an int vector.
    """
    n = len(vectors[0])
    native = isinstance(field, (RationalField, IntegerRing))
    for _ in range(64):
        coeffs = [rng.randint(-bound, bound) for _ in range(len(vectors))]
        if not any(coeffs):
            continue
        out = [0 if native else field.zero] * n
        for c, v in zip(coeffs, vectors):
            if c and native:
                out = [o + c * x for o, x in zip(out, v)]
            elif c:
                fc = field.of(c)
                out = [field.add(o, field.mul(fc, x)) for o, x in zip(out, v)]
        if any(out) if native else any(not field.is_zero(x) for x in out):
            return coeffs, out
    raise RuntimeError("could not sample a nonzero span element")


def solve_membership(s: Subspace, v: list):
    """Coordinates of v in s.basis, or None when v is outside s.

    They are read off the relation of v over s.basis + [v] (see `_echelon`),
    Fractions over QQ and ints in [0, q) over GF(q).
    """
    _check_length(s.ambient_dim, v)
    k = s.dim
    rel = next((c for i, c in _echelon(s.field, s.basis + [v]) if i == k), None)
    if rel is None:
        return None
    if isinstance(s.field, PrimeField):
        return [-x % s.field.p for x in rel[:k]]
    return [Fraction(-x, rel[k]) for x in rel[:k]]


def subspace_contains(s: Subspace, v: list) -> bool:
    """Whether v lies in s: whether it has coordinates in s.basis (`solve_membership`)."""
    return solve_membership(s, v) is not None


def subspaces_equal(a: Subspace, b: Subspace) -> bool:
    """Equality of column spaces: each basis lies in the other subspace."""
    _check_compatible(a, b)
    return (all(subspace_contains(a, v) for v in b.basis)
            and all(subspace_contains(b, v) for v in a.basis))
