"""Exact dense linear algebra: ranks, kernels, spans, span sampling.

One elimination serves every rank, relation and solve: `bareiss`, a
column-scan fraction-free (Bareiss, Math. Comp. 22, 1968) elimination of
plain Python ints, which divides only exactly. Rational rows are cleared of
denominators first, through `.numerator` and `.denominator` (`clear_rows`).
A column with no pivot depends on the columns before it:

- Ranks over QQ are its pivot count, and its last pivot is, up to sign, an
  r x r minor, r the rank (`rank_and_minor`). `rank_of_rows` clears all
  rows over one common denominator, and m rows of more than 2m entries stop
  at rank m of their first 2m columns (exact; see there). The barrier check
  ranks the integer rows of M(F) (see `rankmethods.integer_image`) once, by
  `rank_qq_and_mod_p`, which takes int rows as they are: when the prime does
  not divide the minor, the rank mod p is r as well. A Koszul flattening
  ranks a smaller Schur complement by the same rule instead (see
  `rankmethods.koszul_ranks`).
- Mod a prime q it runs on ints mod q, each pivot scaled to 1, and gives
  no relations: `rank_mod_p` is its pivot count. A prime is only ever such a
  modulus for ranks of int rows: no span or relation is built mod p.
- With `relations` it also reduces the rows above each pivot (Gauss-Jordan)
  and lists each dependent column's relation on the pivot columns before
  it. `nullspace` is the relations of a matrix's dependent columns;
  `first_dependent` the first one of the transpose, where the scan stops:
  the first row that lies in the span of the rows before it, whose
  relation `first_relation` (one t-saturation step) makes primitive. The
  solve through a Koszul flattening's invertible slice is the relations of
  the other slices' columns (`rankmethods.koszul_ranks`).

Span vectors of integral chart points arrive as ints (chart maps take their
arithmetic from their coordinates; see `varieties`), and `clear_rows` copies
rows of ints without a denominator pass. A barrier trial clears its span
vectors once and stays on ints: `sample_combination` sums on the entries'
own operators. Spans and factor subspaces (`subspace_from_vectors`, always
over QQ) still run a reduced row echelon form, on the entries' own operators
too: ints and Fractions, scaled by the Fraction inverse of each pivot. It
stops reading vectors once the span is the whole ambient space, which no
later vector can enlarge, so later vectors are neither reduced nor
length-checked. Ranks over QQ[t] (generic ranks of one-parameter families)
are the largest of enough integer specializations of t, each ranked over
QQ.

The benchmark's tracer reads the first argument of `rank_of_rows(field,
rows)` as the field, and wraps `rank` and `nullspace`, which take a
`Matrix` with its `field`; those signatures stay until the program times
its own layers (ROADMAP item 11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from fractions import Fraction

from .fields import QQ, PolyRing, RationalField, is_probable_prime

DEFAULT_PRIME = 2**31 - 1


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


def bareiss(a: list[list[int]], n: int | None = None, q: int | None = None, relations: bool = False,
            first: bool = False) -> tuple[int, int, list]:
    """Eliminate the int rows `a`, of n columns, in place, column by column: (rank, d, dependent).

    n defaults to the length of the first row (0 without rows). d is the
    last pivot: up to sign the rank x rank minor on the pivot rows and
    columns (1 at rank 0). The pivot of a column is the first row at or
    below the rank that is nonzero there; a column with none depends on the
    columns before it. Each row below the pivot is updated by Bareiss's
    step, divided exactly by the previous pivot. A row with a zero in the
    pivot column is skipped instead of multiplied through: level[i] is the
    pivot that last updated row i (1 if none), so its Bareiss entries are the
    stored ones times prev / level[i]. Updating the row, or rescaling it when
    it becomes the pivot row, divides by level[i] exactly; so every pivot is
    a true Bareiss entry, and by Sylvester's identity d is the minor.

    Without `relations`, dependent is empty and the scan stops at full row
    rank. With `relations` the rows above each pivot are updated the same
    way (Gauss-Jordan), so at a dependent column j the Bareiss entry of row
    t is d times the coefficient of the t-th pivot column in column j.
    dependent lists (j, c) for each dependent column j: c is -d at j, those
    entries at the pivot columns, and 0 elsewhere, the one relation on
    column j and the pivot columns before it, up to scale. With `first`
    too, the scan stops at the first dependent column, and rank and d are
    those of the columns before it.

    With a prime `q` the rows must be reduced mod q already: each pivot row
    is scaled to pivot 1, the steps run mod q, and d is 1.
    """
    m = len(a)
    if n is None:
        n = len(a[0]) if a else 0
    level = [1] * m
    cols = []  # pivot column of each row above the rank
    dependent = []
    rank = 0
    prev = 1
    for col in range(n):
        piv = rank if rank < m and a[rank][col] else next(
            (i for i in range(rank + 1, m) if a[i][col]), None)
        if piv is None:
            if relations:
                c = [0] * n
                for t, p in enumerate(cols):
                    c[p] = a[t][col] * prev // level[t]
                c[col] = -prev
                dependent.append((col, c))
                if first:
                    break
            continue
        a[rank], a[piv] = a[piv], a[rank]
        level[rank], level[piv] = level[piv], level[rank]
        ar = a[rank]
        d = level[rank]
        if q:
            inv = pow(ar[col], -1, q)
            for j in range(col, n):
                ar[j] = ar[j] * inv % q
        elif d != prev:
            for j in range(col, n):
                ar[j] = ar[j] * prev // d
        pv = level[rank] = ar[col]
        for i in chain(range(rank), range(rank + 1, m)) if relations else range(rank + 1, m):
            ai = a[i]
            x = ai[col]
            if x:
                if q:
                    for j in range(col + 1, n):
                        ai[j] = (ai[j] - x * ar[j]) % q
                else:
                    d = level[i]
                    for j in range(col + 1, n):
                        ai[j] = (pv * ai[j] - x * ar[j]) // d
                    level[i] = pv
        prev = pv
        cols.append(col)
        rank += 1
        if rank == m and not relations:
            break
    return rank, prev, dependent


def _full_on_prefix(rows: list) -> bool:
    # m rows of more than 2m entries with rank m on their first 2m columns:
    # a nonzero m x m minor there is one of the whole rows
    m = len(rows)
    return len(rows[0]) > 2 * m and bareiss(clear_rows([r[:2 * m] for r in rows])[1])[0] == m


def common_denominator(xs, prime: int | None = None) -> int:
    """Least common denominator of the rationals (or ints) `xs`.

    With `prime`, a denominator that the prime divides raises
    ZeroDivisionError, naming the first such entry of `xs`: `xs` has no
    image mod the prime. This is the one place that decides it.
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
    """Exact rank of a list of row vectors over `field`, QQ or QQ[t].

    Over QQ the rows may hold Fractions or ints, and m rows of n > 2m
    entries stop at rank m of their first 2m columns: a nonzero m x m minor
    there is one of the whole matrix, and m rows cap the rank. Only a
    smaller rank goes on. Over QQ[t] (`POLY`), the
    rank is the one over the fraction field of QQ[t] (the generic rank),
    taken from specializations. Let d be the largest entry degree and
    D = min(#rows, #cols) * d. Every r x r minor is a polynomial of degree
    at most r * d <= D, and a nonzero polynomial of degree at most D is
    nonzero at one of any D + 1 points. Specializing never raises a rank,
    so the largest rank over QQ among t = 1, ..., D + 1 is the generic rank.
    """
    rows = [row for row in rows if row]
    if not rows:
        return 0
    if isinstance(field, RationalField):
        return len(rows) if _full_on_prefix(rows) else bareiss(clear_rows(rows)[1])[0]
    if isinstance(field, PolyRing):
        full = min(len(rows), len(rows[0]))
        points = full * max(max(len(e) for row in rows for e in row) - 1, 0) + 1
        best = 0
        for x in range(1, points + 1):
            at_x = [[_horner(e, x) for e in row] for row in rows]
            best = max(best, rank_of_rows(QQ, at_x))
            if best == full:
                break
        return best
    raise TypeError(f"no rank routine for {field!r}")


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank mod the prime p of int rows, on their side with fewer rows; a composite p is a ValueError."""
    if not is_probable_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    tall = rows and len(rows) > len(rows[0])
    return bareiss([[x % p for x in row] for row in (zip(*rows) if tall else rows)], q=p)[0]


def rank_qq_and_mod_p(rows: list[list[int]], p: int) -> tuple[int, int]:
    """(rank over QQ, rank mod the prime p) of rows of ints, by one elimination.

    The rows are ranked by Bareiss elimination, whose last pivot is an
    r x r minor of the rows, r the rational rank. If p does not divide that
    minor, the rank mod p is at least r; it is never more than the rational
    rank, since a minor that is nonzero mod p is nonzero. So it is r, and
    only when p divides the minor are the rows ranked again, mod p
    (`rank_mod_p`). When rows outnumber columns the transpose is eliminated
    instead, on the side with fewer rows: it has the same ranks, and its
    minors are the rows'.
    """
    r, minor = rank_and_minor(rows)
    if minor % p:
        return r, r
    return r, rank_mod_p(rows, p)


def rank_and_minor(rows: list[list[int]]) -> tuple[int, int]:
    """(rank, last Bareiss pivot) of rows of ints, which are left as they are.

    The pivot is, up to sign, an r x r minor of the rows, r the rank (1 at
    rank 0). When rows outnumber columns the transpose is eliminated, the
    side with fewer rows.
    """
    tall = rows and len(rows) > len(rows[0])
    return bareiss([list(row) for row in zip(*rows)] if tall else [row[:] for row in rows])[:2]


def first_dependent(rows: list) -> tuple[int, list] | None:
    """(i, c) for the first row i in the span of the rows before it; None if the rows are independent.

    m rows of more than 2m entries that have rank m on their first 2m
    columns are independent, as in `rank_of_rows`, and nothing more is
    eliminated. Otherwise the rows, cleared over one common denominator,
    are the columns of a `bareiss` scan with relations that stops at the
    first dependent column: row i, with c its relation (c_i != 0, and c is
    zero beyond i).
    """
    if rows and _full_on_prefix(rows):
        return None
    dependent = bareiss(clear_rows(list(zip(*rows)))[1], len(rows), relations=True, first=True)[2]
    return dependent[0] if dependent else None


def first_relation(rows: list):
    """The relation on the first row that lies in the span of the rows before it; None if independent.

    When row i is the first that depends on the rows before it
    (`first_dependent`), rows 0..i-1 are independent, so the relation on
    rows 0..i is unique up to scale. It is returned over all rows, zero
    beyond i, as the primitive integer vector with c_i > 0. That is
    `clear_denominators(nullspace(M)[0])`, for M the transpose of rows
    0..i: the first kernel vector has a 1 at the first free column, which
    is row i.
    """
    found = first_dependent(rows)
    if found is None:
        return None
    i, c = found
    g = math.gcd(*c)
    return [x // g for x in c] if c[i] > 0 else [-x // g for x in c]


def rank(m: Matrix) -> int:
    return rank_of_rows(m.field, m.rows)


def nullspace(m: Matrix) -> list[list]:
    """Basis over QQ of the right kernel {x : m x = 0}, the one the reduced row echelon form gives.

    For each column j that depends on the columns before it, its relation
    (see `bareiss`) divided by its entry at j: 1 at j, and 0 at every later
    column and at every other dependent column, as in the RREF basis. The
    rows are cleared over one common denominator first, which keeps the
    kernel. Entries are Fractions; `m.field` must be QQ.
    """
    if not isinstance(m.field, RationalField):
        raise TypeError(f"no kernel over {m.field!r}")
    return [[Fraction(x, c[j]) for x in c] for j, c in bareiss(clear_rows(m.rows)[1], relations=True)[2]]


@dataclass
class Subspace:
    """A linear subspace over QQ given by an independent list of spanning vectors.

    Dimensions here are always vector-space (cone) dimensions.
    """

    ambient_dim: int
    basis: list

    @property
    def dim(self) -> int:
        return len(self.basis)


def _check_length(ambient_dim: int, vec: list) -> None:
    if len(vec) != ambient_dim:
        raise ValueError("vector length does not match ambient dimension")


def subspace_from_vectors(ambient_dim: int, vectors) -> Subspace:
    """The span over QQ of `vectors`, with the vectors that raise its dimension, in order, as basis.

    Each vector is reduced against a fully reduced pivot system (every row
    is zero at every other row's pivot, which is 1), so it lies in the span
    when it reduces to zero; otherwise its reduction joins the system.
    Reading stops once the basis has `ambient_dim` vectors: a span equal to
    its ambient space cannot grow, so the basis is the one a full read
    gives. Vectors after that point are not read, so they are not
    length-checked either, and a lazy `vectors` is not advanced past it.
    Entries are ints or Fractions.
    """
    rows = []  # (pivot index, row with pivot normalized to 1)
    basis = []
    for vec in vectors:
        _check_length(ambient_dim, vec)
        v = list(vec)
        for piv, row in rows:
            c = v[piv]
            if c:
                v = [x - c * y if y else x for x, y in zip(v, row)]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            continue
        inv = 1 / Fraction(v[piv])
        v = [inv * x for x in v]
        for k, (p, row) in enumerate(rows):
            c = row[piv]
            if c:
                rows[k] = (p, [x - c * y for x, y in zip(row, v)])
        rows.append((piv, v))
        basis.append(list(vec))
        if len(basis) == ambient_dim:
            break
    return Subspace(ambient_dim, basis)


def sample_combination(vectors: list, bound: int, rng) -> tuple[list, list]:
    """Nonzero integer combination of `vectors` with coefficients in [-bound, bound].

    Returns (coefficients, vector). All-zero draws are skipped, and so is a
    draw whose combination vanishes, which only dependent vectors allow.
    The entries are ints or Fractions, summed on their own operators, so
    int vectors give an int vector.
    """
    n = len(vectors[0])
    for _ in range(64):
        coeffs = [rng.randint(-bound, bound) for _ in range(len(vectors))]
        if not any(coeffs):
            continue
        out = [0] * n
        for c, v in zip(coeffs, vectors):
            if c:
                out = [o + c * x for o, x in zip(out, v)]
        if any(out):
            return coeffs, out
    raise RuntimeError("could not sample a nonzero span element")
