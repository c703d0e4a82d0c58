"""Matrices of linear forms: flattenings, catalecticants, Koszul flattenings.

A linear matrix map sends a vector F of the ambient tensor space to an a x b
matrix, linearly in F; its rank on chart points of a variety is the method
constant k, and ceil(rank M(F) / k) is the certified lower bound for border
rank and border cactus rank alike.

Conventions fixed here for determinism: wedge bases are ordered lexicographically
with signs from sorted-index insertion, and the pairing between dual monomials
and coefficients is plain coefficient extraction with no factorial weights, so
every map has integer (or, for a custom map, rational) coefficients.

Ranks of M(F) are taken on integer rows: `integer_image` evaluates
M(lambda * mu * F) over Z, with lambda clearing the denominators of F and mu
those of the map's coefficients (computed once per map). When every cell
of the map has at most one term, as in every builtin map, the rows are
gathered from the distinct terms c * F[w] through a table cached on the
map (`LinearMatrixMap.gather`); otherwise they are summed cell by cell.
Those rows give the rational rank and, reduced mod p, the rank screen's
(`map_rank` with a `prime`: a prime is an int). A Koszul flattening with
square slices, at least 12 x 12, is ranked without building M(F): through
its first invertible slice (`koszul_ranks`), M(F) has the rank of a
block-diagonal part plus that of a smaller Schur complement. `evaluate_map`
builds M(F) over QQ, summing Fraction entries on their own operators, for
callers that need them, such as factor subspaces; its positional `QQ` and
the `Matrix` it returns stay for the benchmark, which passes the one and
reads the other's size, until the program times its own layers (ROADMAP
item 11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from operator import mul

from .exactalg import (Matrix, clear_denominators, common_denominator, rank_and_minor, rank_mod_p,
                       rank_of_rows)
from .fields import QQ, RationalField
from .varieties import (
    VarietyParam,
    homogeneous_exponents,
    homogeneous_index,
    random_point,
)


class MethodSpecError(ValueError):
    """Raised for malformed or incompatible method specs."""


@dataclass
class LinearMatrixMap:
    """Linear map W -> (a x b matrices), stored as sparse cells per W-coordinate.

    ``cells[w]`` lists (row, col, coeff) triples; M(F)[i][j] is the sum of
    coeff * F[w] over all cells, so linearity in F is structural.
    """

    a: int
    b: int
    w: int
    cells: dict
    w_shape: tuple | None = None
    spec: str | None = None
    koszul: tuple | None = None  # (shape, p) of a builtin Koszul flattening

    @cached_property
    def integer_cells(self) -> tuple[int, dict]:
        """(mu, cells with every coefficient times mu, as ints).

        mu is the least common denominator of the coefficients: 1 for the
        builtin maps, possibly more for a custom map's rational cells.
        """
        mu = common_denominator([c for cs in self.cells.values() for _, _, c in cs])
        return mu, {w: [(i, j, c.numerator * (mu // c.denominator)) for i, j, c in cs]
                    for w, cs in self.cells.items()}

    @cached_property
    def gather(self) -> tuple[list, list] | None:
        """(terms, rows) locating each cell's one term of `integer_cells`, or None.

        ``terms`` lists the distinct (w, c) pairs, and ``rows[i][j]`` is the
        index in ``terms`` of the term of cell (i, j), or ``len(terms)`` for a
        cell with none. None when some cell has more than one term.
        """
        terms: dict = {}
        rows = [[None] * self.b for _ in range(self.a)]
        for w, cs in self.integer_cells[1].items():
            for i, j, c in cs:
                if rows[i][j] is not None:
                    return None
                rows[i][j] = terms.setdefault((w, c), len(terms))
        empty = len(terms)
        return list(terms), [[empty if k is None else k for k in row] for row in rows]


def _check_length(m: LinearMatrixMap, vec: list) -> None:
    if len(vec) != m.w:
        raise ValueError(f"vector length {len(vec)} does not match W-dimension {m.w}")


def integer_image(m: LinearMatrixMap, vec: list, prime: int | None = None) -> list[list[int]]:
    """Rows of M(lambda * mu * F) as ints, for a W-vector F of rationals or ints.

    lambda clears the denominators of F and mu those of the map (see
    `LinearMatrixMap.integer_cells`). The scaling keeps the rank over QQ,
    and the rank mod `prime` when the prime divides neither; when it divides
    one, ZeroDivisionError is raised, as `exactalg.common_denominator` raises it.
    """
    _check_length(m, vec)
    mu, cells = m.integer_cells
    if prime is not None and mu % prime == 0:
        raise ZeroDivisionError(f"a coefficient denominator of {m.spec} vanishes mod {prime}")
    f = clear_denominators(vec, prime)
    if m.gather is not None:
        terms, rows = m.gather
        values = [c * f[w] for w, c in terms]
        values.append(0)
        return [[values[k] for k in row] for row in rows]
    out = [[0] * m.b for _ in range(m.a)]
    for w, cs in cells.items():
        fw = f[w]
        if fw:
            for (i, j, c) in cs:
                out[i][j] += c * fw
    return out


def map_rank(m: LinearMatrixMap, vec: list, prime: int | None = None) -> int:
    """rank M(F) over QQ, or mod `prime` when given, taken on the integer image of M."""
    rows = integer_image(m, vec, prime)
    return rank_of_rows(QQ, rows) if prime is None else rank_mod_p(rows, prime)


def evaluate_map(m: LinearMatrixMap, vec: list, field=QQ) -> Matrix:
    """The a x b matrix M(F) of Fractions for a W-vector F of ints or Fractions.

    `field` must be QQ; any other raises TypeError (ranks mod p take
    `integer_image`).
    """
    if not isinstance(field, RationalField):
        raise TypeError(f"no M(F) over {field!r}")
    _check_length(m, vec)
    zero = Fraction(0)
    out = [[zero] * m.b for _ in range(m.a)]
    for w, cs in m.cells.items():
        fw = vec[w]
        if fw:
            for (i, j, c) in cs:
                out[i][j] += fw * c
    return Matrix(field, out)


def _strides(shape) -> list[int]:
    strides = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    return strides


def _flat_index(idx, strides) -> int:
    return sum(i * s for i, s in zip(idx, strides))


def _unflatten(w: int, shape, strides) -> tuple:
    return tuple((w // s) % d for s, d in zip(strides, shape))


def flattening(shape, row_modes) -> LinearMatrixMap:
    """Reshape of a dense tensor as a matrix between two groups of modes."""
    shape = tuple(shape)
    nmodes = len(shape)
    row_modes = tuple(sorted(row_modes))
    col_modes = tuple(m for m in range(nmodes) if m not in row_modes)
    if not row_modes or not col_modes or len(set(row_modes)) != len(row_modes):
        raise MethodSpecError(f"split {row_modes} is not a proper bipartition of {nmodes} modes")
    if any(m < 0 or m >= nmodes for m in row_modes):
        raise MethodSpecError(f"split {row_modes} is out of range for {nmodes} modes")
    a = math.prod(shape[m] for m in row_modes)
    b = math.prod(shape[m] for m in col_modes)
    strides = _strides(shape)
    rstr = _strides([shape[m] for m in row_modes])
    cstr = _strides([shape[m] for m in col_modes])
    total = math.prod(shape)
    cells = {}
    for w in range(total):
        idx = _unflatten(w, shape, strides)
        r = _flat_index([idx[m] for m in row_modes], rstr)
        c = _flat_index([idx[m] for m in col_modes], cstr)
        cells[w] = [(r, c, 1)]
    spec = "flattening:split=" + _format_split(row_modes, col_modes)
    return LinearMatrixMap(a, b, total, cells, w_shape=shape, spec=spec)


def _format_split(row_modes, col_modes) -> str:
    def side(ms):
        ms = [m + 1 for m in ms]
        if all(m <= 9 for m in ms):
            return "".join(str(m) for m in ms)
        return ",".join(str(m) for m in ms)

    return side(row_modes) + "|" + side(col_modes)


def catalecticant(nvars: int, degree: int, i: int) -> LinearMatrixMap:
    """Contraction of a degree-d form by degree-i dual monomials, by coefficient extraction.

    Rows are indexed by degree-(d-i) monomials, columns by degree-i dual
    monomials; the (b, a) entry of M(F) is the coefficient of x^(a+b) in F.
    """
    if nvars < 1:
        raise MethodSpecError("need at least one variable")
    if not 1 <= i <= degree - 1:
        raise MethodSpecError(f"catalecticant index i={i} must satisfy 1 <= i <= {degree - 1}")
    n = nvars - 1
    rows = homogeneous_exponents(n, degree - i)
    cols = homogeneous_exponents(n, i)
    w = math.comb(n + degree, degree)
    cells: dict = {}
    for ci, ce in enumerate(cols):
        for ri, re in enumerate(rows):
            e = tuple(x + y for x, y in zip(ce, re))
            wi = homogeneous_index(n, degree, e)
            cells.setdefault(wi, []).append((ri, ci, 1))
    return LinearMatrixMap(len(rows), len(cols), w, cells,
                           w_shape=(w,), spec=f"catalecticant:i={i}")


def koszul_flattening(shape, p: int) -> LinearMatrixMap:
    """Wedge-augmented contraction of a 3-tensor over its first mode.

    Maps (p-wedge of the first factor) x (dual of the second) to
    ((p+1)-wedge of the first factor) x (third), by inserting the first-mode
    basis vector into the wedge with the sorted-insertion sign.
    """
    shape = tuple(shape)
    if len(shape) != 3:
        raise MethodSpecError("koszul flattening needs a 3-mode shape")
    a, b, c = shape
    if not 1 <= p <= a - 1:
        raise MethodSpecError(f"koszul index p={p} must satisfy 1 <= p <= {a - 1}")
    cols_w = list(combinations(range(a), p))
    rows_w = list(combinations(range(a), p + 1))
    col_idx = {s: k for k, s in enumerate(cols_w)}
    row_idx = {s: k for k, s in enumerate(rows_w)}
    strides = _strides(shape)
    cells: dict = {}
    for i in range(a):
        for s in cols_w:
            if i in s:
                continue
            sign = _insertion_sign(i, s)
            srow = tuple(sorted(s + (i,)))
            for j in range(b):
                for l in range(c):
                    w = i * strides[0] + j * strides[1] + l * strides[2]
                    cells.setdefault(w, []).append(
                        (row_idx[srow] * c + l, col_idx[s] * b + j, sign)
                    )
    return LinearMatrixMap(len(rows_w) * c, len(cols_w) * b, a * b * c, cells,
                           w_shape=shape, spec=f"koszul:p={p}", koszul=(shape, p))


SCHUR_MIN_SIDE = 12  # the smallest side of M(F) at which `koszul_ranks` pays; see there


def _insertion_sign(i: int, s: tuple) -> int:
    """The sign of e_i inserted into the sorted wedge e_s: -1 past an odd number of indices."""
    return -1 if sum(1 for x in s if x < i) % 2 else 1


@cache
def _schur_blocks(a: int, p: int, x: int) -> tuple[int, int, list]:
    """(row blocks, column blocks, nonzero blocks) of the Schur complement of `koszul_ranks`.

    Row blocks are the (p+1)-sets T, and column blocks the (p-1)-sets v, of
    the indices other than x, in lexicographic order. A block (T, v) is
    nonzero only for v inside T, T = v + {i, j}, i < j. It sums two terms
    C[T, s] A[s]^-1 B[s, u], times det K_x: one for s = T - {i}, u = s +
    {x} - {j}, which is +-K_i adj(K_x) K_j, and the same with i and j
    swapped. Each term's sign is a product of three insertion signs, and
    swapping i and j flips it once for each of the pairs {i, j}, {i, x} and
    {j, x}, so the two signs are opposite. The block is thus
    sign * (K_i adj(K_x) K_j - K_j adj(K_x) K_i), listed as (T's index,
    v's index, sign, i, j).
    """
    others = [y for y in range(a) if y != x]
    row_idx = {t: k for k, t in enumerate(combinations(others, p + 1))}
    col_idx = {v: k for k, v in enumerate(combinations(others, p - 1))}
    blocks = []
    for s in combinations(others, p):
        sign_a = _insertion_sign(x, s)
        for i in others:
            if i in s:
                continue
            sign_c = _insertion_sign(i, s)
            t = tuple(sorted(s + (i,)))
            for j in s:
                if i < j:
                    v = tuple(y for y in s if y != j)
                    u = tuple(sorted(v + (x,)))
                    blocks.append((row_idx[t], col_idx[v],
                                   sign_c * sign_a * _insertion_sign(j, u), i, j))
    return len(row_idx), len(col_idx), blocks


def _adjugate_solve(g: list[list[int]], rhs: list[list[int]]) -> tuple[int, list]:
    """(d, d * g^-1 * rhs) with d = +-det g, for an invertible g.

    Fraction-free Gauss-Jordan on [g | rhs] (Bareiss's division by the
    previous pivot, on the rows above the pivot too): every division is
    exact, and the last pivot is det g, its sign flipped by each row swap.
    g must be invertible: `koszul_ranks` passes only a slice that
    `rank_and_minor` has found to have full rank.
    """
    n = len(g)
    w = [gr + rr for gr, rr in zip(g, rhs)]
    prev = 1
    for k in range(n):
        piv = next(i for i in range(k, n) if w[i][k])
        w[k], w[piv] = w[piv], w[k]
        wk = w[k]
        pk = wk[k]
        for i in range(n):
            if i != k:
                wi = w[i]
                c = wi[k]
                w[i] = wi[:k + 1] + [(pk * e - c * f) // prev
                                     for e, f in zip(wi[k + 1:], wk[k + 1:])]
        prev = pk
    return prev, [row[n:] for row in w]


def koszul_ranks(m: LinearMatrixMap, f: list[int], prime: int | None = None) -> tuple | None:
    """(rank, fp_rank) of M(F) for a Koszul flattening, through an invertible slice; or None.

    Let M be `koszul_flattening(shape, p)` with square slices, shape
    (a, n, n): the blocks of M(F) are +-K_i, K_i[l][j] = F[i, j, l]. Let K_x
    be the first invertible slice. Order the columns s of the p-wedge by
    x not in s, then x in s, and the rows S of the (p+1)-wedge by x in S,
    then x not in S. Then M(F) = [[A, B], [C, 0]] (Strassen, Linear Algebra
    Appl. 52/53, 1983): A is block-diagonal with C(a-1, p) blocks +-K_x
    (row s + {x} for column s), and the corner is zero, since x in s and
    s in S put x in S. So rank M(F) = C(a-1, p) * n + rank(C A^-1 B), and
    C A^-1 B is +-1 / det K_x times the Schur complement of `_schur_blocks`,
    a C(a-1, p+1) n x C(a-1, p-1) n matrix of ints (20 x 20 at a = 5,
    p = 2, for a 50 x 50 M(F)). Both blocks' ranks hold mod `prime` when it
    divides neither det K_x nor the Schur complement's last Bareiss pivot,
    a nonzero minor of it; fp_rank is then the rank (None without a prime).

    None, for the caller's elimination of all of M(F), when M is no Koszul
    flattening, the slices are not square or all singular, the prime
    divides det K_x or the pivot, or M(F) is smaller than SCHUR_MIN_SIDE
    on either side. The size rule is measured (2 cores, Python 3.11; ms for
    30 ranks mod 2^31 - 1, the best of 25 runs, all of M(F) against this).
    On the F of the bench ladder's Koszul rungs: segre:3x3x3 p=1 (9 x 9)
    1.2 vs 1.6, segre:4x4x4 p=1 (24 x 16) 6.5 vs 4.3 and p=2 5.9 vs 3.9,
    segre:5x5x5 p=1 (50 x 25) 31 vs 9.6 and p=2 (50 x 50) 133 vs 35. On F
    summing as many rank-one terms in [-9, 9] as the top informative degree,
    for a in 3..6 and n in 2..5: below 12 x 12, (3, 3, 3) p=1 2.1 vs 2.9,
    (4, 2, 2) p=1 1.8 vs 2.4, (5, 2, 2) p=3 2.8 vs 2.9, and every p = a - 1
    (n x a n, no Schur complement) 2.7 to 3.5 times slower; from 12 x 12 on,
    (3, 4, 4) p=1 5.0 vs 5.1 and (3, 5, 5) p=1 7.5 vs 7.4 tie, (4, 3, 3)
    p=2 4.4 vs 4.0, and every other shape gains 1.3 to 8.5 times.
    """
    _check_length(m, f)
    if m.koszul is None:
        return None
    (a, b, c), p = m.koszul
    if b != c or min(m.a, m.b) < SCHUR_MIN_SIDE:
        return None
    n = b
    slices = [[f[i * n * n + l:(i + 1) * n * n:n] for l in range(n)] for i in range(a)]
    x = next((i for i, g in enumerate(slices) if rank_and_minor(g)[0] == n), None)
    if x is None:
        return None
    others = [y for y in range(a) if y != x]
    d, sol = _adjugate_solve(slices[x], [[e for y in others for e in slices[y][l]]
                                         for l in range(n)])
    if prime is not None and d % prime == 0:
        return None
    nrows, ncols, blocks = _schur_blocks(a, p, x)
    # the columns of adj(K_x) K_y (up to the sign of d), then each commutator
    # K_i adj(K_x) K_j - K_j adj(K_x) K_i once
    solved = {y: list(zip(*[row[k * n:(k + 1) * n] for row in sol])) for k, y in enumerate(others)}
    commutators: dict = {}
    schur = [[0] * (ncols * n) for _ in range(nrows * n)]
    for t, v, sign, i, j in blocks:
        block = commutators.get((i, j))
        if block is None:
            block = commutators[i, j] = [
                [sum(map(mul, ri, cj)) - sum(map(mul, rj, ci))
                 for cj, ci in zip(solved[j], solved[i])]
                for ri, rj in zip(slices[i], slices[j])]
        lo = v * n
        for srow, brow in zip(schur[t * n:(t + 1) * n], block):
            srow[lo:lo + n] = brow if sign > 0 else [-e for e in brow]
    r, minor = rank_and_minor(schur)
    if prime is not None and minor % prime == 0:
        return None
    rank = math.comb(a - 1, p) * n + r
    return rank, None if prime is None else rank


@dataclass
class RankMethod:
    """A linear matrix map with its constant k on the target variety.

    ``k_source`` is "formula" for the builtin constructions and "empirical
    (lower estimate)" when k was estimated by random sampling; an empirical k
    can undershoot, which would overstate lower bounds, so reports must carry
    the label.
    """

    map: LinearMatrixMap
    k: int
    spec: str
    k_source: str = "formula"


def flattening_method(param: VarietyParam, row_modes) -> RankMethod:
    if len(param.factors) < 2:
        raise MethodSpecError("flattenings need at least two factors")
    m = flattening(param.factor_dims, row_modes)
    return RankMethod(m, 1, m.spec)


def catalecticant_method(param: VarietyParam, i: int) -> RankMethod:
    if len(param.factors) != 1:
        raise MethodSpecError("catalecticants apply to single-factor (Veronese) varieties")
    f = param.factors[0]
    m = catalecticant(f.n + 1, f.d, i)
    return RankMethod(m, 1, m.spec)


def koszul_method(param: VarietyParam, p: int) -> RankMethod:
    if len(param.factors) != 3 or any(f.d != 1 for f in param.factors):
        raise MethodSpecError("koszul flattenings apply to three-factor Segre varieties")
    shape = param.factor_dims
    m = koszul_flattening(shape, p)
    return RankMethod(m, math.comb(shape[0] - 1, p), m.spec)


def estimate_k(m: LinearMatrixMap, param: VarietyParam, trials: int, bound: int, rng) -> int:
    """Max rank of M over sampled chart points; a certified lower estimate of k."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if m.w != param.dim_W:
        raise MethodSpecError(
            f"map acts on W of dimension {m.w}, variety has dim W = {param.dim_W}"
        )
    best = 0
    for _ in range(trials):
        best = max(best, map_rank(m, random_point(param, bound, rng)))
    return best


def custom_method(m: LinearMatrixMap, param: VarietyParam, trials: int, bound: int,
                  rng, spec: str = "custom") -> RankMethod:
    k = estimate_k(m, param, trials, bound, rng)
    return RankMethod(m, k, spec, k_source="empirical (lower estimate)")


def check_k_consistency(method: RankMethod, param: VarietyParam, trials: int, bound: int, rng):
    """(max sampled rank, whether k was attained); sampled ranks must not exceed k."""
    best = 0
    for _ in range(trials):
        r = map_rank(method.map, random_point(param, bound, rng))
        if r > method.k:
            raise ArithmeticError(
                f"method {method.spec} claims k={method.k} but a chart point has rank {r}"
            )
        best = max(best, r)
    return best, best == method.k


def builtin_methods(param: VarietyParam, koszul_ps=(1,)) -> list[RankMethod]:
    """The standard method zoo applicable to a variety.

    All flattenings over factor bipartitions, all catalecticants for a single
    Veronese factor, and Koszul flattenings (for the given p values) on
    three-factor Segre varieties.
    """
    out = []
    nf = len(param.factors)
    if nf >= 2:
        others = range(1, nf)
        for r in range(0, nf - 1):
            for extra in combinations(others, r):
                row_modes = (0,) + extra
                if len(row_modes) < nf:
                    out.append(flattening_method(param, row_modes))
    else:
        f = param.factors[0]
        for i in range(1, f.d):
            out.append(catalecticant_method(param, i))
    if nf == 3 and all(f.d == 1 for f in param.factors):
        for p in koszul_ps:
            if 1 <= p <= param.factor_dims[0] - 1:
                out.append(koszul_method(param, p))
    return out


def parse_split(text: str, nmodes: int):
    sides = text.split("|")
    if len(sides) != 2:
        raise MethodSpecError(f"split {text!r} must have exactly one '|'")

    def side(s):
        if "," in s:
            parts = s.split(",")
        else:
            parts = list(s)
        try:
            return tuple(int(p) - 1 for p in parts)
        except ValueError:
            raise MethodSpecError(f"bad split side {s!r}") from None

    rows, cols = side(sides[0]), side(sides[1])
    if sorted(rows + cols) != list(range(nmodes)):
        raise MethodSpecError(f"split {text!r} is not a bipartition of modes 1..{nmodes}")
    return rows


def parse_method(spec: str, param: VarietyParam) -> RankMethod:
    """Build a flattening, catalecticant or Koszul method from its spec for a given variety."""
    s = spec.replace(" ", "")
    if s.startswith("flattening:split="):
        rows = parse_split(s[len("flattening:split="):], len(param.factors))
        return flattening_method(param, rows)
    if s.startswith("catalecticant:i="):
        try:
            i = int(s[len("catalecticant:i="):])
        except ValueError:
            raise MethodSpecError(f"bad catalecticant spec {spec!r}") from None
        return catalecticant_method(param, i)
    if s.startswith("koszul:p="):
        try:
            p = int(s[len("koszul:p="):])
        except ValueError:
            raise MethodSpecError(f"bad koszul spec {spec!r}") from None
        return koszul_method(param, p)
    raise MethodSpecError(f"unknown method spec {spec!r}")


@dataclass
class DenseTensor:
    """Dense tensor with an explicit shape; entries are rationals, row-major."""

    shape: tuple
    entries: list

    def __post_init__(self):
        self.shape = tuple(self.shape)
        total = math.prod(self.shape)
        if len(self.entries) != total:
            raise ValueError(f"{len(self.entries)} entries for shape {self.shape} (need {total})")
        self.entries = [x if type(x) is Fraction else Fraction(x) for x in self.entries]

    @property
    def w_dim(self) -> int:
        return len(self.entries)

    def to_vector(self) -> list:
        return list(self.entries)

    @classmethod
    def zero(cls, shape) -> "DenseTensor":
        return cls(tuple(shape), [Fraction(0)] * math.prod(shape))

    @classmethod
    def diagonal(cls, shape, r: int) -> "DenseTensor":
        """Sum of the first r unit coordinate products e_i x ... x e_i."""
        shape = tuple(shape)
        if r > min(shape):
            raise ValueError(f"diagonal length {r} exceeds min dim of {shape}")
        t = cls.zero(shape)
        strides = _strides(shape)
        for i in range(r):
            t.entries[sum(i * s for s in strides)] = Fraction(1)
        return t


@dataclass
class SymmetricForm:
    """Homogeneous form given by a monomial-to-coefficient map.

    Embeds into the ambient space of the degree-d Veronese of n = nvars - 1
    chart variables using the same monomial order as the chart map, so the
    catalecticant of a chart-point image always has rank one.
    """

    nvars: int
    degree: int
    terms: dict

    def __post_init__(self):
        clean = {}
        for exps, c in self.terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars or sum(exps) != self.degree or any(e < 0 for e in exps):
                raise ValueError(f"bad degree-{self.degree} monomial {exps}")
            c = Fraction(c)
            if c:
                clean[exps] = clean.get(exps, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c}

    @property
    def w_dim(self) -> int:
        return math.comb(self.nvars - 1 + self.degree, self.degree)

    def to_vector(self) -> list:
        n = self.nvars - 1
        out = [Fraction(0)] * self.w_dim
        for exps, c in self.terms.items():
            out[homogeneous_index(n, self.degree, exps)] = c
        return out
