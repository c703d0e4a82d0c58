"""Independent brute-force oracles used to freeze expected values in the tests.

These deliberately avoid the library's construction paths: flattenings are
rebuilt by direct multi-index loops, catalecticants by dictionary lookup of
coefficients, Koszul flattenings through the alternating-tensor embedding,
jets by full (untruncated) convolution arithmetic on coefficient lists,
polynomial arithmetic by a schoolbook loop over the base ring's own methods,
and kernels, solves, membership and prime-field ranks by the field-element
eliminations the library ran before its fraction-free echelon.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

from cactusbarrier.exactalg import Matrix
from cactusbarrier.fields import QQ
from cactusbarrier.varieties import (
    homogeneous_exponents,
    monomial_exponents,
)


def perm_sign(perm) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def brute_flattening_matrix(shape, entries, row_modes) -> Matrix:
    """Reshape a flat row-major tensor as the (row_modes | rest) matrix."""
    shape = tuple(shape)
    row_modes = tuple(sorted(row_modes))
    col_modes = tuple(m for m in range(len(shape)) if m not in row_modes)
    rows_idx = list(product(*(range(shape[m]) for m in row_modes)))
    cols_idx = list(product(*(range(shape[m]) for m in col_modes)))
    strides = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    out = []
    for ri in rows_idx:
        row = []
        for ci in cols_idx:
            full = [0] * len(shape)
            for m, v in zip(row_modes, ri):
                full[m] = v
            for m, v in zip(col_modes, ci):
                full[m] = v
            row.append(Fraction(entries[sum(i * s for i, s in zip(full, strides))]))
        out.append(row)
    return Matrix(QQ, out)


def brute_catalecticant_matrix(nvars: int, degree: int, i: int, coeff_of) -> Matrix:
    """Hankel-style matrix: entry (b, a) is the coefficient of x^(a+b).

    `coeff_of` maps a homogeneous exponent tuple to a Fraction.
    """
    n = nvars - 1
    rows = homogeneous_exponents(n, degree - i)
    cols = homogeneous_exponents(n, i)
    out = []
    for re in rows:
        out.append([Fraction(coeff_of(tuple(x + y for x, y in zip(re, ce)))) for ce in cols])
    return Matrix(QQ, out)


def vector_coeff_lookup(nvars: int, degree: int, vec):
    """Coefficient accessor for a W-vector in the canonical monomial order."""
    n = nvars - 1
    index = {e: k for k, e in enumerate(homogeneous_exponents(n, degree))}

    def coeff_of(exps):
        return vec[index[tuple(exps)]]

    return coeff_of


def brute_koszul_matrix(shape, entries, p: int) -> Matrix:
    """Koszul contraction through the alternating embedding of wedges into tensor powers.

    Columns are indexed by (p-subset, second-mode index); rows live in the full
    (p+1)-fold tensor power of the first factor times the third factor, where
    a wedge is the signed sum over all orderings. Ranks agree with the
    wedge-basis matrix because the embedding is injective.
    """
    a, b, c = shape
    strides = (b * c, c, 1)

    def t(i, j, l):
        return Fraction(entries[i * strides[0] + j * strides[1] + l * strides[2]])

    cols = [(s, j) for s in combinations(range(a), p) for j in range(b)]
    nrows = a ** (p + 1) * c
    out_cols = []
    for (s, j) in cols:
        col = [Fraction(0)] * nrows
        for i in range(a):
            for l in range(c):
                coeff = t(i, j, l)
                if not coeff:
                    continue
                tup = (i,) + s
                for perm in permutations(range(p + 1)):
                    sign = perm_sign(perm)
                    ordered = tuple(tup[q] for q in perm)
                    flat = 0
                    for x in ordered:
                        flat = flat * a + x
                    col[flat * c + l] += sign * coeff
        out_cols.append(col)
    return Matrix(QQ, [[out_cols[cc][rr] for cc in range(len(out_cols))] for rr in range(nrows)])


def _pmul(x, y):
    out = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, bb in enumerate(y):
                out[i + j] += a * bb
    return out


def brute_jet_vectors(param, germ, length: int) -> list[list]:
    """Taylor coefficient vectors by full convolution, no truncation anywhere."""
    coords = []
    for j in range(param.dim_X):
        cs = [Fraction(germ.base[j])] + [Fraction(c[j]) for c in germ.coeffs]
        coords.append(cs)
    parts = []
    pos = 0
    for f in param.factors:
        u = coords[pos:pos + f.n]
        pos += f.n
        vec = []
        for exps in monomial_exponents(f.n, f.d):
            poly = [Fraction(1)]
            for var, e in zip(u, exps):
                for _ in range(e):
                    poly = _pmul(poly, var)
            vec.append(poly)
        parts.append(vec)
    w = parts[0]
    for nxt in parts[1:]:
        w = [_pmul(x, y) for x in w for y in nxt]
    return [[poly[m] if m < len(poly) else Fraction(0) for poly in w] for m in range(length)]


class SchoolbookPolyRing:
    """Dense univariate polynomials that touch coefficients only through the base ring.

    Every coefficient operation is a call of `base.add`, `base.mul` or
    `base.is_zero` (and `base.of` for constants); products are full
    convolutions, truncated only at the end. Elements are normalized tuples
    as in `fields.PolyRing`.
    """

    def __init__(self, base, trunc=None):
        self.base = base
        self.trunc = trunc

    def norm(self, cs) -> tuple:
        cs = list(cs)[: self.trunc] if self.trunc is not None else list(cs)
        while cs and self.base.is_zero(cs[-1]):
            cs.pop()
        return tuple(cs)

    def from_coeffs(self, coeffs) -> tuple:
        return self.norm(self.base.of(c) for c in coeffs)

    def add(self, a, b) -> tuple:
        out = [self.base.zero] * max(len(a), len(b))
        for p in (a, b):
            for i, c in enumerate(p):
                out[i] = self.base.add(out[i], c)
        return self.norm(out)

    def scale(self, c, a) -> tuple:
        return tuple(self.base.mul(c, x) for x in a)

    def sub(self, a, b) -> tuple:
        return self.add(a, self.scale(self.base.of(-1), b))

    def mul(self, a, b) -> tuple:
        out = [self.base.zero] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self.base.add(out[i + j], self.base.mul(x, y))
        return self.norm(out)


class ReducedEchelon:
    """Grows a subspace one vector at a time on field elements (Fractions over QQ).

    Keeps a fully reduced pivot system (every stored row is zero at every
    other stored pivot, which is 1), so membership is a single pass.
    """

    def __init__(self, field, ambient_dim: int):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows: list = []  # (pivot index, row with pivot normalized to 1)

    def residual(self, vec: list) -> list:
        f = self.field
        v = list(vec)
        for piv, row in self.rows:
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
        f = self.field
        v = self.residual(vec)
        piv = next((j for j, x in enumerate(v) if not f.is_zero(x)), None)
        if piv is None:
            return False
        inv = f.inv(v[piv])
        v = [f.mul(inv, x) for x in v]
        for k, (p, row) in enumerate(self.rows):
            c = row[piv]
            if not f.is_zero(c):
                self.rows[k] = (p, [f.sub(x, f.mul(c, y)) for x, y in zip(row, v)])
        self.rows.append((piv, v))
        return True


def reduced_echelon(field, rows: list, ncols: int) -> ReducedEchelon:
    ech = ReducedEchelon(field, ncols)
    for row in rows:
        ech.add(row)
    return ech


def rref_nullspace(field, rows: list, ncols: int) -> list[list]:
    """The RREF basis of {x : rows x = 0}: a 1 at each free column, minus its pivot entries."""
    pivots = reduced_echelon(field, rows, ncols).rows
    pivot_set = {pc for pc, _ in pivots}
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = [field.zero] * ncols
        v[j] = field.one
        for pc, row in pivots:
            v[pc] = field.neg(row[j])
        basis.append(v)
    return basis


def rref_solve_membership(field, basis: list, target: list):
    """Solve sum_i x_i * basis[i] = target with every free x_i zero; None when inconsistent."""
    k = len(basis)
    if k == 0:
        return [] if all(field.is_zero(x) for x in target) else None
    aug = [[b[r] for b in basis] + [target[r]] for r in range(len(target))]
    x = [field.zero] * k
    for pc, row in reduced_echelon(field, aug, k + 1).rows:
        if pc == k:
            return None
        x[pc] = row[k]
    return x


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank mod p of integer rows by column-by-column elimination with normalized pivots."""
    m = len(rows)
    if m == 0:
        return 0
    n = len(rows[0])
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col]), None)
        if piv is None:
            continue
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


def fraction_sample_combination(field, vectors, bound, rng):
    """The span sampler as it was written over field elements: (coefficients, vector).

    Same rng draws as `exactalg.sample_combination`; every sum runs on the
    field's own methods.
    """
    n = len(vectors[0])
    for _ in range(64):
        coeffs = [rng.randint(-bound, bound) for _ in range(len(vectors))]
        if not any(coeffs):
            continue
        out = [field.zero] * n
        for c, v in zip(coeffs, vectors):
            if c:
                fc = field.of(c)
                for j in range(n):
                    out[j] = field.add(out[j], field.mul(fc, v[j]))
        if any(not field.is_zero(x) for x in out):
            return coeffs, out
    raise RuntimeError("could not sample a nonzero span element")
