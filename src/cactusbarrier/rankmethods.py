"""Matrices of linear forms: flattenings, catalecticants, Koszul flattenings.

A linear matrix map sends a vector F of the ambient tensor space to an a x b
matrix, linearly in F; its rank on chart points of a variety is the method
constant k, and ceil(rank M(F) / k) is the certified lower bound for border
rank and border cactus rank alike.

Conventions fixed here for determinism: wedge bases are ordered lexicographically
with signs from sorted-index insertion, and the pairing between dual monomials
and coefficients is plain coefficient extraction with no factorial weights, so
everything stays exact in any characteristic.

Ranks of M(F) are taken on integer rows: `integer_image` evaluates
M(lambda * mu * F) over Z, with lambda clearing the denominators of F and mu
those of the map's coefficients (computed once per map). Those rows serve
the prime-field screen and the rational rank alike. `evaluate_map` keeps
building M(F) over a field for callers that need field elements, such as
factor subspaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .exactalg import Matrix, clear_denominators, common_denominator, rank_of_rows
from .fields import QQ, PrimeField
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

    @cached_property
    def integer_cells(self) -> tuple[int, dict]:
        """(mu, cells with every coefficient times mu, as ints).

        mu is the least common denominator of the coefficients: 1 for the
        builtin maps, possibly more for a custom map's rational cells.
        """
        mu = common_denominator([c for cs in self.cells.values() for _, _, c in cs])
        return mu, {w: [(i, j, c.numerator * (mu // c.denominator)) for i, j, c in cs]
                    for w, cs in self.cells.items()}


def integer_image(m: LinearMatrixMap, vec: list, prime: int | None = None) -> list[list[int]]:
    """Rows of M(lambda * mu * F) as ints, for a W-vector F of rationals or ints.

    lambda clears the denominators of F and mu those of the map (see
    `LinearMatrixMap.integer_cells`). The scaling keeps the rank over QQ,
    and the rank mod `prime` when the prime divides neither; when it divides
    one, ZeroDivisionError is raised, as `PrimeField.of` raises it.
    """
    if len(vec) != m.w:
        raise ValueError(f"vector length {len(vec)} does not match W-dimension {m.w}")
    mu, cells = m.integer_cells
    if prime is not None and mu % prime == 0:
        raise ZeroDivisionError(f"a coefficient denominator of {m.spec} vanishes mod {prime}")
    f = clear_denominators(vec, prime)
    out = [[0] * m.b for _ in range(m.a)]
    for w, cs in cells.items():
        fw = f[w]
        if fw:
            for (i, j, c) in cs:
                out[i][j] += c * fw
    return out


def map_rank(m: LinearMatrixMap, vec: list, field=QQ) -> int:
    """rank M(F) over QQ or a prime field, taken on the integer image of M."""
    prime = field.p if isinstance(field, PrimeField) else None
    return rank_of_rows(field, integer_image(m, vec, prime))


def evaluate_map(m: LinearMatrixMap, vec: list, field=QQ) -> Matrix:
    """The a x b matrix M(F) for a W-vector F over `field`."""
    if len(vec) != m.w:
        raise ValueError(f"vector length {len(vec)} does not match W-dimension {m.w}")
    out = [[field.zero] * m.b for _ in range(m.a)]
    for w, cs in m.cells.items():
        fw = vec[w]
        if field.is_zero(fw):
            continue
        for (i, j, c) in cs:
            out[i][j] = field.add(out[i][j], field.mul(fw, field.of(c)))
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
            pos = sum(1 for x in s if x < i)
            sign = -1 if pos % 2 else 1
            srow = tuple(sorted(s + (i,)))
            for j in range(b):
                for l in range(c):
                    w = i * strides[0] + j * strides[1] + l * strides[2]
                    cells.setdefault(w, []).append(
                        (row_idx[srow] * c + l, col_idx[s] * b + j, sign)
                    )
    return LinearMatrixMap(len(rows_w) * c, len(cols_w) * b, a * b * c, cells,
                           w_shape=shape, spec=f"koszul:p={p}")


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

    @property
    def is_empirical(self) -> bool:
        return self.k_source != "formula"


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


def estimate_k(m: LinearMatrixMap, param: VarietyParam, trials: int, bound: int,
               rng, field=QQ) -> int:
    """Max rank of M over sampled chart points; a certified lower estimate of k."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if m.w != param.dim_W:
        raise MethodSpecError(
            f"map acts on W of dimension {m.w}, variety has dim W = {param.dim_W}"
        )
    best = 0
    for _ in range(trials):
        x = random_point(param, bound, rng, field)
        best = max(best, map_rank(m, x, field))
    return best


def custom_method(m: LinearMatrixMap, param: VarietyParam, trials: int, bound: int,
                  rng, spec: str = "custom") -> RankMethod:
    k = estimate_k(m, param, trials, bound, rng)
    return RankMethod(m, k, spec, k_source="empirical (lower estimate)")


def check_k_consistency(method: RankMethod, param: VarietyParam, trials: int,
                        bound: int, rng, field=QQ):
    """(max sampled rank, whether k was attained); sampled ranks must not exceed k."""
    best = 0
    for _ in range(trials):
        x = random_point(param, bound, rng, field)
        r = map_rank(method.map, x, field)
        if r > method.k:
            raise ArithmeticError(
                f"method {method.spec} claims k={method.k} but a chart point has rank {r}"
            )
        best = max(best, r)
    return best, best == method.k


def lower_bound(method: RankMethod, vec: list, field=QQ) -> int:
    """ceil(rank M(F) / k): a lower bound for border rank and border cactus rank."""
    if method.k < 1:
        raise ValueError("method constant k is zero; the method is vacuous here")
    r = map_rank(method.map, vec, field)
    return -(-r // method.k)


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

    def to_vector(self, field=QQ) -> list:
        return [field.of(x) for x in self.entries]

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

    def to_vector(self, field=QQ) -> list:
        n = self.nvars - 1
        out = [field.zero] * self.w_dim
        for exps, c in self.terms.items():
            out[homogeneous_index(n, self.degree, exps)] = field.of(c)
        return out
