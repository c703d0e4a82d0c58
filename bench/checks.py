"""Output checks for the benchmark workloads, run outside the timed region.

Each check returns a list of error strings (empty when the outputs hold up).
A check either recomputes a value separately from the program (sympy ranks,
a chart map written out from its definition) or tests a property every
correct answer has (rank at most k*r, byte-identical repeats). The checks take plain data so that the
self-tests can plant wrong results in them.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import product

# expected (dim span(limit), dim lim(spans), strict) of the shipped fixtures
FIXTURE_DIMS = {
    "collinear_collision.json": (2, 3, True),
    "tangent_collision.json": (2, 2, False),
    "constant_family.json": (2, 2, False),
}


# -- campaign ---------------------------------------------------------------

def check_campaign_record(rec: dict) -> list[str]:
    """One instance: rank <= k*r, factor dim <= k*r, span dim <= r, fp <= qq."""
    errors = []
    cap = rec["k"] * rec["degree"]
    where = f"{rec['variety']} {rec['method']} #{rec['index']}"
    if rec["rank"] > cap:
        errors.append(f"{where}: rank {rec['rank']} > k*r = {cap}")
    if rec["factor_dim"] > cap:
        errors.append(f"{where}: factor subspace dim {rec['factor_dim']} > k*r = {cap}")
    if rec["span_dim"] > rec["degree"]:
        errors.append(f"{where}: span dim {rec['span_dim']} > degree {rec['degree']}")
    if rec["fp_rank"] is None or rec["fp_rank"] > rec["rank"]:
        errors.append(f"{where}: GF(p) rank {rec['fp_rank']} exceeds rational rank {rec['rank']}")
    if not rec["qq_confirmed"]:
        errors.append(f"{where}: not confirmed over QQ under confirm='full'")
    return errors


def sympy_rank(rows) -> int:
    """Rank of a matrix of Fractions, computed by sympy over its field QQ."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    rows = [row for row in rows if row]
    if not rows:
        return 0
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in rows],
                        (len(rows), len(rows[0])), QQ).rank()


def check_rank_sample(label: str, rows, reported: int) -> list[str]:
    """The rank sympy finds for M(F) must equal the reported rank."""
    expected = sympy_rank(rows)
    if expected != reported:
        return [f"{label}: reported rank {reported}, sympy rank {expected}"]
    return []


# -- ladder -----------------------------------------------------------------

def parse_stream(text: str) -> tuple[list, dict]:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty verify stream")
    docs = [json.loads(line) for line in lines]
    return docs[:-1], docs[-1]


def check_ladder_stream(label: str, code: int, text: str, trials: int,
                        degree: int, k: int) -> list[str]:
    """Exit code 0, summary counts match, and rank <= bound, span_dim <= degree."""
    errors = []
    if code != 0:
        errors.append(f"{label}: exit code {code}")
    try:
        records, summary = parse_stream(text)
    except ValueError as e:
        return errors + [f"{label}: unreadable stream: {e}"]
    expected_summary = {"kind": "summary", "trials": trials, "passed": trials,
                        "failed": 0, "qq_confirmed_failures": 0}
    if summary != expected_summary:
        errors.append(f"{label}: summary {summary} != {expected_summary}")
    if [r.get("trial") for r in records] != list(range(trials)):
        errors.append(f"{label}: {len(records)} records for {trials} trials")
    for r in records:
        where = f"{label} trial {r.get('trial')}"
        if r["degree"] != degree or r["k"] != k or r["bound"] != k * degree:
            errors.append(f"{where}: degree/k/bound {r['degree']}/{r['k']}/{r['bound']}, "
                          f"expected {degree}/{k}/{k * degree}")
        if r["rank"] > r["bound"]:
            errors.append(f"{where}: rank {r['rank']} > bound {r['bound']}")
        if r["span_dim"] > r["degree"]:
            errors.append(f"{where}: span_dim {r['span_dim']} > degree {r['degree']}")
        if not r["passed"]:
            errors.append(f"{where}: not passed")
    return errors


def check_repeat(label: str, first: str, again: str) -> list[str]:
    """A repeated invocation with the same seed must give a byte-identical stream."""
    if first == again:
        return []
    at = next((i for i, (a, b) in enumerate(zip(first, again)) if a != b),
              min(len(first), len(again)))
    return [f"{label}: repeated stream differs from the first at byte {at}"]


def check_same_map(koszul_text: str, custom_text: str) -> list[str]:
    """The custom rung holds the koszul:p=1 map: ranks and bounds must agree."""
    kos, _ = parse_stream(koszul_text)
    cus, _ = parse_stream(custom_text)
    keys = ("trial", "degree", "span_dim", "rank", "bound", "fp_rank", "passed")
    a = [tuple(r[x] for x in keys) for r in kos]
    b = [tuple(r[x] for x in keys) for r in cus]
    if a != b:
        bad = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        return [f"custom rung differs from koszul:p=1 at trial {bad}"]
    return []


# -- limits -----------------------------------------------------------------

def check_limit(label: str, dims: tuple, generic_rank: int, limit_rank: int) -> list[str]:
    """Inclusion holds, dim lim(spans) = generic rank, dim span(limit) = its sympy rank.

    ``dims`` is (dim_span_limit, dim_limit_spans, inclusion_holds) as reported.
    """
    span_limit, limit_spans, inclusion = dims
    errors = []
    if not inclusion:
        errors.append(f"{label}: span of the stated limit is not inside the limit of spans")
    if limit_spans != generic_rank:
        errors.append(f"{label}: dim lim(spans) {limit_spans} != generic rank {generic_rank}")
    if span_limit != limit_rank:
        errors.append(f"{label}: dim span(limit) {span_limit} != sympy rank {limit_rank}")
    return errors


def check_fixture(name: str, code: int, text: str) -> list[str]:
    """`cactus-barrier limit` on a shipped fixture gives the dimensions its geometry fixes."""
    span_limit, limit_spans, strict = FIXTURE_DIMS[name]
    expected = {"dim_span_limit": span_limit, "dim_limit_spans": limit_spans,
                "inclusion_holds": True, "strict": strict}
    errors = [] if code == 0 else [f"{name}: exit code {code}"]
    try:
        got = json.loads(text)
    except ValueError:
        return errors + [f"{name}: unreadable output {text!r}"]
    if got != expected:
        errors.append(f"{name}: {got} != {expected}")
    return errors


# -- independent chart map -------------------------------------------------

def parse_factors(spec: str) -> list[tuple[int, int]]:
    """(n, d) per factor for the three spec forms, parsed here independently."""
    s = spec.replace(" ", "")
    if s.startswith("segre-veronese:"):
        return [(int(a), int(b)) for a, b in re.findall(r"\((\d+),(\d+)\)", s)]
    if s.startswith("segre:"):
        return [(int(x) - 1, 1) for x in s[len("segre:"):].split("x")]
    n, d = s[len("veronese:"):].split(",")
    return [(int(n), int(d))]


class ChartOracle:
    """Chart map of a product of Veronese factors, written out here from its definition.

    Factor (n, d) contributes every monomial of degree at most d in its n
    affine coordinates; the chart map is their product over factors. The
    span vectors of a piece are computed from that definition with plain
    Fractions (values, partial derivatives, truncated power series), without
    the program's code, and ranks come from sympy. Coordinates come out in an
    order of this class's own; ranks do not depend on it.
    """

    def __init__(self, spec: str):
        factors = parse_factors(spec)
        self.dim_x = sum(n for n, _ in factors)
        exps = [()]
        for n, d in factors:
            part = [e for e in product(range(d + 1), repeat=n) if sum(e) <= d]
            exps = [a + b for a in exps for b in part]
        self.exponents = exps

    @staticmethod
    def _value(point, exps) -> Fraction:
        out = Fraction(1)
        for x, e in zip(point, exps):
            if e:
                out *= x ** e
        return out

    def reduced(self, point) -> list:
        return [[self._value(point, e) for e in self.exponents]]

    def neighborhood(self, point) -> list:
        out = self.reduced(point)
        for j in range(self.dim_x):
            row = []
            for e in self.exponents:
                if e[j]:
                    lowered = e[:j] + (e[j] - 1,) + e[j + 1:]
                    row.append(e[j] * self._value(point, lowered))
                else:
                    row.append(Fraction(0))
            out.append(row)
        return out

    def curvilinear(self, base, coeffs, length: int) -> list:
        """Taylor coefficients of orders < length of the chart map along base + sum c_i s^i."""
        def mul(a, b):
            out = [Fraction(0)] * length
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b[:length - i]):
                        out[i + j] += x * y
            return out

        curve = [[base[j]] + [c[j] for c in coeffs[:length - 1]] for j in range(self.dim_x)]
        curve = [(c + [Fraction(0)] * length)[:length] for c in curve]
        rows = [[] for _ in range(length)]
        for e in self.exponents:
            series = [Fraction(1)] + [Fraction(0)] * (length - 1)
            for j, power in enumerate(e):
                for _ in range(power):
                    series = mul(series, curve[j])
            for order in range(length):
                rows[order].append(series[order])
        return rows

    rank = staticmethod(sympy_rank)


def eval_poly(coeffs, t: Fraction) -> Fraction:
    """Value at t of a polynomial given by its coefficient tuple (constant first)."""
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * t + c
    return out
