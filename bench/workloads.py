"""The three benchmark workloads: campaign, ladder and limits.

A workload yields the operations of one pass from ``ops(seed)``, a
generator that builds the pass's inputs from the seed as it goes and receives
each operation's result by ``send``. The runner times each operation on its
own; the time spent inside the generator between operations is the pass's
set-up time (parsing, method construction, input preparation). Every pass
rebuilds the same inputs from the same seed, so passes repeat identical work
and their results must agree.

After the passes, ``check(results, seed)`` verifies the first pass's outputs
against values computed separately (see checks.py), and ``summarize`` turns
per-operation median times into end-to-end figures.
"""

from __future__ import annotations

import io
import math
import random
import time
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from pathlib import Path

from cactusbarrier import barrier, cli, fileformats, rankmethods, schemes, varieties
from cactusbarrier.exactalg import DEFAULT_PRIME
from cactusbarrier.fields import QQ, PolyRing

import checks

CAMPAIGN_VARIETIES = (
    "segre:2x2x2",
    "segre:3x3x3",
    "veronese:2,3",
    "veronese:3,3",
    "segre-veronese:(1,2)x(2,1)",
)


@dataclass
class Op:
    """One timed operation of a pass; ``span`` names it in the trace."""

    key: tuple
    fn: object
    span: str = "bench.op"


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples above it."""
    return max(0, math.floor(100 * (1 - 10 / n)))


def percentile(values: list, q: int) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- campaign ---------------------------------------------------------------

class Campaign:
    """The acceptance campaign through the library, with confirm='full'.

    Reproduces the acceptance fixture's rng order exactly: per variety 100
    random mixed schemes of degree 1..8, every builtin method, and for each
    instance verify_instance plus minimal_factor_subspace over one shared rng.
    """

    name = "campaign"
    SCHEMES_PER_VARIETY = 100
    SYMPY_EVERY = 50  # every 50th instance gets a sympy rank check

    def ops(self, seed: int):
        rng = random.Random(seed)
        index = 0
        block = 0
        for spec in CAMPAIGN_VARIETIES:
            param = varieties.parse_variety(spec)
            methods = rankmethods.builtin_methods(param)
            for _ in range(self.SCHEMES_PER_VARIETY):
                r = rng.randint(1, 8)
                scheme = schemes.random_scheme(param, r, mix="mixed", bound=3, rng=rng)
                span = yield Op(("span", block), partial(schemes.scheme_span, param, scheme))
                for method in methods:
                    yield Op(("inst", index),
                             partial(_campaign_instance, param, scheme, method, span, rng))
                    index += 1
                block += 1

    def record(self, key, result) -> dict | None:
        if key[0] != "inst":
            return None
        report, factor_dim, method, scheme = result
        return {
            "index": key[1], "variety": report.variety, "method": report.method,
            "k": method.k, "degree": scheme.degree, "a": method.map.a, "b": method.map.b,
            "rank": report.rank, "fp_rank": report.fp_rank, "span_dim": report.span_dim,
            "qq_confirmed": report.qq_confirmed, "factor_dim": factor_dim,
            "combination": report.extra.get("combination"),
        }

    def check(self, results: dict, seed: int) -> list[str]:
        errors = []
        for key, result in results.items():
            rec = self.record(key, result)
            if rec is None:
                continue
            errors += checks.check_campaign_record(rec)
            if rec["index"] % self.SYMPY_EVERY == 0:
                _, _, method, scheme = result
                param = varieties.parse_variety(rec["variety"])
                raw = schemes.scheme_span_vectors(param, scheme, QQ)
                f = [sum((c * v[j] for c, v in zip(rec["combination"], raw)), Fraction(0))
                     for j in range(param.dim_W)]
                m = rankmethods.evaluate_map(method.map, f, QQ)
                errors += checks.check_rank_sample(f"{rec['variety']} {rec['method']} "
                                                   f"#{rec['index']}", m.rows, rec["rank"])
        return errors

    def same(self, key, a, b) -> bool:
        if key[0] == "span":
            return a.basis == b.basis
        return self.record(key, a) == self.record(key, b)

    def summarize(self, med: dict) -> dict:
        """Per-key medians (s) -> totals, instance and invocation samples (ms).

        An invocation here is one whole campaign, the unit ROADMAP times.
        """
        total = sum(med.values())
        return {
            "instances": sum(1 for k in med if k[0] == "inst"),
            "seconds": total,
            "instance_ms": [t * 1e3 for k, t in med.items() if k[0] == "inst"],
            "invocation_ms": [total * 1e3],
        }


def _campaign_instance(param, scheme, method, span, rng):
    report = barrier.verify_instance(param, scheme, method, rng,
                                     prime=DEFAULT_PRIME, confirm="full")
    factor_dim = barrier.minimal_factor_subspace(method.map, span).dim
    return report, factor_dim, method, scheme


# -- ladder -----------------------------------------------------------------

def _ladder_rungs():
    """(variety, method, matrix rows a, cols b, k) from closed formulas."""
    rungs = []
    for m, ps in ((3, (1,)), (4, (1, 2)), (5, (1, 2))):
        for p in ps:
            rungs.append((f"segre:{m}x{m}x{m}", f"koszul:p={p}",
                          math.comb(m, p + 1) * m, math.comb(m, p) * m, math.comb(m - 1, p)))
    rungs.append(("segre:5x5x5", "flattening:split=1|23", 5, 25, 1))
    for n in (4, 5):
        rungs.append((f"veronese:{n},3", "catalecticant:i=1", math.comb(n + 2, 2), n + 1, 1))
    return rungs


class Ladder:
    """`cactus-barrier verify` called in-process once per rung, at --jobs 1.

    Each rung runs at its top informative degree r = (min(a, b) - 1) // k,
    with the CLI defaults (--confirm tight, the GF(2^31-1) screen,
    --validate-k 20). A last rung repeats segre:3x3x3 koszul:p=1 with the map
    saved as a custom:file= tensor. Per-trial times come from a timer put
    around cli._verify_trial; ``between_trials`` runs after each trial's
    timer stops (the runner samples its reference loop there, so an
    invocation of up to 1.5 s is normalized trial by trial).
    """

    name = "ladder"
    TRIALS = 30

    def __init__(self, out_dir: Path, between_trials=lambda: None):
        self.custom_path = out_dir / "ladder_koszul_3x3x3_p1.json"
        # (variety, method, degree, k) per rung
        self.rungs = [(v, m, (min(a, b) - 1) // k, k) for v, m, a, b, k in _ladder_rungs()]
        variety, _, degree, k = self.rungs[0]
        self.rungs.append((variety, f"custom:file={self.custom_path}", degree, k))
        self.trial_times: list = []
        self._trial_key = None
        original = cli._verify_trial

        def timed_trial(payload):
            t0 = time.perf_counter()
            out = original(payload)
            self.trial_times.append((self._trial_key + (payload["index"],), t0,
                                     time.perf_counter() - t0))
            between_trials()
            return out

        cli._verify_trial = timed_trial

    def argv(self, variety, method, degree, seed):
        return ["verify", "--variety", variety, "--scheme", f"random:deg={degree}",
                "--method", method, "--trials", str(self.TRIALS), "--seed", str(seed),
                "--format", "json"]

    def ops(self, seed: int):
        kmap = rankmethods.koszul_flattening((3, 3, 3), 1)
        entries = [0] * (kmap.w * kmap.a * kmap.b)
        for w, cells in kmap.cells.items():
            for i, j, c in cells:
                entries[(w * kmap.a + i) * kmap.b + j] = c
        fileformats.save_tensor(self.custom_path, rankmethods.DenseTensor(
            (kmap.w, kmap.a, kmap.b), entries))
        for i, (variety, method, degree, _) in enumerate(self.rungs):
            argv = self.argv(variety, method, degree, seed)
            yield Op(("rung", i), partial(self._invoke, ("rung", i), argv),
                     span="bench.cli_verify")

    def _invoke(self, key, argv):
        self._trial_key = key
        return _run_cli(argv)

    def check(self, results: dict, seed: int) -> list[str]:
        errors = []
        for key, (code, text) in results.items():
            variety, method, degree, k = self.rungs[key[1]]
            errors += checks.check_ladder_stream(f"{variety} {method}", code, text,
                                                 self.TRIALS, degree, k)
        errors += checks.check_same_map(results[("rung", 0)][1],
                                        results[("rung", len(self.rungs) - 1)][1])
        return errors

    def same(self, key, a, b) -> bool:
        return not checks.check_repeat(str(key), a[1], b[1]) and a[0] == b[0]

    def summarize(self, med: dict, trial_med: dict) -> dict:
        return {
            "instances": self.TRIALS * len(med),
            "seconds": sum(med.values()),
            "instance_ms": [t * 1e3 for t in trial_med.values()],
            "invocation_ms": [t * 1e3 for t in med.values()],
        }


# -- limits -----------------------------------------------------------------

def collision_family(param, k: int, rng, ring: PolyRing):
    """k points gamma(i t), i = 0..k-1, on a random polynomial germ gamma, and its length-k jet.

    gamma(s) = base + c_1 s + ... + c_k s^k with every coefficient of the c_j
    in {-2, -1, 1, 2}, so the germ is generic and the cost of one family
    varies little from seed to seed. The points are distinct for small
    t != 0 and collide at t = 0 into the curvilinear germ of length k along
    gamma, which is the stated limit.
    """
    n = param.dim_X
    base = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
    coeffs = [tuple(Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(n)) for _ in range(k)]
    pieces = [
        schemes.ReducedPoint(tuple(
            ring.from_coeffs([base[j]] + [c[j] * lam ** (i + 1) for i, c in enumerate(coeffs)])
            for j in range(n)))
        for lam in range(k)
    ]
    limit = schemes.FiniteScheme((schemes.CurvilinearGerm(
        varieties.Germ(base, tuple(coeffs[:k - 1])), k),))
    return pieces, limit


class Limits:
    """span_of_limit_vs_limit_of_spans over QQ[t] on the campaign's varieties.

    Per pass: COLLISIONS families of k = 2..5 colliding points for each
    variety and k; PERTURBED perturbed (every tenth: constant) families of
    random schemes as in acceptance criterion 5, each variety taking each
    degree 1..4 equally often; and the three shipped fixtures through
    `cactus-barrier limit`, FIXTURE_REPEATS times each. The fixed mix keeps
    the seed's effect on the figures small; the seed moves the coordinates.
    """

    name = "limits"
    COLLISIONS = 2
    PERTURBED = 120
    FIXTURE_REPEATS = 5

    def __init__(self):
        self.fixture_dir = Path(schemes.__file__).parent / "fixtures"

    def families(self, seed: int):
        rng = random.Random(seed)
        ring = PolyRing(QQ)
        out = []
        for spec in CAMPAIGN_VARIETIES:
            param = varieties.parse_variety(spec)
            for k in (2, 3, 4, 5):
                for _ in range(self.COLLISIONS):
                    pieces, limit = collision_family(param, k, rng, ring)
                    out.append((f"{spec} collision k={k}", param, pieces, limit))
        nv = len(CAMPAIGN_VARIETIES)
        for i in range(self.PERTURBED):
            spec = CAMPAIGN_VARIETIES[i % nv]
            param = varieties.parse_variety(spec)
            degree = 1 + (i // nv) % 4
            scheme = schemes.random_scheme(param, degree, mix="mixed", bound=2, rng=rng)
            if i % 10 == 0:
                fam = schemes.constant_family_pieces(scheme.pieces)
                out.append((f"{spec} constant #{i}", param, fam, scheme))
            else:
                fam = schemes.perturbed_family(scheme, rng, bound=2, tdeg=2)
                out.append((f"{spec} perturbed #{i}", param, fam, scheme))
        return out

    def ops(self, seed: int):
        fams = self.families(seed)
        for i, (label, param, pieces, limit) in enumerate(fams):
            yield Op(("family", i), partial(schemes.span_of_limit_vs_limit_of_spans,
                                          param, pieces, limit))
        for name in sorted(checks.FIXTURE_DIMS):
            argv = ["limit", "--family", str(self.fixture_dir / name), "--format", "json"]
            for rep in range(self.FIXTURE_REPEATS):
                yield Op(("fixture", name, rep), partial(_run_cli, argv))

    def check(self, results: dict, seed: int) -> list[str]:
        errors = []
        fams = self.families(seed)
        trng = random.Random(f"limits-t:{seed}")
        oracles: dict = {}
        for key, result in results.items():
            if key[0] == "fixture":
                errors += checks.check_fixture(key[1], *result)
                continue
            label, param, pieces, limit = fams[key[1]]
            oracle = oracles.setdefault(param.spec, checks.ChartOracle(param.spec))
            generic = 0
            for _ in range(2):  # a rank at a random t can only undershoot the generic rank
                t = Fraction(trng.choice((-1, 1)) * trng.randint(1, 97), trng.randint(1, 89))
                generic = max(generic, oracle.rank(
                    [v for p in pieces for v in piece_vectors(oracle, p, t)]))
            limit_rank = oracle.rank([v for p in limit.pieces for v in piece_vectors(oracle, p)])
            dims = (result.dim_span_limit, result.dim_limit_spans, result.inclusion_holds)
            errors += checks.check_limit(label, dims, generic, limit_rank)
        return errors

    def same(self, key, a, b) -> bool:
        return a == b

    def summarize(self, med: dict) -> dict:
        return {
            "instances": len(med),
            "seconds": sum(med.values()),
            "instance_ms": [t * 1e3 for t in med.values()],
            "invocation_ms": [t * 1e3 for k, t in med.items() if k[0] == "fixture"],
        }


def _run_cli(argv):
    out = io.StringIO()
    code = cli.main(argv, out)
    return code, out.getvalue()


def piece_vectors(oracle: checks.ChartOracle, piece, t: Fraction | None = None) -> list:
    """Oracle span vectors of a piece; with t, coordinates are polynomials evaluated at t."""
    def value(x):
        return checks.eval_poly(x, t) if t is not None else Fraction(x)

    if isinstance(piece, schemes.ReducedPoint):
        return oracle.reduced([value(x) for x in piece.point])
    if isinstance(piece, schemes.FirstNeighborhood):
        return oracle.neighborhood([value(x) for x in piece.point])
    base = [value(x) for x in piece.germ.base]
    coeffs = [[value(x) for x in c] for c in piece.germ.coeffs]
    return oracle.curvilinear(base, coeffs, piece.length)
