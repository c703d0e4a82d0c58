"""Command-line front end: bound, verify, ceiling, limit, estimate-k.

Campaigns derive one seed per trial from the root seed, so identical seeds
give byte-identical report streams and --jobs only changes wall time, never
output. Exit codes: 0 all pass, 1 rationally confirmed barrier violation
(an implementation bug), 2 usage or input error, 3 internal error (the
traceback is printed).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import traceback
from contextlib import contextmanager

from .barrier import UnsupportedVarietyError, ceilings, verify_instance
from .exactalg import DEFAULT_PRIME, clear_denominators, common_denominator
from .fields import is_probable_prime
from .fileformats import (
    FileFormatError,
    custom_map_from_tensor,
    load_family,
    load_scheme,
    load_tensor,
)
from .rankmethods import (
    DenseTensor,
    MethodSpecError,
    RankMethod,
    SymmetricForm,
    check_k_consistency,
    custom_method,
    estimate_k,
    integer_image,
    map_rank,
    parse_method,
)
from .schemes import (
    FiniteScheme,
    SpanFamily,
    check_random_degree,
    compare_limit,
    family_span,
    random_scheme,
    validate_scheme,
)
from .varieties import VarietySpecError, parse_variety

ENV_SEED = "CACTUS_BARRIER_SEED"


class CliError(Exception):
    """Usage-level error; maps to exit code 2."""


@functools.cache
def _seed_hash():
    """The sha256 constructor, imported at the first seed derived.

    It is the interpreter's own (`_sha2` from Python 3.12, `_sha256`
    before), as `random` takes its sha512; `hashlib`, the fallback, loads
    OpenSSL's libcrypto, which costs a fresh process about 3.5 MB and a few ms.
    The digests are the same.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def derive_seed(root: int, *parts) -> int:
    """Deterministic per-trial seed: first 8 bytes of sha256 over root and parts."""
    text = ":".join([str(root)] + [str(p) for p in parts])
    return int.from_bytes(_seed_hash()(text.encode()).digest()[:8], "big")


def _root_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"{ENV_SEED} must be an integer, got {env!r}") from None
    return 0


def _parse_field(text: str):
    if text in ("q", "qq", "QQ"):
        return None
    if text.startswith("p:"):
        try:
            p = int(text[2:])
        except ValueError:
            raise CliError(f"bad field spec {text!r}") from None
        if not is_probable_prime(p):
            raise CliError(f"field modulus {p} is not prime")
        return p
    raise CliError(f"bad field spec {text!r}; use q or p:PRIME")


def _parse_scheme_spec(spec: str, param):
    """Returns ("random", params) or ("file", path); random params are checked for `param`."""
    s = spec.strip()
    if s.startswith("random:"):
        params = {"deg": None, "mix": "mixed", "seed": None}
        for part in s[len("random:"):].split(","):
            if not part:
                continue
            if "=" not in part:
                raise CliError(f"bad scheme spec component {part!r}")
            key, val = part.split("=", 1)
            if key not in params:
                raise CliError(f"unknown scheme spec key {key!r}")
            if key == "mix":
                params[key] = val
                continue
            try:
                params[key] = int(val)
            except ValueError:
                raise CliError(f"scheme spec key {key!r} needs an integer, got {val!r}") from None
        if params["deg"] is None:
            raise CliError("random scheme spec needs deg=R")
        check_random_degree(param, params["deg"], params["mix"])
        return "random", params
    if s.startswith("file:"):
        return "file", s[len("file:"):]
    if s.endswith(".json") or os.path.exists(s):
        return "file", s
    raise CliError(f"cannot interpret scheme spec {spec!r}")


def _build_method(method_spec: str, param, rng, prime: int | None = None) -> RankMethod:
    """The method of `method_spec`; with `prime`, its map must have an image mod the prime.

    A `custom:file=` map takes k from 64 chart points of height 3 drawn from `rng`.
    """
    s = method_spec.replace(" ", "")
    if s.startswith("custom:file="):
        path = s[len("custom:file="):]
        t = load_tensor(path)
        if not isinstance(t, DenseTensor):
            raise CliError("custom method file must hold a dense (w, a, b) tensor")
        cmap = custom_map_from_tensor(t, path)
        if prime is not None:
            # M(0) has an image mod the prime exactly when every coefficient
            # does; checked once here rather than failing in every trial. The
            # error names the file, which is the map's spec.
            with _prime_reduction():
                integer_image(cmap, [0] * cmap.w, prime)
        return custom_method(cmap, param, 64, 3, rng, spec="custom:" + path)
    return parse_method(s, param)


def _emit(line: str, out) -> None:
    out.write(line + "\n")


def _verify_trial(payload: dict) -> dict:
    param = payload["param"]
    rng = random.Random(payload["trial_seed"])
    kind, data = payload["scheme_kind"], payload["scheme_data"]
    if kind == "random":
        seed = data["seed"]
        gen = rng if seed is None else random.Random(derive_seed(seed, payload["index"]))
        scheme = random_scheme(param, data["deg"], mix=data["mix"],
                               bound=payload["bound"], rng=gen)
    else:
        scheme = data
    report = verify_instance(param, scheme, payload["method"], rng,
                             prime=payload["prime"], bound=payload["bound"],
                             seed=payload["trial_seed"])
    d = report.to_dict()
    d["trial"] = payload["index"]
    d.pop("combination", None)
    return d


@contextmanager
def _prime_reduction(path=None):
    """Report a rational that has no image mod the prime as an input error.

    `path` names the file the rational came from, unless the error names it.
    """
    try:
        yield
    except ZeroDivisionError as e:  # raised by common_denominator or integer_image
        where = f"{path}: " if path else ""
        raise CliError(f"{where}{e}; use --field q") from None


def _load_verify_scheme(path, param, prime):
    scheme = load_scheme(path)
    validate_scheme(param, scheme)
    if prime is not None:
        with _prime_reduction(path):
            for piece in scheme.pieces:
                common_denominator(piece.coords, prime)
    return scheme


def cmd_verify(args, out) -> int:
    root = _root_seed(args)
    prime = _parse_field(args.field)
    param = parse_variety(args.variety)
    scheme_kind, scheme_data = _parse_scheme_spec(args.scheme, param)
    if scheme_kind == "file":
        scheme_data = _load_verify_scheme(scheme_data, param, prime)
    # one method for the k check and all trials; a custom method estimates k
    # from its own root-seeded rng, so every trial and every --jobs value sees
    # the same k
    method = _build_method(args.method, param, random.Random(derive_seed(root, "custom-k")),
                           prime)
    if args.validate_k:
        check_k_consistency(method, param, args.validate_k, args.bound,
                            random.Random(derive_seed(root, "validate")))

    payloads = [
        {
            "param": param,
            "scheme_kind": scheme_kind,
            "scheme_data": scheme_data,
            "method": method,
            "index": i,
            "trial_seed": derive_seed(root, i),
            "bound": args.bound,
            "prime": prime,
        }
        for i in range(args.trials)
    ]
    if args.jobs > 1 and payloads:
        from multiprocessing import Pool  # imported here: a serial run never pays for it

        with Pool(args.jobs) as pool:
            results = pool.map(_verify_trial, payloads)
    else:
        results = [_verify_trial(p) for p in payloads]

    failures = [r for r in results if not r["passed"]]  # each confirmed over QQ
    for r in results:
        if args.format == "json":
            _emit(json.dumps(r), out)
        else:
            status = "pass" if r["passed"] else "FAIL"
            _emit(
                f"[{r['trial']:4d}] {status} {r['variety']} {r['method']} "
                f"deg={r['degree']} span={r['span_dim']} rank={r['rank']} "
                f"bound={r['bound']} field={r['field']}",
                out,
            )
    summary = {
        "kind": "summary",
        "trials": len(results),
        "passed": len(results) - len(failures),
        "failed": len(failures),
        "qq_confirmed_failures": len(failures),
    }
    if args.format == "json":
        _emit(json.dumps(summary), out)
    else:
        _emit(
            f"summary: {summary['passed']}/{summary['trials']} pass, "
            f"{summary['qq_confirmed_failures']} confirmed failures",
            out,
        )
    return 1 if failures else 0


def _infer_variety(tensor):
    if isinstance(tensor, SymmetricForm):
        return parse_variety(f"veronese:{tensor.nvars - 1},{tensor.degree}")
    if any(d < 2 for d in tensor.shape):
        raise CliError("cannot infer a variety: tensor has a mode of dimension 1")
    return parse_variety("segre:" + "x".join(str(d) for d in tensor.shape))


def cmd_bound(args, out) -> int:
    tensor = load_tensor(args.tensor)
    param = parse_variety(args.variety) if args.variety else _infer_variety(tensor)
    if tensor.w_dim != param.dim_W:
        raise CliError(
            f"tensor lives in dimension {tensor.w_dim}, variety {param.spec} "
            f"has dim W = {param.dim_W}"
        )
    prime = _parse_field(args.field)
    rng = random.Random(derive_seed(_root_seed(args), "bound"))
    method = _build_method(args.method, param, rng, prime)
    if method.k < 1:
        raise CliError("method constant k is zero on this variety; no bound")
    with _prime_reduction(args.tensor):
        vec = clear_denominators(tensor.to_vector(), prime)
    r = map_rank(method.map, vec, prime)
    bound_val = -(-r // method.k)
    result = {
        "variety": param.spec,
        "method": method.spec,
        "rank": r,
        "k": method.k,
        "k_source": method.k_source,
        "bound": bound_val,
        "field": "QQ" if prime is None else f"GF({prime})",
    }
    ceiling_line = None
    try:
        cr = ceilings(param)
        if cr.cactus_ceiling is not None:
            ceiling_line = (
                f"cactus ceiling g = {cr.cactus_ceiling}; this method cannot "
                f"certify border rank > {cr.cactus_ceiling}"
            )
            result["cactus_ceiling"] = cr.cactus_ceiling
    except UnsupportedVarietyError:
        pass
    if args.format == "json":
        _emit(json.dumps(result), out)
    else:
        _emit(f"rank M(F) = {r}", out)
        _emit(f"k = {method.k} ({method.k_source})", out)
        _emit(f"lower bound: border rank >= {bound_val}", out)
        if ceiling_line:
            _emit(ceiling_line, out)
    return 0


def cmd_ceiling(args, out) -> int:
    report = ceilings(args.variety)
    if args.format == "json":
        _emit(json.dumps(report.to_dict()), out)
    else:
        _emit(f"variety: {report.variety}", out)
        if report.cactus_ceiling is not None:
            _emit(
                f"cactus ceiling g = {report.cactus_ceiling}   "
                f"[{report.labels['cactus_ceiling']}]",
                out,
            )
        _emit(
            f"secant fill-in >= {report.secant_fill_in}   "
            f"[{report.labels['secant_fill_in']}]",
            out,
        )
        if report.grassmann_ceiling is not None:
            _emit(
                f"grassmann ceiling g2 = {report.grassmann_ceiling}   "
                f"[{report.labels['grassmann_ceiling']}]",
                out,
            )
        for note in report.notes:
            _emit(f"note: {note}", out)
    return 0


def cmd_limit(args, out) -> int:
    param, (kind, data), limit_scheme = load_family(args.family)
    if not data:
        raise CliError("the family is empty")
    if kind == "schemes":
        family = FiniteScheme(tuple(data))  # a flat family: valid, of its limit's degree
        validate_scheme(param, family)
        if family.degree != limit_scheme.degree:
            raise CliError(f"family degree {family.degree} != limit degree {limit_scheme.degree}")
        fam = family_span(param, data)
    else:
        fam = SpanFamily(param.dim_W, data)
    cmp = compare_limit(param, fam, limit_scheme)
    verdict = "inclusion holds" if cmp.inclusion_holds else "INCLUSION FAILS"
    if cmp.inclusion_holds and cmp.strict:
        verdict += " (strict)"
    elif cmp.inclusion_holds:
        verdict += " (equality)"
    if args.format == "json":
        _emit(json.dumps({
            "dim_span_limit": cmp.dim_span_limit,
            "dim_limit_spans": cmp.dim_limit_spans,
            "inclusion_holds": cmp.inclusion_holds,
            "strict": cmp.strict,
        }), out)
    else:
        _emit(
            f"dim span(limit)={cmp.dim_span_limit} <= "
            f"dim lim(spans)={cmp.dim_limit_spans}: {verdict}",
            out,
        )
    return 0 if cmp.inclusion_holds else 1


def cmd_estimate_k(args, out) -> int:
    param = parse_variety(args.variety)
    root = _root_seed(args)
    rng = random.Random(derive_seed(root, "estimate"))
    method = _build_method(args.method, param, rng)
    est = estimate_k(method.map, param, args.trials, args.bound,
                     random.Random(derive_seed(root, "estimate-k")))
    result = {
        "variety": param.spec,
        "method": method.spec,
        "estimated_k": est,
        "trials": args.trials,
    }
    if method.k_source == "formula":
        result["declared_k"] = method.k
    else:
        result["k_label"] = "empirical (lower estimate)"
    if args.format == "json":
        _emit(json.dumps(result), out)
    else:
        _emit(f"estimated k = {est} over {args.trials} trials", out)
        if "declared_k" in result:
            _emit(f"declared k = {method.k} (formula)", out)
        else:
            _emit("k label: empirical (lower estimate)", out)
    return 0


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {what} integer, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "non-negative")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Every `main` call parses into a fresh Namespace, so calls share no
    state. The parser holds the `cmd_*` functions themselves; what they call
    (`_verify_trial`, `ceilings`, ...) is still looked up in this module at
    call time, so patching those names takes effect.
    """
    parser = argparse.ArgumentParser(
        prog="cactus-barrier",
        description="Exact rank-method bounds and scheme-span barrier verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, bound=False, field_default=None):
        # a command accepts only the options it reads: --seed where it draws
        # random data, --bound where that data has a coefficient height, and
        # --field in bound and verify
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help=f"root seed (default: ${ENV_SEED} or 0)")
        if bound:
            p.add_argument("--bound", type=_positive_int, default=3,
                           help="coefficient height for random data (at least 1)")
        if field_default is not None:
            p.add_argument("--field", default=field_default,
                           help="q for rationals or p:PRIME for screening")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("bound", help="lower-bound the border rank of a tensor file")
    p.add_argument("--tensor", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--variety", default=None)
    common(p, seed=True, field_default="q")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="run barrier verification campaigns")
    p.add_argument("--variety", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--trials", type=_nonnegative_int, required=True)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes for the trials (at least 1)")
    p.add_argument("--validate-k", type=_nonnegative_int, default=20, metavar="N",
                   help="pre-campaign k-consistency samples (0 to skip)")
    common(p, seed=True, bound=True, field_default=f"p:{DEFAULT_PRIME}")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ceiling", help="report ceiling constants for a variety")
    p.add_argument("--variety", required=True)
    common(p)
    p.set_defaults(func=cmd_ceiling)

    p = sub.add_parser("limit", help="compare span of a stated limit with the limit of spans")
    p.add_argument("--family", required=True)
    common(p)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("estimate-k", help="estimate the method constant by sampling")
    p.add_argument("--variety", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--trials", type=_positive_int, default=200)
    common(p, seed=True, bound=True)
    p.set_defaults(func=cmd_estimate_k)

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.func(args, out)
    except (CliError, VarietySpecError, MethodSpecError, FileFormatError,
            UnsupportedVarietyError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
