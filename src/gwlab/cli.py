"""Command-line front end: run verification suites, dump series, query
correlators.

Exit status: 0 all checks pass, 1 a check failed or an evaluation error
surfaced, 2 usage error, 3 configuration error (bad target data or an
insufficient z-window, reported with the required bounds).

All numeric output is exact numerator/denominator; reports are
JSON-compatible and byte-stable for a fixed config apart from the
timing fields.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from . import oracles
from .checks import (
    CheckReport,
    check_cone_in_tangent,
    check_darboux,
    check_inverse,
    check_lagrangian,
    check_polynomiality,
    check_universal_relations,
)
from .cone import (
    TPolynomial,
    cone_point,
    s_apply,
    sufficient_window,
    tangent_vector,
)
from .correlators import CapabilityError, InvalidKeyError, StabilityError, get_engine
from .localisation import (
    check_main_identity,
    check_splitting_weights,
    enumerate_splittings,
    localisation_sum,
)
from .oracles import brute_force_splittings
from .series import Truncation, TruncationOverflowError
from .targets import ConfigurationError, iter_betas, load_target, make_target

SUITES = (
    "darboux",
    "engine-oracles",
    "polynomiality",
    "inverse",
    "universal",
    "lagrangian",
    "tangent",
    "localisation",
)

EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3


class UsageError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gwlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--target", default=None, help="point, P1 or P2")
        p.add_argument("--target-config", help="JSON file with a custom presentation (validated only)")
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--D", type=int, default=None, help="Novikov order")
        p.add_argument("--E", type=int, default=None, help="eps (insertion) order")
        p.add_argument("--T", type=int, default=None, help="degree of t(z)")
        p.add_argument("--z-min", type=int, default=None)
        p.add_argument("--z-max", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--t", default=None, help='"zero", "random" or inline coefficients "1/2,0;0,1"')
        p.add_argument("--out", default=None, help="write the report/dump to this path")
        p.add_argument("--format", choices=("human", "json"), default=None)

    p_verify = sub.add_parser("verify", help="run verification suites")
    common(p_verify)
    p_verify.add_argument("--suites", default="all", help="comma list from %s or 'all'" % (SUITES,))
    p_verify.add_argument("--k-max", type=int, default=4, help="depth of the universal relations")

    p_series = sub.add_parser("series", help="dump a series in the record format")
    common(p_series)
    p_series.add_argument("--which", required=True, choices=("cone", "SL", "locsum", "tangent"))
    p_series.add_argument("--alpha", type=int, default=0, help="basis index for tangent")
    p_series.add_argument("--k", type=int, default=0, help="z-power for tangent")

    p_corr = sub.add_parser("correlator", help="evaluate one correlator")
    p_corr.add_argument("--target", default="point")
    p_corr.add_argument("query", help='e.g. "d=1; (2,0) (2,0)" or "d=(); (0,0) (0,0) (0,0)"')
    return parser


# ---------------------------------------------------------------------------
# config assembly


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc


def _merge_config(args) -> dict:
    cfg = {
        "target": "point",
        "D": 1,
        "E": 1,
        "T": 0,
        "z_min": None,
        "z_max": None,
        "seed": 0,
        "t": "random",
        "format": "human",
        "out": None,
    }
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        unknown = set(file_cfg) - set(cfg) - {"target_config"}
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in ("target", "D", "E", "T", "z_min", "z_max", "seed", "t", "format", "out"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "target_config", None):
        cfg["target_config"] = args.target_config
    return cfg


def _resolve_target(cfg):
    if cfg.get("target_config"):
        return load_target(_load_config_file(cfg["target_config"]))
    return make_target(cfg["target"])


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}") from exc


def _resolve_t(cfg, target) -> TPolynomial:
    spec = str(cfg["t"])
    if spec == "zero":
        return TPolynomial.zero(target, cfg["T"])
    if spec == "random":
        return TPolynomial.random(target, cfg["T"], cfg["seed"])
    groups = [g for g in spec.split(";")]
    coeffs = []
    for group in groups:
        parts = [p for p in group.split(",")]
        if len(parts) != target.rank:
            raise UsageError(
                f"each ; group of --t needs {target.rank} comma-separated rationals"
            )
        coeffs.append(tuple(_parse_rational(p) for p in parts))
    return TPolynomial(target, tuple(coeffs))


def _resolve_truncation(cfg, target) -> Truncation:
    auto_min, auto_max = sufficient_window(target, cfg["D"], cfg["E"], cfg["T"])
    z_min = cfg.get("z_min")
    z_max = cfg.get("z_max")
    z_min = auto_min if z_min is None else int(z_min)
    z_max = auto_max if z_max is None else int(z_max)
    if z_max < max(cfg["T"], 1):
        raise ConfigurationError(
            f"window too small: z_max must be at least {max(cfg['T'], 1)} "
            f"(auto window is [{auto_min}, {auto_max}])"
        )
    try:
        return Truncation(cfg["D"], cfg["E"], z_min, z_max)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc


# ---------------------------------------------------------------------------
# suites


def _engine_oracle_report(seed: int) -> CheckReport:
    started = time.perf_counter()
    failures = []
    point = make_target("point")
    engine = get_engine(point)
    from itertools import combinations_with_replacement

    for n in range(3, 9):
        for ks in combinations_with_replacement(range(n - 2), n):
            if sum(ks) != n - 3:
                continue
            got = engine.correlator((), [(0, k) for k in ks])
            want = oracles.point_psi_integral(ks)
            if got != want or want != oracles.point_psi_closed_form(ks):
                failures.append({"point_psi": list(ks)})
    p2 = get_engine(make_target("P2"))
    for d, expected in ((1, 1), (2, 1), (3, 12), (4, 620)):
        got = p2.correlator((d,), [(2, 0)] * (3 * d - 1))
        if got != oracles.rational_plane_curves(d) or got != expected:
            failures.append({"plane_degree": d, "got": str(got)})
    import random as _random

    rng = _random.Random(seed)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 20000:
        attempts += 1
        name = rng.choice(("P1", "P2"))
        target = make_target(name)
        eng = get_engine(target)
        d = rng.randint(1, 3)
        n = rng.randint(3, 6)
        ins = [(rng.randrange(target.rank), rng.randint(0, 3)) for _ in range(n - 1)]
        ins.append((1, 0))  # guarantee the divisor rule applies
        if not any(k > 0 for _, k in ins):
            continue
        from .correlators import vdim as _vdim

        shortfall = _vdim(target, (d,), n) - sum(target.degree(a) + k for a, k in ins)
        if shortfall > 0:
            a0, k0 = ins[0]
            ins[0] = (a0, k0 + shortfall)
        elif shortfall < 0:
            continue
        via_divisor = eng.reduce_divisor_first((d,), ins)
        via_recursion = eng.reduce_recursion_first((d,), ins)
        if via_divisor != via_recursion:
            failures.append({"path_independence": [name, d, sorted(ins)]})
        checked += 1
    report = CheckReport(
        name="engine-oracles",
        passed=not failures,
        params={"path_independence_keys": checked},
        failures=failures,
        seed=seed,
    )
    report.elapsed = time.perf_counter() - started
    return report


def _localisation_report(t, trunc, engine, seed):
    report = check_main_identity(t, trunc, engine, seed=seed)
    target = t.target
    for beta in iter_betas(target.class_rank, trunc.novikov_order):
        for n in range(trunc.epsilon_order + 1):
            records = enumerate_splittings(target, beta, n)
            expected = oracles.brute_force_splittings(target, beta, n)
            got = sorted((r.kind, r.beta0, r.beta_inf, r.n0, r.n_inf) for r in records)
            if got != list(expected):
                report.passed = False
                report.failures.append({"enumeration": [list(beta), n]})
            if len(set(records)) != len(records):
                report.passed = False
                report.failures.append({"duplicate_records": [list(beta), n]})
            bad = check_splitting_weights(records)
            if bad:
                report.passed = False
                report.failures.append({"weights": [list(beta), n]})
    return report


def _run_suites(cfg, suites, k_max, target, trunc, t) -> list[CheckReport]:
    engine = get_engine(target)
    seed = cfg["seed"]
    reports = []
    for suite in suites:
        if suite == "darboux":
            reports.append(check_darboux(target, k_max=6))
        elif suite == "engine-oracles":
            reports.append(_engine_oracle_report(seed))
        elif suite == "polynomiality":
            reports.append(check_polynomiality(t, trunc, engine, seed=seed))
        elif suite == "inverse":
            reports.append(check_inverse(t, trunc, engine, seed=seed))
        elif suite == "universal":
            reports.append(check_universal_relations(t, k_max, trunc, engine, seed=seed))
        elif suite == "lagrangian":
            reports.append(check_lagrangian(t, trunc, engine, j_max=1, seed=seed))
        elif suite == "tangent":
            reports.append(check_cone_in_tangent(t, trunc, engine, seed=seed))
        elif suite == "localisation":
            reports.append(_localisation_report(t, trunc, engine, seed))
        else:
            raise UsageError(f"unknown suite {suite!r}; choose from {SUITES}")
    return reports


def _emit(payload: dict, cfg, fmt_human_lines) -> None:
    text = (
        json.dumps(payload, indent=2, sort_keys=True)
        if cfg.get("format") == "json"
        else "\n".join(fmt_human_lines)
    )
    if cfg.get("out"):
        with open(cfg["out"], "w") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_verify(args) -> int:
    cfg = _merge_config(args)
    suites = SUITES if args.suites == "all" else tuple(s.strip() for s in args.suites.split(","))
    target = _resolve_target(cfg)
    trunc = _resolve_truncation(cfg, target)
    t = _resolve_t(cfg, target)
    reports = _run_suites(cfg, suites, args.k_max, target, trunc, t)
    passed = all(r.passed for r in reports)
    payload = {
        "config": {
            **{k: (str(v) if isinstance(v, Fraction) else v) for k, v in cfg.items()},
            "window": [trunc.z_min, trunc.z_max],
            "t_coefficients": [[str(c) for c in vec] for vec in t.coeffs],
        },
        "passed": passed,
        "checks": [r.as_dict() for r in reports],
    }
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name} ({r.elapsed:.3f}s)")
        for failure in r.failures[:10]:
            lines.append(f"     {json.dumps(failure, sort_keys=True)}")
    lines.append("all checks passed" if passed else "FAILURES present")
    _emit(payload, cfg, lines)
    return 0 if passed else EXIT_CHECK_FAILED


def _cmd_series(args) -> int:
    cfg = _merge_config(args)
    target = _resolve_target(cfg)
    trunc = _resolve_truncation(cfg, target)
    t = _resolve_t(cfg, target)
    engine = get_engine(target)
    if args.which == "cone":
        series = cone_point(t, trunc, engine)
    elif args.which == "SL":
        series = s_apply(t, cone_point(t, trunc, engine), trunc, engine)
    elif args.which == "locsum":
        series = localisation_sum(t, trunc, engine)
    else:
        series = tangent_vector(t, args.alpha, args.k, trunc, engine)
    payload = {
        "target": target.name,
        "truncation": {
            "D": trunc.novikov_order,
            "E": trunc.epsilon_order,
            "z_min": trunc.z_min,
            "z_max": trunc.z_max,
        },
        "which": args.which,
        "series": series.to_records(),
    }
    _emit(payload, cfg, [json.dumps(payload, sort_keys=True)])
    return 0


_QUERY_RE = re.compile(r"^\s*d\s*=\s*(?P<deg>\(\s*\)|\([\d\s,]*\)|\d+)\s*;(?P<ins>.*)$")
_INSERTION_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)(?:\s*[x\xd7]\s*(\d+))?")


def parse_correlator_query(target, query: str):
    m = _QUERY_RE.match(query)
    if not m:
        raise UsageError(
            "query must look like 'd=<degree>; (alpha,k) (alpha,k) ...'"
        )
    deg = m.group("deg").strip()
    if deg.startswith("("):
        inner = deg[1:-1].strip()
        beta = tuple(int(x) for x in inner.split(",")) if inner else ()
    else:
        beta = (int(deg),)
    if len(beta) != target.class_rank:
        raise UsageError(
            f"degree {beta} has rank {len(beta)}; target {target.name} has rank {target.class_rank}"
        )
    body = m.group("ins")
    insertions = []
    for match in _INSERTION_RE.finditer(body):
        alpha, k, times = int(match.group(1)), int(match.group(2)), match.group(3)
        insertions.extend([(alpha, k)] * (int(times) if times else 1))
    leftover = _INSERTION_RE.sub("", body).strip()
    if leftover:
        raise UsageError(f"unparsed query fragment {leftover!r}")
    if not insertions:
        raise UsageError("query contains no insertions")
    return beta, insertions


def _cmd_correlator(args) -> int:
    target = make_target(args.target)
    beta, insertions = parse_correlator_query(target, args.query)
    value = get_engine(target).correlator(beta, insertions)
    print(f"{value.numerator}/{value.denominator}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "series":
            return _cmd_series(args)
        return _cmd_correlator(args)
    except (UsageError, InvalidKeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigurationError, TruncationOverflowError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StabilityError, CapabilityError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
