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
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction

from .checks import (
    _trunc_params,
    check_cone_in_tangent,
    check_darboux,
    check_engine_oracles,
    check_inverse,
    check_lagrangian,
    check_polynomiality,
    check_universal_relations,
)
from .cone import TPolynomial, cone_point, s_apply, sufficient_window, tangent_vector
from .correlators import CapabilityError, InvalidKeyError, StabilityError, get_engine
from .localisation import check_localisation, localisation_sum
from .series import MismatchError, Truncation, TruncationError, TruncationOverflowError
from .targets import ConfigurationError, load_target, make_target

_Run = namedtuple("_Run", "t trunc engine seed k_max")

# Suite name -> runner of a _Run, in report order.  A runner looks its check
# up in this module's globals when called, so a check patched here is the one run.
_SUITE_RUNNERS = {
    "darboux": lambda run: check_darboux(run.t.target, k_max=6),
    "engine-oracles": lambda run: check_engine_oracles(run.seed),
    "polynomiality": lambda run: check_polynomiality(run.t, run.trunc, run.engine, seed=run.seed),
    "inverse": lambda run: check_inverse(run.t, run.trunc, run.engine, seed=run.seed),
    "universal": lambda run: check_universal_relations(
        run.t, run.k_max, run.trunc, run.engine, seed=run.seed
    ),
    "lagrangian": lambda run: check_lagrangian(run.t, run.trunc, run.engine, j_max=1, seed=run.seed),
    "tangent": lambda run: check_cone_in_tangent(run.t, run.trunc, run.engine, seed=run.seed),
    "localisation": lambda run: check_localisation(run.t, run.trunc, run.engine, seed=run.seed),
}
SUITES = tuple(_SUITE_RUNNERS)
_FORMATS = ("human", "json")

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
        p.add_argument("--format", choices=_FORMATS, default=None)

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
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    return data


# JSON types of the config-file values used as read (null is also taken
# where the default is None); "format" is checked against _FORMATS.
_CONFIG_TYPES = {
    **dict.fromkeys(("D", "E", "T", "seed", "z_min", "z_max"), int),
    **dict.fromkeys(("target", "out", "target_config", "t"), str),
}


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
        for key, val in file_cfg.items():
            if key == "format" and val not in _FORMATS:
                raise ConfigurationError(f"config key 'format' must be one of {_FORMATS}, got {val!r}")
            typ = _CONFIG_TYPES.get(key)
            if typ is None or (val is None and cfg.get(key) is None):
                continue
            if not isinstance(val, typ) or isinstance(val, bool):
                raise ConfigurationError(
                    f"config key {key!r} must be of type {typ.__name__}, got {val!r}"
                )
        cfg.update(file_cfg)
    for key in [*cfg, "target_config"]:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


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
    coeffs = []
    for group in spec.split(";"):
        parts = group.split(",")
        if len(parts) != target.rank:
            raise UsageError(
                f"each ; group of --t needs {target.rank} comma-separated rationals"
            )
        coeffs.append(tuple(_parse_rational(p) for p in parts))
    if len(coeffs) != cfg["T"] + 1:
        # The window is sized for T, so t must have degree T: one ; group per power of z.
        raise UsageError(f"--t has {len(coeffs)} ; groups, but T = {cfg['T']} needs {cfg['T'] + 1}")
    return TPolynomial(target, tuple(coeffs))


def _resolve_truncation(cfg, target) -> Truncation:
    if cfg["T"] < 0:
        raise ConfigurationError(f"T must be non-negative, got {cfg['T']}")
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
    except TruncationError as exc:
        raise ConfigurationError(str(exc)) from exc


def _resolve_run(cfg):
    """Target, truncation and t of a merged config, in the order that picks
    the error a bad run reports."""
    if cfg.get("target_config"):
        target = load_target(_load_config_file(cfg["target_config"]))
    else:
        target = make_target(cfg["target"])
    return target, _resolve_truncation(cfg, target), _resolve_t(cfg, target)


def _emit(payload: dict, cfg, fmt_human_lines) -> None:
    text = (
        json.dumps(payload, indent=2, sort_keys=True)
        if cfg.get("format") == "json"
        else "\n".join(fmt_human_lines)
    )
    if cfg.get("out"):
        try:
            with open(cfg["out"], "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {cfg['out']}: {exc}") from exc
    print(text)


def _cmd_verify(args) -> int:
    suites = SUITES if args.suites == "all" else tuple(s.strip() for s in args.suites.split(","))
    cfg = _merge_config(args)
    if "universal" in suites and args.k_max < 2:
        raise UsageError(f"--k-max is {args.k_max}; the universal relations start at k = 2")
    target, trunc, t = _resolve_run(cfg)
    unknown = next((s for s in suites if s not in _SUITE_RUNNERS), None)
    if unknown is not None:
        raise UsageError(f"unknown suite {unknown!r}; choose from {SUITES}")
    run = _Run(t, trunc, get_engine(target), cfg["seed"], args.k_max)
    reports = [_SUITE_RUNNERS[suite](run) for suite in suites]
    passed = all(r.passed for r in reports)
    payload = {
        "config": {
            **cfg,
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
    target, trunc, t = _resolve_run(cfg)
    engine = get_engine(target)
    if args.which == "tangent" and not (0 <= args.alpha < target.rank and args.k >= 0):
        raise UsageError(
            f"tangent on {target.name} needs 0 <= --alpha < {target.rank} and --k >= 0, "
            f"got --alpha {args.alpha} --k {args.k}"
        )
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
        "truncation": _trunc_params(trunc),
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
        items = [x.strip() for x in inner.split(",")] if inner else []
        if len(items) > 1 and not items[-1]:
            items.pop()  # one trailing comma, as in (1,)
        if not all(x.isdecimal() for x in items):
            raise UsageError(f"degree {deg} must be integers separated by commas")
        beta = tuple(int(x) for x in items)
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
    command = {"verify": _cmd_verify, "series": _cmd_series}.get(args.command, _cmd_correlator)
    try:
        code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # stdout was closed early: point it at devnull, so that the interpreter's final flush cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"usage error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, InvalidKeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigurationError, TruncationOverflowError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StabilityError, CapabilityError, MismatchError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
