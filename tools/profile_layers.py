"""Profile one CLI run and split its time into the four layers of the
project's performance aims, plus ``Fraction``'s own share.

The run is ``gwlab.cli.main`` under ``cProfile``, in-process, its output
discarded.  Each gwlab function belongs to one layer:

- ``reduction``: correlator reduction in ``correlators.py`` (and the
  ``oracles`` it is checked against);
- ``block_assembly``: the fibre and flow kernel blocks, ``_block`` with
  the key check it shares with ``correlator_with_kernel`` and the kernel
  correlators it asks for, up to the reduction they start;
- ``accumulation``: graded series accumulation and convolution in
  ``series.py``, ``cone.py`` (the kernel slices ``cone._slice`` builds
  among them), ``localisation.py`` and the matrix builders of
  ``matrices.py``;
- ``linear_algebra``: ``_solve_membership`` with the helpers it calls
  (``_integral``, the lcm scaler, ``_peel`` and the elimination
  ``_reduce``), ``compose`` with the ``apply_linear`` and ``column`` it
  runs, and ``omega``;

and the rest (suite bookkeeping, the CLI) is ``other``.  A function
outside those modules -- ``Fraction`` arithmetic, builtins, the target's
tables -- has no layer of its own: its own time goes to its callers in
proportion to the time each call site spent in it, up to the first gwlab
caller.  So the layers partition the profiled time.

Run from the root of a checkout (gwlab is imported from ``src/``):

    python tools/profile_layers.py OUT.json [CLI ARGS ...]

The default CLI args are ``verify --suites all --target P2 --D 4 --E 5
--T 1 --seed 7 --format json``.  OUT.json holds the layer times and
shares, ``Fraction``'s own time and share, the number of ``Fraction``s
formed (``fraction_new_calls``, the calls of ``Fraction.__new__``), the
calls of ``CorrelatorEngine.correlator`` (``correlator_calls``: the keys
canonicalised and checked from outside the engine, which a bracket sum
makes only for the keys missing from the engine's value table), the
calls of ``CorrelatorEngine._reduce`` (``reduce_calls``: the keys reduced,
each once, so on a fresh engine the size of its value table), the calls
and cumulative share of ``CorrelatorEngine._block`` and
``cone._kernel_sum``, the calls of ``SeriesAccumulator.add`` and of
``series.merge``, and the top functions by own time.  ``fibre_block`` and
``flow_block`` serve a cached block themselves and enter ``_block`` only
on a miss, so ``block.calls`` counts the blocks built and
``block_requests``, the calls of ``fibre_block`` plus ``flow_block``, the
blocks asked for; ``slices``, the calls of ``cone._slice``, counts the
kernel slices built, each of which asks for its blocks once.  Every
graded sum ends in ``series.merge``, so ``merge_calls`` counts the merged
products; ``acc_add_calls`` counts only the direct
``SeriesAccumulator.add`` calls, which are the cone point's degree-zero
pieces, since the kernel sum, ``add_series`` and ``apply_linear`` merge
their terms without it.  ``records``, the calls of
``localisation._record_sums``, counts the fixed-locus records summed,
each once per ``localisation_sum``.
"""

from __future__ import annotations

import cProfile
import inspect
import io
import json
import pstats
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gwlab import checks, cli, cone, correlators, localisation, matrices, oracles, series  # noqa: E402

DEFAULT_ARGS = "verify --suites all --target P2 --D 4 --E 5 --T 1 --seed 7 --format json".split()
LAYERS = ("reduction", "block_assembly", "accumulation", "linear_algebra", "other")

# qualified name -> layer, for the functions whose module alone does not decide it
_NAMED = {
    **dict.fromkeys(
        ("CorrelatorEngine._block", "CorrelatorEngine.fibre_block", "CorrelatorEngine.flow_block",
         "CorrelatorEngine.correlator_with_kernel", "CorrelatorEngine._kernel_key", "CorrelatorEngine._kernel",
         "CorrelatorEngine._room"),
        "block_assembly",
    ),
    **dict.fromkeys(("_solve_membership", "_integral", "_peel", "_reduce"), "linear_algebra"),
    **dict.fromkeys(
        ("compose", "EndoSeries.apply_linear", "EndoSeries.column", "LoopSeries.omega"), "linear_algebra"
    ),
}
_BY_MODULE = {
    correlators: "reduction",
    oracles: "reduction",
    series: "accumulation",
    cone: "accumulation",
    localisation: "accumulation",
    matrices: "accumulation",
    checks: "other",
    cli: "other",
}


def _layer_of_code() -> dict[tuple, str]:
    """(filename, first line, name) of each gwlab function -> its layer."""
    out = {}
    for module, default in _BY_MODULE.items():
        objects = [(name, obj) for name, obj in vars(module).items() if inspect.isfunction(obj)]
        for cls_name, cls in vars(module).items():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                objects += [(f"{cls_name}.{name}", obj) for name, obj in vars(cls).items()]
        for qualname, obj in objects:
            fn = inspect.unwrap(getattr(obj, "__func__", getattr(obj, "fget", obj)))
            code = getattr(fn, "__code__", None)
            if code is not None and code.co_filename == module.__file__:
                out[(code.co_filename, code.co_firstlineno, code.co_name)] = _NAMED.get(qualname, default)
    return out


def _layer_times(stats: dict, layer_of: dict) -> dict[str, float]:
    """Own time per layer; a function without a layer passes its own time up
    to its callers, weighted by the time spent in it from each call site."""
    shares: dict[tuple, dict[str, float]] = {}

    def share(func, path=()):
        if func in layer_of:
            return {layer_of[func]: 1.0}
        if func in shares:
            return shares[func]
        callers = {c: edge[2] for c, edge in stats[func][4].items() if c not in path and c in stats}
        total = sum(callers.values())
        out: dict[str, float] = {}
        for caller, t in callers.items():
            for layer, w in share(caller, path + (func,)).items():
                out[layer] = out.get(layer, 0.0) + w * t / total
        shares[func] = out = out if total else {"other": 1.0}
        return out

    times = dict.fromkeys(LAYERS, 0.0)
    for func, (_, _, own, _, _) in stats.items():
        for layer, w in share(func).items():
            times[layer] += w * own
    return times


def _find(stats: dict, filename: str, name: str):
    """(calls, cumulative s) of the one function ``name`` defined in ``filename``."""
    for (fname, _, fn), (_, calls, _, cum, _) in stats.items():
        if fname == filename and fn == name:
            return calls, cum
    return 0, 0.0


def _calls(stats: dict, fn) -> int:
    """The calls of the function ``fn``."""
    code = fn.__code__
    entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return entry[1] if entry else 0


def profile(args: list[str]) -> dict:
    profiler = cProfile.Profile()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = profiler.runcall(cli.main, args)
    stats = pstats.Stats(profiler).stats
    total = sum(own for _, _, own, _, _ in stats.values())
    layers = _layer_times(stats, _layer_of_code())
    fraction_file = inspect.getsourcefile(series.Fraction)
    fraction_own = sum(own for (fname, _, _), (_, _, own, _, _) in stats.items() if fname == fraction_file)
    block_calls, block_cum = _find(stats, correlators.__file__, "_block")
    sum_calls, sum_cum = _find(stats, cone.__file__, "_kernel_sum")
    top = sorted(stats.items(), key=lambda item: -item[1][2])[:15]
    return {
        "argv": args,
        "exit": code,
        "total_s": round(total, 3),
        "layers": {name: {"s": round(t, 3), "share": round(t / total, 3)} for name, t in layers.items()},
        "fraction_own_s": round(fraction_own, 3),
        "fraction_own_share": round(fraction_own / total, 3),
        "correlator_calls": _calls(stats, correlators.CorrelatorEngine.correlator),
        "reduce_calls": _calls(stats, correlators.CorrelatorEngine._reduce),
        "block_requests": _calls(stats, correlators.CorrelatorEngine.fibre_block)
        + _calls(stats, correlators.CorrelatorEngine.flow_block),
        "block": {"calls": block_calls, "cum_s": round(block_cum, 3), "share": round(block_cum / total, 3)},
        "slices": _calls(stats, cone._slice),
        "kernel_sum": {"calls": sum_calls, "cum_s": round(sum_cum, 3), "share": round(sum_cum / total, 3)},
        "acc_add_calls": _calls(stats, series.SeriesAccumulator.add),
        "merge_calls": _calls(stats, series.merge),
        "records": _calls(stats, localisation._record_sums),
        "fraction_new_calls": _calls(stats, series.Fraction.__new__),
        "top_own": [
            {"function": f"{Path(fname).name}:{line}({fn})", "calls": calls, "own_s": round(own, 3)}
            for (fname, line, fn), (_, calls, own, _, _) in top
        ],
    }


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tools/profile_layers.py OUT.json [CLI ARGS ...]")
    report = profile(sys.argv[2:] or DEFAULT_ARGS)
    with open(sys.argv[1], "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    shares = ", ".join(f"{name} {v['share']:.0%}" for name, v in report["layers"].items())
    print(f"{report['total_s']} s profiled: {shares}; Fraction own {report['fraction_own_share']:.0%}")
