"""Benchmark of the gwlab verify suites, split by layer.

    python3 verifybench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; gwlab is imported from ``src/``.  One
process, one thread.  Set-up is timed SETUP_REPEATS times, each from a
fresh import of gwlab, and the median is reported.  Then whole rounds of
ops run until ``--seconds`` have passed and at least MIN_OPS ops have
completed.  Garbage is collected before each op; each op's timed section
runs from the call to the verdict, and its correctness check runs after,
untimed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
layers (see ``tracer.py``) and prints the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The same object, with the op
samples and, when traced, the layer totals, is written under
``.verifybench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracer import PER_LAYER, instrument, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".verifybench_out"

SETUP_REPEATS = 5
MIN_OPS = 40  # so that op_tail_s has ten samples beyond it at p75 or higher
TAIL_BEYOND = 10
REF_REPEATS = 3
REF_SECONDS = 0.003  # the reference work's time at this machine's fast state
MODULES = ("targets", "series", "correlators", "cone", "matrices", "checks", "localisation")

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def reference_work() -> dict:
    """Fixed exact-rational elimination and dict accumulation, written apart
    from gwlab so that no change to gwlab changes its cost."""
    n = 9
    rows = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(n)] for i in range(n)]
    acc: dict = {}
    for c in range(n):
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
                key = (r % 3, c % 4, (r, c))
                acc[key] = acc.get(key, 0) + f
    return acc


def speed_factor() -> float:
    """REF_SECONDS over the time the reference work takes now (median of
    REF_REPEATS), which scales a wall time to the reference speed."""
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return REF_SECONDS / statistics.median(times)


def tail(samples: list[float]) -> float | None:
    """The highest sample with at least TAIL_BEYOND samples beyond it, or
    None when there are fewer than 4 * TAIL_BEYOND samples (no tail)."""
    if len(samples) < 4 * TAIL_BEYOND:
        return None
    return sorted(samples)[-TAIL_BEYOND - 1]


def op_metrics(samples: list[float]) -> dict:
    """The op metrics of a run from its op times."""
    return {
        "op_p50_s": statistics.median(samples),
        "op_tail_s": tail(samples),
        "ops_per_s": len(samples) / sum(samples),
    }


def fresh_import(workload):
    """Import gwlab from scratch and set the workload up; returns the
    seconds taken, a namespace of the gwlab modules by short name (the
    package itself as ``gwlab``) and the workload's state."""
    for name in [m for m in sys.modules if m == "gwlab" or m.startswith("gwlab.")]:
        del sys.modules[name]
    gc.collect()
    started = time.perf_counter()
    g = argparse.Namespace(gwlab=importlib.import_module("gwlab"))
    for m in MODULES:
        setattr(g, m, importlib.import_module(f"gwlab.{m}"))
    state = workload.setup(g)
    elapsed = time.perf_counter() - started
    g.oracles = importlib.import_module("gwlab.oracles")  # used by the checks only
    return elapsed, g, state


def run(workload, seed: int, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS,
        min_ops: int = MIN_OPS) -> tuple[dict, dict]:
    """Set up, run whole rounds of ops and return (result, detail): the
    printed result object and the record written to disk."""
    setup_times, setup_scaled = [], []
    for _ in range(setup_repeats):
        before = speed_factor()
        elapsed, g, state = fresh_import(workload)
        setup_times.append(elapsed)
        setup_scaled.append(elapsed * (before + speed_factor()) / 2)
    tracer = instrument(vars(g)) if trace else None

    rng = random.Random(f"{workload.name}/{seed}")
    op_times: list[float] = []
    op_scaled: list[float] = []
    factors: list[float] = []
    attempted = failed = 0
    correct = True
    started = time.perf_counter()
    while True:
        for op in workload.round(g, state, rng):
            gc.collect()
            before = speed_factor()
            attempted += 1
            if tracer and not op.probe:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # an op that raises is a failed op; the run goes on
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            finally:
                elapsed = time.perf_counter() - t0
                if tracer:
                    tracer.enabled = False
            factor = (before + speed_factor()) / 2
            ok = op.check(out)
            if op.probe:
                failed += not ok
                continue
            correct = correct and ok
            op_times.append(elapsed)
            op_scaled.append(elapsed * factor)
            factors.append(factor)
        if time.perf_counter() - started >= seconds and len(op_times) >= min_ops:
            break

    if trace:
        metrics = layer_metrics(tracer, op_times, op_scaled, statistics.median(factors))
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            **op_metrics(op_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "setup_wall_s": setup_times,
        "setup_scaled_s": setup_scaled,
        "op_wall_s": op_times,
        "op_scaled_s": op_scaled,
        "layers": tracer.snapshot() if tracer else None,
        **result,
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gwlab" / "__init__.py").is_file():
        print(f"no gwlab sources under {SRC}; run from the root of a gwlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result, detail = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "result"
    path = OUT / f"{kind}-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
