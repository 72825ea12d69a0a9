"""Run the benchmark once per seed and report each metric's spread.

    python3 verifybench/spread.py --seeds 1-10 [--seconds S] [--trace 1] [WORKLOAD ...]

Runs go one after another, each in its own process, from the root of a
checkout, for ``run_seconds`` from BENCHMARK.json unless ``--seconds``
is given.  For every workload and metric this prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``), and
their distance as a share of the median; with no workload named, all
four run.  The raw results are written to
``.verifybench_out/spread-<first seed>-<last seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".verifybench_out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workloads:
        runs = [one_run(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        summary = summarise(runs)
        shares = {r["failed"] / r["attempted"] for r in runs}
        report[workload] = {"runs": runs, "summary": summary}
        print(f"{workload}: correct={all(r['correct'] for r in runs)} failed shares={sorted(shares)}")
        for name, s in summary.items():
            print(f"  {name:30s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  iqr/median {s['iqr_share']:.4f}")
        sys.stdout.flush()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spread-{args.seeds[0]}-{args.seeds[-1]}{'-trace' if args.trace else ''}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
