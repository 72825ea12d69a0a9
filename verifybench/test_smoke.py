"""Smoke test of the benchmark's own code.

    python3 -m pytest -q verifybench/test_smoke.py

Runs one round of each workload, untraced and traced, with a single
set-up, and checks the statistics helpers on fixed inputs and that
BENCHMARK.json names what the benchmark prints.
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(x) for x in range(39)]) is None
    assert run.tail([float(x) for x in range(40)]) == 29.0
    samples = [float(x) for x in range(100)]
    random.Random(0).shuffle(samples)
    assert run.tail(samples) == 89.0


def test_op_metrics():
    samples = [0.5] * 25 + [1.0] * 14 + [2.0] + [4.0] * 10
    random.Random(1).shuffle(samples)
    metrics = run.op_metrics(samples)
    assert metrics["op_p50_s"] == 0.75  # even count: the mean of the middle two
    assert metrics["op_tail_s"] == 2.0
    assert metrics["ops_per_s"] == 50 / 68.5
    assert run.op_metrics([1.0, 3.0, 2.0])["op_p50_s"] == 2.0


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_round(name, trace):
    result, detail = run.run(WORKLOADS[name], seed=3, seconds=0, trace=trace, setup_repeats=1, min_ops=1)
    probes = {"tangent-span": 1, "correlator-sweep": 1}.get(name, 0)
    assert result["correct"]
    assert result["failed"] <= probes
    assert result["attempted"] == len(detail["op_wall_s"]) + probes
    expected = PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for metric, value in result["metrics"].items():
        if metric != "op_tail_s":  # no tail below 40 samples
            assert isinstance(value["value"], (int, float)), metric


def test_benchmark_json_names_what_is_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
