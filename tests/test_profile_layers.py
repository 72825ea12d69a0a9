"""``tools/profile_layers.py`` splits a profiled CLI run into layers that
partition its time."""

import importlib.util
import inspect
from pathlib import Path

from gwlab import checks, make_target
from gwlab.correlators import get_engine

_PATH = Path(__file__).resolve().parent.parent / "tools" / "profile_layers.py"


def test_layers_partition_the_profiled_time():
    spec = importlib.util.spec_from_file_location("profile_layers", _PATH)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    get_engine.cache_clear()  # a fresh engine, so the run reduces and builds blocks
    report = tool.profile(["verify", "--target", "P2", "--D", "2", "--E", "2", "--suites", "polynomiality,inverse"])
    assert report["exit"] == 0
    assert set(report["layers"]) == set(tool.LAYERS)
    assert abs(sum(v["s"] for v in report["layers"].values()) - report["total_s"]) < 0.01
    assert all(report["layers"][name]["s"] > 0 for name in ("reduction", "block_assembly", "accumulation", "linear_algebra"))
    assert report["block_requests"] >= report["block"]["calls"] > 0 and report["kernel_sum"]["calls"] > 0
    assert report["slices"] > 0
    assert report["correlator_calls"] == 0  # the kernel sums ask the engine for blocks, not correlators
    assert report["reduce_calls"] == len(get_engine(make_target("P2"))._values) > 0  # each key reduced once
    get_engine.cache_clear()
    alone = tool.profile(["verify", "--target", "P2", "--D", "2", "--E", "2", "--suites", "universal"])
    assert alone["correlator_calls"] > 0  # on a fresh engine, the keys the bracket sums miss
    assert report["merge_calls"] > 0
    assert report["fraction_new_calls"] > 0
    assert 0 < report["fraction_own_share"] < 1


def _called_names(code) -> set[str]:
    """Global names a code object reads, its nested comprehensions included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= _called_names(const)
    return names


def test_every_helper_of_the_span_solve_is_linear_algebra():
    spec = importlib.util.spec_from_file_location("profile_layers", _PATH)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    seen, todo = set(), ["_solve_membership"]
    while todo:
        name = todo.pop()
        seen.add(name)
        for called in _called_names(getattr(checks, name).__code__) - seen:
            obj = getattr(checks, called, None)
            if inspect.isfunction(obj) and obj.__module__ == checks.__name__:
                todo.append(called)
    assert {"_solve_membership", "_integral", "_peel", "_reduce"} <= seen
    assert {name: tool._NAMED.get(name) for name in seen} == dict.fromkeys(seen, "linear_algebra")
