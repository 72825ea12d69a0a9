"""``tools/profile_layers.py`` splits a profiled CLI run into layers that
partition its time."""

import importlib.util
from pathlib import Path

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
    assert report["merge_calls"] > 0
    assert report["fraction_new_calls"] > 0
    assert 0 < report["fraction_own_share"] < 1
