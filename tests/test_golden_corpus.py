"""Every run of the golden corpus prints what it printed when
``tests/golden_corpus.json`` was written: the same exit code and the same
stdout and stderr, timing fields blanked, compared by digest.  Under each
fault of ``tests/test_fault_matrix.py`` some run prints something else.
Every run of ``tools/window_sweep.py`` likewise prints what it printed
when ``tests/golden_sweep.json`` was written.

``tools/golden_corpus.py`` lists the runs and rewrites both files.  A
change that alters an output on purpose rewrites them and says which runs
moved.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from gwlab.correlators import get_engine
from test_fault_matrix import FAULTS, _clear_caches

_ROOT = Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "golden_corpus.py"
_FILE = Path(__file__).resolve().parent / "golden_corpus.json"
_SWEEP = Path(__file__).resolve().parent / "golden_sweep.json"


def _tool():
    spec = importlib.util.spec_from_file_location("golden_corpus", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_the_golden_corpus_is_unchanged():
    tool = _tool()
    want = json.loads(_FILE.read_text())
    assert [run["argv"] for run in want] == list(tool.corpus_argvs())
    get_engine.cache_clear()  # fresh engines, whatever earlier tests left cached
    for run in want:
        got = tool.digest(run["argv"])
        assert got == run, "first run that differs: " + " ".join(run["argv"])


def test_the_window_sweep_is_unchanged():
    tool = _tool()
    want = json.loads(_SWEEP.read_text())
    argvs = list(tool.sweep_argvs())
    assert len(argvs) == 5406
    assert [row[0] for row in want] == list(range(len(argvs)))
    get_engine.cache_clear()
    for row, argv in zip(want, argvs):
        assert tool.sweep_row(row[0], argv) == row, "first run that differs: " + " ".join(argv)


@pytest.mark.parametrize("fault", list(FAULTS))
def test_the_golden_corpus_sees_every_fault(fault, monkeypatch):
    bindings, _ = FAULTS[fault]
    tool = _tool()
    want = json.loads(_FILE.read_text())
    _clear_caches()
    try:
        with monkeypatch.context() as patch:
            for owner, name, wrap in bindings:
                patch.setattr(owner, name, wrap(getattr(owner, name)))
            # The first run that differs, if any: the rest need not run.
            moved = next((run["argv"] for run in want if tool.digest(run["argv"]) != run), None)
    finally:
        _clear_caches()
    assert moved is not None, f"no run of the golden corpus sees the fault {fault}"
