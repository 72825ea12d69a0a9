"""Every run of the golden corpus prints what it printed when
``tests/golden_corpus.json`` was written: the same exit code and the same
stdout and stderr, timing fields blanked, compared by digest.

``tools/golden_corpus.py`` lists the runs and rewrites the file.  A change
that alters an output on purpose rewrites it and says which runs moved.
"""

import importlib.util
import json
from pathlib import Path

from gwlab.correlators import get_engine

_ROOT = Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "golden_corpus.py"
_FILE = Path(__file__).resolve().parent / "golden_corpus.json"


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
