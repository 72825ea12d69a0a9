"""A reader that closes stdout early, as ``gwlab ... | head -c 600`` does,
ends the run with exit 2 and one stderr line, as an unwritable ``--out``
does: no ``BrokenPipeError`` traceback, neither from the write nor from
the interpreter's final flush.

Each run is a fresh process whose stdout pipe has no reader from the
start, so every write to it fails, whatever the size of the output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")

ARGVS = [
    # Large enough to fail in print: the JSON report.
    ["verify", "--suites", "darboux", "--target", "P1", "--D", "1", "--E", "1", "--T", "1", "--seed", "7", "--format", "json"],
    # The human report.
    ["verify", "--suites", "darboux", "--target", "P1", "--D", "1", "--E", "1", "--T", "1", "--seed", "7"],
    # One short line, which only the final flush would write.
    ["correlator", "--target", "P1", "d=1; (1,0) (1,0)"],
]


@pytest.mark.parametrize("argv", ARGVS, ids=["json", "human", "correlator"])
def test_a_closed_stdout_exits_2_with_one_line(argv):
    env = {**os.environ, "PYTHONPATH": _SRC}
    proc = subprocess.Popen(
        [sys.executable, "-m", "gwlab.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()  # no reader is left on the pipe
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert stderr == "usage error: cannot write stdout: [Errno 32] Broken pipe\n"
