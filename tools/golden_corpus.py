"""Write the golden corpus: a digest of every output of a fixed list of CLI
runs, which ``tests/test_golden_corpus.py`` recomputes and compares; or,
with ``--sweep``, the digest of every run of ``tools/window_sweep.py``.

The corpus is 46 runs, all in-process through ``gwlab.cli.main``:

- ``verify --suites all --format json`` and the four ``series --which
  cone|SL|locsum|tangent`` dumps, on the point, P1 and P2 at D2 E3 T1 with
  seeds 1, 7 and 13 (45 runs);
- ``verify --suites all --format json`` on P2 at D4 E5 T1 with seed 7.

Each run is recorded as ``tools/window_sweep.py`` records it, timing fields
blanked, and then reduced to its argv, its exit code and the first 16 hex
digits of the SHA-256 of its stdout and of its stderr, one run a line.
A sweep run is reduced the same way, but named by its index into
``window_sweep.sweep_argvs()`` instead of its argv, one
``[index, exit, stdout, stderr]`` list a line, so that the 5,406 runs fit
in about 270 KB.

Run from the root of a checkout (gwlab is imported from ``src/``):

    python tools/golden_corpus.py tests/golden_corpus.json
    python tools/golden_corpus.py --sweep tests/golden_sweep.json

Every verdict and dump is meant to stay byte-identical, so rewrite the
file only in a change that alters an output on purpose, and say in that
change which runs moved and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from window_sweep import run, sweep_argvs  # noqa: E402

_SMALL = ["--D", "2", "--E", "3", "--T", "1"]
COMMANDS = (
    ["verify", "--suites", "all", "--format", "json"],
    *(["series", "--which", which] for which in ("cone", "SL", "locsum", "tangent")),
)


def corpus_argvs():
    for target, seed, command in product(("point", "P1", "P2"), (1, 7, 13), COMMANDS):
        yield command + ["--target", target, *_SMALL, "--seed", str(seed)]
    yield COMMANDS[0] + ["--target", "P2", "--D", "4", "--E", "5", "--T", "1", "--seed", "7"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(argv: list[str]) -> dict:
    record = run(argv)
    return {
        "argv": argv,
        "exit": record["exit"],
        "stdout": _digest(record["stdout"]),
        "stderr": _digest(record["stderr"]),
    }


def corpus() -> list[dict]:
    return [digest(argv) for argv in corpus_argvs()]


def sweep_row(index: int, argv: list[str]) -> list:
    record = digest(argv)
    return [index, record["exit"], record["stdout"], record["stderr"]]


def sweep() -> list[list]:
    return [sweep_row(i, argv) for i, argv in enumerate(sweep_argvs())]


if __name__ == "__main__":
    sweeping = sys.argv[1:2] == ["--sweep"]
    args = sys.argv[1 + sweeping:]
    if len(args) != 1:
        sys.exit("usage: python tools/golden_corpus.py [--sweep] OUTPUT.json")
    runs = sweep() if sweeping else corpus()
    with open(args[0], "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in runs) + "\n]\n")
    print(f"{len(runs)} runs written to {args[0]}")
