"""Run the CLI over a sweep of z-windows and record every outcome, so that
two checkouts can be diffed run by run.

The sweep covers the point, P1 and P2; T in 0..2; --z-min in -1..-10;
--z-max in 1..3; and (D, E) in (2, 2), (2, 3), (3, 2), (1, 4).  At each
setting it runs one ``verify`` with the polynomiality, inverse,
lagrangian, tangent and localisation suites, and the four ``series``
dumps: 5,400 runs.  Then it runs a fixed list of ``correlator`` queries:
one valid key per target, and the degree tuples with a trailing or an
empty entry, ``(1,)``, ``(,)`` and ``(1,,0)``.  All 5,406 runs go
in-process through ``gwlab.cli.main``.  Each run is written with its
argv, exit code, stdout and stderr; the only edits are the timing
fields (``elapsed_s`` and the human ``(...s)`` suite times), which are
blanked so that equal runs compare equal.

Run from the root of a checkout (gwlab is imported from ``src/``):

    python tools/window_sweep.py sweep.json

and compare two checkouts' files with ``cmp`` or ``diff``.
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gwlab.cli import main  # noqa: E402

TARGETS = ("point", "P1", "P2")
ORDERS = ((2, 2), (2, 3), (3, 2), (1, 4))
COMMANDS = (
    ["verify", "--suites", "polynomiality,inverse,lagrangian,tangent,localisation"],
    *(["series", "--which", which] for which in ("cone", "SL", "locsum", "tangent")),
)

CORRELATOR_QUERIES = (
    ("point", "d=(); (0,0) (0,0) (0,0)"),
    ("P1", "d=1; (1,0) (1,0)"),
    ("P2", "d=1; (2,0) (2,0)"),
    ("P1", "d=(1,); (1,0) (1,0)"),
    ("P1", "d=(,); (1,0)"),
    ("P1", "d=(1,,0); (1,0)"),
)

_TIMINGS = (
    (re.compile(r'"elapsed_s": [-+0-9.eE]+'), '"elapsed_s": null'),
    (re.compile(r"\(\d+\.\d+s\)"), "(s)"),
)


def _strip(text: str) -> str:
    for pattern, blank in _TIMINGS:
        text = pattern.sub(blank, text)
    return text


def sweep_argvs():
    for target, T, (D, E), z_max, z_min, command in product(
        TARGETS, range(3), ORDERS, range(1, 4), range(-1, -11, -1), COMMANDS
    ):
        yield command + [
            "--target", target, "--D", str(D), "--E", str(E), "--T", str(T),
            "--z-min", str(z_min), "--z-max", str(z_max),
        ]
    for target, query in CORRELATOR_QUERIES:
        yield ["correlator", "--target", target, query]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # recorded, so that an escaping error shows in the diff
            code = f"raised {type(exc).__name__}: {exc}"
    return {"argv": argv, "exit": code, "stdout": _strip(out.getvalue()), "stderr": _strip(err.getvalue())}


def main_sweep(path: str) -> None:
    runs = [run(argv) for argv in sweep_argvs()]
    with open(path, "w") as fh:
        json.dump(runs, fh, indent=0)
        fh.write("\n")
    overflows = sum(r["exit"] == 3 for r in runs)
    print(f"{len(runs)} runs, {overflows} with exit 3, written to {path}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/window_sweep.py OUTPUT.json")
    main_sweep(sys.argv[1])
