"""A run with several errors reports the first in a fixed order: the
config file, then ``--k-max``, then the target, the truncation and t, and
last an unknown suite."""

import pytest

from gwlab.cli import main

CASES = [
    (
        ["verify", "--config", "missing.json", "--suites", "universal", "--k-max", "1", "--target", "P9"],
        3, "configuration error: cannot read config file missing.json",
    ),
    (
        ["verify", "--suites", "universal,nope", "--k-max", "1", "--target", "P9"],
        2, "usage error: --k-max is 1",
    ),
    (
        ["verify", "--suites", "nope", "--target", "P9", "--T", "-1", "--t", "1,2,3"],
        3, "configuration error: unknown target 'P9'",
    ),
    (
        ["verify", "--suites", "nope", "--target", "P1", "--T", "-1", "--t", "1,2,3"],
        3, "configuration error: T must be non-negative, got -1",
    ),
    (
        ["verify", "--suites", "nope", "--target", "P1", "--T", "2", "--z-max", "1", "--t", "1,2,3"],
        3, "configuration error: window too small",
    ),
    (
        ["verify", "--suites", "nope", "--target", "P1", "--t", "1,2,3"],
        2, "usage error: each ; group of --t needs 2 comma-separated rationals",
    ),
    (["verify", "--suites", "nope", "--target", "P1"], 2, "usage error: unknown suite 'nope'"),
    (
        ["series", "--which", "cone", "--config", "missing.json", "--target", "P9"],
        3, "configuration error: cannot read config file missing.json",
    ),
    (["series", "--which", "cone", "--target", "P9", "--T", "-1"], 3, "configuration error: unknown target 'P9'"),
    (
        ["series", "--which", "tangent", "--target", "P1", "--t", "1", "--alpha", "7"],
        2, "usage error: each ; group of --t needs 2 comma-separated rationals",
    ),
    (
        ["verify", "--suites", "nope", "--target", "P1", "--T", "0", "--t", "1,0;0,1;1,1"],
        2, "usage error: --t has 3 ; groups, but T = 0 needs 1",
    ),
]


@pytest.mark.parametrize("argv,code,message", CASES)
def test_first_error_wins(capsys, tmp_path, monkeypatch, argv, code, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
