"""Malformed custom presentations end in ``ConfigurationError``, from the
library and as exit 3 from the CLI, before any ring axiom is checked."""

import json

import pytest

from gwlab import ConfigurationError, load_target
from gwlab.cli import main

_LINE = {
    "name": "custom-line",
    "dim": 1,
    "basis_degrees": [0, 1],
    "pairing": [[0, 1], [1, 0]],
    "cup": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
    "class_rank": 1,
    "c1_vector": [2],
    "divisor_rows": [[1, [1]]],
}

MALFORMED = {
    "cup-one-row": ({"cup": [[[1, 0], [0, 1]]]}, "cup tensor must be 2 x 2 x 2"),
    "cup-short-vector": ({"cup": [[[1, 0], [0, 1]], [[0, 1], [0]]]}, "cup tensor must be 2 x 2 x 2"),
    "empty-basis": (
        {"basis_degrees": [], "pairing": [], "cup": [], "class_rank": 0, "c1_vector": [], "divisor_rows": []},
        "the basis is empty",
    ),
    "divisor-out-of-range": ({"divisor_rows": [[5, [1]]]}, "each divisor row"),
    "divisor-not-degree-one": ({"divisor_rows": [[0, [1]]]}, "each divisor row"),
    "divisor-short-row": ({"divisor_rows": [[1, []]]}, "each divisor row"),
    "negative-class-rank": ({"class_rank": -1}, "class_rank -1 must be >= 0"),
    "c1-shorter-than-class-rank": (
        {"class_rank": 2, "divisor_rows": [[1, [1, 0]]]},
        "class_rank 2 must be >= 0 and the length of c1_vector",
    ),
    "pairing-zero-denominator": ({"pairing": [[0, "1/0"], [1, 0]]}, "malformed target presentation"),
    "cup-zero-denominator": ({"cup": [[[1, 0], [0, 1]], [[0, "1/0"], [0, 0]]]}, "malformed target presentation"),
    "dim-not-integer": ({"dim": 1.7}, "malformed target presentation: expected an integer, got 1.7"),
    "dim-string": ({"dim": "1"}, "malformed target presentation: expected an integer, got '1'"),
    "degree-not-integer": ({"basis_degrees": [0, 1.9]}, "expected an integer, got 1.9"),
    "c1-not-integer": ({"c1_vector": [2.5]}, "expected an integer, got 2.5"),
    "class-rank-bool": ({"class_rank": True}, "expected an integer, got True"),
    "divisor-index-not-integer": ({"divisor_rows": [[1.0, [1]]]}, "expected an integer, got 1.0"),
    "pairing-bool": ({"pairing": [[0, True], [True, 0]]}, "malformed target presentation: expected a rational, got True"),
    "cup-bool": ({"cup": [[[True, 0], [0, 1]], [[0, 1], [0, 0]]]}, "expected a rational, got True"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_load_target_rejects_malformed_shape(case):
    change, message = MALFORMED[case]
    with pytest.raises(ConfigurationError, match=message):
        load_target({**_LINE, **change})


@pytest.mark.parametrize("case", MALFORMED)
def test_cli_malformed_target_config_exits_3(capsys, tmp_path, case):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({**_LINE, **MALFORMED[case][0]}))
    code = main(["verify", "--target-config", str(path), "--suites", "all", "--D", "1", "--E", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert "Traceback" not in captured.err
