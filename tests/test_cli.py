import json

from gwlab.cli import main, parse_correlator_query
from gwlab.targets import make_target


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_point_polynomiality_zero_t(capsys):
    code, out, _ = run(
        capsys, "verify", "--target", "point", "--suites", "polynomiality", "--t", "zero"
    )
    assert code == 0
    assert "PASS polynomiality" in out


def test_verify_json_report_structure(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify",
        "--target",
        "P1",
        "--D", "1", "--E", "1", "--T", "1", "--seed", "3",
        "--suites", "polynomiality,inverse",
        "--format", "json",
        "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["passed"] is True
    names = [c["check"] for c in payload["checks"]]
    assert names == ["polynomiality", "inverse"]
    for check in payload["checks"]:
        assert check["failures"] == []
        assert "elapsed_s" in check


def test_verify_determinism_modulo_timing(capsys):
    args = (
        "verify", "--target", "P1", "--D", "1", "--E", "1", "--T", "1",
        "--seed", "5", "--suites", "polynomiality,localisation", "--format", "json",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0

    def strip(text):
        payload = json.loads(text)
        for check in payload["checks"]:
            check.pop("elapsed_s", None)
        return json.dumps(payload, sort_keys=True)

    assert strip(out1) == strip(out2)


def test_verify_full_suite_p2():
    # The reference invocation: every suite on the plane at (D, E, T) =
    # (2, 3, 1) with a fixed seed must pass end to end.
    code = main(
        [
            "verify", "--target", "P2", "--D", "2", "--E", "3", "--T", "1",
            "--seed", "7", "--suites", "all",
        ]
    )
    assert code == 0


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--target", "point", "--suites", "nonsense")
    assert code == 2
    assert "unknown suite" in err


def test_window_too_small_is_configuration_error(capsys):
    code, _, err = run(
        capsys,
        "verify", "--target", "P1", "--D", "2", "--E", "2", "--T", "1",
        "--z-min", "-1", "--suites", "polynomiality",
    )
    assert code == 3
    assert "z_min" in err


def test_z_max_below_t_degree_is_configuration_error(capsys):
    code, _, err = run(
        capsys,
        "verify", "--target", "P1", "--T", "2", "--z-max", "1",
        "--suites", "polynomiality",
    )
    assert code == 3
    assert "z_max must be at least 2" in err


def test_tangent_above_window_is_configuration_error(capsys):
    code, out, err = run(
        capsys, "series", "--target", "P1", "--which", "tangent", "--k", "9", "--t", "zero"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("configuration error: z^10 escapes the window")
    assert "Traceback" not in err


def test_series_dump_point_sl(capsys):
    code, out, _ = run(
        capsys,
        "series", "--target", "point", "--which", "SL", "--t", "zero",
        "--E", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["series"] == [
        {"z_exp": 1, "basis": 0, "novikov": [], "eps": 0, "num": -1, "den": 1}
    ]


def test_series_round_trip(capsys):
    from gwlab import LoopSeries, Truncation

    code, out, _ = run(
        capsys,
        "series", "--target", "P1", "--which", "cone", "--t", "random",
        "--seed", "2", "--D", "1", "--E", "2", "--T", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    trunc = Truncation(
        payload["truncation"]["D"],
        payload["truncation"]["E"],
        payload["truncation"]["z_min"],
        payload["truncation"]["z_max"],
    )
    series = LoopSeries.from_records(make_target("P1"), trunc, payload["series"])
    assert series.to_records() == payload["series"]


def test_series_locsum_equals_sl_dump(capsys):
    base = (
        "--target", "P1", "--t", "random", "--seed", "4",
        "--D", "1", "--E", "2", "--T", "1", "--format", "json",
    )
    code1, out1, _ = run(capsys, "series", "--which", "SL", *base)
    code2, out2, _ = run(capsys, "series", "--which", "locsum", *base)
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    assert a["series"] == b["series"]


def test_series_tangent(capsys):
    code, out, _ = run(
        capsys,
        "series", "--target", "P1", "--which", "tangent", "--alpha", "1", "--k", "0",
        "--t", "zero", "--D", "1", "--E", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert {"z_exp": 0, "basis": 1, "novikov": [0], "eps": 0, "num": 1, "den": 1} in payload["series"]


def test_correlator_queries(capsys):
    code, out, _ = run(capsys, "correlator", "--target", "P2", "d=1; (2,0) (2,0)")
    assert (code, out.strip()) == (0, "1/1")
    code, out, _ = run(capsys, "correlator", "--target", "point", "d=(); (0,0) (0,0) (0,0)")
    assert (code, out.strip()) == (0, "1/1")
    code, out, _ = run(capsys, "correlator", "--target", "P2", "d=3; (2,0) x8")
    assert (code, out.strip()) == (0, "12/1")


def test_correlator_parse_errors(capsys):
    code, _, err = run(capsys, "correlator", "--target", "P2", "degree 1: points")
    assert code == 2 and "usage error" in err
    code, _, err = run(capsys, "correlator", "--target", "P2", "d=1; (9,0)")
    assert code == 2 and "out of range" in err


def test_correlator_stability_error_surfaced(capsys):
    code, _, err = run(capsys, "correlator", "--target", "point", "d=(); (0,0) (0,0)")
    assert code == 1
    assert "unstable" in err


def test_query_parser_repetition():
    target = make_target("P2")
    beta, ins = parse_correlator_query(target, "d=2; (2,0) ×3 (1,1)")
    assert beta == (2,)
    assert sorted(ins) == [(1, 1), (2, 0), (2, 0), (2, 0)]


def test_config_file_merging(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"target": "P1", "D": 1, "E": 1, "T": 1, "seed": 9, "t": "random"}))
    code, out, _ = run(
        capsys, "verify", "--config", str(cfg), "--suites", "polynomiality",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["target"] == "P1"
    assert payload["config"]["seed"] == 9
    # flags override the file
    code, out, _ = run(
        capsys, "verify", "--config", str(cfg), "--suites", "polynomiality",
        "--seed", "12", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["config"]["seed"] == 12


def test_custom_target_config_darboux(capsys, tmp_path):
    data = {
        "name": "custom-line",
        "dim": 1,
        "basis_degrees": [0, 1],
        "pairing": [[0, 1], [1, 0]],
        "cup": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
        "class_rank": 1,
        "c1_vector": [2],
        "divisor_rows": [[1, [1]]],
    }
    path = tmp_path / "target.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(
        capsys, "verify", "--target-config", str(path), "--suites", "darboux"
    )
    assert code == 0 and "PASS darboux" in out


def test_bad_target_config_is_configuration_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 0, "basis_degrees": [0], "pairing": [[0]], "cup": [[[1]]]}))
    code, _, err = run(capsys, "verify", "--target-config", str(path), "--suites", "darboux")
    assert code == 3
    assert "configuration error" in err
