import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gwlab import checks
from gwlab.cli import main, parse_correlator_query
from gwlab.series import LoopSeries, MismatchError
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


def test_unknown_suite_is_rejected_before_any_suite_runs(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("polynomiality ran before the unknown suite was rejected")

    monkeypatch.setattr("gwlab.cli.check_polynomiality", must_not_run)
    code, out, err = run(capsys, "verify", "--suites", "polynomiality,bogus")
    assert code == 2
    assert out == ""
    assert err == (
        "usage error: unknown suite 'bogus'; choose from ('darboux', 'engine-oracles', "
        "'polynomiality', 'inverse', 'universal', 'lagrangian', 'tangent', 'localisation')\n"
    )


def test_injected_fault_fails_polynomiality_and_tangent(capsys, monkeypatch):
    """S(cone point) with spurious terms at z^{<=0}: both suites that read it
    FAIL, the human report lists their first ten failures and the JSON
    report all of them, and the run exits 1."""
    real_s_apply = checks.s_apply

    def s_apply_with_fault(t, f, trunc, engine):
        b0 = (0,) * t.target.class_rank
        spurious = {
            (z, a, b0, e): Fraction(1, 3)
            for z in range(trunc.z_min, 1)
            for a in range(t.target.rank)
            for e in range(trunc.epsilon_order + 1)
        }
        return real_s_apply(t, f, trunc, engine) + LoopSeries(t.target, trunc, spurious)

    monkeypatch.setattr(checks, "s_apply", s_apply_with_fault)
    argv = (
        "verify", "--target", "P1", "--D", "1", "--E", "1", "--T", "1", "--seed", "3",
        "--suites", "polynomiality,tangent",
    )
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert [(c["check"], c["passed"]) for c in payload["checks"]] == [
        ("polynomiality", False),
        ("tangent", False),
    ]
    failures = [c["failures"] for c in payload["checks"]]
    assert all(len(listed) > 10 for listed in failures)

    code, out, _ = run(capsys, *argv)
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "FAILURES present"
    assert lines[0].startswith("FAIL polynomiality (") and lines[11].startswith("FAIL tangent (")
    for head, listed in zip((0, 11), failures):
        shown = lines[head + 1:head + 11]
        assert all(line.startswith("     ") for line in shown)
        assert [json.loads(line) for line in shown] == listed[:10]
    assert len(lines) == 23


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
    code, out, _ = run(capsys, "correlator", "--target", "P1", "d=(1,); (1,0) (1,0)")  # one trailing comma
    assert (code, out.strip()) == (0, "1/1")


def test_correlator_parse_errors(capsys):
    code, _, err = run(capsys, "correlator", "--target", "P2", "degree 1: points")
    assert code == 2 and "usage error" in err
    code, _, err = run(capsys, "correlator", "--target", "P2", "d=1; (9,0)")
    assert code == 2 and "out of range" in err
    for degree in ("(,)", "(1,,0)", "(1,,)", "(,1)", "(1 2)"):
        code, _, err = run(capsys, "correlator", "--target", "P1", f"d={degree}; (1,0)")
        assert code == 2 and err.startswith(f"usage error: degree {degree} must be integers")


def test_correlator_stability_error_surfaced(capsys):
    code, _, err = run(capsys, "correlator", "--target", "point", "d=(); (0,0) (0,0)")
    assert code == 1
    assert "unstable" in err


def test_mismatch_error_is_an_evaluation_error(capsys, monkeypatch):
    def mismatched(*args, **kwargs):
        raise MismatchError("series truncations differ")

    monkeypatch.setattr("gwlab.cli.check_darboux", mismatched)
    code, out, err = run(capsys, "verify", "--target", "point", "--suites", "darboux")
    assert (code, out, err) == (1, "", "series truncations differ\n")


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


def test_universal_k_max_below_two_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suites", "universal", "--k-max", "1")
    assert code == 2 and out == ""
    assert err.startswith("usage error: --k-max is 1")


@pytest.mark.parametrize("flags", [("--alpha", "5"), ("--alpha", "-1"), ("--k", "-1")])
def test_tangent_index_out_of_range_is_usage_error(capsys, flags):
    code, out, err = run(capsys, "series", "--which", "tangent", "--target", "P1", *flags)
    assert code == 2 and out == ""
    assert err.startswith("usage error: tangent on P1 needs 0 <= --alpha < 2 and --k >= 0")


@pytest.mark.parametrize(
    "content",
    [{"D": "x"}, {"z_min": "x"}, {"seed": [1]}, {"out": 1}, {"T": True}, {"E": None}, [1], {"format": "xml"}, {"format": 7},
     {"t": [1, 2]}, {"t": None}],
)
def test_config_file_value_of_wrong_type_is_configuration_error(capsys, tmp_path, content):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, "verify", "--config", str(path), "--suites", "darboux")
    assert code == 3 and out == ""
    assert err.startswith("configuration error: ")


@pytest.mark.parametrize("command", [("verify", "--suites", "polynomiality,tangent"),
                                     ("series", "--which", "cone")])
def test_negative_t_degree_flag_is_configuration_error(capsys, command):
    code, out, err = run(capsys, *command, "--target", "P1", "--T", "-1")
    assert code == 3 and out == ""
    assert err.startswith("configuration error: T must be non-negative, got -1")


def test_negative_t_degree_in_config_file_is_configuration_error(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"target": "P1", "T": -1}))
    code, out, err = run(capsys, "verify", "--config", str(path), "--suites", "darboux")
    assert code == 3 and out == ""
    assert err.startswith("configuration error: T must be non-negative, got -1")


def test_config_file_null_window_is_the_default(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"z_min": None, "out": None, "target": "P1"}))
    code, out, _ = run(capsys, "verify", "--config", str(path), "--suites", "polynomiality")
    assert code == 0 and "PASS polynomiality" in out


def test_unwritable_out_path_is_usage_error(capsys, tmp_path):
    missing = tmp_path / "missing" / "report.json"
    code, _, err = run(capsys, "series", "--which", "cone", "--out", str(missing))
    assert code == 2
    assert err.startswith("usage error: cannot write")


_SMALL = st.integers(-1, 1).map(str)
_QUERY_TEXT = st.text(alphabet="d=(),; x0123", max_size=14)


@st.composite
def _structured_query(draw):
    degree = draw(st.sampled_from(["0", "1", "2", "()", "(1)", "(1,)", "(1,0)"]))
    slots = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4))
    return f"d={degree}; " + " ".join(f"({a},{k})" for a, k in slots)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["verify", "series", "correlator"]))
    target = draw(st.sampled_from(["point", "P1", "P2", "P3"]))
    if command == "correlator":
        return [command, "--target", target, draw(st.one_of(_structured_query(), _QUERY_TEXT))]
    argv = [command, "--target", target]
    optional = {
        "--D": _SMALL,
        "--E": _SMALL,
        "--T": _SMALL,
        "--z-min": st.integers(-3, 1).map(str),
        "--z-max": st.integers(-1, 3).map(str),
        "--seed": st.integers(0, 20).map(str),
        "--t": st.sampled_from(["zero", "random", "1/2", "1,0", "0;1/0", "1,2,3", "x"]),
        "--format": st.sampled_from(["human", "json"]),
    }
    if command == "verify":
        suites = ("darboux", "polynomiality", "inverse", "universal", "lagrangian", "tangent",
                  "localisation", "bogus")
        chosen = draw(st.lists(st.sampled_from(suites), min_size=1, max_size=3))
        argv += ["--suites", ",".join(chosen)]
        optional["--k-max"] = st.integers(-1, 3).map(str)
    else:
        argv += ["--which", draw(st.sampled_from(["cone", "SL", "locsum", "tangent"]))]
        optional["--alpha"] = st.integers(-1, 3).map(str)
        optional["--k"] = _SMALL
    for flag, values in optional.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@settings(
    max_examples=120,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_argv())
@example(argv=["correlator", "--target", "P1", "d=100; (0,199) (1,0) (1,0)"])
@example(argv=["correlator", "--target", "P1", "d=200; (0,399) (1,0) (1,0)"])
@example(argv=["correlator", "--target", "P1", "d=(1,); (1,0) (1,0)"])
@example(argv=["correlator", "--target", "P1", "d=(,); (1,0)"])
def test_cli_fuzz_exit_codes(capsys, argv):
    # Small inputs only: every run ends in an exact answer or a named
    # error with a documented exit code, never an escaping exception.
    assert main(argv) in {0, 1, 2, 3}
    capsys.readouterr()


def test_correlator_at_the_deepest_degree_within_the_recursion_limit_exits_0():
    """d=98 is the deepest three-point P1 query that ``python -m gwlab.cli``
    reduces at Python's default recursion limit: the entry's own frames
    leave one degree less than a library call has (d=99, pinned in
    test_correlators.py).  It prints the value that a library call under a
    raised limit gives.  Both run in fresh processes, as hypothesis raises
    the limit while it runs a test."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "gwlab.cli", "correlator", "--target", "P1", "d=98; (0,195) (1,0) (1,0)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    library = (
        "import sys\n"
        "from gwlab import correlator, make_target\n"
        "sys.setrecursionlimit(4000)\n"
        "value = correlator(make_target('P1'), (98,), [(0, 195), (1, 0), (1, 0)])\n"
        "print(f'{value.numerator}/{value.denominator}')\n"
    )
    want = subprocess.run([sys.executable, "-c", library], env=env, capture_output=True, text=True, timeout=120)
    assert want.returncode == 0, want.stderr
    assert done.stdout == want.stdout and done.stdout.count("/") == 1 and done.stderr == ""


@pytest.mark.parametrize("d", [100, 200])
def test_correlator_deeper_than_the_recursion_limit_exits_1(d):
    # In a fresh process at Python's default recursion limit; hypothesis
    # raises the limit while it runs a test, so the fuzz above computes
    # these two queries exactly instead.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    query = f"d={d}; (0,{2 * d - 1}) (1,0) (1,0)"
    done = subprocess.run(
        [sys.executable, "-m", "gwlab.cli", "correlator", "--target", "P1", query],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == (
        f"reducing beta=({d},), insertions=((0, {2 * d - 1}), (1, 0), (1, 0)) "
        "exceeds Python's recursion limit\n"
    )
