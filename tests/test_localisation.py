import json
import time
from fractions import Fraction
from math import factorial

import pytest

from gwlab import cli, cone, localisation, oracles
from gwlab import (
    LoopSeries,
    TPolynomial,
    check_main_identity,
    cone_point,
    contribution,
    default_truncation,
    enumerate_splittings,
    get_engine,
    localisation_sum,
    make_target,
    s_apply,
)
from gwlab.localisation import SplittingRecord
from gwlab.oracles import brute_force_splittings
from gwlab.targets import beta_splits

PT = make_target("point")
P1 = make_target("P1")
P2 = make_target("P2")


def _as_tuples(records):
    return sorted((r.kind, r.beta0, r.beta_inf, r.n0, r.n_inf) for r in records)


def test_enumerate_base_cases():
    assert _as_tuples(enumerate_splittings(P1, (0,), 0)) == [("case1", (0,), (0,), 0, 0)]
    # One marking in degree zero: the bridge configuration with the marking
    # at the zero end, plus the all-vertical configuration carrying it at
    # the infinity end.
    assert _as_tuples(enumerate_splittings(P1, (0,), 1)) == [
        ("case2", (0,), (0,), 1, 0),
        ("case3", (0,), (0,), 0, 1),
    ]


def test_enumerate_degree_one_single_marking():
    got = _as_tuples(enumerate_splittings(P1, (1,), 1))
    assert ("case3", (0,), (1,), 0, 1) in got
    assert ("case4", (0,), (1,), 1, 0) in got
    assert ("case5", (1,), (0,), 1, 0) in got
    # The zero end carries the whole degree and no marking; with the one
    # marking on the vertical infinity piece both ends exist on their own.
    assert [g for g in got if g[0] == "generic"] == [("generic", (1,), (0,), 0, 1)]
    assert len(got) == 4


def test_enumerate_matches_brute_force_oracle():
    for target in (PT, P1, P2):
        bound = 0 if target.class_rank == 0 else 3
        for beta in ([()] if target.class_rank == 0 else [(d,) for d in range(bound + 1)]):
            for n in range(5):
                got = _as_tuples(enumerate_splittings(target, beta, n))
                want = brute_force_splittings(target, beta, n)
                assert got == sorted(want), (target.name, beta, n)
                assert sum(want.values()) == len(beta_splits(beta)) * 2 ** n


def test_records_disjoint_and_unique():
    for d in range(3):
        for n in range(4):
            records = enumerate_splittings(P2, (d,), n)
            assert len(set(records)) == len(records)
            for rec in records:
                assert rec.beta == (d,) and rec.n == n


def test_weight_identity():
    # Each record stands for all the marking subsets of its shape, so
    # their count over n! is the record weight 1 / (n0! n_inf!).
    for d in range(4):
        for n in range(5):
            subsets = brute_force_splittings(P1, (d,), n)
            for rec in enumerate_splittings(P1, (d,), n):
                key = (rec.kind, rec.beta0, rec.beta_inf, rec.n0, rec.n_inf)
                assert Fraction(subsets[key], factorial(n)) == Fraction(1, factorial(rec.n0) * factorial(rec.n_inf))


def test_contribution_case1_and_case2():
    t = TPolynomial.random(P1, 1, seed=14)
    tr = default_truncation(P1, 1, 2, 1)
    rec1 = SplittingRecord("case1", (0,), (0,), 0, 0)
    got = contribution(rec1, t, tr)
    assert got.terms == {(1, 0, (0,), 0): Fraction(-1)}
    rec2 = SplittingRecord("case2", (0,), (0,), 1, 0)
    got = contribution(rec2, t, tr)
    for k, vec in enumerate(t.coeffs):
        for alpha, c in enumerate(vec):
            assert got.coefficient(k, alpha, (0,), 1) == c


def test_point_generic_records_start_at_three_markings():
    # Degree zero still admits generic splittings once the zero end holds
    # two markings and the infinity end is nonempty; below that everything
    # is degenerate.  The identity test with E = 4 exercises their values.
    for n in range(3):
        assert all(r.kind != "generic" for r in enumerate_splittings(PT, (), n))
    kinds3 = {r.kind for r in enumerate_splittings(PT, (), 3)}
    assert "generic" in kinds3


def test_point_sum_is_minus_z_at_zero_t():
    t = TPolynomial.zero(PT, 0)
    tr = default_truncation(PT, 0, 3, 0)
    total = localisation_sum(t, tr)
    assert total.terms == {(1, 0, (), 0): Fraction(-1)}


def test_point_sum_equals_transformed_cone():
    t = TPolynomial.random(PT, 1, seed=16)
    tr = default_truncation(PT, 0, 4, 1)
    eng = get_engine(PT)
    assert localisation_sum(t, tr, eng) == s_apply(t, cone_point(t, tr, eng), tr, eng)


def test_main_identity_small_p1_p2():
    for target, seed, D, E, T in ((P1, 17, 2, 2, 1), (P2, 18, 1, 2, 1)):
        t = TPolynomial.random(target, T, seed=seed)
        tr = default_truncation(target, D, E, T)
        report = check_main_identity(t, tr)
        assert report.passed, report.failures[:3]


def test_constant_t_transform_collapses_to_minus_z():
    """For t a constant class the transformed cone point is exactly -z*1:
    the inverse identity applied to the string-equation form of the cone.
    Every other grade cancels, which exercises massive cancellation."""
    for target, seed in ((P1, 19), (P2, 20)):
        t = TPolynomial.random(target, 0, seed=seed)
        tr = default_truncation(target, 2, 2, 0)
        eng = get_engine(target)
        sl = s_apply(t, cone_point(t, tr, eng), tr, eng)
        b0 = (0,) * target.class_rank
        assert sl.terms == {(1, 0, b0, 0): Fraction(-1)}


def test_main_identity_grade_isolation():
    """Equality grade by grade: deleting one grade from one side must be
    detected, so the reported diff carries the exact offending keys."""
    t = TPolynomial.random(P1, 1, seed=19)
    tr = default_truncation(P1, 1, 1, 1)
    eng = get_engine(P1)
    left = localisation_sum(t, tr, eng)
    right = s_apply(t, cone_point(t, tr, eng), tr, eng)
    assert left == right
    grades = {(b, e) for (_, _, b, e) in left.terms}
    assert len(grades) > 1  # several grades genuinely participate
    for key in left.terms:
        broken = dict(left.terms)
        del broken[key]
        assert LoopSeries(P1, tr, broken) != right


def test_localisation_suite_times_its_record_checks(monkeypatch):
    """The suite's elapsed time covers the record checks, not only the
    identity, both called directly and through the CLI's suite table."""
    real = oracles.brute_force_splittings
    naps = []

    def slow_once(*args):
        if naps:
            time.sleep(naps.pop())
        return real(*args)

    monkeypatch.setattr(oracles, "brute_force_splittings", slow_once)
    t = TPolynomial.random(P1, 1, seed=7)
    tr = default_truncation(P1, 1, 1, 1)
    naps.append(0.05)
    assert localisation.check_localisation(t, tr).elapsed >= 0.05
    naps.append(0.05)
    run = cli._Run(t, tr, get_engine(P1), 7, 4)
    assert cli._SUITE_RUNNERS["localisation"](run).elapsed >= 0.05


def _dilaton_doubled(real):
    def wrapper(acc, t, beta, n, engine):
        real(acc, t, beta, n, engine)
        if not any(beta) and n == 0:
            real(acc, t, beta, n, engine)
    return wrapper


def _t_piece_negated(real):
    def wrapper(acc, t, beta, n, engine):
        if not any(beta) and n == 1:
            t = TPolynomial(t.target, tuple(tuple(-c for c in vec) for vec in t.coeffs))
        real(acc, t, beta, n, engine)
    return wrapper


def _localisation_failures(capsys, *flags):
    code = cli.main(["verify", "--suites", "localisation", "--format", "json", *flags])
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert code == (0 if check["passed"] else 1)
    return check["failures"]


def _piece_failures(failures):
    return [f for f in failures if "cone_point" in f]  # the records of the degree-zero pieces


@pytest.mark.parametrize(
    "flags",
    [
        ("--target", "point", "--E", "0", "--t", "zero"),
        ("--target", "point", "--E", "2", "--t", "zero", "--T", "2"),
        ("--target", "P1", "--E", "0", "--seed", "7"),
        ("--target", "P2", "--D", "1", "--E", "1", "--seed", "7"),
    ],
)
def test_degree_zero_pieces_meet_t_minus_z(capsys, monkeypatch, flags):
    """Both sides of the main identity share the cone point's degree-zero
    pieces, so a fault in them can cancel there (it does at P2 D2 E3 T1);
    the suite still sees -z*1 doubled, at E = 0 and on the point (class
    rank 0) too.  Sound input passes, for t zero and at E = 0 alike."""
    assert _localisation_failures(capsys, *flags) == []
    rank = make_target(flags[1]).class_rank
    with monkeypatch.context() as patch:
        for module in (cone, localisation):
            patch.setattr(module, "_cone_grade", _dilaton_doubled(cone._cone_grade))
        failures = _localisation_failures(capsys, *flags)
    assert _piece_failures(failures) == [
        {
            "z_exp": 1, "basis": 0, "cone_point": {"num": -2, "den": 1}, "t_minus_z": {"num": -1, "den": 1},
            "novikov": [0] * rank, "eps": 0,
        }
    ]


def test_t_piece_meets_t_coefficients(capsys, monkeypatch):
    flags = ("--target", "P2", "--D", "1", "--E", "1", "--T", "1", "--seed", "7")
    with monkeypatch.context() as patch:
        for module in (cone, localisation):
            patch.setattr(module, "_cone_grade", _t_piece_negated(cone._cone_grade))
        failures = _piece_failures(_localisation_failures(capsys, *flags))
    t = TPolynomial.random(P2, 1, 7)
    assert [(f["z_exp"], f["basis"], f["eps"]) for f in failures] == [(k, a, 1) for k, a, _ in t.monomials()]
    assert all(f["cone_point"]["num"] == -f["t_minus_z"]["num"] for f in failures)
