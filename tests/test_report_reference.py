"""Differential test of the verify reports against the construction they
replaced.

The reference below keeps the previous report construction verbatim
(docstrings dropped): ``CheckReport`` with a ``passed`` field set apart
from its failures, the seven ``check_*`` suites with their hand-written
params and failure records, ``check_main_identity``, and the CLI's
``_engine_oracle_report`` and ``_localisation_report``, which cleared
``passed`` by hand.  On P1 and P2 over seeds 1, 7 and 13 every new
report must serialise to the same JSON as the reference, apart from
``elapsed_s``: once on correct operands, where every suite passes, and
once with a fault injected into operands both paths share, where every
suite fails with at least two records.
"""

import json
import random
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import pytest

from gwlab import checks, cli, localisation, oracles
from gwlab.checks import _basis_b, _solve_membership, _timed, universal_relation
from gwlab.cone import (
    TPolynomial,
    cone_point,
    s_adjoint_corr_apply,
    s_apply,
    sufficient_window,
    tangent_vector,
)
from gwlab.correlators import CorrelatorEngine, get_engine, vdim
from gwlab.localisation import enumerate_splittings, localisation_sum
from gwlab.matrices import EndoSeries, compose, flip_z, s_adjoint_matrix, s_matrix
from gwlab.series import LoopSeries, ScalarSeries, Truncation
from gwlab.targets import TargetSpace, beta_add, beta_zero, iter_betas, make_target

# ---------------------------------------------------------------------------
# the reference: the previous report construction, verbatim


@dataclass
class CheckReport:
    name: str
    passed: bool
    params: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    seed: int | None = None
    notes: str = ""
    elapsed: float = 0.0

    def as_dict(self, with_timing: bool = True) -> dict:
        out = {
            "check": self.name,
            "passed": self.passed,
            "params": self.params,
            "failures": self.failures,
            "seed": self.seed,
            "notes": self.notes,
        }
        if with_timing:
            out["elapsed_s"] = round(self.elapsed, 6)
        return out


def _fraction_record(val: Fraction) -> dict:
    return {"num": val.numerator, "den": val.denominator}


def _trunc_params(trunc: Truncation) -> dict:
    return {
        "D": trunc.novikov_order,
        "E": trunc.epsilon_order,
        "z_min": trunc.z_min,
        "z_max": trunc.z_max,
    }


@_timed
def check_darboux(target: TargetSpace, k_max: int = 6) -> CheckReport:
    trunc = Truncation(0, 0, -(k_max + 2), k_max + 1)
    failures = []
    rank = target.rank
    avs = {
        (a, k): LoopSeries.basis(target, trunc, a, k) for a in range(rank) for k in range(k_max + 1)
    }
    bvs = {(g, l): _basis_b(target, trunc, g, l) for g in range(rank) for l in range(k_max + 1)}
    for (a, k), av in avs.items():
        for (a2, k2), av2 in avs.items():
            if not av.omega(av2).is_zero():
                failures.append({"pair": ["A", a, k, "A", a2, k2]})
        for (g, l), bv in bvs.items():
            got = av.omega(bv).coefficient(beta_zero(target.class_rank), 0)
            want = Fraction(-1) if (a == g and k == l) else Fraction(0)
            if got != want:
                failures.append({"pair": ["A", a, k, "B", g, l], "got": _fraction_record(got)})
    for (g, l), bv in bvs.items():
        for (g2, l2), bv2 in bvs.items():
            if not bv.omega(bv2).is_zero():
                failures.append({"pair": ["B", g, l, "B", g2, l2]})
    return CheckReport(
        name="darboux",
        passed=not failures,
        params={"target": target.name, "k_max": k_max},
        failures=failures,
    )


@_timed
def check_polynomiality(
    t: TPolynomial,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
    seed: int | None = None,
) -> CheckReport:
    engine = engine or get_engine(t.target)
    value = s_apply(t, cone_point(t, trunc, engine), trunc, engine)
    ok, offenders = value.is_z_polynomial(strict=True)
    failures = [
        {
            "z_exp": z,
            "basis": a,
            "novikov": list(b),
            "eps": e,
            **_fraction_record(value.coefficient(z, a, b, e)),
        }
        for (z, a, b, e) in offenders
    ]
    return CheckReport(
        name="polynomiality",
        passed=ok,
        params={"target": t.target.name, **_trunc_params(trunc), "T": t.degree},
        failures=failures,
        seed=seed,
    )


@_timed
def check_inverse(
    t: TPolynomial,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
    seed: int | None = None,
) -> CheckReport:
    engine = engine or get_engine(t.target)
    s = s_matrix(t, trunc, engine)
    s_adj = s_adjoint_matrix(t, trunc, engine)
    product = compose(s, flip_z(s_adj), trunc=trunc)
    ok, offenders = product.is_identity()
    failures = [
        {
            "z_exp": z,
            "row": r,
            "col": c,
            "novikov": list(b),
            "eps": e,
            **_fraction_record(product.coefficient(z, r, c, b, e)),
        }
        for (z, r, c, b, e) in offenders
    ]
    return CheckReport(
        name="inverse",
        passed=ok,
        params={"target": t.target.name, **_trunc_params(trunc), "T": t.degree},
        failures=failures,
        seed=seed,
    )


@_timed
def check_universal_relations(
    t: TPolynomial,
    k_max: int,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
    seed: int | None = None,
) -> CheckReport:
    if k_max < 2:
        raise ValueError("relations start at k = 2")
    engine = engine or get_engine(t.target)
    failures = []
    for k in range(2, k_max + 1):
        for alpha in range(t.target.rank):
            rel = universal_relation(t, k, alpha, trunc, engine)
            for (beta, eps), val in sorted(rel.terms.items()):
                failures.append(
                    {
                        "k": k,
                        "alpha": alpha,
                        "novikov": list(beta),
                        "eps": eps,
                        **_fraction_record(val),
                    }
                )
    return CheckReport(
        name="universal",
        passed=not failures,
        params={"target": t.target.name, "k_max": k_max, **_trunc_params(trunc), "T": t.degree},
        failures=failures,
        seed=seed,
    )


@_timed
def check_lagrangian(
    t: TPolynomial,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
    j_max: int = 1,
    seed: int | None = None,
) -> CheckReport:
    engine = engine or get_engine(t.target)
    target = t.target
    failures = []
    mono = {
        (a, j): LoopSeries.basis(target, trunc, a, j)
        for a in range(target.rank)
        for j in range(j_max + 1)
    }
    images = {
        key: s_adjoint_corr_apply(t, r, -1, trunc, engine) for key, r in mono.items()
    }
    for key_r, left in images.items():
        for key_u, right in images.items():
            residue = left.omega(right)
            for (beta, eps), val in sorted(residue.terms.items()):
                failures.append(
                    {
                        "r": list(key_r),
                        "u": list(key_u),
                        "novikov": list(beta),
                        "eps": eps,
                        **_fraction_record(val),
                    }
                )
    return CheckReport(
        name="lagrangian",
        passed=not failures,
        params={"target": target.name, "j_max": j_max, **_trunc_params(trunc), "T": t.degree},
        failures=failures,
        seed=seed,
    )


@_timed
def check_cone_in_tangent(
    t: TPolynomial,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
    seed: int | None = None,
) -> CheckReport:
    engine = engine or get_engine(t.target)
    target = t.target
    f = cone_point(t, trunc, engine)
    sf = s_apply(t, f, trunc, engine)
    poly_ok, offenders = sf.is_z_polynomial(strict=True)
    failures = [
        {"part": "operator", "key": [z, a, list(b), e]} for (z, a, b, e) in offenders
    ]

    base = [tangent_vector(t, rho, 0, trunc, engine) for rho in range(target.rank)]
    labels = [(alpha, k) for alpha in range(target.rank) for k in range(max(t.degree, 0) + 1)]
    targets_vecs = [
        (tangent_vector(t, alpha, k, trunc, engine) if k else base[alpha]).terms
        for alpha, k in labels
    ]
    columns = []
    for vec in base:
        for j in range(max(t.degree, 1) + 1):
            for beta in iter_betas(target.class_rank, trunc.novikov_order):
                for eps in range(trunc.epsilon_order + 1):
                    shifted = {}
                    for (z, a, b, e), val in vec.terms.items():
                        nb = beta_add(b, beta)
                        if trunc.admits_grade(nb, e + eps):
                            shifted[(z + j, a, nb, e + eps)] = val
                    if shifted:
                        columns.append(shifted)
    rank, in_span = _solve_membership(columns, targets_vecs)
    for label, ok in zip(labels, in_span):
        if not ok:
            failures.append({"part": "span", "tangent": list(label)})
    return CheckReport(
        name="tangent",
        passed=poly_ok and all(in_span),
        params={"target": target.name, **_trunc_params(trunc), "T": t.degree},
        failures=failures,
        seed=seed,
        notes=f"span rank {rank} over {len(columns)} spanning vectors; "
        f"membership is an empirical truncated statement",
    )


@_timed
def check_main_identity(
    t: TPolynomial,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
    seed: int | None = None,
) -> CheckReport:
    engine = engine or get_engine(t.target)
    left = localisation_sum(t, trunc, engine)
    right = s_apply(t, cone_point(t, trunc, engine), trunc, engine)
    failures = []
    for key in sorted(set(left.terms) | set(right.terms)):
        lv = left.terms.get(key, Fraction(0))
        rv = right.terms.get(key, Fraction(0))
        if lv != rv:
            z, a, b, e = key
            failures.append(
                {
                    "z_exp": z,
                    "basis": a,
                    "novikov": list(b),
                    "eps": e,
                    "fixed_locus_sum": _fraction_record(lv),
                    "cone_transform": _fraction_record(rv),
                }
            )
    return CheckReport(
        name="localisation",
        passed=not failures,
        params={"target": t.target.name, **_trunc_params(trunc), "T": t.degree},
        failures=failures,
        seed=seed,
    )


@_timed
def _engine_oracle_report(seed: int) -> CheckReport:
    failures = []
    point = make_target("point")
    engine = get_engine(point)
    for n in range(3, 9):
        for ks in combinations_with_replacement(range(n - 2), n):
            if sum(ks) != n - 3:
                continue
            got = engine.correlator((), [(0, k) for k in ks])
            want = oracles.point_psi_integral(ks)
            if got != want or want != oracles.point_psi_closed_form(ks):
                failures.append({"point_psi": list(ks)})
    p2 = get_engine(make_target("P2"))
    for d, expected in ((1, 1), (2, 1), (3, 12), (4, 620)):
        got = p2.correlator((d,), [(2, 0)] * (3 * d - 1))
        if got != oracles.rational_plane_curves(d) or got != expected:
            failures.append({"plane_degree": d, "got": str(got)})
    rng = random.Random(seed)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 20000:
        attempts += 1
        name = rng.choice(("P1", "P2"))
        target = make_target(name)
        eng = get_engine(target)
        d = rng.randint(1, 3)
        n = rng.randint(3, 6)
        ins = [(rng.randrange(target.rank), rng.randint(0, 3)) for _ in range(n - 1)]
        ins.append((1, 0))  # guarantee the divisor rule applies
        if not any(k > 0 for _, k in ins):
            continue
        shortfall = vdim(target, (d,), n) - sum(target.degree(a) + k for a, k in ins)
        if shortfall > 0:
            a0, k0 = ins[0]
            ins[0] = (a0, k0 + shortfall)
        elif shortfall < 0:
            continue
        via_divisor = eng.reduce_divisor_first((d,), ins)
        via_recursion = eng.reduce_recursion_first((d,), ins)
        if via_divisor != via_recursion:
            failures.append({"path_independence": [name, d, sorted(ins)]})
        checked += 1
    return CheckReport(
        name="engine-oracles",
        passed=not failures,
        params={"path_independence_keys": checked},
        failures=failures,
        seed=seed,
    )


def _localisation_report(t, trunc, engine, seed):
    report = check_main_identity(t, trunc, engine, seed=seed)
    target = t.target
    for beta in iter_betas(target.class_rank, trunc.novikov_order):
        for n in range(trunc.epsilon_order + 1):
            records = enumerate_splittings(target, beta, n)
            subsets = oracles.brute_force_splittings(target, beta, n)
            shapes = [(r.kind, r.beta0, r.beta_inf, r.n0, r.n_inf) for r in records]
            if sorted(shapes) != sorted(subsets):
                report.passed = False
                report.failures.append({"enumeration": [list(beta), n]})
            if len(set(records)) != len(records):
                report.passed = False
                report.failures.append({"duplicate_records": [list(beta), n]})
            # count / n! must be the record weight 1 / (n0! n_inf!)
            if any(
                subsets.get(s, 0) * factorial(s[3]) * factorial(s[4]) != factorial(n) for s in shapes
            ):
                report.passed = False
                report.failures.append({"weights": [list(beta), n]})
    return report


# ---------------------------------------------------------------------------
# faults in operands that both paths share


def _bump(series: LoopSeries, z_exp: int) -> LoopSeries:
    """series plus phi_a z^z_exp / (a + 2) for every basis index a."""
    b0 = beta_zero(series.target.class_rank)
    extra = {(z_exp, a, b0, 0): Fraction(1, a + 2) for a in range(series.target.rank)}
    return series + LoopSeries(series.target, series.trunc, extra)


def _off_diagonal(product: EndoSeries) -> EndoSeries:
    """product with 1 added at two off-diagonal entries of its z^0 Q^0 term."""
    b0 = beta_zero(product.target.class_rank)
    entries = dict(product.entries)
    for key in ((0, 0, 1, b0, 0), (0, 1, 0, b0, 0)):
        entries[key] = entries.get(key, Fraction(0)) + 1
    return EndoSeries(product.target, product.trunc, entries)


def _plus_seventh(value: ScalarSeries, target: TargetSpace) -> ScalarSeries:
    """value plus the constant 1/7."""
    b0 = beta_zero(target.class_rank)
    return value.add(ScalarSeries(value.trunc, {(b0, 0): Fraction(1, 7)}))


def _spoiled(records: list) -> list:
    """records with the first one twice and a record of unknown kind, so
    the enumeration, duplicate and weight checks all fail."""
    return records + records[:1] + [replace(records[0], kind="unknown")]


# operand name -> wrapper of the real operand; the suites each one breaks
_FAULTS = {
    "_basis_b": lambda real: lambda *a: real(*a).scale(2),  # darboux
    "rational_plane_curves": lambda real: lambda d: real(d) + 1,  # engine-oracles
    "s_apply": lambda real: lambda *a: _bump(real(*a), 0),  # polynomiality, tangent, localisation
    "compose": lambda real: lambda *a, **k: _off_diagonal(real(*a, **k)),  # inverse
    "double_bracket": lambda real: lambda t, *a, **k: _plus_seventh(real(t, *a, **k), t.target),  # universal
    "s_adjoint_corr_apply": lambda real: lambda *a: _bump(real(*a), -1),  # lagrangian
    "localisation_sum": lambda real: lambda *a: _bump(real(*a), 1),  # localisation
    "enumerate_splittings": lambda real: lambda *a: _spoiled(real(*a)),  # localisation
}
_MODULES = (checks, localisation, cli, oracles, sys.modules[__name__])


def _inject_faults(monkeypatch) -> None:
    for name, wrap in _FAULTS.items():
        for module in _MODULES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrap(getattr(module, name)))


def _reference_reports(t, trunc, engine, seed):
    return [
        check_darboux(t.target, k_max=6),
        _engine_oracle_report(seed),
        check_polynomiality(t, trunc, engine, seed=seed),
        check_inverse(t, trunc, engine, seed=seed),
        check_universal_relations(t, 4, trunc, engine, seed=seed),
        check_lagrangian(t, trunc, engine, j_max=1, seed=seed),
        check_cone_in_tangent(t, trunc, engine, seed=seed),
        _localisation_report(t, trunc, engine, seed),
    ]


def _new_reports(t, trunc, engine, seed):
    return [
        checks.check_darboux(t.target, k_max=6),
        cli.check_engine_oracles(seed),
        checks.check_polynomiality(t, trunc, engine, seed=seed),
        checks.check_inverse(t, trunc, engine, seed=seed),
        checks.check_universal_relations(t, 4, trunc, engine, seed=seed),
        checks.check_lagrangian(t, trunc, engine, j_max=1, seed=seed),
        checks.check_cone_in_tangent(t, trunc, engine, seed=seed),
        cli.check_localisation(t, trunc, engine, seed),
    ]


def _untimed(report) -> str:
    payload = report.as_dict()
    payload.pop("elapsed_s")
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("faulty", [False, True], ids=["sound", "faulty"])
@pytest.mark.parametrize("seed", [1, 7, 13])
@pytest.mark.parametrize("name", ["P1", "P2"])
def test_reports_match_reference(name, seed, faulty, monkeypatch):
    target = make_target(name)
    t = TPolynomial.random(target, 1, seed)
    trunc = Truncation(2, 2, *sufficient_window(target, 2, 2, 1))
    engine = get_engine(target)
    if faulty:
        _inject_faults(monkeypatch)
    references = _reference_reports(t, trunc, engine, seed)
    reports = _new_reports(t, trunc, engine, seed)
    assert [r.name for r in reports] == list(cli.SUITES)
    for ref, new in zip(references, reports):
        assert ref.passed is not faulty, ref.name
        assert len(ref.failures) >= (2 if faulty else 0), ref.name
        assert new.passed is ref.passed
        assert _untimed(new) == _untimed(ref), ref.name
