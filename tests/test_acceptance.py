"""Acceptance gate: one criterion per test, each printing a PASS/FAIL
line with its elapsed time.  Every verdict is an exact rational
statement; the stated wall-clock bounds are asserted too."""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

from gwlab import (
    TPolynomial,
    check_cone_in_tangent,
    check_darboux,
    check_inverse,
    check_lagrangian,
    check_main_identity,
    check_polynomiality,
    check_universal_relations,
    default_truncation,
    enumerate_splittings,
    get_engine,
    make_target,
    vdim,
)
from gwlab.oracles import (
    brute_force_splittings,
    point_psi_closed_form,
    point_psi_integral,
    rational_plane_curves,
)

POINT_CONFIG = ("point", 0, 5, 2)
P1_CONFIG = ("P1", 3, 3, 2)
P2_CONFIG = ("P2", 2, 3, 1)
SEEDS = (7, 11, 13)


def _report(number, label, passed, elapsed, bound):
    status = "PASS" if passed and elapsed < bound else "FAIL"
    print(f"{status} criterion {number}: {label} ({elapsed:.2f}s < {bound:.0f}s)")
    assert passed, f"criterion {number} failed: {label}"
    assert elapsed < bound, f"criterion {number} exceeded {bound}s"


def test_criterion_1_darboux():
    started = time.perf_counter()
    report = check_darboux(make_target("P2"), k_max=6)
    _report(1, "Darboux relations on P2, powers <= 6", report.passed,
            time.perf_counter() - started, 1.0)


def test_criterion_2_engine_oracles():
    started = time.perf_counter()
    ok = True
    point = get_engine(make_target("point"))
    for n in range(3, 9):
        for ks in combinations_with_replacement(range(n - 2), n):
            got = point.correlator((), [(0, k) for k in ks])
            ok = ok and got == point_psi_integral(ks) == point_psi_closed_form(ks)
    p2 = get_engine(make_target("P2"))
    for d, expected in ((1, 1), (2, 1), (3, 12), (4, 620)):
        got = p2.correlator((d,), [(2, 0)] * (3 * d - 1))
        ok = ok and got == expected == rational_plane_curves(d)
    rng = random.Random(1234)
    checked = 0
    while checked < 100:
        name = rng.choice(("P1", "P2"))
        target = make_target(name)
        eng = get_engine(target)
        d = rng.randint(1, 3)
        n = rng.randint(3, 6)
        ins = [(rng.randrange(target.rank), rng.randint(0, 3)) for _ in range(n - 1)]
        ins.append((1, 0))
        if not any(k > 0 for _, k in ins):
            continue
        shortfall = vdim(target, (d,), n) - sum(target.degree(a) + k for a, k in ins)
        if shortfall > 0:
            a0, k0 = ins[0]
            ins[0] = (a0, k0 + shortfall)
        elif shortfall < 0:
            continue
        ok = ok and eng.reduce_divisor_first((d,), ins) == eng.reduce_recursion_first((d,), ins)
        checked += 1
    _report(2, "engine oracles: psi integrals, plane counts, path independence",
            ok, time.perf_counter() - started, 30.0)


def _each_config():
    for name, D, E, T in (POINT_CONFIG, P1_CONFIG, P2_CONFIG):
        target = make_target(name)
        yield target, default_truncation(target, D, E, T), T


def test_criterion_3_polynomiality():
    for target, trunc, T in _each_config():
        started = time.perf_counter()
        ok = True
        for seed in SEEDS:
            t = TPolynomial.random(target, T, seed=seed)
            ok = ok and check_polynomiality(t, trunc, seed=seed).passed
        _report(3, f"polynomiality of the transformed cone on {target.name}",
                ok, time.perf_counter() - started, 300.0)


def test_criterion_4_inverse_identity():
    for target, trunc, T in _each_config():
        started = time.perf_counter()
        ok = True
        for seed in SEEDS:
            t = TPolynomial.random(target, T, seed=seed)
            ok = ok and check_inverse(t, trunc, seed=seed).passed
        _report(4, f"adjoint at -z inverts the operator on {target.name}",
                ok, time.perf_counter() - started, 300.0)


def test_criterion_5_main_identity_and_criterion_9_weights():
    weight_ok = True
    for target, trunc, T in _each_config():
        started = time.perf_counter()
        ok = True
        for seed in SEEDS:
            t = TPolynomial.random(target, T, seed=seed)
            ok = ok and check_main_identity(t, trunc, seed=seed).passed
        ok = ok and check_main_identity(TPolynomial.zero(target, T), trunc).passed
        for beta in ([()] if target.class_rank == 0 else
                     [(d,) for d in range(trunc.novikov_order + 1)]):
            for n in range(trunc.epsilon_order + 1):
                subsets = brute_force_splittings(target, beta, n)
                for r in enumerate_splittings(target, beta, n):
                    count = subsets.get((r.kind, r.beta0, r.beta_inf, r.n0, r.n_inf), 0)
                    weight_ok = weight_ok and (
                        Fraction(count, factorial(n)) == Fraction(1, factorial(r.n0) * factorial(r.n_inf))
                    )
        _report(5, f"fixed-locus sum equals transformed cone on {target.name}",
                ok, time.perf_counter() - started, 300.0)
    _report(9, "generic splitting weights factor into per-end weights",
            weight_ok, 0.0, 1.0)


def test_criterion_6_universal_relations():
    started = time.perf_counter()
    ok = True
    for name, seed in (("P1", 7), ("P2", 11)):
        target = make_target(name)
        trunc = default_truncation(target, 2, 3, 1)
        t = TPolynomial.random(target, 1, seed=seed)
        ok = ok and check_universal_relations(t, 4, trunc, seed=seed).passed
    _report(6, "universal relations vanish for k = 2, 3, 4 on P1 and P2",
            ok, time.perf_counter() - started, 120.0)


def test_criterion_7_lagrangian_residue():
    started = time.perf_counter()
    target = make_target("P1")
    trunc = default_truncation(target, 2, 2, 1)
    t = TPolynomial.random(target, 1, seed=7)
    report = check_lagrangian(t, trunc, j_max=1, seed=7)
    _report(7, "residue pairing of tangent vectors vanishes on P1",
            report.passed, time.perf_counter() - started, 60.0)


def test_criterion_8_tangent_membership():
    started = time.perf_counter()
    target = make_target("P1")
    trunc = default_truncation(target, 1, 1, 1)
    t = TPolynomial.random(target, 1, seed=7)
    report = check_cone_in_tangent(t, trunc, seed=7)
    _report(8, "cone point in z times its tangent space, plus span check",
            report.passed, time.perf_counter() - started, 60.0)
