"""Differential test of the builders that share ``cone._kernel_sum``
against the separate loops they replaced.

The ``_reference_*`` functions below are the earlier implementations of
``cone_point``, ``s_apply``, ``s_adjoint_corr_apply``, ``s_matrix``,
``s_adjoint_matrix`` and ``contribution``, kept verbatim.  The shared sum
must give the same series term for term, compared as maps from key to
value, and must raise the same window overflow in a window too narrow for
the sums.  The last test runs
``gwlab series`` and compares its records with the reference loops.
"""

import json
import random
from fractions import Fraction

import pytest

from gwlab import (
    LoopSeries,
    MismatchError,
    TPolynomial,
    Truncation,
    TruncationOverflowError,
    cone_point,
    contribution,
    default_truncation,
    dilaton_shift,
    enumerate_splittings,
    get_engine,
    localisation_sum,
    make_target,
    s_adjoint_corr_apply,
    s_adjoint_matrix,
    s_apply,
    s_matrix,
    tangent_vector,
)
from gwlab.cli import main
from gwlab.cone import _expansions, _stable_pairs
from gwlab.correlators import CorrelatorEngine
from gwlab.matrices import EndoSeries
from gwlab.series import SeriesAccumulator
from gwlab.targets import beta_add, beta_total, beta_zero, iter_betas
from block_view import _dense


def _reference_cone_point(t, trunc, engine=None):
    engine = engine or get_engine(t.target)
    acc = SeriesAccumulator(t.target, trunc)
    acc.add_series(dilaton_shift(t, trunc))
    for beta, n in _stable_pairs(t.target, trunc, 1):
        for weight, monos in _expansions(t, n):
            block = _dense(engine.fibre_block(beta, monos, -1), t.target.rank)
            for z_exp, vec in block.items():
                acc.add_vector(z_exp, vec, beta, n, weight)
    return acc.series()


def _reference_s_apply(t, f, trunc, engine=None):
    engine = engine or get_engine(t.target)
    if f.target != t.target:
        raise MismatchError("f lives over a different target")
    D, E = trunc.novikov_order, trunc.epsilon_order
    acc = SeriesAccumulator(t.target, trunc)
    acc.add_series(f)
    by_alpha: dict[int, list] = {}
    for (z, alpha, beta_f, eps_f), c in f.terms.items():
        by_alpha.setdefault(alpha, []).append((z, beta_f, beta_total(beta_f), eps_f, c))
    for beta, n in _stable_pairs(t.target, trunc, 2):
        room_beta, room_eps = D - beta_total(beta), E - n
        fitting = []
        for alpha, fterms in by_alpha.items():
            fits = [
                (z_f, beta_add(beta_f, beta), eps_f + n, c)
                for z_f, beta_f, deg_f, eps_f, c in fterms
                if deg_f <= room_beta and eps_f <= room_eps
            ]
            if fits:
                fitting.append((alpha, fits))
        if not fitting:
            continue
        for weight, monos in _expansions(t, n):
            for alpha, fits in fitting:
                block = _dense(engine.flow_block(beta, alpha, monos), t.target.rank)
                if not block:
                    continue
                scaled = [(z_f, b, e, c * weight) for z_f, b, e, c in fits]
                for z_k, vec in block.items():
                    comps = [(rho, comp) for rho, comp in enumerate(vec) if comp]
                    for z_f, b, e, cw in scaled:
                        for rho, comp in comps:
                            acc.add(z_f + z_k, rho, b, e, cw * comp)
    return acc.series()


def _reference_s_adjoint_corr_apply(t, r, sign, trunc, engine=None):
    engine = engine or get_engine(t.target)
    if r.target != t.target:
        raise MismatchError("r lives over a different target")
    if any(z < 0 for (z, _, _, _) in r.terms):
        raise MismatchError("r must be a z-polynomial element")
    acc = SeriesAccumulator(t.target, trunc)
    acc.add_series(r)
    for beta, n in _stable_pairs(t.target, trunc, 2):
        for weight, monos in _expansions(t, n):
            for (z_r, alpha, beta_r, eps_r), c in r.terms.items():
                block = _dense(engine.fibre_block(beta, tuple(sorted(monos + ((alpha, z_r),))), sign), t.target.rank)
                for z_exp, vec in block.items():
                    for rho, comp in enumerate(vec):
                        if comp:
                            acc.add(
                                z_exp,
                                rho,
                                beta_add(beta_r, beta),
                                eps_r + n,
                                c * weight * comp,
                            )
    return acc.series()


def _add_entry(entries, trunc, z, row, col, beta, eps, val):
    if not val:
        return
    if not trunc.admits_grade(beta, eps):
        return
    trunc.check_window(z)
    key = (z, row, col, beta, eps)
    entries[key] = entries.get(key, Fraction(0)) + val
    if not entries[key]:
        del entries[key]


def _reference_s_matrix(t, trunc, engine=None):
    engine = engine or get_engine(t.target)
    target = t.target
    entries = {}
    b0 = beta_zero(target.class_rank)
    for a in range(target.rank):
        _add_entry(entries, trunc, 0, a, a, b0, 0, Fraction(1))
    for beta, n in _stable_pairs(target, trunc, 2):
        for weight, monos in _expansions(t, n):
            for col in range(target.rank):
                block = _dense(engine.flow_block(beta, col, monos), t.target.rank)
                for z_exp, vec in block.items():
                    for row, comp in enumerate(vec):
                        _add_entry(entries, trunc, z_exp, row, col, beta, n, weight * comp)
    return EndoSeries(target, trunc, entries)


def _reference_s_adjoint_matrix(t, trunc, engine=None):
    engine = engine or get_engine(t.target)
    target = t.target
    entries = {}
    b0 = beta_zero(target.class_rank)
    for a in range(target.rank):
        _add_entry(entries, trunc, 0, a, a, b0, 0, Fraction(1))
    for beta, n in _stable_pairs(target, trunc, 2):
        for weight, monos in _expansions(t, n):
            for col in range(target.rank):
                block = _dense(engine.fibre_block(beta, tuple(sorted(monos + ((col, 0),))), +1), t.target.rank)
                for z_exp, vec in block.items():
                    for row, comp in enumerate(vec):
                        _add_entry(entries, trunc, z_exp, row, col, beta, n, weight * comp)
    return EndoSeries(target, trunc, entries)


def _reference_contribution(rec, t, trunc, engine=None):
    engine = engine or get_engine(t.target)
    target = t.target
    acc = SeriesAccumulator(target, trunc)
    beta = rec.beta
    n = rec.n
    b00 = beta_zero(target.class_rank)

    if rec.kind == "case1":
        acc.add(1, 0, b00, 0, Fraction(-1))
    elif rec.kind == "case2":
        for j, a, c in t.monomials():
            acc.add(j, a, b00, 1, c)
    elif rec.kind == "case3":
        for weight, monos in _expansions(t, n):
            block = _dense(engine.flow_block(beta, 0, monos), t.target.rank)
            for z_exp, vec in block.items():
                # -z times the unit kernel: shift the exponent, flip the sign.
                acc.add_vector(z_exp + 1, vec, beta, n, -weight)
    elif rec.kind == "case4":
        for weight, monos in _expansions(t, rec.n_inf):
            for j, a, c in t.monomials():
                block = _dense(engine.flow_block(beta, a, monos), t.target.rank)
                for z_exp, vec in block.items():
                    acc.add_vector(z_exp + j, vec, beta, n, weight * c)
    elif rec.kind == "case5":
        for weight, monos in _expansions(t, n):
            block = _dense(engine.fibre_block(beta, monos, -1), t.target.rank)
            for z_exp, vec in block.items():
                acc.add_vector(z_exp, vec, beta, n, weight)
    else:
        pinv = target.pairing_inverse
        for w0, monos0 in _expansions(t, rec.n0):
            kernels = {}
            for a in range(target.rank):
                zmap = engine.correlator_with_kernel(rec.beta0, monos0, a, -1)
                if zmap:
                    kernels[a] = zmap
            if not kernels:
                continue
            for w1, monos1 in _expansions(t, rec.n_inf):
                for a, zmap in kernels.items():
                    for nu, w_dual in enumerate(pinv[a]):
                        if not w_dual:
                            continue
                        block = _dense(engine.flow_block(rec.beta_inf, nu, monos1), t.target.rank)
                        for z0, v0 in zmap.items():
                            for z1, vec in block.items():
                                acc.add_vector(
                                    z0 + z1, vec, beta, n, w0 * w1 * v0 * w_dual
                                )
    return acc.series()


def _reference_localisation_sum(t, trunc, engine):
    acc = SeriesAccumulator(t.target, trunc)
    for beta in iter_betas(t.target.class_rank, trunc.novikov_order):
        for n in range(trunc.epsilon_order + 1):
            for rec in enumerate_splittings(t.target, beta, n):
                acc.add_series(_reference_contribution(rec, t, trunc, engine))
    return acc.series()


# (target, D, E, T): the references take well under a second at each.
CONFIGS = [
    ("point", 0, 4, 1),
    ("P1", 2, 2, 1),
    ("P1", 2, 3, 2),
    ("P2", 2, 2, 1),
    ("P2", 1, 3, 2),
]
SEEDS = (1, 7, 13)


def _setup(name, D, E, T, seed):
    target = make_target(name)
    return target, default_truncation(target, D, E, T), TPolynomial.random(target, T, seed)


def _same(new, ref):
    assert new.to_json() == ref.to_json()
    assert new.terms == ref.terms


def _r_operands(target, trunc, seed, T):
    """Each z-polynomial basis monomial, then a seeded sum spread over
    several grades."""
    out = [LoopSeries.basis(target, trunc, a, k) for a in range(target.rank) for k in range(T + 1)]
    rng = random.Random(seed)
    betas = iter_betas(target.class_rank, trunc.novikov_order)
    terms = {}
    for _ in range(6):
        key = (rng.randint(0, T), rng.randrange(target.rank), rng.choice(betas), rng.randint(0, trunc.epsilon_order))
        terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return out + [LoopSeries(target, trunc, terms)]


@pytest.mark.parametrize("name,D,E,T", CONFIGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_cone_point_matches_reference(name, D, E, T, seed):
    target, trunc, t = _setup(name, D, E, T, seed)
    new = cone_point(t, trunc, CorrelatorEngine(target))
    _same(new, _reference_cone_point(t, trunc, CorrelatorEngine(target)))


@pytest.mark.parametrize("name,D,E,T", CONFIGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_adjoint_apply_matches_reference(name, D, E, T, seed):
    target, trunc, t = _setup(name, D, E, T, seed)
    engine = CorrelatorEngine(target)
    for sign in (-1, +1):
        for r in _r_operands(target, trunc, seed, T):
            new = s_adjoint_corr_apply(t, r, sign, trunc, engine)
            _same(new, _reference_s_adjoint_corr_apply(t, r, sign, trunc, engine))


@pytest.mark.parametrize("name,D,E,T", CONFIGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_matrices_match_reference(name, D, E, T, seed):
    # Built column by column, so the entries agree as maps, not in order.
    target, trunc, t = _setup(name, D, E, T, seed)
    engine = CorrelatorEngine(target)
    for new, ref in (
        (s_matrix(t, trunc, engine), _reference_s_matrix(t, trunc, engine)),
        (s_adjoint_matrix(t, trunc, engine), _reference_s_adjoint_matrix(t, trunc, engine)),
    ):
        assert new.trunc == ref.trunc
        assert new.entries == ref.entries


@pytest.mark.parametrize("name,D,E,T", CONFIGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_contributions_match_reference(name, D, E, T, seed):
    target, trunc, t = _setup(name, D, E, T, seed)
    engine = CorrelatorEngine(target)
    kinds = set()
    for beta in iter_betas(target.class_rank, D):
        for n in range(E + 1):
            for rec in enumerate_splittings(target, beta, n):
                new = contribution(rec, t, trunc, engine)
                ref = _reference_contribution(rec, t, trunc, engine)
                _same(new, ref)
                kinds.add(rec.kind)
    assert kinds == {"case1", "case2", "case3", "case4", "case5", "generic"}
    _same(localisation_sum(t, trunc, engine), _reference_localisation_sum(t, trunc, engine))


def _outcome(fn, *args):
    """The series a builder returns, or the z-exponent its overflow names."""
    try:
        out = fn(*args)
    except TruncationOverflowError as exc:
        return ("overflow", exc.z_exp, exc.z_min, exc.z_max)
    return ("ok", out.entries if isinstance(out, EndoSeries) else out.to_json())


@pytest.mark.parametrize("name,D,E,T", [CONFIGS[1], CONFIGS[3]])
def test_narrow_windows_overflow_alike(name, D, E, T):
    target, trunc, t = _setup(name, D, E, T, 7)
    engine = CorrelatorEngine(target)
    overflows = 0
    for z_min in range(-1, trunc.z_min - 1, -1):
        narrow = Truncation(D, E, z_min, trunc.z_max)
        pairs = [
            (cone_point, _reference_cone_point, (t, narrow, engine)),
            (s_matrix, _reference_s_matrix, (t, narrow, engine)),
            (s_adjoint_matrix, _reference_s_adjoint_matrix, (t, narrow, engine)),
            (localisation_sum, _reference_localisation_sum, (t, narrow, engine)),
        ]
        for r in _r_operands(target, narrow, 7, T):
            for sign in (-1, +1):
                pairs.append((s_adjoint_corr_apply, _reference_s_adjoint_corr_apply, (t, r, sign, narrow, engine)))
        for beta in iter_betas(target.class_rank, D):
            for n in range(E + 1):
                for rec in enumerate_splittings(target, beta, n):
                    pairs.append((contribution, _reference_contribution, (rec, t, narrow, engine)))
        for new, ref, args in pairs:
            got = _outcome(new, *args)
            assert got == _outcome(ref, *args), (new.__name__, z_min, args[0])
            overflows += got[0] == "overflow"
    assert overflows > 0


@pytest.mark.parametrize("name", ["P1", "P2"])
@pytest.mark.parametrize("seed", SEEDS)
def test_cli_series_dumps_match_reference(capsys, name, seed):
    D, E, T = 2, 2, 1
    target, trunc, t = _setup(name, D, E, T, seed)
    engine = CorrelatorEngine(target)
    cone = _reference_cone_point(t, trunc, engine)
    expected = {
        "cone": cone,
        "SL": _reference_s_apply(t, cone, trunc, engine),
        "locsum": _reference_localisation_sum(t, trunc, engine),
        "tangent": _reference_s_adjoint_corr_apply(t, LoopSeries.basis(target, trunc, 1, 1), -1, trunc, engine),
    }
    for which, ref in expected.items():
        code = main([
            "series", "--which", which, "--alpha", "1", "--k", "1", "--target", name,
            "--D", str(D), "--E", str(E), "--T", str(T), "--seed", str(seed), "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["series"] == ref.to_records(), which
    assert expected["tangent"] == tangent_vector(t, 1, 1, trunc, engine)
    assert expected["SL"] == s_apply(t, cone_point(t, trunc, engine), trunc, engine)
