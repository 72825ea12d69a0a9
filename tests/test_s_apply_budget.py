"""Differential test of the grade-budgeted ``s_apply`` against the
unbudgeted sum it replaced.

``_reference_s_apply`` below is the earlier implementation, kept verbatim:
it visits every (f term, kernel grade) pair and lets the accumulator
drop the grades beyond the truncation.  The budgeted version must give
the same series, byte for byte in ``to_json()`` and term for term as a
map from key to value, and must raise the same window overflow.
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
    default_truncation,
    get_engine,
    kernel_depth_bound,
    make_target,
    s_apply,
    s_matrix,
)
from gwlab.cli import main
from gwlab.cone import _expansions, _stable_pairs
from gwlab.correlators import CorrelatorEngine
from gwlab.series import SeriesAccumulator
from gwlab.targets import iter_betas
from block_view import _dense


def _reference_s_apply(t, f, trunc, engine=None):
    engine = engine or get_engine(t.target)
    if f.target != t.target:
        raise MismatchError("f lives over a different target")
    acc = SeriesAccumulator(t.target, trunc)
    acc.add_series(f)
    by_alpha: dict[int, list] = {}
    for (z, alpha, beta_f, eps_f), c in f.terms.items():
        by_alpha.setdefault(alpha, []).append((z, beta_f, eps_f, c))
    for beta, n in _stable_pairs(t.target, trunc, 2):
        for weight, monos in _expansions(t, n):
            for alpha, fterms in by_alpha.items():
                block = _dense(engine.flow_block(beta, alpha, monos), t.target.rank)
                if not block:
                    continue
                for z_k, vec in block.items():
                    for z_f, beta_f, eps_f, c in fterms:
                        for rho, comp in enumerate(vec):
                            if comp:
                                acc.add(
                                    z_f + z_k,
                                    rho,
                                    _badd(beta_f, beta),
                                    eps_f + n,
                                    c * weight * comp,
                                )
    return acc.series()


def _badd(a, b):
    return tuple(x + y for x, y in zip(a, b))


# (target, D, E, T): the reference takes well under a second at each.
CONFIGS = [
    ("P1", 2, 2, 1),
    ("P1", 3, 3, 1),
    ("P1", 2, 3, 2),
    ("P2", 2, 2, 1),
    ("P2", 2, 3, 1),
    ("P2", 1, 3, 2),
]
SEEDS = (1, 2, 3)


def _generic_f(target, trunc, seed, size=10):
    """Seeded f spread over every grade, so the budget cuts at each of
    them; z stays where one kernel depth still lands in the window."""
    rng = random.Random(seed)
    depth = kernel_depth_bound(target, trunc.novikov_order, trunc.epsilon_order)
    betas = iter_betas(target.class_rank, trunc.novikov_order)
    terms = {}
    for _ in range(size):
        key = (
            rng.randint(-1 - depth, trunc.z_max),
            rng.randrange(target.rank),
            rng.choice(betas),
            rng.randint(0, trunc.epsilon_order),
        )
        terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return LoopSeries(target, trunc, terms)


def _both(t, f, trunc):
    new = s_apply(t, f, trunc, CorrelatorEngine(t.target))
    ref = _reference_s_apply(t, f, trunc, CorrelatorEngine(t.target))
    return new, ref


@pytest.mark.parametrize("name,D,E,T", CONFIGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_budgeted_matches_reference_on_cone_point(name, D, E, T, seed):
    target = make_target(name)
    trunc = default_truncation(target, D, E, T)
    t = TPolynomial.random(target, T, seed)
    f = cone_point(t, trunc, CorrelatorEngine(target))
    new, ref = _both(t, f, trunc)
    assert new.to_json() == ref.to_json()
    assert new.terms == ref.terms


@pytest.mark.parametrize("name,D,E,T", CONFIGS[:2] + CONFIGS[3:5])
@pytest.mark.parametrize("seed", SEEDS)
def test_budgeted_matches_reference_on_generic_f(name, D, E, T, seed):
    target = make_target(name)
    trunc = default_truncation(target, D, E, T)
    t = TPolynomial.random(target, T, seed)
    f = _generic_f(target, trunc, seed)
    new, ref = _both(t, f, trunc)
    assert len(ref.terms) > len(f.terms)
    assert new.to_json() == ref.to_json()
    assert new.terms == ref.terms


@pytest.mark.parametrize("name,D,E,T", [CONFIGS[1], CONFIGS[4]])
@pytest.mark.parametrize("seed", SEEDS)
def test_budgeted_matches_matrix_apply(name, D, E, T, seed):
    target = make_target(name)
    trunc = default_truncation(target, D, E, T)
    t = TPolynomial.random(target, T, seed)
    engine = CorrelatorEngine(target)
    for f in (cone_point(t, trunc, engine), _generic_f(target, trunc, seed)):
        via_matrix = s_matrix(t, trunc, engine).apply_linear(f, trunc)
        assert s_apply(t, f, trunc, engine).to_json() == via_matrix.to_json()


@pytest.mark.parametrize("name,D,E,T", [CONFIGS[0], CONFIGS[3]])
@pytest.mark.parametrize("seed", SEEDS)
def test_cli_sl_dump_matches_reference(capsys, name, D, E, T, seed):
    code = main([
        "series", "--which", "SL", "--target", name, "--D", str(D), "--E", str(E),
        "--T", str(T), "--seed", str(seed), "--format", "json",
    ])
    assert code == 0
    dumped = json.loads(capsys.readouterr().out)["series"]
    target = make_target(name)
    trunc = default_truncation(target, D, E, T)
    t = TPolynomial.random(target, T, seed)
    engine = CorrelatorEngine(target)
    ref = _reference_s_apply(t, cone_point(t, trunc, engine), trunc, engine)
    assert dumped == ref.to_records()


def _overflow(fn, *args):
    with pytest.raises(TruncationOverflowError) as info:
        fn(*args)
    return (info.value.z_exp, info.value.z_min, info.value.z_max)


def test_window_overflow_still_raised_from_a_kept_term():
    target = make_target("P1")
    t = TPolynomial.random(target, 1, 4)
    narrow = Truncation(2, 2, -1, 2)
    f = LoopSeries.basis(target, narrow, 1, 0)
    new = _overflow(s_apply, t, f, narrow, CorrelatorEngine(target))
    ref = _overflow(_reference_s_apply, t, f, narrow, CorrelatorEngine(target))
    assert new == ref
    assert new[0] < narrow.z_min


def test_no_overflow_from_a_pair_beyond_the_grade_budget():
    # f sits at the top grade, so every kernel term is dropped by grade
    # before its z-exponent is looked at, in both implementations.
    target = make_target("P1")
    t = TPolynomial.random(target, 1, 4)
    narrow = Truncation(2, 2, -1, 2)
    f = LoopSeries(target, narrow, {(0, 1, (2,), 2): Fraction(3, 5)})
    assert s_apply(t, f, narrow, CorrelatorEngine(target)) == f
    assert _reference_s_apply(t, f, narrow, CorrelatorEngine(target)) == f
