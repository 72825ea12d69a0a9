"""Differential test of the dimension-sliced bracket sum and the
per-check bracket memo against the code they replaced.

The reference below keeps the previous ``_bracket_sum``,
``double_bracket``, ``universal_relation`` and
``check_universal_relations`` verbatim (docstrings dropped): the sum
looked up every expansion of t, dead keys included, and every relation
built its own brackets.  On point, P1 and P2 over seeds 1, 7 and 13 the
new path must give the same ``ScalarSeries`` terms in the same insertion
order, raise the same ``InvalidKeyError`` wherever the reference raised
on a malformed fixed slot, and give the same universal report, sound and
with a fault injected into ``double_bracket``.
"""

import json
import random
import sys
from fractions import Fraction

import pytest

from gwlab import checks, cone
from gwlab.checks import _report, _timed
from gwlab.cone import TPolynomial, _expansions, _stable_pairs, default_truncation
from gwlab.correlators import CorrelatorEngine, InvalidKeyError, get_engine
from gwlab.series import ScalarSeries
from gwlab.targets import beta_zero, make_target

# ---------------------------------------------------------------------------
# the reference: the previous bracket sum and universal relations, verbatim


def double_bracket(t, fixed, trunc, engine=None, extra_eps=0):
    fixed = tuple(sorted((int(a), int(k)) for a, k in fixed))
    if not fixed:
        raise ValueError("needs at least one fixed insertion")
    return _bracket_sum(t, fixed, trunc, engine or get_engine(t.target), extra_eps)


def _bracket_sum(t, fixed, trunc, engine, extra_eps) -> ScalarSeries:
    terms: dict = {}
    for beta, n in _stable_pairs(t.target, trunc, len(fixed), trunc.epsilon_order - extra_eps):
        if not fixed and not n:
            continue
        for weight, monos in _expansions(t, n):
            val = engine.correlator(beta, fixed + monos)
            if val:
                key = (beta, n + extra_eps)
                terms[key] = terms.get(key, Fraction(0)) + weight * val
    return ScalarSeries(trunc, terms)


def universal_relation(t, k, alpha, trunc, engine=None) -> ScalarSeries:
    engine = engine or get_engine(t.target)
    target = t.target
    pinv = target.pairing_inverse
    total = ScalarSeries(trunc, {})
    for j, a, c in t.monomials():
        bracket = double_bracket(t, ((a, k - 1 + j), (alpha, 0)), trunc, engine, extra_eps=1)
        total = total.add(bracket.scale(c))
    total = total.add(
        double_bracket(t, ((0, k), (alpha, 0)), trunc, engine, extra_eps=0).scale(-1)
    )
    total = total.add(
        double_bracket(t, ((alpha, k - 1),), trunc, engine).scale(Fraction(-1) ** k)
    )
    for r in range(k - 1):
        sign = Fraction(-1) ** (1 + r)
        for mu in range(target.rank):
            one_pt = double_bracket(t, ((mu, r),), trunc, engine)
            if one_pt.is_zero():
                continue
            two_pt = ScalarSeries(trunc, {})
            for nu, w in enumerate(pinv[mu]):
                if w:
                    two_pt = two_pt.add(
                        double_bracket(t, ((nu, k - 2 - r), (alpha, 0)), trunc, engine).scale(w)
                    )
            total = total.add(one_pt.mul(two_pt).scale(sign))
    return total


@_timed
def check_universal_relations(t, k_max, trunc, engine=None, seed=None):
    if k_max < 2:
        raise ValueError("relations start at k = 2")
    engine = engine or get_engine(t.target)
    failures = []
    for k in range(2, k_max + 1):
        for alpha in range(t.target.rank):
            failures += universal_relation(t, k, alpha, trunc, engine).to_records(k=k, alpha=alpha)
    return _report("universal", t, trunc, failures, seed, k_max=k_max)


# ---------------------------------------------------------------------------
# comparisons

TARGETS = ("point", "P1", "P2")
SEEDS = (1, 7, 13)


def _setting(name, seed):
    target = make_target(name)
    return target, TPolynomial.random(target, 1, seed), default_truncation(target, 2, 3, 1)


def _outcome(fn, *args):
    """The terms of fn(*args) in insertion order, or the error it raised."""
    try:
        return ("terms", list(fn(*args).terms.items()))
    except InvalidKeyError as exc:
        return ("raises", str(exc))


def _fixed_sets(rank, seed):
    """Seeded fixed slots: eight each of one, two and three slots."""
    rng = random.Random(f"fixed/{seed}")
    return [
        tuple((rng.randrange(rank), rng.randrange(5)) for _ in range(size))
        for size in (1, 2, 3)
        for _ in range(8)
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TARGETS)
def test_brackets_match_reference(name, seed):
    target, t, trunc = _setting(name, seed)
    engine = CorrelatorEngine(target)
    for fixed in _fixed_sets(target.rank, seed):
        for extra_eps in (0, 1):
            want = _outcome(double_bracket, t, fixed, trunc, engine, extra_eps)
            assert want[0] == "terms"
            got = _outcome(cone.double_bracket, t, fixed, trunc, engine, extra_eps)
            assert got == want, (fixed, extra_eps)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TARGETS)
def test_descendant_potential_matches_reference(name, seed):
    target, t, trunc = _setting(name, seed)
    engine = CorrelatorEngine(target)
    want = list(_bracket_sum(t, (), trunc, engine, 0).terms.items())
    assert want
    assert list(cone.descendant_potential(t, trunc, engine).terms.items()) == want


def _malformed(rank):
    """Fixed slots with a basis index out of range or negative, or a
    negative psi power, next to a valid slot and alone; the psi power 40
    fills no dimension of these truncations, so its slice is empty."""
    bad = [(rank, 0), (rank + 3, 1), (-1, 0), (0, -1), (rank, 40), (-2, 40), (0, -2)]
    return [(slot,) for slot in bad] + [(slot, (0, 0)) for slot in bad] + [((rank, 0), (-1, 0))]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TARGETS)
def test_malformed_fixed_slots_raise_as_in_reference(name, seed):
    """``double_bracket`` checks its fixed slots before any grade; the
    reference checked them only at a grade with an expansion.  So two kinds
    of case now raise where the reference returned zero: an extra eps past
    the eps order, which leaves no grade, and the zero t on the point,
    whose grades all need a t-slot that it cannot fill."""
    target, t, trunc = _setting(name, seed)
    engine = CorrelatorEngine(target)
    zero = TPolynomial.zero(target, 1)
    raised = 0
    for fixed in _malformed(target.rank):
        for poly, extra_eps in ((t, 0), (t, 1), (t, trunc.epsilon_order + 1), (zero, 0)):
            want = _outcome(_bracket_sum, poly, fixed, trunc, engine, extra_eps)
            got = _outcome(cone.double_bracket, poly, fixed, trunc, engine, extra_eps)
            if extra_eps > trunc.epsilon_order or (poly is zero and name == "point"):
                assert want == ("terms", []) and got[0] == "raises", (fixed, extra_eps)
                want = _outcome(_bracket_sum, t, fixed, trunc, engine, 0)
            assert got == want, (fixed, extra_eps)
            raised += want[0] == "raises"
    assert raised


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TARGETS)
def test_universal_relation_matches_reference(name, seed):
    target, t, trunc = _setting(name, seed)
    engine = CorrelatorEngine(target)
    for k in range(2, 5):
        for alpha in range(target.rank):
            want = list(universal_relation(t, k, alpha, trunc, engine).terms.items())
            got = list(checks.universal_relation(t, k, alpha, trunc, engine).terms.items())
            assert got == want, (k, alpha)


def _plus_seventh(value: ScalarSeries, target) -> ScalarSeries:
    """value plus the constant 1/7."""
    b0 = beta_zero(target.class_rank)
    return value.add(ScalarSeries(value.trunc, {(b0, 0): Fraction(1, 7)}))


def _untimed(report) -> str:
    payload = report.as_dict()
    payload.pop("elapsed_s")
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("faulty", [False, True], ids=["sound", "faulty"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TARGETS)
def test_universal_report_matches_reference(name, seed, faulty, monkeypatch):
    target, t, trunc = _setting(name, seed)
    if faulty:
        for module in (checks, sys.modules[__name__]):
            real = module.double_bracket
            faulty_bracket = lambda t, *a, real=real, **k: _plus_seventh(real(t, *a, **k), t.target)
            monkeypatch.setattr(module, "double_bracket", faulty_bracket)
    ref = check_universal_relations(t, 4, trunc, CorrelatorEngine(target), seed=seed)
    new = checks.check_universal_relations(t, 4, trunc, CorrelatorEngine(target), seed=seed)
    assert ref.passed is not faulty
    assert _untimed(new) == _untimed(ref)

