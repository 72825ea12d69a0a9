"""Differential test of the budgeted scalar product against the loop it
replaced.

The reference below keeps the previous ``ScalarSeries.mul`` verbatim: it
formed every pair's degree and asked ``admits_grade`` before it kept the
pair.  On random pairs of series over the point, P1 and P2, with terms
at exactly the truncation's Novikov and eps orders and past them, the
new product must give the same terms in the same order.  The universal
relations, the product's main caller, must give the same reports under
both products at the two configs of the benchmark's universal-relations
workload.
"""

import json
import random
from fractions import Fraction

import pytest

from gwlab import checks
from gwlab.cone import TPolynomial, default_truncation
from gwlab.correlators import CorrelatorEngine
from gwlab.series import MismatchError, ScalarSeries
from gwlab.targets import NovikovDegree, beta_add, beta_zero, iter_betas, make_target

# ---------------------------------------------------------------------------
# the reference: the previous product, verbatim


def mul(self, other: "ScalarSeries") -> "ScalarSeries":
    """Graded product; grades beyond the truncation are dropped exactly."""
    if self.trunc != other.trunc:
        raise MismatchError("scalar series truncations differ")
    out: dict[tuple[NovikovDegree, int], Fraction] = {}
    for (b1, e1), v1 in self.terms.items():
        for (b2, e2), v2 in other.terms.items():
            key = (beta_add(b1, b2), e1 + e2)
            if self.trunc.admits_grade(*key):
                out[key] = out.get(key, Fraction(0)) + v1 * v2
    return _raw(self.trunc, out)


def _raw(trunc, terms) -> ScalarSeries:
    """A series holding ``terms`` as given, grades past ``trunc`` included;
    only the zeros are dropped."""
    out = ScalarSeries.__new__(ScalarSeries)
    out.trunc, out.terms = trunc, {key: val for key, val in terms.items() if val}
    return out


# ---------------------------------------------------------------------------
# comparisons

TARGETS = ("point", "P1", "P2")
SEEDS = (1, 7, 13)


def _random_series(rng, rank, trunc, past):
    """Up to eight terms at seeded grades up to (D + past, E + past), so
    some sit exactly at (D, E) and, with ``past``, some beyond it; the
    grades past the truncation only a raw series can hold."""
    D, E = trunc.novikov_order, trunc.epsilon_order
    betas = iter_betas(rank, D + past)
    terms = {
        (rng.choice(betas), rng.randint(0, E + past)): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(rng.randint(0, 8))
    }
    return _raw(trunc, terms) if past else ScalarSeries(trunc, terms)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TARGETS)
def test_random_products_match_reference(name, seed):
    rng = random.Random(f"scalar-mul/{name}/{seed}")
    target = make_target(name)
    at_edge = 0
    for _ in range(300):
        trunc = default_truncation(target, rng.randint(0, 3), rng.randint(0, 3), 1)
        past = rng.choice((0, 1, 2))
        left = _random_series(rng, target.class_rank, trunc, past)
        right = _random_series(rng, target.class_rank, trunc, past)
        want = list(mul(left, right).terms.items())
        assert list(left.mul(right).terms.items()) == want
        D, E = trunc.novikov_order, trunc.epsilon_order
        at_edge += any(sum(b) == D or e == E for b, e in dict(want))
    assert at_edge


def test_mismatched_truncations_raise_as_in_reference():
    target = make_target("P1")
    left = ScalarSeries(default_truncation(target, 2, 2, 1), {((1,), 1): 1})
    right = ScalarSeries(default_truncation(target, 2, 3, 1), {((1,), 1): 1})
    with pytest.raises(MismatchError) as want:
        mul(left, right)
    with pytest.raises(MismatchError) as got:
        left.mul(right)
    assert str(got.value) == str(want.value)


def _untimed(report) -> str:
    payload = report.as_dict()
    payload.pop("elapsed_s")
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("faulty", [False, True], ids=["sound", "faulty"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name, D, E, T", [("P1", 3, 3, 2), ("P2", 2, 3, 1)])
def test_universal_reports_match_reference(name, D, E, T, seed, faulty, monkeypatch):
    """With ``faulty`` every bracket gains the constant 1/7, so the
    products of one- and two-point brackets reach the failure records."""
    target = make_target(name)
    t = TPolynomial.random(target, T, seed)
    trunc = default_truncation(target, D, E, T)
    engine = CorrelatorEngine(target)
    if faulty:
        constant = ScalarSeries(trunc, {(beta_zero(target.class_rank), 0): Fraction(1, 7)})
        real = checks.double_bracket
        monkeypatch.setattr(checks, "double_bracket", lambda *a, **k: real(*a, **k).add(constant))
    new = checks.check_universal_relations(t, 4, trunc, engine, seed=seed)
    monkeypatch.setattr(ScalarSeries, "mul", mul)
    ref = checks.check_universal_relations(t, 4, trunc, engine, seed=seed)
    assert ref.passed is not faulty
    assert _untimed(new) == _untimed(ref)
