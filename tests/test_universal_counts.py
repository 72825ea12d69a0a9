"""Deterministic call counts of the universal relations.

``check_universal_relations`` asks the engine only for correlators that
pass its dimension filter, and computes each distinct double bracket
once per call.  A bracket sum reads each key from the engine's value
table and asks ``engine.correlator`` only on a miss, so the keys are
counted at that read.  The exact counts below were measured on this
code; the sum that looked up every expansion of t asked for 23,916 (P1)
and 35,730 (P2) correlators and made 96 and 180 bracket calls.
"""

import pytest

from gwlab import checks, cone
from gwlab.cone import (
    _EXPANSIONS_CACHE_SIZE,
    TPolynomial,
    _expansions_by_dim,
    default_truncation,
    descendant_potential,
)
from gwlab.correlators import CorrelatorEngine
from gwlab.targets import make_target


class _ReadCounted:
    """An engine as ``cone._bracket_sum`` sees it, its value table
    recording each key read; everything else is the engine's own."""

    def __init__(self, engine, keys):
        self._engine, self._values = engine, self
        self._read, self._keys = engine._values.get, keys

    def get(self, key):
        self._keys.append(key)
        return self._read(key)

    def __getattr__(self, name):
        return getattr(self._engine, name)


def _counted_check(monkeypatch, name, D, E, T, engine=None):
    """Runs the check at seed 7 on the engine, a fresh one by default;
    returns the report, the correlator keys read, the bracket calls, the
    ``engine.correlator`` calls and the engine."""
    target = make_target(name)
    t = TPolynomial.random(target, T, 7)
    trunc = default_truncation(target, D, E, T)
    engine = engine or CorrelatorEngine(target)
    keys, brackets, asked = [], [], []
    real_correlator = engine.correlator
    real_bracket = checks.double_bracket
    real_sum = cone._bracket_sum

    def correlator(beta, insertions):
        asked.append((beta, insertions))
        return real_correlator(beta, insertions)

    def double_bracket(t, fixed, trunc, engine, extra_eps=0):
        brackets.append((tuple(sorted(fixed)), extra_eps))
        return real_bracket(t, fixed, trunc, engine, extra_eps=extra_eps)

    def bracket_sum(t, fixed, trunc, engine, extra_eps):
        return real_sum(t, fixed, trunc, _ReadCounted(engine, keys), extra_eps)

    monkeypatch.setattr(engine, "correlator", correlator)
    monkeypatch.setattr(checks, "double_bracket", double_bracket)
    monkeypatch.setattr(cone, "_bracket_sum", bracket_sum)
    report = checks.check_universal_relations(t, 4, trunc, engine, seed=7)
    return report, keys, brackets, asked, engine


@pytest.mark.parametrize(
    "name, D, E, T, correlator_calls, bracket_calls",
    [("P1", 3, 3, 2, 1119, 43), ("P2", 2, 3, 1, 1437, 78)],
)
def test_universal_counts(monkeypatch, name, D, E, T, correlator_calls, bracket_calls):
    report, keys, brackets, asked, engine = _counted_check(monkeypatch, name, D, E, T)
    assert report.passed
    assert all(engine._fits(beta, ins) for beta, ins in keys)
    assert len(brackets) == len(set(brackets))
    assert (len(keys), len(brackets)) == (correlator_calls, bracket_calls)
    assert 0 < len(asked) <= len(keys)


@pytest.mark.parametrize("name, D, E, T", [("P1", 3, 3, 2), ("P2", 2, 3, 1)])
def test_a_second_check_reads_every_key_from_the_table(monkeypatch, name, D, E, T):
    """The same t on the same engine again: every key hits, and
    ``engine.correlator`` is not called."""
    first = _counted_check(monkeypatch, name, D, E, T)
    monkeypatch.undo()
    report, keys, _, asked, _ = _counted_check(monkeypatch, name, D, E, T, first[-1])
    assert report.passed and keys == first[1]
    assert asked == []


def test_bracket_memo_lasts_one_call(monkeypatch):
    """A second check on the same engine computes every bracket again."""
    _, _, brackets, _, engine = _counted_check(monkeypatch, "P1", 2, 2, 1)
    first = list(brackets)
    t = TPolynomial.random(engine.target, 1, 7)
    checks.check_universal_relations(t, 4, default_truncation(engine.target, 2, 2, 1), engine)
    assert first and brackets == first + first


def test_expansions_by_dim_cache_is_bounded():
    assert _expansions_by_dim.cache_info().maxsize == _EXPANSIONS_CACHE_SIZE
    target = make_target("P2")
    trunc = default_truncation(target, 1, 2, 1)
    _expansions_by_dim.cache_clear()
    for seed in range(51):
        descendant_potential(TPolynomial.random(target, 1, seed), trunc)
    assert _expansions_by_dim.cache_info().currsize <= _EXPANSIONS_CACHE_SIZE
