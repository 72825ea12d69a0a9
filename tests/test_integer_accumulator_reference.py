"""Differential test of the accumulator that sums on integer pairs, and of
``EndoSeries.apply_linear`` on it, against the ``Fraction`` sums they
replaced.

``_ReferenceAccumulator`` and ``_reference_apply_linear`` are the previous
``SeriesAccumulator`` and ``EndoSeries.apply_linear`` verbatim,
docstrings dropped, the reference product adding to the reference
accumulator: every add formed a ``Fraction`` sum, and ``apply_linear``
added each ``Fraction`` product.  Now terms are integer pairs merged by
``series.merge`` and each ``Fraction`` is formed once, when the series is
built.  Over random adds with zero values, exact cancellations, mixed
denominators and grades beyond the truncation, and over matrix products
with zero entries, both sides must build the same terms in the same
order, or raise the same overflow with the same message, and
``terms()`` must read what the reference held, zeros dropped.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwlab.matrices import EndoSeries
from gwlab.series import (
    LoopSeries,
    MismatchError,
    SeriesAccumulator,
    Truncation,
    TruncationOverflowError,
    merge,
)
from gwlab.targets import CohVector, NovikovDegree, TargetSpace, beta_add, beta_total, make_target

# ---------------------------------------------------------------------------
# the reference: the previous code, verbatim


class _ReferenceAccumulator:
    __slots__ = ("target", "trunc", "_terms")

    def __init__(self, target: TargetSpace, trunc: Truncation):
        self.target = target
        self.trunc = trunc
        self._terms: dict = {}

    def add(self, z_exp: int, alpha: int, beta: NovikovDegree, eps: int, value: Fraction) -> None:
        if not value:
            return
        if not self.trunc.admits_grade(beta, eps):
            return
        key = (z_exp, alpha, beta, eps)
        self._terms[key] = self._terms.get(key, Fraction(0)) + value

    def add_vector(self, z_exp: int, vec: CohVector, beta: NovikovDegree, eps: int, scale: Fraction) -> None:
        for alpha, comp in enumerate(vec):
            if comp:
                self.add(z_exp, alpha, beta, eps, comp * scale)

    def add_series(self, series: LoopSeries) -> None:
        for (z, alpha, beta, eps), val in series.terms.items():
            self.add(z, alpha, beta, eps, val)

    def series(self) -> LoopSeries:
        return LoopSeries(self.target, self.trunc, self._terms)


def _reference_apply_linear(self: EndoSeries, f: LoopSeries, out_trunc: Truncation) -> LoopSeries:
    if f.target != self.target:
        raise MismatchError("operand lives over a different target")
    max_n, max_e = out_trunc.novikov_order, out_trunc.epsilon_order
    by_col: dict[int, list] = {}
    for (z, alpha, beta, eps), c in f.terms.items():
        by_col.setdefault(alpha, []).append((z, beta, beta_total(beta), eps, c))
    acc = _ReferenceAccumulator(self.target, out_trunc)
    for (z_e, row, col, beta_e, eps_e), m in self.entries.items():
        n_e = beta_total(beta_e)
        for z_f, beta_f, n_f, eps_f, c in by_col.get(col, ()):
            if n_e + n_f <= max_n and eps_e + eps_f <= max_e:
                acc.add(z_e + z_f, row, beta_add(beta_e, beta_f), eps_e + eps_f, m * c)
    return acc.series()


# ---------------------------------------------------------------------------
# the comparison


def _built(acc):
    """The built terms in order, or the overflow's message."""
    try:
        return list(acc.series().terms.items())
    except TruncationOverflowError as exc:
        return str(exc)


P1 = make_target("P1")
_TRUNC = Truncation(1, 2, -2, 2)
_BETAS = [(0,), (1,), (2,)]  # (2,) lies beyond the Novikov order
_values = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4, 6]))
_keys = st.tuples(st.integers(-4, 4), st.integers(0, 1), st.sampled_from(_BETAS), st.integers(0, 3))
_series_terms = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(0, 1), st.sampled_from(_BETAS), st.integers(0, 3), _values),
    max_size=6,
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _keys, _values),
        st.tuples(st.just("add_vector"), _keys, st.tuples(_values, _values), _values),
        st.tuples(st.just("add_series"), _series_terms),
    ),
    max_size=25,
)


def _apply(acc, op):
    kind, *args = op
    if kind == "add":
        (z, alpha, beta, eps), value = args
        acc.add(z, alpha, beta, eps, value)
    elif kind == "add_vector":
        (z, _, beta, eps), vec, scale = args
        acc.add_vector(z, vec, beta, eps, scale)
    else:
        terms = {(z, a, b, e): v for z, a, b, e, v in args[0]}
        acc.add_series(LoopSeries(P1, Truncation(2, 3, -2, 2), terms))  # grades beyond _TRUNC among them


@settings(max_examples=300, derandomize=True, deadline=None)
@given(ops=_ops, repeat=st.booleans())
def test_adds_build_as_the_reference(ops, repeat):
    # ``repeat`` adds every op a second time negated, so each term cancels exactly.
    if repeat:
        ops = ops + [_negate(op) for op in ops]
    new, ref = SeriesAccumulator(P1, _TRUNC), _ReferenceAccumulator(P1, _TRUNC)
    for op in ops:
        _apply(new, op)
        _apply(ref, op)
    assert new.terms() == {key: val for key, val in ref._terms.items() if val}
    assert list(new.terms()) == [key for key, val in ref._terms.items() if val]
    assert _built(new) == _built(ref)


def _negate(op):
    kind, *args = op
    if kind == "add":
        return (kind, args[0], -args[1])
    if kind == "add_vector":
        return (kind, args[0], args[1], -args[2])
    return (kind, [(z, a, b, e, -v) for z, a, b, e, v in args[0]])


def test_zero_values_and_out_of_grade_adds_insert_nothing():
    b0, b1, b2 = (0,), (1,), (2,)
    new, ref = SeriesAccumulator(P1, _TRUNC), _ReferenceAccumulator(P1, _TRUNC)
    adds = [
        (0, 1, b0, 0, Fraction(0)),     # zero value
        (9, 0, b2, 0, Fraction(1)),     # Novikov grade beyond the truncation, outside the window too
        (0, 0, b1, 3, Fraction(2)),     # eps grade beyond the truncation
        (1, 0, b1, 1, Fraction(1, 3)),
        (0, 1, b0, 0, Fraction(1, 2)),  # the zero-valued key, now nonzero: it enters here
        (1, 0, b1, 1, Fraction(-1, 3)),  # cancels the first kept term
        (3, 1, b0, 0, Fraction(1, 4)),  # outside the window
        (3, 1, b0, 0, Fraction(-1, 4)),  # ... and cancelled, so the build succeeds
    ]
    for add in adds:
        new.add(*add)
        ref.add(*add)
    assert list(new.terms().items()) == [((0, 1, b0, 0), Fraction(1, 2))]
    assert _built(new) == _built(ref) == [((0, 1, b0, 0), Fraction(1, 2))]
    new.add(-5, 0, b0, 0, Fraction(7))
    ref.add(-5, 0, b0, 0, Fraction(7))
    assert _built(new) == _built(ref) == "z^-5 escapes the window [-2, 2]; rerun with z_min <= -5 and z_max >= 2"


def test_merge_sums_over_the_lcm_and_keeps_first_nonzero_order():
    sums: dict = {}
    for key, num, den in [("a", 0, 5), ("b", 1, 6), ("a", 1, 4), ("b", 1, 4), ("a", -1, 4), ("c", 2, 4)]:
        merge(sums, key, num, den)
    assert list(sums) == ["b", "a", "c"]
    assert {key: Fraction(num, den) for key, (num, den) in sums.items()} == {
        "b": Fraction(5, 12), "a": Fraction(0), "c": Fraction(1, 2),
    }
    assert sums["b"] == [5, 12]  # the lcm of 6 and 4, not their product


# ---------------------------------------------------------------------------
# apply_linear


# Few values on few keys, so that products collide and cancel; zero entries are kept.
_ENTRY_VALUES = [Fraction(v) for v in (0, -1, 1)] + [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)]


def _grade(target, rng):
    return ((rng.randint(0, 2),) if target.class_rank else ()), rng.randint(0, 2)


def _random_endo(target, trunc, rng, size):
    entries = {}
    for _ in range(size):
        beta, eps = _grade(target, rng)
        key = (rng.randint(-1, 1), rng.randrange(target.rank), rng.randrange(target.rank), beta, eps)
        entries[key] = rng.choice(_ENTRY_VALUES)
    return EndoSeries(target, trunc, entries)


def _random_series(target, trunc, rng, size):
    terms = {}
    for _ in range(size):
        beta, eps = _grade(target, rng)
        terms[(rng.randint(-1, 1), rng.randrange(target.rank), beta, eps)] = rng.choice(_ENTRY_VALUES[1:])
    return LoopSeries(target, trunc, terms)


def _cancelling(target, rng, e, f):
    """e and f, each with two more items whose two products meet at one key
    and cancel exactly: entries m at (z, row, c1) and -m v1/v2 at
    (z + 1, row, c2), against terms v1 at (z_f + 1, c1) and v2 at (z_f, c2)."""
    (b_e, e_e), (b_f, e_f) = _grade(target, rng), _grade(target, rng)
    z, z_f, row = rng.randint(-1, 0), rng.randint(-1, 0), rng.randrange(target.rank)
    c1, c2 = rng.randrange(target.rank), rng.randrange(target.rank)
    m, v1, v2 = (rng.choice(_ENTRY_VALUES[1:]) for _ in range(3))
    entries = {**e.entries, (z, row, c1, b_e, e_e): m, (z + 1, row, c2, b_e, e_e): -m * v1 / v2}
    terms = {**f.terms, (z_f + 1, c1, b_f, e_f): v1, (z_f, c2, b_f, e_f): v2}
    return EndoSeries(target, e.trunc, entries), LoopSeries(target, f.trunc, terms)


def _outcome(call, *args):
    try:
        return list(call(*args).terms.items())
    except TruncationOverflowError as exc:
        return str(exc)


@pytest.mark.parametrize("name", ["point", "P1", "P2"])
def test_apply_linear_matches_reference(name):
    target = make_target(name)
    rng = random.Random(f"integer-apply-{name}")
    in_trunc = Truncation(2, 2, -2, 2)
    seen = {"terms": 0, "overflow": 0, "zero entries": 0, "cancelled": 0}
    for _ in range(300):
        e = _random_endo(target, in_trunc, rng, rng.randint(1, 14))
        f = _random_series(target, in_trunc, rng, rng.randint(1, 10))
        if rng.random() < 0.75:
            e, f = _cancelling(target, rng, e, f)
        out = Truncation(rng.randint(0, 2), rng.randint(0, 2), *rng.choice(((-4, 4), (-2, 3), (-1, 1))))
        want = _outcome(_reference_apply_linear, e, f, out)
        assert _outcome(e.apply_linear, f, out) == want
        if isinstance(want, str):
            seen["overflow"] += 1
            continue
        seen["terms"] += bool(want)
        seen["zero entries"] += not all(e.entries.values())
        wide = Truncation(out.novikov_order, out.epsilon_order, -8, 8)
        reached = {
            (z_e + z_f, row, beta_add(b_e, b_f), e_e + e_f)
            for (z_e, row, col, b_e, e_e), m in e.entries.items()
            for (z_f, a, b_f, e_f), c in f.terms.items()
            if a == col and m and wide.admits_grade(beta_add(b_e, b_f), e_e + e_f)
        }
        seen["cancelled"] += len(reached) - len(want)
    assert all(count >= 10 for count in seen.values()), seen
