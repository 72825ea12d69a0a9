"""Differential test of the one z-window check, made when a series is
built, against the per-add check it replaced.

The reference below keeps the previous per-add check, which checked the
window as each term came into an accumulator, and the previous
``localisation._ZeroEnd``, which opted out of that check, together with
the ``contribution`` that used them, with its accumulator class renamed
to the checking one.  Every term now comes in through
``SeriesAccumulator.merge``, so the check sits there, on each nonzero
term, after the grade check its callers make.  ``_reference()`` patches
them into the ``cone``, ``localisation`` and ``matrices`` bindings.
Every builder must return the same terms in the same insertion order on
both sides, and raise the same first overflow, over a sweep of narrow
windows on the point, P1 and P2.  The one intended difference is direct:
an out-of-window add that cancels before the series is built no longer
raises.
"""

from contextlib import ExitStack, contextmanager
from fractions import Fraction
from unittest import mock

import pytest

from gwlab import cone, localisation, matrices
from gwlab.cone import (
    TPolynomial,
    _cone_grade,
    _kernel_sum,
    cone_point,
    default_truncation,
    s_apply,
    tangent_vector,
)
from gwlab.correlators import CorrelatorEngine, get_engine
from gwlab.localisation import contribution, enumerate_splittings, localisation_sum
from gwlab.matrices import EndoSeries, compose, flip_z, s_adjoint_matrix, s_matrix
from gwlab.series import SeriesAccumulator, Truncation, TruncationOverflowError
from gwlab.targets import iter_betas, make_target
from test_s_apply_budget import _generic_f

# ---------------------------------------------------------------------------
# the reference: the previous accumulator add, zero end and contribution


class _CheckingAccumulator(SeriesAccumulator):
    __slots__ = ()

    def merge(self, key, num, den) -> None:
        if num:
            self.trunc.check_window(key[0])
            super().merge(key, num, den)


class _ZeroEnd(_CheckingAccumulator):
    __slots__ = ()

    merge = SeriesAccumulator.merge


def _reference_contribution(rec, t, trunc, engine=None):
    engine = engine or get_engine(t.target)
    acc = _CheckingAccumulator(t.target, trunc)
    inf_end = any(rec.beta_inf) or rec.n_inf > 0
    zero = _ZeroEnd(t.target, trunc) if inf_end else acc
    _cone_grade(zero, t, rec.beta0, rec.n0, engine)
    if inf_end:
        # Fibre kernels of different t-expansions can cancel at a term.
        piece = [(a, [(z, b, e, c)]) for (z, a, b, e), c in zero.terms().items()]
        _kernel_sum(acc, t, [(rec.beta_inf, rec.n_inf)], piece, engine.flow_block)
    return acc.series()


@contextmanager
def _reference():
    """The builders as they were: every accumulator they make checks each add."""
    with ExitStack() as stack:
        for module in (cone, localisation, matrices):
            stack.enter_context(mock.patch.object(module, "SeriesAccumulator", _CheckingAccumulator))
        stack.enter_context(mock.patch.object(localisation, "contribution", _reference_contribution))
        yield


# ---------------------------------------------------------------------------
# the comparison

# (target, D, E, T); the narrow windows run every builder to its end, so
# the configs stay small.
CONFIGS = [
    ("point", 0, 3, 1),
    ("P1", 2, 2, 1),
    ("P1", 1, 2, 2),
    ("P2", 1, 2, 1),
]


def _outcome(fn, *args):
    """The terms a builder returns, in insertion order, or its first overflow."""
    try:
        out = fn(*args)
    except TruncationOverflowError as exc:
        return ("overflow", exc.z_exp, exc.z_min, exc.z_max)
    terms = out.entries if isinstance(out, EndoSeries) else out.terms
    return ("ok", list(terms.items()))


def _records(target, trunc):
    return [
        rec
        for beta in iter_betas(target.class_rank, trunc.novikov_order)
        for n in range(trunc.epsilon_order + 1)
        for rec in enumerate_splittings(target, beta, n)
    ]


def _builders(t, trunc, engine):
    """(label, builder, args) for every builder that accumulates a series.
    The operands of ``s_apply`` and ``compose`` are built in the wide
    window, so the narrow one is met by the builder under test."""
    target = t.target
    wide = default_truncation(target, trunc.novikov_order, trunc.epsilon_order, t.degree)
    point = cone_point(t, wide, engine)
    f = _generic_f(target, wide, 7)
    s, s_adj = s_matrix(t, wide, engine), s_adjoint_matrix(t, wide, engine)
    out = [
        ("cone_point", cone_point, (t, trunc, engine)),
        ("s_apply cone point", s_apply, (t, point, trunc, engine)),
        ("s_apply generic f", s_apply, (t, f, trunc, engine)),
    ]
    out += [
        (f"tangent_vector {alpha} {k}", tangent_vector, (t, alpha, k, trunc, engine))
        for alpha in range(target.rank)
        for k in range(min(2, trunc.z_max))
    ]
    out += [(f"contribution {rec}", contribution, (rec, t, trunc, engine)) for rec in _records(target, trunc)]
    out += [
        ("localisation_sum", localisation_sum, (t, trunc, engine)),
        ("s_matrix", s_matrix, (t, trunc, engine)),
        ("s_adjoint_matrix", s_adjoint_matrix, (t, trunc, engine)),
        ("compose", compose, (s, flip_z(s_adj), trunc)),
    ]
    return out


class _Logged(SeriesAccumulator):
    """The accumulator as it is, logging in time order each add that puts a
    key outside the window into it, and each accumulator that builds a series."""

    __slots__ = ("entered",)
    outside: list = []
    built: list = []

    def __init__(self, target, trunc):
        super().__init__(target, trunc)
        self.entered = set()  # a key enters at its first nonzero term and stays, cancelled or not

    def merge(self, key, num, den) -> None:
        super().merge(key, num, den)
        if num and key not in self.entered:
            self.entered.add(key)
            if not self.trunc.z_min <= key[0] <= self.trunc.z_max:
                self.outside.append((self, key))

    def series(self):
        self.built.append(self)
        return super().series()


def _logged_outcome(fn, *args):
    """The builder's outcome, and the first key outside the window added to an
    accumulator that builds a series, with its final value."""
    _Logged.outside, _Logged.built = [], []
    with ExitStack() as stack:
        for module in (cone, localisation, matrices):
            stack.enter_context(mock.patch.object(module, "SeriesAccumulator", _Logged))
        out = _outcome(fn, *args)
    first = next(
        ((key, acc.terms().get(key, 0)) for acc, key in _Logged.outside if any(acc is b for b in _Logged.built)),
        None,
    )
    return out, first


def _compare(t, trunc, engine):
    """Every builder against the reference at trunc; returns the pairs of
    outcomes where the reference raised.

    Where the reference returns a series the builder returns the same one.
    Where it raises, it raised on the first add of a key outside the
    window; the builder raises the same overflow unless that key cancelled.
    """
    raised = []
    for label, fn, args in _builders(t, trunc, engine):
        got, first = _logged_outcome(fn, *args)
        with _reference():
            # localisation_sum reaches contribution through the module.
            expected = _outcome(localisation.contribution if fn is contribution else fn, *args)
        if expected[0] == "ok":
            assert got == expected, label
            continue
        key, value = first
        assert key[0] == expected[1], label
        assert got == expected or value == 0, label
        raised.append((got, expected))
    return raised


def _windows(wide, T):
    return [
        Truncation(wide.novikov_order, wide.epsilon_order, z_min, z_max)
        for z_min in range(-1, wide.z_min - 1, -1)
        for z_max in sorted({1, max(T, 1), wide.z_max})
    ]


@pytest.mark.parametrize("name,D,E,T", CONFIGS)
def test_window_sweep_matches_reference(name, D, E, T):
    target = make_target(name)
    wide = default_truncation(target, D, E, T)
    t = TPolynomial.random(target, T, 7)
    engine = CorrelatorEngine(target)
    assert _compare(t, wide, engine) == []
    raised = [pair for trunc in _windows(wide, T) for pair in _compare(t, trunc, engine)]
    assert any(got == expected for got, expected in raised)
    # The sweep reaches a cancelled out-of-window add: S(cone point) is a
    # z-polynomial, so its negative powers cancel.
    assert any(got[0] == "ok" for got, _ in raised)


def test_cancelled_out_of_window_add_builds():
    target = make_target("P1")
    trunc = Truncation(1, 1, -2, 2)
    b0 = (0,)
    acc = SeriesAccumulator(target, trunc)
    acc.add(0, 1, b0, 0, Fraction(3))
    acc.add(5, 0, b0, 0, Fraction(1, 2))
    acc.add(5, 0, b0, 0, Fraction(-1, 2))
    series = acc.series()
    assert list(series.terms.items()) == [((0, 1, b0, 0), Fraction(3))]


def _first_overflow(accumulator, adds):
    acc = accumulator(make_target("P1"), Truncation(1, 1, -2, 2))
    try:
        for z, alpha, value in adds:
            acc.add(z, alpha, (0,), 0, Fraction(value))
        acc.series()
    except TruncationOverflowError as exc:
        return (exc.z_exp, exc.z_min, exc.z_max)
    return None


def test_surviving_out_of_window_adds_raise_the_first_alike():
    adds = [(0, 1, 3), (-4, 0, 1), (5, 1, 2), (-4, 0, 1), (0, 1, -3)]
    assert _first_overflow(SeriesAccumulator, adds) == (-4, -2, 2)
    assert _first_overflow(_CheckingAccumulator, adds) == (-4, -2, 2)
