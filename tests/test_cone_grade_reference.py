"""Differential test of the cone point's grade pieces, ``cone._cone_grade``,
against the code they replaced.

The reference below keeps the previous ``dilaton_shift``, ``cone_point``
and ``contribution`` verbatim (docstrings dropped): the cone point added
the dilaton shift and then one kernel sum over its stable grades, and
each fixed-locus record built its zero end in a block of its own.  Now
all three add the same grade pieces.  Over the configs and seeds of
``test_kernel_sum_reference.py`` they must give the same terms in the
same insertion order, for every record kind, and raise the same window
overflow wherever the reference raised one.

The fixed-locus sum has a reference of its own: the ``contribution`` and
``localisation_sum`` it replaced, verbatim, docstrings dropped.  Each
record built a series of its own, and the sum merged the series in turn.
Now each zero-end piece is built once per sum and each record is summed
on integer pairs.  On the point, P1 and P2, three configs, three seeds,
the default window and four narrow ones, the sum and each record must
give the same terms as the reference, or the same overflow with the same
message; so must the records' ``contribution``s added up.
"""

import re
from fractions import Fraction
from itertools import product

import pytest

from gwlab.cone import (
    TPolynomial,
    _cone_grade,
    _engine_for,
    _Kernel,
    _kernel_sum,
    _stable_pairs,
    cone_point,
    default_truncation,
    dilaton_shift,
)
from gwlab.correlators import CorrelatorEngine, get_engine
from gwlab.localisation import contribution, enumerate_splittings, localisation_sum
from gwlab.series import SeriesAccumulator, Truncation, TruncationOverflowError
from gwlab.series import SeriesAccumulator as _ZeroEnd
from gwlab.targets import beta_zero, iter_betas, make_target

# ---------------------------------------------------------------------------
# the reference: the previous builders, verbatim


def _reference_dilaton_shift(t, trunc):
    acc = SeriesAccumulator(t.target, trunc)
    b0 = beta_zero(t.target.class_rank)
    acc.add(1, 0, b0, 0, Fraction(-1))
    for k, alpha, c in t.monomials():
        acc.add(k, alpha, b0, 1, c)
    return acc.series()


def _reference_cone_point(t, trunc, engine=None):
    engine = engine or get_engine(t.target)
    acc = SeriesAccumulator(t.target, trunc)
    acc.add_series(_reference_dilaton_shift(t, trunc))
    unit = [((), [(0, beta_zero(t.target.class_rank), 0, Fraction(1))])]
    _kernel_sum(
        acc, t, _stable_pairs(t.target, trunc, 1), unit,
        lambda beta, slot, monos: engine.fibre_block(beta, monos + slot, -1),
    )
    return acc.series()


def _reference_contribution(rec, t, trunc, engine=None):
    engine = engine or get_engine(t.target)
    target = t.target
    b00 = beta_zero(target.class_rank)
    acc = SeriesAccumulator(target, trunc)
    inf_end = any(rec.beta_inf) or rec.n_inf > 0
    zero = _ZeroEnd(target, trunc) if inf_end else acc
    if any(rec.beta0) or rec.n0 >= 2:
        unit = [((), [(0, b00, 0, Fraction(1))])]
        _kernel_sum(
            zero, t, [(rec.beta0, rec.n0)], unit,
            lambda beta, slot, monos: engine.fibre_block(beta, monos + slot, -1),
        )
    elif rec.n0 == 0:
        zero.add(1, 0, b00, 0, Fraction(-1))
    else:
        for j, a, c in t.monomials():
            zero.add(j, a, b00, 1, c)
    if inf_end:
        piece = [(a, [(z, b, e, c)]) for (z, a, b, e), c in zero.terms().items()]
        _kernel_sum(acc, t, [(rec.beta_inf, rec.n_inf)], piece, engine.flow_block)
    return acc.series()


def _parent_contribution(rec, t, trunc, engine=None):
    engine = _engine_for(t, engine)
    acc = SeriesAccumulator(t.target, trunc)
    inf_end = any(rec.beta_inf) or rec.n_inf > 0
    zero = SeriesAccumulator(t.target, trunc) if inf_end else acc
    _cone_grade(zero, t, rec.beta0, rec.n0, engine)
    if inf_end:
        # Fibre kernels of different t-expansions can cancel at a term; ``terms`` holds no zero.
        piece = [(a, [(z, b, e, c)]) for (z, a, b, e), c in zero.terms().items()]
        _kernel_sum(acc, t, [(rec.beta_inf, rec.n_inf)], piece, _Kernel(engine))
    return acc.series()


def _parent_localisation_sum(t, trunc, engine=None):
    acc = SeriesAccumulator(t.target, trunc)
    for beta in iter_betas(t.target.class_rank, trunc.novikov_order):
        for n in range(trunc.epsilon_order + 1):
            for rec in enumerate_splittings(t.target, beta, n):
                acc.add_series(_parent_contribution(rec, t, trunc, engine))
    return acc.series()


# ---------------------------------------------------------------------------
# the comparison

# The configs and seeds of test_kernel_sum_reference.py.
CONFIGS = [
    ("point", 0, 4, 1),
    ("P1", 2, 2, 1),
    ("P1", 2, 3, 2),
    ("P2", 2, 2, 1),
    ("P2", 1, 3, 2),
]
SEEDS = (1, 7, 13)


class _Overflow(str):
    """An overflow message.  It equals a reference message with the same
    text before "; rerun" when its hinted window holds the reference's."""

    def __eq__(self, ref):
        head, _, hint = self.partition("; rerun")
        ref_head, _, ref_hint = ref.partition("; rerun")
        (low, high), (ref_low, ref_high) = (
            map(int, re.fullmatch(r" with z_min <= (-?\d+) and z_max >= (-?\d+)", h).groups())
            for h in (hint, ref_hint)
        )
        return head == ref_head and low <= ref_low and high >= ref_high


def _outcome(fn, *args):
    """The terms a builder returns, in insertion order, or the overflow it raises."""
    try:
        out = fn(*args)
    except TruncationOverflowError as exc:
        return ("overflow", exc.z_exp, exc.z_min, exc.z_max, _Overflow(exc))
    return ("ok", list(out.terms.items()))


def _records(target, trunc):
    return [
        rec
        for beta in iter_betas(target.class_rank, trunc.novikov_order)
        for n in range(trunc.epsilon_order + 1)
        for rec in enumerate_splittings(target, beta, n)
    ]


def _compare_all(t, trunc, engine):
    """Every builder against its reference at trunc; returns the outcomes."""
    outcomes = [
        _outcome(dilaton_shift, t, trunc),
        _outcome(cone_point, t, trunc, engine),
    ]
    assert outcomes == [
        _outcome(_reference_dilaton_shift, t, trunc),
        _outcome(_reference_cone_point, t, trunc, engine),
    ]
    for rec in _records(t.target, trunc):
        got = _outcome(contribution, rec, t, trunc, engine)
        assert got == _outcome(_reference_contribution, rec, t, trunc, engine), rec
        outcomes.append(got)
    return outcomes


@pytest.mark.parametrize("name,D,E,T", CONFIGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_grade_pieces_match_reference_in_order(name, D, E, T, seed):
    target = make_target(name)
    trunc = default_truncation(target, D, E, T)
    t = TPolynomial.random(target, T, seed)
    _compare_all(t, trunc, CorrelatorEngine(target))
    kinds = {rec.kind for rec in _records(target, trunc)}
    assert kinds == {"case1", "case2", "case3", "case4", "case5", "generic"}


@pytest.mark.parametrize("name,D,E,T", CONFIGS)
def test_narrow_windows_overflow_alike(name, D, E, T):
    target = make_target(name)
    wide = default_truncation(target, D, E, T)
    t = TPolynomial.random(target, T, 7)
    engine = CorrelatorEngine(target)
    overflows = 0
    for z_min in range(-1, wide.z_min - 1, -1):
        outcomes = _compare_all(t, Truncation(D, E, z_min, wide.z_max), engine)
        overflows += sum(out[0] == "overflow" for out in outcomes)
    assert overflows > 0


@pytest.mark.parametrize("name,D,E,T", [config for config in CONFIGS if config[3] > 1])
@pytest.mark.parametrize("seed", SEEDS)
def test_window_below_t_overflows_alike(name, D, E, T, seed):
    # A library window may end below z^T, where t itself does not fit.
    target = make_target(name)
    t = TPolynomial.random(target, T, seed)
    outcomes = _compare_all(t, Truncation(D, E, -6, 1), CorrelatorEngine(target))
    assert outcomes[0][:4] == ("overflow", T, -6, 1)
    assert outcomes[0][4].startswith(f"z^{T} escapes the window [-6, 1]")


@pytest.mark.parametrize("name,D,E,T", CONFIGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_eps_order_zero_matches_reference(name, D, E, T, seed):
    target = make_target(name)
    t = TPolynomial.random(target, T, seed)
    outcomes = _compare_all(t, default_truncation(target, D, 0, T), CorrelatorEngine(target))
    assert outcomes[0][0] == "ok"


# ---------------------------------------------------------------------------
# the fixed-locus sum against the previous one


def _exact_outcome(fn, *args):
    """The term map a builder returns, or its overflow's type, z_exp and message."""
    try:
        out = fn(*args)
    except TruncationOverflowError as exc:
        return ("overflow", type(exc), exc.z_exp, str(exc))
    return ("ok", out.terms)


def _summed_contributions(t, trunc, engine):
    acc = SeriesAccumulator(t.target, trunc)
    for rec in _records(t.target, trunc):
        acc.add_series(contribution(rec, t, trunc, engine))
    return acc.series()


def _sum_windows(wide):
    """The default window and four narrow ones."""
    narrow = [(-1, wide.z_max), (-2, 1), (-3, wide.z_max), (wide.z_min + 1, 1)]
    return [wide] + [Truncation(wide.novikov_order, wide.epsilon_order, *window) for window in narrow]


@pytest.mark.parametrize("name", ["point", "P1", "P2"])
def test_localisation_sum_matches_the_per_record_series(name):
    target = make_target(name)
    engine = get_engine(target)
    kinds = set()
    for (D, E, T), seed in product([(1, 2, 1), (2, 2, 1), (2, 3, 2)], [3, 7, 11]):
        t = TPolynomial.random(target, T, seed)
        for trunc in _sum_windows(default_truncation(target, D, E, T)):
            got = _exact_outcome(localisation_sum, t, trunc, engine)
            assert got == _exact_outcome(_parent_localisation_sum, t, trunc, engine), (trunc, seed)
            assert got == _exact_outcome(_summed_contributions, t, trunc, engine), (trunc, seed)
            for rec in _records(target, trunc):
                got_rec = _exact_outcome(contribution, rec, t, trunc, engine)
                assert got_rec == _exact_outcome(_parent_contribution, rec, t, trunc, engine), (trunc, seed, rec)
            kinds.add(got[0])
    assert kinds == {"ok", "overflow"}
