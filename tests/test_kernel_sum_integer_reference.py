"""Differential test of ``cone._kernel_sum``, which sums its products on
integer numerators per output key and adds each surviving key once,
against the sum that added every product to the accumulator.

``_reference_kernel_sum`` below is the earlier implementation, kept
verbatim (docstring dropped).  ``_reference()`` patches it into the
``cone`` and ``localisation`` bindings.  Every builder that reaches the
kernel sum must return the same terms on both sides, compared as maps
from key to value, and a window too narrow for its terms must raise the
same overflow with the same message.  A counting accumulator pins how many
adds the new sum makes, and a property test drives the sum directly on
operands with repeated keys, mixed denominators and exact cancellations.
"""

import random
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwlab import cone, localisation
from gwlab.cone import (
    TPolynomial,
    _expansions,
    _kernel_sum,
    _stable_pairs,
    cone_point,
    default_truncation,
    s_adjoint_corr_apply,
    s_apply,
    tangent_vector,
)
from gwlab.correlators import CorrelatorEngine
from gwlab.localisation import contribution, enumerate_splittings, localisation_sum
from gwlab.matrices import EndoSeries, s_adjoint_matrix, s_matrix
from gwlab.series import LoopSeries, SeriesAccumulator, Truncation, TruncationOverflowError
from gwlab.targets import beta_add, beta_total, iter_betas, make_target
from block_view import _dense
from test_s_apply_budget import _generic_f

# ---------------------------------------------------------------------------
# the reference: the kernel sum that added every product


def _reference_kernel_sum(acc: SeriesAccumulator, t: TPolynomial, grades, operand, block) -> None:
    D, E = acc.trunc.novikov_order, acc.trunc.epsilon_order
    graded = [
        (key, [(z, b, beta_total(b), e, c) for z, b, e, c in terms]) for key, terms in operand
    ]
    for beta, n in grades:
        room_beta, room_eps = D - beta_total(beta), E - n
        fitting = []
        for key, terms in graded:
            fits = [
                (z, beta_add(b, beta), e + n, c)
                for z, b, deg, e, c in terms
                if deg <= room_beta and e <= room_eps
            ]
            if fits:
                fitting.append((key, fits))
        if not fitting:
            continue
        for weight, monos in _expansions(t, n):
            for key, fits in fitting:
                kernel = _dense(block(beta, key, monos), t.target.rank)
                if not kernel:
                    continue
                scaled = [(z, b, e, c * weight) for z, b, e, c in fits]
                for z_k, vec in kernel.items():
                    comps = [(rho, comp) for rho, comp in enumerate(vec) if comp]
                    for z, b, e, cw in scaled:
                        for rho, comp in comps:
                            acc.add(z + z_k, rho, b, e, cw * comp)


@contextmanager
def _reference():
    with ExitStack() as stack:
        for module in (cone, localisation):
            stack.enter_context(mock.patch.object(module, "_kernel_sum", _reference_kernel_sum))
        yield


# ---------------------------------------------------------------------------
# every builder on both sides

# (target, D, E, T)
CONFIGS = [
    ("point", 0, 3, 1),
    ("P1", 2, 2, 1),
    ("P1", 2, 3, 2),
    ("P2", 2, 2, 1),
    ("P2", 1, 3, 2),
    ("P2", 3, 3, 2),
]


def _outcome(fn, *args):
    """The terms a builder returns, as a map, or its overflow."""
    try:
        out = fn(*args)
    except TruncationOverflowError as exc:
        return ("overflow", exc.z_exp, exc.z_min, exc.z_max, str(exc))
    terms = out.entries if isinstance(out, EndoSeries) else out.terms
    return ("ok", dict(terms))


def _r_operands(target, trunc, T):
    """Each z-polynomial basis monomial, then a seeded sum over several grades."""
    out = [LoopSeries.basis(target, trunc, a, k) for a in range(target.rank) for k in range(T + 1)]
    rng = random.Random(7)
    betas = iter_betas(target.class_rank, trunc.novikov_order)
    terms = {}
    for _ in range(6):
        key = (rng.randint(0, T), rng.randrange(target.rank), rng.choice(betas), rng.randint(0, trunc.epsilon_order))
        terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return out + [LoopSeries(target, trunc, terms)]


def _builders(t, trunc, engine):
    """(label, builder, args) for every builder that reaches the kernel sum.
    Operands are built in the wide window, so a narrow one is met by the
    builder under test."""
    target = t.target
    wide = default_truncation(target, trunc.novikov_order, trunc.epsilon_order, t.degree)
    out = [
        ("cone_point", cone_point, (t, trunc, engine)),
        ("s_apply cone point", s_apply, (t, cone_point(t, wide, engine), trunc, engine)),
        ("s_apply generic f", s_apply, (t, _generic_f(target, wide, 7), trunc, engine)),
        ("localisation_sum", localisation_sum, (t, trunc, engine)),
        ("s_matrix", s_matrix, (t, trunc, engine)),
        ("s_adjoint_matrix", s_adjoint_matrix, (t, trunc, engine)),
    ]
    out += [
        (f"s_adjoint_corr_apply {sign} {i}", s_adjoint_corr_apply, (t, r, sign, trunc, engine))
        for i, r in enumerate(_r_operands(target, wide, t.degree))
        for sign in (-1, +1)
    ]
    out += [
        (f"tangent_vector {alpha} {k}", tangent_vector, (t, alpha, k, trunc, engine))
        for alpha in range(target.rank)
        for k in range(2)
    ]
    out += [
        (f"contribution {rec}", contribution, (rec, t, trunc, engine))
        for beta in iter_betas(target.class_rank, trunc.novikov_order)
        for n in range(trunc.epsilon_order + 1)
        for rec in enumerate_splittings(target, beta, n)
    ]
    return out


def _compare(t, trunc, engine):
    """Every builder against the reference; returns the overflows seen."""
    overflows = 0
    for label, fn, args in _builders(t, trunc, engine):
        got = _outcome(fn, *args)
        with _reference():
            assert got == _outcome(fn, *args), label
        overflows += got[0] == "overflow"
    return overflows


@pytest.mark.parametrize("name,D,E,T", CONFIGS)
@pytest.mark.parametrize("seed", (1, 7))
def test_builders_match_reference(name, D, E, T, seed):
    target = make_target(name)
    t = TPolynomial.random(target, T, seed)
    assert _compare(t, default_truncation(target, D, E, T), CorrelatorEngine(target)) == 0


@pytest.mark.parametrize("name,D,E,T", CONFIGS[:2] + CONFIGS[3:4])
def test_narrow_windows_overflow_alike(name, D, E, T):
    target = make_target(name)
    wide = default_truncation(target, D, E, T)
    t = TPolynomial.random(target, T, 7)
    engine = CorrelatorEngine(target)
    overflows = sum(
        _compare(t, Truncation(D, E, z_min, z_max), engine)
        for z_min in range(-1, wide.z_min - 1, -1)
        for z_max in (1, wide.z_max)
    )
    assert overflows > 0


def test_repeated_operand_keys_sum_each_product():
    # contribution's piece lists one entry per term, so an operand key
    # repeats; each of its terms must meet the kernel once.
    target = make_target("P2")
    trunc = default_truncation(target, 2, 2, 1)
    t = TPolynomial.random(target, 1, 7)
    engine = CorrelatorEngine(target)
    b0 = (0,)
    terms = [(-1, b0, 0, Fraction(2, 3)), (0, b0, 0, Fraction(-5, 7)), (0, b0, 1, Fraction(1, 2))]
    repeated = [(a, [term]) for term in terms for a in (0, 1, 0)]
    grades = [((1,), 0), ((1,), 1), ((2,), 0)]
    new, ref = SeriesAccumulator(target, trunc), SeriesAccumulator(target, trunc)
    _kernel_sum(new, t, grades, repeated, engine.flow_block)
    _reference_kernel_sum(ref, t, grades, repeated, engine.flow_block)
    assert new.series().terms and new.series().terms == ref.series().terms
    merged = SeriesAccumulator(target, trunc)
    _kernel_sum(merged, t, grades, [(0, terms * 2), (1, terms)], engine.flow_block)
    assert merged.series() == new.series()


# ---------------------------------------------------------------------------
# the number of adds


class _Counting(SeriesAccumulator):
    """Counts the nonzero terms merged in, by ``add``, ``add_series`` or
    ``merge``: every way a term reaches the accumulator."""

    __slots__ = ()
    adds = 0

    def merge(self, key, num, den) -> None:
        _Counting.adds += bool(num)
        super().merge(key, num, den)


def test_s_apply_adds_each_output_key_once():
    target = make_target("P2")
    trunc = default_truncation(target, 2, 2, 1)
    t = TPolynomial.random(target, 1, 7)
    engine = CorrelatorEngine(target)
    point = cone_point(t, trunc, engine)
    # The output keys of the kernel sum whose products do not cancel, from the reference.
    by_alpha: dict = {}
    for (z, alpha, b, e), c in point.terms.items():
        by_alpha.setdefault(alpha, []).append((z, b, e, c))
    acc = SeriesAccumulator(target, trunc)
    _reference_kernel_sum(acc, t, _stable_pairs(target, trunc, 2), list(by_alpha.items()), engine.flow_block)
    keys = list(acc.terms())
    _Counting.adds = 0
    with mock.patch.object(cone, "SeriesAccumulator", _Counting):
        result = s_apply(t, point, trunc, engine)
    assert len(point.terms) == 70 and len(keys) == 66
    assert _Counting.adds == len(point.terms) + len(keys) == 136
    assert len(result.terms) == 4


# ---------------------------------------------------------------------------
# the sum itself, on random operands

_TARGET = make_target("P1")
_TRUNC = Truncation(2, 2, -8, 4)
_BETAS = iter_betas(1, 2)
_VALUES = [Fraction(p, q) for p in (-3, -1, 1, 2) for q in (1, 2, 3, 4, 6)] + [Fraction(0)] * 4


def _block(beta, key, monos):
    """A fixed pseudo-random kernel per (beta, key, monos), empty at times,
    with components of mixed denominators, zeros among them, in the block
    format: the nonzero components as unreduced (rho, num, den) triples."""
    rng = random.Random(repr((beta, key, monos)))
    block = {}
    for z_k in sorted(rng.sample(range(-3, 2), rng.randint(0, 3))):
        vec = [rng.choice(_VALUES) for _ in range(_TARGET.rank)]
        block[z_k] = tuple((rho, 2 * c.numerator, 2 * c.denominator) for rho, c in enumerate(vec) if c)
    return block


_fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 12]))
_terms = st.tuples(st.integers(-3, 2), st.sampled_from(_BETAS), st.integers(0, 2), _fractions)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    coeffs=st.lists(_fractions, min_size=4, max_size=4),
    grades=st.lists(st.tuples(st.sampled_from(_BETAS), st.integers(0, 2)), min_size=1, max_size=4),
    entries=st.lists(st.tuples(st.integers(0, 2), st.lists(_terms, min_size=1, max_size=3)), max_size=6),
    negate=st.lists(st.booleans(), max_size=6),
    before=st.lists(st.tuples(st.integers(-3, 2), st.integers(0, 1), _fractions), max_size=3),
)
def test_random_operands_match_reference(coeffs, grades, entries, negate, before):
    t = TPolynomial(_TARGET, (tuple(coeffs[:2]), tuple(coeffs[2:])))
    # Negated copies of whole entries cancel every product they meet exactly.
    operand = entries + [(key, [(z, b, e, -c) for z, b, e, c in terms]) for (key, terms), neg in zip(entries, negate) if neg]
    new, ref = SeriesAccumulator(_TARGET, _TRUNC), SeriesAccumulator(_TARGET, _TRUNC)
    for acc in (new, ref):
        for z, alpha, c in before:
            acc.add(z, alpha, (0,), 0, c)
    _kernel_sum(new, t, grades, operand, _block)
    _reference_kernel_sum(ref, t, grades, operand, _block)
    assert new.terms() == ref.terms()
