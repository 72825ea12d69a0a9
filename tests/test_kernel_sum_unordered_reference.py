"""Differential test of ``cone._kernel_sum`` over slices that keep no term
order, against the sum whose slices remembered the expansion that first
reached each entry.

``_slice`` and ``_reference_kernel_sum`` below are the previous
implementation, kept verbatim (docstrings dropped; ``_slice`` keeps its
name, since the reference keys its slice store on it).  Each slice was a
tuple of runs (i, z_k, comps), i the first expansion to reach the run, a
cancelled sum kept in place with num 0, and per grade the runs were
sorted by (first expansion, operand index, run), so that every output key
first appeared where the block-by-block sum had put it.  Now a slice is
its nonzero sums (z_k, rho, num, den), and the sum walks grade, operand
key and slice entry.  No output reads the order of a series' terms, so
only the terms as maps from key to value must agree.

Every builder that reaches the kernel sum must give the same terms on a
fresh engine and on a warm one whose slices other builders built, and in
windows too narrow for its terms must raise the same error with the same
``z_exp`` and message.  The sum is also driven directly, on plain random
blocks with repeated keys and exact cancellations, and on shuffled
operand lists and grade lists.
"""

import random
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from operator import itemgetter
from unittest import mock

import pytest

from gwlab import cone, localisation
from gwlab.cone import TPolynomial, _expansions, _Kernel, _kernel_sum, default_truncation
from gwlab.correlators import CorrelatorEngine
from gwlab.matrices import EndoSeries
from gwlab.series import SeriesAccumulator, Truncation, merge
from gwlab.targets import beta_add, beta_total, iter_betas, make_target
from test_kernel_sum_integer_reference import _builders

# ---------------------------------------------------------------------------
# the reference: slices that kept the order of their first products


def _slice(t: TPolynomial, beta, n: int, key, block) -> tuple:
    sums: dict = {}
    first: dict = {}
    cap = block.room(beta, key) + n if isinstance(block, _Kernel) else None
    degree = t.target.basis_degrees
    for i, (weight, monos) in enumerate(_expansions(t, n)):
        if cap is not None and sum(degree[a] + k for a, k in monos) > cap:
            continue
        wn, wd = weight.numerator, weight.denominator
        for z_k, comps in block(beta, key, monos).items():
            for rho, cn, cd in comps:
                first.setdefault((z_k, rho), i)
                merge(sums, (z_k, rho), wn * cn, wd * cd)
    runs: dict = {}
    for (z_k, rho), i in first.items():
        runs.setdefault((i, z_k), []).append((rho, *sums[z_k, rho]))
    return tuple((i, z_k, tuple(comps)) for (i, z_k), comps in runs.items())


def _reference_kernel_sum(acc: SeriesAccumulator, t: TPolynomial, grades, operand, block) -> None:
    D, E = acc.trunc.novikov_order, acc.trunc.epsilon_order
    graded = [
        (key, [(z, b, beta_total(b), e, c.numerator, c.denominator) for z, b, e, c in terms if c])
        for key, terms in operand
    ]
    kept = block.engine.shared((_slice, t, block.sign), dict) if isinstance(block, _Kernel) else {}
    sums: dict[tuple, list[int]] = {}
    for beta, n in grades:
        room_beta, room_eps = D - beta_total(beta), E - n
        walk = []
        for j, (key, terms) in enumerate(graded):
            fits = [
                (z, beta_add(b, beta), e + n, cn, cd)
                for z, b, deg, e, cn, cd in terms
                if deg <= room_beta and e <= room_eps
            ]
            if not fits:
                continue
            runs = kept.get((beta, n, key))
            if runs is None:
                runs = kept[beta, n, key] = _slice(t, beta, n, key, block)
            walk += [(i, j, g, z_k, comps, fits) for g, (i, z_k, comps) in enumerate(runs)]
        walk.sort(key=itemgetter(0, 1, 2))
        for _, _, _, z_k, comps, fits in walk:
            for z, b, e, cn, cd in fits:
                z += z_k
                for rho, sn, sd in comps:
                    if sn:
                        merge(sums, (z, rho, b, e), cn * sn, cd * sd)
                    else:
                        sums.setdefault((z, rho, b, e), [0, 1])
    for key, (num, den) in sums.items():
        if num:
            acc.merge(key, num, den)


@contextmanager
def _reference():
    with ExitStack() as stack:
        for module in (cone, localisation):
            stack.enter_context(mock.patch.object(module, "_kernel_sum", _reference_kernel_sum))
        yield


def _outcome(fn, *args):
    """The terms a builder returns, as a map, or the type, ``z_exp`` and
    message of the error it raises."""
    try:
        out = fn(*args)
    except Exception as exc:
        return (type(exc), getattr(exc, "z_exp", None), str(exc))
    return ("ok", dict(out.entries if isinstance(out, EndoSeries) else out.terms))


# ---------------------------------------------------------------------------
# every builder on both sides

# (target, D, E, T)
CONFIGS = [
    ("point", 0, 3, 1),
    ("P1", 2, 2, 1),
    ("P1", 1, 3, 2),
    ("P2", 2, 2, 1),
    ("P2", 1, 3, 2),
    ("P2", 3, 2, 1),
]


def _references(t, trunc):
    """Each builder's outcome from the reference, on an engine of its own."""
    engine = CorrelatorEngine(t.target)
    with _reference():
        return [(label, _outcome(fn, *args)) for label, fn, args in _builders(t, trunc, engine)]


@pytest.mark.parametrize("name,D,E,T", CONFIGS)
@pytest.mark.parametrize("seed", (1, 7, 13))
def test_builders_match_reference_fresh_and_warm(name, D, E, T, seed):
    target = make_target(name)
    trunc = default_truncation(target, D, E, T)
    t = TPolynomial.random(target, T, seed)
    want = _references(t, trunc)
    fresh = CorrelatorEngine(target)
    got = [(label, _outcome(fn, *args)) for label, fn, args in _builders(t, trunc, fresh)]
    assert got == want
    assert all(outcome[0] == "ok" for _, outcome in got)
    # Each kept slice is the reference's, as a map, without its cancelled sums.
    kept = fresh.shared((cone._slice, t, None), dict)
    assert kept
    for (beta, n, key), entries in kept.items():
        ref = {(z_k, rho): Fraction(num, den)
               for _, z_k, comps in _slice(t, beta, n, key, _Kernel(fresh)) for rho, num, den in comps if num}
        assert {(z_k, rho): Fraction(num, den) for z_k, rho, num, den in entries} == ref
        assert all(num for _, _, num, _ in entries)
    # The same engine again, reversed: each builder now reads slices that the others built.
    warm = CorrelatorEngine(target)
    builders = _builders(t, trunc, warm)
    for _, fn, args in builders:
        _outcome(fn, *args)
    for (label, fn, args), (_, ref) in reversed(list(zip(builders, want))):
        assert _outcome(fn, *args) == ref, label


@pytest.mark.parametrize("name,D,E,T", CONFIGS[1:])
def test_narrow_windows_raise_alike(name, D, E, T):
    target = make_target(name)
    wide = default_truncation(target, D, E, T)
    t = TPolynomial.random(target, T, 7)
    engine = CorrelatorEngine(target)  # warm after the first window
    overflows = 0
    for z_min in range(-1, wide.z_min - 1, -1):
        for z_max in (1, wide.z_max):
            trunc = Truncation(D, E, z_min, z_max)
            for (label, fn, args), (_, ref) in zip(_builders(t, trunc, engine), _references(t, trunc)):
                got = _outcome(fn, *args)
                assert got == ref, (label, z_min, z_max)
                overflows += got[0] != "ok"
    assert overflows > 0


# ---------------------------------------------------------------------------
# the sum driven directly

_TARGET = make_target("P1")
_TRUNC = Truncation(2, 2, -8, 4)
_VALUES = [Fraction(p, q) for p in (-3, -1, 1, 2) for q in (1, 2, 3, 4, 6)]


def _random_block(beta, key, monos):
    """A fixed pseudo-random kernel per (beta, key, monos) in the block
    format, nonzero whatever the dimension, and empty at times."""
    rng = random.Random(repr((beta, key, monos)))
    block = {}
    for z_k in rng.sample(range(-3, 2), rng.randint(0, 3)):
        comps = sorted(rng.sample(range(_TARGET.rank), rng.randint(1, _TARGET.rank)))
        block[z_k] = tuple((rho, 2 * c.numerator, 2 * c.denominator) for rho in comps for c in [rng.choice(_VALUES)])
    return block


def _flat_block(beta, key, monos):
    """The same kernel whatever the t-insertions, so that a slice over
    expansions whose weights sum to zero cancels entry by entry."""
    return _random_block(beta, key, ())


def _sum(kernel_sum, t, grades, operand, block):
    acc = SeriesAccumulator(_TARGET, _TRUNC)
    acc.add(0, 0, (0,), 0, Fraction(1, 3))  # a term before the sum
    kernel_sum(acc, t, grades, operand, block)
    return acc.terms()


def _random_case(rng):
    coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(4)]
    if rng.random() < 0.3:
        coeffs[2] = -coeffs[0]  # the one-slot weights of t cancel
    t = TPolynomial(_TARGET, (tuple(coeffs[:2]), tuple(coeffs[2:])))
    grades = [(rng.choice(iter_betas(1, 2)), rng.randint(0, 2)) for _ in range(rng.randint(1, 4))]
    operand = [
        (rng.randint(0, 2), [(rng.randint(-3, 2), rng.choice(iter_betas(1, 2)), rng.randint(0, 2), rng.choice(_VALUES))])
        for _ in range(rng.randint(0, 6))
    ]
    # Negated copies of whole entries cancel every product they meet exactly.
    operand += [(key, [(z, b, e, -c) for z, b, e, c in terms]) for key, terms in operand if rng.random() < 0.3]
    return t, grades, operand


@pytest.mark.parametrize("block", [_random_block, _flat_block])
def test_plain_random_blocks_match_reference(block):
    rng = random.Random(5)
    cancelled = 0
    for _ in range(200):
        t, grades, operand = _random_case(rng)
        want = _sum(_reference_kernel_sum, t, grades, operand, block)
        assert _sum(_kernel_sum, t, grades, operand, block) == want
        cancelled += any(
            not num for beta, n in grades for key, _ in operand for _, _, comps in _slice(t, beta, n, key, block)
            for _, num, _ in comps
        )
    assert cancelled > 0  # some slice sum cancelled, which the reference kept as a zero


def test_shuffled_operands_and_grades_give_the_same_map():
    rng = random.Random(11)
    for _ in range(150):
        t, grades, operand = _random_case(rng)
        want = _sum(_reference_kernel_sum, t, grades, operand, _random_block)
        rng.shuffle(operand)
        rng.shuffle(grades)
        assert _sum(_kernel_sum, t, grades, operand, _random_block) == want


@pytest.mark.parametrize("name", ["P1", "P2"])
def test_shuffled_engine_operands_give_the_same_map(name):
    target = make_target(name)
    trunc = default_truncation(target, 2, 2, 1)
    t = TPolynomial.random(target, 1, 7)
    engine = CorrelatorEngine(target)
    point = cone.cone_point(t, trunc, engine)
    by_alpha: dict = {}
    for (z, alpha, b, e), c in point.terms.items():
        by_alpha.setdefault(alpha, []).append((z, b, e, c))
    grades = list(cone._stable_pairs(target, trunc, 2))
    slots = [(((alpha, 0),), [(0, (0,) * target.class_rank, 0, Fraction(1))]) for alpha in range(target.rank)]
    rng = random.Random(3)
    for operand, kernel in ((list(by_alpha.items()), _Kernel(engine)), (slots, _Kernel(engine, -1))):
        want = SeriesAccumulator(target, trunc)
        _reference_kernel_sum(want, t, grades, operand, kernel)
        assert want.terms()
        for _ in range(4):
            rng.shuffle(operand)
            got = SeriesAccumulator(target, trunc)
            _kernel_sum(got, t, grades, operand, kernel)
            assert got.terms() == want.terms()
