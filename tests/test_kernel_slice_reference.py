"""Differential test of ``cone._kernel_sum`` read off memoised kernel
slices, against the sum that asked for every block of every expansion.

``_reference_kernel_sum`` below is the previous implementation, kept
verbatim (docstring dropped): for each grade it asked for the block of
every t-expansion once per operand key, and multiplied each operand term
by each block.  Now each (kind, t, grade, key) slice, the weighted sum of
the blocks, is built once per engine, only the blocks that the dimension
filter leaves room for are asked for, and each term meets the slice once.

Every builder that reaches the kernel sum must return the same terms,
compared as maps from key to value, on both sides, on a fresh engine and
on a warm one whose slices other builders built, and a window too narrow
for its terms must raise the same overflow with the same message.  The sum is
also driven directly, with a repeated operand key and with plain callables
as blocks, whose slices are not kept.  The last tests pin the memo: its
bound, that a replaced block method reaches a fresh engine, and that no
block the dimension filter leaves empty is asked for.
"""

import random
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from unittest import mock

import pytest

from gwlab import cli, cone, localisation
from gwlab.cone import (
    TPolynomial,
    _expansions,
    _Kernel,
    _kernel_sum,
    _slice,
    cone_point,
    default_truncation,
    s_apply,
)
from gwlab.correlators import _EXPANSIONS_CACHE_SIZE, CorrelatorEngine, get_engine
from gwlab.series import SeriesAccumulator, Truncation, merge
from gwlab.targets import beta_add, beta_total, iter_betas, make_target
from test_kernel_sum_integer_reference import _builders, _outcome

# ---------------------------------------------------------------------------
# the reference: the kernel sum that asked for every block


def _reference_kernel_sum(acc: SeriesAccumulator, t: TPolynomial, grades, operand, block) -> None:
    D, E = acc.trunc.novikov_order, acc.trunc.epsilon_order
    graded = [
        (key, [(z, b, beta_total(b), e, c.numerator, c.denominator) for z, b, e, c in terms if c])
        for key, terms in operand
    ]
    sums: dict[tuple, list[int]] = {}
    for beta, n in grades:
        room_beta, room_eps = D - beta_total(beta), E - n
        fitting = []
        for key, terms in graded:
            fits = [
                (z, beta_add(b, beta), e + n, cn, cd)
                for z, b, deg, e, cn, cd in terms
                if deg <= room_beta and e <= room_eps
            ]
            if fits:
                fitting.append((key, fits))
        if not fitting:
            continue
        for weight, monos in _expansions(t, n):
            wn, wd = weight.numerator, weight.denominator
            for key, fits in fitting:
                kernel = block(beta, key, monos)
                if not kernel:
                    continue
                scaled = [(z, b, e, cn * wn, cd * wd) for z, b, e, cn, cd in fits]
                for z_k, comps in kernel.items():
                    for z, b, e, p, q in scaled:
                        for rho, cp, cq in comps:
                            merge(sums, (z + z_k, rho, b, e), p * cp, q * cq)
    for key, (num, den) in sums.items():
        if num:
            acc.merge(key, num, den)


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
    fresh = [(label, _outcome(fn, *args)) for label, fn, args in _builders(t, trunc, CorrelatorEngine(target))]
    assert [label for label, _ in fresh] == [label for label, _ in want]
    for got, ref in zip(fresh, want):
        assert got == ref, got[0]
    # The same engine again, reversed: each builder now reads slices that the others built.
    warm = CorrelatorEngine(target)
    builders = _builders(t, trunc, warm)
    for _, fn, args in builders:
        _outcome(fn, *args)
    assert any(key[0] is _slice for key in warm._shared)
    for (label, fn, args), (_, ref) in reversed(list(zip(builders, want))):
        assert _outcome(fn, *args) == ref, label


@pytest.mark.parametrize("name,D,E,T", CONFIGS[:2] + CONFIGS[3:4])
def test_narrow_windows_overflow_alike(name, D, E, T):
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
                overflows += got[0] == "overflow"
    assert overflows > 0


# ---------------------------------------------------------------------------
# the sum driven directly


def _sum(kernel_sum, target, trunc, t, grades, operand, block):
    acc = SeriesAccumulator(target, trunc)
    acc.add(0, 0, (0,) * target.class_rank, 0, Fraction(1, 3))  # a term before the sum
    kernel_sum(acc, t, grades, operand, block)
    return acc.terms()


@pytest.mark.parametrize("seed", (1, 7))
def test_repeated_keys_and_plain_callables_match_reference(seed):
    target = make_target("P2")
    trunc = default_truncation(target, 2, 3, 1)
    t = TPolynomial.random(target, 1, seed)
    engine = CorrelatorEngine(target)
    rng = random.Random(seed)
    betas = iter_betas(1, 2)
    terms = [
        (rng.randint(-3, 1), rng.choice(betas), rng.randint(0, 2), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for _ in range(6)
    ]
    flow = [(a, [term]) for term in terms for a in (0, 2, 0)]  # key 0 repeats, as in a contribution
    fibre = [(((a, k),), [term]) for term in terms for a, k in ((1, 0), (0, 1), (1, 0))]
    grades = [((1,), 0), ((0,), 2), ((1,), 1), ((2,), 0), ((1,), 1)]
    kinds = [
        (flow, _Kernel(engine), engine.flow_block),
        (fibre, _Kernel(engine, -1), lambda b, slot, monos: engine.fibre_block(b, monos + slot, -1)),
    ]
    for operand, kernel, plain in kinds:
        want = _sum(_reference_kernel_sum, target, trunc, t, grades, operand, kernel)
        assert len(want) > 1
        for block in (kernel, plain, kernel):  # the second ``kernel`` reads kept slices
            assert _sum(_kernel_sum, target, trunc, t, grades, operand, block) == want


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


def test_plain_random_blocks_match_reference():
    """A plain callable is asked for every block, whatever its dimension;
    cancelling sums and repeated keys give the reference's terms."""
    rng = random.Random(3)
    for _ in range(150):
        coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(4)]
        t = TPolynomial(_TARGET, (tuple(coeffs[:2]), tuple(coeffs[2:])))
        grades = [(rng.choice(iter_betas(1, 2)), rng.randint(0, 2)) for _ in range(rng.randint(1, 4))]
        operand = [
            (rng.randint(0, 2), [(rng.randint(-3, 2), rng.choice(iter_betas(1, 2)), rng.randint(0, 2), rng.choice(_VALUES))])
            for _ in range(rng.randint(0, 6))
        ]
        operand += [(key, [(z, b, e, -c) for z, b, e, c in terms]) for key, terms in operand if rng.random() < 0.3]
        assert _sum(_kernel_sum, _TARGET, _TRUNC, t, grades, operand, _random_block) == _sum(
            _reference_kernel_sum, _TARGET, _TRUNC, t, grades, operand, _random_block
        )


# ---------------------------------------------------------------------------
# the memo


def _slice_stores(engine) -> list:
    return [key for key in engine._shared if key[0] is _slice]


def test_slice_stores_stay_within_the_bound_over_many_seeds():
    target = make_target("P1")
    trunc = default_truncation(target, 1, 2, 1)
    engine = CorrelatorEngine(target)
    for seed in range(150):
        t = TPolynomial.random(target, 1, seed)
        s_apply(t, cone_point(t, trunc, engine), trunc, engine)
        assert len(engine._shared) <= _EXPANSIONS_CACHE_SIZE
        # The newest t's stores are kept, the flow kind read last.
        assert _slice_stores(engine)[-2:] == [(_slice, t, -1), (_slice, t, None)]
    stores = _slice_stores(engine)
    assert len(stores) == _EXPANSIONS_CACHE_SIZE
    assert {key[1] for key in stores} == {TPolynomial.random(target, 1, seed) for seed in range(118, 150)}


@pytest.mark.parametrize("method", ["flow_block", "fibre_block"])
def test_a_replaced_block_method_reaches_a_fresh_engine(method, monkeypatch):
    target = make_target("P2")
    trunc = default_truncation(target, 2, 2, 1)
    t = TPolynomial.random(target, 1, 7)
    warm = CorrelatorEngine(target)  # its slices are built with the real method
    point = cone_point(t, trunc, warm)
    before = s_apply(t, point, trunc, warm)
    calls = []
    real = getattr(CorrelatorEngine, method)

    def doubled(self, *args):
        calls.append(args)
        block = real(self, *args)
        return {z: tuple((rho, 2 * num, den) for rho, num, den in comps) for z, comps in block.items()}

    monkeypatch.setattr(CorrelatorEngine, method, doubled)
    fresh = CorrelatorEngine(target)
    if method == "flow_block":
        assert s_apply(t, point, trunc, fresh) != before
    else:
        assert cone_point(t, trunc, fresh) != point
    assert calls and _slice_stores(fresh)


def _block_room(engine, key) -> int:
    beta, kernel_alpha, fixed, _ = key
    return engine._room(beta, fixed if kernel_alpha is None else fixed + ((kernel_alpha, 0),))


def test_no_block_without_room_is_asked_for(capsys):
    get_engine.cache_clear()
    argv = ["verify", "--suites", "all", "--target", "P2", "--D", "2", "--E", "3", "--T", "1", "--seed", "7"]
    try:
        assert cli.main(argv) == 0
        engine = get_engine(make_target("P2"))
        assert engine._blocks
        assert [key for key in engine._blocks if _block_room(engine, key) < 0] == []
    finally:
        capsys.readouterr()
        get_engine.cache_clear()
