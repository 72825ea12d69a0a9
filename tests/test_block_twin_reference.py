"""Differential test of the kernel blocks served from the cache, read off
the block of the other kernel sign, and built from cached values, against
the blocks they replaced.

The reference keeps the previous ``fibre_block``, ``flow_block``,
``_block``, ``_kernel``, ``_room`` and ``_fits`` verbatim, docstrings
dropped: every block call entered ``_block``, which probed the cache;
every miss reduced each fitting class through ``_guarded``; the two
kernel signs of a fibre block were built apart; and each dimension
filter worked out ``vdim``, so ``c1(beta)``, on every call.  Now
``fibre_block`` and ``flow_block`` probe the cache themselves, a miss
reads cached values directly, a fibre block whose other sign is cached
flips that block's numerators at odd z, and both filters read one
per-engine table of ``dim - 3 + c1(beta)``.

On the point, P1, P2 and the skew surface, over the direct block calls of
``test_block_one_pass_reference`` with either kernel sign asked first,
both sides must return the same blocks, raise the same errors with the
same messages, and leave ``_blocks`` and ``_values`` with the same items
in the same order; so must every builder that reads a block.  (No block
is read off its twin any longer: a fibre block of the other sign is
built like any miss, and must still match.)
"""

import random
from fractions import Fraction

import pytest

from gwlab.correlators import Block, CorrelatorEngine, NovikovDegree, canonical_key, vdim
from gwlab.cone import TPolynomial, default_truncation
from gwlab.series import merge
from gwlab.targets import make_target
from test_block_one_pass_reference import CONFIGS, SKEW, _block_calls, _builders, _outcome

TARGETS = {"point": make_target("point"), "P1": make_target("P1"), "P2": make_target("P2"), "skew": SKEW}

# ---------------------------------------------------------------------------
# the reference: the previous code, verbatim


class ParentEngine(CorrelatorEngine):
    def _room(self, beta: NovikovDegree, slots: tuple) -> int:
        t = self.target
        return vdim(t, beta, len(slots) + 1) - sum(t.degree(a) + k for a, k in slots)

    def _kernel(self, beta: NovikovDegree, ins: tuple, l: int, sign: int) -> Fraction:
        ins = tuple(sorted(ins))
        val = self._guarded((beta, ins), self._eval, beta, ins)
        return -val if sign < 0 and l % 2 == 0 else val

    def fibre_block(self, beta: NovikovDegree, fixed: tuple, sign: int) -> Block:
        return self._block(beta, None, tuple(sorted(fixed)), sign)

    def flow_block(self, beta: NovikovDegree, kernel_alpha: int, fixed: tuple) -> Block:
        return self._block(beta, kernel_alpha, tuple(sorted(fixed)), +1)

    def _block(self, beta, kernel_alpha, fixed, sign) -> Block:
        key = (beta, kernel_alpha, fixed, sign)
        block = self._blocks.get(key)
        if block is not None:
            return block
        beta, fixed = canonical_key(beta, fixed)
        t = self.target
        if kernel_alpha is None:
            first = self.correlator_with_kernel(beta, fixed, 0, sign)
            room = self._room(beta, fixed)
        else:
            first = self.correlator_with_kernel(beta, fixed + ((0, 0),), kernel_alpha, sign)
            room = self._room(beta, fixed + ((kernel_alpha, 0),))
        sums: dict[int, dict] = {}
        for gamma, dual in enumerate(t.dual_terms):
            if gamma:
                l = room - t.degree(gamma)
                if l < 0:
                    continue
                slots = ((gamma, l),) if kernel_alpha is None else ((gamma, 0), (kernel_alpha, l))
                val = self._kernel(beta, fixed + slots, l, sign)
                kernel = ((-1 - l, val),) if val else ()
            else:
                kernel = first.items()
            for z_exp, val in kernel:
                vec = sums.setdefault(z_exp, {})
                for rho, (cn, cd) in dual:
                    merge(vec, rho, val.numerator * cn, val.denominator * cd)
        block = {z: tuple((rho, n, d) for rho, (n, d) in sorted(vec.items()) if n) for z, vec in sums.items()}
        self._blocks[key] = block
        return block

    def _fits(self, beta: NovikovDegree, ins: tuple) -> bool:
        t = self.target
        return sum(t.degree(a) + k for a, k in ins) == vdim(t, beta, len(ins))


# ---------------------------------------------------------------------------
# direct block calls


def _same_caches(new, ref):
    assert list(new._blocks.items()) == list(ref._blocks.items())
    assert list(new._values.items()) == list(ref._values.items())


def _minus_first(calls):
    """The calls with each fibre block's kernel sign negated: ``_block_calls``
    asks sign +1 then -1 of each key, so these ask -1 first."""
    for method, args in calls:
        if method == "fibre_block":
            beta, fixed, sign = args
            args = (beta, fixed, -sign)
        yield method, args


@pytest.mark.parametrize("order", ["plus_first", "minus_first"])
@pytest.mark.parametrize("name", list(TARGETS))
def test_block_calls_match_reference(name, order):
    target = TARGETS[name]
    ref, new = ParentEngine(target), CorrelatorEngine(target)
    calls = _block_calls(target)
    raised, derived = set(), 0
    for method, args in calls if order == "plus_first" else _minus_first(calls):
        if method == "fibre_block":
            beta, fixed, sign = args
            twin_key = (beta, None, tuple(sorted(fixed)), -sign)
            derived += twin_key in new._blocks and twin_key[:3] + (sign,) not in new._blocks
        want = _outcome(getattr(ref, method), *args)
        assert _outcome(getattr(new, method), *args) == want, (method, args)
        if isinstance(want, tuple):
            raised.add(want[0].__name__)
    assert {"InvalidKeyError", "StabilityError"} <= raised
    assert derived  # some blocks were asked for with their twin cached
    _same_caches(new, ref)


def test_a_hit_enters_no_block_build(monkeypatch):
    built = []
    real = CorrelatorEngine._block
    monkeypatch.setattr(CorrelatorEngine, "_block", lambda self, *args: built.append(args) or real(self, *args))
    engine = CorrelatorEngine(make_target("P2"))
    first = engine.fibre_block((1,), ((2, 0), (1, 1)), -1), engine.flow_block((1,), 1, ((2, 0), (1, 0)))
    assert len(built) == 2
    again = engine.fibre_block((1,), ((1, 1), (2, 0)), -1), engine.flow_block((1,), 1, ((1, 0), (2, 0)))
    assert len(built) == 2 and all(a is b for a, b in zip(again, first))


# ---------------------------------------------------------------------------
# every builder that reads a block


@pytest.mark.parametrize("name, D, E, T", CONFIGS)
def test_builders_match_reference(name, D, E, T):
    target = make_target(name)
    trunc = default_truncation(target, D, E, T)
    t = TPolynomial.random(target, T, 7)
    ref, new = ParentEngine(target), CorrelatorEngine(target)
    for label, build in _builders(t, trunc):
        assert list(build(new).terms.items()) == list(build(ref).terms.items()), label
        _same_caches(new, ref)
    assert new._blocks


# ---------------------------------------------------------------------------
# the dimension table


@pytest.mark.parametrize("name", list(TARGETS))
def test_fits_and_room_equal_the_vdim_formula(name):
    target = TARGETS[name]
    ref, new = ParentEngine(target), CorrelatorEngine(target)
    rng = random.Random(f"dimension-table/{name}")
    for _ in range(2000):
        beta = tuple(rng.randrange(6) for _ in range(rng.choice([target.class_rank, target.class_rank, 0])))
        ins = tuple(sorted((rng.randrange(target.rank), rng.randrange(4)) for _ in range(rng.randrange(6))))
        assert new._fits(beta, ins) == ref._fits(beta, ins), (beta, ins)
        assert new._room(beta, ins) == ref._room(beta, ins), (beta, ins)
    assert len(new._free) > 1 or not target.class_rank
