"""Differential test of the pruned topological recursion and of the kernel
blocks that check their key once, against the code they replaced.

The reference keeps the previous ``_recursion`` (every kernel class of
every split visited, the zeros of the dimension filter cached), and the
previous ``correlator_with_kernel`` and ``_block`` (the block asks the
public, checking ``correlator_with_kernel`` once per basis class)
verbatim, docstrings dropped.

The keys are the families of the correlator sweep, each on cold engines:
P1 three-point keys <H^a psi^(2d-1-a), H, H>_d and one-point keys
<H^a psi^(2d-1-a)>_d for every degree d up to 70, P2 one-point keys
<H^a psi^(3d-a)>_d up to degree 30, and P2 keys of degree 1-4 with 3-6
insertions, a divisor and a psi power.  Values and both forced
reductions must agree.  On the fixed batch of ``_sweep_batch(1)`` the
reference engines cache 14,054 keys and the pruned engines 787: the
recursion no longer visits the kernel classes that fail the dimension
filter, whose zeros made up the difference.
"""

import random
from fractions import Fraction
from typing import Iterable

import pytest

from gwlab.correlators import CorrelatorEngine, StabilityError, canonical_key, is_stable, vdim
from gwlab.targets import CohVector, NovikovDegree, beta_splits, make_target
from block_view import _dense
from test_reduction_reference import _outcome

P1, P2 = make_target("P1"), make_target("P2")

# ---------------------------------------------------------------------------
# the reference: the previous code, verbatim


class ReferenceEngine(CorrelatorEngine):
    def correlator_with_kernel(
        self,
        beta: NovikovDegree,
        fixed: Iterable,
        kernel_alpha: int,
        sign: int,
    ) -> dict[int, Fraction]:
        beta, fixed = canonical_key(beta, fixed)
        self._check_key(beta, fixed + ((kernel_alpha, 0),))
        m = len(fixed) + 1
        if not is_stable(beta, m):
            raise StabilityError(
                f"kernel correlator unstable: beta={beta}, {m} insertions"
            )
        used = sum(self.target.degree(a) + k for a, k in fixed)
        l = vdim(self.target, beta, m) - used - self.target.degree(kernel_alpha)
        if l < 0:
            return {}
        ins = tuple(sorted(fixed + ((kernel_alpha, l),)))
        val = self._guarded((beta, ins), self._eval, beta, ins)
        if not val:
            return {}
        if sign < 0 and l % 2 == 0:
            val = -val
        return {-1 - l: val}

    def _block(self, beta, kernel_alpha, fixed, sign) -> dict[int, CohVector]:
        key = (beta, kernel_alpha, fixed, sign)
        block = self._blocks.get(key)
        if block is None:
            rank = self.target.rank
            block = {}
            for gamma in range(rank):
                if kernel_alpha is None:
                    kernel = self.correlator_with_kernel(beta, fixed, gamma, sign)
                else:
                    ext = fixed + ((gamma, 0),)
                    kernel = self.correlator_with_kernel(beta, ext, kernel_alpha, sign)
                for z_exp, val in kernel.items():
                    vec = self.target.dual_basis_vector(gamma)
                    acc = block.setdefault(z_exp, [Fraction(0)] * rank)
                    for rho, comp in enumerate(vec):
                        if comp:
                            acc[rho] += val * comp
            block = {z: tuple(v) for z, v in block.items() if any(v)}
            self._blocks[key] = block
        return block

    def _recursion(self, beta: NovikovDegree, ins: tuple, carrier_pos: int) -> Fraction:
        t = self.target
        a_c, k_c = ins[carrier_pos]
        rest = ins[:carrier_pos] + ins[carrier_pos + 1:]
        comp_ins, spare_ins = rest[:2], rest[2:]
        pinv = t.pairing_inverse
        total = Fraction(0)
        for b0, b1 in beta_splits(beta):
            for mask in range(1 << len(spare_ins)):
                side0 = tuple(x for i, x in enumerate(spare_ins) if mask >> i & 1)
                if not any(b0) and not side0:
                    continue  # zero-degree side needs a third special point
                side1 = tuple(x for i, x in enumerate(spare_ins) if not (mask >> i & 1))
                left_base = tuple(sorted(side0 + ((a_c, k_c - 1),)))
                right_base = tuple(sorted(side1 + comp_ins))
                for mu in range(t.rank):
                    left = self._eval(beta=b0, ins=tuple(sorted(left_base + ((mu, 0),))))
                    if not left:
                        continue
                    for nu in range(t.rank):
                        w = pinv[mu][nu]
                        if not w:
                            continue
                        right = self._eval(beta=b1, ins=tuple(sorted(right_base + ((nu, 0),))))
                        if right:
                            total += w * left * right
        return total


# ---------------------------------------------------------------------------
# the key families of the correlator sweep


def _p1_keys(d: int) -> list[tuple]:
    a = d % 2
    return [((d,), ((a, 2 * d - 1 - a), (1, 0), (1, 0))), ((d,), ((1 - a, 2 * d - 2 + a),))]


def _p2_recursion_keys(rng: random.Random, count: int) -> list[tuple]:
    keys = []
    while len(keys) < count:
        d, n = rng.randint(1, 4), rng.randint(3, 6)
        ins = [(rng.randrange(P2.rank), rng.randint(0, 3)) for _ in range(n - 1)] + [(1, 0)]
        shortfall = 3 * d - 1 + n - sum(P2.degree(a) + k for a, k in ins)
        if shortfall < 0:
            continue
        ins[0] = (ins[0][0], ins[0][1] + shortfall)
        if any(k > 0 for _, k in ins):
            keys.append(((d,), tuple(sorted(ins))))
    return keys


def _sweep_batch(seed: int) -> list[tuple]:
    """One batch as the sweep draws it: P1 keys at a degree in each band
    1-10, ..., 61-70, P2 one-point keys in the bands 1-10, 11-20, 21-30,
    and 12 P2 recursion keys, as (target, beta, insertions)."""
    rng = random.Random(seed)
    keys = [(P1, *key) for lo in range(1, 70, 10) for key in _p1_keys(rng.randint(lo, lo + 9))]
    for lo in (1, 11, 21):
        d = rng.randint(lo, lo + 9)
        a = rng.randrange(3)
        keys.append((P2, (d,), ((a, 3 * d - a),)))
    return keys + [(P2, *key) for key in _p2_recursion_keys(rng, 12)]


def _assert_same(target, beta, ins):
    """The value, on cold engines, and then both forced reductions agree."""
    ref, new = ReferenceEngine(target), CorrelatorEngine(target)
    for method in ("correlator", "reduce_recursion_first", "reduce_divisor_first"):
        want = _outcome(getattr(ref, method), beta, ins)
        assert _outcome(getattr(new, method), beta, ins) == want, (method, beta, ins)


@pytest.mark.parametrize("lo", range(1, 71, 10))
def test_p1_keys_match_reference(lo):
    for d in range(lo, lo + 10):
        for beta, ins in _p1_keys(d):
            _assert_same(P1, beta, ins)


def test_p2_one_point_keys_match_reference():
    for d in range(1, 31):
        _assert_same(P2, (d,), ((d % 3, 3 * d - d % 3),))


@pytest.mark.parametrize("seed", [1, 7, 13])
def test_p2_recursion_keys_match_reference(seed):
    keys = _p2_recursion_keys(random.Random(seed), 20)
    assert {len(ins) for _, ins in keys} == {3, 4, 5, 6}
    for beta, ins in keys:
        _assert_same(P2, beta, ins)


def test_sweep_batch_caches_only_fitting_keys():
    """The exact cache sizes of one batch, and the same values."""
    ref = {target: ReferenceEngine(target) for target in (P1, P2)}
    new = {target: CorrelatorEngine(target) for target in (P1, P2)}
    for target, beta, ins in _sweep_batch(1):
        assert new[target].correlator(beta, ins) == ref[target].correlator(beta, ins), (beta, ins)
    assert sum(len(e._values) for e in ref.values()) == 14_054
    assert sum(len(e._values) for e in new.values()) == 787
    for target in (P1, P2):
        for key, value in new[target]._values.items():
            assert new[target]._fits(*key) and ref[target]._values[key] == value


# ---------------------------------------------------------------------------
# kernel blocks: one check per block miss


def _block_calls(target):
    """fibre and flow blocks over every degree up to 2, basis index and a
    few fixed insertions, and malformed ones: out-of-range and negative
    indices, negative psi powers, bools and int-valued Fractions,
    unstable and wrong-rank degrees."""
    rank, width = target.rank, target.class_rank
    betas = [(d,) * width for d in range(3)] + [(), (1,) * (width + 1), (-1,) * max(width, 1)]
    fixeds = [(), ((0, 0),), ((rank - 1, 1), (0, 0)), ((1 % rank, 2),) * 2]
    fixeds += [((rank, 0),), ((-1, 0), (0, 0)), ((0, -1),), ((True, Fraction(1)),), ((0, 0), (0, 0), (rank, 1))]
    for beta in betas:
        for fixed in fixeds:
            for sign in (1, -1):
                yield "fibre_block", (beta, fixed, sign)
            for alpha in (0, rank - 1, rank, -1):
                yield "flow_block", (beta, alpha, fixed)


def _block_outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # the exception type and message are the outcome compared
        return type(exc), str(exc)


@pytest.mark.parametrize("name", ["point", "P1", "P2"])
def test_blocks_match_reference(name):
    target = make_target(name)
    ref, new = ReferenceEngine(target), CorrelatorEngine(target)
    raised = 0
    for method, args in _block_calls(target):
        want = _block_outcome(getattr(ref, method), *args)
        assert _block_outcome(lambda *a: _dense(getattr(new, method)(*a), target.rank), *args) == want, (method, args)
        raised += isinstance(want, tuple)
    assert raised  # malformed blocks raise, with the reference's message
    assert [(key, _dense(block, target.rank)) for key, block in new._blocks.items()] == list(ref._blocks.items())


def test_block_miss_checks_its_key_once(monkeypatch):
    engine = CorrelatorEngine(P2)
    checked = []
    real = engine._check_key
    monkeypatch.setattr(engine, "_check_key", lambda beta, ins: checked.append(ins) or real(beta, ins))
    engine.flow_block((1,), 1, ((2, 0), (1, 0)))
    engine.fibre_block((2,), ((2, 1),), -1)
    assert checked == [((0, 0), (1, 0), (2, 0), (1, 0)), ((2, 1), (0, 0))]
    engine.flow_block((1,), 1, ((2, 0), (1, 0)))  # a hit checks nothing
    assert len(checked) == 2
