"""Differential test of the kernel blocks built in one pass over the basis,
against the blocks they replaced.

The reference keeps the previous ``correlator_with_kernel``, ``_kernel``
and ``_block`` verbatim, docstrings dropped: the block asked ``_kernel``
once per basis class, which worked out the fixed slots' degree sum for
each class again, and folded each value along the dense dual basis
vector in ``Fraction`` arithmetic.  Now the block works out the kernel
dimension filter once, reduces only the classes that fit and folds along
the target's sparse dual table on integer pairs.

On cold engines of the point, P1, P2 and a surface whose dual basis mixes
two classes, both sides must return the same
blocks, raise the same errors with the same messages, and leave
``_blocks`` and ``_values`` with the same items in the same order: over
direct block calls (malformed and unstable keys among them, and a key
deeper than the recursion limit) and over every builder that reads a
block.  A miss checks its key once and reads every kernel value, gamma = 0
among them, through ``_kernel``; a hit asks for nothing.
"""

from fractions import Fraction
from typing import Iterable

import pytest

from gwlab.cone import (
    TPolynomial,
    cone_point,
    default_truncation,
    s_adjoint_corr_apply,
    s_apply,
    tangent_vector,
)
from gwlab.correlators import CorrelatorEngine, StabilityError, canonical_key, is_stable, vdim
from gwlab.localisation import localisation_sum
from gwlab.targets import CohVector, NovikovDegree, load_target, make_target
from block_view import _dense, _sparse

# A surface with two degree-one classes A, B paired by (A, A) = (A, B) = 1,
# (B, B) = 0, so phi^B = phi_A - phi_B: two kernel classes share a psi depth
# and add into one component of a block vector.  It has no primary backend,
# so only its degree-zero correlators have values; the others raise.
SKEW = load_target({
    "name": "skew", "dim": 2, "basis_degrees": [0, 1, 1, 2],
    "pairing": [[0, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
    "cup": [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]],
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    ],
    "class_rank": 1, "c1_vector": [2], "divisor_rows": [[1, [1]]],
})
TARGETS = {"point": make_target("point"), "P1": make_target("P1"), "P2": make_target("P2"), "skew": SKEW}

# ---------------------------------------------------------------------------
# the reference: the previous code, verbatim


class ReferenceEngine(CorrelatorEngine):
    def correlator_with_kernel(
        self, beta: NovikovDegree, fixed: Iterable, kernel_alpha: int, sign: int
    ) -> dict[int, Fraction]:
        beta, fixed = canonical_key(beta, fixed)
        self._check_key(beta, fixed + ((kernel_alpha, 0),))
        m = len(fixed) + 1
        if not is_stable(beta, m):
            raise StabilityError(f"kernel correlator unstable: beta={beta}, {m} insertions")
        return self._kernel(beta, fixed, kernel_alpha, sign)

    def _kernel(self, beta: NovikovDegree, fixed: tuple, kernel_alpha: int, sign: int) -> dict[int, Fraction]:
        used = sum(self.target.degree(a) + k for a, k in fixed)
        l = vdim(self.target, beta, len(fixed) + 1) - used - self.target.degree(kernel_alpha)
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
            # Canonical once for the unchecked calls; only gamma = 0 is checked,
            # as the other kernel correlators differ from it in gamma alone.
            beta, fixed = canonical_key(beta, fixed)
            rank = self.target.rank
            block = {}
            for gamma in range(rank):
                kernel_of = self._kernel if gamma else self.correlator_with_kernel
                if kernel_alpha is None:
                    kernel = kernel_of(beta, fixed, gamma, sign)
                else:
                    kernel = kernel_of(beta, fixed + ((gamma, 0),), kernel_alpha, sign)
                for z_exp, val in kernel.items():
                    vec = self.target.dual_basis_vector(gamma)
                    acc = block.setdefault(z_exp, [Fraction(0)] * rank)
                    for rho, comp in enumerate(vec):
                        if comp:
                            acc[rho] += val * comp
            block = {z: tuple(v) for z, v in block.items() if any(v)}
            self._blocks[key] = block
        return block


class BuilderReferenceEngine(ReferenceEngine):
    """The reference as the builders read it: its dense blocks in the engine's format."""

    def fibre_block(self, beta, fixed, sign):
        return _sparse(super().fibre_block(beta, fixed, sign))

    def flow_block(self, beta, kernel_alpha, fixed):
        return _sparse(super().flow_block(beta, kernel_alpha, fixed))


# ---------------------------------------------------------------------------
# direct block calls


def _outcome(call, *args):
    """The block's items in order, or the error's type and message."""
    try:
        return list(call(*args).items())
    except Exception as exc:  # the exception type and message are the outcome compared
        return type(exc), str(exc)


def _viewed(engine, method):
    """The engine's block ``method``, its blocks read through the dense view."""
    call = getattr(engine, method)
    return lambda *args: _dense(call(*args), engine.target.rank)


def _same_caches(new, ref):
    rank = new.target.rank
    assert [(key, _dense(block, rank)) for key, block in new._blocks.items()] == list(ref._blocks.items())
    assert list(new._values.items()) == list(ref._values.items())


def _block_calls(target):
    """fibre and flow blocks over degrees up to 3, fixed slots that leave the
    kernel room for several classes or none, and malformed keys: basis
    indices out of range or negative, negative psi powers, bools and
    int-valued Fractions, wrong-rank and negative degrees, unstable
    configurations; each asked twice, so the second is a hit."""
    rank, width = target.rank, target.class_rank
    betas = [(d,) * width for d in range(4)] + [(1,) * (width + 1), (-1,) * max(width, 1)]
    fixeds = [(), ((0, 0),), ((rank - 1, 0), (0, 1)), ((1 % rank, 0),) * 3, ((0, 2), (rank - 1, 0))]
    fixeds += [((rank, 0),), ((0, 0), (-1, 0)), ((0, -1),), ((True, Fraction(1)), (0, 0)), ((0, 0), (rank, 1))]
    for _ in range(2):
        for beta in betas:
            for fixed in fixeds:
                for sign in (1, -1):
                    yield "fibre_block", (beta, fixed, sign)
                for alpha in range(-1, rank + 1):
                    yield "flow_block", (beta, alpha, fixed)


@pytest.mark.parametrize("name", list(TARGETS))
def test_block_calls_match_reference(name):
    target = TARGETS[name]
    ref, new = ReferenceEngine(target), CorrelatorEngine(target)
    raised = set()
    for method, args in _block_calls(target):
        want = _outcome(getattr(ref, method), *args)
        assert _outcome(_viewed(new, method), *args) == want, (method, args)
        if isinstance(want, tuple):
            raised.add(want[0].__name__)
    # Malformed and unstable keys raise, with the reference's messages.
    assert {"InvalidKeyError", "StabilityError"} <= raised
    _same_caches(new, ref)


def test_two_kernel_classes_fold_into_one_component():
    # <1, A, A> phi^A + <1, A, B> phi^B = phi_B + (phi_A - phi_B) = phi_A: the B components cancel.
    assert ReferenceEngine(SKEW).fibre_block((0,), ((0, 0), (1, 0)), 1) == {-1: (0, 1, 0, 0)}
    assert CorrelatorEngine(SKEW).fibre_block((0,), ((0, 0), (1, 0)), 1) == {-1: ((1, 1, 1),)}


@pytest.mark.parametrize(
    "method, args",
    [("fibre_block", ((100,), ((1, 0), (1, 0)), 1)), ("flow_block", ((100,), 0, ((1, 0),)))],
)
def test_block_deeper_than_the_recursion_limit_matches_reference(method, args):
    target = make_target("P1")
    ref, new = ReferenceEngine(target), CorrelatorEngine(target)
    want = _outcome(getattr(ref, method), *args)
    assert want[0].__name__ == "ReductionDepthError"
    assert _outcome(_viewed(new, method), *args) == want
    _same_caches(new, ref)
    assert not new._active


# ---------------------------------------------------------------------------
# every builder that reads a block


def _builders(t, trunc):
    """(label, builder of an engine) for each builder that reads a block."""
    target = t.target
    out = [
        ("cone_point", lambda e: cone_point(t, trunc, e)),
        ("s_apply cone point", lambda e: s_apply(t, cone_point(t, trunc, e), trunc, e)),
        ("localisation_sum", lambda e: localisation_sum(t, trunc, e)),
    ]
    for sign in (1, -1):
        basis = cone_point(t, trunc).split_plus_minus()[0]
        out.append((f"adjoint {sign}", lambda e, s=sign, r=basis: s_adjoint_corr_apply(t, r, s, trunc, e)))
    out += [
        (f"tangent {alpha} {k}", lambda e, a=alpha, k=k: tangent_vector(t, a, k, trunc, e))
        for alpha in range(target.rank)
        for k in range(2)
    ]
    return out


CONFIGS = [("point", 0, 4, 1), ("P1", 2, 2, 1), ("P1", 1, 3, 2), ("P2", 2, 2, 1), ("P2", 1, 3, 2)]


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name, D, E, T", CONFIGS)
def test_builders_match_reference(name, D, E, T, seed):
    target = make_target(name)
    trunc = default_truncation(target, D, E, T)
    t = TPolynomial.random(target, T, seed)
    ref, new = BuilderReferenceEngine(target), CorrelatorEngine(target)
    for label, build in _builders(t, trunc):
        assert list(build(new).terms.items()) == list(build(ref).terms.items()), label
        _same_caches(new, ref)
    assert new._blocks


# ---------------------------------------------------------------------------
# the calls a block makes


def test_miss_checks_its_key_once_and_a_hit_asks_nothing(monkeypatch):
    asked = []
    for name in ("_check_key", "correlator_with_kernel", "_kernel"):
        real = getattr(CorrelatorEngine, name)
        counted = lambda self, *args, name=name, real=real: asked.append((name, args)) or real(self, *args)
        monkeypatch.setattr(CorrelatorEngine, name, counted)
    engine = CorrelatorEngine(make_target("P2"))
    engine.fibre_block((2,), ((2, 1),), -1)
    engine.flow_block((1,), 1, ((2, 0), (1, 0)))
    # The key as the gamma = 0 kernel correlator has it: the kernel on phi_0
    # for a fibre block, the plain slot phi_0 beside the kernel for a flow block.
    assert [args for name, args in asked if name == "_check_key"] == [
        ((2,), ((2, 1), (0, 0))),
        ((1,), ((0, 0), (1, 0), (2, 0), (1, 0))),
    ]
    # Every class fits both kernels, so each value is read through _kernel, gamma = 0 first.
    assert [args[1][-1] for name, args in asked if name == "_kernel"] == [
        (0, 4), (1, 3), (2, 2), (1, 2), (1, 1), (1, 0),
    ]
    assert len(asked) == 8
    engine.fibre_block((2,), ((2, 1),), -1)
    engine.flow_block((1,), 1, ((1, 0), (2, 0)))
    assert len(asked) == 8
