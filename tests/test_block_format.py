"""The cached kernel block format, against the dense blocks it replaced.

An engine caches each kernel block as ``cone._kernel_sum`` reads it:
``{z: ((rho, num, den), ...)}``, the nonzero components of the vector at
z-exponent z as integer triples, in strictly increasing rho, with a
nonzero numerator and a positive denominator, unreduced.

The reference keeps the previous ``_block`` verbatim, docstring dropped:
it formed one ``Fraction`` per component and padded each vector with
zeros to the rank of the target.  Read through the dense view of
``block_view``, every block must equal the reference's, and a malformed
or unstable key must raise the same error with the same message.
"""

from fractions import Fraction

import pytest

from gwlab.cli import main
from gwlab.correlators import CorrelatorEngine, canonical_key, get_engine
from gwlab.series import merge
from gwlab.targets import CohVector, make_target
from block_view import _dense
from test_block_one_pass_reference import SKEW, _block_calls, _outcome

_ZERO = Fraction(0)

# ---------------------------------------------------------------------------
# the reference: the previous code, verbatim


class ParentEngine(CorrelatorEngine):
    def _block(self, beta, kernel_alpha, fixed, sign) -> dict[int, CohVector]:
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
        block = {
            z: tuple(Fraction(*vec[rho]) if rho in vec else _ZERO for rho in range(t.rank)) for z, vec in sums.items()
        }
        self._blocks[key] = block
        return block


# ---------------------------------------------------------------------------
# the format


def _assert_block_format(block, rank):
    for z, comps in block.items():
        assert type(z) is int and comps
        rhos = [rho for rho, _, _ in comps]
        assert rhos == sorted(set(rhos)) and 0 <= rhos[0] and rhos[-1] < rank
        for entry in comps:
            assert type(entry) is tuple and len(entry) == 3 and all(type(x) is int for x in entry)
            _, num, den = entry
            assert num != 0 and den > 0


def test_blocks_cached_by_a_full_verify_have_the_format(capsys):
    target = make_target("P2")
    get_engine.cache_clear()  # a fresh engine, so the run builds every block it reads
    code = main(["verify", "--target", "P2", "--D", "2", "--E", "3", "--T", "1", "--seed", "7", "--suites", "all"])
    capsys.readouterr()
    assert code == 0
    blocks = get_engine(target)._blocks
    assert len(blocks) > 100
    for block in blocks.values():
        _assert_block_format(block, target.rank)


# The surface of test_block_one_pass_reference, whose two degree-one
# classes meet in one z-exponent of a block, in the order B, A.
TARGETS = {"point": make_target("point"), "P1": make_target("P1"), "P2": make_target("P2"), "skew": SKEW}


@pytest.mark.parametrize("name", list(TARGETS))
def test_dense_view_matches_reference(name):
    target = TARGETS[name]
    ref, new = ParentEngine(target), CorrelatorEngine(target)
    built = 0
    for method, args in _block_calls(target):
        want = _outcome(getattr(ref, method), *args)
        got = _outcome(getattr(new, method), *args)
        if isinstance(want, tuple):
            assert got == want, (method, args)  # the same error and message
            continue
        assert list(_dense(dict(got), target.rank).items()) == want, (method, args)
        built += bool(want)
    assert built
    for block in new._blocks.values():
        _assert_block_format(block, target.rank)
    assert [(key, _dense(block, target.rank)) for key, block in new._blocks.items()] == list(ref._blocks.items())


def test_components_of_one_exponent_come_in_increasing_rho(monkeypatch):
    # On the skew surface phi^A = phi_B and phi^B = phi_A - phi_B, so a block
    # whose kernel values are 1 on A and 2 on B first reaches rho 2, then rho 1:
    # phi^A + 2 phi^B = 2 phi_A - phi_B.  The stand-in values (the index of the
    # kernel class) keep both components, where <1, A, A> = <1, A, B> = 1 cancel one.
    monkeypatch.setattr(CorrelatorEngine, "_kernel", lambda self, beta, ins, l, sign: Fraction(ins[-1][0]))
    args = ((0,), ((0, 0), (1, 0)), 1)
    assert CorrelatorEngine(SKEW).fibre_block(*args) == {-1: ((1, 2, 1), (2, -1, 1))}
    assert ParentEngine(SKEW).fibre_block(*args) == {-1: (0, 2, -1, 0)}
