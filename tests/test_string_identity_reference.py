"""Differential test of the string equation and the identity check against
the code they replaced.

``ReferenceEngine._string`` and ``_reference_is_identity`` keep the
previous ``CorrelatorEngine._string`` and ``EndoSeries.is_identity``
verbatim (docstrings dropped): the string step summed its own
psi-lowered keys, and the identity check built its own diagonal.  Now
the string step is the divisor corrections of the unit class, and the
identity check compares with ``identity_endo``.  Over the key batches of
``test_reduction_reference.py`` on point, P1 and P2 the engines must give
the same values (or the same exception type), the same forced
reductions and the same caches in the same insertion order.  The
identity checks must give the same verdict and the same offenders on
sound and broken inverse products and on hand-made matrices.
"""

from fractions import Fraction

import pytest

from gwlab import (
    CorrelatorEngine,
    EndoSeries,
    TPolynomial,
    Truncation,
    compose,
    default_truncation,
    flip_z,
    identity_endo,
    make_target,
    s_adjoint_matrix,
    s_matrix,
)
from gwlab.correlators import _sorted_replace
from gwlab.targets import NovikovDegree, beta_zero
from test_reduction_reference import _key_batch, _outcome

# ---------------------------------------------------------------------------
# the reference: the previous rules, verbatim


class ReferenceEngine(CorrelatorEngine):
    def _string(self, beta: NovikovDegree, ins: tuple, pos: int) -> Fraction:
        rest = ins[:pos] + ins[pos + 1:]
        total = Fraction(0)
        for j, (a, k) in enumerate(rest):
            if k >= 1:
                total += self._eval(beta, _sorted_replace(rest, j, (a, k - 1)))
        return total


def _reference_is_identity(self: EndoSeries):
    b0 = beta_zero(self.target.class_rank)
    bad = []
    for key, val in self.entries.items():
        z, row, col, beta, eps = key
        expected = Fraction(1) if (z, beta, eps) == (0, b0, 0) and row == col else Fraction(0)
        if val != expected:
            bad.append(key)
    for row in range(self.target.rank):
        if self.entries.get((0, row, row, b0, 0), Fraction(0)) != 1:
            bad.append((0, row, row, b0, 0))
    return (not bad, sorted(set(bad)))


# ---------------------------------------------------------------------------
# the comparison


@pytest.mark.parametrize("seed", [1, 7, 13])
@pytest.mark.parametrize("name", ["point", "P1", "P2"])
def test_string_matches_reference(name, seed):
    target = make_target(name)
    ref, new = ReferenceEngine(target), CorrelatorEngine(target)
    for beta, ins in _key_batch(target, seed):
        assert _outcome(new.correlator, beta, ins) == _outcome(ref.correlator, beta, ins), (beta, ins)
    assert list(new._values.items()) == list(ref._values.items())
    for beta, ins in _key_batch(target, seed):
        for method in ("reduce_divisor_first", "reduce_recursion_first"):
            want = _outcome(getattr(ref, method), beta, ins)
            assert _outcome(getattr(new, method), beta, ins) == want, (method, beta, ins)
    assert list(new._values.items()) == list(ref._values.items())
    # Keys the string step reduced; the point has degree zero only.
    strings = [
        value for (beta, ins), value in ref._values.items()
        if any(beta) and len(ins) >= 2 and (0, 0) in ins and ref._fits(beta, ins)
    ]
    assert (sum(map(bool, strings)) >= 50) == (name != "point")


def _inverse_product(name, seed):
    target = make_target(name)
    t = TPolynomial.random(target, 1, seed)
    trunc = default_truncation(target, 2, 2, 1)
    engine = CorrelatorEngine(target)
    return compose(s_matrix(t, trunc, engine), flip_z(s_adjoint_matrix(t, trunc, engine)), trunc)


def _assert_same_verdict(product: EndoSeries) -> tuple:
    got = product.is_identity()
    assert got == _reference_is_identity(product)
    return got


@pytest.mark.parametrize("seed", [1, 7, 13])
@pytest.mark.parametrize("name", ["point", "P1", "P2"])
def test_identity_check_matches_reference_on_inverse_products(name, seed, monkeypatch):
    ok, bad = _assert_same_verdict(_inverse_product(name, seed))
    assert ok and not bad
    apply_linear = EndoSeries.apply_linear
    monkeypatch.setattr(EndoSeries, "apply_linear", lambda *a: apply_linear(*a).scale(2))
    ok, bad = _assert_same_verdict(_inverse_product(name, seed))
    assert not ok and len(bad) >= make_target(name).rank


@pytest.mark.parametrize("name", ["point", "P1", "P2"])
def test_identity_check_matches_reference_on_hand_made_matrices(name):
    target = make_target(name)
    trunc = Truncation(1, 1, -1, 1)
    b0, rank = beta_zero(target.class_rank), target.rank
    one = identity_endo(target, trunc).entries
    b1 = (1,) * target.class_rank
    variants = {
        "identity": {},
        "missing diagonal": {(0, rank - 1, rank - 1, b0, 0): None},
        "zero diagonal": {(0, 0, 0, b0, 0): Fraction(0)},
        "off-diagonal": {(0, 0, rank - 1, b0, 0): Fraction(3)},
        "z power": {(-1, 0, 0, b0, 0): Fraction(1)},
        "eps grade": {(0, 0, 0, b0, 1): Fraction(-1, 2)},
        "novikov grade": {(0, rank - 1, 0, b1, 0): Fraction(5)},
        "zero entry off the identity": {(1, 0, 0, b0, 1): Fraction(0)},
    }
    for label, change in variants.items():
        entries = {**one, **change}
        entries = {key: val for key, val in entries.items() if val is not None}
        ok, bad = _assert_same_verdict(EndoSeries(target, trunc, entries))
        assert ok == (label in ("identity", "zero entry off the identity")), label
    assert not _assert_same_verdict(EndoSeries(target, trunc, {}))[0]
