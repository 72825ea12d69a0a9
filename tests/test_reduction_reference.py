"""Differential test of the correlator rule dispatch against the reduction
it replaced.

``ReferenceEngine`` keeps the previous ``_reduce``, ``_few_points``,
``_divisor``, ``_divisor_inversion``, ``reduce_divisor_first`` and
``reduce_recursion_first`` verbatim: the insertion a rule acts on was
chosen in three places, the two-point string step was written out in
``_few_points`` and the divisor corrections were summed twice.  Seeded
key batches on point, P1 and P2 must give the same values (or the same
exception type), the same caches in the same insertion order, and the
same forced reductions wherever the reference returned a value.
"""

import random
from fractions import Fraction
from typing import Iterable

import pytest

from gwlab import CapabilityError, CorrelatorEngine, InvalidKeyError, make_target, vdim
from gwlab.correlators import _sorted_replace, canonical_key
from gwlab.targets import NovikovDegree


class ReferenceEngine(CorrelatorEngine):
    def _reduce(self, beta: NovikovDegree, ins: tuple) -> Fraction:
        t = self.target
        n = len(ins)
        if sum(t.degree(a) + k for a, k in ins) != vdim(t, beta, n):
            return Fraction(0)
        if not any(beta):
            return self._degree_zero(ins)
        if n >= 3:
            for pos, (a, k) in enumerate(ins):
                if a == 0 and k == 0:
                    return self._string(beta, ins, pos)
            for pos, (a, k) in enumerate(ins):
                if t.degree(a) == 1 and k == 0:
                    return self._divisor(beta, ins, pos)
            for pos, (_, k) in enumerate(ins):
                if k > 0:
                    return self._recursion(beta, ins, pos)
            return self._primary(beta, ins)
        return self._few_points(beta, ins)

    def _divisor(self, beta: NovikovDegree, ins: tuple, pos: int) -> Fraction:
        t = self.target
        d_alpha = ins[pos][0]
        rest = ins[:pos] + ins[pos + 1:]
        total = Fraction(t.divisor_pairing(d_alpha, beta)) * self._eval(beta, tuple(sorted(rest)))
        for j, (a, k) in enumerate(rest):
            if k >= 1:
                cupped = t.cup_basis(d_alpha, a)
                for nu, c in enumerate(cupped):
                    if c:
                        total += c * self._eval(beta, _sorted_replace(rest, j, (nu, k - 1)))
        return total

    def _few_points(self, beta: NovikovDegree, ins: tuple) -> Fraction:
        n = len(ins)
        if n == 2:
            for pos, (a, k) in enumerate(ins):
                if a == 0 and k == 0:
                    # String equation down to one point.
                    (b, kb) = ins[1 - pos]
                    if kb == 0:
                        return Fraction(0)
                    return self._eval(beta, ((b, kb - 1),))
            if all(k == 0 for _, k in ins):
                return self._primary(beta, ins)
        return self._divisor_inversion(beta, ins)

    def _divisor_inversion(self, beta: NovikovDegree, ins: tuple) -> Fraction:
        t = self.target
        div = next(
            (i for i in t.divisor_indices if t.divisor_pairing(i, beta) != 0), None
        )
        if div is None:
            raise CapabilityError(
                f"no divisor pairs with beta={beta} on {t.name}; cannot ground the key {ins}"
            )
        ext = tuple(sorted(ins + ((div, 0),)))
        if len(ext) >= 3:
            carrier = next(i for i, (_, k) in enumerate(ext) if k > 0)
            extended = self._recursion(beta, ext, carrier)
        else:
            extended = self._eval(beta, ext)
        total = extended
        for j, (a, k) in enumerate(ins):
            if k >= 1:
                cupped = t.cup_basis(div, a)
                for nu, c in enumerate(cupped):
                    if c:
                        total -= c * self._eval(beta, _sorted_replace(ins, j, (nu, k - 1)))
        return total / t.divisor_pairing(div, beta)

    def reduce_divisor_first(self, beta: NovikovDegree, insertions: Iterable) -> Fraction:
        beta, ins = canonical_key(beta, insertions)
        pos = next(
            i for i, (a, k) in enumerate(ins) if self.target.degree(a) == 1 and k == 0
        )
        if sum(self.target.degree(a) + k for a, k in ins) != vdim(self.target, beta, len(ins)):
            return Fraction(0)
        return self._divisor(beta, ins, pos)

    def reduce_recursion_first(self, beta: NovikovDegree, insertions: Iterable) -> Fraction:
        beta, ins = canonical_key(beta, insertions)
        pos = next(i for i, (_, k) in enumerate(ins) if k > 0)
        if sum(self.target.degree(a) + k for a, k in ins) != vdim(self.target, beta, len(ins)):
            return Fraction(0)
        return self._recursion(beta, ins, pos)


def _key_batch(target, seed, count=150):
    """Keys of degree 0-4 with 1-6 insertions; every other key has its
    first psi power raised to fill the virtual dimension, so the batch
    reaches the reduction rules and not only the dimension filter."""
    rng = random.Random(seed)
    keys = []
    while len(keys) < count:
        beta = (rng.randint(0, 4),) * target.class_rank
        n = rng.randint(1, 6)
        ins = [(rng.randrange(target.rank), rng.randint(0, 2)) for _ in range(n)]
        if len(keys) % 2:
            shortfall = vdim(target, beta, n) - sum(target.degree(a) + k for a, k in ins)
            if shortfall < 0 or shortfall > 6:
                continue
            ins[0] = (ins[0][0], ins[0][1] + shortfall)
        keys.append((beta, ins))
    return keys


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


@pytest.mark.parametrize("seed", [1, 7, 13])
@pytest.mark.parametrize("name", ["point", "P1", "P2"])
def test_dispatch_matches_reference(name, seed):
    target = make_target(name)
    ref, new = ReferenceEngine(target), CorrelatorEngine(target)
    keys = _key_batch(target, seed)
    assert any(len(ins) == 1 for _, ins in keys) and any(len(ins) == 2 for _, ins in keys)
    reduced = 0
    for beta, ins in keys:
        want = _outcome(ref.correlator, beta, ins)
        assert _outcome(new.correlator, beta, ins) == want, (beta, ins)
        reduced += isinstance(want, Fraction) and want != 0
    assert reduced >= 8  # the batch exercises the rules, not only the filter
    assert list(new._values.items()) == list(ref._values.items())

    forced_values = 0
    for beta, ins in keys:
        for method in ("reduce_divisor_first", "reduce_recursion_first"):
            want = _outcome(getattr(ref, method), beta, ins)
            got = _outcome(getattr(new, method), beta, ins)
            if want is StopIteration:  # no insertion admits the move
                assert got is InvalidKeyError, (method, beta, ins)
            else:
                assert got == want, (method, beta, ins)
                forced_values += isinstance(want, Fraction)
    assert forced_values
    assert list(new._values.items()) == list(ref._values.items())
