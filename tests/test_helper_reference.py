"""Differential test of the cone's and the engine's small helpers against
the hand-rolled code they replaced, and of the checks that now leave the
default engine to the builders.

The reference keeps the previous ``cone._expansions`` (multiplicities
counted in a dict), ``TPolynomial.random`` (with its ``bound``
parameter), and the engine's ``_degree_zero`` (the psi moment divided
factor by factor) and ``_recursion`` (the carrier split off through a
list of positions) verbatim, docstrings dropped.  Expansions must agree
as tuples, order included, and seeded key batches on point, P1 and P2
must give the same values.  Their caches must agree, in order, on the
keys that pass the dimension filter; the reference alone also caches the
zeros of kernel classes that fail it.  Each check must
report the same with ``engine=None`` as with an engine passed in; with
one passed in nothing looks up the default, and without one only the
builders that read an engine do, through ``cone._engine_for``.
"""

import inspect
import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import pytest

from gwlab import checks, cone, localisation
from gwlab.cone import TPolynomial, _expansions, default_truncation
from gwlab.correlators import CorrelatorEngine, get_engine
from gwlab.targets import NovikovDegree, TargetSpace, beta_splits, make_target
from test_reduction_reference import _key_batch, _outcome

# ---------------------------------------------------------------------------
# the reference: the previous helpers, verbatim


def _reference_expansions(t: TPolynomial, n: int) -> tuple[tuple[Fraction, tuple[tuple[int, int], ...]], ...]:
    monos = t.monomials()
    out = []
    for combo in combinations_with_replacement(range(len(monos)), n):
        weight = Fraction(1)
        mult: dict[int, int] = {}
        for idx in combo:
            mult[idx] = mult.get(idx, 0) + 1
        for idx, m in mult.items():
            weight *= monos[idx][2] ** m
            weight /= factorial(m)
        insertions = tuple(sorted((monos[idx][1], monos[idx][0]) for idx in combo))
        out.append((weight, insertions))
    return tuple(out)


class ReferenceTPolynomial(TPolynomial):
    @classmethod
    def random(cls, target: TargetSpace, degree: int, seed: int, bound: int = 9) -> "TPolynomial":
        rng = random.Random(seed)
        coeffs = tuple(
            tuple(
                Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                for _ in range(target.rank)
            )
            for _ in range(degree + 1)
        )
        return cls(target, coeffs)


class ReferenceEngine(CorrelatorEngine):
    def _degree_zero(self, ins: tuple) -> Fraction:
        t = self.target
        n = len(ins)
        psi_sum = sum(k for _, k in ins)
        if psi_sum != n - 3:
            return Fraction(0)
        vec = t.unit
        for a, _ in ins:
            vec = t.cup(vec, t.basis_vector(a))
        top = t.integral(vec)
        if not top:
            return Fraction(0)
        moment = Fraction(factorial(n - 3))
        for _, k in ins:
            moment /= factorial(k)
        return top * moment

    def _recursion(self, beta: NovikovDegree, ins: tuple, carrier_pos: int) -> Fraction:
        t = self.target
        a_c, k_c = ins[carrier_pos]
        others = [i for i in range(len(ins)) if i != carrier_pos]
        comp = others[:2]
        spare = others[2:]
        comp_ins = tuple(ins[i] for i in comp)
        spare_ins = tuple(ins[i] for i in spare)
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
# the comparisons

NAMES = ["point", "P1", "P2"]


def _with_zeros(t: TPolynomial, seed: int) -> TPolynomial:
    """t with about half of its coefficients set to zero."""
    rng = random.Random(seed)
    coeffs = tuple(tuple(c if rng.random() < 0.5 else Fraction(0) for c in vec) for vec in t.coeffs)
    return TPolynomial(t.target, coeffs)


@pytest.mark.parametrize("T", [0, 1, 2])
@pytest.mark.parametrize("name", NAMES)
def test_expansions_match_reference(name, T):
    target = make_target(name)
    ts = [TPolynomial.zero(target, T)]
    for seed in (1, 7, 13):
        ts += [TPolynomial.random(target, T, seed), _with_zeros(TPolynomial.random(target, T, seed), seed)]
    for t in ts:
        for n in range(6):
            assert _expansions.__wrapped__(t, n) == _reference_expansions(t, n), (t, n)


@pytest.mark.parametrize("name", NAMES)
def test_random_matches_reference(name):
    target = make_target(name)
    for degree in range(4):
        for seed in range(20):
            got = TPolynomial.random(target, degree, seed)
            assert got.coeffs == ReferenceTPolynomial.random(target, degree, seed).coeffs
    assert list(inspect.signature(TPolynomial.random).parameters) == ["target", "degree", "seed"]


@pytest.mark.parametrize("name", NAMES)
def test_degree_zero_matches_reference(name):
    target = make_target(name)
    ref, new = ReferenceEngine(target), CorrelatorEngine(target)
    slots = [(a, k) for a in range(target.rank) for k in range(4)]
    nonzero = 0
    for n in range(3, 7):
        for ins in combinations_with_replacement(slots, n):
            want = ref._degree_zero(ins)
            assert new._degree_zero(ins) == want, ins
            nonzero += want != 0
    assert nonzero


@pytest.mark.parametrize("seed", [1, 7, 13])
@pytest.mark.parametrize("name", NAMES)
def test_recursion_matches_reference(name, seed):
    target = make_target(name)
    ref, new = ReferenceEngine(target), CorrelatorEngine(target)
    recursed = 0
    for beta, ins in _key_batch(target, seed):
        assert _outcome(new.correlator, beta, ins) == _outcome(ref.correlator, beta, ins), (beta, ins)
        want = _outcome(ref.reduce_recursion_first, beta, ins)
        assert _outcome(new.reduce_recursion_first, beta, ins) == want, (beta, ins)
        recursed += isinstance(want, Fraction) and want != 0
    assert recursed  # the forced recursion reaches _recursion on every target
    # The reference also caches the zeros of kernel classes that fail the
    # dimension filter; the new recursion never visits them.
    fitting = lambda values: [(key, v) for key, v in values.items() if new._fits(*key)]
    assert fitting(new._values) == fitting(ref._values)
    assert all(key in ref._values and ref._values[key] == v for key, v in new._values.items())
    assert not any(new._fits(*key) for key in ref._values.keys() - new._values.keys())


# The functions that read an engine and fall back to the default one.
BUILDERS = {
    "cone_point", "s_apply", "s_adjoint_corr_apply", "descendant_potential", "double_bracket", "contribution",
}


def _suites(t, trunc, engine):
    """Each check whose own default lookup is gone, as a report dict
    without its timing, and the two library sums they rest on."""
    runs = [
        checks.check_polynomiality(t, trunc, engine, seed=7),
        checks.check_inverse(t, trunc, engine, seed=7),
        checks.check_universal_relations(t, 3, trunc, engine, seed=7),
        checks.check_lagrangian(t, trunc, engine, seed=7),
        checks.check_cone_in_tangent(t, trunc, engine, seed=7),
        localisation.check_main_identity(t, trunc, engine, seed=7),
        localisation.check_localisation(t, trunc, engine, seed=7),
    ]
    reports = [{k: v for k, v in r.as_dict().items() if k != "elapsed_s"} for r in runs]
    sums = [
        checks.universal_relation(t, 3, 0, trunc, engine),
        localisation.localisation_sum(t, trunc, engine),
    ]
    return reports, sums


@pytest.mark.parametrize("name", ["P1", "P2"])
def test_checks_pass_their_engine_on(name, monkeypatch):
    target = make_target(name)
    t = TPolynomial.random(target, 1, 7)
    trunc = default_truncation(target, 1, 2, 1)
    lookups = []

    def counted(tgt):
        helper = sys._getframe(1)  # cone._engine_for, which each builder asks for its engine
        lookups.append((helper.f_code.co_name, helper.f_back.f_code.co_name, tgt))
        return get_engine(tgt)

    for module in (checks, cone):
        monkeypatch.setattr(module, "get_engine", counted)
    assert not hasattr(localisation, "get_engine")  # contribution asks cone._engine_for
    with_engine = _suites(t, trunc, get_engine(target))
    assert lookups == []  # with an engine given, no builder picks the default
    assert _suites(t, trunc, None) == with_engine
    assert {tgt for _, _, tgt in lookups} == {target}
    assert {helper for helper, _, _ in lookups} == {"_engine_for"}
    assert {caller for _, caller, _ in lookups} <= BUILDERS
    assert _suites(t, trunc, CorrelatorEngine(target)) == with_engine
    assert all(r["passed"] for r in with_engine[0])
