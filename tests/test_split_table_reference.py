"""Differential test of the topological recursion that walks only the
degree splits able to fill the carrier side, against the recursion that
scanned every split.

``ReferenceEngine`` keeps the previous ``_recursion`` verbatim, docstring
dropped: it called ``c1_pairing`` on every split of ``beta_splits(beta)``
and tried each mask of the spare insertions on it.  On cold engines the
values, both forced reductions and the whole cache, in insertion order,
must agree on the families of the correlator sweep (P1 three- and
one-point keys up to degree 70, P2 one-point keys up to degree 30), on
the seeded key batches of the dispatch test, and on a class-rank-2
presentation shaped like P1 x P1, where several b0 share one c1(b0).
That target has no primary backend, so its outcome is a value or the
exception's type and message; with stand-in seed values its reductions
run to the end.
"""

import random
from fractions import Fraction

import pytest

from gwlab import correlators
from gwlab.correlators import CorrelatorEngine, vdim
from gwlab.targets import NovikovDegree, TargetSpace, beta_splits, make_target
from test_recursion_pruning_reference import _p1_keys
from test_reduction_reference import _key_batch

P1, P2 = make_target("P1"), make_target("P2")


class ReferenceEngine(CorrelatorEngine):
    def _recursion(self, beta: NovikovDegree, ins: tuple, carrier_pos: int) -> Fraction:
        t = self.target
        a_c, k_c = ins[carrier_pos]
        rest = ins[:carrier_pos] + ins[carrier_pos + 1:]
        comp_ins, spare_ins = rest[:2], rest[2:]
        pinv, by_degree = t.pairing_inverse, t.basis_by_degree
        # ``need`` per split of the spare insertions: the carrier side's vdim less the
        # degrees and psi powers of left_base, but for the c1(b0) each degree split adds.
        splits = []
        for mask in range(1 << len(spare_ins)):
            side0 = tuple(x for i, x in enumerate(spare_ins) if mask >> i & 1)
            spare = sum(1 - t.degree(a) - k for a, k in side0)
            splits.append((mask, side0, t.dim - t.degree(a_c) - k_c + spare))
        total = Fraction(0)
        for b0, b1 in beta_splits(beta):
            c1 = t.c1_pairing(b0)
            for mask, side0, need in splits:
                need += c1
                mus = by_degree.get(need)
                if not mus or (not any(b0) and not side0):
                    continue  # no class fills the carrier side, or a zero-degree side lacks a third point
                side1 = tuple(x for i, x in enumerate(spare_ins) if not (mask >> i & 1))
                left_base = tuple(sorted(side0 + ((a_c, k_c - 1),)))
                right_base = tuple(sorted(side1 + comp_ins))
                for mu in mus:
                    left = self._eval(beta=b0, ins=tuple(sorted(left_base + ((mu, 0),))))
                    if not left:
                        continue
                    for nu in by_degree.get(t.dim - need, ()):
                        w = pinv[mu][nu]
                        if not w:
                            continue
                        right = self._eval(beta=b1, ins=tuple(sorted(right_base + ((nu, 0),))))
                        if right:
                            total += w * left * right
        return total


def _product_of_lines() -> TargetSpace:
    """1, H1, H2, H1 H2 with H1^2 = H2^2 = 0: c1 = (2, 2), so the splits
    b0 = (1, 0) and (0, 1) of (1, 1) share c1(b0) = 2."""
    one = Fraction(1)
    e = [tuple(Fraction(i == k) for k in range(4)) for i in range(4)]
    zero = (Fraction(0),) * 4
    cup = (
        tuple(e),
        (e[1], zero, e[3], zero),
        (e[2], e[3], zero, zero),
        (e[3], zero, zero, zero),
    )
    pairing = tuple(tuple(one if i + j == 3 else Fraction(0) for j in range(4)) for i in range(4))
    t = TargetSpace(
        name="P1xP1", dim=2, basis_degrees=(0, 1, 1, 2), pairing=pairing, cup_tensor=cup,
        class_rank=2, c1_vector=(2, 2), divisor_rows=((1, (0, 1)), (2, (1, 0))),
    )
    t.validate()
    return t


def _product_keys(target, seed, count=120):
    """Keys of degree (d1, d2) up to (3, 3) with 1-5 insertions, the first
    psi power raised to fill the virtual dimension."""
    rng = random.Random(seed)
    keys = []
    while len(keys) < count:
        beta, n = (rng.randint(0, 3), rng.randint(0, 3)), rng.randint(1, 5)
        ins = [(rng.randrange(target.rank), rng.randint(0, 2)) for _ in range(n)]
        shortfall = vdim(target, beta, n) - sum(target.degree(a) + k for a, k in ins)
        if 0 <= shortfall <= 8:
            ins[0] = (ins[0][0], ins[0][1] + shortfall)
            keys.append((beta, ins))
    return keys


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # the exception type and message are the outcome compared
        return type(exc), str(exc)


METHODS = ("correlator", "reduce_recursion_first", "reduce_divisor_first")


def _assert_same(ref, new, keys):
    """Each key, each method in turn, on the two engines: the same outcome
    and the same cache, in insertion order, after every call."""
    outcomes = []
    for beta, ins in keys:
        for method in METHODS:
            want = _outcome(getattr(ref, method), beta, ins)
            assert _outcome(getattr(new, method), beta, ins) == want, (method, beta, ins)
            assert list(new._values.items()) == list(ref._values.items()), (method, beta, ins)
            outcomes.append(want)
    return outcomes


@pytest.mark.parametrize("lo", range(1, 71, 10))
def test_p1_keys_match_reference(lo):
    for d in range(lo, lo + 10):
        for key in _p1_keys(d):
            _assert_same(ReferenceEngine(P1), CorrelatorEngine(P1), [key])


def test_p2_one_point_keys_match_reference():
    for d in range(1, 31):
        _assert_same(ReferenceEngine(P2), CorrelatorEngine(P2), [((d,), ((d % 3, 3 * d - d % 3),))])


@pytest.mark.parametrize("seed", [1, 7, 13])
@pytest.mark.parametrize("name", ["point", "P1", "P2"])
def test_key_batches_match_reference(name, seed):
    target = make_target(name)
    outcomes = _assert_same(ReferenceEngine(target), CorrelatorEngine(target), _key_batch(target, seed))
    assert any(isinstance(o, Fraction) and o for o in outcomes)


class StandInSeeds:
    """Stand-in seed values for a target without a primary backend, so
    that its reductions run to the end and every split is walked."""

    def _primary(self, beta: NovikovDegree, ins: tuple) -> Fraction:
        return Fraction(1 + sum(beta), 1 + sum(a for a, _ in ins))


@pytest.mark.parametrize("seed", [1, 7, 13])
def test_product_of_lines_matches_reference(seed):
    target = _product_of_lines()
    assert len(correlators._splits_by_c1(target.c1_vector, (1, 1))[2]) == 2
    keys = _product_keys(target, seed)
    outcomes = _assert_same(ReferenceEngine(target), CorrelatorEngine(target), keys)
    assert all(isinstance(o, tuple) for o in outcomes if o)  # nonzero keys stop at the missing backend
    assert any(isinstance(o, tuple) for o in outcomes)
    ref = type("StandInReference", (StandInSeeds, ReferenceEngine), {})(target)
    new = type("StandInEngine", (StandInSeeds, CorrelatorEngine), {})(target)
    outcomes = _assert_same(ref, new, keys)
    assert sum(isinstance(o, Fraction) and o != 0 for o in outcomes) >= len(keys)
    assert sum(bool(v) and all(b) for (b, _), v in new._values.items()) >= 500  # on both lines at once


def test_split_walk_pairs_c1_once_per_reduced_key(monkeypatch):
    """c1 is paired only by the dimension filter, once per key reduced:
    the recursion that scanned every split paired it 5,526 times here."""
    calls = []
    real = TargetSpace.c1_pairing
    monkeypatch.setattr(TargetSpace, "c1_pairing", lambda self, beta: calls.append(beta) or real(self, beta))
    engine = CorrelatorEngine(P1)
    engine.correlator((70,), [(0, 139), (1, 0), (1, 0)])
    assert len(engine._values) == 418
    assert len(calls) <= len(engine._values)


def test_split_table_is_bounded():
    table = correlators._splits_by_c1
    size = table.cache_info().maxsize
    for d in range(size + 20):
        table((2,), (d,))
    assert table.cache_info().currsize <= size
