"""Differential tests of the correlator reduction against the code it
replaced: the rule dispatch, and the sums of the rules.

``ReferenceEngine`` keeps the previous ``_reduce``, ``_few_points``,
``_divisor``, ``_divisor_inversion``, ``reduce_divisor_first`` and
``reduce_recursion_first`` verbatim: the insertion a rule acts on was
chosen in three places, the two-point string step was written out in
``_few_points`` and the divisor corrections were summed twice.  Seeded
key batches on point, P1 and P2 must give the same values (or the same
exception type), the same caches in the same insertion order, and the
same forced reductions wherever the reference returned a value.

``FractionSumEngine`` keeps the previous ``_divisor``, ``_corrections``
(aliased as ``_string``), ``_recursion`` and ``_divisor_inversion``
verbatim, docstrings dropped: each summed its terms as ``Fraction``s.
Now each sums them on one integer pair and forms one ``Fraction`` per
value.  On fresh engines for the point, P1, P2, a skew surface, a line
ring whose inverse pairing has halves and a plane ring whose cup product
has halves (the rings with primary values of their own), over the key families of
verifybench's correlator sweep, the two must give the same values (or
the same exception), the same forced reductions and the same caches in
the same insertion order.
"""

import random
from fractions import Fraction
from typing import Iterable

import pytest

from gwlab import CapabilityError, CorrelatorEngine, InvalidKeyError, load_target, make_target, vdim
from gwlab.correlators import _sorted_replace, _splits_by_c1, canonical_key
from gwlab.targets import NovikovDegree
from test_block_one_pass_reference import SKEW


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


# ---------------------------------------------------------------------------
# the sums of the rules: integer pairs against the Fraction sums they replaced


class FractionSumEngine(CorrelatorEngine):
    def _divisor(self, beta: NovikovDegree, ins: tuple, pos: int) -> Fraction:
        rest = ins[:pos] + ins[pos + 1:]
        pairing = Fraction(self.target.divisor_pairing(ins[pos][0], beta))
        return pairing * self._eval(beta, rest) + self._corrections(beta, ins, pos)

    def _corrections(self, beta: NovikovDegree, ins: tuple, pos: int) -> Fraction:
        div, rest = ins[pos][0], ins[:pos] + ins[pos + 1:]
        total = Fraction(0)
        for j, (a, k) in enumerate(rest):
            if k >= 1:
                for nu, c in self.target.cup_terms[div][a]:
                    val = self._eval(beta, _sorted_replace(rest, j, (nu, k - 1)))
                    total += val if c == 1 else c * val
        return total

    _string = _corrections

    def _recursion(self, beta: NovikovDegree, ins: tuple, carrier_pos: int) -> Fraction:
        t = self.target
        a_c, k_c = ins[carrier_pos]
        rest = ins[:carrier_pos] + ins[carrier_pos + 1:]
        comp_ins, spare_ins = rest[:2], rest[2:]
        pinv, by_degree = t.pairing_inverse, t.basis_by_degree
        # ``need`` per split of the spare insertions: the carrier side's vdim less the
        # degrees and psi powers of left_base, but for the c1(b0) each degree split adds.
        masks = []
        for mask in range(1 << len(spare_ins)):
            side0 = tuple(x for i, x in enumerate(spare_ins) if mask >> i & 1)
            spare = sum(1 - t.degree(a) - k for a, k in side0)
            masks.append((mask, side0, t.dim - t.degree(a_c) - k_c + spare))
        by_c1 = _splits_by_c1(t.c1_vector, beta)
        fitting = {deg - need for _, _, need in masks for deg in by_degree}
        total = Fraction(0)
        for _, b0, b1, c1 in sorted(s for c in fitting for s in by_c1.get(c, ())):
            for mask, side0, need in masks:
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
            rule, pos = self._move(ext, ("_recursion",))
            extended = rule(beta, ext, pos)
        else:
            extended = self._eval(beta, ext)
        return (extended - self._corrections(beta, ext, ext.index((div, 0)))) / t.divisor_pairing(div, beta)


# The line's ring with the pairing doubled: phi^gamma carries halves.  It
# has no primary backend, so its positive degrees end in CapabilityError
# unless the seeded engines below give it one.
RING = load_target({
    "name": "ring", "dim": 1, "basis_degrees": [0, 1], "pairing": [[0, 2], [2, 0]],
    "cup": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], "class_rank": 1, "c1_vector": [2], "divisor_rows": [[1, [1]]],
})


# The plane's ring with H cup H = H^2 / 2: the divisor corrections carry halves.
HALF_PLANE = load_target({
    "name": "half plane", "dim": 2, "basis_degrees": [0, 1, 2],
    "pairing": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    "cup": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, "1/2"], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [0, 0, 0]]],
    "class_rank": 1, "c1_vector": [3], "divisor_rows": [[1, [1]]],
})


class _Seeded:
    """Primary values for the two rings without a backend: <pt, pt>_1 = 1/3
    on the line ring and <pt, ..., pt>_d = 1/(d + 1) on the half plane, so
    that every rule sums terms whose denominators come from the seeds as
    well as from the pairing or the cup product."""

    def _primary(self, beta, ins):
        if self.target == RING and beta == (1,) and ins == ((1, 0), (1, 0)):
            return Fraction(1, 3)
        if self.target == HALF_PLANE and all(x == (2, 0) for x in ins):
            return Fraction(1, beta[0] + 1)
        return super()._primary(beta, ins)


class SeededFractionSumEngine(_Seeded, FractionSumEngine):
    pass


class SeededEngine(_Seeded, CorrelatorEngine):
    pass


def _line_keys(top):
    """P1's families in the sweep: the three-point and one-point keys of
    each degree up to top, with either class under the psi power."""
    return [
        ((d,), ins)
        for d in range(1, top + 1)
        for a in (0, 1)
        for ins in (((a, 2 * d - 1 - a), (1, 0), (1, 0)), ((a, 2 * d - 1 - a),))
    ]


def _plane_keys(rng):
    """P2's families in the sweep: one-point keys up to degree 30, random
    recursion keys with a divisor slot, and plane-curve counts."""
    keys = [((d,), ((a, 3 * d - a),)) for d in range(1, 31, 3) for a in range(3)]
    while len(keys) < 30 + 24:
        d, n = rng.randint(1, 4), rng.randint(3, 6)
        ins = [(rng.randrange(3), rng.randint(0, 3)) for _ in range(n - 1)] + [(1, 0)]
        shortfall = 3 * d - 1 + n - sum(a + k for a, k in ins)
        if shortfall >= 0:
            ins[0] = (ins[0][0], ins[0][1] + shortfall)
            keys.append(((d,), tuple(ins)))
    return keys + [((d,), ((2, 0),) * (3 * d - 1)) for d in (1, 2, 3, 4)]


def _point_keys(rng):
    keys = []
    for _ in range(12):
        powers = [0] * rng.randint(4, 12)
        for _ in range(len(powers) - 3):
            powers[rng.randrange(len(powers))] += 1
        keys.append(((), tuple((0, k) for k in powers)))
    return keys


def _sweep_keys(name, seed):
    """The keys of one target, each followed by its dilaton extension
    (one more unit insertion with psi), as the sweep checks its keys."""
    rng = random.Random(f"{name}/{seed}")
    keys = {
        "point": lambda: _point_keys(rng),
        "P1": lambda: _line_keys(70),
        "P2": lambda: _plane_keys(rng),
        "skew": lambda: _key_batch(SKEW, seed, 60),
        "ring": lambda: _line_keys(12) + _key_batch(RING, seed, 60),
        "seeded ring": lambda: _line_keys(30) + _key_batch(RING, seed, 60),
        "seeded half plane": lambda: _plane_keys(rng),
    }[name]()
    return [k for beta, ins in keys for k in ((beta, tuple(ins)), (beta, tuple(ins) + ((0, 1),)))]


def _full_outcome(call, *args):
    """The value, or the exception's type and message."""
    try:
        return call(*args)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


SUM_TARGETS = {
    "point": (make_target("point"), FractionSumEngine, CorrelatorEngine),
    "P1": (make_target("P1"), FractionSumEngine, CorrelatorEngine),
    "P2": (make_target("P2"), FractionSumEngine, CorrelatorEngine),
    "skew": (SKEW, FractionSumEngine, CorrelatorEngine),
    "ring": (RING, FractionSumEngine, CorrelatorEngine),
    "seeded ring": (RING, SeededFractionSumEngine, SeededEngine),
    "seeded half plane": (HALF_PLANE, SeededFractionSumEngine, SeededEngine),
}


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("name", list(SUM_TARGETS))
def test_integer_pair_sums_match_fraction_sums(name, seed):
    target, reference, engine = SUM_TARGETS[name]
    ref, new = reference(target), engine(target)
    keys = _sweep_keys(name, seed)
    values = 0
    for beta, ins in keys:
        want = _full_outcome(ref.correlator, beta, ins)
        assert _full_outcome(new.correlator, beta, ins) == want, (beta, ins)
        values += isinstance(want, Fraction) and want != 0
    for beta, ins in keys:
        for method in ("reduce_divisor_first", "reduce_recursion_first"):
            want = _full_outcome(getattr(ref, method), beta, ins)
            assert _full_outcome(getattr(new, method), beta, ins) == want, (method, beta, ins)
    assert list(new._values.items()) == list(ref._values.items())
    assert all(type(v) is Fraction for v in new._values.values())
    if name not in ("skew", "ring"):  # without a primary backend only degree zero has values
        assert values >= 20
    if name.startswith("seeded"):
        assert any(v.denominator % 2 == 0 for (beta, _), v in new._values.items() if any(beta))
