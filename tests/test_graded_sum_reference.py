"""Differential test of the graded sums that end in ``series.merge``
against the ``Fraction`` sums they replaced.

The reference below keeps the previous ``ScalarSeries.add``, ``scale``
and ``mul``, ``LoopSeries.add`` and ``_pair``, ``cone._bracket_sum``,
``matrices.poincare_adjoint`` and ``checks._universal_relation``
verbatim, docstrings dropped; the one edit is that the scalar
operations build their result through the local ``_from_clean``, since
``ScalarSeries._from_clean`` is gone.  Each summed ``Fraction`` products
term by term; now products are merged on integer pairs and each
``Fraction`` is formed once.

Over seeded series on the point, P1 and P2, with cancelling keys, mixed
denominators, zero matrix entries and, for ``mul``, raw terms past the
truncation, the new path must give the same terms in the same order;
``omega``, into which ``_pair`` was folded, is compared with the
reference ``_pair`` at z-sum -1 with the flip, re-keyed by grade.
The bracket sum, which now reads each key straight from the engine's
value table, is also compared on engines warmed by another t (no key
asked of ``engine.correlator``), for the potential's empty fixed slots,
for a P2 t on a P1 engine and for malformed fixed slots, which must raise
the reference's named error with its message.
The one exception is a nonzero universal relation, compared as a map:
the old chain of ``add`` calls dropped keys that cancelled partway and
appended them again later.  The universal report must stay identical,
sound and with 1/7 added to every double bracket.
"""

import json
import random
from fractions import Fraction

import pytest

from gwlab import checks, cone
from gwlab.cone import TPolynomial, _expansions_by_dim, _stable_pairs, default_truncation
from gwlab.correlators import CorrelatorEngine, canonical_key, vdim
from gwlab.matrices import EndoSeries, poincare_adjoint, s_adjoint_matrix, s_matrix
from gwlab.series import LoopSeries, MismatchError, ScalarSeries, Truncation, summed
from gwlab.targets import NovikovDegree, beta_add, beta_total, beta_zero, iter_betas, make_target

# ---------------------------------------------------------------------------
# the reference: the previous sums, verbatim


def _from_clean(trunc: Truncation, terms: dict) -> ScalarSeries:
    out = ScalarSeries.__new__(ScalarSeries)
    out.trunc, out.terms = trunc, {key: val for key, val in terms.items() if val}
    return out


def scalar_add(self, other: "ScalarSeries") -> "ScalarSeries":
    if self.trunc != other.trunc:
        raise MismatchError("scalar series truncations differ")
    out = dict(self.terms)
    for key, val in other.terms.items():
        out[key] = out.get(key, Fraction(0)) + val
    return _from_clean(self.trunc, out)


def scalar_scale(self, c) -> "ScalarSeries":
    c = Fraction(c)
    return _from_clean(self.trunc, {k: c * v for k, v in self.terms.items()})


def scalar_mul(self, other: "ScalarSeries") -> "ScalarSeries":
    if self.trunc != other.trunc:
        raise MismatchError("scalar series truncations differ")
    D, E = self.trunc.novikov_order, self.trunc.epsilon_order
    right = [(b2, beta_total(b2), e2, v2) for (b2, e2), v2 in other.terms.items()]
    out: dict[tuple[NovikovDegree, int], Fraction] = {}
    for (b1, e1), v1 in self.terms.items():
        room_beta, room_eps = D - beta_total(b1), E - e1
        for b2, deg2, e2, v2 in right:
            if deg2 <= room_beta and e2 <= room_eps:
                key = (beta_add(b1, b2), e1 + e2)
                out[key] = out.get(key, Fraction(0)) + v1 * v2
    return _from_clean(self.trunc, out)


def loop_add(self, other: "LoopSeries") -> "LoopSeries":
    self._check_compatible(other)
    out = dict(self.terms)
    for key, val in other.terms.items():
        out[key] = out.get(key, Fraction(0)) + val
    return LoopSeries(self.target, self.trunc, out)


def loop_pair(self, other: "LoopSeries", z_sum: int | None = None, flip: bool = False) -> dict:
    self._check_compatible(other)
    max_n = self.trunc.novikov_order
    max_e = self.trunc.epsilon_order
    buckets: dict[int, list] = {}
    for (z2, a2, b2, e2), v2 in other.terms.items():
        buckets.setdefault(z2, []).append((a2, b2, beta_total(b2), e2, v2))
    pairing = self.target.pairing
    out: dict[tuple[int, NovikovDegree, int], Fraction] = {}
    for (z1, a1, b1, e1), v1 in self.terms.items():
        if flip and z1 % 2:
            v1 = -v1
        row = pairing[a1]
        n1 = beta_total(b1)
        for z2 in buckets if z_sum is None else (z_sum - z1,):
            for a2, b2, n2, e2, v2 in buckets.get(z2, ()):
                p = row[a2]
                if not p or n1 + n2 > max_n or e1 + e2 > max_e:
                    continue
                key = (z1 + z2, beta_add(b1, b2), e1 + e2)
                out[key] = out.get(key, Fraction(0)) + v1 * v2 * p
    return {k: v for k, v in out.items() if v}


def _bracket_sum(t, fixed, trunc, engine, extra_eps) -> ScalarSeries:
    target = t.target
    top = trunc.epsilon_order - extra_eps
    views = [_expansions_by_dim(t, n) for n in range(top + 1)]
    used = None
    terms: dict = {}
    for beta, n in _stable_pairs(target, trunc, len(fixed), top):
        if (not fixed and not n) or not views[n]:
            continue
        if used is None:
            engine._check_key(*canonical_key(beta, fixed))
            used = sum(target.degree(a) + k for a, k in fixed)
        for weight, monos in views[n].get(vdim(target, beta, n + len(fixed)) - used, ()):
            val = engine.correlator(beta, fixed + monos)
            if val:
                key = (beta, n + extra_eps)
                terms[key] = terms.get(key, Fraction(0)) + weight * val
    return ScalarSeries(trunc, terms)


def _poincare_adjoint(e: EndoSeries) -> EndoSeries:
    target = e.target
    p = target.pairing
    pinv = target.pairing_inverse
    entries = {}
    for (z, row, col, beta, eps), val in e.entries.items():
        for r in range(target.rank):
            for c in range(target.rank):
                w = pinv[r][col] * p[row][c]
                if w:
                    key = (z, r, c, beta, eps)
                    entries[key] = entries.get(key, Fraction(0)) + w * val
    return EndoSeries(target, e.trunc, {key: val for key, val in entries.items() if val})


def _universal_relation(t: TPolynomial, k: int, alpha: int, trunc: Truncation, bracket) -> ScalarSeries:
    pinv = t.target.pairing_inverse
    total = ScalarSeries(trunc, {})
    for j, a, c in t.monomials():
        total = total.add(bracket(((a, k - 1 + j), (alpha, 0)), 1).scale(c))
    total = total.add(bracket(((0, k), (alpha, 0)), 0).scale(-1))
    total = total.add(bracket(((alpha, k - 1),), 0).scale(Fraction(-1) ** k))
    for r in range(k - 1):
        sign = Fraction(-1) ** (1 + r)
        for mu in range(t.target.rank):
            one_pt = bracket(((mu, r),), 0)
            if one_pt.is_zero():
                continue
            two_pt = ScalarSeries(trunc, {})
            for nu, w in enumerate(pinv[mu]):
                if w:
                    two_pt = two_pt.add(bracket(((nu, k - 2 - r), (alpha, 0)), 0).scale(w))
            total = total.add(one_pt.mul(two_pt).scale(sign))
    return total


def _use_reference_scalar_ops(monkeypatch) -> None:
    """Put the previous scalar operations on ``ScalarSeries``, for the
    reference universal relation."""
    for name, op in (("add", scalar_add), ("scale", scalar_scale), ("mul", scalar_mul)):
        monkeypatch.setattr(ScalarSeries, name, op)


# ---------------------------------------------------------------------------
# seeded inputs

TARGETS = ("point", "P1", "P2")
SEEDS = (1, 7, 13)


def _value(rng) -> Fraction:
    """A rational with a seeded denominator, zero about one time in twenty."""
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9, 10, 12)))


def _scalar_terms(rng, rank, trunc, past=0, size=8) -> dict:
    D, E = trunc.novikov_order, trunc.epsilon_order
    betas = iter_betas(rank, D + past)
    return {(rng.choice(betas), rng.randint(0, E + past)): _value(rng) for _ in range(rng.randint(0, size))}


def _cancelling(rng, terms: dict, fresh: dict) -> dict:
    """``fresh`` with about half of ``terms`` negated, some exactly and
    some with a seeded remainder, so sums cancel at shared keys."""
    out = dict(fresh)
    for key, val in terms.items():
        if rng.random() < 0.5:
            out[key] = -val if rng.random() < 0.6 else -val + _value(rng)
    keys = list(out)
    rng.shuffle(keys)
    return {key: out[key] for key in keys}


def _scalar_pair(rng, rank, trunc):
    left = ScalarSeries(trunc, _scalar_terms(rng, rank, trunc))
    right = ScalarSeries(trunc, _cancelling(rng, left.terms, _scalar_terms(rng, rank, trunc)))
    return left, right


def _loop_terms(rng, target, trunc, size=10) -> dict:
    betas = iter_betas(target.class_rank, trunc.novikov_order)
    return {
        (
            rng.randint(trunc.z_min, trunc.z_max),
            rng.randrange(target.rank),
            rng.choice(betas),
            rng.randint(0, trunc.epsilon_order),
        ): _value(rng)
        for _ in range(rng.randint(0, size))
    }


def _loop_pair(rng, target, trunc):
    left = LoopSeries(target, trunc, _loop_terms(rng, target, trunc))
    right = LoopSeries(target, trunc, _cancelling(rng, left.terms, _loop_terms(rng, target, trunc)))
    return left, right


def _trunc(rng, target):
    return default_truncation(target, rng.randint(0, 3), rng.randint(0, 3), 1)


# ---------------------------------------------------------------------------
# scalar series


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TARGETS)
def test_scalar_add_scale_mul_match_reference(name, seed):
    rng = random.Random(f"graded-sum/scalar/{name}/{seed}")
    rank = make_target(name).class_rank
    cancelled = 0
    for _ in range(200):
        trunc = _trunc(rng, make_target(name))
        left, right = _scalar_pair(rng, rank, trunc)
        want = list(scalar_add(left, right).terms.items())
        assert list(left.add(right).terms.items()) == want
        cancelled += len(want) < len(left.terms.keys() | right.terms.keys())
        for c in (0, 1, -1, Fraction(-3, 4), _value(rng)):
            assert list(left.scale(c).terms.items()) == list(scalar_scale(left, c).terms.items())
        assert list(left.mul(right).terms.items()) == list(scalar_mul(left, right).terms.items())
        assert all(type(v) is Fraction for v in left.add(right).terms.values())
    assert cancelled


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TARGETS)
def test_mul_of_raw_terms_past_the_truncation_matches_reference(name, seed):
    rng = random.Random(f"graded-sum/raw-mul/{name}/{seed}")
    rank = make_target(name).class_rank
    for _ in range(200):
        trunc = _trunc(rng, make_target(name))
        past = rng.choice((1, 2))
        left = _from_clean(trunc, _scalar_terms(rng, rank, trunc, past))
        right = _from_clean(trunc, _cancelling(rng, left.terms, _scalar_terms(rng, rank, trunc, past)))
        want = list(scalar_mul(left, right).terms.items())
        assert list(left.mul(right).terms.items()) == want


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TARGETS)
def test_two_part_combination_matches_reference_add_of_scales(name, seed):
    """``summed`` of two parts keeps the order of the previous add of two
    scaled series, a zero coefficient included: its products insert no key."""
    rng = random.Random(f"graded-sum/summed/{name}/{seed}")
    rank = make_target(name).class_rank
    for _ in range(200):
        trunc = _trunc(rng, make_target(name))
        left, right = _scalar_pair(rng, rank, trunc)
        c1, c2 = rng.choice((0, _value(rng))), rng.choice((0, 1, _value(rng)))
        want = scalar_add(scalar_scale(left, c1), scalar_scale(right, c2))
        got = summed(((c1, left.terms), (c2, right.terms)))
        assert list(got.items()) == list(want.terms.items())


def test_mismatched_truncations_raise_as_in_reference():
    target = make_target("P1")
    left = ScalarSeries(default_truncation(target, 2, 2, 1), {((1,), 1): 1})
    right = ScalarSeries(default_truncation(target, 2, 3, 1), {((1,), 1): 1})
    for new, ref in ((ScalarSeries.add, scalar_add), (ScalarSeries.mul, scalar_mul)):
        with pytest.raises(MismatchError) as want:
            ref(left, right)
        with pytest.raises(MismatchError) as got:
            new(left, right)
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# loop series


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TARGETS)
def test_loop_add_and_pairing_match_reference(name, seed):
    rng = random.Random(f"graded-sum/loop/{name}/{seed}")
    target = make_target(name)
    flipped = 0
    for _ in range(150):
        trunc = _trunc(rng, target)
        left, right = _loop_pair(rng, target, trunc)
        assert list(left.add(right).terms.items()) == list(loop_add(left, right).terms.items())
        assert list((left - right).terms.items()) == list(loop_add(left, right.scale(-1)).terms.items())
        omega = {(beta, eps): val for (_, beta, eps), val in loop_pair(left, right, -1, True).items()}
        assert list(left.omega(right).terms.items()) == list(omega.items())
        flipped += any(z % 2 for z, *_ in left.terms) and bool(omega)
    assert flipped


def test_loop_mismatch_raises_as_in_reference():
    p1, p2 = make_target("P1"), make_target("P2")
    for left, right in (
        (LoopSeries.basis(p1, default_truncation(p1, 2, 2, 1), 0), LoopSeries.basis(p2, default_truncation(p2, 2, 2, 1), 0)),
        (LoopSeries.basis(p1, default_truncation(p1, 2, 2, 1), 0), LoopSeries.basis(p1, default_truncation(p1, 2, 3, 1), 0)),
    ):
        for new, ref in ((LoopSeries.add, loop_add), (LoopSeries.omega, loop_pair)):
            with pytest.raises(MismatchError) as want:
                ref(left, right)
            with pytest.raises(MismatchError) as got:
                new(left, right)
            assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# brackets and the adjoint


def _setting(name, seed):
    target = make_target(name)
    return target, TPolynomial.random(target, 1, seed), default_truncation(target, 2, 3, 1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TARGETS)
def test_bracket_sums_match_reference(name, seed):
    target, t, trunc = _setting(name, seed)
    engine = CorrelatorEngine(target)
    rng = random.Random(f"graded-sum/bracket/{name}/{seed}")
    nonzero = 0
    for size in (0, 1, 2, 3):
        for _ in range(8 if size else 1):
            fixed = tuple(sorted((rng.randrange(target.rank), rng.randrange(5)) for _ in range(size)))
            for extra_eps in (0, 1):
                want = list(_bracket_sum(t, fixed, trunc, engine, extra_eps).terms.items())
                assert list(cone._bracket_sum(t, fixed, trunc, engine, extra_eps).terms.items()) == want
                nonzero += bool(want)
    assert nonzero


def _bracket_outcome(fn, t, fixed, trunc, engine, extra_eps):
    """The terms of a bracket sum in insertion order, or the named error it raised."""
    try:
        return ("terms", list(fn(t, fixed, trunc, engine, extra_eps).terms.items()))
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


def _full_support(target, degree) -> TPolynomial:
    """t with every coefficient 1: its keys hold those of every t of its degree."""
    return TPolynomial(target, ((Fraction(1),) * target.rank,) * (degree + 1))


def _bracket_cases(target, seed):
    """Seeded fixed slots of one to three slots, each with extra eps 0 and 1,
    and the potential's empty fixed slots."""
    rng = random.Random(f"graded-sum/bracket-cases/{target.name}/{seed}")
    fixed = [tuple(sorted((rng.randrange(target.rank), rng.randrange(5)) for _ in range(size)))
             for size in (1, 2, 3) for _ in range(6)]
    return [((), 0)] + [(f, extra_eps) for f in fixed for extra_eps in (0, 1)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TARGETS)
def test_bracket_sums_on_a_warm_engine_read_every_key_from_the_table(name, seed, monkeypatch):
    """An engine filled by another t: the new sum reads every key from the
    value table, never asks ``engine.correlator``, and gives the reference
    terms."""
    target, t, trunc = _setting(name, seed)
    engine = CorrelatorEngine(target)
    cases = _bracket_cases(target, seed)
    for fixed, extra_eps in cases:
        _bracket_sum(_full_support(target, 1), fixed, trunc, engine, extra_eps)
    filled = len(engine._values)
    monkeypatch.setattr(engine, "correlator", lambda *key: pytest.fail(f"correlator asked for {key}"))
    got = [_bracket_outcome(cone._bracket_sum, t, fixed, trunc, engine, e) for fixed, e in cases]
    monkeypatch.undo()
    want = [_bracket_outcome(_bracket_sum, t, fixed, trunc, engine, e) for fixed, e in cases]
    assert got == want
    assert len(engine._values) == filled
    assert any(w[0] == "terms" and w[1] for w in want)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TARGETS)
def test_descendant_potential_matches_reference_on_fresh_and_warm_engines(name, seed):
    target, t, trunc = _setting(name, seed)
    engine = CorrelatorEngine(target)
    want = list(_bracket_sum(t, (), trunc, CorrelatorEngine(target), 0).terms.items())
    assert want
    assert list(cone.descendant_potential(t, trunc, engine).terms.items()) == want
    assert list(cone.descendant_potential(t, trunc, engine).terms.items()) == want


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
def test_a_p1_engine_given_a_p2_t_raises_as_reference(warm):
    """P2's t names basis index 2, which P1 lacks: the first key that holds
    it is a miss, checked by ``engine.correlator`` as in the reference."""
    p1, p2 = make_target("P1"), make_target("P2")
    t, trunc = TPolynomial.random(p2, 1, 7), default_truncation(p2, 2, 3, 1)
    cases = [(fixed, extra_eps) for fixed in (((1, 0),), ((0, 2), (1, 0)), ((0, 1),)) for extra_eps in (0, 1)]
    cases.append(((), 0))

    def engine():
        out = CorrelatorEngine(p1)
        if warm:
            for fixed, extra_eps in cases:
                _bracket_sum(_full_support(p1, 1), fixed, default_truncation(p1, 2, 3, 1), out, extra_eps)
        return out

    for fixed, extra_eps in cases:
        want = _bracket_outcome(_bracket_sum, t, fixed, trunc, engine(), extra_eps)
        assert want == ("InvalidKeyError", "basis index 2 out of range for P1 (rank 2)"), fixed
        assert _bracket_outcome(cone._bracket_sum, t, fixed, trunc, engine(), extra_eps) == want


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TARGETS)
def test_malformed_fixed_slots_raise_as_reference(name, seed):
    """A negative psi power or a bad basis index in a fixed slot, alone or
    beside a valid one, on fresh and warm engines, through ``double_bracket``,
    which checks the slots before any grade.  Every case here has a grade
    with an expansion, so none raises where the reference returned zero."""
    target, t, trunc = _setting(name, seed)
    rank = target.rank
    warm = CorrelatorEngine(target)
    for fixed, extra_eps in _bracket_cases(target, seed):
        _bracket_sum(_full_support(target, 1), fixed, trunc, warm, extra_eps)
    raised = 0
    for slot in ((0, -1), (rank - 1, -3), (rank, 0), (-1, 0), (rank + 2, 1)):
        for fixed in ((slot,), tuple(sorted((slot, (0, 0)))), tuple(sorted((slot, (rank - 1, 1))))):
            for extra_eps in (0, 1):
                for engine in (CorrelatorEngine(target), warm):
                    want = _bracket_outcome(_bracket_sum, t, fixed, trunc, engine, extra_eps)
                    assert _bracket_outcome(cone.double_bracket, t, fixed, trunc, engine, extra_eps) == want
                    raised += want[0] == "InvalidKeyError"
    assert raised


def _entries(rng, target, trunc) -> dict:
    """Seeded matrix entries, about one in twenty of them zero."""
    return {(z, row, rng.randrange(target.rank), beta, eps): val for (z, row, beta, eps), val in _loop_terms(rng, target, trunc, 16).items()}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TARGETS)
def test_poincare_adjoint_matches_reference(name, seed):
    target, t, trunc = _setting(name, seed)
    rng = random.Random(f"graded-sum/adjoint/{name}/{seed}")
    matrices = [s_matrix(t, trunc), s_adjoint_matrix(t, trunc)]
    matrices += [EndoSeries(target, trunc, _entries(rng, target, trunc)) for _ in range(40)]
    assert any(0 in m.entries.values() for m in matrices)
    for m in matrices:
        assert list(poincare_adjoint(m).entries.items()) == list(_poincare_adjoint(m).entries.items())


# ---------------------------------------------------------------------------
# universal relations


def _seeded_bracket(rng, target, trunc):
    """A memoised stand-in for the double bracket: seeded series, so the
    relations are nonzero and cancel at many keys."""
    memo: dict = {}

    def bracket(fixed, extra_eps):
        key = (tuple(sorted(fixed)), extra_eps)
        if key not in memo:
            memo[key] = ScalarSeries(trunc, _scalar_terms(rng, target.class_rank, trunc, size=12))
        return memo[key]

    return bracket


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TARGETS)
def test_universal_relation_matches_reference_as_a_map(name, seed, monkeypatch):
    target, t, trunc = _setting(name, seed)
    bracket = _seeded_bracket(random.Random(f"graded-sum/universal/{name}/{seed}"), target, trunc)
    cases = [(k, alpha) for k in range(2, 6) for alpha in range(target.rank)]
    got = [checks._universal_relation(t, k, alpha, trunc, bracket) for k, alpha in cases]
    _use_reference_scalar_ops(monkeypatch)
    want = [_universal_relation(t, k, alpha, trunc, bracket) for k, alpha in cases]
    assert got == want
    assert sum(not w.is_zero() for w in want) > len(cases) // 2


def _plus_seventh(value: ScalarSeries, target) -> ScalarSeries:
    """value plus the constant 1/7."""
    b0 = beta_zero(target.class_rank)
    return value.add(ScalarSeries(value.trunc, {(b0, 0): Fraction(1, 7)}))


def _untimed(report) -> str:
    payload = report.as_dict()
    payload.pop("elapsed_s")
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("faulty", [False, True], ids=["sound", "faulty"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TARGETS)
def test_universal_report_matches_reference(name, seed, faulty, monkeypatch):
    target, t, trunc = _setting(name, seed)
    if faulty:
        real = checks.double_bracket
        monkeypatch.setattr(checks, "double_bracket", lambda t, *a, **k: _plus_seventh(real(t, *a, **k), t.target))
    new = checks.check_universal_relations(t, 4, trunc, CorrelatorEngine(target), seed=seed)
    _use_reference_scalar_ops(monkeypatch)
    monkeypatch.setattr(checks, "_universal_relation", _universal_relation)
    ref = checks.check_universal_relations(t, 4, trunc, CorrelatorEngine(target), seed=seed)
    assert ref.passed is not faulty
    assert _untimed(new) == _untimed(ref)
