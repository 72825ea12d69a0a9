"""Differential test of the kernel layer with each of its rules written
once, against the code that wrote them twice.

The reference keeps the previous ``cone._slice``, ``_stable_pairs``,
``double_bracket`` and ``_bracket_sum``, and the engine's
``correlator_with_kernel`` and ``_block``, verbatim, docstrings dropped:

- ``_block`` checked its key as ``correlator_with_kernel`` did, in a copy
  of that check, on the gamma = 0 kernel correlator; both now call the
  engine's ``_kernel_key``;
- ``_stable_pairs`` enumerated the grades that ``_bracket_grades``
  enumerates again; it now reads that table;
- ``_slice`` summed each expansion's dimension, which
  ``_expansions_by_dim`` has grouped by; it now walks the groups;
- ``_bracket_sum`` checked the fixed slots at the first grade with an
  expansion; ``double_bracket`` now checks them before any grade.

On the point, P1 and P2, in the default window and in narrow ones, on
fresh engines and on engines warmed by another t, every builder, every
double bracket and every direct block and kernel-correlator call must
give the reference's term map, or raise its error with its message, and
leave the same values and blocks cached.  The one change is a malformed
fixed slot that the reference answered with zero, because no grade had
an expansion: it now raises ``InvalidKeyError``.

Term maps are compared as maps.  A slice now meets its expansions group
by group, so on P2 a key that only a later expansion of one dimension
reaches can come before the keys of another dimension, and a map's
insertion order can differ from the reference's; every value is the
same, and dumps and reports sort their terms.
"""

import random
from fractions import Fraction
from typing import Iterable

import pytest

from gwlab import cone
from gwlab.cone import (
    TPolynomial,
    _engine_for,
    _expansions,
    _expansions_by_dim,
    _Kernel,
    cone_point,
    default_truncation,
    descendant_potential,
    double_bracket,
    s_adjoint_corr_apply,
    s_apply,
    tangent_vector,
)
from gwlab.correlators import (
    CorrelatorEngine,
    InvalidKeyError,
    StabilityError,
    _int_pairs,
    canonical_key,
    is_stable,
)
from gwlab.localisation import localisation_sum
from gwlab.matrices import s_adjoint_matrix, s_matrix
from gwlab.series import LoopSeries, ScalarSeries, Truncation, merge, read_out
from gwlab.targets import NovikovDegree, beta_zero, iter_betas, make_target

# ---------------------------------------------------------------------------
# the reference: the previous code, verbatim


def _stable_pairs(target, trunc, extra_points, eps_order=None):
    top = trunc.epsilon_order if eps_order is None else eps_order
    for beta in iter_betas(target.class_rank, trunc.novikov_order):
        for n in range(top + 1):
            if is_stable(beta, n + extra_points):
                yield beta, n


def _slice(t: TPolynomial, beta, n: int, key, block) -> tuple:
    sums: dict = {}
    cap = block.room(beta, key) + n if isinstance(block, _Kernel) else None
    degree = t.target.basis_degrees
    for weight, monos in _expansions(t, n):
        if cap is not None and sum(degree[a] + k for a, k in monos) > cap:
            continue
        wn, wd = weight.numerator, weight.denominator
        for z_k, comps in block(beta, key, monos).items():
            for rho, cn, cd in comps:
                merge(sums, (z_k, rho), wn * cn, wd * cd)
    return tuple((z_k, rho, num, den) for (z_k, rho), (num, den) in sums.items() if num)


def reference_double_bracket(t, fixed, trunc, engine=None, extra_eps=0) -> ScalarSeries:
    fixed = tuple(sorted(_int_pairs(fixed)))
    if not fixed:
        raise StabilityError("needs at least one fixed insertion")
    return _bracket_sum(t, fixed, trunc, _engine_for(t, engine), extra_eps)


def _bracket_sum(t, fixed, trunc, engine, extra_eps) -> ScalarSeries:
    target = t.target
    top = trunc.epsilon_order - extra_eps
    views = [_expansions_by_dim(t, n) for n in range(top + 1)]
    read = engine._values.get
    used = None
    sums: dict = {}
    for beta, n, dim in cone._bracket_grades(target, trunc.novikov_order, top, len(fixed)):
        view = views[n]
        if not view:
            continue
        if used is None:
            engine._check_key(*canonical_key(beta, fixed))
            used = sum(target.degree(a) + k for a, k in fixed)
        grade = (beta, n + extra_eps)
        for weight, monos in view.get(dim - used, ()):
            ins = fixed + monos
            val = read((beta, tuple(sorted(ins))))
            if val is None:
                val = engine.correlator(beta, ins)
            if val:
                merge(sums, grade, weight.numerator * val.numerator, weight.denominator * val.denominator)
    return ScalarSeries(trunc, read_out(sums))


class ReferenceEngine(CorrelatorEngine):
    def correlator_with_kernel(
        self, beta: NovikovDegree, fixed: Iterable, kernel_alpha: int, sign: int
    ) -> dict[int, Fraction]:
        beta, fixed = canonical_key(beta, fixed)
        kernel = tuple(_int_pairs([(kernel_alpha, 0)]))  # the index read as an int, as canonical_key reads slots
        kernel_alpha = kernel[0][0]
        self._check_key(beta, fixed + kernel)
        m = len(fixed) + 1
        if not is_stable(beta, m):
            raise StabilityError(f"kernel correlator unstable: beta={beta}, {m} insertions")
        l = self._room(beta, fixed) - self.target.degree(kernel_alpha)
        val = self._kernel(beta, fixed + ((kernel_alpha, l),), l, sign) if l >= 0 else 0
        return {-1 - l: val} if val else {}

    def _block(self, beta, kernel_alpha, fixed, sign):
        key = (beta, kernel_alpha, fixed, sign)
        beta, fixed = canonical_key(beta, fixed)
        if kernel_alpha is None:
            kernel = ()
        else:  # the kernel index is read as an int, as canonical_key reads the fixed slots
            kernel = tuple(_int_pairs([(kernel_alpha, 0)]))
            kernel_alpha = kernel[0][0]
        # The gamma = 0 kernel correlator's insertions, as correlator_with_kernel checks them.
        checked = fixed + ((0, 0),) if kernel_alpha is None else tuple(sorted(fixed + ((0, 0),))) + kernel
        self._check_key(beta, checked)
        if not is_stable(beta, len(checked)):
            raise StabilityError(f"kernel correlator unstable: beta={beta}, {len(checked)} insertions")
        room = self._room(beta, fixed + kernel)
        sums: dict[int, dict] = {}
        deg = self._degrees
        for gamma, dual in enumerate(self.target.dual_terms):
            l = room - deg[gamma]
            if l < 0:
                continue
            slots = ((gamma, l),) if kernel_alpha is None else ((gamma, 0), (kernel_alpha, l))
            val = self._kernel(beta, fixed + slots, l, 1)
            if val:
                vn = -val.numerator if sign < 0 and l % 2 == 0 else val.numerator
                vec, vd = sums.setdefault(-1 - l, {}), val.denominator
                for rho, (cn, cd) in dual:
                    merge(vec, rho, vn * cn, vd * cd)
        block = {z: tuple([(rho, n, d) for rho, (n, d) in sorted(vec.items()) if n]) for z, vec in sums.items()}
        self._blocks[key] = block
        return block


# ---------------------------------------------------------------------------
# the calls compared


def _outcome(call, engine):
    """The term map call(engine) gives, or the error it raised."""
    try:
        value = call(engine)
    except ValueError as exc:  # every named error is one
        return (type(exc).__name__, str(exc))
    return ("terms", value if isinstance(value, dict) else value.terms)


def _malformed(rank):
    """Fixed slots with a basis index out of range or negative, or a
    negative psi power, alone and beside a valid slot; the psi power 40
    fills no dimension of these windows."""
    bad = [(rank, 0), (-1, 0), (0, -1), (rank, 40), (0, -3)]
    return [(slot,) for slot in bad] + [(slot, (0, 0)) for slot in bad]


def _bracket_calls(t, trunc, bracket):
    """(label, call of an engine) for seeded fixed slots of one to three
    slots, the extra eps orders 0, 1 and one past the eps order, and the
    malformed slots of ``_malformed``."""
    rank, top = t.target.rank, trunc.epsilon_order
    rng = random.Random(f"kernel-rules/{t.target.name}/{t.coeffs}")
    fixeds = [
        tuple((rng.randrange(rank), rng.randrange(5)) for _ in range(size)) for size in (1, 2, 3) for _ in range(4)
    ]
    fixeds += [(), ((Fraction(1, 2), 0),)] + _malformed(rank)
    return [
        (f"bracket {fixed} {extra_eps}", lambda e, f=fixed, x=extra_eps: bracket(t, f, trunc, e, x))
        for fixed in fixeds
        for extra_eps in (0, 1, top + 1)
    ]


def _builders(t, trunc):
    """(label, call of an engine) for each builder that reads the kernel layer."""
    target = t.target
    b0 = beta_zero(target.class_rank)
    r = {(0, a, b0, 0): Fraction(a + 1, 2) for a in range(target.rank)} | {(1, 0, b0, 1): Fraction(-3)}
    out = [
        ("descendant_potential", lambda e: descendant_potential(t, trunc, e)),
        ("cone_point", lambda e: cone_point(t, trunc, e)),
        ("s_apply cone point", lambda e: s_apply(t, cone_point(t, trunc, e), trunc, e)),
        ("s_apply z^-1", lambda e: s_apply(t, LoopSeries.basis(target, trunc, target.rank - 1, -1), trunc, e)),
        ("localisation_sum", lambda e: localisation_sum(t, trunc, e)),
        ("s_matrix", lambda e: s_matrix(t, trunc, e).entries),
        ("s_adjoint_matrix", lambda e: s_adjoint_matrix(t, trunc, e).entries),
    ]
    out += [
        (f"adjoint {sign}", lambda e, s=sign: s_adjoint_corr_apply(t, LoopSeries(target, trunc, r), s, trunc, e))
        for sign in (1, -1)
    ]
    out += [
        (f"tangent {alpha} {k}", lambda e, a=alpha, k=k: tangent_vector(t, a, k, trunc, e))
        for alpha in range(target.rank)
        for k in range(2)
    ]
    return out


def _engine_calls(target):
    """Direct block and kernel-correlator calls: degrees up to 2, fixed
    slots that leave the kernel room or none, malformed and unstable keys."""
    rank, width = target.rank, target.class_rank
    betas = [(d,) * width for d in range(3)] + [(1,) * (width + 1), (-1,) * max(width, 1)]
    fixeds = [(), ((0, 0),), ((rank - 1, 0), (0, 1)), ((0, 2), (rank - 1, 0)), ((rank, 0),), ((0, -1), (0, 0))]
    out = []
    for beta in betas:
        for fixed in fixeds:
            for sign in (1, -1):
                out.append((f"fibre {beta} {fixed} {sign}", lambda e, b=beta, f=fixed, s=sign: e.fibre_block(b, f, s)))
            for alpha in (-1, 0, rank - 1, rank, 1.5):
                out.append((f"flow {beta} {alpha} {fixed}", lambda e, b=beta, a=alpha, f=fixed: e.flow_block(b, a, f)))
                out.append((
                    f"kernel {beta} {alpha} {fixed}",
                    lambda e, b=beta, a=alpha, f=fixed: e.correlator_with_kernel(b, f, a, -1),
                ))
    return out


def _run(t, trunc, engine, reference):
    """The outcome of every call, in one engine, in the new or the reference code."""
    bracket = reference_double_bracket if reference else double_bracket
    calls = _builders(t, trunc) + _bracket_calls(t, trunc, bracket) + _engine_calls(t.target)
    return [(label, _outcome(call, engine)) for label, call in calls]


def _reference_run(t, trunc, engine, monkeypatch):
    with monkeypatch.context() as patch:
        for name, reference in (("_slice", _slice), ("_stable_pairs", _stable_pairs), ("_bracket_sum", _bracket_sum)):
            patch.setattr(cone, name, reference)
        return _run(t, trunc, engine, True)


CONFIGS = [("point", 0, 4, 1), ("P1", 2, 2, 1), ("P1", 1, 3, 2), ("P2", 2, 2, 1), ("P2", 1, 3, 2)]
# The default window, its lower half and third, and z_max 1, as (z_min, z_max) of the default's.
WINDOWS = {
    "default": lambda z_min, z_max: (z_min, z_max),
    "half": lambda z_min, z_max: (z_min // 2, z_max),
    "third": lambda z_min, z_max: (z_min // 3, z_max),
    "z_max 1": lambda z_min, z_max: (z_min, 1),
}


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize("window", list(WINDOWS))
@pytest.mark.parametrize("name, D, E, T", CONFIGS)
def test_every_call_matches_reference(name, D, E, T, window, warm, monkeypatch):
    target = make_target(name)
    default = default_truncation(target, D, E, T)
    trunc = Truncation(D, E, *WINDOWS[window](default.z_min, default.z_max))
    t = TPolynomial.random(target, T, 7)
    ref, new = ReferenceEngine(target), CorrelatorEngine(target)
    if warm:
        other = TPolynomial.random(target, T, 11)
        _reference_run(other, trunc, ref, monkeypatch)
        _run(other, trunc, new, False)
    want = _reference_run(t, trunc, ref, monkeypatch)
    got = _run(t, trunc, new, False)
    fixed_now = 0
    for (label, was), (_, now) in zip(want, got):
        if label.startswith("bracket") and was == ("terms", {}) and now[0] == "InvalidKeyError":
            fixed_now += 1  # a malformed slot that no grade reached
            continue
        assert now == was, label
    assert len(got) == len(want)
    assert new._values == ref._values
    assert new._blocks == ref._blocks
    kinds = {was[0] for _, was in want}
    assert {"terms", "InvalidKeyError", "StabilityError"} <= kinds
    assert window == "half" or ("TruncationOverflowError" in kinds) == (window != "default")
    assert fixed_now  # one past the eps order, no grade reaches a malformed slot


# ---------------------------------------------------------------------------
# the slots the reference answered with zero


P2 = make_target("P2")


@pytest.mark.parametrize(
    "fixed, message",
    [
        (((7, 0),), "basis index 7 out of range for P2 (rank 3)"),
        (((0, -3), (1, 0)), "psi powers must be non-negative"),
    ],
)
def test_a_malformed_fixed_slot_raises_where_no_grade_has_an_expansion(fixed, message):
    t = TPolynomial.random(P2, 1, 7)
    narrow = Truncation(0, 1, -8, 3)  # degree zero: one fixed slot needs two t-slots, past eps order 1
    assert reference_double_bracket(t, fixed, narrow, CorrelatorEngine(P2), extra_eps=1).terms == {}
    for trunc, extra_eps in ((narrow, 1), (narrow, 0), (default_truncation(P2, 1, 1, 1), 0)):
        with pytest.raises(InvalidKeyError) as info:
            double_bracket(t, fixed, trunc, extra_eps=extra_eps)
        assert str(info.value) == message
