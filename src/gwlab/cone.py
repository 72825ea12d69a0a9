"""Generating-function builders: dilaton shift, descendant potential,
cone point, the solution operator in its three extensions, tangent
vectors and double brackets.

Every t-insertion carries one order of the bookkeeping grading eps, so
the infinite insertion sums of the theory become finite order-by-order;
the dilaton summand -z*1 sits at eps order zero.  All builders sum over
the stable range only and delegate every correlator to the shared
engine; they are pure given the engine cache.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from math import factorial
from typing import NamedTuple

from .correlators import (
    _EXPANSIONS_CACHE_SIZE, Block, CorrelatorEngine, StabilityError, _int_pairs, canonical_key, get_engine, is_stable,
    vdim,
)
from .series import (
    LoopSeries,
    MismatchError,
    ScalarSeries,
    SeriesAccumulator,
    Truncation,
    TruncationOverflowError,
    merge,
    read_out,
)
from .targets import CohVector, TargetSpace, beta_add, beta_total, beta_zero, iter_betas


@dataclass(frozen=True)
class TPolynomial:
    """t(z) = sum_k t_k z^k with exact rational coordinates, k = 0..T."""

    target: TargetSpace
    coeffs: tuple[CohVector, ...]

    def __post_init__(self):
        for vec in self.coeffs:
            if len(vec) != self.target.rank:
                raise MismatchError("coefficient vector length does not match the basis")

    @cached_property
    def _hash(self) -> int:
        # As for TargetSpace: t keys the expansion caches.
        return hash((self.target, self.coeffs))

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def monomials(self) -> tuple[tuple[int, int, Fraction], ...]:
        """Nonzero (z-power, basis index, coefficient) triples."""
        return tuple(
            (k, alpha, c) for k, row in enumerate(self.coeffs) for alpha, c in enumerate(row) if c
        )

    @classmethod
    def zero(cls, target: TargetSpace, degree: int = 0) -> "TPolynomial":
        return cls(target, tuple((Fraction(0),) * target.rank for _ in range(degree + 1)))

    @classmethod
    def random(cls, target: TargetSpace, degree: int, seed: int) -> "TPolynomial":
        """Seeded coefficients p/q with |p| <= 9 and 1 <= q <= 9, reproducible from the seed."""
        rng = random.Random(seed)
        coeffs = tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(target.rank))
            for _ in range(degree + 1)
        )
        return cls(target, coeffs)


def dilaton_shift(t: TPolynomial, trunc: Truncation) -> LoopSeries:
    """q(z) = t(z) - z*1, the cone point's degree-zero grade pieces: t at
    eps order 1 (dropped at eps order zero) and the shift at 0."""
    acc = SeriesAccumulator(t.target, trunc)
    for n in (0, 1):
        _cone_grade(acc, t, beta_zero(t.target.class_rank), n, None)
    return acc.series()


@lru_cache(maxsize=_EXPANSIONS_CACHE_SIZE)
def _expansions(t: TPolynomial, n: int) -> tuple[tuple[Fraction, tuple[tuple[int, int], ...]], ...]:
    """Multilinear expansion of n identical t(psi) slots.

    Yields (weight, insertions) over multisets of monomials of t, with
    weight prod_j c_j^{m_j} / m_j! -- the 1/n! of the generating sum
    combined with the multinomial count of orderings -- formed once from
    the integer products of its numerators and denominators.
    """
    monos = t.monomials()
    out = []
    for combo in combinations_with_replacement(range(len(monos)), n):
        num = den = 1
        for idx, m in Counter(combo).items():
            c = monos[idx][2]
            num *= c.numerator ** m
            den *= c.denominator ** m * factorial(m)
        insertions = tuple(sorted((monos[idx][1], monos[idx][0]) for idx in combo))
        out.append((Fraction(num, den), insertions))
    return tuple(out)


@lru_cache(maxsize=_EXPANSIONS_CACHE_SIZE)
def _expansions_by_dim(t: TPolynomial, n: int) -> dict[int, tuple]:
    """``_expansions(t, n)`` grouped by dimension, the sum of deg a + k
    over the insertions, each group in expansion order.  A correlator is
    zero unless its insertions fill the virtual dimension exactly, so a
    bracket of one (beta, n) only ever needs one group."""
    degree = t.target.degree
    groups: dict[int, list] = {}
    for weight, monos in _expansions(t, n):
        groups.setdefault(sum(degree(a) + k for a, k in monos), []).append((weight, monos))
    return {dim: tuple(group) for dim, group in groups.items()}


def kernel_depth_bound(target: TargetSpace, D: int, E: int) -> int:
    """Largest psi power a kernel slot can carry within (D, E), from the
    dimension filter over all degrees <= D and at most E+2 insertions."""
    c1_max = max((target.c1_pairing(b) for b in iter_betas(target.class_rank, D)), default=0)
    return max(0, target.dim - 3 + c1_max + E + 2)


def sufficient_window(target: TargetSpace, D: int, E: int, T: int) -> tuple[int, int]:
    """A window wide enough for every builder here, including applying the
    solution operator to the cone point (two kernel depths stack, hence
    the factor of two; a conservative overestimate is fine)."""
    depth = kernel_depth_bound(target, D, E)
    return (-2 * (1 + depth), max(T, 1) + 1)


def default_truncation(target: TargetSpace, D: int, E: int, T: int) -> Truncation:
    z_min, z_max = sufficient_window(target, D, E, T)
    return Truncation(D, E, z_min, z_max)


def _stable_pairs(
    target: TargetSpace, trunc: Truncation, extra_points: int, eps_order: int | None = None
):
    """(beta, n) pairs with beta within the Novikov order and n at most
    ``eps_order`` (the truncation's eps order by default) for which
    (beta, n + extra_points) is a stable configuration."""
    top = trunc.epsilon_order if eps_order is None else eps_order
    for beta in iter_betas(target.class_rank, trunc.novikov_order):
        for n in range(top + 1):
            if is_stable(beta, n + extra_points):
                yield beta, n


class _Kernel(NamedTuple):
    """The kernel blocks of one engine, as ``_kernel_sum`` reads them.

    With ``sign`` None the flow kind, block(beta, a, monos) =
    ``engine.flow_block(beta, a, monos)``; else the fibre kind of that
    sign, block(beta, slot, monos) = ``engine.fibre_block(beta, monos +
    slot, sign)``.  Both are looked up on the engine at call time.
    """

    engine: CorrelatorEngine
    sign: int | None = None

    def __call__(self, beta, key, monos) -> Block:
        if self.sign is None:
            return self.engine.flow_block(beta, key, monos)
        return self.engine.fibre_block(beta, monos + key, self.sign)

    def room(self, beta, key) -> int:
        """The ``_room`` of the key's own slots.  The block of n t-insertions
        of dimension d has room this + n - d, and is empty when that is
        negative."""
        return self.engine._room(beta, ((key, 0),) if self.sign is None else key)


def _slice(t: TPolynomial, beta, n: int, key, block) -> tuple:
    """The kernel slice, sum weight * block(beta, key, monos) over the
    expansions (weight, monos) of n t-slots, as its nonzero integer sums
    (z_k, rho, num, den).  A ``_Kernel`` is not asked for a block whose
    expansion's dimension, the sum of deg a + k over monos, leaves it no
    ``room``.  Kept slices, tuples of integers, are not tracked by the garbage collector.
    """
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


def _kernel_sum(acc: SeriesAccumulator, t: TPolynomial, grades, operand, block) -> None:
    """Add sum Q^beta eps^n / n! (operand paired with a kernel block) to acc.

    ``grades`` lists the kernel grades (beta, n); ``operand`` is a list of
    (key, terms) with terms (z_out, beta_o, eps_o, c); ``block(beta, key,
    monos)`` is the kernel, a ``correlators.Block`` (z_k -> its nonzero
    (rho, num, den)), for the operand key and the n t-insertions ``monos``.
    Each term adds c * weight * block at z_out + z_k in grade (beta_o +
    beta, eps_o + n), and meets only the kernel grades that leave it room
    within the truncation; a grade that meets no term builds no block.

    A term meets the ``_slice`` of its key once; a ``_Kernel`` keeps its
    slices in its engine's ``shared`` memo, one store per t and kind.  The
    products are summed on integers by ``series.merge`` into this call's
    own sums, then each nonzero sum into acc once; no ``Fraction`` forms.
    """
    D, E = acc.trunc.novikov_order, acc.trunc.epsilon_order
    graded = [
        (key, [(z, b, beta_total(b), e, c.numerator, c.denominator) for z, b, e, c in terms if c])
        for key, terms in operand
    ]
    kept = block.engine.shared((_slice, t, block.sign), dict) if isinstance(block, _Kernel) else {}
    sums: dict[tuple, list[int]] = {}
    for beta, n in grades:
        room_beta, room_eps = D - beta_total(beta), E - n
        for key, terms in graded:
            fits = [(z, beta_add(b, beta), e + n, cn, cd)
                    for z, b, deg, e, cn, cd in terms if deg <= room_beta and e <= room_eps]
            if not fits:
                continue
            entries = kept.get((beta, n, key))
            if entries is None:
                entries = kept[beta, n, key] = _slice(t, beta, n, key, block)
            for z_k, rho, sn, sd in entries:
                for z, b, e, cn, cd in fits:
                    merge(sums, (z + z_k, rho, b, e), cn * sn, cd * sd)
    for key, (num, den) in sums.items():
        if num:
            acc.merge(key, num, den)


def _engine_for(t: TPolynomial, engine: CorrelatorEngine | None) -> CorrelatorEngine:
    """The engine a builder reads t's correlators from: the shared engine of
    t's target when none is given, else the one given, which must serve
    t's target.  The check tries identity first, then equality, so a
    different but equal presentation is served too."""
    if engine is None:
        return get_engine(t.target)
    if engine.target is not t.target and engine.target != t.target:
        raise MismatchError(f"the engine serves {engine.target.name}, but t lives over {t.target.name}")
    return engine


def descendant_potential(t: TPolynomial, trunc: Truncation, engine: CorrelatorEngine | None = None) -> ScalarSeries:
    """F^0(t): sum over the stable range of Q^beta eps^n / n! <t(psi), ..., t(psi)>.

    Insertion-free correlators are unsupported, so the eps-order-zero
    grade is omitted; the potential is only ever consumed through its
    derivatives, which never see that grade.
    """
    return _bracket_sum(t, (), trunc, _engine_for(t, engine), 0)


def cone_point(t: TPolynomial, trunc: Truncation, engine: CorrelatorEngine | None = None) -> LoopSeries:
    """The point of the cone over q = t - z*1:

        q(z) + sum Q^beta eps^n / n! <t, ..., t, phi_gamma/(-z - psi)> phi^gamma

    summed over (beta, n) with (beta, n+1) stable; the unstable grades,
    degree zero with fewer than two t-insertions, hold q instead.  Each
    grade is one ``_cone_grade`` piece.
    """
    engine = _engine_for(t, engine)
    acc = SeriesAccumulator(t.target, trunc)
    for beta in iter_betas(t.target.class_rank, trunc.novikov_order):
        for n in range(trunc.epsilon_order + 1):
            _cone_grade(acc, t, beta, n, engine)
    return acc.series()


def _cone_grade(acc: SeriesAccumulator, t: TPolynomial, beta, n: int, engine: CorrelatorEngine | None) -> None:
    """Add the grade-(beta, n) piece of the cone point to acc:

      -z * 1                                            (degree 0, no t-slot)
      t(z)                                              (degree 0, one t-slot)
      <t, ..., t, phi_gamma/(-z - psi)>_beta phi^gamma   (otherwise),

    the last weighted by Q^beta eps^n / n!; only it reads the engine.
    """
    b0 = beta_zero(t.target.class_rank)
    if beta == b0 and n == 0:
        acc.add(1, 0, b0, 0, Fraction(-1))
    elif beta == b0 and n == 1:
        for k, alpha, c in t.monomials():
            acc.add(k, alpha, b0, 1, c)
    else:
        _kernel_sum(acc, t, [(beta, n)], [((), [(0, b0, 0, Fraction(1))])], _Kernel(engine, -1))


def s_apply(
    t: TPolynomial,
    f: LoopSeries,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
) -> LoopSeries:
    """Apply the solution operator, expanding f linearly in z and phi:

        S(f) = f + sum Q^beta eps^n / n! <f/(z - psi), t, ..., t, phi_gamma> phi^gamma.

    Each f term phi_a z^j contributes its z^j outside the correlator;
    the sum excludes only the unstable (beta, n) = (0, 0) term.
    """
    engine = _engine_for(t, engine)
    if f.target != t.target:
        raise MismatchError("f lives over a different target")
    acc = SeriesAccumulator(t.target, trunc)
    acc.add_series(f)
    by_alpha: dict[int, list] = {}
    for (z, alpha, beta_f, eps_f), c in f.terms.items():
        by_alpha.setdefault(alpha, []).append((z, beta_f, eps_f, c))
    _kernel_sum(acc, t, _stable_pairs(t.target, trunc, 2), list(by_alpha.items()), _Kernel(engine))
    return acc.series()


def s_adjoint_corr_apply(
    t: TPolynomial,
    r: LoopSeries,
    sign: int,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
) -> LoopSeries:
    """The substitution extension of the adjoint operator on H_plus:

        r(z) + sum Q^beta eps^n / n! <r(psi), t, ..., t, phi_gamma/(sign*z - psi)> phi^gamma.

    Unlike ``s_apply`` the z-power of r is substituted into the psi slot
    of the correlator, not carried outside.
    """
    engine = _engine_for(t, engine)
    if r.target != t.target:
        raise MismatchError("r lives over a different target")
    if any(z < 0 for (z, _, _, _) in r.terms):
        raise MismatchError("r must be a z-polynomial element")
    acc = SeriesAccumulator(t.target, trunc)
    acc.add_series(r)
    slots = [
        (((alpha, z_r),), [(0, beta_r, eps_r, c)])
        for (z_r, alpha, beta_r, eps_r), c in r.terms.items()
    ]
    _kernel_sum(acc, t, _stable_pairs(t.target, trunc, 2), slots, _Kernel(engine, sign))
    return acc.series()


def tangent_vector(
    t: TPolynomial,
    alpha: int,
    k: int,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
) -> LoopSeries:
    """Derivative of the cone point in the coordinate of phi_alpha z^k:

        phi_alpha z^k + sum Q^beta eps^n / n! <phi_alpha psi^k, t, ..., t,
                                               phi_gamma/(-z - psi)> phi^gamma.
    """
    _tangent_window_guard(t, alpha, k, trunc, engine)
    r = LoopSeries.basis(t.target, trunc, alpha, k)
    return s_adjoint_corr_apply(t, r, -1, trunc, engine)


def _tangent_window_guard(
    t: TPolynomial,
    alpha: int,
    k: int,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
) -> None:
    """Raises ``TruncationOverflowError`` if ``tangent_vector`` refuses
    phi_alpha z^k at trunc: k must stay below z_max.  The refusal comes
    before the vector is built; the rerun hint also holds its terms."""
    if k > trunc.z_max - 1:
        depth = kernel_depth_bound(t.target, trunc.novikov_order, trunc.epsilon_order)
        room = replace(trunc, z_min=min(trunc.z_min, -1 - depth), z_max=k + 1)
        span = [z for z, _, _, _ in tangent_vector(t, alpha, k, room, engine).terms]
        raise TruncationOverflowError(k + 1, trunc.z_min, trunc.z_max, *span)


def double_bracket(
    t: TPolynomial,
    fixed: tuple,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
    extra_eps: int = 0,
) -> ScalarSeries:
    """Correlator with fixed insertions completed by t-slots:

        sum Q^beta eps^n / n! <fixed..., t(psi), ..., t(psi)>_{0, n+r, beta}

    over the stable range.  ``extra_eps`` shifts the eps grading, used
    when a fixed slot is itself a t-monomial carrying its own order.
    """
    fixed = tuple(sorted(_int_pairs(fixed)))
    if not fixed:
        raise StabilityError("needs at least one fixed insertion")
    return _bracket_sum(t, fixed, trunc, _engine_for(t, engine), extra_eps)


def _bracket_sum(t, fixed, trunc, engine, extra_eps) -> ScalarSeries:
    """sum Q^beta eps^(n + extra_eps) / n! <fixed..., t(psi) x n> over the
    stable (beta, n), leaving out the insertion-free correlators.

    Only the expansions that fill what the fixed slots leave of the
    virtual dimension, read from ``_bracket_grades``, are looked up; the
    rest fail the engine's dimension filter and are zero.  The fixed
    slots are checked as ``engine.correlator`` checks a key, at the first
    grade that has an expansion, so a malformed slot raises there even if
    no expansion fills its dimension.  Each expansion's key, (beta, the
    sorted fixed slots and t-monomials), is read straight from the
    engine's value table: only well-formed keys are cached and every
    grade is stable, so a hit needs no check.  A miss asks
    ``engine.correlator``, which checks and reduces the key, with the
    errors it always raised.  A zero value is skipped: its product would
    insert no key into the sums.
    """
    target = t.target
    top = trunc.epsilon_order - extra_eps
    views = [_expansions_by_dim(t, n) for n in range(top + 1)]
    read = engine._values.get
    used = None
    sums: dict = {}
    for beta, n, dim in _bracket_grades(target, trunc.novikov_order, top, len(fixed)):
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


# One table per (target, D, eps order, fixed-slot count); a verify run
# meets a few, so this only bounds a long-lived process.
_GRADES_CACHE_SIZE = 256


@lru_cache(maxsize=_GRADES_CACHE_SIZE)
def _bracket_grades(target: TargetSpace, D: int, top: int, fixed: int) -> tuple:
    """The grades (beta, n, vdim) of a bracket with ``fixed`` fixed slots:
    the (beta, n) of ``_stable_pairs`` up to eps order ``top``, less n = 0
    when no slot is fixed (the insertion-free correlators), each with the
    virtual dimension of (beta, n + fixed).  One table per target, orders
    and slot count, kept across calls and engines."""
    return tuple(
        (beta, n, vdim(target, beta, n + fixed))
        for beta in iter_betas(target.class_rank, D)
        for n in range(top + 1)
        if is_stable(beta, n + fixed) and (fixed or n)
    )
