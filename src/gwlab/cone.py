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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial

from .correlators import CorrelatorEngine, get_engine, is_stable
from .series import (
    LoopSeries,
    MismatchError,
    ScalarSeries,
    SeriesAccumulator,
    Truncation,
    TruncationOverflowError,
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
                raise ValueError("coefficient vector length does not match the basis")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def monomials(self) -> tuple[tuple[int, int, Fraction], ...]:
        """Nonzero (z-power, basis index, coefficient) triples."""
        out = []
        for k, vec in enumerate(self.coeffs):
            for alpha, c in enumerate(vec):
                if c:
                    out.append((k, alpha, c))
        return tuple(out)

    @classmethod
    def zero(cls, target: TargetSpace, degree: int = 0) -> "TPolynomial":
        return cls(target, tuple((Fraction(0),) * target.rank for _ in range(degree + 1)))

    @classmethod
    def random(cls, target: TargetSpace, degree: int, seed: int, bound: int = 9) -> "TPolynomial":
        """Seeded small-rational coefficients, reproducible from the seed."""
        rng = random.Random(seed)
        coeffs = tuple(
            tuple(
                Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                for _ in range(target.rank)
            )
            for _ in range(degree + 1)
        )
        return cls(target, coeffs)


def dilaton_shift(t: TPolynomial, trunc: Truncation) -> LoopSeries:
    """q(z) = t(z) - z*1, with the t part at eps order 1 and the shift at 0."""
    target = t.target
    b0 = beta_zero(target.class_rank)
    terms = {(1, 0, b0, 0): Fraction(-1)}
    for k, alpha, c in t.monomials():
        terms[(k, alpha, b0, 1)] = terms.get((k, alpha, b0, 1), Fraction(0)) + c
    return LoopSeries(target, trunc, terms)


def dilaton_unshift(q: LoopSeries) -> TPolynomial:
    """Inverse of the shift; rejects series that are not of the shifted form."""
    target = q.target
    b0 = beta_zero(target.class_rank)
    coeffs: dict[tuple[int, int], Fraction] = {}
    top = 0
    for (z, alpha, beta, eps), val in q.terms.items():
        if eps == 0:
            if (z, alpha, beta, val) != (1, 0, b0, Fraction(-1)):
                raise MismatchError("series is not a dilaton-shifted polynomial")
            continue
        if eps != 1 or beta != b0 or z < 0:
            raise MismatchError("series is not a dilaton-shifted polynomial")
        coeffs[(z, alpha)] = val
        top = max(top, z)
    vecs = [
        tuple(coeffs.get((k, alpha), Fraction(0)) for alpha in range(target.rank))
        for k in range(top + 1)
    ]
    return TPolynomial(target, tuple(vecs))


# Entries are keyed by t, so an unbounded cache would keep every t a
# long-lived process has seen; a few dozen covers the working set of one
# verify run (one t, n up to the eps order).
_EXPANSIONS_CACHE_SIZE = 64


@lru_cache(maxsize=_EXPANSIONS_CACHE_SIZE)
def _expansions(t: TPolynomial, n: int) -> tuple[tuple[Fraction, tuple[tuple[int, int], ...]], ...]:
    """Multilinear expansion of n identical t(psi) slots.

    Yields (weight, insertions) over multisets of monomials of t, with
    weight prod_j c_j^{m_j} / m_j! -- the 1/n! of the generating sum
    combined with the multinomial count of orderings.
    """
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


def _stable_pairs(target: TargetSpace, trunc: Truncation, extra_points: int):
    """(beta, n) pairs within truncation for which (beta, n + extra_points)
    is a stable configuration."""
    for beta in iter_betas(target.class_rank, trunc.novikov_order):
        for n in range(trunc.epsilon_order + 1):
            if is_stable(beta, n + extra_points):
                yield beta, n


def descendant_potential(t: TPolynomial, trunc: Truncation, engine: CorrelatorEngine | None = None) -> ScalarSeries:
    """F^0(t): sum over the stable range of Q^beta eps^n / n! <t(psi), ..., t(psi)>.

    Insertion-free correlators are unsupported, so the eps-order-zero
    grade is omitted; the potential is only ever consumed through its
    derivatives, which never see that grade.
    """
    engine = engine or get_engine(t.target)
    terms: dict = {}
    for beta, n in _stable_pairs(t.target, trunc, 0):
        if n == 0:
            continue
        for weight, monos in _expansions(t, n):
            val = engine.correlator(beta, monos)
            if val:
                key = (beta, n)
                terms[key] = terms.get(key, Fraction(0)) + weight * val
    return ScalarSeries(trunc, terms)


def cone_point(t: TPolynomial, trunc: Truncation, engine: CorrelatorEngine | None = None) -> LoopSeries:
    """The point of the cone over q = t - z*1:

        q(z) + sum Q^beta eps^n / n! <t, ..., t, phi_gamma/(-z - psi)> phi^gamma

    summed over (beta, n) with (beta, n+1) stable, i.e. excluding the
    unstable degree-zero cases with fewer than two t-insertions.
    """
    engine = engine or get_engine(t.target)
    acc = SeriesAccumulator(t.target, trunc)
    acc.add_series(dilaton_shift(t, trunc))
    for beta, n in _stable_pairs(t.target, trunc, 1):
        for weight, monos in _expansions(t, n):
            block = engine.fibre_block(beta, monos, -1)
            for z_exp, vec in block.items():
                acc.add_vector(z_exp, vec, beta, n, weight)
    return acc.series()


def s_apply(
    t: TPolynomial,
    f: LoopSeries,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
) -> LoopSeries:
    """Apply the solution operator, expanding f linearly in z and phi:

        S(f) = f + sum Q^beta eps^n / n! <f/(z - psi), t, ..., t, phi_gamma> phi^gamma.

    Each f term phi_a z^j contributes its z^j outside the correlator;
    the sum excludes only the unstable (beta, n) = (0, 0) term.  Grades
    add, so a kernel grade (beta, n) meets only the f terms whose own
    grade leaves room for it within the truncation; a (beta, n) that
    meets none builds no block.
    """
    engine = engine or get_engine(t.target)
    if f.target != t.target:
        raise MismatchError("f lives over a different target")
    D, E = trunc.novikov_order, trunc.epsilon_order
    acc = SeriesAccumulator(t.target, trunc)
    acc.add_series(f)
    by_alpha: dict[int, list] = {}
    for (z, alpha, beta_f, eps_f), c in f.terms.items():
        by_alpha.setdefault(alpha, []).append((z, beta_f, beta_total(beta_f), eps_f, c))
    for beta, n in _stable_pairs(t.target, trunc, 2):
        room_beta, room_eps = D - beta_total(beta), E - n
        fitting = []
        for alpha, fterms in by_alpha.items():
            fits = [
                (z_f, beta_add(beta_f, beta), eps_f + n, c)
                for z_f, beta_f, deg_f, eps_f, c in fterms
                if deg_f <= room_beta and eps_f <= room_eps
            ]
            if fits:
                fitting.append((alpha, fits))
        if not fitting:
            continue
        for weight, monos in _expansions(t, n):
            for alpha, fits in fitting:
                block = engine.flow_block(beta, alpha, monos)
                if not block:
                    continue
                scaled = [(z_f, b, e, c * weight) for z_f, b, e, c in fits]
                for z_k, vec in block.items():
                    comps = [(rho, comp) for rho, comp in enumerate(vec) if comp]
                    for z_f, b, e, cw in scaled:
                        for rho, comp in comps:
                            acc.add(z_f + z_k, rho, b, e, cw * comp)
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
    engine = engine or get_engine(t.target)
    if r.target != t.target:
        raise MismatchError("r lives over a different target")
    if any(z < 0 for (z, _, _, _) in r.terms):
        raise MismatchError("r must be a z-polynomial element")
    acc = SeriesAccumulator(t.target, trunc)
    acc.add_series(r)
    for beta, n in _stable_pairs(t.target, trunc, 2):
        for weight, monos in _expansions(t, n):
            for (z_r, alpha, beta_r, eps_r), c in r.terms.items():
                block = engine.fibre_block(beta, tuple(sorted(monos + ((alpha, z_r),))), sign)
                for z_exp, vec in block.items():
                    for rho, comp in enumerate(vec):
                        if comp:
                            acc.add(
                                z_exp,
                                rho,
                                beta_add(beta_r, beta),
                                eps_r + n,
                                c * weight * comp,
                            )
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
    if k > trunc.z_max - 1:
        raise TruncationOverflowError(k + 1, trunc.z_min, trunc.z_max)
    r = LoopSeries.basis(t.target, trunc, alpha, k)
    return s_adjoint_corr_apply(t, r, -1, trunc, engine)


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
    engine = engine or get_engine(t.target)
    fixed = tuple(sorted((int(a), int(k)) for a, k in fixed))
    if not fixed:
        raise ValueError("needs at least one fixed insertion")
    terms: dict = {}
    for beta in iter_betas(t.target.class_rank, trunc.novikov_order):
        for n in range(trunc.epsilon_order - extra_eps + 1):
            if not is_stable(beta, n + len(fixed)):
                continue
            for weight, monos in _expansions(t, n):
                val = engine.correlator(beta, fixed + monos)
                if val:
                    key = (beta, n + extra_eps)
                    terms[key] = terms.get(key, Fraction(0)) + weight * val
    return ScalarSeries(trunc, terms)

