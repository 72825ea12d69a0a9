"""Verification suites over the builders: Darboux relations, the engine
against its oracles, hidden polynomiality, the inverse identity,
universal relations, the residue vanishing and tangent-space membership.

Every check is an exact statement about rational coefficients, and its
report lists the complete set of offending grades.  A report passes
exactly when that list is empty: ``CheckReport.passed`` is derived from
the failures, never set apart from them.  An offending coefficient is
written by ``series.coefficient_record``, the record format that
``gwlab series`` dumps use too.  Seeds are recorded so failures
reproduce.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

from . import cone, matrices, oracles
from .cone import (
    TPolynomial,
    _tangent_window_guard,
    cone_point,
    double_bracket,
    s_adjoint_corr_apply,
    s_apply,
)
from .correlators import CorrelatorEngine, get_engine, vdim
from .matrices import EndoSeries, _columns, compose, s_matrix
from .series import LoopSeries, MismatchError, ScalarSeries, Truncation, coefficient_record, fraction_record, summed
from .targets import TargetSpace, beta_add, beta_total, beta_zero, iter_betas, make_target


@dataclass
class CheckReport:
    """The outcome of one suite; it passes exactly when it lists no failure."""

    name: str
    params: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    seed: int | None = None
    notes: str = ""
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "check": self.name,
            "passed": self.passed,
            "params": self.params,
            "failures": self.failures,
            "seed": self.seed,
            "notes": self.notes,
            "elapsed_s": round(self.elapsed, 6),
        }


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        report = fn(*args, **kwargs)
        report.elapsed = time.perf_counter() - started
        return report
    return wrapper


def _trunc_params(trunc: Truncation) -> dict:
    return {
        "D": trunc.novikov_order,
        "E": trunc.epsilon_order,
        "z_min": trunc.z_min,
        "z_max": trunc.z_max,
    }


def _report(
    name: str, t: TPolynomial, trunc: Truncation, failures: list, seed, notes: str = "", **params
) -> CheckReport:
    """The report of a suite run on t at trunc; ``params`` (such as
    ``k_max``) join the target, the truncation and the degree of t."""
    params = {"target": t.target.name, **params, **_trunc_params(trunc), "T": t.degree}
    return CheckReport(name=name, params=params, failures=failures, seed=seed, notes=notes)


# ---------------------------------------------------------------------------
# Darboux relations for the symplectic form.


def _basis_b(target, trunc, gamma, l) -> LoopSeries:
    """phi^gamma (-z)^{-1-l} as a series: sign (-1)^{1+l} at z^{-1-l}."""
    sign = Fraction(-1) ** (l + 1)
    b0 = beta_zero(target.class_rank)
    terms = {(-1 - l, rho, b0, 0): sign * c for rho, c in enumerate(target.dual_basis_vector(gamma)) if c}
    return LoopSeries(target, trunc, terms)


@_timed
def check_darboux(target: TargetSpace, k_max: int = 6) -> CheckReport:
    """Omega(A, A) = Omega(B, B) = 0 and Omega(A_alpha^k, B^gamma_l) =
    -delta_alpha^gamma delta^k_l, over the whole window."""
    trunc = Truncation(0, 0, -(k_max + 2), k_max + 1)
    b0 = beta_zero(target.class_rank)
    failures = []
    indices = [(a, k) for a in range(target.rank) for k in range(k_max + 1)]
    vecs = [("A", a, k, LoopSeries.basis(target, trunc, a, k)) for a, k in indices]
    vecs += [("B", g, l, _basis_b(target, trunc, g, l)) for g, l in indices]
    # The window holds the one grade (0, 0), so its coefficient is the whole form.
    for side, a, k, v in vecs:
        for side2, a2, k2, v2 in vecs:
            if (side, side2) == ("B", "A"):
                continue
            mixed = side != side2
            got = v.omega(v2).coefficient(b0, 0)
            if got != (-1 if mixed and (a, k) == (a2, k2) else 0):
                pair = {"pair": [side, a, k, side2, a2, k2]}
                failures.append({**pair, "got": fraction_record(got)} if mixed else pair)
    return CheckReport(
        name="darboux",
        params={"target": target.name, "k_max": k_max},
        failures=failures,
    )


# ---------------------------------------------------------------------------
# The correlator engine against its oracles.


@_timed
def check_engine_oracles(seed: int) -> CheckReport:
    """The engine against ``oracles``, and against itself along two reduction orders."""
    failures = []
    point = make_target("point")
    engine = get_engine(point)
    for n in range(3, 9):
        for ks in combinations_with_replacement(range(n - 2), n):
            if sum(ks) != n - 3:
                continue
            got = engine.correlator((), [(0, k) for k in ks])
            want = oracles.point_psi_integral(ks)
            if got != want or want != oracles.point_psi_closed_form(ks):
                failures.append({"point_psi": list(ks)})
    p2 = get_engine(make_target("P2"))
    for d, expected in ((1, 1), (2, 1), (3, 12), (4, 620)):
        got = p2.correlator((d,), [(2, 0)] * (3 * d - 1))
        if got != oracles.rational_plane_curves(d) or got != expected:
            failures.append({"plane_degree": d, "got": str(got)})
    rng = random.Random(seed)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 20000:
        attempts += 1
        name = rng.choice(("P1", "P2"))
        target = make_target(name)
        eng = get_engine(target)
        d = rng.randint(1, 3)
        n = rng.randint(3, 6)
        ins = [(rng.randrange(target.rank), rng.randint(0, 3)) for _ in range(n - 1)]
        ins.append((1, 0))  # guarantee the divisor rule applies
        if not any(k > 0 for _, k in ins):
            continue
        shortfall = vdim(target, (d,), n) - sum(target.degree(a) + k for a, k in ins)
        if shortfall > 0:
            a0, k0 = ins[0]
            ins[0] = (a0, k0 + shortfall)
        elif shortfall < 0:
            continue
        via_divisor = eng.reduce_divisor_first((d,), ins)
        via_recursion = eng.reduce_recursion_first((d,), ins)
        if via_divisor != via_recursion:
            failures.append({"path_independence": [name, d, sorted(ins)]})
        checked += 1
    return CheckReport(
        name="engine-oracles",
        params={"path_independence_keys": checked},
        failures=failures,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Values several suites read, built once per engine in its memo.  Each
# suite reaches a builder through the module binding it names, and that
# binding keys the value with its exact arguments: a binding replaced in
# one module is still called, and never served what another one built.
# Without an engine there is no memo: each builder then falls back to the
# default engine itself, as it does when a check calls it directly.


def _shared(engine: CorrelatorEngine | None, key, build):
    return build() if engine is None else engine.shared(key, build)


def _cone_transform(apply, point, t: TPolynomial, trunc: Truncation, engine) -> LoopSeries:
    """S(cone point): ``apply`` on the cone point that ``point`` builds.
    Polynomiality, tangent and the localisation identity share it."""
    point_key = (point, t, trunc)
    return _shared(
        engine,
        (apply, t, point_key, trunc),
        lambda: apply(t, _shared(engine, point_key, lambda: point(t, trunc, engine)), trunc, engine),
    )


def _adjoint_image(apply, t: TPolynomial, alpha: int, j: int, trunc: Truncation, engine) -> LoopSeries:
    """S*(-z)(phi_alpha z^j) as ``apply`` builds it, the tangent vector of
    phi_alpha z^j.  Tangent, lagrangian and inverse share it."""
    return _shared(
        engine,
        (apply, t, alpha, j, -1, trunc),
        lambda: apply(t, LoopSeries.basis(t.target, trunc, alpha, j), -1, trunc, engine),
    )


def _adjoint_at_minus_z(t: TPolynomial, trunc: Truncation, engine) -> EndoSeries:
    """S*(-z) as a matrix: column a is S*(-z) phi_a, the k = 0 tangent
    vector, through ``matrices.s_adjoint_corr_apply``.  Its entries are
    those of ``flip_z(s_adjoint_matrix)``, in the same order."""
    apply = matrices.s_adjoint_corr_apply
    return _columns(t.target, trunc, lambda a: _adjoint_image(apply, t, a, 0, trunc, engine))


# ---------------------------------------------------------------------------
# Hidden polynomiality of the transformed cone.


def _transformed_cone(t: TPolynomial, trunc: Truncation, engine) -> tuple[LoopSeries, list]:
    """S(cone point) and its z^{<=0} keys, which polynomiality and tangent require to vanish."""
    value = _cone_transform(s_apply, cone_point, t, trunc, engine)
    _, offenders = value.is_z_polynomial(strict=True)
    return value, offenders


@_timed
def check_polynomiality(
    t: TPolynomial,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
    seed: int | None = None,
) -> CheckReport:
    """Applying the solution operator to the cone point lands in z*H_plus:
    every coefficient of z^{<=0} must vanish exactly."""
    value, offenders = _transformed_cone(t, trunc, engine)
    failures = [
        coefficient_record(b, e, value.coefficient(z, a, b, e), z_exp=z, basis=a)
        for (z, a, b, e) in offenders
    ]
    return _report("polynomiality", t, trunc, failures, seed)


@_timed
def check_inverse(
    t: TPolynomial,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
    seed: int | None = None,
) -> CheckReport:
    """The adjoint at -z composes with the operator to the identity at
    every retained grade."""
    s = s_matrix(t, trunc, engine)
    product = compose(s, _adjoint_at_minus_z(t, trunc, engine), trunc)
    _, offenders = product.is_identity()
    failures = [
        coefficient_record(b, e, product.coefficient(z, r, c, b, e), z_exp=z, row=r, col=c)
        for (z, r, c, b, e) in offenders
    ]
    return _report("inverse", t, trunc, failures, seed)


# ---------------------------------------------------------------------------
# Universal relations from the z^{-k} coefficients.


def universal_relation(
    t: TPolynomial,
    k: int,
    alpha: int,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
) -> ScalarSeries:
    """The combination that the hidden polynomiality forces to vanish:

        <<psi^{k-1} q(psi), phi_alpha>>_{0,2}
        + (-1)^k <<phi_alpha psi^{k-1}>>_{0,1}
        + sum_{r=0}^{k-2} (-1)^{1+r} <<phi_mu psi^r>>_{0,1}
                                     <<phi^mu psi^{k-2-r}, phi_alpha>>_{0,2}

    with q(psi) = t(psi) - psi*1 substituted term by term (the t part at
    eps order one, the shift at order zero).
    """
    return _universal_relation(
        t, k, alpha, trunc,
        lambda fixed, extra_eps: double_bracket(t, fixed, trunc, engine, extra_eps=extra_eps),
    )


def _universal_relation(t: TPolynomial, k: int, alpha: int, trunc: Truncation, bracket) -> ScalarSeries:
    """``universal_relation`` with ``bracket(fixed, extra_eps)`` giving
    the double bracket of t at ``fixed``."""
    pinv = t.target.pairing_inverse
    # Slot psi^{k-1} q(psi): monomials of t raise the psi power by their
    # z-power; the -z*1 summand contributes -1 psi^k at eps order zero.
    parts = [(c, bracket(((a, k - 1 + j), (alpha, 0)), 1)) for j, a, c in t.monomials()]
    parts.append((-1, bracket(((0, k), (alpha, 0)), 0)))
    # The series' own z^{-k} coefficient.
    parts.append(((-1) ** k, bracket(((alpha, k - 1),), 0)))
    # Cross terms between the fibre of the cone and the kernel expansion.
    for r in range(k - 1):
        for mu in range(t.target.rank):
            one_pt = bracket(((mu, r),), 0)
            if one_pt.is_zero():
                continue
            for nu, w in enumerate(pinv[mu]):
                if w:
                    parts.append(((-1) ** (1 + r) * w, one_pt.mul(bracket(((nu, k - 2 - r), (alpha, 0)), 0))))
    return ScalarSeries(trunc, summed((c, part.terms) for c, part in parts))


@_timed
def check_universal_relations(
    t: TPolynomial,
    k_max: int,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
    seed: int | None = None,
) -> CheckReport:
    """``universal_relation`` for k = 2..k_max and every basis index.
    The relations share most of their brackets, so each distinct bracket
    is computed once per call and dropped when the call returns."""
    if k_max < 2:
        raise MismatchError("relations start at k = 2")
    brackets: dict = {}

    def bracket(fixed, extra_eps):
        key = (tuple(sorted(fixed)), extra_eps)
        if key not in brackets:
            brackets[key] = double_bracket(t, fixed, trunc, engine, extra_eps=extra_eps)
        return brackets[key]

    failures = []
    for k in range(2, k_max + 1):
        for alpha in range(t.target.rank):
            failures += _universal_relation(t, k, alpha, trunc, bracket).to_records(k=k, alpha=alpha)
    return _report("universal", t, trunc, failures, seed, k_max=k_max)


# ---------------------------------------------------------------------------
# Residue vanishing: the cone is Lagrangian.


@_timed
def check_lagrangian(
    t: TPolynomial,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
    j_max: int = 1,
    seed: int | None = None,
) -> CheckReport:
    """Res_{z=0} (S*(z) r(-z), S*(-z) u(z)) dz = 0 for basis monomials r, u
    in H_plus with z-powers up to j_max, per retained grade.

    Both arguments are tangent vectors, images of the substitution
    extension of the adjoint at -z; the z-flip inside the symplectic
    form is what turns the first one into S*(z) r(-z).  The correlator
    slot keeps r(psi) either way, since psi is not the flipped variable.
    """
    if j_max < 0:
        raise MismatchError(f"j_max must be non-negative, got {j_max}: no basis monomial to pair")
    target = t.target
    failures = []
    images = {
        (a, j): _adjoint_image(s_adjoint_corr_apply, t, a, j, trunc, engine)
        for a in range(target.rank)
        for j in range(j_max + 1)
    }
    for key_r, left in images.items():
        for key_u, right in images.items():
            failures += left.omega(right).to_records(r=list(key_r), u=list(key_u))
    return _report("lagrangian", t, trunc, failures, seed, j_max=j_max)


# ---------------------------------------------------------------------------
# Tangent membership and the empirical span check.


def _integral(vec: dict) -> dict:
    """vec times the lcm of its denominators: integer entries, zeros dropped."""
    ratios = [(key, val.as_integer_ratio()) for key, val in vec.items()]
    m = lcm(*(d for _, (_, d) in ratios))
    return {key: n * (m // d) for key, (n, d) in ratios if n}


def _reduce(vec: dict, pivots: list[tuple]) -> dict:
    """What is left of the integer vector vec after walking pivots in
    order, clearing each pivot's lead key fraction-free: with r/p the
    lead ratio in lowest terms, rem becomes p*rem - r*piv, and a scaled
    rem is divided by the gcd of its entries.  rem is always a nonzero
    integer multiple of the exact rational remainder."""
    rem = dict(vec)
    for lead, piv in pivots:
        r = rem.get(lead)
        if not r:
            continue
        p = piv[lead]
        g = gcd(r, p) if p > 0 else -gcd(r, p)
        r, p = r // g, p // g
        if p != 1:
            rem = {key: p * val for key, val in rem.items()}
        for key, val in piv.items():
            x = rem.get(key, 0) - r * val
            if x:
                rem[key] = x
            else:
                rem.pop(key, None)
        g = gcd(*rem.values()) if p != 1 else 1
        if g > 1:
            rem = {key: val // g for key, val in rem.items()}
    return rem


def _peel(columns: list[dict]) -> list[tuple] | None:
    """Permuted-triangular order of the columns as (lead, column) pairs,
    or None if peeling stalls.

    Repeatedly a key held by exactly one remaining column becomes that
    column's lead and the column is removed.  Each lead then occurs in
    no later column, so walking the order solves for every coefficient.
    """
    holders: dict = {}
    for i, col in enumerate(columns):
        for key in col:
            holders.setdefault(key, set()).add(i)
    ready = [key for key, held in holders.items() if len(held) == 1]
    order = []
    while ready:
        lead = ready.pop()
        if not holders[lead]:
            continue  # its column was peeled through another key
        i = holders[lead].pop()
        order.append((lead, columns[i]))
        for key in columns[i]:
            held = holders[key]
            held.discard(i)
            if len(held) == 1:
                ready.append(key)
    return order if len(order) == len(columns) else None


def _solve_membership(columns: list[dict], targets: list[dict]) -> tuple[int, list[bool]]:
    """Exact rank of the column span and membership of each target vector.

    Vectors are sparse maps key -> Fraction over an arbitrary index set;
    ``_integral`` scales each to integers and drops zero entries, then
    empty columns are dropped.  The tangent check's columns are
    S*(-z) phi_rho shifted by z^j Q^beta eps^e, and S*(-z) is
    the identity plus terms of positive (Q, eps) grade, so each column's
    lowest-grade term is phi_rho z^j Q^beta eps^e with coefficient 1 and
    the columns are triangular up to order.  ``_peel`` finds that order:
    the leads of the lowest-grade columns are private to them, and once
    those are removed the next grade's leads are.  When every column
    peels, rank == number of columns and a target lies in the span iff
    walking the peel order leaves no remainder.

    If peeling stalls (dependent or otherwise non-triangular columns),
    each column is instead reduced against the pivots kept so far, in
    order, and a nonzero remainder becomes a new pivot led by its least
    key; rank is the number of pivots.  Both paths are exact, so rank and
    flags never depend on which one ran.
    """
    columns = [col for col in map(_integral, columns) if col]
    pivots = _peel(columns)
    if pivots is None:
        pivots = []
        for col in columns:
            rem = _reduce(col, pivots)
            if rem:
                pivots.append((min(rem), rem))
    return len(pivots), [not _reduce(_integral(vec), pivots) for vec in targets]


@_timed
def check_cone_in_tangent(
    t: TPolynomial,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
    seed: int | None = None,
) -> CheckReport:
    """Two-part check that the cone point lies in z times its own tangent
    space.

    Part one is the operator criterion: applying the solution operator
    to the cone point must land in z*H_plus (shared with the
    polynomiality check, as the two statements are equivalent through
    the inverse identity).  Part two is empirical: the tangent space is
    the ground-ring span of S*(-z) H_plus, and S*(-z) phi_rho is the
    k = 0 tangent vector of phi_rho.  So each tangent vector must lie,
    at truncation, in the span of the k = 0 tangent vectors shifted by
    z^j Q^beta eps^e, every shift cut to the retained grades.  Exact
    ranks are reported.

    S*(-z) is the identity plus terms of positive (Q, eps) grade, so a
    shifted column's lowest-grade term is phi_rho z^j Q^beta eps^e with
    coefficient 1.  ``_solve_membership`` peels the columns by these
    leads, so rank == number of columns whenever peeling succeeds; a
    broken S* that spoils the leads sends it to the pivot reduction,
    which reports the true rank and fails the check instead of passing
    it vacuously.
    """
    target = t.target
    _, offenders = _transformed_cone(t, trunc, engine)
    failures = [
        {"part": "operator", "key": [z, a, list(b), e]} for (z, a, b, e) in offenders
    ]

    def tangent(alpha, k):
        # tangent_vector with its window guard, built by the binding it calls.
        _tangent_window_guard(t, alpha, k, trunc, engine)
        return _adjoint_image(cone.s_adjoint_corr_apply, t, alpha, k, trunc, engine)

    base = [tangent(rho, 0) for rho in range(target.rank)]
    labels = [(alpha, k) for alpha in range(target.rank) for k in range(max(t.degree, 0) + 1)]
    targets_vecs = [(tangent(alpha, k) if k else base[alpha]).terms for alpha, k in labels]
    columns = []
    for vec in base:
        # Each term's grade totals once; a shift keeps the terms whose
        # totals leave room for it.
        graded = [(z, a, b, beta_total(b), e, val) for (z, a, b, e), val in vec.terms.items()]
        for j in range(max(t.degree, 1) + 1):
            for beta in iter_betas(target.class_rank, trunc.novikov_order):
                room = trunc.novikov_order - beta_total(beta)
                moved = [(z + j, a, beta_add(b, beta) if any(beta) else b, e, val)
                         for z, a, b, d, e, val in graded if d <= room]
                for eps in range(trunc.epsilon_order + 1):
                    e_room = trunc.epsilon_order - eps
                    shifted = {(z, a, b, e + eps): val for z, a, b, e, val in moved if e <= e_room}
                    if shifted:
                        columns.append(shifted)
    rank, in_span = _solve_membership(columns, targets_vecs)
    for label, ok in zip(labels, in_span):
        if not ok:
            failures.append({"part": "span", "tangent": list(label)})
    return _report(
        "tangent", t, trunc, failures, seed,
        notes=f"span rank {rank} over {len(columns)} spanning vectors; "
        f"membership is an empirical truncated statement",
    )
