"""Fixed-locus splittings of the one-relative-point graph space and the
evaluation of their contributions.

A torus-fixed configuration splits the source curve into a piece over
the zero end, a bridge mapped onto a fibre, and a piece over the
infinity end.  Besides the generic shape there are five degenerate
kinds, reflecting which end fails to carry a stable space of its own.

Each contribution is the cone point's grade-(beta0, n0) piece at the
zero end, built by the ``cone._cone_grade`` that sums the cone point,
flowed by the solution operator's kernel in grade (beta_inf, n_inf)
when the infinity end exists.  Summed over every record this is the
solution operator applied to the cone point, coefficient by
coefficient; ``check_main_identity`` verifies it against the
independently built right-hand side.

Contributions depend only on how many markings sit on each end, because
all non-relative insertions carry the identical class t(psi), so a
record stands for all C(n, n0) marking subsets of its shape and its
weight 1/(n0! n_inf!) is their count times 1/n!.
``oracles.brute_force_splittings`` walks the subsets one by one to
check both the records and that count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import oracles
from .checks import CheckReport, _cone_transform, _report, _timed
from .cone import TPolynomial, _cone_grade, _engine_for, _Kernel, _kernel_sum, cone_point, dilaton_shift, s_apply
from .correlators import CorrelatorEngine
from .series import LoopSeries, SeriesAccumulator, Truncation, coefficient_record, fraction_record
from .targets import NovikovDegree, TargetSpace, beta_add, beta_splits, beta_zero, iter_betas


@dataclass(frozen=True)
class SplittingRecord:
    kind: str
    beta0: NovikovDegree
    beta_inf: NovikovDegree
    n0: int
    n_inf: int

    @property
    def beta(self) -> NovikovDegree:
        return beta_add(self.beta0, self.beta_inf)

    @property
    def n(self) -> int:
        return self.n0 + self.n_inf


def enumerate_splittings(target: TargetSpace, beta: NovikovDegree, n: int) -> list[SplittingRecord]:
    """Complete, duplicate-free list of fixed-locus records for (beta, n).

    The five degenerate kinds are keyed off which end fails to exist by
    itself: the zero end needs nonzero degree or two markings beside the
    node, the infinity end only needs to be nonempty.  Kinds are mutually
    exclusive and exclusive of the generic shape by construction.
    """
    records = []
    for beta0, beta_inf in beta_splits(beta):
        d0 = any(beta0)
        d_inf = any(beta_inf)
        for n0 in range(n + 1):
            n_inf = n - n0
            zero_end_alone = (not d0) and n0 <= 1
            inf_end_empty = (not d_inf) and n_inf == 0
            if zero_end_alone and inf_end_empty:
                kind = "case1" if (n0, n_inf) == (0, 0) else "case2"
            elif (not d0) and n0 == 0:
                kind = "case3"
            elif (not d0) and n0 == 1:
                kind = "case4"
            elif inf_end_empty:
                kind = "case5"
            else:
                kind = "generic"
            records.append(SplittingRecord(kind, beta0, beta_inf, n0, n_inf))
    records.sort(key=lambda r: (r.kind, r.beta0, r.n0))
    return records


def contribution(
    rec: SplittingRecord,
    t: TPolynomial,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
) -> LoopSeries:
    """The weighted fixed-locus contribution, including its Novikov weight
    Q^beta and the combinatorial weight eps^n / (n0! n_inf!).

    The bridge factor -z of the localised class cancels against the
    bridge deformation in the normal bundle, leaving the cone point's
    grade-(beta0, n0) piece at the zero end (``cone._cone_grade``),
    flowed by the kernel of the infinity end when that end exists.  The
    infinity end maps each phi_a z^j of the zero-end piece to

      <phi_a/(z - psi), t.., phi_gamma>_{beta_inf} phi^gamma z^j,

    the kernel of the solution operator in grade (beta_inf, n_inf).  So
    case1, case2 and case5 are the bare zero-end piece, case3 and case4
    flow -z*1 and t(z), and the generic record flows the fibre kernel.
    """
    engine = _engine_for(t, engine)
    acc = SeriesAccumulator(t.target, trunc)
    inf_end = any(rec.beta_inf) or rec.n_inf > 0
    zero = SeriesAccumulator(t.target, trunc) if inf_end else acc
    _cone_grade(zero, t, rec.beta0, rec.n0, engine)
    if inf_end:
        # Fibre kernels of different t-expansions can cancel at a term; ``terms`` holds no zero.
        piece = [(a, [(z, b, e, c)]) for (z, a, b, e), c in zero.terms().items()]
        _kernel_sum(acc, t, [(rec.beta_inf, rec.n_inf)], piece, _Kernel(engine))
    return acc.series()


def localisation_sum(
    t: TPolynomial,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
) -> LoopSeries:
    """Sum of all weighted contributions over (beta, n) within truncation."""
    acc = SeriesAccumulator(t.target, trunc)
    for beta in iter_betas(t.target.class_rank, trunc.novikov_order):
        for n in range(trunc.epsilon_order + 1):
            for rec in enumerate_splittings(t.target, beta, n):
                acc.add_series(contribution(rec, t, trunc, engine))
    return acc.series()


@_timed
def check_main_identity(
    t: TPolynomial,
    trunc: Truncation,
    engine: CorrelatorEngine | None = None,
    seed: int | None = None,
) -> CheckReport:
    """localisation_sum(t) equals the solution operator applied to the cone
    point, exactly at every retained (z, basis, novikov, eps) grade."""
    left = localisation_sum(t, trunc, engine)
    right = _cone_transform(s_apply, cone_point, t, trunc, engine)
    failures = _mismatches(left.terms, right.terms, "fixed_locus_sum", "cone_transform")
    return _report("localisation", t, trunc, failures, seed)


def _mismatches(left: dict, right: dict, left_name: str, right_name: str) -> list[dict]:
    """A coefficient record of each (z, basis, novikov, eps) grade where two term maps differ."""
    failures = []
    for key in sorted(set(left) | set(right)):
        lv, rv = left.get(key, Fraction(0)), right.get(key, Fraction(0))
        if lv != rv:
            z, a, b, e = key
            labels = {left_name: fraction_record(lv), right_name: fraction_record(rv)}
            failures.append(coefficient_record(b, e, z_exp=z, basis=a, **labels))
    return failures


@_timed
def check_localisation(t: TPolynomial, trunc: Truncation, engine=None, seed=None) -> CheckReport:
    """``check_main_identity``, the cone point's degree-zero pieces against t - z*1, and the
    records of every retained (beta, n) against ``oracles.brute_force_splittings``."""
    report = check_main_identity(t, trunc, engine, seed=seed)
    target = t.target
    # Both sides of the identity share these pieces; t - z*1 is read here from t's coefficients.
    b0 = beta_zero(target.class_rank)
    shifted = {(1, 0, b0, 0): Fraction(-1)}
    if trunc.epsilon_order:
        shifted.update(((k, a, b0, 1), c) for k, a, c in t.monomials())
    report.failures += _mismatches(dilaton_shift(t, trunc).terms, shifted, "cone_point", "t_minus_z")
    for beta in iter_betas(target.class_rank, trunc.novikov_order):
        for n in range(trunc.epsilon_order + 1):
            records = enumerate_splittings(target, beta, n)
            subsets = oracles.brute_force_splittings(target, beta, n)
            shapes = [(r.kind, r.beta0, r.beta_inf, r.n0, r.n_inf) for r in records]
            if sorted(shapes) != sorted(subsets):
                report.failures.append({"enumeration": [list(beta), n]})
            if len(set(records)) != len(records):
                report.failures.append({"duplicate_records": [list(beta), n]})
            # count / n! must be the record weight 1 / (n0! n_inf!)
            if any(
                subsets.get(s, 0) * factorial(s[3]) * factorial(s[4]) != factorial(n) for s in shapes
            ):
                report.failures.append({"weights": [list(beta), n]})
    return report
