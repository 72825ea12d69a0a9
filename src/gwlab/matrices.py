"""Endomorphism-valued series: the solution operator as a matrix, its
adjoint, the z sign flip and composition.

Entries are sparse maps (z exponent, row, column, novikov, eps) ->
rational.  Every matrix is built column by column, and a composition
applies its first factor to each column of the second through
``EndoSeries.apply_linear``, the one product of a matrix with a series.
Matrices built here are complete within their window, so a composition
is exact on every retained grade; its window is the sum of the factor
windows and nothing is dropped in z.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial

from .cone import TPolynomial, s_adjoint_corr_apply, s_apply
from .correlators import CorrelatorEngine
from .series import LoopSeries, MismatchError, SeriesAccumulator, Truncation, merge, read_out
from .targets import TargetSpace, beta_add, beta_total

EntryKey = tuple[int, int, int, tuple, int]  # (z, row, col, beta, eps)


@dataclass(frozen=True)
class EndoSeries:
    target: TargetSpace
    trunc: Truncation
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        """Each nonzero entry is checked as a ``LoopSeries`` term is, once
        with its row and once with its column as the basis index."""
        live = [(key, val) for key, val in self.entries.items() if val]
        LoopSeries(self.target, self.trunc, {(z, row, beta, eps): val for (z, row, _, beta, eps), val in live})
        LoopSeries(self.target, self.trunc, {(z, col, beta, eps): val for (z, _, col, beta, eps), val in live})

    def coefficient(self, z, row, col, beta, eps) -> Fraction:
        return self.entries.get((z, row, col, beta, eps), Fraction(0))

    def is_identity(self) -> tuple[bool, list[EntryKey]]:
        """Exact identity at every retained grade; offenders listed."""
        one = identity_endo(self.target, self.trunc).entries
        bad = sorted(k for k in self.entries.keys() | one if self.entries.get(k, 0) != one.get(k, 0))
        return (not bad, bad)

    def apply_linear(self, f: LoopSeries, out_trunc: Truncation) -> LoopSeries:
        """Matrix action extended z-linearly: entries convolve with the z
        powers of f.  This is the linear extension of the operator to the
        whole space, as opposed to the substitution extension.  An entry
        meets only the f terms of its column that fit ``out_trunc``, checked
        on total degrees before the degrees are added; each product is
        merged into the accumulator on integer numerators."""
        if f.target != self.target:
            raise MismatchError("operand lives over a different target")
        max_n, max_e = out_trunc.novikov_order, out_trunc.epsilon_order
        by_col: dict[int, list] = {}
        for (z, alpha, beta, eps), c in f.terms.items():
            by_col.setdefault(alpha, []).append((z, beta, beta_total(beta), eps, c.numerator, c.denominator))
        acc = SeriesAccumulator(self.target, out_trunc)
        for (z_e, row, col, beta_e, eps_e), m in self.entries.items():
            n_e, mn, md = beta_total(beta_e), m.numerator, m.denominator
            for z_f, beta_f, n_f, eps_f, cn, cd in by_col.get(col, ()):
                if n_e + n_f <= max_n and eps_e + eps_f <= max_e:
                    acc.merge((z_e + z_f, row, beta_add(beta_e, beta_f), eps_e + eps_f), mn * cn, md * cd)
        return acc.series()

    def column(self, col: int) -> LoopSeries:
        """Column col as a series in the basis index."""
        return LoopSeries(self.target, self.trunc, {
            (z, row, beta, eps): val for (z, row, c, beta, eps), val in self.entries.items() if c == col
        })


def _columns(target: TargetSpace, trunc: Truncation, column) -> EndoSeries:
    """The matrix whose column col is the series column(col)."""
    entries = {}
    for col in range(target.rank):
        for (z, row, beta, eps), val in column(col).terms.items():
            entries[(z, row, col, beta, eps)] = val
    return EndoSeries(target, trunc, entries)


def identity_endo(target: TargetSpace, trunc: Truncation) -> EndoSeries:
    return _columns(target, trunc, lambda col: LoopSeries.basis(target, trunc, col))


def s_matrix(t: TPolynomial, trunc: Truncation, engine: CorrelatorEngine | None = None) -> EndoSeries:
    """Column alpha is the solution operator applied to phi_alpha."""
    basis = partial(LoopSeries.basis, t.target, trunc)
    return _columns(t.target, trunc, lambda col: s_apply(t, basis(col), trunc, engine))


def s_adjoint_matrix(t: TPolynomial, trunc: Truncation, engine: CorrelatorEngine | None = None) -> EndoSeries:
    """Adjoint of the solution operator with respect to the pairing, read as
    ``flip_z`` of S*(-z), whose column a is S*(-z) phi_a:

        S*(z)(v) = v + sum Q^beta eps^n / n! <v, t, ..., t, phi_a/(z - psi)> phi^a.
    """
    basis = partial(LoopSeries.basis, t.target, trunc)
    return flip_z(_columns(t.target, trunc, lambda col: s_adjoint_corr_apply(t, basis(col), -1, trunc, engine)))


def flip_z(e: EndoSeries) -> EndoSeries:
    """E(z) -> E(-z): sign (-1)^k on each z^k entry."""
    return EndoSeries(e.target, e.trunc, {key: -val if key[0] % 2 else val for key, val in e.entries.items()})


def poincare_adjoint(e: EndoSeries) -> EndoSeries:
    """Entrywise adjoint with respect to the pairing: P^{-1} E^T P, so that
    (E x, y) = (x, adjoint(E) y) for every pair of vectors."""
    target = e.target
    p, pinv = target.pairing, target.pairing_inverse
    sums: dict = {}
    for (z, row, col, beta, eps), val in e.entries.items():
        for r in range(target.rank):
            for c in range(target.rank):
                w = pinv[r][col] * p[row][c]
                if w:
                    merge(sums, (z, r, c, beta, eps), w.numerator * val.numerator, w.denominator * val.denominator)
    return EndoSeries(target, e.trunc, read_out(sums))


def compose(a: EndoSeries, b: EndoSeries, trunc: Truncation) -> EndoSeries:
    """Matrix product a(z) . b(z), collecting every grade; a product with
    b(-z) composes with ``flip_z(b)``.

    The output window is the sum of the input windows, so no z term is
    dropped; grades beyond the Novikov/eps truncation are discarded
    exactly as in every graded product.
    """
    if a.target != b.target:
        raise MismatchError("endomorphisms live over different targets")
    wide = replace(trunc, z_min=a.trunc.z_min + b.trunc.z_min, z_max=a.trunc.z_max + b.trunc.z_max)
    return _columns(a.target, wide, lambda col: a.apply_linear(b.column(col), wide))
