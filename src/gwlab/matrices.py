"""Endomorphism-valued series: the solution operator as a matrix, its
adjoint, and composition with the z sign flip.

Entries are sparse maps (z exponent, row, column, novikov, eps) ->
rational.  Matrices built here are complete within their window, so a
composition is exact on every retained grade; its window is the sum of
the factor windows and nothing is dropped in z.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cone import TPolynomial, s_adjoint_corr_apply, s_apply
from .correlators import CorrelatorEngine
from .series import LoopSeries, MismatchError, SeriesAccumulator, Truncation
from .targets import TargetSpace, beta_add, beta_total, beta_zero

EntryKey = tuple[int, int, int, tuple, int]  # (z, row, col, beta, eps)


@dataclass(frozen=True)
class EndoSeries:
    target: TargetSpace
    trunc: Truncation
    entries: dict = field(default_factory=dict)

    def coefficient(self, z, row, col, beta, eps) -> Fraction:
        return self.entries.get((z, row, col, beta, eps), Fraction(0))

    def is_identity(self) -> tuple[bool, list[EntryKey]]:
        """Exact identity at every retained grade; offenders listed."""
        b0 = beta_zero(self.target.class_rank)
        bad = []
        for key, val in self.entries.items():
            z, row, col, beta, eps = key
            expected = Fraction(1) if (z, beta, eps) == (0, b0, 0) and row == col else Fraction(0)
            if val != expected:
                bad.append(key)
        for row in range(self.target.rank):
            if self.entries.get((0, row, row, b0, 0), Fraction(0)) != 1:
                bad.append((0, row, row, b0, 0))
        return (not bad, sorted(set(bad)))

    def apply_linear(self, f: LoopSeries, out_trunc: Truncation) -> LoopSeries:
        """Matrix action extended z-linearly: entries convolve with the z
        powers of f.  This is the linear extension of the operator to the
        whole space, as opposed to the substitution extension."""
        if f.target != self.target:
            raise MismatchError("operand lives over a different target")
        acc = SeriesAccumulator(self.target, out_trunc)
        for (z_e, row, col, beta_e, eps_e), m in self.entries.items():
            for (z_f, alpha, beta_f, eps_f), c in f.terms.items():
                if alpha != col:
                    continue
                acc.add(z_e + z_f, row, beta_add(beta_e, beta_f), eps_e + eps_f, m * c)
        return acc.series()


def identity_endo(target: TargetSpace, trunc: Truncation) -> EndoSeries:
    b0 = beta_zero(target.class_rank)
    entries = {(0, a, a, b0, 0): Fraction(1) for a in range(target.rank)}
    return EndoSeries(target, trunc, entries)


def _add_entry(entries, trunc, z, row, col, beta, eps, val):
    if not val:
        return
    if not trunc.admits_grade(beta, eps):
        return
    trunc.check_window(z)
    key = (z, row, col, beta, eps)
    entries[key] = entries.get(key, Fraction(0)) + val
    if not entries[key]:
        del entries[key]


def _columns(target: TargetSpace, trunc: Truncation, apply) -> EndoSeries:
    """The matrix whose column col is apply(phi_col)."""
    entries = {}
    for col in range(target.rank):
        for (z, row, beta, eps), val in apply(LoopSeries.basis(target, trunc, col)).terms.items():
            entries[(z, row, col, beta, eps)] = val
    return EndoSeries(target, trunc, entries)


def s_matrix(t: TPolynomial, trunc: Truncation, engine: CorrelatorEngine | None = None) -> EndoSeries:
    """Column alpha is the solution operator applied to phi_alpha."""
    return _columns(t.target, trunc, lambda f: s_apply(t, f, trunc, engine))


def s_adjoint_matrix(t: TPolynomial, trunc: Truncation, engine: CorrelatorEngine | None = None) -> EndoSeries:
    """Adjoint of the solution operator with respect to the pairing:

        S*(z)(v) = v + sum Q^beta eps^n / n! <v, t, ..., t, phi_a/(z - psi)> phi^a.
    """
    return _columns(t.target, trunc, lambda r: s_adjoint_corr_apply(t, r, +1, trunc, engine))


def flip_z(e: EndoSeries) -> EndoSeries:
    """E(z) -> E(-z): sign (-1)^k on each z^k entry."""
    entries = {
        key: (-val if key[0] % 2 else val) for key, val in e.entries.items()
    }
    return EndoSeries(e.target, e.trunc, entries)


def poincare_adjoint(e: EndoSeries) -> EndoSeries:
    """Entrywise adjoint with respect to the pairing: P^{-1} E^T P, so that
    (E x, y) = (x, adjoint(E) y) for every pair of vectors."""
    target = e.target
    p = target.pairing
    pinv = target.pairing_inverse
    entries = {}
    for (z, row, col, beta, eps), val in e.entries.items():
        for r in range(target.rank):
            for c in range(target.rank):
                w = pinv[r][col] * p[row][c]
                if w:
                    _add_entry(entries, e.trunc, z, r, c, beta, eps, w * val)
    return EndoSeries(target, e.trunc, entries)


def compose(a: EndoSeries, b: EndoSeries, flip_second: bool, trunc: Truncation) -> EndoSeries:
    """Matrix product a(z) . b(+/-z), collecting every grade.

    The output window is the sum of the input windows, so no z term is
    dropped; grades beyond the Novikov/eps truncation are discarded
    exactly as in every graded product.
    """
    if a.target != b.target:
        raise MismatchError("endomorphisms live over different targets")
    wide = Truncation(
        trunc.novikov_order,
        trunc.epsilon_order,
        a.trunc.z_min + b.trunc.z_min,
        a.trunc.z_max + b.trunc.z_max,
    )
    by_col: dict[int, list] = {}
    for (z, row, col, beta, eps), val in b.entries.items():
        if flip_second and z % 2:
            val = -val
        by_col.setdefault(row, []).append((z, col, beta, eps, val))
    entries = {}
    for (z1, row, mid, b1, e1), v1 in a.entries.items():
        for (z2, col, b2, e2, v2) in by_col.get(mid, ()):
            beta = beta_add(b1, b2)
            if beta_total(beta) > wide.novikov_order or e1 + e2 > wide.epsilon_order:
                continue
            _add_entry(entries, wide, z1 + z2, row, col, beta, e1 + e2, v1 * v2)
    return EndoSeries(a.target, wide, entries)
