"""Sparse exact algebra of truncated loop-space elements.

Elements of the symplectic loop space are finite Laurent polynomials in
z with cohomology coefficients, further graded by Novikov degree and by
a bookkeeping order ``eps`` that counts t-insertions.  Every identity
checked downstream is homogeneous in both gradings, so truncating at a
Novikov order D and an eps order E is exact order-by-order: retained
coefficients are the true ones, never approximations.

The z-window is different in kind: coefficients outside ``[z_min, z_max]``
are never dropped silently.  An operation that would produce one raises
``TruncationOverflowError``, because the polynomiality verdicts computed
on top of this module must not be artifacts of discarded terms.

Series values are immutable once built; all operations are pure
functions and safe for concurrent use without synchronisation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .targets import CohVector, NovikovDegree, TargetSpace, beta_add, beta_total

# A term key: (z exponent, basis index, novikov degree, eps order).
TermKey = tuple[int, int, NovikovDegree, int]


class MismatchError(ValueError):
    """Operands disagree on target or truncation."""


class TruncationError(ValueError):
    """A truncation with a negative order, or a window that does not hold
    z^0 and z^1."""


class TruncationOverflowError(ValueError):
    """A produced z-exponent falls outside the configured window."""

    def __init__(self, z_exp: int, z_min: int, z_max: int, *span: int):
        self.z_exp = z_exp
        self.z_min = z_min
        self.z_max = z_max
        super().__init__(
            f"z^{z_exp} escapes the window [{z_min}, {z_max}]; "
            f"rerun with z_min <= {min(z_exp, z_min, *span)} and z_max >= {max(z_exp, z_max, *span)}"
        )


@dataclass(frozen=True)
class Truncation:
    """Evaluation bounds: Novikov order D, eps order E and the z-window."""

    novikov_order: int
    epsilon_order: int
    z_min: int
    z_max: int

    def __post_init__(self):
        if self.novikov_order < 0 or self.epsilon_order < 0:
            raise TruncationError("truncation orders must be non-negative")
        if not (self.z_min <= 0 < self.z_max):
            raise TruncationError("window must satisfy z_min <= 0 < z_max")

    def admits_grade(self, beta: NovikovDegree, eps: int) -> bool:
        return beta_total(beta) <= self.novikov_order and eps <= self.epsilon_order

    def check_window(self, z_exp: int, terms: dict | None = None) -> None:
        """Raises for z_exp outside the window; the rerun hint holds every nonzero term of ``terms``."""
        if z_exp < self.z_min or z_exp > self.z_max:
            span = (key[0] for key, val in (terms or {}).items() if Fraction(val))
            raise TruncationOverflowError(z_exp, self.z_min, self.z_max, *span)


def fraction_record(val: Fraction) -> dict:
    return {"num": val.numerator, "den": val.denominator}


def coefficient_record(beta: NovikovDegree, eps: int, value: Fraction | None = None, **labels) -> dict:
    """An exact coefficient at grade (beta, eps) as a JSON-ready record,
    ``{**labels, "novikov": [...], "eps": eps, "num": n, "den": d}``.

    This is the one record format of series dumps and of the failure
    lists of the verify suites.  Without a value the record ends at the
    grade, for labels that carry values of their own.
    """
    record = {**labels, "novikov": list(beta), "eps": eps}
    if value is not None:
        record.update(fraction_record(value))
    return record


class ScalarSeries:
    """Truncated scalar series in the Novikov and eps gradings."""

    __slots__ = ("trunc", "terms")

    def __init__(self, trunc: Truncation, terms: dict | None = None):
        self.trunc = trunc
        clean: dict[tuple[NovikovDegree, int], Fraction] = {}
        for key, val in (terms or {}).items():
            v = val if type(val) is Fraction else Fraction(val)
            if v and trunc.admits_grade(*key):
                clean[key] = v
        self.terms = clean

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScalarSeries)
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"ScalarSeries({len(self.terms)} terms)"

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, beta: NovikovDegree, eps: int) -> Fraction:
        return self.terms.get((beta, eps), Fraction(0))

    def add(self, other: "ScalarSeries") -> "ScalarSeries":
        if self.trunc != other.trunc:
            raise MismatchError("scalar series truncations differ")
        return ScalarSeries(self.trunc, summed(((1, self.terms), (1, other.terms))))

    def scale(self, c) -> "ScalarSeries":
        c = Fraction(c)
        return ScalarSeries(self.trunc, {k: c * v for k, v in self.terms.items()})

    def mul(self, other: "ScalarSeries") -> "ScalarSeries":
        """Graded product; grades beyond the truncation are dropped exactly,
        before the pair's degree is formed: a term of self leaves room
        (D - its Novikov total, E - its eps order) for the other factor."""
        if self.trunc != other.trunc:
            raise MismatchError("scalar series truncations differ")
        D, E = self.trunc.novikov_order, self.trunc.epsilon_order
        right = [(b2, beta_total(b2), e2, v2.numerator, v2.denominator) for (b2, e2), v2 in other.terms.items()]
        sums: dict = {}
        for (b1, e1), v1 in self.terms.items():
            room_beta, room_eps = D - beta_total(b1), E - e1
            n1, d1 = v1.numerator, v1.denominator
            for b2, deg2, e2, n2, d2 in right:
                if deg2 <= room_beta and e2 <= room_eps:
                    merge(sums, (beta_add(b1, b2), e1 + e2), n1 * n2, d1 * d2)
        return ScalarSeries(self.trunc, read_out(sums))

    def to_records(self, **labels) -> list[dict]:
        """The terms in grade order, each a ``coefficient_record`` with ``labels``."""
        return [coefficient_record(b, e, val, **labels) for (b, e), val in sorted(self.terms.items())]


class LoopSeries:
    """Truncated element of the loop space over a fixed target."""

    __slots__ = ("target", "trunc", "terms")

    def __init__(self, target: TargetSpace, trunc: Truncation, terms: dict | None = None):
        self.target = target
        self.trunc = trunc
        clean: dict[TermKey, Fraction] = {}
        rank, class_rank = target.rank, target.class_rank
        for (z, alpha, beta, eps), val in (terms or {}).items():
            v = val if type(val) is Fraction else Fraction(val)
            if not v:
                continue
            trunc.check_window(z, terms)
            if not trunc.admits_grade(beta, eps):
                raise MismatchError(
                    f"term at novikov {beta}, eps {eps} exceeds truncation "
                    f"({trunc.novikov_order}, {trunc.epsilon_order})"
                )
            if not 0 <= alpha < rank:
                raise MismatchError(f"basis index {alpha} is not one of the {rank} classes of {target.name}")
            if len(beta) != class_rank:
                raise MismatchError(f"novikov degree {beta} needs {class_rank} entries on {target.name}")
            clean[(z, alpha, beta, eps)] = v
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, target: TargetSpace, trunc: Truncation) -> "LoopSeries":
        return cls(target, trunc, {})

    @classmethod
    def basis(cls, target: TargetSpace, trunc: Truncation, alpha: int, z_exp: int = 0) -> "LoopSeries":
        """phi_alpha z^k with trivial Novikov and eps grading."""
        rank = target.class_rank
        return cls(target, trunc, {(z_exp, alpha, (0,) * rank, 0): Fraction(1)})

    # -- basic structure ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LoopSeries)
            and self.target == other.target
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"LoopSeries({self.target.name}, {len(self.terms)} terms)"

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, z_exp: int, alpha: int, beta: NovikovDegree, eps: int) -> Fraction:
        return self.terms.get((z_exp, alpha, beta, eps), Fraction(0))

    def _check_compatible(self, other: "LoopSeries") -> None:
        if self.target != other.target:
            raise MismatchError("series live over different targets")
        if self.trunc != other.trunc:
            raise MismatchError("series truncations differ")

    def add(self, other: "LoopSeries") -> "LoopSeries":
        self._check_compatible(other)
        return LoopSeries(self.target, self.trunc, summed(((1, self.terms), (1, other.terms))))

    def scale(self, c) -> "LoopSeries":
        c = Fraction(c)
        return LoopSeries(self.target, self.trunc, {k: c * v for k, v in self.terms.items()})

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1))

    # -- pairing, residue, polarisation -------------------------------------

    def omega(self, other: "LoopSeries") -> ScalarSeries:
        """Symplectic form: the z^{-1} coefficient of (f(-z), g(z)).

        The terms of g are bucketed by z exponent, each carrying its total
        Novikov degree.  Only pairs of terms whose z exponents sum to -1
        contribute, so each term of f at z^k meets only the z^{-1-k}
        bucket of g, with the sign (-1)^k of f(-z) applied in place; no
        other z-product is formed.  A pair whose Novikov or eps grade
        exceeds the truncation is skipped before its degree is formed, as
        is a zero pairing entry.
        """
        self._check_compatible(other)
        max_n = self.trunc.novikov_order
        max_e = self.trunc.epsilon_order
        buckets: dict[int, list] = {}
        for (z2, a2, b2, e2), v2 in other.terms.items():
            buckets.setdefault(z2, []).append((a2, b2, beta_total(b2), e2, v2.numerator, v2.denominator))
        pairing = self.target.pairing
        sums: dict = {}
        for (z1, a1, b1, e1), v1 in self.terms.items():
            n1, d1 = (-v1.numerator if z1 % 2 else v1.numerator), v1.denominator
            row = pairing[a1]
            deg1 = beta_total(b1)
            for a2, b2, deg2, e2, n2, d2 in buckets.get(-1 - z1, ()):
                p = row[a2]
                if not p or deg1 + deg2 > max_n or e1 + e2 > max_e:
                    continue
                merge(sums, (beta_add(b1, b2), e1 + e2), n1 * n2 * p.numerator, d1 * d2 * p.denominator)
        return ScalarSeries(self.trunc, read_out(sums))

    def split_plus_minus(self) -> tuple["LoopSeries", "LoopSeries"]:
        """Polarisation: (z-exponents >= 0, z-exponents < 0); sum is f."""
        plus, minus = {}, {}
        for key, val in self.terms.items():
            (plus if key[0] >= 0 else minus)[key] = val
        return (
            LoopSeries(self.target, self.trunc, plus),
            LoopSeries(self.target, self.trunc, minus),
        )

    def is_z_polynomial(self, strict: bool = False) -> tuple[bool, list[TermKey]]:
        """Whether every retained coefficient at z^{<=0} (strict) or z^{<0} vanishes.

        ``strict=True`` tests membership in z*H_plus, ``strict=False``
        in H_plus.  Returns the full sorted list of offending keys.
        """
        cut = 0 if strict else -1
        offenders = sorted(k for k in self.terms if k[0] <= cut)
        return (not offenders, offenders)

    # -- serialization ------------------------------------------------------

    def to_records(self) -> list[dict]:
        return [
            coefficient_record(b, e, val, z_exp=z, basis=a)
            for (z, a, b, e), val in sorted(self.terms.items())
        ]

    @classmethod
    def from_records(cls, target: TargetSpace, trunc: Truncation, records) -> "LoopSeries":
        terms = {}
        for rec in records:
            key = (int(rec["z_exp"]), int(rec["basis"]), tuple(int(d) for d in rec["novikov"]), int(rec["eps"]))
            terms[key] = Fraction(int(rec["num"]), int(rec["den"]))
        return cls(target, trunc, terms)

    def to_json(self) -> str:
        return json.dumps(self.to_records(), sort_keys=True)


def merge(sums: dict, key, num: int, den: int) -> None:
    """Add num/den at ``key`` of ``sums``, a map from key to an integer pair
    [num, den]: the one exact merge of the graded sums.  The pair is summed
    over the lcm of the denominators, never reduced, and a zero product
    inserts no key, so keys keep the order of their first nonzero products.
    ``summed`` (``ScalarSeries.add``, ``LoopSeries.add``, the universal
    relations), ``ScalarSeries.mul``, ``LoopSeries.omega``, ``_bracket_sum``,
    ``poincare_adjoint`` and ``SeriesAccumulator`` all sum through it.
    """
    pair = sums.get(key)
    if pair is None:
        if num:
            sums[key] = [num, den]
    elif pair[1] == den:
        pair[0] += num
    else:
        g = gcd(pair[1], den)
        pair[0] = pair[0] * (den // g) + num * (pair[1] // g)
        pair[1] *= den // g


def read_out(sums: dict) -> dict:
    """The nonzero sums of a ``merge`` map as Fractions, in key order."""
    return {key: Fraction(num, den) for key, (num, den) in sums.items() if num}


def summed(parts) -> dict:
    """The linear combination of the (c, terms) of ``parts``, sum c * terms,
    each ``terms`` a map from key to exact value; merged and read out once."""
    sums: dict = {}
    for c, terms in parts:
        cn, cd = c.numerator, c.denominator
        for key, val in terms.items():
            merge(sums, key, cn * val.numerator, cd * val.denominator)
    return read_out(sums)


class SeriesAccumulator:
    """Mutable builder used by the generating-function assemblers.

    Terms are integer pairs [num, den] summed by ``merge``, which every add
    ends in, so a zero value inserts no key; each ``Fraction`` is formed
    once, by ``terms``.  Novikov/eps grades beyond the truncation are
    dropped as terms are added (the graded truncation is exact); the
    ``merge`` method takes terms its callers have graded.  The z-window is
    checked once, when ``series`` builds the result: a term outside it
    raises there unless it has cancelled to zero.
    """

    __slots__ = ("target", "trunc", "_terms")

    def __init__(self, target: TargetSpace, trunc: Truncation):
        self.target = target
        self.trunc = trunc
        self._terms: dict[TermKey, list[int]] = {}

    def add(self, z_exp: int, alpha: int, beta: NovikovDegree, eps: int, value: Fraction) -> None:
        if self.trunc.admits_grade(beta, eps):
            self.merge((z_exp, alpha, beta, eps), value.numerator, value.denominator)

    def add_vector(self, z_exp: int, vector: CohVector, beta: NovikovDegree, eps: int, scale: Fraction) -> None:
        for alpha, comp in enumerate(vector):
            if comp:
                self.add(z_exp, alpha, beta, eps, comp * scale)

    def add_series(self, series: LoopSeries) -> None:
        admits = self.trunc.admits_grade
        for key, val in series.terms.items():
            if admits(key[2], key[3]):
                self.merge(key, val.numerator, val.denominator)

    def merge(self, key: TermKey, num: int, den: int) -> None:
        """Add num/den at ``key``, a grade the truncation admits."""
        merge(self._terms, key, num, den)

    def terms(self) -> dict[TermKey, Fraction]:
        """The nonzero terms as Fractions, in the order of their first adds."""
        return read_out(self._terms)

    def series(self) -> LoopSeries:
        return LoopSeries(self.target, self.trunc, self.terms())
