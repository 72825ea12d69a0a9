"""Exact evaluation of genus-zero descendant correlators.

A correlator <gamma_1 psi^{k_1}, ..., gamma_n psi^{k_n}>_{0,n,beta} is
reduced to seed values by a normal-form system, memoized on canonical
keys.  In priority order, for a key passing the dimension filter:

  1. degree zero: product of a classical top intersection with the
     string-equation closed form for the psi factors;
  2. string equation, when a unit insertion with no psi power is present;
  3. divisor equation with descendant corrections, when a degree-one
     insertion with no psi power is present;
  4. topological recursion, splitting one psi factor against the two
     lexicographically first companion insertions over a boundary sum;
  5. primary backend: the single two-point seed in degree one on the
     line, and the plane-curve recursion on the plane.

Keys with fewer than three insertions (nonzero degree) do not support
the string or recursion moves directly.  They are grounded by inverting
the divisor equation against the hyperplane class: the extended
three-point key is expanded by topological recursion in place, never
re-dispatched, which keeps the rewriting well-founded.  The pure
string-equation inversion one might try instead is circular: it
reproduces the key being computed and determines nothing, which is why
the divisor route is used.  String and dilaton consistency are enforced
by tests rather than used as reduction moves.

The cache behaves as a map from canonical key to value; evaluation is a
pure function of the key given the cache, so concurrent duplicate
computation is harmless.  This build is single-threaded.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterable, NamedTuple

from .targets import (
    CohVector,
    NovikovDegree,
    TargetSpace,
    beta_splits,
)


class StabilityError(ValueError):
    """The requested moduli configuration is unstable or empty."""


class CapabilityError(ValueError):
    """No primary backend is available for the requested target."""


class InvalidKeyError(ValueError):
    """A key names a basis index the target lacks, or a degree that is not
    a non-negative class of the target's rank (or the empty degree)."""


class Insertion(NamedTuple):
    alpha: int
    psi: int


Key = tuple[NovikovDegree, tuple[tuple[int, int], ...]]


def vdim(target: TargetSpace, beta: NovikovDegree, n: int) -> int:
    """Virtual dimension of the n-pointed genus-zero space in class beta."""
    return target.dim - 3 + target.c1_pairing(beta) + n


def is_stable(beta: NovikovDegree, n: int) -> bool:
    return any(beta) or n >= 3


def canonical_key(beta: NovikovDegree, insertions: Iterable) -> Key:
    """Sort insertions by basis index then psi power; correlators are
    symmetric in their arguments, so permuted inputs share one key."""
    ins = tuple(sorted((int(a), int(k)) for a, k in insertions))
    if any(k < 0 for _, k in ins):
        raise ValueError("psi powers must be non-negative")
    return (tuple(beta), ins)


class CorrelatorEngine:
    """Memoized evaluator for one target space."""

    def __init__(self, target: TargetSpace):
        self.target = target
        self._values: dict[Key, Fraction] = {}
        self._active: set[Key] = set()
        self._fibre_blocks: dict = {}
        self._flow_blocks: dict = {}
        self._plane_counts: dict[int, Fraction] = {}

    # ------------------------------------------------------------------
    # public surface

    def correlator(self, beta: NovikovDegree, insertions: Iterable) -> Fraction:
        key = canonical_key(beta, insertions)
        cached = self._values.get(key)
        if cached is not None:
            return cached
        beta, ins = key
        self._check_key(beta, ins)
        n = len(ins)
        if not is_stable(beta, n):
            raise StabilityError(
                f"unstable correlator: beta={beta}, {n} insertions (need beta != 0 or n >= 3)"
            )
        if n == 0:
            raise StabilityError("correlators without insertions are not supported")
        return self._eval(beta, ins)

    def _check_key(self, beta: NovikovDegree, ins: tuple) -> None:
        """Runs on cache misses only; a cached key was checked when it was
        first asked for or is a well-formed key the reduction produced."""
        t = self.target
        # The empty degree reads as degree zero on every target.
        if (beta and len(beta) != t.class_rank) or any(d < 0 for d in beta):
            raise InvalidKeyError(
                f"degree {beta} is not a non-negative class of rank {t.class_rank} on {t.name}"
            )
        for a, _ in ins:
            if not 0 <= a < t.rank:
                raise InvalidKeyError(f"basis index {a} out of range for {t.name} (rank {t.rank})")

    def correlator_with_kernel(
        self,
        beta: NovikovDegree,
        fixed: Iterable,
        kernel_alpha: int,
        sign: int,
    ) -> dict[int, Fraction]:
        """Expansion of one insertion gamma/(sign*z - psi) over z-exponents.

        1/(z - psi)  = sum_l psi^l z^{-1-l}
        1/(-z - psi) = sum_l (-1)^{l+1} psi^l z^{-1-l}

        The dimension filter selects at most one surviving psi depth l,
        so the returned map is finite (at most one key).
        """
        fixed = tuple(sorted((int(a), int(k)) for a, k in fixed))
        m = len(fixed) + 1
        if not is_stable(beta, m):
            raise StabilityError(
                f"kernel correlator unstable: beta={beta}, {m} insertions"
            )
        used = sum(self.target.degree(a) + k for a, k in fixed)
        l = vdim(self.target, beta, m) - used - self.target.degree(kernel_alpha)
        if l < 0:
            return {}
        val = self._eval(*canonical_key(beta, fixed + ((kernel_alpha, l),)))
        if not val:
            return {}
        if sign < 0 and l % 2 == 0:
            val = -val
        return {-1 - l: val}

    def fibre_block(self, beta: NovikovDegree, fixed: tuple, sign: int) -> dict[int, CohVector]:
        """sum_gamma <fixed..., phi_gamma/(sign*z - psi)> phi^gamma per z-exponent."""
        fixed = tuple(sorted(fixed))
        key = (beta, fixed, sign)
        block = self._fibre_blocks.get(key)
        if block is None:
            block = {}
            for gamma in range(self.target.rank):
                for z_exp, val in self.correlator_with_kernel(beta, fixed, gamma, sign).items():
                    vec = self.target.dual_basis_vector(gamma)
                    acc = block.setdefault(z_exp, [Fraction(0)] * self.target.rank)
                    for rho, comp in enumerate(vec):
                        if comp:
                            acc[rho] += val * comp
            block = {z: tuple(v) for z, v in block.items() if any(v)}
            self._fibre_blocks[key] = block
        return block

    def flow_block(self, beta: NovikovDegree, kernel_alpha: int, fixed: tuple) -> dict[int, CohVector]:
        """sum_gamma <phi_a/(z - psi), fixed..., phi_gamma> phi^gamma per z-exponent."""
        fixed = tuple(sorted(fixed))
        key = (beta, kernel_alpha, fixed)
        block = self._flow_blocks.get(key)
        if block is None:
            block = {}
            for gamma in range(self.target.rank):
                ext = fixed + ((gamma, 0),)
                for z_exp, val in self.correlator_with_kernel(beta, ext, kernel_alpha, +1).items():
                    vec = self.target.dual_basis_vector(gamma)
                    acc = block.setdefault(z_exp, [Fraction(0)] * self.target.rank)
                    for rho, comp in enumerate(vec):
                        if comp:
                            acc[rho] += val * comp
            block = {z: tuple(v) for z, v in block.items() if any(v)}
            self._flow_blocks[key] = block
        return block

    # ------------------------------------------------------------------
    # reduction system

    def _eval(self, beta: NovikovDegree, ins: tuple) -> Fraction:
        key = (beta, ins)
        cached = self._values.get(key)
        if cached is not None:
            return cached
        if key in self._active:
            raise RuntimeError(f"correlator reduction cycle at {key}")
        self._active.add(key)
        try:
            value = self._reduce(beta, ins)
        finally:
            self._active.discard(key)
        self._values[key] = value
        return value

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

    def _degree_zero(self, ins: tuple) -> Fraction:
        """Degree zero: the moduli splits off the target, so the value is a
        classical intersection number times a psi integral on the space of
        pointed rational curves."""
        t = self.target
        n = len(ins)
        psi_sum = sum(k for _, k in ins)
        if psi_sum != n - 3:
            return Fraction(0)
        vec = t.unit
        for a, _ in ins:
            vec = t.cup(vec, t.basis_vector(a))
        top = t.integral(vec)
        if not top:
            return Fraction(0)
        moment = Fraction(factorial(n - 3))
        for _, k in ins:
            moment /= factorial(k)
        return top * moment

    def _string(self, beta: NovikovDegree, ins: tuple, pos: int) -> Fraction:
        """<1, x_1, ..., x_n> = sum_j <x_1, ..., psi-lowered x_j, ..., x_n>."""
        rest = ins[:pos] + ins[pos + 1:]
        total = Fraction(0)
        for j, (a, k) in enumerate(rest):
            if k >= 1:
                total += self._eval(beta, _sorted_replace(rest, j, (a, k - 1)))
        return total

    def _divisor(self, beta: NovikovDegree, ins: tuple, pos: int) -> Fraction:
        """Divisor equation with descendant corrections:

        <D, x_1, ..., x_n> = (D.beta) <x_1, ..., x_n>
                             + sum_{j: k_j >= 1} <..., (D cup gamma_j) psi^{k_j - 1}, ...>.
        """
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

    def _recursion(self, beta: NovikovDegree, ins: tuple, carrier_pos: int) -> Fraction:
        """Genus-zero topological recursion on the psi power at carrier_pos.

        One psi factor is traded for the boundary sum over splittings of
        the degree and of the spare insertions, with the carrier on one
        side and the two companion insertions on the other, joined by
        the diagonal class sum_mu phi_mu x phi^mu.
        """
        t = self.target
        a_c, k_c = ins[carrier_pos]
        others = [i for i in range(len(ins)) if i != carrier_pos]
        comp = others[:2]
        spare = others[2:]
        comp_ins = tuple(ins[i] for i in comp)
        spare_ins = tuple(ins[i] for i in spare)
        pinv = t.pairing_inverse
        total = Fraction(0)
        for b0, b1 in beta_splits(beta):
            for mask in range(1 << len(spare_ins)):
                side0 = tuple(x for i, x in enumerate(spare_ins) if mask >> i & 1)
                if not any(b0) and not side0:
                    continue  # zero-degree side needs a third special point
                side1 = tuple(x for i, x in enumerate(spare_ins) if not (mask >> i & 1))
                left_base = tuple(sorted(side0 + ((a_c, k_c - 1),)))
                right_base = tuple(sorted(side1 + comp_ins))
                for mu in range(t.rank):
                    left = self._eval(beta=b0, ins=tuple(sorted(left_base + ((mu, 0),))))
                    if not left:
                        continue
                    for nu in range(t.rank):
                        w = pinv[mu][nu]
                        if not w:
                            continue
                        right = self._eval(beta=b1, ins=tuple(sorted(right_base + ((nu, 0),))))
                        if right:
                            total += w * left * right
        return total

    def _primary(self, beta: NovikovDegree, ins: tuple) -> Fraction:
        t = self.target
        if t.name == "P1":
            if beta == (1,) and ins == ((1, 0), (1, 0)):
                return Fraction(1)  # one line matching two point constraints
            raise CapabilityError(f"no P1 primary value for beta={beta}, insertions={ins}")
        if t.name == "P2":
            if all(a == 2 and k == 0 for a, k in ins):
                return self._plane_count(beta[0])
            raise CapabilityError(f"no P2 primary value for insertions={ins}")
        raise CapabilityError(f"target {t.name!r} has no primary correlator backend")

    def _plane_count(self, d: int) -> Fraction:
        """Degree-d rational plane curves through 3d-1 general points, via the
        recursion induced by associativity of the quantum product."""
        val = self._plane_counts.get(d)
        if val is None:
            if d == 1:
                val = Fraction(1)
            else:
                val = Fraction(0)
                for d1 in range(1, d):
                    d2 = d - d1
                    val += (
                        self._plane_count(d1)
                        * self._plane_count(d2)
                        * d1 ** 2
                        * d2
                        * (d2 * comb(3 * d - 4, 3 * d1 - 2) - d1 * comb(3 * d - 4, 3 * d1 - 1))
                    )
            self._plane_counts[d] = val
        return val

    def _few_points(self, beta: NovikovDegree, ins: tuple) -> Fraction:
        """Ground one- and two-point keys of nonzero degree."""
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
        """Solve the divisor equation for the short correlator:

        <x_1, ..., x_n> = [ <H, x_1, ..., x_n> - corrections ] / (H.beta)

        where the extended key is expanded by topological recursion in
        place when it has three insertions (re-dispatching it would
        apply the divisor rule and loop).
        """
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

    # ------------------------------------------------------------------
    # forced single-step reductions, exposed for the path-independence check

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


def _sorted_replace(ins: tuple, j: int, new: tuple) -> tuple:
    return tuple(sorted(ins[:j] + (new,) + ins[j + 1:]))


_ENGINES: dict[str, CorrelatorEngine] = {}


def get_engine(target: TargetSpace) -> CorrelatorEngine:
    """Shared per-target engine; built-ins keyed by name."""
    engine = _ENGINES.get(target.name)
    if engine is None or engine.target != target:
        engine = CorrelatorEngine(target)
        _ENGINES[target.name] = engine
    return engine


def correlator(target: TargetSpace, beta: NovikovDegree, insertions: Iterable) -> Fraction:
    return get_engine(target).correlator(beta, insertions)
