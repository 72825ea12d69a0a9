"""Standalone reference evaluators used to cross-check the main engine.

Everything here is deliberately independent of the reduction system in
``correlators``: the point-target evaluator only knows the string
equation and the three-point base case, the plane-curve counts come
from the classical associativity recursion, and the fixed-locus
enumerator walks every explicit marking subset.  These are the ground
truths the test suite and the ``engine-oracles`` verification suite
compare against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .targets import NovikovDegree, TargetSpace, beta_splits


class OracleDomainError(ValueError):
    """An oracle is asked outside the range it is defined on: fewer than
    three marked points, or a degree that is not positive."""


_PSI_CACHE_SIZE = 1 << 13  # above the 2,970 sorted keys that all n <= 8 integrals visit
_PLANE_CACHE_SIZE = 1024  # counts fill bottom up; up to this degree each is computed once


@lru_cache(maxsize=_PSI_CACHE_SIZE)
def point_psi_integral(powers: tuple[int, ...]) -> Fraction:
    """Integral of psi_1^{k_1} ... psi_n^{k_n} over the n-pointed genus-zero
    moduli of curves, by repeated use of the string equation alone.

    Base case: the three-pointed space is a point, so the integral is 1
    when every exponent vanishes.  Otherwise remove a zero-exponent
    point and lower each remaining exponent in turn; terms that would
    need psi^{-1} vanish.
    """
    ks = tuple(sorted(powers))
    n = len(ks)
    if n < 3:
        raise OracleDomainError("needs at least three marked points")
    if n == 3:
        return Fraction(1) if ks == (0, 0, 0) else Fraction(0)
    if ks[0] != 0:
        # No removable point; the dimension constraint cannot hold.
        return Fraction(0)
    rest = ks[1:]
    total = Fraction(0)
    for j, k in enumerate(rest):
        if k >= 1:
            # Sorted, so that each multiset of exponents is one memo entry.
            total += point_psi_integral(tuple(sorted(rest[:j] + (k - 1,) + rest[j + 1:])))
    return total


def point_psi_closed_form(powers: tuple[int, ...]) -> Fraction:
    """(n-3)!/prod(k_i!) when the exponents sum to n-3, else 0."""
    n = len(powers)
    if sum(powers) != n - 3:
        return Fraction(0)
    return Fraction(factorial(n - 3), prod(map(factorial, powers)))


@lru_cache(maxsize=_PLANE_CACHE_SIZE)
def rational_plane_curves(d: int) -> Fraction:
    """Number of rational plane curves of degree d through 3d-1 points.

    The classical recursion obtained from associativity of the quantum
    product, seeded by the single line through two points:

        N_d = sum_{d1+d2=d} N_{d1} N_{d2} d1^2 d2
              (d2 C(3d-4, 3d1-2) - d1 C(3d-4, 3d1-1)).
    """
    if d < 1:
        raise OracleDomainError("degree must be positive")
    if d == 1:
        return Fraction(1)
    # Lower degrees first, each from the ones below it, so no degree recurses.
    counts = [None] + [rational_plane_curves(e) for e in range(1, d)]
    return sum(
        counts[d1] * counts[d - d1] * d1 ** 2 * (d - d1)
        * ((d - d1) * comb(3 * d - 4, 3 * d1 - 2) - d1 * comb(3 * d - 4, 3 * d1 - 1))
        for d1 in range(1, d)
    )


def brute_force_splittings(
    target: TargetSpace, beta: NovikovDegree, n: int
) -> dict[tuple[str, NovikovDegree, NovikovDegree, int, int], int]:
    """Classify every splitting of (beta, n) with its marking set explicit.

    For each degree beta0 <= beta on the zero end and each subset S of
    the markings {1..n} placed there, the zero end exists on its own iff
    beta0 != 0 or it holds two markings beside the node, and the
    infinity end iff it carries degree or a marking.  The two verdicts
    and |S| name the kind.  Returns (kind, beta0, beta_inf, n0, n_inf)
    -> the number of subsets S of that shape, so the records must match
    the fixed-locus enumeration and each count / n! must be the
    per-record weight 1 / (n0! n_inf!).
    """
    counts: dict = {}
    for beta0, beta_inf in beta_splits(beta):
        for mask in range(1 << n):
            n0 = mask.bit_count()
            zero_end = any(beta0) or n0 >= 2
            inf_end = any(beta_inf) or n0 < n
            if zero_end:
                kind = "generic" if inf_end else "case5"
            else:
                kind = ("case3", "case4")[n0] if inf_end else ("case1", "case2")[n0]
            key = (kind, beta0, beta_inf, n0, n - n0)
            counts[key] = counts.get(key, 0) + 1
    return counts


def projective_one_point_descendants(r: int, d: int) -> dict[tuple[int, int], Fraction]:
    """One-point descendant invariants of P^r in degree d > 0.

    Expands 1/prod_{m=1..d} (H + m z)^{r+1} modulo H^{r+1} and reads the
    invariants off the small J-function:

        [z^{-2-k}] = sum_alpha <phi_alpha psi^k>_{0,1,d} phi^alpha.

    Returns a map (basis index of phi_alpha = H^alpha, psi power) ->
    value.  Used purely as a cross-check oracle for the engine.
    """
    if d <= 0:
        raise OracleDomainError("degree must be positive")
    # Coefficients of the H-expansion of the product, as a vector mod H^{r+1}.
    poly = [Fraction(0)] * (r + 1)
    poly[0] = Fraction(1)
    z_power = 0
    for m in range(1, d + 1):
        for _ in range(r + 1):
            # Divide by (H + m z) = m z (1 + H/(m z)): geometric expansion.
            z_power += 1
            expanded = [Fraction(0)] * (r + 1)
            for i in range(r + 1):
                acc = Fraction(0)
                for j in range(i + 1):
                    acc += poly[j] * (Fraction(-1, m)) ** (i - j)
                expanded[i] = acc / m
            poly = expanded
    out: dict[tuple[int, int], Fraction] = {}
    for i, coeff in enumerate(poly):
        if not coeff:
            continue
        # By homogeneity the H^i coefficient sits at z^{-z_power - i};
        # match against z^{-2-k} and identify H^i with the dual basis
        # class of H^{r-i}.
        k = z_power + i - 2
        if k >= 0:
            out[(r - i, k)] = coeff
    return out
