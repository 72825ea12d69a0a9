"""Exact evaluation of genus-zero descendant correlators.

A correlator <gamma_1 psi^{k_1}, ..., gamma_n psi^{k_n}>_{0,n,beta} is
reduced to seed values by a normal-form system, memoized on canonical
keys.  A key failing the dimension filter is zero; otherwise the first
rule that applies, in priority order, reduces it:

  1. degree zero: product of a classical top intersection with the
     string-equation closed form for the psi factors;
  2. string equation, on a unit insertion with no psi power (n >= 2),
     applied as the divisor corrections of the unit class;
  3. divisor equation with descendant corrections, on a degree-one
     insertion with no psi power (n >= 3);
  4. topological recursion on a psi power (n >= 3), splitting one psi
     factor against the two lexicographically first companion
     insertions over a boundary sum, visiting only the degree splits
     and kernel classes that can fill each side's virtual dimension, so
     the zeros of the others are never cached;
  5. primary backend, for n >= 2 insertions without psi powers: the
     two-point seed in degree one on the line, the plane-curve
     recursion on the plane;
  6. divisor inversion, for the one- and two-point keys left over: the
     divisor equation is solved for the short key, with the extended
     key expanded by topological recursion in place when it has three
     insertions, never re-dispatched, which keeps the rewriting
     well-founded.  Inverting the string equation instead is circular.

``_move`` alone finds which of rules 2-4 applies and the first insertion,
in key order, that it acts on: for ``_reduce`` and for the forced
reductions ``reduce_divisor_first`` and ``reduce_recursion_first`` of the
path-independence check.  These check their key as ``correlator`` does
and raise ``InvalidKeyError`` for a malformed key or one no insertion of
which admits the move.  A reduction started by these or by
``correlator_with_kernel`` that goes deeper than Python's recursion limit
raises ``ReductionDepthError``, a ``CapabilityError`` naming the key.
The dilaton equation is checked by tests, never used as a move.

The cache behaves as a map from canonical key to value; evaluation is a
pure function of the key given the cache, so concurrent duplicate
computation is harmless.  This build is single-threaded.
"""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, gcd, prod
from typing import Iterable

from .series import merge
from .targets import NovikovDegree, TargetSpace, beta_splits, make_target


class StabilityError(ValueError):
    """The requested moduli configuration is unstable or empty."""


class CapabilityError(ValueError):
    """No primary backend is available for the requested target."""


class ReductionDepthError(CapabilityError):
    """A reduction goes deeper than Python's recursion limit."""


class InvalidKeyError(ValueError):
    """A key names a basis index the target lacks, a negative psi power,
    an entry that is not an integer, or a degree that is not a
    non-negative class of the target's rank (or the empty degree)."""


Key = tuple[NovikovDegree, tuple[tuple[int, int], ...]]

# A kernel block: z-exponent -> its vector's nonzero components num/den at phi_rho, as (rho, num, den), rho increasing.
Block = dict[int, tuple[tuple[int, int, int], ...]]

# Entries are keyed by t, so an unbounded cache would keep every t a
# long-lived process has seen; a few dozen covers the working set of one
# verify run: one t, with n up to the eps order in ``cone._expansions``,
# and the values the suites share in ``CorrelatorEngine.shared``, with a
# store of kernel slices per kind of ``cone._kernel_sum``.
_EXPANSIONS_CACHE_SIZE = 64


def vdim(target: TargetSpace, beta: NovikovDegree, n: int) -> int:
    """Virtual dimension of the n-pointed genus-zero space in class beta."""
    return target.dim - 3 + target.c1_pairing(beta) + n


def is_stable(beta: NovikovDegree, n: int) -> bool:
    return any(beta) or n >= 3


def canonical_key(beta: NovikovDegree, insertions: Iterable) -> Key:
    """Sort insertions by basis index then psi power; correlators are
    symmetric in their arguments, so permuted inputs share one key.
    Entries are read as ints, as ``_int_pairs`` reads the insertions."""
    ins = tuple(sorted(_int_pairs(insertions)))
    for _, k in ins:
        if k < 0:
            raise InvalidKeyError("psi powers must be non-negative")
    try:
        raw = tuple(beta)
        degree = tuple(map(int, raw))
    except (TypeError, ValueError):
        raw, degree = beta, None
    if degree != raw:
        raise InvalidKeyError(f"degree {beta!r} is not a tuple of integers")
    return (degree, ins)


def _int_pairs(insertions: Iterable) -> list[tuple[int, int]]:
    """The insertions as (basis index, psi power) pairs of ints.  An entry
    that is not an integer (1.5, "a"), or an insertion that is not a pair,
    raises ``InvalidKeyError`` rather than being truncated onto a key."""
    raw = list(insertions)
    try:
        pairs = [(int(a), int(k)) for a, k in raw]
    except (TypeError, ValueError):
        raise InvalidKeyError(f"insertions {raw!r} are not pairs of integers") from None
    if pairs != raw:  # equal whenever raw holds tuples of integral values
        for (a, k), (x, y) in zip(pairs, raw):
            if a != x or k != y:
                raise InvalidKeyError(f"insertion {(x, y)!r} is not a pair of integers")
    return pairs


# The insertion each reduction move acts on, by the name of the engine
# method that applies it; the order is the dispatch priority.
_ACTS_ON = {
    "_string": lambda t, a, k: a == 0 and k == 0,
    "_divisor": lambda t, a, k: k == 0 and t.degree(a) == 1,
    "_recursion": lambda t, a, k: k > 0,
}


class CorrelatorEngine:
    """Memoized evaluator for one target space."""

    def __init__(self, target: TargetSpace):
        self.target = target
        self._values: dict[Key, Fraction] = {}
        self._active: set[Key] = set()
        self._blocks: dict = {}
        self._shared: OrderedDict = OrderedDict()
        self._plane_counts: dict[int, Fraction] = {}
        self._free = _ByDegree(partial(vdim, target, n=0))
        self._inverting_divisors = _ByDegree(partial(_inverting_divisor, target))
        self._degrees = target.basis_degrees
        # The cup and inverse pairing coefficients as integer pairs, which the reduction sums read.
        self._cup = tuple(
            tuple(tuple((k, c.numerator, c.denominator) for k, c in terms) for terms in row)
            for row in target.cup_terms
        )
        self._pinv = tuple(tuple((c.numerator, c.denominator) for c in row) for row in target.pairing_inverse)

    # ------------------------------------------------------------------
    # public surface

    def correlator(self, beta: NovikovDegree, insertions: Iterable) -> Fraction:
        key = canonical_key(beta, insertions)
        beta, ins = key
        cached = self._values.get(key)
        if cached is None:
            self._check_key(beta, ins)  # only well-formed keys are cached
        n = len(ins)
        if not is_stable(beta, n):
            raise StabilityError(
                f"unstable correlator: beta={beta}, {n} insertions (need beta != 0 or n >= 3)"
            )
        if n == 0:
            raise StabilityError("correlators without insertions are not supported")
        return cached if cached is not None else self._guarded(key, self._eval, beta, ins)

    def shared(self, key, build):
        """build(), the value that several suites or kernel sums read, kept under key.

        Values are held only for the life of the engine; as keys hold t,
        at most ``_EXPANSIONS_CACHE_SIZE`` are kept, the least recently
        used dropped first.  A build that raises keeps nothing.
        """
        value = self._shared.get(key)
        if value is None:
            value = self._shared[key] = build()
            if len(self._shared) > _EXPANSIONS_CACHE_SIZE:
                self._shared.popitem(last=False)
        else:
            self._shared.move_to_end(key)
        return value

    def _check_key(self, beta: NovikovDegree, ins: tuple) -> None:
        """Checks a key from outside the engine; keys the reduction
        produces are well formed and are not checked again."""
        t = self.target
        # The empty degree reads as degree zero on every target.
        if (beta and len(beta) != t.class_rank) or min(beta, default=0) < 0:
            raise InvalidKeyError(
                f"degree {beta} is not a non-negative class of rank {t.class_rank} on {t.name}"
            )
        rank = t.rank
        for a, _ in ins:
            if not 0 <= a < rank:
                raise InvalidKeyError(f"basis index {a} out of range for {t.name} (rank {rank})")

    def correlator_with_kernel(
        self, beta: NovikovDegree, fixed: Iterable, kernel_alpha: int, sign: int
    ) -> dict[int, Fraction]:
        """Expansion of one insertion gamma/(sign*z - psi) over z-exponents.

        1/(z - psi)  = sum_l psi^l z^{-1-l}
        1/(-z - psi) = sum_l (-1)^{l+1} psi^l z^{-1-l}

        The dimension filter selects at most one surviving psi depth l,
        so the returned map is finite (at most one key).
        """
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

    def _room(self, beta: NovikovDegree, slots: tuple) -> int:
        """The kernel dimension filter: a kernel class of degree d beside
        ``slots`` fills the virtual dimension at psi depth room - d, and is
        zero if that is negative.  Read from the engine's table of
        ``dim - 3 + c1(beta)`` and the basis degrees, as ``_fits`` is."""
        deg = self._degrees
        return self._free[beta] + len(slots) + 1 - sum(deg[a] + k for a, k in slots)

    def _kernel(self, beta: NovikovDegree, ins: tuple, l: int, sign: int) -> Fraction:
        """The z^{-1-l} coefficient of a kernel correlator on checked
        insertions ``ins``, whose kernel slot carries psi^l: the cached
        value if there is one, else its reduction."""
        key = (beta, tuple(sorted(ins)))
        val = self._values.get(key)
        if val is None:
            val = self._guarded(key, self._eval, *key)
        return -val if sign < 0 and l % 2 == 0 else val

    def fibre_block(self, beta: NovikovDegree, fixed: tuple, sign: int) -> Block:
        """sum_gamma <fixed..., phi_gamma/(sign*z - psi)> phi^gamma, a ``Block``:
        the cached block, else the one ``_block`` builds."""
        fixed = tuple(sorted(fixed))
        block = self._blocks.get((beta, None, fixed, sign))
        return block if block is not None else self._block(beta, None, fixed, sign)

    def flow_block(self, beta: NovikovDegree, kernel_alpha: int, fixed: tuple) -> Block:
        """sum_gamma <phi_a/(z - psi), fixed..., phi_gamma> phi^gamma, a ``Block``:
        the cached block, else the one ``_block`` builds."""
        fixed = tuple(sorted(fixed))
        block = self._blocks.get((beta, kernel_alpha, fixed, +1))
        return block if block is not None else self._block(beta, kernel_alpha, fixed, +1)

    def _block(self, beta, kernel_alpha, fixed, sign) -> Block:
        """The kernel block missing from the cache under its key, built and cached.

        The kernel sits on phi_gamma when ``kernel_alpha`` is None (a fibre
        block), else on phi_a with phi_gamma a plain slot (a flow block).
        The block is built in one pass over the basis, at the cost of its
        values.  The key is canonicalised once and checked once, as
        ``correlator_with_kernel`` checks the gamma = 0 kernel correlator:
        the others differ from it in gamma alone.  The ``_room`` the slots
        beside phi_gamma leave is worked out once, and only the gamma that
        fit it, gamma = 0 among them, are reduced, each read through
        ``_kernel``.  Each value is merged on integer pairs along the sparse
        ``dual_terms`` of phi^gamma; these are independent, so no
        z-exponent a value reaches sums to the zero vector.  The nonzero
        sums are cached unreduced, in the ``Block`` format that
        ``cone._kernel_sum`` reads, and no ``Fraction`` is formed.
        """
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
            val = self._kernel(beta, fixed + slots, l, sign)
            if val:
                vec, vn, vd = sums.setdefault(-1 - l, {}), val.numerator, val.denominator
                for rho, (cn, cd) in dual:
                    merge(vec, rho, vn * cn, vd * cd)
        block = {z: tuple([(rho, n, d) for rho, (n, d) in sorted(vec.items()) if n]) for z, vec in sums.items()}
        self._blocks[key] = block
        return block

    # ------------------------------------------------------------------
    # forced single-step reductions, exposed for the path-independence check

    def reduce_divisor_first(self, beta: NovikovDegree, insertions: Iterable) -> Fraction:
        return self._forced("_divisor", beta, insertions)

    def reduce_recursion_first(self, beta: NovikovDegree, insertions: Iterable) -> Fraction:
        return self._forced("_recursion", beta, insertions)

    def _forced(self, move: str, beta: NovikovDegree, insertions: Iterable) -> Fraction:
        beta, ins = canonical_key(beta, insertions)
        self._check_key(beta, ins)
        rule, pos = self._move(ins, (move,))
        if rule is None:
            raise InvalidKeyError(f"no insertion of {ins} admits the {move[1:]} move")
        return self._guarded((beta, ins), rule, beta, ins, pos) if self._fits(beta, ins) else Fraction(0)

    def _guarded(self, key: Key, reduce, *args) -> Fraction:
        """reduce(*args), the reduction of key from outside the engine; one
        deeper than Python's recursion limit raises ReductionDepthError."""
        try:
            return reduce(*args)
        except RecursionError:
            raise ReductionDepthError(
                f"reducing beta={key[0]}, insertions={key[1]} exceeds Python's recursion limit"
            ) from None

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
        if not self._fits(beta, ins):
            return Fraction(0)
        if not any(beta):
            return self._degree_zero(ins)
        n = len(ins)
        rule, pos = self._move(ins, _ACTS_ON if n >= 3 else ("_string",) if n == 2 else ())
        if rule is not None:
            return rule(beta, ins, pos)
        if n >= 2 and not any(k for _, k in ins):
            return self._primary(beta, ins)
        return self._divisor_inversion(beta, ins)

    def _fits(self, beta: NovikovDegree, ins: tuple) -> bool:
        """The dimension filter: degrees plus psi powers fill the virtual
        dimension exactly.  Read from the engine's table of
        ``dim - 3 + c1(beta)`` and the basis degrees."""
        deg = self._degrees
        return sum(deg[a] + k for a, k in ins) == self._free[beta] + len(ins)

    def _move(self, ins: tuple, moves: Iterable[str]):
        """The first of ``moves`` that some insertion admits, as the bound
        rule and the position of the first such insertion, or two Nones."""
        t = self.target
        for move in moves:
            acts_on = _ACTS_ON[move]
            for pos, (a, k) in enumerate(ins):
                if acts_on(t, a, k):
                    return getattr(self, move), pos
        return None, None

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
        return top * Fraction(factorial(n - 3), prod(factorial(k) for _, k in ins))

    def _divisor(self, beta: NovikovDegree, ins: tuple, pos: int) -> Fraction:
        """<D, x_1, ..., x_n> = (D.beta) <x_1, ..., x_n> + corrections; the
        pairing term is the pair the corrections are summed onto."""
        rest = ins[:pos] + ins[pos + 1:]
        pairing = self.target.divisor_pairing(ins[pos][0], beta)
        val = self._eval(beta, rest)
        return self._corrections(beta, ins, pos, pairing * val.numerator, val.denominator)

    def _corrections(
        self, beta: NovikovDegree, ins: tuple, pos: int, num: int = 0, den: int = 1, over: int = 1
    ) -> Fraction:
        """Descendant corrections of the divisor equation for the class D at
        pos, added to num/den and divided by ``over``:

        (num/den + sum_{j != pos: k_j >= 1} <..., (D cup gamma_j) psi^{k_j - 1}, ...>) / over.

        The terms are summed on the integer pair (num, den) over the lcm of
        the denominators, as ``series.merge`` sums, and the total is the one
        ``Fraction`` formed.  The lcm step is written out here and in
        ``_recursion``: a call per term would cost a frame and its time.
        """
        div, rest = ins[pos][0], ins[:pos] + ins[pos + 1:]
        cup = self._cup[div]
        for j, (a, k) in enumerate(rest):
            if k >= 1:
                for nu, cn, cd in cup[a]:
                    val = self._eval(beta, _sorted_replace(rest, j, (nu, k - 1)))
                    vn = val.numerator
                    if vn:
                        vn, vd = cn * vn, cd * val.denominator
                        if vd == den:
                            num += vn
                        else:
                            g = gcd(den, vd)
                            num = num * (vd // g) + vn * (den // g)
                            den *= vd // g
        return Fraction(num, den * over)

    # The string equation <1, x_1, ..., x_n> = sum_j <..., psi-lowered x_j, ...> is the unit's divisor
    # equation, whose pairing term is zero; an alias, not a wrapper, adds no frame to the reduction.
    _string = _corrections

    def _recursion(self, beta: NovikovDegree, ins: tuple, carrier_pos: int) -> Fraction:
        """Genus-zero topological recursion on the psi power at carrier_pos.

        One psi factor is traded for the boundary sum over splittings of
        the degree and of the spare insertions, with the carrier on one
        side and the two companion insertions on the other, joined by
        the diagonal class sum_mu phi_mu x phi^mu.  It visits only the
        degree splits and kernel classes that can fill each side's virtual
        dimension: in ``beta_splits`` order, the splits whose c1(b0) lifts
        the carrier side's ``need`` to a basis degree, and phi_mu of degree
        need and phi_nu of degree dim - need; the rest are zero by the
        dimension filter and are not cached.
        """
        t = self.target
        a_c, k_c = ins[carrier_pos]
        rest = ins[:carrier_pos] + ins[carrier_pos + 1:]
        comp_ins, spare_ins = rest[:2], rest[2:]
        pinv, by_degree = self._pinv, t.basis_by_degree
        # ``need`` per split of the spare insertions: the carrier side's vdim less the
        # degrees and psi powers of left_base, but for the c1(b0) each degree split adds.
        masks = []
        for mask in range(1 << len(spare_ins)):
            side0 = tuple(x for i, x in enumerate(spare_ins) if mask >> i & 1)
            spare = sum(1 - t.degree(a) - k for a, k in side0)
            masks.append((mask, side0, t.dim - t.degree(a_c) - k_c + spare))
        by_c1 = _splits_by_c1(t.c1_vector, beta)
        fitting = {deg - need for _, _, need in masks for deg in by_degree}
        num, den = 0, 1  # the total, summed as _corrections sums
        for _, b0, b1, c1 in sorted(s for c in fitting for s in by_c1.get(c, ())):
            for mask, side0, need in masks:
                need += c1
                mus = by_degree.get(need)
                if not mus or (not any(b0) and not side0):
                    continue  # no class fills the carrier side, or a zero-degree side lacks a third point
                side1 = tuple(x for i, x in enumerate(spare_ins) if not (mask >> i & 1))
                left_base = tuple(sorted(side0 + ((a_c, k_c - 1),)))
                right_base = tuple(sorted(side1 + comp_ins))
                for mu in mus:
                    left = self._eval(beta=b0, ins=tuple(sorted(left_base + ((mu, 0),))))
                    ln = left.numerator
                    if not ln:
                        continue
                    ld, row = left.denominator, pinv[mu]
                    for nu in by_degree.get(t.dim - need, ()):
                        wn, wd = row[nu]
                        if not wn:
                            continue
                        right = self._eval(beta=b1, ins=tuple(sorted(right_base + ((nu, 0),))))
                        vn = right.numerator
                        if vn:
                            vn, vd = wn * ln * vn, wd * ld * right.denominator
                            if vd == den:
                                num += vn
                            else:
                                g = gcd(den, vd)
                                num = num * (vd // g) + vn * (den // g)
                                den *= vd // g
        return Fraction(num, den)

    def _primary(self, beta: NovikovDegree, ins: tuple) -> Fraction:
        """Seed values of the built-in line and plane.  A target gets them
        by equalling the built-in presentation, name included, so a custom
        presentation that only borrows the name gets none."""
        t = self.target
        if t == make_target("P1"):
            if beta == (1,) and ins == ((1, 0), (1, 0)):
                return Fraction(1)  # one line matching two point constraints
            raise CapabilityError(f"no P1 primary value for beta={beta}, insertions={ins}")
        if t == make_target("P2"):
            if all(a == 2 and k == 0 for a, k in ins):
                return self._plane_count(beta[0])
            raise CapabilityError(f"no P2 primary value for insertions={ins}")
        raise CapabilityError(f"target {t.name!r} has no primary correlator backend")

    def _plane_count(self, d: int) -> Fraction:
        """Degree-d rational plane curves through 3d-1 general points, via the
        recursion induced by associativity of the quantum product, filled
        in bottom up so that no degree recurses."""
        counts = self._plane_counts
        counts.setdefault(1, Fraction(1))
        for e in range(len(counts) + 1, d + 1):
            counts[e] = sum(
                counts[d1] * counts[e - d1] * d1 ** 2 * (e - d1)
                * ((e - d1) * comb(3 * e - 4, 3 * d1 - 2) - d1 * comb(3 * e - 4, 3 * d1 - 1))
                for d1 in range(1, e)
            )
        return counts[d]

    def _divisor_inversion(self, beta: NovikovDegree, ins: tuple) -> Fraction:
        """Solve the divisor equation for the short correlator:

        <x_1, ..., x_n> = [ <H, x_1, ..., x_n> - corrections ] / (H.beta)

        where the extended key is expanded by topological recursion in
        place when it has three insertions (re-dispatching it would
        apply the divisor rule and loop).  H and H.beta are read from the
        engine's table by degree; the corrections are summed from minus the
        extended value and divided by minus H.beta, which is the same.
        """
        found = self._inverting_divisors[beta]
        if found is None:
            raise CapabilityError(
                f"no divisor pairs with beta={beta} on {self.target.name}; cannot ground the key {ins}"
            )
        div, pairing = found
        ext = tuple(sorted(ins + ((div, 0),)))
        if len(ext) >= 3:
            rule, pos = self._move(ext, ("_recursion",))
            extended = rule(beta, ext, pos)
        else:
            extended = self._eval(beta, ext)
        return self._corrections(
            beta, ext, ext.index((div, 0)), -extended.numerator, extended.denominator, -pairing
        )


def _sorted_replace(ins: tuple, j: int, new: tuple) -> tuple:
    return tuple(sorted(ins[:j] + (new,) + ins[j + 1:]))


@lru_cache(maxsize=256)  # one table for every engine, bounded as a long-lived process meets ever more degrees
def _splits_by_c1(c1_vector: tuple[int, ...], beta: NovikovDegree) -> dict[int, list]:
    """The splits beta = b0 + b1 as (index in ``beta_splits`` order, b0, b1, c1(b0)), grouped by c1(b0)."""
    by_c1: dict[int, list] = {}
    for i, (b0, b1) in enumerate(beta_splits(beta)):
        c1 = sum(c * d for c, d in zip(c1_vector, b0))
        by_c1.setdefault(c1, []).append((i, b0, b1, c1))
    return by_c1


def _inverting_divisor(target: TargetSpace, beta: NovikovDegree) -> tuple[int, int] | None:
    """(H, H.beta) for the first divisor class H that pairs nonzero with
    beta, the class the divisor inversion adds, or None if there is none."""
    return next(
        ((i, p) for i in target.divisor_indices if (p := target.divisor_pairing(i, beta))), None
    )


class _ByDegree(dict):
    """beta -> build(beta), worked out the first time an engine meets beta:
    ``dim - 3 + c1(beta)``, the virtual dimension less the number of
    points, and the divisor the inversion adds."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, beta: NovikovDegree):
        value = self[beta] = self.build(beta)
        return value


_ENGINE_CACHE_SIZE = 8


@lru_cache(maxsize=_ENGINE_CACHE_SIZE)
def get_engine(target: TargetSpace) -> CorrelatorEngine:
    """Shared engine per target value, so a custom presentation never
    displaces a built-in of the same name; the least recently used of
    more than ``_ENGINE_CACHE_SIZE`` engines is dropped."""
    return CorrelatorEngine(target)


def correlator(target: TargetSpace, beta: NovikovDegree, insertions: Iterable) -> Fraction:
    return get_engine(target).correlator(beta, insertions)
