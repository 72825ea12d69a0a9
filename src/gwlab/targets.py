"""Exact cohomology presentations of the built-in target spaces.

A target is a finite rational presentation of an even cohomology ring:
a graded basis (powers of the hyperplane class for the projective
spaces), the intersection pairing, cup structure constants, and the
numerical data of the effective curve-class monoid.  Presentations are
frozen after construction and safe to share between threads; every
operation in this module is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product

CohVector = tuple[Fraction, ...]
NovikovDegree = tuple[int, ...]

BUILTIN_NAMES = ("point", "P1", "P2")


class ConfigurationError(ValueError):
    """Unknown target name or an inconsistent custom presentation."""


# ---------------------------------------------------------------------------
# Effective-class (Novikov) degrees.  A degree is a tuple of non-negative
# integers of length ``class_rank``; the empty tuple for the point.

def beta_zero(rank: int) -> NovikovDegree:
    return (0,) * rank


def beta_add(a: NovikovDegree, b: NovikovDegree) -> NovikovDegree:
    return tuple(x + y for x, y in zip(a, b))


def beta_total(beta: NovikovDegree) -> int:
    return sum(beta)


def iter_betas(rank: int, bound: int) -> list[NovikovDegree]:
    """All effective degrees with total degree <= bound, by total then lex;
    each prefix grows only while its total stays within the bound."""
    betas: list[NovikovDegree] = [()]
    for _ in range(rank):
        betas = [b + (d,) for b in betas for d in range(bound - sum(b) + 1)]
    betas.sort(key=lambda b: (sum(b), b))
    return betas


def beta_splits(beta: NovikovDegree) -> list[tuple[NovikovDegree, NovikovDegree]]:
    """All ordered componentwise splittings beta = b0 + b1."""
    lows = product(*(range(d + 1) for d in beta))
    return [(lo, tuple(d - l for d, l in zip(beta, lo))) for lo in lows]


def _invert(matrix: tuple[CohVector, ...]) -> tuple[CohVector, ...]:
    n = len(matrix)
    aug = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ConfigurationError("pairing matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@dataclass(frozen=True)
class TargetSpace:
    """Finite presentation of H*(X) in a fixed homogeneous basis.

    ``basis_degrees[0]`` must be 0: index 0 is the unit class.  The cup
    tensor stores the coordinates of ``phi_i . phi_j``; products landing
    above the top degree are identically zero.  ``c1_vector`` pairs the
    anticanonical class with each generator of the effective monoid and
    ``divisor_rows`` does the same for every degree-one basis class.
    """

    name: str
    dim: int
    basis_degrees: tuple[int, ...]
    pairing: tuple[CohVector, ...]
    cup_tensor: tuple[tuple[CohVector, ...], ...]
    class_rank: int
    c1_vector: tuple[int, ...]
    divisor_rows: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def rank(self) -> int:
        return len(self.basis_degrees)

    def degree(self, alpha: int) -> int:
        return self.basis_degrees[alpha]

    @cached_property
    def pairing_inverse(self) -> tuple[CohVector, ...]:
        return _invert(self.pairing)

    @cached_property
    def basis_by_degree(self) -> dict[int, tuple[int, ...]]:
        """The basis indices of each degree, in index order."""
        return {d: tuple(a for a, e in enumerate(self.basis_degrees) if e == d) for d in set(self.basis_degrees)}

    @cached_property
    def cup_terms(self) -> tuple:
        """cup_terms[i][j]: the (k, c) with c != 0 in phi_i cup phi_j = sum_k c phi_k."""
        return tuple(tuple(tuple((k, c) for k, c in enumerate(v) if c) for v in row) for row in self.cup_tensor)

    @cached_property
    def _hash(self) -> int:
        # The generated hash, computed once: targets key the engine and
        # expansion caches, and their Fraction tables are dear to hash.
        return hash(tuple(getattr(self, f.name) for f in fields(self)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def unit(self) -> CohVector:
        return self.basis_vector(0)

    def basis_vector(self, alpha: int) -> CohVector:
        return tuple(Fraction(i == alpha) for i in range(self.rank))

    def dual_basis_vector(self, gamma: int) -> CohVector:
        """phi^gamma, characterised by (phi_alpha, phi^gamma) = delta."""
        return self.pairing_inverse[gamma]

    @cached_property
    def dual_terms(self) -> tuple:
        """dual_terms[gamma]: the (rho, (num, den)) with c = num/den != 0 in
        phi^gamma = sum_rho c phi_rho."""
        return tuple(
            tuple((rho, (c.numerator, c.denominator)) for rho, c in enumerate(row) if c)
            for row in self.pairing_inverse
        )

    def cup_basis(self, i: int, j: int) -> CohVector:
        return self.cup_tensor[i][j]

    def cup(self, a: CohVector, b: CohVector) -> CohVector:
        out = [Fraction(0)] * self.rank
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                for k, c in enumerate(self.cup_tensor[i][j]):
                    if c:
                        out[k] += ai * bj * c
        return tuple(out)

    def pair(self, a: CohVector, b: CohVector) -> Fraction:
        total = Fraction(0)
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = self.pairing[i]
            for j, bj in enumerate(b):
                if bj:
                    total += ai * bj * row[j]
        return total

    def integral(self, a: CohVector) -> Fraction:
        """Integral over X, i.e. the pairing against the unit."""
        return self.pair(a, self.unit)

    def c1_pairing(self, beta: NovikovDegree) -> int:
        return sum(c * d for c, d in zip(self.c1_vector, beta))

    def divisor_pairing(self, alpha: int, beta: NovikovDegree) -> int:
        for idx, row in self.divisor_rows:
            if idx == alpha:
                return sum(c * d for c, d in zip(row, beta))
        raise ConfigurationError(f"basis index {alpha} is not a divisor class on {self.name}")

    @property
    def divisor_indices(self) -> tuple[int, ...]:
        return tuple(idx for idx, _ in self.divisor_rows)

    def validate(self) -> None:
        n, rank = self.rank, self.class_rank
        if not n:
            raise ConfigurationError("the basis is empty")
        if len(self.pairing) != n or any(len(r) != n for r in self.pairing):
            raise ConfigurationError("pairing matrix shape does not match basis")
        if len(self.cup_tensor) != n or any(len(r) != n or any(len(v) != n for v in r) for r in self.cup_tensor):
            raise ConfigurationError(f"cup tensor must be {n} x {n} x {n} to match the basis")
        if rank < 0 or len(self.c1_vector) != rank:
            raise ConfigurationError(f"class_rank {rank} must be >= 0 and the length of c1_vector")
        if any(not 0 <= i < n or self.basis_degrees[i] != 1 or len(row) != rank for i, row in self.divisor_rows):
            raise ConfigurationError(f"each divisor row must name a degree-1 basis class and have {rank} entries")
        if self.basis_degrees[0] != 0:
            raise ConfigurationError("basis index 0 must be the unit (degree 0)")
        if self.pairing != tuple(zip(*self.pairing)):
            raise ConfigurationError("pairing matrix is not symmetric")
        _ = self.pairing_inverse  # raises if singular
        for i in range(n):
            if self.cup_basis(0, i) != self.basis_vector(i) or self.cup_basis(i, 0) != self.basis_vector(i):
                raise ConfigurationError("basis index 0 is not a two-sided unit for cup")
        for i in range(n):
            for j in range(n):
                d = self.basis_degrees[i] + self.basis_degrees[j]
                for k, c in enumerate(self.cup_basis(i, j)):
                    if c and self.basis_degrees[k] != d:
                        raise ConfigurationError("cup product is not graded")
                if d > self.dim and any(self.cup_basis(i, j)):
                    raise ConfigurationError("cup product above the top degree is nonzero")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    left = self.cup(self.cup_basis(i, j), self.basis_vector(k))
                    right = self.cup(self.basis_vector(i), self.cup_basis(j, k))
                    if left != right:
                        raise ConfigurationError("cup product is not associative")


def _projective_space(name: str, r: int) -> TargetSpace:
    # Basis 1, H, ..., H^r; pairing is the antidiagonal of ones.
    n = r + 1
    pairing = tuple(tuple(Fraction(i + j == r) for j in range(n)) for i in range(n))
    cup = tuple(
        tuple(tuple(Fraction(k == i + j) for k in range(n)) for j in range(n)) for i in range(n)
    )
    return TargetSpace(
        name=name,
        dim=r,
        basis_degrees=tuple(range(n)),
        pairing=pairing,
        cup_tensor=cup,
        class_rank=1,
        c1_vector=(r + 1,),
        divisor_rows=((1, (1,)),),
    )


@lru_cache(maxsize=None)
def make_target(name: str) -> TargetSpace:
    """Standard presentation of a built-in target: point, P1 or P2."""
    if name == "point":
        t = TargetSpace(
            name="point",
            dim=0,
            basis_degrees=(0,),
            pairing=((Fraction(1),),),
            cup_tensor=(((Fraction(1),),),),
            class_rank=0,
            c1_vector=(),
            divisor_rows=(),
        )
    elif name == "P1":
        t = _projective_space("P1", 1)
    elif name == "P2":
        t = _projective_space("P2", 2)
    else:
        raise ConfigurationError(f"unknown target {name!r}; built-ins are {BUILTIN_NAMES}")
    t.validate()
    return t


def load_target(data: dict) -> TargetSpace:
    """Build and validate a custom presentation from decoded config data.

    Custom targets get the full ring validation but no correlator
    backend; only the pure series-level operations apply to them.
    """
    try:
        pairing = tuple(tuple(_rational(x) for x in row) for row in data["pairing"])
        cup = tuple(
            tuple(tuple(_rational(x) for x in vec) for vec in row) for row in data["cup"]
        )
        target = TargetSpace(
            name=str(data.get("name", "custom")),
            dim=_integer(data["dim"]),
            basis_degrees=tuple(_integer(d) for d in data["basis_degrees"]),
            pairing=pairing,
            cup_tensor=cup,
            class_rank=_integer(data.get("class_rank", 0)),
            c1_vector=tuple(_integer(c) for c in data.get("c1_vector", ())),
            divisor_rows=tuple(
                (_integer(i), tuple(_integer(c) for c in row))
                for i, row in data.get("divisor_rows", ())
            ),
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"malformed target presentation: {exc}") from exc
    target.validate()
    return target


def _integer(x) -> int:
    """An integer field of a presentation, taken as it is: a float, a string
    or a bool is rejected rather than truncated or parsed."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _rational(x) -> Fraction:
    """A pairing or cup entry: a number or a string ``Fraction`` reads, but not a bool."""
    if isinstance(x, bool):
        raise TypeError(f"expected a rational, got {x!r}")
    return Fraction(x)
