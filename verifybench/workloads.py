"""The four workloads of the verify benchmark.

A workload builds its state in ``setup`` (timed as set-up) and hands out
its ops one round at a time.  Every round holds the same ops, so the
share of failed ops is the same in every run.

An op is one new ``t`` seed taken through the workload's suites at each
of its configs, each config on a fresh ``CorrelatorEngine``: what one
``gwlab verify --seed s`` pays, minus interpreter start.  ``Op.run`` is
the timed section.  ``Op.check`` runs after it, untimed, and compares
the output with a computation made apart from the engine, or with a
property the method must have; no stored copy of an earlier output is
used.

Two ops are fault probes.  Each makes one fixed call that must end in a
named ``ValueError`` subclass; until the fault behind it is fixed it
raises something else and the op counts as failed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple


class Config(NamedTuple):
    target: str
    D: int
    E: int
    T: int


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], bool]
    probe: bool = False  # a fault probe: a False check counts the op as failed


def _probe(call: Callable[[], object]) -> Op:
    def run():
        try:
            call()
        except Exception as exc:  # the probe classifies whatever the call raises
            return exc
        return None

    def named_value_error(exc) -> bool:
        return isinstance(exc, ValueError) and type(exc) is not ValueError

    return Op(run, named_value_error, probe=True)


_SPAN_NOTE = re.compile(r"span rank (\d+) over (\d+) spanning vectors")


def span_counts(notes: str) -> tuple[int, int]:
    """(rank, spanning columns) parsed from a tangent report's notes."""
    match = _SPAN_NOTE.search(notes)
    if match is None:
        raise ValueError(f"tangent report notes carry no span counts: {notes!r}")
    return int(match.group(1)), int(match.group(2))


def j_function_cone_point(g, target, trunc) -> dict:
    """Terms of the cone point at t = 0, read off the hypergeometric
    J-function oracle instead of the engine:

        -z*1 + sum_d Q^d sum_{a,k} (-1)^{k+1} <phi_a psi^k>_{0,1,d} phi^a z^{-1-k}.
    """
    terms = {(1, 0, (0,), 0): Fraction(-1)}
    for d in range(1, trunc.novikov_order + 1):
        for (alpha, k), val in g.oracles.projective_one_point_descendants(target.dim, d).items():
            for rho, comp in enumerate(target.dual_basis_vector(alpha)):
                if comp:
                    key = (-1 - k, rho, (d,), 0)
                    terms[key] = terms.get(key, Fraction(0)) + (-1) ** (k + 1) * val * comp
    return {key: val for key, val in terms.items() if val}


def full_support_t(g, state, rng):
    """The next seed whose ``TPolynomial.random`` has no zero coefficient at
    any config, with those polynomials.  A zero coefficient drops
    monomials and makes an op several times cheaper; skipping such seeds
    keeps ops alike in size."""
    while True:
        seed = rng.getrandbits(31)
        ts = [g.cone.TPolynomial.random(target, cfg.T, seed) for cfg, (target, *_) in state.items()]
        if all(c for t in ts for vec in t.coeffs for c in vec):
            return seed, ts


class Workload:
    name = ""
    configs: tuple[Config, ...] = ()

    def setup(self, g) -> dict:
        """Targets and truncations per config."""
        return {
            cfg: (target, g.cone.default_truncation(target, cfg.D, cfg.E, cfg.T))
            for cfg in self.configs
            for target in [g.targets.make_target(cfg.target)]
        }

    def round(self, g, state, rng) -> list[Op]:
        raise NotImplementedError

    def _suite_op(self, g, state, rng, suites, check) -> Op:
        """One t seed through ``suites`` at every config, each config on a
        fresh engine; ``check`` sees (t, trunc, engine, reports)."""
        seed, ts = full_support_t(g, state, rng)

        def run():
            out = []
            for t, (target, trunc) in zip(ts, state.values()):
                engine = g.correlators.CorrelatorEngine(target)
                out.append((t, trunc, engine, [suite(t, trunc, engine, seed) for suite in suites]))
            return out

        return Op(run, lambda out: all(check(g, *item) for item in out))


class ConeTransform(Workload):
    """check_polynomiality and check_main_identity: the cone point, its
    transform under S, and the fixed-locus sum that reproduces it."""

    name = "cone-transform"
    configs = (Config("P1", 2, 2, 1), Config("P2", 2, 2, 1))

    def round(self, g, state, rng):
        suites = (
            lambda t, trunc, engine, seed: g.checks.check_polynomiality(t, trunc, engine, seed=seed),
            lambda t, trunc, engine, seed: g.localisation.check_main_identity(t, trunc, engine, seed=seed),
        )
        return [self._suite_op(g, state, rng, suites, self._check)]

    @staticmethod
    def _check(g, t, trunc, engine, reports) -> bool:
        if not all(r.passed for r in reports):
            return False
        f = g.cone.cone_point(t, trunc, engine)
        if g.cone.s_apply(t, f, trunc, engine) != g.matrices.s_matrix(t, trunc, engine).apply_linear(f, trunc):
            return False
        zero = g.cone.TPolynomial.zero(t.target, t.degree)
        return g.cone.cone_point(zero, trunc, engine).terms == j_function_cone_point(g, t.target, trunc)


class TangentSpan(Workload):
    """check_cone_in_tangent, check_lagrangian and check_inverse: exact
    linear algebra, which cone-transform never touches."""

    name = "tangent-span"
    configs = (Config("P1", 1, 2, 1), Config("P2", 1, 2, 1))
    ops_per_round = 4

    def round(self, g, state, rng):
        suites = (
            lambda t, trunc, engine, seed: g.checks.check_cone_in_tangent(t, trunc, engine, seed=seed),
            lambda t, trunc, engine, seed: g.checks.check_lagrangian(t, trunc, engine, j_max=1, seed=seed),
            lambda t, trunc, engine, seed: g.checks.check_inverse(t, trunc, engine, seed=seed),
        )
        ops = [self._suite_op(g, state, rng, suites, self._check) for _ in range(self.ops_per_round)]
        return ops + [self._window_probe(g)]

    @staticmethod
    def _check(g, t, trunc, engine, reports) -> bool:
        # S*(-z) is unitriangular in the grading, so its columns are independent.
        rank, columns = span_counts(reports[0].notes)
        return all(r.passed for r in reports) and rank == columns

    @staticmethod
    def _window_probe(g) -> Op:
        """A tangent vector asked for above the z-window."""
        target = g.targets.make_target("P1")
        trunc = g.cone.default_truncation(target, 1, 1, 1)
        t = g.cone.TPolynomial.zero(target, 1)
        engine = g.correlators.CorrelatorEngine(target)
        return _probe(lambda: g.cone.tangent_vector(t, 0, trunc.z_max, trunc, engine))


class _Key(NamedTuple):
    family: str
    target: str
    beta: tuple
    ins: tuple


class CorrelatorSweep(Workload):
    """Seeded batches of descendant correlators on fresh engines: the write
    path of the correlator cache.

    P1 degrees stop at 70: from an empty cache, degree 84 and above
    already exceed the interpreter's recursion limit.
    """

    name = "correlator-sweep"
    ops_per_round = 4
    # Degrees are drawn per band, so every batch costs about the same.
    P1_BANDS = tuple((lo, lo + 9) for lo in range(1, 70, 10))
    P2_ONE_POINT_BANDS = ((1, 10), (11, 20), (21, 30))
    P2_RECURSION_KEYS = 12
    PLANE_DEGREES = (1, 4)  # the dilaton check on N_5 alone costs a quarter second
    PLANE_KEYS = 3
    POINT_KEYS = 6

    def setup(self, g):
        return {name: g.targets.make_target(name) for name in ("point", "P1", "P2")}

    def round(self, g, state, rng):
        ops = [self._batch_op(g, state, self.batch(state, rng)) for _ in range(self.ops_per_round)]
        return ops + [self._basis_probe(g, state)]

    def batch(self, targets, rng) -> list[_Key]:
        keys = []
        for lo, hi in self.P1_BANDS:
            d = rng.randint(lo, hi)
            a = rng.randrange(2)
            keys.append(_Key("p1-three-point", "P1", (d,), ((a, 2 * d - 1 - a), (1, 0), (1, 0))))
            a = rng.randrange(2)
            keys.append(_Key("one-point", "P1", (d,), ((a, 2 * d - 1 - a),)))
        for lo, hi in self.P2_ONE_POINT_BANDS:
            d = rng.randint(lo, hi)
            a = rng.randrange(3)
            keys.append(_Key("one-point", "P2", (d,), ((a, 3 * d - a),)))
        p2 = targets["P2"]
        while sum(k.family == "p2-recursion" for k in keys) < self.P2_RECURSION_KEYS:
            d = rng.randint(1, 4)
            n = rng.randint(3, 6)
            ins = [(rng.randrange(p2.rank), rng.randint(0, 3)) for _ in range(n - 1)] + [(1, 0)]
            shortfall = 3 * d - 1 + n - sum(p2.degree(a) + k for a, k in ins)
            if shortfall < 0:
                continue
            ins[0] = (ins[0][0], ins[0][1] + shortfall)
            if any(k > 0 for _, k in ins):
                keys.append(_Key("p2-recursion", "P2", (d,), tuple(sorted(ins))))
        for _ in range(self.PLANE_KEYS):
            d = rng.randint(*self.PLANE_DEGREES)
            keys.append(_Key("plane", "P2", (d,), ((2, 0),) * (3 * d - 1)))
        for _ in range(self.POINT_KEYS):
            n = rng.randint(4, 12)
            powers = [0] * n
            for _ in range(n - 3):
                powers[rng.randrange(n)] += 1
            keys.append(_Key("point", "point", (), tuple((0, k) for k in powers)))
        return keys

    def _batch_op(self, g, targets, keys) -> Op:
        def run():
            engines = {name: g.correlators.CorrelatorEngine(t) for name, t in targets.items()}
            return engines, [engines[k.target].correlator(k.beta, k.ins) for k in keys]

        def check(out) -> bool:
            engines, values = out
            return all(self._check_key(g, engines[k.target], k, v) for k, v in zip(keys, values))

        return Op(run, check)

    @staticmethod
    def _check_key(g, engine, key, value) -> bool:
        target = engine.target
        n = len(key.ins)
        if key.family == "plane":
            if value != g.oracles.rational_plane_curves(key.beta[0]):
                return False
        elif key.family == "point":
            if value != g.oracles.point_psi_closed_form(tuple(k for _, k in key.ins)):
                return False
        elif key.family == "one-point":
            j_function = g.oracles.projective_one_point_descendants(target.dim, key.beta[0])
            if value != j_function.get(key.ins[0], 0):
                return False
        # Dilaton: <tau_1(1), x...>_{n+1} = (n - 2) <x...>_n; the engine never
        # uses it as a move.
        if engine.correlator(key.beta, key.ins + ((0, 1),)) != (n - 2) * value:
            return False
        has_divisor = any(target.degree(a) == 1 and k == 0 for a, k in key.ins)
        if n >= 3 and has_divisor and any(k > 0 for _, k in key.ins):
            if not (engine.reduce_divisor_first(key.beta, key.ins)
                    == engine.reduce_recursion_first(key.beta, key.ins) == value):
                return False
        return True

    @staticmethod
    def _basis_probe(g, targets) -> Op:
        """A correlator whose insertion names a basis index P2 does not have."""
        engine = g.correlators.CorrelatorEngine(targets["P2"])
        return _probe(lambda: engine.correlator((1,), [(5, 0), (2, 0)]))


class UniversalRelations(Workload):
    """check_universal_relations on engines filled during set-up: the read
    path of the correlator cache."""

    name = "universal-relations"
    configs = (Config("P1", 3, 3, 2), Config("P2", 2, 3, 1))
    K_MAX = 4

    def setup(self, g):
        state = {}
        for cfg, (target, trunc) in super().setup(g).items():
            engine = g.correlators.CorrelatorEngine(target)
            # Every coefficient nonzero, so the keys of any t are cached.
            full = g.cone.TPolynomial(target, ((Fraction(1),) * target.rank,) * (cfg.T + 1))
            report = g.checks.check_universal_relations(full, self.K_MAX, trunc, engine)
            if not report.passed:
                raise RuntimeError(f"universal relations fail while filling {cfg}")
            state[cfg] = (target, trunc, engine)
        return state

    def round(self, g, state, rng):
        seed, ts = full_support_t(g, state, rng)

        def run():
            return [
                g.checks.check_universal_relations(t, self.K_MAX, trunc, engine, seed=seed)
                for t, (_, trunc, engine) in zip(ts, state.values())
            ]

        return [Op(run, lambda reports: all(r.passed for r in reports))]


WORKLOADS = {w.name: w for w in (ConeTransform(), TangentSpan(), CorrelatorSweep(), UniversalRelations())}
