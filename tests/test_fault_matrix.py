"""Fault-sensitivity matrix of ``gwlab verify --suites all``.

One fault per layer is injected into a full run on the plane at
(D, E, T) = (2, 3, 1) with seed 7, and the exact set of suites that
fail is pinned.  A fault that both sides of an identity share cancels
there, so a check can go blind without any other test noticing; here it
shows as a pinned suite that no longer fails.  The localisation suite
shares every block, expansion and kernel sum with its right-hand side,
so only faults in the records themselves, or in the degree-zero pieces
that it also compares with t - z*1, reach it.
"""

import json
from dataclasses import replace

import pytest

from gwlab import checks, cli, cone, localisation, matrices
from gwlab.cone import _expansions, _expansions_by_dim
from gwlab.correlators import CorrelatorEngine, get_engine
from gwlab.matrices import EndoSeries
from gwlab.series import LoopSeries

ARGV = [
    "verify", "--target", "P2", "--D", "2", "--E", "3", "--T", "1", "--seed", "7",
    "--suites", "all", "--format", "json",
]


def _doubled(block):
    return {z: tuple((rho, 2 * num, den) for rho, num, den in comps) for z, comps in block.items()}


def _fibre_doubled(real):
    """Fibre blocks of degree 1 with two fixed slots doubled."""
    def wrapper(self, beta, fixed, sign):
        block = real(self, beta, fixed, sign)
        return _doubled(block) if beta == (1,) and len(fixed) == 2 else block
    return wrapper


def _flow_doubled(real):
    """Flow blocks of degree 1 with two fixed slots doubled."""
    def wrapper(self, beta, kernel_alpha, fixed):
        block = real(self, beta, kernel_alpha, fixed)
        return _doubled(block) if beta == (1,) and len(fixed) == 2 else block
    return wrapper


def _degree_two_three_points_doubled(real):
    """Every degree-2 three-point value doubled as it is reduced."""
    def wrapper(self, beta, ins):
        value = real(self, beta, ins)
        return 2 * value if sum(beta) == 2 and len(ins) == 3 else value
    return wrapper


def _two_slot_weights_doubled(real):
    """The expansion weights of two t-slots doubled."""
    def wrapper(t, n):
        return tuple((2 * w if n == 2 else w, monos) for w, monos in real(t, n))
    return wrapper


def _grade_dropped(real):
    """Every kernel sum without its (degree 1, one t-slot) grade."""
    def wrapper(acc, t, grades, operand, block):
        return real(acc, t, [g for g in grades if g != ((1,), 1)], operand, block)
    return wrapper


def _dilaton_doubled(real):
    """The cone point's grade piece -z*1 added twice, wherever it is built."""
    def wrapper(acc, t, beta, n, engine):
        real(acc, t, beta, n, engine)
        if not any(beta) and n == 0:
            real(acc, t, beta, n, engine)
    return wrapper


def _kernel_sign_flipped(real):
    """S*(sign z) built with the kernel 1/(-sign z - psi)."""
    def wrapper(t, r, sign, trunc, engine=None):
        return real(t, r, -sign, trunc, engine)
    return wrapper


def _adjoint_kernel_negated(real):
    """S*(sign z) r built as r - K r, where K r is its kernel sum."""
    def wrapper(t, r, sign, trunc, engine=None):
        return r.scale(2) - real(t, r, sign, trunc, engine)
    return wrapper


def _generic_relabelled(real):
    """Generic records listed under the kind case5."""
    def wrapper(*args):
        return [replace(r, kind="case5") if r.kind == "generic" else r for r in real(*args)]
    return wrapper


def _case4_doubled(real):
    """The contribution of every case4 record doubled."""
    def wrapper(rec, *args):
        value = real(rec, *args)
        return value.scale(2) if rec.kind == "case4" else value
    return wrapper


# fault -> (every binding it replaces as (owner, name, wrapper), the suites that fail)
FAULTS = {
    "correlator-values": (
        [(CorrelatorEngine, "_reduce", _degree_two_three_points_doubled)],
        {"engine-oracles", "polynomiality", "inverse", "universal", "tangent"},
    ),
    "fibre-blocks": (
        [(CorrelatorEngine, "fibre_block", _fibre_doubled)],
        {"polynomiality", "inverse", "tangent"},
    ),
    "flow-blocks": (
        [(CorrelatorEngine, "flow_block", _flow_doubled)],
        {"polynomiality", "inverse", "tangent"},
    ),
    "expansion-weights": (
        [(cone, "_expansions", _two_slot_weights_doubled)],
        {"polynomiality", "inverse", "tangent"},
    ),
    "kernel-sum-grade": (
        [(module, "_kernel_sum", _grade_dropped) for module in (cone, localisation)],
        {"polynomiality", "inverse", "tangent"},
    ),
    "cone-grade-piece": (
        [(module, "_cone_grade", _dilaton_doubled) for module in (cone, localisation)],
        {"polynomiality", "tangent", "localisation"},
    ),
    "matrix-product": (
        [(EndoSeries, "apply_linear", lambda real: lambda self, *a: real(self, *a).scale(2))],
        {"inverse"},
    ),
    "omega-sign": (
        [(LoopSeries, "omega", lambda real: lambda self, other: real(self, other).scale(-1))],
        {"darboux"},
    ),
    "membership-solve": (
        [(checks, "_solve_membership", lambda real: lambda columns, targets: real(columns[1:], targets))],
        {"tangent"},
    ),
    "adjoint-kernel-sign": (
        [(module, "s_adjoint_corr_apply", _kernel_sign_flipped) for module in (cone, checks, matrices)],
        {"inverse", "lagrangian", "tangent"},
    ),
    # Lagrangian cannot see a scale of the whole S* kernel: neither (r, u)
    # nor (K r, K u) has a z^-1 term, so the residue of r + c K r against
    # u + c K u is c times its value at c = 1, which is zero.
    "adjoint-kernel-negated": (
        [(module, "s_adjoint_corr_apply", _adjoint_kernel_negated) for module in (cone, checks, matrices)],
        {"inverse", "tangent"},
    ),
    "record-kind": (
        [(localisation, "enumerate_splittings", _generic_relabelled)],
        {"localisation"},
    ),
    "record-weight": (
        [(localisation, "contribution", _case4_doubled)],
        {"localisation"},
    ),
}


def _clear_caches():
    """Faulty values land in the engines' and the expansions' caches."""
    get_engine.cache_clear()
    _expansions.cache_clear()
    _expansions_by_dim.cache_clear()


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_fails_exactly_its_suites(fault, monkeypatch, capsys):
    bindings, expected = FAULTS[fault]
    _clear_caches()
    try:
        with monkeypatch.context() as patch:
            for owner, name, wrap in bindings:
                patch.setattr(owner, name, wrap(getattr(owner, name)))
            code = cli.main(ARGV)
    finally:
        _clear_caches()
    payload = json.loads(capsys.readouterr().out)
    failed = {check["check"] for check in payload["checks"] if not check["passed"]}
    assert (code, failed) == (1, expected)


def test_every_suite_has_a_pinned_failure():
    assert set().union(*(suites for _, suites in FAULTS.values())) == set(cli.SUITES)
