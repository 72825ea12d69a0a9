"""The engine's memo of the values several suites read.

The suites keep the cone point, S(cone point) and the images
S*(-z)(phi_a z^j) in ``CorrelatorEngine.shared``, keyed by the module
binding that builds each value and its exact arguments.  These tests pin
what the memo must not change:

- a binding replaced on a warm engine is still called, and its fault
  still shows in exactly the suites that read it;
- every suite reports on one warm engine, shared by all of them, what it
  reports alone on a fresh engine;
- the S*(-z) matrix the inverse suite reads is, with z flipped, the
  S*(z) matrix it read before, entry for entry and in insertion order;
  so is ``s_adjoint_matrix``, ``flip_z`` of S*(-z), and
  neither it nor any suite asks for a fibre block of sign +1;
- over many seeds and two configs on one engine the memo stays within
  its bound, and memory stays flat.
"""

import gc
import json
import tracemalloc
from fractions import Fraction
from functools import partial

import pytest

from gwlab import checks, cli
from gwlab.checks import _adjoint_at_minus_z, check_cone_in_tangent
from gwlab.cone import TPolynomial, default_truncation, s_adjoint_corr_apply
from gwlab.correlators import _EXPANSIONS_CACHE_SIZE, CorrelatorEngine, get_engine
from gwlab.matrices import _columns, compose, flip_z, s_adjoint_matrix, s_matrix
from gwlab.series import LoopSeries
from gwlab.targets import beta_zero, make_target

# Every suite that reads the engine, in report order.
SUITES = [suite for suite in cli.SUITES if suite not in ("darboux", "engine-oracles")]

CONFIGS = [(name, 2, 3, 1, seed) for name in ("point", "P1", "P2") for seed in (1, 7, 13)]
CONFIGS.append(("P2", 4, 5, 1, 7))


def _setup(name, D, E, T, seed):
    target = make_target(name)
    return target, TPolynomial.random(target, T, seed), default_truncation(target, D, E, T)


def _report(suite, t, trunc, engine, seed, k_max=4) -> dict:
    report = cli._SUITE_RUNNERS[suite](cli._Run(t, trunc, engine, seed, k_max)).as_dict()
    report.pop("elapsed_s")
    return report


# ---------------------------------------------------------------------------
# a replaced binding on a warm engine

VERIFY = ["verify", "--target", "P1", "--D", "1", "--E", "1", "--T", "1", "--seed", "3", "--format", "json"]


def _verdicts(capsys, suites: str):
    code = cli.main([*VERIFY, "--suites", suites])
    payload = json.loads(capsys.readouterr().out)
    return code, [(c["check"], c["passed"]) for c in payload["checks"]]


def _counted(real, calls: list, extra):
    def wrapper(*args):
        calls.append(args)
        value = real(*args)
        return value + extra(value)
    return wrapper


def test_replaced_s_apply_is_called_on_a_warm_engine(capsys, monkeypatch):
    assert _verdicts(capsys, "polynomiality,tangent") == (0, [("polynomiality", True), ("tangent", True)])

    def spurious(value):  # S(cone point) gains terms at z^{<=0}
        trunc, b0 = value.trunc, beta_zero(value.target.class_rank)
        keys = [(z, a, b0, 0) for z in range(trunc.z_min, 1) for a in range(value.target.rank)]
        return LoopSeries(value.target, trunc, dict.fromkeys(keys, Fraction(1, 3)))

    calls = []
    monkeypatch.setattr(checks, "s_apply", _counted(checks.s_apply, calls, spurious))
    assert _verdicts(capsys, "polynomiality,tangent") == (1, [("polynomiality", False), ("tangent", False)])
    assert len(calls) == 1  # built once, for both suites


def test_replaced_adjoint_reaches_lagrangian_alone_on_a_warm_engine(capsys, monkeypatch):
    suites = "inverse,lagrangian,tangent"
    assert _verdicts(capsys, suites) == (0, [("inverse", True), ("lagrangian", True), ("tangent", True)])

    def bump(value):  # phi_0 z^-1 / 5 added to every image
        b0 = beta_zero(value.target.class_rank)
        return LoopSeries(value.target, value.trunc, {(-1, 0, b0, 0): Fraction(1, 5)})

    calls = []
    monkeypatch.setattr(checks, "s_adjoint_corr_apply", _counted(checks.s_adjoint_corr_apply, calls, bump))
    assert _verdicts(capsys, suites) == (1, [("inverse", True), ("lagrangian", False), ("tangent", True)])
    assert len(calls) == 4  # phi_a z^j for a, j in {0, 1}


# ---------------------------------------------------------------------------
# the shared path against each suite alone


@pytest.mark.parametrize("name,D,E,T,seed", CONFIGS)
def test_suites_on_a_shared_warm_engine_report_as_alone(name, D, E, T, seed):
    target, t, trunc = _setup(name, D, E, T, seed)
    warm = CorrelatorEngine(target)
    first = [_report(suite, t, trunc, warm, seed) for suite in SUITES]
    again = [_report(suite, t, trunc, warm, seed) for suite in SUITES]  # every shared value from the memo
    for suite, shared, rerun in zip(SUITES, first, again):
        alone = _report(suite, t, trunc, CorrelatorEngine(target), seed)
        assert shared == alone == rerun, suite


def _parent_s_adjoint_matrix(t, trunc, engine=None):
    # ``matrices.s_adjoint_matrix`` as the inverse suite read it before (docstring dropped).
    basis = partial(LoopSeries.basis, t.target, trunc)
    return _columns(t.target, trunc, lambda col: s_adjoint_corr_apply(t, basis(col), +1, trunc, engine))


@pytest.mark.parametrize("tangent_first", [False, True], ids=["built-by-inverse", "read-from-tangent"])
@pytest.mark.parametrize("name,D,E,T,seed", CONFIGS)
def test_adjoint_at_minus_z_is_the_flipped_parent_matrix(name, D, E, T, seed, tangent_first):
    target, t, trunc = _setup(name, D, E, T, seed)
    engine = CorrelatorEngine(target)
    if tangent_first:
        check_cone_in_tangent(t, trunc, engine, seed=seed)
    minus = _adjoint_at_minus_z(t, trunc, engine)
    parent = _parent_s_adjoint_matrix(t, trunc, CorrelatorEngine(target))
    assert list(flip_z(minus).entries.items()) == list(parent.entries.items())
    assert list(s_adjoint_matrix(t, trunc, engine).entries.items()) == list(parent.entries.items())
    s = s_matrix(t, trunc, engine)
    new = compose(s, minus, trunc=trunc)
    old = compose(s, flip_z(parent), trunc=trunc)
    assert list(new.entries.items()) == list(old.entries.items())


def _plus_fibre_blocks(engine) -> list:
    return [key for key in engine._blocks if key[1] is None and key[3] == +1]


def test_no_builder_asks_for_a_sign_plus_one_fibre_block(capsys):
    get_engine.cache_clear()
    argv = ["verify", "--suites", "all", "--target", "P2", "--D", "2", "--E", "3", "--T", "1", "--seed", "7"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    target, t, trunc = _setup("P2", 2, 3, 1, 7)
    engine = get_engine(target)
    assert engine._blocks and not _plus_fibre_blocks(engine)
    fresh = CorrelatorEngine(target)
    for engine in (engine, fresh):
        s_adjoint_matrix(t, trunc, engine)
        assert engine._blocks and not _plus_fibre_blocks(engine)


# ---------------------------------------------------------------------------
# the bound


def test_memo_stays_bounded_over_many_seeds():
    target = make_target("P1")
    engine = CorrelatorEngine(target)
    truncs = {T: default_truncation(target, 1, 2 - T, T) for T in (0, 1)}

    def run(seeds):
        for seed in seeds:
            for T, trunc in truncs.items():
                t = TPolynomial.random(target, T, seed)
                for suite in SUITES:
                    _report(suite, t, trunc, engine, seed, k_max=2)
                assert len(engine._shared) <= _EXPANSIONS_CACHE_SIZE

    def traced() -> int:
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    run(range(100))  # fills every cache that does not depend on t
    tracemalloc.start()
    try:
        run(range(100, 120))
        settled = traced()
        run(range(120, 200))
        grown = traced() - settled
    finally:
        tracemalloc.stop()
    assert len(engine._shared) == _EXPANSIONS_CACHE_SIZE
    # The held values differ in size from one t to the next (about 60 kB
    # here); an unbounded memo would keep 960 more and grow by 1.8 MB.
    assert grown < 500_000
