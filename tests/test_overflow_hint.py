"""The rerun hint of a window overflow names a window that suffices.

``TruncationOverflowError`` reads "z^Z escapes the window [A, B]; rerun
with z_min <= L and z_max >= H".  Z is the first term to escape; L and H
span every term of the series that escaped, so one rerun at [L, H] is
enough.  Over a sweep of narrow windows, every build of the cone point,
of the solution operator on basis vectors, of tangent vectors and of
fixed-locus contributions that overflows must not overflow again at its
hinted window, and must give there what it gives at the wide window.
"""

import re

import pytest

from gwlab import (
    LoopSeries,
    TPolynomial,
    Truncation,
    TruncationOverflowError,
    cone_point,
    contribution,
    default_truncation,
    enumerate_splittings,
    make_target,
    s_apply,
    tangent_vector,
)
from gwlab.correlators import CorrelatorEngine
from gwlab.targets import iter_betas

CONFIGS = [("point", 0, 4, 1), ("P1", 2, 3, 2), ("P2", 2, 2, 1)]


def _builds(t, engine):
    """(label, build) pairs; build(trunc) makes its series at trunc."""
    target = t.target
    yield "cone_point", lambda trunc: cone_point(t, trunc, engine)
    for a in range(target.rank):
        for j in (0, 1):
            yield f"s_apply {a} {j}", lambda trunc, a=a, j=j: s_apply(
                t, LoopSeries.basis(target, trunc, a, j), trunc, engine
            )
        for k in (0, 1, 2):
            yield f"tangent_vector {a} {k}", lambda trunc, a=a, k=k: tangent_vector(t, a, k, trunc, engine)


def _record_builds(t, engine, trunc):
    for beta in iter_betas(t.target.class_rank, trunc.novikov_order):
        for n in range(trunc.epsilon_order + 1):
            for rec in enumerate_splittings(t.target, beta, n):
                yield f"contribution {rec}", lambda trunc, rec=rec: contribution(rec, t, trunc, engine)


def _hinted_window(exc: TruncationOverflowError) -> tuple[int, int]:
    match = re.search(r"; rerun with z_min <= (-?\d+) and z_max >= (-?\d+)$", str(exc))
    return int(match[1]), int(match[2])


@pytest.mark.parametrize("name,D,E,T", CONFIGS)
def test_one_rerun_at_the_hinted_window_suffices(name, D, E, T):
    target = make_target(name)
    wide = default_truncation(target, D, E, T)
    t = TPolynomial.random(target, T, 7)
    engine = CorrelatorEngine(target)
    builds = [*_builds(t, engine), *_record_builds(t, engine, wide)]
    overflows = 0
    for z_min in range(-1, wide.z_min - 1, -1):
        for z_max in range(1, wide.z_max + 1):
            trunc = Truncation(D, E, z_min, z_max)
            for label, build in builds:
                try:
                    build(trunc)
                except TruncationOverflowError as exc:
                    overflows += 1
                    low, high = _hinted_window(exc)
                    rerun = Truncation(D, E, low, high)
                    try:
                        got = build(rerun)
                    except TruncationOverflowError as again:
                        pytest.fail(f"{label} at [{z_min}, {z_max}]: {exc}, then {again}")
                    if low >= wide.z_min and high <= wide.z_max:
                        assert got.terms == build(wide).terms, (label, z_min, z_max)
    assert overflows >= 20
