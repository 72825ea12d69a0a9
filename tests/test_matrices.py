import random
from fractions import Fraction

import pytest

from gwlab import (
    TPolynomial,
    compose,
    default_truncation,
    flip_z,
    get_engine,
    identity_endo,
    make_target,
    poincare_adjoint,
    s_adjoint_matrix,
    s_matrix,
)
from gwlab.matrices import EndoSeries
from gwlab.series import MismatchError, Truncation, TruncationOverflowError
from gwlab.targets import beta_zero

PT = make_target("point")
P1 = make_target("P1")
P2 = make_target("P2")


def test_leading_block_is_identity():
    t = TPolynomial.random(P2, 1, seed=1)
    tr = default_truncation(P2, 1, 2, 1)
    for build in (s_matrix, s_adjoint_matrix):
        mat = build(t, tr)
        b0 = beta_zero(1)
        for r in range(3):
            for c in range(3):
                assert mat.coefficient(0, r, c, b0, 0) == (1 if r == c else 0)
        for (z, r, c, beta, eps), val in mat.entries.items():
            if (beta, eps) == (b0, 0) and (z, r) != (0, c):
                assert val == 0


def test_point_zero_t_matrices_trivial():
    t = TPolynomial.zero(PT, 0)
    tr = default_truncation(PT, 0, 2, 0)
    ident = identity_endo(PT, tr)
    assert s_matrix(t, tr).entries == ident.entries
    assert s_adjoint_matrix(t, tr).entries == ident.entries


def test_adjoint_is_poincare_transpose():
    for name, seed in (("P1", 3), ("P2", 4)):
        target = make_target(name)
        t = TPolynomial.random(target, 1, seed=seed)
        tr = default_truncation(target, 1, 2, 1)
        assert s_adjoint_matrix(t, tr).entries == poincare_adjoint(s_matrix(t, tr)).entries


def test_compose_identity_with_identity():
    tr = default_truncation(P2, 1, 1, 1)
    ident = identity_endo(P2, tr)
    prod = compose(ident, ident, trunc=tr)
    ok, bad = prod.is_identity()
    assert ok and not bad


def _random_endo(target, trunc, rng, size=8):
    entries = {}
    for _ in range(size):
        key = (
            rng.randint(trunc.z_min // 2, trunc.z_max // 2),
            rng.randrange(target.rank),
            rng.randrange(target.rank),
            (rng.randint(0, trunc.novikov_order),) if target.class_rank else (),
            rng.randint(0, trunc.epsilon_order),
        )
        entries[key] = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    return EndoSeries(target, trunc, {k: v for k, v in entries.items() if v})


def test_compose_associative_random():
    rng = random.Random(11)
    tr = Truncation(2, 2, -4, 4)
    for _ in range(10):
        a = _random_endo(P1, tr, rng)
        b = _random_endo(P1, tr, rng)
        c = _random_endo(P1, tr, rng)
        ab = compose(a, b, trunc=tr)
        bc = compose(b, c, trunc=tr)
        left = compose(ab, c, trunc=tr)
        right = compose(a, bc, trunc=tr)
        assert left.entries == right.entries


def test_flip_z_signs():
    rng = random.Random(12)
    tr = Truncation(1, 1, -3, 3)
    e = _random_endo(P2, tr, rng)
    f = flip_z(e)
    for (z, r, c, b, eps), val in e.entries.items():
        assert f.coefficient(z, r, c, b, eps) == (-val if z % 2 else val)


def test_inverse_identity_all_targets():
    configs = (
        (PT, TPolynomial.random(PT, 1, seed=21), default_truncation(PT, 0, 3, 1)),
        (P1, TPolynomial.random(P1, 1, seed=22), default_truncation(P1, 2, 2, 1)),
        (P2, TPolynomial.random(P2, 1, seed=23), default_truncation(P2, 1, 2, 1)),
    )
    for target, t, tr in configs:
        eng = get_engine(target)
        s = s_matrix(t, tr, eng)
        s_adj = s_adjoint_matrix(t, tr, eng)
        prod = compose(s, flip_z(s_adj), trunc=tr)
        ok, bad = prod.is_identity()
        assert ok, (target.name, bad[:4])


def test_apply_linear_matches_column_action():
    from gwlab import LoopSeries

    t = TPolynomial.random(P1, 1, seed=31)
    tr = default_truncation(P1, 1, 1, 1)
    mat = s_matrix(t, tr)
    wide = Truncation(1, 1, 2 * tr.z_min, 2 * tr.z_max)
    shifted = mat.apply_linear(LoopSeries.basis(P1, wide, 1, 2), wide)
    for (z, row, col, beta, eps), val in mat.entries.items():
        if col == 1:
            assert shifted.coefficient(z + 2, row, beta, eps) == val


def test_entries_are_checked_as_series_terms_are():
    tr = default_truncation(P1, 2, 2, 1)
    one = (0,) * P1.class_rank
    with pytest.raises(MismatchError, match=r"novikov degree \(0, 0\) needs 1 entries"):
        EndoSeries(P1, tr, {(0, 0, 0, (0, 0), 0): 1})
    with pytest.raises(MismatchError, match="basis index 5"):
        EndoSeries(P1, tr, {(0, 5, 0, one, 0): 1})
    with pytest.raises(MismatchError, match="basis index 5"):
        EndoSeries(P1, tr, {(0, 0, 5, one, 0): 1})
    with pytest.raises(MismatchError, match="exceeds truncation"):
        EndoSeries(P1, tr, {(0, 0, 0, one, 3): 1})
    with pytest.raises(TruncationOverflowError):
        EndoSeries(P1, tr, {(tr.z_max + 1, 0, 0, one, 0): 1})
    assert EndoSeries(P1, tr, {(0, 0, 5, (0, 0), 0): 0}).entries  # a zero entry is not a term
