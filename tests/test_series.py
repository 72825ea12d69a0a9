import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwlab import (
    LoopSeries,
    MismatchError,
    SeriesAccumulator,
    Truncation,
    TruncationOverflowError,
    identity_endo,
    make_target,
)

P2 = make_target("P2")
PT = make_target("point")
TR = Truncation(2, 2, -4, 3)
TR_PT = Truncation(0, 2, -4, 3)


def series_strategy(target, trunc):
    rationals = st.fractions(
        min_value=-5, max_value=5, max_denominator=6
    )
    keys = st.tuples(
        st.integers(min_value=trunc.z_min, max_value=trunc.z_max),
        st.integers(min_value=0, max_value=target.rank - 1),
        st.tuples(*([st.integers(min_value=0, max_value=trunc.novikov_order)] * target.class_rank)).filter(
            lambda b: sum(b) <= trunc.novikov_order
        ),
        st.integers(min_value=0, max_value=trunc.epsilon_order),
    )
    return st.dictionaries(keys, rationals, max_size=6).map(
        lambda d: LoopSeries(target, trunc, d)
    )


# ---------------------------------------------------------------------------
# module axioms


@settings(max_examples=60, deadline=None)
@given(series_strategy(P2, TR), series_strategy(P2, TR))
def test_add_commutative(f, g):
    assert f.add(g) == g.add(f)


@settings(max_examples=60, deadline=None)
@given(series_strategy(P2, TR), series_strategy(P2, TR), series_strategy(P2, TR))
def test_add_associative(f, g, h):
    assert f.add(g).add(h) == f.add(g.add(h))


@settings(max_examples=60, deadline=None)
@given(series_strategy(P2, TR))
def test_additive_inverse_and_scaling(f):
    zero = LoopSeries.zero(P2, TR)
    assert f.add(zero) == f
    assert f.add(f.scale(-1)) == zero
    assert f.scale(Fraction(2, 3)).scale(Fraction(3, 2)) == f
    assert f.add(f) == f.scale(2)


def test_add_examples():
    z1 = LoopSeries.basis(PT, TR_PT, 0, 1)
    assert z1.add(z1.scale(-1)).is_zero()
    one = LoopSeries.basis(PT, TR_PT, 0, 0)
    assert one.add(one) == one.scale(2)


def test_mismatched_truncation_errors():
    other = LoopSeries.zero(P2, Truncation(1, 1, -2, 2))
    with pytest.raises(MismatchError):
        LoopSeries.zero(P2, TR).add(other)
    with pytest.raises(MismatchError):
        LoopSeries.zero(P2, TR).add(LoopSeries.zero(PT, TR_PT))


@pytest.mark.parametrize("alpha", [5, 2, -1])
def test_basis_index_outside_the_target_is_refused(alpha):
    # P1 has the classes 0 and 1: a term at another index would index the
    # pairing out of range, or drop out of a matrix action unseen.
    p1, tr = make_target("P1"), Truncation(1, 1, -2, 2)
    refused = f"basis index {alpha} is not one of the 2 classes of P1"
    with pytest.raises(MismatchError, match=refused):
        LoopSeries.basis(p1, tr, alpha).omega(LoopSeries.basis(p1, tr, 0, -1))
    with pytest.raises(MismatchError, match=refused):
        identity_endo(p1, tr).apply_linear(LoopSeries(p1, tr, {(0, alpha, (0,), 0): Fraction(1)}), tr)
    acc = SeriesAccumulator(p1, tr)
    acc.add(0, alpha, (0,), 0, Fraction(1))
    with pytest.raises(MismatchError, match=refused):
        acc.series()


@pytest.mark.parametrize("beta", [(0, 0), (), (0, 1, 0)])
def test_novikov_degree_of_another_rank_is_refused(beta):
    # P1 has one curve class: a longer or shorter degree would be cut to
    # the shorter length by beta_add and re-keyed unseen.
    p1, tr = make_target("P1"), Truncation(1, 1, -2, 2)
    refused = rf"novikov degree {re.escape(str(beta))} needs 1 entries on P1"
    with pytest.raises(MismatchError, match=refused):
        LoopSeries(p1, tr, {(0, 0, beta, 0): 1})
    acc = SeriesAccumulator(p1, tr)
    acc.add(0, 1, beta, 0, Fraction(1))
    with pytest.raises(MismatchError, match=refused):
        acc.series()


def test_window_overflow_is_loud():
    with pytest.raises(TruncationOverflowError) as err:
        LoopSeries(PT, TR_PT, {(-9, 0, (), 0): Fraction(1)})
    assert "z_min <= -9" in str(err.value)


# ---------------------------------------------------------------------------
# symplectic form


def test_omega_point_formula():
    # Omega(sum a_k z^k, sum b_l z^l) = sum_{k+l=-1} (-1)^k a_k b_l
    a = {2: Fraction(1, 2), 0: Fraction(3), -1: Fraction(-2)}
    b = {-3: Fraction(4), -1: Fraction(1), 1: Fraction(5)}
    f = LoopSeries(PT, TR_PT, {(k, 0, (), 0): v for k, v in a.items()})
    g = LoopSeries(PT, TR_PT, {(l, 0, (), 0): v for l, v in b.items()})
    want = sum(
        (-1) ** k * a[k] * b[l] for k in a for l in b if k + l == -1
    )
    assert f.omega(g).coefficient((), 0) == want


@settings(max_examples=60, deadline=None)
@given(series_strategy(P2, TR), series_strategy(P2, TR))
def test_omega_antisymmetric(f, g):
    lhs = f.omega(g)
    rhs = g.omega(f).scale(-1)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(series_strategy(P2, TR), series_strategy(P2, TR))
def test_omega_vanishes_on_each_half(f, g):
    f_plus, f_minus = f.split_plus_minus()
    g_plus, g_minus = g.split_plus_minus()
    assert f_plus.omega(g_plus).is_zero()
    assert f_minus.omega(g_minus).is_zero()


def test_darboux_pairing_single_instance():
    # Omega(phi_alpha z^k, phi^gamma (-z)^{-1-l}) = -delta delta
    alpha, k = 1, 2
    a = LoopSeries.basis(P2, TR, alpha, k)
    for gamma in range(3):
        for l in range(3):
            vec = P2.dual_basis_vector(gamma)
            sign = Fraction(-1) ** (l + 1)
            b = LoopSeries(
                P2, TR, {(-1 - l, rho, (0,), 0): sign * c for rho, c in enumerate(vec) if c}
            )
            got = a.omega(b).coefficient((0,), 0)
            assert got == (-1 if (gamma, l) == (alpha, k) else 0)


# ---------------------------------------------------------------------------
# polarisation and polynomiality predicate


def test_split_plus_minus():
    f = LoopSeries(P2, TR, {(1, 0, (0,), 0): Fraction(1), (-1, 2, (0,), 0): Fraction(2)})
    plus, minus = f.split_plus_minus()
    assert plus == LoopSeries(P2, TR, {(1, 0, (0,), 0): Fraction(1)})
    assert minus == LoopSeries(P2, TR, {(-1, 2, (0,), 0): Fraction(2)})
    assert plus.add(minus) == f
    zp, zm = LoopSeries.zero(P2, TR).split_plus_minus()
    assert zp.is_zero() and zm.is_zero()


def test_is_z_polynomial_modes():
    minus_z = LoopSeries(PT, TR_PT, {(1, 0, (), 0): Fraction(-1)})
    assert minus_z.is_z_polynomial(strict=True) == (True, [])
    tail = LoopSeries(PT, TR_PT, {(-1, 0, (), 0): Fraction(1)})
    ok, witness = tail.is_z_polynomial()
    assert not ok and witness == [(-1, 0, (), 0)]
    const = LoopSeries(PT, TR_PT, {(0, 0, (), 0): Fraction(1)})
    assert const.is_z_polynomial()[0] is True
    assert const.is_z_polynomial(strict=True)[0] is False


# ---------------------------------------------------------------------------
# serialization


@settings(max_examples=40, deadline=None)
@given(series_strategy(P2, TR))
def test_serialization_round_trip(f):
    text = f.to_json()
    back = LoopSeries.from_records(P2, TR, json.loads(text))
    assert back == f
    assert back.to_json() == text  # bit-exact


def test_record_shape():
    f = LoopSeries(P2, TR, {(-2, 1, (1,), 2): Fraction(-3, 7)})
    assert f.to_records() == [
        {"z_exp": -2, "basis": 1, "novikov": [1], "eps": 2, "num": -3, "den": 7}
    ]
