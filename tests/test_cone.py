from fractions import Fraction

import pytest

from gwlab import (
    LoopSeries,
    MismatchError,
    TPolynomial,
    TruncationOverflowError,
    check_polynomiality,
    cone_point,
    default_truncation,
    descendant_potential,
    dilaton_shift,
    dilaton_unshift,
    double_bracket,
    get_engine,
    make_target,
    s_adjoint_corr_apply,
    s_apply,
    sufficient_window,
    tangent_vector,
    universal_relation,
)
from gwlab.cone import _EXPANSIONS_CACHE_SIZE, _expansions

PT = make_target("point")
P1 = make_target("P1")
P2 = make_target("P2")


# ---------------------------------------------------------------------------
# dilaton shift


def test_dilaton_shift_zero_t():
    tr = default_truncation(PT, 0, 2, 0)
    q = dilaton_shift(TPolynomial.zero(PT, 0), tr)
    assert q.terms == {(1, 0, (), 0): Fraction(-1)}


def test_dilaton_coordinates():
    tr = default_truncation(P2, 1, 2, 2)
    t = TPolynomial.random(P2, 2, seed=4)
    q = dilaton_shift(t, tr)
    # q_1^0 = t_1^0 - 1, spread over the two grading orders.
    assert q.coefficient(1, 0, (0,), 1) == t.coeffs[1][0]
    assert q.coefficient(1, 0, (0,), 0) == -1
    assert q.coefficient(0, 2, (0,), 1) == t.coeffs[0][2]


def test_dilaton_round_trip():
    tr = default_truncation(P1, 1, 2, 2)
    for seed in (1, 2, 3):
        t = TPolynomial.random(P1, 2, seed=seed)
        assert dilaton_unshift(dilaton_shift(t, tr)) == t


def test_dilaton_unshift_rejects_junk():
    tr = default_truncation(P1, 1, 2, 1)
    bad = LoopSeries(P1, tr, {(-1, 0, (0,), 1): Fraction(1), (1, 0, (0,), 0): Fraction(-1)})
    with pytest.raises(MismatchError):
        dilaton_unshift(bad)


# ---------------------------------------------------------------------------
# descendant potential


def test_potential_point_constant_t():
    t = TPolynomial(PT, ((Fraction(1, 2),),))
    tr = default_truncation(PT, 0, 3, 0)
    pot = descendant_potential(t, tr)
    # Only the three-insertion classical term survives: c^3/3! = 1/48.
    assert pot.terms == {((), 3): Fraction(1, 48)}


def test_potential_zero_t():
    tr = default_truncation(P2, 2, 3, 1)
    assert descendant_potential(TPolynomial.zero(P2, 1), tr).is_zero()


def test_potential_symmetrisation_weight():
    # For t = c1*1 + cH*H on P1 the eps^3 Novikov-zero coefficient is
    # <t,t,t>/3! expanded multilinearly; compare against a direct sum.
    t = TPolynomial(P1, ((Fraction(2), Fraction(3)),))
    tr = default_truncation(P1, 0, 3, 0)
    pot = descendant_potential(t, tr)
    eng = get_engine(P1)
    want = Fraction(0)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                coeff = t.coeffs[0][a] * t.coeffs[0][b] * t.coeffs[0][c]
                want += coeff * eng.correlator((), [(a, 0), (b, 0), (c, 0)])
    assert pot.coefficient((0,), 3) == want / 6


# ---------------------------------------------------------------------------
# cone point


def test_cone_point_point_target_zero_t():
    tr = default_truncation(PT, 0, 3, 0)
    f = cone_point(TPolynomial.zero(PT, 0), tr)
    assert f.terms == {(1, 0, (), 0): Fraction(-1)}


def test_cone_point_p1_zero_t_frozen():
    tr = default_truncation(P1, 1, 1, 0)
    f = cone_point(TPolynomial.zero(P1, 0), tr)
    assert f.terms == {
        (1, 0, (0,), 0): Fraction(-1),
        (-1, 0, (1,), 0): Fraction(-1),
        (-2, 1, (1,), 0): Fraction(-2),
    }


def test_cone_plus_part_is_shifted_coordinate():
    t = TPolynomial.random(P2, 1, seed=9)
    tr = default_truncation(P2, 1, 2, 1)
    f = cone_point(t, tr)
    plus, _ = f.split_plus_minus()
    assert plus == dilaton_shift(t, tr)


def test_cone_first_t_dependent_degree_zero_term_is_eps2():
    t = TPolynomial.random(PT, 0, seed=3)
    tr = default_truncation(PT, 0, 3, 0)
    f = cone_point(t, tr)
    _, minus = f.split_plus_minus()
    eps_orders = {eps for (_, _, _, eps) in minus.terms}
    assert eps_orders and min(eps_orders) >= 2


def test_cone_homogeneity_in_eps():
    # Rescaling t rescales the cone point grade by grade in eps.
    lam = Fraction(3, 2)
    t = TPolynomial.random(P1, 1, seed=6)
    scaled = TPolynomial(P1, tuple(tuple(lam * c for c in vec) for vec in t.coeffs))
    tr = default_truncation(P1, 2, 2, 1)
    f = cone_point(t, tr)
    g = cone_point(scaled, tr)
    for (z, a, b, eps), val in f.terms.items():
        assert g.coefficient(z, a, b, eps) == lam ** eps * val
    for (z, a, b, eps), val in g.terms.items():
        assert val == lam ** eps * f.coefficient(z, a, b, eps)


# ---------------------------------------------------------------------------
# the solution operator


def test_s_apply_point_zero_t_is_identity():
    tr = default_truncation(PT, 0, 2, 0)
    t = TPolynomial.zero(PT, 0)
    f = LoopSeries.basis(PT, tr, 0, 0).scale(Fraction(5, 3))
    assert s_apply(t, f, tr) == f


def test_s_apply_linearity():
    t = TPolynomial.random(P1, 1, seed=5)
    tr = default_truncation(P1, 2, 2, 1)
    f = LoopSeries.basis(P1, tr, 0, 0)
    g = LoopSeries.basis(P1, tr, 1, 1).scale(Fraction(2, 7))
    lhs = s_apply(t, f.add(g), tr)
    rhs = s_apply(t, f, tr).add(s_apply(t, g, tr))
    assert lhs == rhs


def test_s_apply_p1_unit_frozen_values():
    # S(1) at t = 0 in degree one: -z^{-2} 1 - 2 z^{-3} H.
    tr = default_truncation(P1, 1, 1, 0)
    got = s_apply(TPolynomial.zero(P1, 0), LoopSeries.basis(P1, tr, 0, 0), tr)
    assert got.terms == {
        (0, 0, (0,), 0): Fraction(1),
        (-2, 0, (1,), 0): Fraction(-1),
        (-3, 1, (1,), 0): Fraction(-2),
    }


def test_adjoint_corr_apply_fixes_polynomials_at_zero_t_point():
    tr = default_truncation(PT, 0, 2, 0)
    t = TPolynomial.zero(PT, 0)
    r = LoopSeries.basis(PT, tr, 0, 1).scale(Fraction(-4, 9))
    assert s_adjoint_corr_apply(t, r, -1, tr) == r


def test_adjoint_corr_apply_rejects_tails():
    tr = default_truncation(P1, 1, 1, 0)
    tail = LoopSeries(P1, tr, {(-1, 0, (0,), 0): Fraction(1)})
    with pytest.raises(MismatchError):
        s_adjoint_corr_apply(TPolynomial.zero(P1, 0), tail, -1, tr)


def test_tangent_vector_equals_adjoint_extension_on_basis():
    t = TPolynomial.random(P1, 1, seed=8)
    tr = default_truncation(P1, 1, 2, 1)
    for alpha in range(2):
        for k in range(2):
            direct = tangent_vector(t, alpha, k, tr)
            via = s_adjoint_corr_apply(t, LoopSeries.basis(P1, tr, alpha, k), -1, tr)
            assert direct == via


def test_adjoint_extension_matches_adjoint_matrix_on_degree_zero():
    # On z-degree-zero inputs the substitution and matrix actions coincide.
    from gwlab import s_adjoint_matrix

    t = TPolynomial.random(P2, 1, seed=24)
    tr = default_truncation(P2, 1, 2, 1)
    mat = s_adjoint_matrix(t, tr)
    for col in range(3):
        series = s_adjoint_corr_apply(t, LoopSeries.basis(P2, tr, col, 0), +1, tr)
        for (z, row, b, eps), val in series.terms.items():
            assert mat.coefficient(z, row, col, b, eps) == val
        for (z, row, c, b, eps), val in mat.entries.items():
            if c == col:
                assert series.coefficient(z, row, b, eps) == val


def test_tangent_point_zero_t_unit_direction():
    tr = default_truncation(PT, 0, 2, 0)
    tv = tangent_vector(TPolynomial.zero(PT, 0), 0, 0, tr)
    assert tv.terms == {(0, 0, (), 0): Fraction(1)}


def test_tangent_vector_above_window_names_the_bound():
    tr = default_truncation(P1, 1, 1, 1)
    with pytest.raises(TruncationOverflowError) as info:
        tangent_vector(TPolynomial.zero(P1, 1), 0, tr.z_max, tr)
    assert (info.value.z_exp, info.value.z_min, info.value.z_max) == (tr.z_max + 1, tr.z_min, tr.z_max)


def test_expansions_cache_is_bounded():
    tr = default_truncation(P2, 2, 2, 1)
    _expansions.cache_clear()
    for seed in range(51):
        check_polynomiality(TPolynomial.random(P2, 1, seed), tr)
    assert _expansions.cache_info().currsize <= _EXPANSIONS_CACHE_SIZE


def test_tangent_vector_eps_zero_part():
    t = TPolynomial.random(P2, 1, seed=10)
    tr = default_truncation(P2, 1, 2, 1)
    tv = tangent_vector(t, 1, 1, tr)
    for (z, a, b, eps), val in tv.terms.items():
        if eps == 0:
            assert (z, a) == (1, 1) or any(b), (z, a, b)


def test_s_apply_matches_matrix_on_degree_zero_inputs():
    from gwlab import s_matrix

    t = TPolynomial.random(P2, 1, seed=12)
    tr = default_truncation(P2, 1, 2, 1)
    mat = s_matrix(t, tr)
    for alpha in range(3):
        series = s_apply(t, LoopSeries.basis(P2, tr, alpha, 0), tr)
        for (z, row, b, eps), val in series.terms.items():
            assert mat.coefficient(z, row, alpha, b, eps) == val
        for (z, row, col, b, eps), val in mat.entries.items():
            if col == alpha:
                assert series.coefficient(z, row, b, eps) == val


# ---------------------------------------------------------------------------
# double brackets


def test_double_bracket_three_fixed_zero_t():
    t = TPolynomial.zero(PT, 0)
    tr = default_truncation(PT, 0, 2, 0)
    db = double_bracket(t, ((0, 0), (0, 0), (0, 0)), tr)
    assert db.terms == {((), 0): Fraction(1)}


def test_double_bracket_grades_are_correlator_sums():
    t = TPolynomial.random(P1, 0, seed=2)
    tr = default_truncation(P1, 1, 2, 0)
    eng = get_engine(P1)
    db = double_bracket(t, ((0, 1), (1, 0)), tr, eng)
    c0, c1 = t.coeffs[0]
    # eps^1 degree-1 grade: sum over the single t slot expanded in the basis.
    want = c0 * eng.correlator((1,), [(0, 1), (1, 0), (0, 0)]) + c1 * eng.correlator(
        (1,), [(0, 1), (1, 0), (1, 0)]
    )
    assert db.coefficient((1,), 1) == want


def test_double_bracket_unit_eps2_hand_value():
    c = Fraction(2, 3)
    t = TPolynomial(PT, ((c,),))
    tr = default_truncation(PT, 0, 2, 0)
    db = double_bracket(t, ((0, 0),), tr)
    # eps^2 coefficient is (1/2) <1, t, t> = c^2/2.
    assert db.coefficient((), 2) == c ** 2 / 2


# ---------------------------------------------------------------------------
# universal relation pieces against the z^{-k} coefficients


def _q_slot_piece(t, k, alpha, tr, eng):
    """<<psi^{k-1} q(psi), phi_alpha>> with q = t - z*1 substituted termwise."""
    total = double_bracket(t, ((0, k), (alpha, 0)), tr, eng).scale(-1)
    for j, a, c in t.monomials():
        total = total.add(
            double_bracket(t, ((a, k - 1 + j), (alpha, 0)), tr, eng, extra_eps=1).scale(c)
        )
    return total


def test_universal_relation_pieces_match_z_coefficients():
    """The relation is the z^{-k} coefficient of the transformed cone: its
    q-slot piece matches S applied to the base coordinate, and the two
    remaining pieces match S applied to the fibre.  Neither side is
    identically zero, so this validates the assembly, not just the
    vanishing."""
    t = TPolynomial.random(P1, 1, seed=13)
    tr = default_truncation(P1, 2, 2, 1)
    eng = get_engine(P1)
    q = dilaton_shift(t, tr)
    _, fibre = cone_point(t, tr, eng).split_plus_minus()
    s_of_q = s_apply(t, q, tr, eng)
    s_of_fibre = s_apply(t, fibre, tr, eng)
    pinv = P1.pairing_inverse
    saw_nonzero = False
    for k in (2, 3):
        q_pieces = [_q_slot_piece(t, k, alpha, tr, eng) for alpha in range(2)]
        rest_pieces = [
            universal_relation(t, k, alpha, tr, eng).add(q_pieces[alpha].scale(-1))
            for alpha in range(2)
        ]
        for beta in ((0,), (1,), (2,)):
            for eps in range(3):
                for rho in range(2):
                    got_q = sum(
                        (q_pieces[alpha].coefficient(beta, eps) * pinv[alpha][rho]
                         for alpha in range(2)),
                        Fraction(0),
                    )
                    assert got_q == s_of_q.coefficient(-k, rho, beta, eps)
                    got_rest = sum(
                        (rest_pieces[alpha].coefficient(beta, eps) * pinv[alpha][rho]
                         for alpha in range(2)),
                        Fraction(0),
                    )
                    assert got_rest == s_of_fibre.coefficient(-k, rho, beta, eps)
                    saw_nonzero = saw_nonzero or got_q != 0
    assert saw_nonzero


def test_window_bound_is_monotone():
    z_min_small, _ = sufficient_window(P2, 1, 1, 1)
    z_min_big, _ = sufficient_window(P2, 2, 3, 1)
    assert z_min_big <= z_min_small < 0


def test_universal_relations_point_zero_t():
    from gwlab import check_universal_relations

    report = check_universal_relations(
        TPolynomial.zero(PT, 0), 2, default_truncation(PT, 0, 2, 0)
    )
    assert report.passed


def test_lagrangian_p2_basis_pairs():
    from gwlab import check_lagrangian

    t = TPolynomial.random(P2, 1, seed=25)
    report = check_lagrangian(t, default_truncation(P2, 2, 2, 1), j_max=1)
    assert report.passed, report.failures[:3]


def test_cone_in_tangent_point_zero_t():
    from gwlab import check_cone_in_tangent

    report = check_cone_in_tangent(TPolynomial.zero(PT, 0), default_truncation(PT, 0, 1, 0))
    assert report.passed
