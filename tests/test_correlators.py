"""Engine tests.  The oracle comparisons come first: the point-target
string-equation evaluator, the plane-curve recursion and the one-point
hypergeometric expansions are all written independently of the
reduction system they validate."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from gwlab import (
    CapabilityError,
    CorrelatorEngine,
    InvalidKeyError,
    StabilityError,
    correlator,
    get_engine,
    is_stable,
    load_target,
    make_target,
    vdim,
)
from gwlab.oracles import (
    point_psi_closed_form,
    point_psi_integral,
    projective_one_point_descendants,
    rational_plane_curves,
)

PT = make_target("point")
P1 = make_target("P1")
P2 = make_target("P2")


# ---------------------------------------------------------------------------
# oracles agree with each other before the engine is even consulted


def test_oracle_point_psi_small_table():
    assert point_psi_integral((0, 0, 0)) == 1
    assert point_psi_integral((1, 0, 0, 0)) == 1
    assert point_psi_integral((1, 1, 0, 0, 0)) == 2
    assert point_psi_integral((2, 0, 0, 0, 0)) == 1
    assert point_psi_integral((1, 0, 0)) == 0


def test_oracle_point_psi_matches_closed_form():
    for n in range(3, 9):
        for ks in combinations_with_replacement(range(n - 2), n):
            assert point_psi_integral(ks) == point_psi_closed_form(ks)


def test_oracle_plane_curve_counts():
    assert [rational_plane_curves(d) for d in (1, 2, 3, 4)] == [1, 1, 12, 620]
    assert rational_plane_curves(5) == 87304


# ---------------------------------------------------------------------------
# dimension and stability


def test_vdim_examples():
    assert vdim(PT, (), 3) == 0
    assert vdim(P2, (1,), 2) == 4
    assert vdim(P1, (1,), 0) == 0


def test_is_stable_examples():
    assert not is_stable((0,), 2)
    assert is_stable((1,), 0)
    assert is_stable((0,), 3)


def test_unstable_keys_raise():
    with pytest.raises(StabilityError):
        correlator(PT, (), [(0, 0), (0, 0)])
    with pytest.raises(StabilityError):
        correlator(P1, (1,), [])


# ---------------------------------------------------------------------------
# engine values


def test_point_three_units():
    assert correlator(PT, (), [(0, 0)] * 3) == 1


def test_point_psi_squared_five_points():
    assert correlator(PT, (), [(0, 2)] + [(0, 0)] * 4) == 1


def test_point_engine_vs_string_oracle():
    eng = get_engine(PT)
    for n in range(3, 9):
        for ks in combinations_with_replacement(range(n - 2), n):
            got = eng.correlator((), [(0, k) for k in ks])
            assert got == point_psi_integral(ks), ks


def test_p1_two_point_seed():
    assert correlator(P1, (1,), [(1, 0), (1, 0)]) == 1


def test_p2_line_through_two_points_with_divisor():
    assert correlator(P2, (1,), [(1, 0), (2, 0), (2, 0)]) == 1


def test_p2_primary_counts():
    eng = get_engine(P2)
    for d, want in ((1, 1), (2, 1), (3, 12), (4, 620)):
        got = eng.correlator((d,), [(2, 0)] * (3 * d - 1))
        assert got == want == rational_plane_curves(d)


@pytest.mark.parametrize("r,name", [(1, "P1"), (2, "P2")])
def test_one_point_descendants_vs_hypergeometric_oracle(r, name):
    eng = get_engine(make_target(name))
    for d in (1, 2, 3):
        table = projective_one_point_descendants(r, d)
        assert table  # the oracle produces something at every degree
        for (alpha, k), want in table.items():
            assert eng.correlator((d,), [(alpha, k)]) == want, (name, d, alpha, k)


def test_permutation_symmetry():
    eng = get_engine(P2)
    a = eng.correlator((1,), [(2, 1), (1, 0), (2, 0)])
    b = eng.correlator((1,), [(2, 0), (2, 1), (1, 0)])
    assert a == b


def test_memo_returns_identical_values():
    eng = get_engine(P2)
    key = ((2,), [(2, 0)] * 5)
    assert eng.correlator(*key) is eng.correlator(*key)


# ---------------------------------------------------------------------------
# consistency of the reduction system


def _random_valid_key(rng, target, d_max=3, n_max=6, need_divisor=True):
    """A dimension-respecting key with at least one psi power, and a
    divisor insertion when requested, so both reductions apply."""
    while True:
        d = rng.randint(1, d_max)
        n = rng.randint(3, n_max)
        ins = [(rng.randrange(target.rank), rng.randint(0, 3)) for _ in range(n - 1)]
        ins.append((1, 0) if need_divisor else (rng.randrange(target.rank), rng.randint(0, 2)))
        if not any(k > 0 for _, k in ins):
            continue
        shortfall = vdim(target, (d,), n) - sum(target.degree(a) + k for a, k in ins)
        if shortfall > 0:
            a0, k0 = ins[0]
            ins[0] = (a0, k0 + shortfall)
        elif shortfall < 0:
            continue
        return (d,), ins


def test_reduction_path_independence():
    rng = random.Random(2024)
    count = 0
    while count < 120:
        name = rng.choice(("P1", "P2"))
        target = make_target(name)
        eng = get_engine(target)
        beta, ins = _random_valid_key(rng, target)
        assert eng.reduce_divisor_first(beta, ins) == eng.reduce_recursion_first(beta, ins)
        count += 1


def test_string_consistency():
    """<1, x_1..x_n> computed by the engine equals the sum of psi-lowered
    correlators, including keys that route through the short-key logic;
    the unit key itself is forced through the recursion move so the two
    sides follow genuinely different reduction paths."""
    rng = random.Random(77)
    checked = 0
    while checked < 60:
        name = rng.choice(("P1", "P2"))
        target = make_target(name)
        eng = get_engine(target)
        beta, ins = _random_valid_key(rng, target, d_max=2, n_max=5, need_divisor=False)
        # Raise one psi power so the key with the extra unit stays
        # dimension-exact: the unit adds a point but no degree.
        a0, k0 = ins[0]
        ins[0] = (a0, k0 + 1)
        with_unit = list(ins) + [(0, 0)]
        assert sum(target.degree(a) + k for a, k in with_unit) == vdim(
            target, beta, len(with_unit)
        )
        lhs = eng.reduce_recursion_first(beta, with_unit)
        rhs = Fraction(0)
        for j, (a, k) in enumerate(ins):
            if k >= 1:
                lowered = list(ins)
                lowered[j] = (a, k - 1)
                rhs += eng.correlator(beta, lowered)
        assert lhs == rhs
        checked += 1


def test_dilaton_consistency():
    """<psi 1, x_1..x_n> = (n - 2) <x_1..x_n>: the dilaton equation is not a
    reduction move of the engine, so this is an independent identity."""
    rng = random.Random(99)
    checked = 0
    while checked < 60:
        name = rng.choice(("P1", "P2"))
        target = make_target(name)
        eng = get_engine(target)
        beta, ins = _random_valid_key(rng, target, n_max=5, need_divisor=False)
        n = len(ins)
        with_dilaton = list(ins) + [(0, 1)]
        if sum(target.degree(a) + k for a, k in with_dilaton) != vdim(target, beta, n + 1):
            continue
        assert eng.correlator(beta, with_dilaton) == (n - 2) * eng.correlator(beta, ins)
        checked += 1


def test_divisor_consistency_small_n():
    """The divisor equation holds for the short keys grounded by inversion."""
    eng = get_engine(P2)
    for d in (1, 2):
        for ins in ([(2, 3 * d - 2)], [(1, 3 * d - 1)], [(0, 3 * d)]):
            lhs = eng.correlator((d,), [(1, 0)] + ins)
            rhs = d * eng.correlator((d,), ins)
            for j, (a, k) in enumerate(ins):
                if k >= 1:
                    cup = P2.cup_basis(1, a)
                    for nu, c in enumerate(cup):
                        if c:
                            low = list(ins)
                            low[j] = (nu, k - 1)
                            rhs += c * eng.correlator((d,), low)
            assert lhs == rhs, (d, ins)


# ---------------------------------------------------------------------------
# kernel expansions


def test_kernel_point_example():
    eng = get_engine(PT)
    got = eng.correlator_with_kernel((), [(0, 0), (0, 0)], 0, -1)
    assert got == {-1: Fraction(-1)}


def test_kernel_sign_flip():
    eng = get_engine(P1)
    plus = eng.correlator_with_kernel((1,), [(1, 0)], 1, +1)
    minus = eng.correlator_with_kernel((1,), [(1, 0)], 1, -1)
    assert set(plus) == set(minus)
    for z, val in plus.items():
        l = -1 - z
        assert minus[z] == val * Fraction(-1) ** (l + 1)


def test_kernel_map_is_finite():
    eng = get_engine(P2)
    for d in (1, 2):
        for gamma in range(3):
            zmap = eng.correlator_with_kernel((d,), [(2, 0), (2, 0)], gamma, -1)
            assert len(zmap) <= 1  # the dimension filter pins the depth


@pytest.mark.parametrize(
    "beta,insertions",
    [
        ((1,), [(5, 0), (2, 0)]),  # P2 has no basis index 5
        ((1,), [(-1, 0), (2, 0)]),
        ((1, 0), [(2, 0), (2, 0)]),  # a degree of the wrong rank
        ((-1,), [(2, 0), (2, 0), (2, 0)]),
    ],
)
def test_bad_basis_index_or_degree_is_named_error(beta, insertions):
    eng = CorrelatorEngine(make_target("P2"))
    with pytest.raises(InvalidKeyError):
        eng.correlator(beta, insertions)
    assert issubclass(InvalidKeyError, ValueError)
    assert eng.correlator((1,), [(2, 0), (2, 0)]) == 1


def test_kernel_unstable_raises():
    eng = get_engine(PT)
    with pytest.raises(StabilityError):
        eng.correlator_with_kernel((), [(0, 0)], 0, -1)


# ---------------------------------------------------------------------------
# capability boundaries


def test_custom_target_has_no_backend():
    data = {
        "name": "fake-line",
        "dim": 1,
        "basis_degrees": [0, 1],
        "pairing": [[0, 1], [1, 0]],
        "cup": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
        "class_rank": 1,
        "c1_vector": [2],
        "divisor_rows": [[1, [1]]],
    }
    custom = load_target(data)
    eng = get_engine(custom)
    with pytest.raises(CapabilityError):
        eng.correlator((1,), [(1, 0), (1, 0)])
