"""Engine tests.  The oracle comparisons come first: the point-target
string-equation evaluator, the plane-curve recursion and the one-point
hypergeometric expansions are all written independently of the
reduction system they validate."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwlab import correlators, oracles
from gwlab import (
    CapabilityError,
    CorrelatorEngine,
    InvalidKeyError,
    ReductionDepthError,
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


def test_point_psi_cache_is_bounded():
    assert point_psi_integral.cache_info().maxsize == oracles._PSI_CACHE_SIZE
    point_psi_integral.cache_clear()
    # The n = 9 integrals visit more keys than the bound holds.
    for n in range(3, 10):
        for ks in combinations_with_replacement(range(n - 2), n):
            assert point_psi_integral(ks) == point_psi_closed_form(ks)
    assert point_psi_integral.cache_info().currsize == oracles._PSI_CACHE_SIZE


def test_plane_curve_cache_is_bounded_and_holds_degree_150():
    assert rational_plane_curves.cache_info().maxsize == oracles._PLANE_CACHE_SIZE >= 150
    rational_plane_curves.cache_clear()
    assert rational_plane_curves(150) == get_engine(P2).correlator((150,), [(2, 0)] * 449)
    assert rational_plane_curves.cache_info().currsize == 150


def test_point_psi_memo_holds_one_entry_per_exponent_multiset():
    point_psi_integral.cache_clear()
    for n in range(3, 9):
        for ks in combinations_with_replacement(range(n - 2), n):
            point_psi_integral(ks)
    assert point_psi_integral.cache_info().currsize == 2970


def test_plane_curve_oracle_does_not_recurse_on_the_degree():
    """A cold N_150 under a recursion limit below 150: lower degrees fill
    bottom up.  Hypothesis raises the limit inside tests, hence the
    subprocess."""
    code = (
        "import sys\n"
        "from gwlab import get_engine, make_target\n"
        "from gwlab.oracles import rational_plane_curves\n"
        "sys.setrecursionlimit(120)\n"
        "got = rational_plane_curves(150)\n"
        "print(got == get_engine(make_target('P2')).correlator((150,), [(2, 0)] * 449))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"


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


@pytest.mark.parametrize("name,forced,asked,message", [
    ("P1", ((1,), [(1, 0)]), ((1,), []), "without insertions"),
    ("P2", ((0,), [(1, 0), (0, 0)]), ((0,), [(0, 0)]), "unstable correlator"),
])
def test_unstable_keys_raise_after_a_reduction_caches_them(name, forced, asked, message):
    # The divisor step caches the key with the divisor removed.
    engine = CorrelatorEngine(make_target(name))
    engine.reduce_divisor_first(*forced)
    assert correlators.canonical_key(*asked) in engine._values
    with pytest.raises(StabilityError, match=message):
        engine.correlator(*asked)


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


_LINE_DATA = {
    "dim": 1,
    "basis_degrees": [0, 1],
    "pairing": [[0, 1], [1, 0]],
    "cup": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
    "class_rank": 1,
    "c1_vector": [2],
    "divisor_rows": [[1, [1]]],
}


@pytest.mark.parametrize(
    "name,pairing,has_backend",
    [
        ("P1", [[0, 2], [2, 0]], False),  # a valid ring that only borrows the name
        ("P1", [[0, 1], [1, 0]], True),  # the built-in presentation itself
        ("fake-line", [[0, 1], [1, 0]], False),  # the built-in ring renamed
    ],
)
def test_primary_backend_follows_the_presentation_not_the_name(name, pairing, has_backend):
    target = load_target({**_LINE_DATA, "name": name, "pairing": pairing})
    assert (target == P1) is has_backend
    engine = CorrelatorEngine(target)
    if has_backend:
        assert engine.correlator((1,), [(1, 0), (1, 0)]) == 1
    else:
        with pytest.raises(CapabilityError):
            engine.correlator((1,), [(1, 0), (1, 0)])


# ---------------------------------------------------------------------------
# named errors at every engine entry point


@pytest.mark.parametrize(
    "name,method,args",
    [
        ("P1", "reduce_divisor_first", ((1,), [(0, 1), (0, 0), (0, 0)])),  # no divisor slot
        ("P1", "reduce_recursion_first", ((1,), [(1, 0), (1, 0), (0, 0)])),  # no psi power
        ("point", "reduce_divisor_first", ((), [(0, 1), (0, 0), (0, 0), (0, 0)])),
        ("P2", "reduce_divisor_first", ((1,), [(9, 0), (1, 0), (2, 1)])),  # basis index 9
        ("P2", "reduce_recursion_first", ((1,), [(9, 0), (1, 0), (2, 1)])),
        ("P2", "reduce_divisor_first", ((-1,), [(1, 0), (2, 0), (2, 1)])),  # negative degree
        ("P2", "reduce_recursion_first", ((-1,), [(1, 0), (2, 0), (2, 1)])),
        ("P1", "correlator_with_kernel", ((1,), [(7, 0)], 0, 1)),
        ("P1", "correlator_with_kernel", ((1,), [(1, 0)], -1, 1)),
        ("P2", "correlator_with_kernel", ((1, 0), [(2, 0)], 1, -1)),
        ("P2", "correlator", ((1,), [(2, -1), (2, 0)])),  # negative psi power
    ],
)
def test_malformed_or_inadmissible_key_is_invalid_key_error(name, method, args):
    eng = CorrelatorEngine(make_target(name))
    with pytest.raises(InvalidKeyError):
        getattr(eng, method)(*args)


def test_forced_reductions_still_reduce_well_formed_keys():
    eng = CorrelatorEngine(P1)
    ins = [(1, 0), (1, 1), (0, 2)]
    assert eng.reduce_divisor_first((1,), ins) == eng.reduce_recursion_first((1,), ins)
    assert eng.reduce_divisor_first((1,), ins) == eng.correlator((1,), ins)
    assert eng.reduce_divisor_first((5,), ins) == 0  # fails the dimension filter


_FUZZ_ENGINES = {name: CorrelatorEngine(make_target(name)) for name in ("point", "P1", "P2")}
_ENTRY_POINTS = ("correlator", "correlator_with_kernel", "reduce_divisor_first", "reduce_recursion_first")


@st.composite
def _entry_calls(draw):
    engine = _FUZZ_ENGINES[draw(st.sampled_from(sorted(_FUZZ_ENGINES)))]
    t = engine.target
    width = draw(st.sampled_from((0, t.class_rank, t.class_rank + 1)))  # empty, right, wrong rank
    beta = tuple(draw(st.lists(st.integers(-1, 3), min_size=width, max_size=width)))
    slot = st.tuples(st.integers(-1, t.rank), st.integers(0, 4))
    ins = draw(st.lists(slot, max_size=6))
    method = draw(st.sampled_from(_ENTRY_POINTS))
    if method == "correlator_with_kernel":
        return engine, method, (beta, ins, draw(st.integers(-1, t.rank)), draw(st.sampled_from((1, -1))))
    return engine, method, (beta, ins)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_entry_calls())
def test_engine_entry_points_return_or_raise_value_error(call):
    """Every entry point ends in an exact value or a named ValueError."""
    engine, method, args = call
    try:
        got = getattr(engine, method)(*args)
    except ValueError:
        return
    if method == "correlator_with_kernel":
        assert all(isinstance(v, Fraction) for v in got.values())
    else:
        assert isinstance(got, Fraction)


# ---------------------------------------------------------------------------
# engine sharing and deep plane counts


def test_custom_target_named_like_a_builtin_keeps_the_builtin_engine():
    builtin = get_engine(P2)
    impostor = load_target(
        {
            "name": "P2",
            "dim": 1,
            "basis_degrees": [0, 1],
            "pairing": [[0, 1], [1, 0]],
            "cup": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
            "class_rank": 1,
            "c1_vector": [2],
            "divisor_rows": [[1, [1]]],
        }
    )
    assert get_engine(impostor) is not builtin
    assert get_engine(P2) is builtin
    assert get_engine(make_target("P2")) is builtin


def test_engine_cache_is_bounded():
    assert get_engine.cache_info().maxsize == correlators._ENGINE_CACHE_SIZE
    assert 3 <= correlators._ENGINE_CACHE_SIZE < 100


def test_plane_count_does_not_recurse_on_the_degree():
    """N_150 under a recursion limit below 150: the counts fill bottom up."""
    code = (
        "import sys\n"
        "from gwlab import correlator, make_target\n"
        "sys.setrecursionlimit(120)\n"
        "print(correlator(make_target('P2'), (150,), [(2, 0)] * 449))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert Fraction(done.stdout.strip()) == rational_plane_curves(150)


@pytest.mark.parametrize(
    "method, args",
    [
        ("correlator", ((100,), [(0, 199), (1, 0), (1, 0)])),
        ("correlator", ((200,), [(0, 399), (1, 0), (1, 0)])),
        ("correlator_with_kernel", ((100,), [(1, 0), (1, 0)], 0, 1)),
        ("reduce_divisor_first", ((100,), [(0, 199), (1, 0), (1, 0)])),
        ("reduce_recursion_first", ((100,), [(0, 199), (1, 0), (1, 0)])),
    ],
)
def test_reduction_deeper_than_the_recursion_limit_is_named(method, args):
    # The value itself waits for an iterative reducer; until then the
    # depth is a named capability error and the engine stays usable.
    engine = CorrelatorEngine(make_target("P1"))
    d = args[0][0]
    with pytest.raises(ReductionDepthError, match=rf"beta=\({d},\), insertions=\(\(0, {2 * d - 1}\)"):
        getattr(engine, method)(*args)
    assert issubclass(ReductionDepthError, CapabilityError)
    assert not engine._active
    assert engine.correlator((1,), [(1, 0), (1, 0)]) == 1


def test_degree_99_reduces_within_the_default_recursion_limit():
    """The deepest three-point P1 key that fits gives the value a deeper
    limit gives, so no reduction step spends a frame of its own (the
    string step is an alias of the corrections, not a wrapper).
    Hypothesis raises the limit inside tests, hence the subprocess."""
    code = (
        "import sys\n"
        "from gwlab import CorrelatorEngine, make_target\n"
        "key = ((99,), [(0, 197), (1, 0), (1, 0)])\n"
        "value = CorrelatorEngine(make_target('P1')).correlator(*key)\n"
        "sys.setrecursionlimit(4000)\n"
        "print(value == CorrelatorEngine(make_target('P1')).correlator(*key))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"
