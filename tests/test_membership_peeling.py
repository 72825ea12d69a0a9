"""Both paths of the tangent span solver.

``_solve_membership`` peels permuted-triangular systems and falls back
to pivot reduction when peeling stalls.  Each path must give the dense
reference's rank and flags, and the tangent check's own systems must
take the peeling path.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwlab import TPolynomial, check_cone_in_tangent, default_truncation, get_engine, make_target
from gwlab import checks
from test_membership_reference import _reference_solve_membership


def _spy_peel(monkeypatch) -> list:
    """Record whether each call of ``_peel`` found an order."""
    peeled = []
    real = checks._peel

    def spy(columns):
        order = real(columns)
        peeled.append(order is not None)
        return order

    monkeypatch.setattr(checks, "_peel", spy)
    return peeled


# -- permuted-triangular systems ---------------------------------------------

_KEYS = [(z, a) for z in range(4) for a in range(3)]
_VALUES = st.sampled_from([Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)])
_NONZERO = _VALUES.filter(bool)


@st.composite
def _triangular_system(draw):
    """Columns with distinct random leads, each filled only at keys above
    its lead, in random order; targets are combinations of columns or
    random vectors."""
    n = draw(st.integers(1, 7))
    leads = draw(st.lists(st.sampled_from(range(len(_KEYS))), min_size=n, max_size=n, unique=True))
    columns = []
    for lead in leads:
        col = {_KEYS[lead]: draw(_NONZERO)}
        above = _KEYS[lead + 1:]
        if above:
            for key in draw(st.lists(st.sampled_from(above), max_size=4)):
                col[key] = draw(_VALUES)  # may write an explicit zero
        columns.append(col)
    columns = draw(st.permutations(columns))
    targets = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            combo: dict = {}
            for i in draw(st.lists(st.sampled_from(range(n)), min_size=1, max_size=3)):
                c = draw(_VALUES)
                for key, val in columns[i].items():
                    combo[key] = combo.get(key, Fraction(0)) + c * val
            targets.append(combo)
        else:
            targets.append(draw(st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=5)))
    return columns, targets


@settings(max_examples=250, derandomize=True, deadline=None)
@given(system=_triangular_system())
def test_triangular_systems_peel_and_match_dense_reference(system):
    columns, targets = system
    assert checks._peel([{k: v for k, v in col.items() if v} for col in columns]) is not None
    rank, flags = checks._solve_membership(columns, targets)
    assert rank == len(columns)
    assert (rank, flags) == _reference_solve_membership(columns, targets)


def test_stalled_system_falls_back_and_matches_dense_reference(monkeypatch):
    a, b, c = (0, 0), (0, 1), (1, 0)
    one = Fraction(1)
    cases = [
        ([{a: one, b: one}, {a: one, b: -one}], [{a: one}, {c: one}]),
        ([{a: one, b: one}, {a: 2 * one, b: 2 * one}], [{a: one}, {a: -one, b: -one}]),
        ([{a: one, b: one}, {b: one, c: one}, {a: one, c: one}], [{a: one}, {c: 3 * one}]),
    ]
    peeled = _spy_peel(monkeypatch)
    for columns, targets in cases:
        assert checks._solve_membership(columns, targets) == _reference_solve_membership(
            columns, targets
        )
    assert peeled == [False] * len(cases)
    assert checks._solve_membership(*cases[0]) == (2, [True, False])
    assert checks._solve_membership(*cases[1]) == (1, [False, True])


# -- the tangent check's own systems -----------------------------------------


@pytest.mark.parametrize("seed", [1, 7, 13])
@pytest.mark.parametrize(
    "name, D, E, T",
    [("point", 0, 2, 1), ("P1", 2, 2, 1), ("P1", 1, 2, 1), ("P1", 1, 1, 2), ("P2", 1, 2, 1)],
)
def test_tangent_systems_peel(monkeypatch, name, D, E, T, seed):
    target = make_target(name)
    t = TPolynomial.random(target, T, seed)
    trunc = default_truncation(target, D, E, T)
    peeled = _spy_peel(monkeypatch)
    report = check_cone_in_tangent(t, trunc, get_engine(target))
    assert peeled == [True]
    assert report.passed
