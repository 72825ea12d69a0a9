"""Differential test of the tangent span system against the one it replaced.

The reference code below is the previous implementation, kept verbatim
(docstrings dropped): the column loop of ``check_cone_in_tangent``,
which called ``beta_add`` and ``admits_grade`` on every term of every
shift, and ``_solve_membership`` with its ``_peel`` and ``_reduce``,
which eliminated on ``Fraction`` entries.  Now each base vector's terms
are split by grade once and a shift keeps the terms whose totals fit, and
the solve scales every vector to integers and clears each pivot's lead
fraction-free, dividing a scaled remainder by the gcd of its entries.

The tangent check must build the same columns, in the same list order
and with the same insertion order in each dict, and the solve must give
the reference's rank and flags on both its paths.  A chain of 64 pivots
whose leads are all 3 shows that content removal keeps the remainders
small where the ``Fraction`` reference's entries reach 100 bits, and the
solve must form no ``Fraction`` at all.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwlab import TPolynomial, check_cone_in_tangent, cone, default_truncation, get_engine, make_target
from gwlab import checks
from gwlab.targets import beta_add, iter_betas


def _reference_columns(t, trunc, engine) -> list[dict]:
    target = t.target
    base = [
        checks._adjoint_image(cone.s_adjoint_corr_apply, t, rho, 0, trunc, engine)
        for rho in range(target.rank)
    ]
    columns = []
    for vec in base:
        for j in range(max(t.degree, 1) + 1):
            for beta in iter_betas(target.class_rank, trunc.novikov_order):
                for eps in range(trunc.epsilon_order + 1):
                    shifted = {}
                    for (z, a, b, e), val in vec.terms.items():
                        nb = beta_add(b, beta)
                        if trunc.admits_grade(nb, e + eps):
                            shifted[(z + j, a, nb, e + eps)] = val
                    if shifted:
                        columns.append(shifted)
    return columns


def _reference_reduce(vec: dict, pivots: list[tuple]) -> dict:
    rem = {key: val for key, val in vec.items() if val}
    for lead, piv in pivots:
        f = rem.get(lead)
        if not f:
            continue
        f /= piv[lead]
        for key, val in piv.items():
            x = rem.get(key, 0) - f * val
            if x:
                rem[key] = x
            else:
                rem.pop(key, None)
    return rem


def _reference_peel(columns: list[dict]) -> list[tuple] | None:
    holders: dict = {}
    for i, col in enumerate(columns):
        for key in col:
            holders.setdefault(key, set()).add(i)
    ready = [key for key, held in holders.items() if len(held) == 1]
    order = []
    while ready:
        lead = ready.pop()
        if not holders[lead]:
            continue  # its column was peeled through another key
        i = holders[lead].pop()
        order.append((lead, columns[i]))
        for key in columns[i]:
            held = holders[key]
            held.discard(i)
            if len(held) == 1:
                ready.append(key)
    return order if len(order) == len(columns) else None


def _reference_solve_membership(columns: list[dict], targets: list[dict]) -> tuple[int, list[bool]]:
    columns = [col for col in ({k: v for k, v in c.items() if v} for c in columns) if col]
    pivots = _reference_peel(columns)
    if pivots is None:
        pivots = []
        for col in columns:
            rem = _reference_reduce(col, pivots)
            if rem:
                pivots.append((min(rem), rem))
    return len(pivots), [not _reference_reduce(vec, pivots) for vec in targets]


# -- the tangent check's columns ---------------------------------------------


def _captured_system(t, trunc, engine, monkeypatch):
    seen = []
    real = checks._solve_membership

    def spy(columns, targets):
        seen.append((columns, targets))
        return real(columns, targets)

    monkeypatch.setattr(checks, "_solve_membership", spy)
    report = check_cone_in_tangent(t, trunc, engine)
    (columns, targets), = seen
    return report, columns, targets


@pytest.mark.parametrize("seed", [1, 7, 13])
@pytest.mark.parametrize(
    "name, D, E, T",
    [("point", 0, 2, 1), ("P1", 2, 2, 1), ("P1", 1, 2, 1), ("P1", 1, 1, 2), ("P2", 1, 2, 1)],
)
def test_columns_match_reference_in_order(monkeypatch, name, D, E, T, seed):
    target = make_target(name)
    t = TPolynomial.random(target, T, seed)
    trunc = default_truncation(target, D, E, T)
    engine = get_engine(target)
    report, columns, targets = _captured_system(t, trunc, engine, monkeypatch)
    reference = _reference_columns(t, trunc, engine)
    assert [list(col.items()) for col in columns] == [list(col.items()) for col in reference]
    assert checks._solve_membership(columns, targets) == _reference_solve_membership(columns, targets)
    assert report.passed


def test_tangent_system_with_a_dependent_column_stalls_and_matches(monkeypatch):
    target = make_target("P1")
    t = TPolynomial.random(target, 1, 7)
    trunc = default_truncation(target, 1, 2, 1)
    _, columns, targets = _captured_system(t, trunc, get_engine(target), monkeypatch)
    columns = columns + [{key: Fraction(-5, 3) * val for key, val in columns[0].items()}]
    targets = targets + [columns[1], {key: val / 7 for key, val in columns[2].items()}]
    assert checks._peel([checks._integral(col) for col in columns]) is None
    rank, flags = checks._solve_membership(columns, targets)
    assert (rank, flags) == _reference_solve_membership(columns, targets)
    assert rank == len(columns) - 1 and all(flags)


# -- random sparse systems on both paths -------------------------------------

_KEYS = [(z, a) for z in range(4) for a in range(3)]
_VALUES = st.sampled_from([Fraction(n, d) for n in range(-12, 13) for d in (1, 2, 3, 4, 6, 9)])
_NONZERO = _VALUES.filter(bool)
_VECTOR = st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=6)


def _combination(draw, columns) -> dict:
    combo: dict = {}
    for i in draw(st.lists(st.sampled_from(range(len(columns))), min_size=1, max_size=3)):
        c = draw(_VALUES)
        for key, val in columns[i].items():
            combo[key] = combo.get(key, Fraction(0)) + c * val
    return combo


def _targets(draw, columns) -> list[dict]:
    return [
        _combination(draw, columns) if draw(st.booleans()) else draw(_VECTOR)
        for _ in range(draw(st.integers(0, 4)))
    ]


@st.composite
def _peeling_system(draw):
    """Columns with distinct leads, each filled only at keys above its lead
    (explicit zeros included), in random order."""
    n = draw(st.integers(1, 8))
    leads = draw(st.lists(st.sampled_from(range(len(_KEYS))), min_size=n, max_size=n, unique=True))
    columns = []
    for lead in leads:
        col = {_KEYS[lead]: draw(_NONZERO)}
        above = _KEYS[lead + 1:]
        if above:
            for key in draw(st.lists(st.sampled_from(above), max_size=5)):
                col[key] = draw(_VALUES)  # may write an explicit zero
        columns.append(col)
    columns = draw(st.permutations(columns))
    return columns, _targets(draw, columns)


@st.composite
def _stalled_system(draw):
    """Random columns and a rescaled copy of one of them: the two share
    every key, so neither can be peeled."""
    columns = [col for col in draw(st.lists(_VECTOR, min_size=1, max_size=7)) if any(col.values())]
    if not columns:
        columns = [{_KEYS[0]: Fraction(1)}]
    copy, c = draw(st.sampled_from(columns)), draw(_NONZERO)
    columns.insert(draw(st.integers(0, len(columns))), {key: c * val for key, val in copy.items()})
    if draw(st.booleans()):
        columns.append(_combination(draw, columns))
    return columns, _targets(draw, columns)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(system=_peeling_system())
def test_peeling_path_matches_reference(system):
    columns, targets = system
    assert checks._peel([checks._integral(col) for col in columns]) is not None
    assert checks._solve_membership(columns, targets) == _reference_solve_membership(columns, targets)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(system=_stalled_system())
def test_stalled_path_matches_reference(system):
    columns, targets = system
    assert checks._peel([col for col in map(checks._integral, columns) if col]) is None
    assert checks._solve_membership(columns, targets) == _reference_solve_membership(columns, targets)


# -- a chain of lead-3 pivots: bounded and Fraction-free ---------------------

_CHAIN = 64
_BITS = 8  # no remainder entry of the chain below needs more


def _chain():
    """Columns 3/5 e_k + 2/5 e_(k+1) for k < 63 and 3/5 e_63: after lcm
    scaling each lead is 3 and peeling walks them in order.  Past e_5 the
    exact remainder of e_0 + e_1 + e_5 is a multiple of (2/3)^k e_k, so
    its Fraction entries reach 100 bits; without content removal each
    fraction-free step would multiply the remainder by 3, up to 67 bits."""
    columns = [{k: Fraction(3, 5), k + 1: Fraction(2, 5)} for k in range(_CHAIN - 1)]
    columns.append({_CHAIN - 1: Fraction(3, 5)})
    targets = [
        {0: Fraction(1), 1: Fraction(1), 5: Fraction(1)},
        {_CHAIN - 1: Fraction(1, 2), _CHAIN: Fraction(1, 2)},
        {key: sum(col.get(key, 0) for col in columns) for key in range(_CHAIN)},
    ]
    return columns, targets


def test_lead_three_chain_stays_bounded_and_matches_reference():
    columns, targets = _chain()
    assert checks._solve_membership(columns, targets) == _reference_solve_membership(columns, targets)
    assert checks._solve_membership(columns, targets) == (_CHAIN, [True, False, True])
    pivots = checks._peel([checks._integral(col) for col in columns])
    ref_pivots = _reference_peel(columns)
    assert [piv[lead] for lead, piv in pivots] == [3] * _CHAIN
    assert [lead for lead, _ in pivots] == [lead for lead, _ in ref_pivots] == list(range(_CHAIN))
    ref_bits = 0
    for vec in targets:
        scaled = checks._integral(vec)
        for i in range(_CHAIN + 1):
            rem = checks._reduce(scaled, pivots[:i])
            ref = _reference_reduce(vec, ref_pivots[:i])
            assert rem.keys() == ref.keys()
            if rem:
                # rem is a nonzero multiple of the exact remainder
                key = next(iter(rem))
                assert all(rem[k] * ref[key] == ref[k] * rem[key] for k in rem)
                assert max(abs(val).bit_length() for val in rem.values()) <= _BITS
                ref_bits = max(ref_bits, *(val.denominator.bit_length() for val in ref.values()))
    assert ref_bits >= 100


def test_span_solve_forms_no_fraction(monkeypatch):
    columns, targets = _chain()
    target = make_target("P2")
    t = TPolynomial.random(target, 1, 7)
    trunc = default_truncation(target, 1, 2, 1)
    _, tangent_columns, tangent_targets = _captured_system(t, trunc, get_engine(target), monkeypatch)
    stalled = tangent_columns + [tangent_columns[0]]
    formed = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        formed.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if hasattr(Fraction, "_from_coprime_ints"):  # where arithmetic forms its results
        coprime = Fraction._from_coprime_ints
        monkeypatch.setattr(
            Fraction, "_from_coprime_ints", classmethod(lambda cls, *a: formed.append(a) or coprime(*a))
        )
    results = [
        checks._solve_membership(columns, targets),
        checks._solve_membership(tangent_columns, tangent_targets),
        checks._solve_membership(stalled, tangent_targets),
    ]
    monkeypatch.undo()
    assert formed == []
    assert results[0] == (_CHAIN, [True, False, True])
    assert results[1][0] == len(tangent_columns) and all(results[1][1])
    assert results[2][0] == len(tangent_columns) and all(results[2][1])
