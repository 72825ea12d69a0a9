"""Differential test of the tangent span check against the dense path it
replaced.

``_reference_solve_membership`` is the earlier dense Gauss-Jordan
solver and ``_reference_span_system`` the earlier spanning columns,
built from the flipped adjoint matrix applied to monomials of H_plus;
both are kept verbatim.  The sparse solver must give the same rank and
the same flags on random sparse systems, and ``check_cone_in_tangent``
must hand it the same columns and targets, in the same order.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwlab import (
    LoopSeries,
    TPolynomial,
    Truncation,
    check_cone_in_tangent,
    default_truncation,
    flip_z,
    get_engine,
    make_target,
    s_adjoint_matrix,
    tangent_vector,
)
from gwlab import checks
from gwlab.targets import iter_betas

_sparse_solve_membership = checks._solve_membership


def _reference_solve_membership(columns: list[dict], targets: list[dict]) -> tuple[int, list[bool]]:
    """Exact rank of the column span and membership of each target vector.

    Vectors are sparse maps key -> Fraction over an arbitrary index set.
    Returns (rank, in_span flags) via fraction-exact elimination.
    """
    keys = sorted({k for col in columns for k in col} | {k for v in targets for k in v})
    index = {k: i for i, k in enumerate(keys)}
    rows = len(keys)
    mat = [[Fraction(0)] * len(columns) for _ in range(rows)]
    for c, col in enumerate(columns):
        for k, val in col.items():
            mat[index[k]][c] = val
    aug = [[Fraction(0)] * len(targets) for _ in range(rows)]
    for ti, vec in enumerate(targets):
        for k, val in vec.items():
            aug[index[k]][ti] = val
    r = 0
    for c in range(len(columns)):
        piv = next((i for i in range(r, rows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    # After elimination rows r.. of the column matrix are zero, so a target
    # lies in the span iff its residual vanishes there.
    in_span = [
        all(not aug[i][ti] for i in range(r, rows)) for ti in range(len(targets))
    ]
    return r, in_span


def _reference_span_system(t, trunc, engine):
    """The spanning columns and target vectors of the earlier tangent check."""
    target = t.target
    s_adj_flipped = flip_z(s_adjoint_matrix(t, trunc, engine))
    j_max = max(t.degree, 1)
    wide = Truncation(
        trunc.novikov_order,
        trunc.epsilon_order,
        trunc.z_min + s_adj_flipped.trunc.z_min,
        trunc.z_max + s_adj_flipped.trunc.z_max,
    )
    columns = []
    for rho in range(target.rank):
        for j in range(j_max + 1):
            base = s_adj_flipped.apply_linear(LoopSeries.basis(target, wide, rho, j), wide)
            # Scalars of the truncated ground ring enter as monomial
            # multiplier copies of each image.
            for beta in iter_betas(target.class_rank, trunc.novikov_order):
                for eps in range(trunc.epsilon_order + 1):
                    shifted = {}
                    for (z, a, b, e), val in base.terms.items():
                        nb = tuple(x + y for x, y in zip(b, beta))
                        if wide.admits_grade(nb, e + eps):
                            shifted[(z, a, nb, e + eps)] = val
                    if shifted:
                        columns.append(shifted)
    targets_vecs = []
    for alpha in range(target.rank):
        for k in range(max(t.degree, 0) + 1):
            tv = tangent_vector(t, alpha, k, trunc, engine)
            targets_vecs.append(dict(tv.terms))
    return columns, targets_vecs


# -- random sparse systems ---------------------------------------------------

_KEYS = [(z, a) for z in range(-1, 2) for a in range(3)]
_VALUES = st.sampled_from([Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)])
_VECTOR = st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=5)


@st.composite
def _system(draw):
    """Columns and targets over a small key set: empty vectors, vectors
    with explicit zero entries, and columns or targets that are
    combinations of earlier columns all occur."""
    columns = []
    for _ in range(draw(st.integers(0, 7))):
        if columns and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(range(len(columns))), min_size=1, max_size=3))
            combo: dict = {}
            for i in picks:
                c = draw(_VALUES)
                for key, val in columns[i].items():
                    combo[key] = combo.get(key, Fraction(0)) + c * val
            columns.append(combo)
        else:
            columns.append(draw(_VECTOR))
    targets = []
    for _ in range(draw(st.integers(0, 4))):
        if columns and draw(st.booleans()):
            i = draw(st.sampled_from(range(len(columns))))
            c = draw(_VALUES)
            targets.append({key: c * val for key, val in columns[i].items()})
        else:
            targets.append(draw(_VECTOR))
    return columns, targets


@settings(max_examples=250, derandomize=True, deadline=None)
@given(system=_system())
def test_sparse_solver_matches_dense_reference(system):
    columns, targets = system
    assert _sparse_solve_membership(columns, targets) == _reference_solve_membership(
        columns, targets
    )


def test_solver_edge_cases():
    one = {(0, 0): Fraction(1)}
    solve = _sparse_solve_membership
    assert solve([], []) == (0, [])
    assert solve([], [{}, one]) == (0, [True, False])
    assert solve([{}, {(0, 0): Fraction(0)}], [{}]) == (0, [True])
    assert solve([one, {(0, 0): Fraction(2)}], [one]) == (1, [True])


# -- the tangent check's own systems -----------------------------------------


def _captured_system(t, trunc, engine, monkeypatch):
    seen = []

    def spy(columns, targets):
        seen.append((columns, targets))
        return _reference_solve_membership(columns, targets)

    monkeypatch.setattr(checks, "_solve_membership", spy)
    report = check_cone_in_tangent(t, trunc, engine)
    (columns, targets), = seen
    return report, columns, targets


@pytest.mark.parametrize("seed", [1, 7, 13])
@pytest.mark.parametrize(
    "name, D, E, T", [("point", 0, 2, 1), ("P1", 2, 2, 1), ("P1", 1, 1, 2), ("P2", 1, 2, 1)]
)
def test_columns_and_targets_match_matrix_reference(monkeypatch, name, D, E, T, seed):
    target = make_target(name)
    t = TPolynomial.random(target, T, seed)
    trunc = default_truncation(target, D, E, T)
    engine = get_engine(target)
    report, columns, targets = _captured_system(t, trunc, engine, monkeypatch)
    ref_columns, ref_targets = _reference_span_system(t, trunc, engine)
    assert columns == ref_columns
    assert targets == ref_targets
    assert _sparse_solve_membership(columns, targets) == _reference_solve_membership(
        columns, targets
    )
    assert report.passed
