"""Differential test of the bucketed symplectic form against the loop it
replaced.

``_reference_pair_extend`` and ``_reference_omega`` are the earlier
``LoopSeries.pair_extend`` and ``LoopSeries.omega``, kept verbatim with
the z-flip inlined: flip f, pair every term of f with every term of g,
keep the z^{-1} coefficient.  The new ``omega`` pairs each term of f
only with the z bucket of g that sums to z^{-1}; it must give the same
``ScalarSeries`` on the Lagrangian check's images, on the Darboux basis
and on random series.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwlab import (
    LoopSeries,
    MismatchError,
    ScalarSeries,
    TPolynomial,
    Truncation,
    default_truncation,
    get_engine,
    make_target,
    s_adjoint_corr_apply,
)
from gwlab.checks import _basis_b
from gwlab.targets import beta_add


def _reference_pair_extend(f: LoopSeries, g: LoopSeries) -> dict:
    f._check_compatible(g)
    pairing = f.target.pairing
    out: dict = {}
    for (z1, a1, b1, e1), v1 in f.terms.items():
        row = pairing[a1]
        for (z2, a2, b2, e2), v2 in g.terms.items():
            p = row[a2]
            if not p:
                continue
            beta = beta_add(b1, b2)
            eps = e1 + e2
            if not f.trunc.admits_grade(beta, eps):
                continue
            key = (z1 + z2, beta, eps)
            out[key] = out.get(key, Fraction(0)) + v1 * v2 * p
    return {k: v for k, v in out.items() if v}


def _reference_omega(f: LoopSeries, g: LoopSeries) -> ScalarSeries:
    flipped = LoopSeries(
        f.target,
        f.trunc,
        {(z, a, b, e): (v if z % 2 == 0 else -v) for (z, a, b, e), v in f.terms.items()},
    )
    paired = _reference_pair_extend(flipped, g)
    out = {}
    for (z, beta, eps), val in paired.items():
        if z == -1:
            out[(beta, eps)] = val
    return ScalarSeries(f.trunc, out)


def _assert_same(f: LoopSeries, g: LoopSeries) -> bool:
    """Compare omega with the reference; True if omega is nonzero."""
    got = f.omega(g)
    assert got == _reference_omega(f, g)
    return not got.is_zero()


# -- the Lagrangian check's images -------------------------------------------


@pytest.mark.parametrize("seed", [1, 7, 13])
@pytest.mark.parametrize("name, D, E, T", [("point", 0, 2, 1), ("P1", 2, 2, 1), ("P2", 1, 2, 1)])
def test_lagrangian_images_match_reference(name, D, E, T, seed):
    target = make_target(name)
    t = TPolynomial.random(target, T, seed)
    trunc = default_truncation(target, D, E, T)
    engine = get_engine(target)
    mono = [
        LoopSeries.basis(target, trunc, a, j) for a in range(target.rank) for j in range(2)
    ]
    images = [s_adjoint_corr_apply(t, r, -1, trunc, engine) for r in mono]
    for left in images:
        for right in images:
            assert not _assert_same(left, right)  # the cone is Lagrangian
    # Images against the plain monomials give nonzero pairings too.
    nonzero = sum(_assert_same(v, r) + _assert_same(r, v) for v in images for r in mono)
    assert nonzero > 0


# -- the Darboux basis -------------------------------------------------------


@pytest.mark.parametrize("name", ["point", "P1", "P2"])
def test_darboux_basis_matches_reference(name):
    target = make_target(name)
    k_max = 3
    trunc = Truncation(0, 0, -(k_max + 2), k_max + 1)
    vecs = [LoopSeries.basis(target, trunc, a, k) for a in range(target.rank) for k in range(k_max + 1)]
    vecs += [_basis_b(target, trunc, g, l) for g in range(target.rank) for l in range(k_max + 1)]
    nonzero = sum(_assert_same(f, g) for f in vecs for g in vecs)
    assert nonzero == 2 * target.rank * (k_max + 1)


# -- random series -----------------------------------------------------------

_CASES = [
    (make_target("point"), Truncation(0, 2, -3, 2)),
    (make_target("P1"), Truncation(2, 1, -3, 2)),
    (make_target("P2"), Truncation(2, 2, -3, 3)),
]


@st.composite
def _operands(draw):
    """Two series over one target; each term's own grade fits the
    truncation, so grade sums past it occur often."""
    target, trunc = draw(st.sampled_from(_CASES))
    keys = st.tuples(
        st.integers(trunc.z_min, trunc.z_max),
        st.integers(0, target.rank - 1),
        st.integers(0, trunc.novikov_order).map(lambda n: (n,) * target.class_rank),
        st.integers(0, trunc.epsilon_order),
    )
    values = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    terms = st.dictionaries(keys, values, max_size=8)
    f = LoopSeries(target, trunc, draw(terms))
    g = LoopSeries(target, trunc, draw(terms))
    return f, g


@settings(max_examples=200, derandomize=True, deadline=None)
@given(operands=_operands())
def test_random_series_match_reference(operands):
    f, g = operands
    zero = LoopSeries.zero(f.target, f.trunc)
    # Empty operands, the operands themselves, and sums whose pairings
    # cancel: omega(h, h) = 0 because omega is antisymmetric.
    for left, right in [(f, g), (g, f), (zero, g), (f, zero), (f, f), (f.add(g), f.add(g)),
                        (f, f.add(g.scale(-1))), (f.add(f.scale(-1)), g)]:
        _assert_same(left, right)
    assert f.omega(f).is_zero()


def test_mismatched_truncation_or_target_raises():
    p2 = make_target("P2")
    f = LoopSeries.basis(p2, Truncation(1, 1, -2, 2), 0, 0)
    for other in (
        LoopSeries.basis(p2, Truncation(1, 2, -2, 2), 2, -1),
        LoopSeries.basis(make_target("P1"), Truncation(1, 1, -2, 2), 1, -1),
    ):
        with pytest.raises(MismatchError):
            f.omega(other)
        with pytest.raises(MismatchError):
            _reference_omega(f, other)
