"""Differential test of the column-by-column matrices against the loops
they replaced.

``_reference_apply_linear``, ``_reference_identity_endo``,
``_reference_add_entry``, ``_reference_columns``,
``_reference_poincare_adjoint`` and ``_reference_compose`` are the
earlier ``EndoSeries.apply_linear``, ``identity_endo``, ``_add_entry``,
``_columns``, ``poincare_adjoint`` and ``compose``, kept verbatim but for
the name of the reference product's flip flag: the product walked every
pair of entries with its own z-sign flip and its own accumulator, and
``apply_linear`` walked every term of f for every entry.  Now
``apply_linear`` pairs an entry only with the fitting terms of its column
and ``compose`` applies the first factor to each column of the second; a
flipped product composes with ``flip_z`` of the second.  Entries must be equal as dicts, ``apply_linear`` must
give the same terms in the same order and the same first
``TruncationOverflowError``.
"""

import random
from fractions import Fraction

import pytest

from gwlab import (
    EndoSeries,
    LoopSeries,
    SeriesAccumulator,
    TPolynomial,
    Truncation,
    TruncationOverflowError,
    compose,
    default_truncation,
    flip_z,
    get_engine,
    identity_endo,
    make_target,
    poincare_adjoint,
    s_adjoint_corr_apply,
    s_adjoint_matrix,
    s_apply,
    s_matrix,
)
from gwlab.series import MismatchError
from gwlab.targets import beta_add, beta_total, beta_zero


def _reference_apply_linear(self: EndoSeries, f: LoopSeries, out_trunc: Truncation) -> LoopSeries:
    if f.target != self.target:
        raise MismatchError("operand lives over a different target")
    acc = SeriesAccumulator(self.target, out_trunc)
    for (z_e, row, col, beta_e, eps_e), m in self.entries.items():
        for (z_f, alpha, beta_f, eps_f), c in f.terms.items():
            if alpha != col:
                continue
            acc.add(z_e + z_f, row, beta_add(beta_e, beta_f), eps_e + eps_f, m * c)
    return acc.series()


def _reference_identity_endo(target, trunc) -> EndoSeries:
    b0 = beta_zero(target.class_rank)
    entries = {(0, a, a, b0, 0): Fraction(1) for a in range(target.rank)}
    return EndoSeries(target, trunc, entries)


def _reference_add_entry(entries, trunc, z, row, col, beta, eps, val):
    if not val:
        return
    if not trunc.admits_grade(beta, eps):
        return
    trunc.check_window(z)
    key = (z, row, col, beta, eps)
    entries[key] = entries.get(key, Fraction(0)) + val
    if not entries[key]:
        del entries[key]


def _reference_columns(target, trunc, apply) -> EndoSeries:
    entries = {}
    for col in range(target.rank):
        for (z, row, beta, eps), val in apply(LoopSeries.basis(target, trunc, col)).terms.items():
            entries[(z, row, col, beta, eps)] = val
    return EndoSeries(target, trunc, entries)


def _reference_poincare_adjoint(e: EndoSeries) -> EndoSeries:
    target = e.target
    p = target.pairing
    pinv = target.pairing_inverse
    entries = {}
    for (z, row, col, beta, eps), val in e.entries.items():
        for r in range(target.rank):
            for c in range(target.rank):
                w = pinv[r][col] * p[row][c]
                if w:
                    _reference_add_entry(entries, e.trunc, z, r, c, beta, eps, w * val)
    return EndoSeries(target, e.trunc, entries)


def _reference_compose(a: EndoSeries, b: EndoSeries, flip: bool, trunc: Truncation) -> EndoSeries:
    if a.target != b.target:
        raise MismatchError("endomorphisms live over different targets")
    wide = Truncation(
        trunc.novikov_order,
        trunc.epsilon_order,
        a.trunc.z_min + b.trunc.z_min,
        a.trunc.z_max + b.trunc.z_max,
    )
    by_col: dict[int, list] = {}
    for (z, row, col, beta, eps), val in b.entries.items():
        if flip and z % 2:
            val = -val
        by_col.setdefault(row, []).append((z, col, beta, eps, val))
    entries = {}
    for (z1, row, mid, b1, e1), v1 in a.entries.items():
        for (z2, col, b2, e2, v2) in by_col.get(mid, ()):
            beta = beta_add(b1, b2)
            if beta_total(beta) > wide.novikov_order or e1 + e2 > wide.epsilon_order:
                continue
            _reference_add_entry(entries, wide, z1 + z2, row, col, beta, e1 + e2, v1 * v2)
    return EndoSeries(a.target, wide, entries)


def _assert_same_compose(a, b, trunc) -> None:
    for flip in (True, False):
        got = compose(a, flip_z(b) if flip else b, trunc=trunc)
        ref = _reference_compose(a, b, flip, trunc)
        assert got.trunc == ref.trunc
        assert got.entries == ref.entries


_CONFIGS = [("point", 0, 3, 1), ("P1", 2, 2, 1), ("P2", 2, 2, 1)]


@pytest.mark.parametrize("seed", [1, 7, 13])
@pytest.mark.parametrize("name, D, E, T", _CONFIGS)
def test_inverse_product_matches_reference(name, D, E, T, seed):
    target = make_target(name)
    t = TPolynomial.random(target, T, seed=seed)
    trunc = default_truncation(target, D, E, T)
    engine = get_engine(target)
    s = s_matrix(t, trunc, engine)
    s_adj = s_adjoint_matrix(t, trunc, engine)
    ref_s = _reference_columns(target, trunc, lambda f: s_apply(t, f, trunc, engine))
    ref_adj = _reference_columns(target, trunc, lambda r: s_adjoint_corr_apply(t, r, +1, trunc, engine))
    assert list(s.entries.items()) == list(ref_s.entries.items())
    assert list(s_adj.entries.items()) == list(ref_adj.entries.items())
    _assert_same_compose(s, s_adj, trunc)
    assert compose(s, flip_z(s_adj), trunc=trunc).is_identity()[0]
    assert poincare_adjoint(s).entries == _reference_poincare_adjoint(s).entries
    assert poincare_adjoint(s).entries == s_adj.entries


def _grade(target, rng, trunc):
    beta = (rng.randint(0, trunc.novikov_order),) if target.class_rank else ()
    return beta, rng.randint(0, trunc.epsilon_order)


def _random_endo(target, trunc, rng, size, values):
    """Entries on a small key set with values from ``values``, so that
    products collide and cancel; zero values are kept as given."""
    entries = {}
    for _ in range(size):
        beta, eps = _grade(target, rng, trunc)
        key = (rng.randint(trunc.z_min, trunc.z_max), rng.randrange(target.rank),
               rng.randrange(target.rank), beta, eps)
        entries[key] = Fraction(rng.choice(values))
    return EndoSeries(target, trunc, entries)


def _random_series(target, trunc, rng, size):
    terms = {}
    for _ in range(size):
        beta, eps = _grade(target, rng, trunc)
        key = (rng.randint(trunc.z_min, trunc.z_max), rng.randrange(target.rank), beta, eps)
        terms[key] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return LoopSeries(target, trunc, terms)


def _pair_keys(a: EndoSeries, b: EndoSeries, trunc: Truncation) -> set:
    """Every output key some pair of entries reaches within the orders."""
    keys = set()
    for (z1, row, mid, b1, e1), v1 in a.entries.items():
        for (z2, r2, col, b2, e2), v2 in b.entries.items():
            beta = beta_add(b1, b2)
            if r2 == mid and v1 and v2 and trunc.admits_grade(beta, e1 + e2):
                keys.add((z1 + z2, row, col, beta, e1 + e2))
    return keys


@pytest.mark.parametrize("name", ["point", "P1", "P2"])
def test_random_products_with_cancellation_match_reference(name):
    target = make_target(name)
    rng = random.Random(f"compose-{name}")
    in_trunc = Truncation(2, 2, -1, 1)
    cancelled = 0
    for _ in range(100):
        a = _random_endo(target, in_trunc, rng, rng.randint(1, 20), (-1, 1))
        b = _random_endo(target, in_trunc, rng, rng.randint(1, 20), (-1, 1))
        for orders in ((2, 2), (2, 1), (1, 2), (0, 0)):
            trunc = Truncation(*orders, -1, 1)
            _assert_same_compose(a, b, trunc)
            product = compose(a, b, trunc=trunc)
            cancelled += len(_pair_keys(a, b, product.trunc)) - len(product.entries)
    assert cancelled >= 20


@pytest.mark.parametrize("name", ["point", "P1", "P2"])
def test_apply_linear_keeps_term_order_and_first_overflow(name):
    target = make_target(name)
    rng = random.Random(f"apply-{name}")
    in_trunc = Truncation(2, 2, -2, 2)
    outcomes = {"terms": 0, "overflow": 0}
    for _ in range(80):
        e = _random_endo(target, in_trunc, rng, rng.randint(1, 12), (-1, 0, 1, 3))
        f = _random_series(target, in_trunc, rng, rng.randint(1, 10))
        z_min, z_max = rng.choice(((-4, 4), (-2, 3), (-1, 1)))
        out_trunc = Truncation(rng.randint(0, 2), rng.randint(0, 2), z_min, z_max)
        try:
            ref = _reference_apply_linear(e, f, out_trunc)
        except TruncationOverflowError as exc:
            with pytest.raises(TruncationOverflowError) as got:
                e.apply_linear(f, out_trunc)
            assert str(got.value) == str(exc)
            outcomes["overflow"] += 1
            continue
        got = e.apply_linear(f, out_trunc)
        assert got.trunc == ref.trunc
        assert list(got.terms.items()) == list(ref.terms.items())
        outcomes["terms"] += bool(ref.terms)
    assert outcomes["terms"] >= 10 and outcomes["overflow"] >= 10


@pytest.mark.parametrize("name, D, E, T", _CONFIGS)
def test_apply_linear_on_the_solution_matrix_matches_reference(name, D, E, T):
    target = make_target(name)
    t = TPolynomial.random(target, T, seed=7)
    trunc = default_truncation(target, D, E, T)
    mat = s_matrix(t, trunc, get_engine(target))
    wide = Truncation(D, E, 2 * trunc.z_min, 2 * trunc.z_max)
    rng = random.Random(f"solution-{name}")
    for _ in range(10):
        f = _random_series(target, trunc, rng, 6)
        got = mat.apply_linear(f, wide)
        assert list(got.terms.items()) == list(_reference_apply_linear(mat, f, wide).terms.items())
    narrow = Truncation(D, E, trunc.z_min, 1)
    f = LoopSeries.basis(target, trunc, 0, trunc.z_max)
    with pytest.raises(TruncationOverflowError) as ref:
        _reference_apply_linear(mat, f, narrow)
    with pytest.raises(TruncationOverflowError) as got:
        mat.apply_linear(f, narrow)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("name", ["point", "P1", "P2"])
def test_identity_and_adjoint_match_reference(name):
    target = make_target(name)
    for trunc in (Truncation(0, 0, 0, 1), Truncation(2, 3, -4, 5)):
        ident = identity_endo(target, trunc)
        ref = _reference_identity_endo(target, trunc)
        assert ident.trunc == ref.trunc and ident.entries == ref.entries
    rng = random.Random(f"adjoint-{name}")
    trunc = Truncation(2, 2, -2, 2)
    for _ in range(30):
        e = _random_endo(target, trunc, rng, rng.randint(1, 12), (-2, -1, 0, 1, 2))
        got = poincare_adjoint(e)
        assert got.trunc == e.trunc
        assert got.entries == _reference_poincare_adjoint(e).entries
