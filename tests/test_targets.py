from fractions import Fraction

import dataclasses
from itertools import product

import pytest

from gwlab import ConfigurationError, get_engine, load_target, make_target
from gwlab.cone import kernel_depth_bound
from gwlab.targets import beta_splits, iter_betas


def test_point_presentation():
    t = make_target("point")
    assert t.dim == 0
    assert t.rank == 1
    assert t.pairing == ((Fraction(1),),)
    assert t.class_rank == 0


def test_p2_pairing_antidiagonal():
    t = make_target("P2")
    want = {(0, 2): 1, (1, 1): 1, (2, 0): 1}
    for i in range(3):
        for j in range(3):
            assert t.pairing[i][j] == want.get((i, j), 0)


def test_p1_c1_pairing():
    t = make_target("P1")
    for d in range(5):
        assert t.c1_pairing((d,)) == 2 * d
    assert t.divisor_pairing(1, (3,)) == 3


def test_p2_c1_pairing():
    t = make_target("P2")
    assert t.c1_pairing((2,)) == 6


def test_unknown_target():
    with pytest.raises(ConfigurationError):
        make_target("P3")


def test_cup_examples():
    p2 = make_target("P2")
    assert p2.cup(p2.basis_vector(1), p2.basis_vector(1)) == p2.basis_vector(2)
    assert p2.cup(p2.unit, p2.basis_vector(2)) == p2.basis_vector(2)
    p1 = make_target("P1")
    assert p1.cup(p1.basis_vector(1), p1.basis_vector(1)) == (Fraction(0),) * p1.rank


def test_pairing_examples():
    p2 = make_target("P2")
    assert p2.pair(p2.basis_vector(1), p2.basis_vector(1)) == 1
    pt = make_target("point")
    assert pt.pair(pt.unit, pt.unit) == 1


@pytest.mark.parametrize("name", ["point", "P1", "P2"])
def test_dual_basis_delta(name):
    t = make_target(name)
    for a in range(t.rank):
        for b in range(t.rank):
            got = t.pair(t.basis_vector(a), t.dual_basis_vector(b))
            assert got == (1 if a == b else 0)


@pytest.mark.parametrize("name", ["point", "P1", "P2"])
def test_pairing_inverse_exact(name):
    t = make_target(name)
    n = t.rank
    for i in range(n):
        for j in range(n):
            acc = sum(t.pairing[i][k] * t.pairing_inverse[k][j] for k in range(n))
            assert acc == (1 if i == j else 0)


@pytest.mark.parametrize("name", ["point", "P1", "P2"])
def test_cup_associative_and_graded(name):
    t = make_target(name)
    t.validate()  # associativity, grading, unit checked exactly on all triples


def test_beta_helpers():
    assert iter_betas(0, 5) == [()]
    assert iter_betas(1, 2) == [(0,), (1,), (2,)]
    assert beta_splits((2,)) == [((0,), (2,)), ((1,), (1,)), ((2,), (0,))]
    assert beta_splits(()) == [((), ())]


@pytest.mark.parametrize("rank", range(6))
def test_iter_betas_equals_the_box_enumeration(rank):
    for bound in range(6):
        box = [b for b in product(range(bound + 1), repeat=rank) if sum(b) <= bound]
        assert iter_betas(rank, bound) == sorted(box, key=lambda b: (sum(b), b))


def test_iter_betas_grows_with_the_answer_not_the_box():
    # The (D+1)^rank box at rank 16, D = 4 holds 5^16 tuples; the degrees
    # of total <= 4 are C(20, 4) of them.
    betas = iter_betas(16, 4)
    assert len(betas) == len(set(betas)) == 4845
    assert betas[0] == (0,) * 16 and betas[-1] == (4,) + (0,) * 15
    curves = dataclasses.replace(make_target("point"), name="curves", class_rank=16, c1_vector=(1,) * 16)
    assert kernel_depth_bound(curves, 4, 2) == 5  # dim - 3 + max c1 + E + 2


def test_custom_target_validated():
    data = {
        "name": "twopoints",
        "dim": 0,
        "basis_degrees": [0],
        "pairing": [[2]],
        "cup": [[[1]]],
    }
    t = load_target(data)
    assert t.pair(t.unit, t.unit) == 2


def test_custom_target_rejects_asymmetric_pairing():
    data = {
        "dim": 1,
        "basis_degrees": [0, 1],
        "pairing": [[0, 1], [2, 0]],
        "cup": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
    }
    with pytest.raises(ConfigurationError):
        load_target(data)


def test_custom_target_rejects_singular_pairing():
    data = {
        "dim": 0,
        "basis_degrees": [0],
        "pairing": [[0]],
        "cup": [[[1]]],
    }
    with pytest.raises(ConfigurationError):
        load_target(data)


# ---------------------------------------------------------------------------
# the hash, computed once


def _p1_data(pairing=((0, 1), (1, 0))):
    """The built-in P1 presentation as config data, name included."""
    return {
        "name": "P1",
        "dim": 1,
        "basis_degrees": [0, 1],
        "pairing": pairing,
        "cup": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
        "class_rank": 1,
        "c1_vector": [2],
        "divisor_rows": [[1, [1]]],
    }


def test_equal_targets_hash_as_their_fields():
    a, b = load_target(_p1_data()), load_target(_p1_data())
    assert a == b and a is not b
    fields = tuple(getattr(a, f.name) for f in dataclasses.fields(a))
    assert hash(a) == hash(b) == hash(fields)


def test_target_hash_reads_no_fraction_twice(monkeypatch):
    target = load_target(_p1_data())
    first = hash(target)
    calls = []
    real = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda self: calls.append(self) or real(self))
    assert hash(target) == first
    assert calls == []
    assert hash(load_target(_p1_data())) == first
    assert calls


def test_engine_shared_by_equal_presentations_only():
    builtin = get_engine(make_target("P1"))
    assert get_engine(load_target(_p1_data())) is builtin
    # A different unit self-pairing still validates, but it is another ring.
    other = load_target(_p1_data(pairing=((1, 1), (1, 0))))
    assert other != make_target("P1")
    assert get_engine(other) is not builtin
