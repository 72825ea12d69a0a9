"""Library calls end in an exact answer or a named error.

Each raise site below used to raise a bare ``ValueError``, return a value
for a key it should refuse, leak ``int()``'s or indexing's own error, or
answer from an engine of another target.  Each now raises a
``ValueError`` subclass that ``gwlab`` exports, with the message the site
always had where it had one; the CLI keeps its exit codes.
"""

from fractions import Fraction

import pytest

import gwlab
from gwlab import cli, oracles
from gwlab.cone import TPolynomial, default_truncation, double_bracket
from gwlab.correlators import CorrelatorEngine, InvalidKeyError, canonical_key, correlator
from gwlab.series import LoopSeries, MismatchError
from gwlab.targets import load_target, make_target

P1, P2 = make_target("P1"), make_target("P2")


def test_named_errors_are_value_errors_exported_from_gwlab():
    for name in ("TruncationError", "OracleDomainError", "InvalidKeyError"):
        assert issubclass(getattr(gwlab, name), ValueError)


# ---------------------------------------------------------------------------
# Truncation


@pytest.mark.parametrize("orders", [(-1, 1), (1, -2), (-1, -1)])
def test_negative_truncation_order_raises_truncation_error(orders):
    with pytest.raises(gwlab.TruncationError, match="^truncation orders must be non-negative$"):
        gwlab.Truncation(*orders, -3, 2)


@pytest.mark.parametrize("window", [(3, -2), (1, 2), (-3, 0), (0, 0)])
def test_window_without_z0_and_z1_raises_truncation_error(window):
    with pytest.raises(gwlab.TruncationError, match=r"^window must satisfy z_min <= 0 < z_max$"):
        gwlab.Truncation(1, 1, *window)


@pytest.mark.parametrize("flags", [["--D", "-1"], ["--z-min", "1"]])
def test_cli_maps_a_truncation_error_to_exit_3(flags, capsys):
    code = cli.main(["verify", "--suites", "darboux", "--target", "P1", "--D", "1", "--E", "1", *flags])
    assert code == cli.EXIT_CONFIG == 3
    assert "configuration error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# oracles


@pytest.mark.parametrize("powers", [(), (0,), (0, 0)])
def test_psi_integral_of_fewer_than_three_points_raises_oracle_domain_error(powers):
    with pytest.raises(gwlab.OracleDomainError, match="^needs at least three marked points$"):
        oracles.point_psi_integral(powers)


@pytest.mark.parametrize("d", [0, -2])
def test_plane_curves_of_degree_below_one_raise_oracle_domain_error(d):
    with pytest.raises(gwlab.OracleDomainError, match="^degree must be positive$"):
        oracles.rational_plane_curves(d)


@pytest.mark.parametrize("d", [0, -1])
def test_one_point_descendants_of_degree_below_one_raise_oracle_domain_error(d):
    with pytest.raises(gwlab.OracleDomainError, match="^degree must be positive$"):
        oracles.projective_one_point_descendants(2, d)


# ---------------------------------------------------------------------------
# correlator keys


def test_a_fractional_degree_entry_raises_invalid_key_error():
    with pytest.raises(InvalidKeyError, match=r"degree \(1\.5,\) is not a tuple of integers"):
        correlator(P2, (1.5,), [(2, 0), (2, 0)])


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
def test_a_fractional_basis_index_is_not_truncated_onto_another_key(warm):
    engine = CorrelatorEngine(P2)
    if warm:
        assert engine.correlator((1,), [(1, 0), (2, 0), (2, 0)]) == 1
    with pytest.raises(InvalidKeyError, match=r"insertion \(1\.5, 0\) is not a pair of integers"):
        engine.correlator((1,), [(1.5, 0), (2, 0), (2, 0)])


@pytest.mark.parametrize(
    "insertions", [[("a", 0)] * 2, [(2, "0"), (2, 0)], [(2,), (2, 0)], [(2, 0, 1), (2, 0)], [None, (2, 0)]]
)
def test_an_insertion_that_is_not_a_pair_of_integers_raises_invalid_key_error(insertions):
    with pytest.raises(InvalidKeyError, match="not a pair of integers|are not pairs of integers"):
        CorrelatorEngine(P2).correlator((1,), insertions)


def test_integral_entries_of_other_types_read_as_their_ints():
    """Bools, integral Fractions and integral floats still name the int key."""
    key = canonical_key([Fraction(1)], [(True, Fraction(0)), (2.0, 0), (2, False)])
    assert key == ((1,), ((1, 0), (2, 0), (2, 0)))
    assert all(type(x) is int for x in (*key[0], *(x for pair in key[1] for x in pair)))
    assert correlator(P2, (1.0,), [(2, 0), (2.0, 0)]) == 1


def test_double_bracket_refuses_a_fractional_fixed_slot():
    t = TPolynomial.random(P1, 1, 7)
    trunc = default_truncation(P1, 1, 1, 1)
    assert double_bracket(t, ((1.0, 0),), trunc, CorrelatorEngine(P1)) == double_bracket(t, ((1, 0),), trunc)
    for fixed in (((1.5, 0),), (("a", 0),)):
        with pytest.raises(InvalidKeyError):
            double_bracket(t, fixed, trunc, CorrelatorEngine(P1))


# ---------------------------------------------------------------------------
# kernel indices


@pytest.mark.parametrize("index", [1.5, "a", "1"])
def test_a_kernel_index_that_is_not_an_integer_raises_invalid_key_error(index):
    with pytest.raises(InvalidKeyError, match="not a pair of integers|are not pairs of integers"):
        CorrelatorEngine(P2).correlator_with_kernel((1,), [(2, 0)], index, 1)
    with pytest.raises(InvalidKeyError, match="not a pair of integers|are not pairs of integers"):
        CorrelatorEngine(P2).flow_block((1,), index, ((1, 0),))


@pytest.mark.parametrize("index", [True, 1.0, Fraction(1)])
def test_an_integral_kernel_index_of_another_type_reads_as_its_int(index):
    engine = CorrelatorEngine(P2)
    want = engine.correlator_with_kernel((1,), [(2, 0)], 1, 1)
    assert want and engine.correlator_with_kernel((1,), [(2, 0)], index, 1) == want
    fresh = CorrelatorEngine(P2).flow_block((1,), index, ((1, 0),))
    assert fresh and fresh == engine.flow_block((1,), 1, ((1, 0),))
    assert engine.flow_block((1,), index, ((1, 0),)) is engine.flow_block((1,), 1, ((1, 0),))  # the cached block


# ---------------------------------------------------------------------------
# an engine that serves another target


def _builders(t, trunc):
    """Each public builder that reads correlators, as a call on an engine."""
    rec = next(r for r in gwlab.enumerate_splittings(t.target, (1,), 2) if r.kind == "generic" and r.n0 == r.n_inf == 1)
    f = LoopSeries.basis(t.target, trunc, 1)
    return {
        "descendant_potential": lambda e: gwlab.descendant_potential(t, trunc, e),
        "cone_point": lambda e: gwlab.cone_point(t, trunc, e),
        "s_apply": lambda e: gwlab.s_apply(t, f, trunc, e),
        "s_adjoint_corr_apply": lambda e: gwlab.s_adjoint_corr_apply(t, f, -1, trunc, e),
        "tangent_vector": lambda e: gwlab.tangent_vector(t, 1, 0, trunc, e),
        "double_bracket": lambda e: double_bracket(t, ((1, 0),), trunc, e),
        "contribution": lambda e: gwlab.contribution(rec, t, trunc, e),
        "localisation_sum": lambda e: gwlab.localisation_sum(t, trunc, e),
        "s_matrix": lambda e: gwlab.s_matrix(t, trunc, e),
        "s_adjoint_matrix": lambda e: gwlab.s_adjoint_matrix(t, trunc, e),
    }


BUILDERS = list(_builders(TPolynomial.random(P1, 1, 7), default_truncation(P1, 2, 2, 1)))
# The built-in line's presentation, as load_target reads it.
LINE = {
    "name": "P1", "dim": 1, "basis_degrees": [0, 1], "pairing": [[0, 1], [1, 0]],
    "cup": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], "class_rank": 1, "c1_vector": [2], "divisor_rows": [[1, [1]]],
}


@pytest.mark.parametrize("builder", BUILDERS)
def test_a_builder_refuses_an_engine_of_another_target(builder):
    """A P1 key is also a well-formed P2 key, so a P2 engine used to answer
    a P1 t with the P2 values (an empty double bracket, for one)."""
    t, trunc = TPolynomial.random(P1, 1, 7), default_truncation(P1, 2, 2, 1)
    build = _builders(t, trunc)[builder]
    with pytest.raises(MismatchError, match="^the engine serves P2, but t lives over P1$"):
        build(CorrelatorEngine(P2))
    with pytest.raises(MismatchError, match="^the engine serves line, but t lives over P1$"):
        build(CorrelatorEngine(load_target({**LINE, "name": "line"})))  # the same ring renamed is another target


@pytest.mark.parametrize("builder", BUILDERS)
def test_a_builder_reads_an_engine_of_an_equal_target(builder):
    t, trunc = TPolynomial.random(P1, 1, 7), default_truncation(P1, 2, 2, 1)
    build = _builders(t, trunc)[builder]
    equal = load_target(LINE)
    assert equal is not P1 and equal == P1
    assert build(CorrelatorEngine(equal)) == build(CorrelatorEngine(P1)) == build(None)
