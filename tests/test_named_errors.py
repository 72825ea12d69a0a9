"""Library calls end in an exact answer or a named error.

Each raise site below used to raise a bare ``ValueError``, return a value
for a key it should refuse, or leak ``int()``'s own error.  Each now
raises a ``ValueError`` subclass that ``gwlab`` exports, with the message
the site always had; the CLI keeps its exit codes.
"""

from fractions import Fraction

import pytest

import gwlab
from gwlab import cli, oracles
from gwlab.cone import TPolynomial, default_truncation, double_bracket
from gwlab.correlators import CorrelatorEngine, InvalidKeyError, canonical_key, correlator
from gwlab.targets import make_target

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
