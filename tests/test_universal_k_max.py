"""``check_universal_relations`` runs the relations k = 2..k_max.  A k_max
below 2 leaves none to run; it is refused with a named error, as
``check_lagrangian`` refuses a negative j_max, before anything is built.
The CLI refuses ``--k-max 1`` itself, so only a library call meets it."""

import pytest

from gwlab import TPolynomial, checks, default_truncation, make_target
from gwlab.correlators import CorrelatorEngine
from gwlab.series import MismatchError


@pytest.mark.parametrize("k_max", [1, 0, -2])
def test_k_max_below_2_is_a_mismatch(k_max):
    target = make_target("P1")
    t = TPolynomial.random(target, 1, 7)
    engine = CorrelatorEngine(target)
    with pytest.raises(MismatchError, match=r"^relations start at k = 2$"):
        checks.check_universal_relations(t, k_max, default_truncation(target, 1, 1, 1), engine)
    assert not engine._shared and not engine._values and not engine._blocks


def test_k_max_2_runs():
    target = make_target("P1")
    t = TPolynomial.random(target, 1, 7)
    assert checks.check_universal_relations(t, 2, default_truncation(target, 1, 1, 1)).passed
