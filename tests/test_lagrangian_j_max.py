"""``check_lagrangian`` pairs the images of basis monomials with z-powers
0..j_max.  A negative j_max leaves no monomial to pair, so the check
would pass vacuously; it is refused with a named error before anything
is built."""

import pytest

from gwlab import TPolynomial, check_lagrangian, default_truncation, make_target
from gwlab import checks
from gwlab.correlators import CorrelatorEngine
from gwlab.series import MismatchError


def _p1():
    target = make_target("P1")
    return target, TPolynomial.random(target, 1, 7), default_truncation(target, 1, 1, 1)


@pytest.mark.parametrize("j_max", [-1, -3])
def test_negative_j_max_is_refused_before_any_build(monkeypatch, j_max):
    target, t, trunc = _p1()

    def no_build(*args, **kwargs):
        raise AssertionError("an image was built")

    monkeypatch.setattr(checks, "_adjoint_image", no_build)
    monkeypatch.setattr(checks, "s_adjoint_corr_apply", no_build)
    engine = CorrelatorEngine(target)
    for eng in (None, engine):
        with pytest.raises(MismatchError, match="j_max must be non-negative"):
            check_lagrangian(t, trunc, eng, j_max=j_max)
    assert not engine._shared and not engine._values and not engine._blocks


def test_j_max_zero_pairs_the_constant_images():
    _, t, trunc = _p1()
    report = check_lagrangian(t, trunc, None, j_max=0)
    assert report.passed and report.params["j_max"] == 0
