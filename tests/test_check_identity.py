"""Every timed verify check keeps its own name, docstring and signature."""

import inspect
import pydoc

import pytest

import gwlab
from gwlab import checks, localisation

# check -> a parameter its signature must name
TIMED = {
    checks.check_darboux: "target",
    checks.check_engine_oracles: "seed",
    checks.check_polynomiality: "trunc",
    checks.check_inverse: "trunc",
    checks.check_universal_relations: "trunc",
    checks.check_lagrangian: "trunc",
    checks.check_cone_in_tangent: "trunc",
    localisation.check_main_identity: "trunc",
    localisation.check_localisation: "trunc",
}


def test_every_timed_check_is_listed():
    sources = [inspect.getsource(checks), inspect.getsource(localisation)]
    assert sum(src.count("@_timed\n") for src in sources) == len(TIMED)


@pytest.mark.parametrize("check", TIMED, ids=lambda fn: fn.__name__)
def test_timed_check_keeps_its_identity(check):
    assert check.__name__.startswith("check_")
    assert check.__name__ == check.__wrapped__.__name__
    assert check.__doc__ and check.__doc__.strip()
    params = inspect.signature(check).parameters
    assert TIMED[check] in params
    assert not any(p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD) for p in params.values())


def test_help_shows_the_check():
    text = pydoc.render_doc(gwlab.check_polynomiality, renderer=pydoc.plaintext)
    assert "check_polynomiality(t:" in text and "wrapper" not in text
    assert "Applying the solution operator to the cone point" in text
