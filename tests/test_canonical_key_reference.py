"""Differential test of ``canonical_key`` against the code it replaced.

The reference below keeps the previous ``canonical_key`` verbatim: it
sorted a generator and checked the psi powers with ``any``.  On
generated insertions -- ints, bools and integral ``Fraction``s, negative
psi powers, lists and tuples, and no insertions at all -- the new
function must give the same key, down to the types of its entries, or
the same ``InvalidKeyError`` with the same message.
"""

from fractions import Fraction
from typing import Iterable

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwlab import correlators
from gwlab.correlators import InvalidKeyError, Key
from gwlab.targets import NovikovDegree

# ---------------------------------------------------------------------------
# the reference: the previous function, verbatim


def canonical_key(beta: NovikovDegree, insertions: Iterable) -> Key:
    """Sort insertions by basis index then psi power; correlators are
    symmetric in their arguments, so permuted inputs share one key."""
    ins = tuple(sorted((int(a), int(k)) for a, k in insertions))
    if any(k < 0 for _, k in ins):
        raise InvalidKeyError("psi powers must be non-negative")
    return (tuple(beta), ins)


# ---------------------------------------------------------------------------
# comparison

_entry = st.one_of(
    st.integers(-3, 6),
    st.booleans(),
    st.integers(-3, 6).map(Fraction),
)
_insertion = st.tuples(_entry, _entry) | st.lists(_entry, min_size=2, max_size=2)
_beta = st.lists(st.integers(0, 4), max_size=2)


def _outcome(fn, beta, insertions):
    """The key fn gives, as its repr so that 1 and True differ, or the
    message of the InvalidKeyError it raises."""
    try:
        return ("key", repr(fn(beta, insertions)))
    except InvalidKeyError as exc:
        return ("raises", str(exc))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    beta=_beta | _beta.map(tuple),
    insertions=st.lists(_insertion, max_size=6) | st.lists(_insertion, max_size=6).map(tuple),
)
@example(beta=(), insertions=[])
@example(beta=(1,), insertions=[(0, -1), (1, 0)])
@example(beta=(2,), insertions=[(True, Fraction(2)), (Fraction(1), False), (0, 0)])
def test_canonical_key_matches_reference(beta, insertions):
    want = _outcome(canonical_key, beta, insertions)
    assert _outcome(correlators.canonical_key, beta, insertions) == want
