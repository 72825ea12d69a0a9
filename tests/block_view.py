"""The dense view of a kernel block, for the reference bodies that read
blocks as they were once cached, and its inverse.

An engine caches a block as ``{z: ((rho, num, den), ...)}``, the nonzero
components of each vector in increasing rho; the reference bodies read
``{z: (c_0, ..., c_{rank-1})}``, one ``Fraction`` per basis class.
"""

from fractions import Fraction


def _dense(block, rank):
    """``block`` with each vector written out over all ``rank`` basis classes."""
    out = {}
    for z, comps in block.items():
        vec = [Fraction(0)] * rank
        for rho, num, den in comps:
            vec[rho] = Fraction(num, den)
        out[z] = tuple(vec)
    return out


def _sparse(dense):
    """A dense block in the engine's format, for the builders to read."""
    return {z: tuple((rho, c.numerator, c.denominator) for rho, c in enumerate(vec) if c) for z, vec in dense.items()}
