"""Boundary words of the disk-surgery sequence, via a rotation-gap model.

For summand parameters (p1, q1) and (p2, q2) the i-th word is
x^p2 y^g1 ... x^p2 y^gi, where (g1, ..., gi) are the circular gaps cut on
Z/p1 by the first i multiples of q1; q2 is carried for classification
interoperability.  The words run from x^p2 y^p1 to (x^p2 y)^p1, a power of
the primitive x^p2 y.  A word is positive, so its least rotation under
x < y starts an x-block, and two block starts compare as their gap
sequences do (a smaller gap brings the next x sooner).
"""

from array import array
from collections import namedtuple

from .classify import Lens


class SplittingParams(namedtuple("SplittingParams", "p1 q1 p2 q2")):
    """Coprime lens parameters (p1, q1) and (p2, q2), with p >= 2 and
    1 <= q < p on each side; each side is validated as a
    :class:`classify.Lens`."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # validates; _replace calls it

    def __new__(cls, p1: int, q1: int, p2: int, q2: int = 1):
        for side, (p, q) in enumerate(((p1, q1), (p2, q2)), 1):
            try:
                Lens(p, q)
            except ValueError as err:
                raise ValueError(f"summand {side}: {err}") from None
        return super().__new__(cls, p1, q1, p2, q2)


def gap_pattern(params: SplittingParams, i: int) -> tuple[int, ...]:
    """Circular gaps of the points {0, q1, 2*q1, ..., (i-1)*q1} mod p1,
    read from 0 in increasing order.

    The gaps are positive, sum to p1, and take at most three distinct
    values (three-distance theorem).
    """
    if not 1 <= i <= params.p1:
        raise ValueError(f"index must lie in 1..{params.p1}, got {i}")
    points = sorted(j * params.q1 % params.p1 for j in range(i))
    gaps = [points[k + 1] - points[k] for k in range(i - 1)]
    gaps.append(params.p1 - points[-1])
    return tuple(gaps)


def surgery_word(params: SplittingParams, i: int) -> str:
    """The canonical cyclic word x^p2 y^g1 ... x^p2 y^gi: the least rotation
    of the gaps, expanded once.  For i = 1 this is x^p2 y^p1."""
    doubled = array("q", gap_pattern(params, i) * 2)
    x_block = "x" * params.p2
    return "".join(x_block + "y" * g for g in min(doubled[k : k + i] for k in range(i)))


def surgery_sequence(params: SplittingParams) -> list[str]:
    """The full word sequence for i = 1..p1; the last entry equals
    (x^p2 y)^p1."""
    return [surgery_word(params, i) for i in range(1, params.p1 + 1)]
