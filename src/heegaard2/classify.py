"""Counting genus-two Heegaard surfaces of a connected sum of two
summands (lens spaces or S^2 x S^1) and flagging the symmetric
splitting.

The surface count is one exactly when some summand admits an
orientation-preserving homeomorphism interchanging the sides of its
genus-one splitting: always for S^2 x S^1, and for a lens space L(p, q)
exactly when q^2 = 1 (mod p).

The symmetric-splitting flag uses the classical oriented homeomorphism
classification of lens spaces, L(p, q) = L(p', q') iff p = p' and
q' = q or q q' = 1 (mod p); this criterion is standard material, not
established here.
"""

from collections import namedtuple
from math import gcd
from typing import NamedTuple, Union


class Lens(namedtuple("Lens", "p q")):
    """A genuine lens space L(p, q): p >= 2, 1 <= q < p, gcd(p, q) = 1.
    The degenerate cases L(1, 0) and L(0, 1) are excluded."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # validates; _replace calls it

    def __new__(cls, p: int, q: int):
        if p < 2:
            raise ValueError(f"p must be at least 2, got {p}")
        if not 1 <= q < p:
            raise ValueError(f"require 1 <= q < p, got q={q}, p={p}")
        if gcd(p, q) != 1:
            raise ValueError(f"p={p} and q={q} are not coprime")
        return super().__new__(cls, p, q)

    def __str__(self) -> str:
        return f"lens:{self.p},{self.q}"


class S2xS1:
    """The S^2 x S^1 summand; it has no parameters, so all are equal."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, S2xS1)

    def __hash__(self) -> int:
        return hash(S2xS1)

    def __repr__(self) -> str:
        return "S2xS1()"

    def __str__(self) -> str:
        return "s2xs1"


Summand = Union[Lens, S2xS1]


def parse_summand(text: str) -> Summand:
    """Parse "lens:p,q", with p and q ASCII decimal integers, or "s2xs1"."""
    if text == "s2xs1":
        return S2xS1()
    if text.startswith("lens:"):
        parts = text[len("lens:") :].split(",")
        if len(parts) != 2:
            raise ValueError(f"expected lens:p,q, got {text!r}")
        if not all(part.isascii() and part.removeprefix("-").isdigit() for part in parts):
            raise ValueError(f"expected integer lens parameters, got {text!r}")
        return Lens(*map(int, parts))
    raise ValueError(f"unknown summand {text!r}; use lens:p,q or s2xs1")


def genus_one_reversible(summand: Summand) -> bool:
    """Whether the summand's genus-one splitting admits a side-swapping
    orientation-preserving homeomorphism: true for S^2 x S^1, and for
    L(p, q) exactly when q^2 = 1 (mod p)."""
    return isinstance(summand, S2xS1) or summand.q * summand.q % summand.p == 1


def surface_count(m1: Summand, m2: Summand) -> int:
    """Number of genus-two Heegaard surfaces of m1 # m2 up to
    homeomorphism: 1 when some summand is reversible, else 2."""
    return 1 if genus_one_reversible(m1) or genus_one_reversible(m2) else 2


def oriented_lens_homeomorphic(a: Lens, b: Lens) -> bool:
    """Oriented homeomorphism of lens spaces: equal p and q' = q or
    q q' = 1 (mod p)."""
    return a.p == b.p and (a.q == b.q or a.q * b.q % a.p == 1)


class SplittingDescriptor(NamedTuple):
    """One genus-two splitting of the connected sum: its case tag
    ("1a" or "1b" for lens # lens, "2" with an S^2 x S^1 summand) and
    whether it is the symmetric one."""

    case: str
    symmetric: bool
    summands: tuple[Summand, Summand]


def splittings(m1: Summand, m2: Summand) -> list[SplittingDescriptor]:
    """Descriptors of the genus-two splittings of m1 # m2, one per
    Heegaard surface.

    With an S^2 x S^1 summand there is a single case-2 splitting.  For
    two lens summands, a symmetric (case 1b) splitting exists exactly
    when the summands are oriented-homeomorphic, and then exactly one
    descriptor is symmetric.
    """
    pair = (m1, m2)
    if isinstance(m1, S2xS1) or isinstance(m2, S2xS1):
        return [SplittingDescriptor("2", False, pair)]
    symmetric = oriented_lens_homeomorphic(m1, m2)
    cases = ["1b"] * symmetric + ["1a"] * (surface_count(m1, m2) - symmetric)
    return [SplittingDescriptor(case, case == "1b", pair) for case in cases]
