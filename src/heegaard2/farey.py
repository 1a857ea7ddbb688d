"""Exact extended-rational slopes, Farey adjacency, mediant balls and the
odd-numerator subcomplex.

Slopes are irreducible pairs n/d with d >= 0, including 1/0 for the
vertical slope.  Two slopes are Farey-adjacent when the determinant
n1*d2 - n2*d1 is +-1; finite balls of the Farey complex are grown by
mediant insertion from the base triangles on {1/0, 0/1, 1/1, -1/1}.

The odd subcomplex keeps only vertices with odd numerator.  It carries
no triangles (the mediant of two odd numerators is even) and its balls
are forests; connectivity of a ball to 1/0 is checked inside a slightly
deeper ball because geodesics may leave a truncation.
"""

from math import gcd
from typing import NamedTuple

from . import complexes
from .complexes import Complex, Vertex


class Slope(NamedTuple):
    """An irreducible extended rational n/d with d >= 0; 1/0 is the
    vertical slope."""

    n: int
    d: int

    def __str__(self) -> str:
        return f"{self.n}/{self.d}"


INFINITY = Slope(1, 0)


def slope_normalize(n: int, d: int) -> Slope:
    """Divide out the gcd and force d >= 0 (the sign rides on n); any
    (k, 0) normalizes to 1/0.

    >>> slope_normalize(-3, -6)
    Slope(n=1, d=2)
    >>> slope_normalize(5, 0)
    Slope(n=1, d=0)
    """
    if n == 0 and d == 0:
        raise ValueError("0/0 is not a slope")
    if d == 0:
        return INFINITY
    if d < 0:
        n, d = -n, -d
    g = gcd(abs(n), d)
    return Slope(n // g, d // g)


def slope_from_label(label: str) -> Slope:
    num, _, den = label.partition("/")
    return Slope(int(num), int(den))


def farey_adjacent(a: Slope, b: Slope) -> bool:
    """True when the 2x2 determinant of the two slopes is +-1.

    >>> farey_adjacent(Slope(1, 0), Slope(1, 1))
    True
    """
    return abs(a.n * b.d - b.n * a.d) == 1


def mediant(a: Slope, b: Slope) -> Slope:
    """The mediant (n1+n2)/(d1+d2); adjacent to both parents when the
    parents are adjacent."""
    return slope_normalize(a.n + b.n, a.d + b.d)


def is_odd_vertex(a: Slope) -> bool:
    """True for odd numerator; 1/0 qualifies."""
    return a.n % 2 != 0


def arc_slope(endpoint: tuple[int, int]) -> Slope:
    """Slope of the line from the origin to a lattice point (s, t) with t
    odd, read as t/s so that the vertical lift (0, 1) gives 1/0."""
    s, t = endpoint
    if t % 2 == 0:
        raise ValueError(f"second coordinate must be odd, got {endpoint}")
    return slope_normalize(t, s)


def stern_brocot_ball(depth: int) -> Complex:
    """Finite Farey ball: starting from the two base triangles on
    {1/0, 0/1, 1/1} and {1/0, 0/1, -1/1}, perform ``depth`` rounds of
    mediant insertion, one new triangle per boundary edge per round."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    ids: dict[Slope, int] = {}
    slopes: list[Slope] = []
    edges: set[tuple[int, int]] = set()
    triangles: set[tuple[int, int, int]] = set()
    apexes: dict[tuple[int, int], set[int]] = {}

    def vid(s: Slope) -> int:
        if s not in ids:
            ids[s] = len(slopes)
            slopes.append(s)
        return ids[s]

    def add_triangle(sa: Slope, sb: Slope, sc: Slope) -> None:
        tri = tuple(sorted((vid(sa), vid(sb), vid(sc))))
        triangles.add(tri)
        a, b, c = tri
        for edge, apex in (((a, b), c), ((a, c), b), ((b, c), a)):
            edges.add(edge)
            apexes.setdefault(edge, set()).add(apex)

    for s in (INFINITY, Slope(0, 1), Slope(1, 1), Slope(-1, 1)):
        vid(s)
    add_triangle(INFINITY, Slope(0, 1), Slope(1, 1))
    add_triangle(INFINITY, Slope(0, 1), Slope(-1, 1))

    for _ in range(depth):
        boundary = sorted(e for e in edges if len(apexes[e]) == 1)
        for ia, ib in boundary:
            sa, sb = slopes[ia], slopes[ib]
            candidates = {
                slope_normalize(sa.n + sb.n, sa.d + sb.d),
                slope_normalize(sa.n - sb.n, sa.d - sb.d),
            }
            existing = {slopes[c] for c in apexes[(ia, ib)]}
            fresh = [s for s in sorted(candidates) if s not in existing]
            if len(fresh) != 1:
                raise AssertionError(f"expected one new apex on edge {sa}-{sb}")
            add_triangle(sa, sb, fresh[0])

    vertices = [
        Vertex(i, complexes.KIND_SLOPE, str(s)) for i, s in enumerate(slopes)
    ]
    return complexes.make_complex(vertices, edges, triangles)


def f_odd_subcomplex(c: Complex) -> Complex:
    """Full subcomplex on the odd-numerator vertices."""
    keep = {
        v.id for v in c.vertices if is_odd_vertex(slope_from_label(v.label))
    }
    return complexes.induced(c, keep)


def odd_vertices_reach_infinity(depth: int, margin: int = 2) -> bool:
    """Every odd vertex of the depth-``depth`` ball is connected to 1/0
    inside the odd subcomplex of the depth-``depth + margin`` ball."""
    small = stern_brocot_ball(depth)
    odd_small = {
        v.label
        for v in small.vertices
        if is_odd_vertex(slope_from_label(v.label))
    }
    fodd_big = f_odd_subcomplex(stern_brocot_ball(depth + margin))
    labels = {v.id: v.label for v in fodd_big.vertices}
    inf_id = next(v.id for v in fodd_big.vertices if v.label == "1/0")
    reached = {labels[i] for i in complexes.component(fodd_big, inf_id)}
    return odd_small <= reached
