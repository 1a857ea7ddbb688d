"""Exact extended-rational slopes, Farey adjacency, mediant balls and the
odd-numerator subcomplex.

Slopes are irreducible pairs n/d with d >= 0, including 1/0 for the
vertical slope.  Two slopes are Farey-adjacent when the determinant
n1*d2 - n2*d1 is +-1; finite balls of the Farey complex are grown by
mediant insertion from the base triangles on {1/0, 0/1, 1/1, -1/1}.

The odd subcomplex keeps only vertices with odd numerator.  It carries
no triangles (the mediant of two odd numerators is even) and its balls
are forests.  Their connectivity to 1/0 is checked inside the ball
itself, where every odd vertex has an odd parent; a slightly deeper ball
is only a fallback.
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
_BASE = (INFINITY, Slope(0, 1), Slope(1, 1), Slope(-1, 1))


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


def _mediants(a: Slope, b: Slope) -> tuple[Slope, Slope]:
    """The candidate apexes a + b and a - b over the Farey-adjacent edge
    a-b: a common divisor would divide the determinant +-1, so both are
    reduced and only the sign of a - b is normalized."""
    n, d = a.n - b.n, a.d - b.d
    m = Slope(-n, -d) if d < 0 else Slope(n, d) if d else INFINITY
    return Slope(a.n + b.n, a.d + b.d), m


def _grow(depth: int):
    """Grow the ball by ``depth`` rounds of mediant insertion: the slopes
    in id order, the edge and triangle sets and the vertex count after
    each round.  The frontier lists the boundary edges (a, b, apex); a new
    triangle (a, b, c) replaces its edge by (a, c, b) and (b, c, a).  New
    ids follow the sorted frontier, so ball(d) is the prefix of ids below
    ``sizes[d]`` of every deeper ball.  Every frontier edge must be
    Farey-adjacent, and exactly one of its candidates a + b, a - b must
    differ from its apex and be new."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    slopes = list(_BASE)
    seen = set(slopes)
    edges = {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)}
    triangles = {(0, 1, 2), (0, 1, 3)}
    frontier = [(0, 2, 1), (1, 2, 0), (0, 3, 1), (1, 3, 0)]
    sizes = [len(slopes)]
    for _ in range(depth):
        frontier.sort()
        grown = []
        for a, b, apex in frontier:
            sa, sb, sx = slopes[a], slopes[b], slopes[apex]
            p, m = _mediants(sa, sb)
            sc = m if p == sx else p
            det = sa.n * sb.d - sb.n * sa.d
            if det not in (1, -1) or (p == sx) == (m == sx) or sc in seen:
                raise AssertionError(f"expected one new apex on edge {sa}-{sb}")
            c = len(slopes)
            slopes.append(sc)
            seen.add(sc)
            edges.update(((a, c), (b, c)))
            triangles.add((a, b, c))
            grown += ((a, c, b), (b, c, a))
        frontier = grown
        sizes.append(len(slopes))
    return slopes, edges, triangles, sizes


def _odd_component(slopes: list[Slope], edges) -> list[int]:
    """Ids of the component of 1/0 (id 0) in the odd subgraph, in BFS
    order with neighbors visited in increasing id order."""
    adj = {i: [] for i, s in enumerate(slopes) if is_odd_vertex(s)}
    for a, b in edges:
        if a in adj and b in adj:
            adj[a].append(b)
            adj[b].append(a)
    for lst in adj.values():
        lst.sort()
    return complexes.bfs_order(adj, 0)


def stern_brocot_ball(depth: int) -> Complex:
    """Finite Farey ball: starting from the two base triangles on
    {1/0, 0/1, 1/1} and {1/0, 0/1, -1/1}, perform ``depth`` rounds of
    mediant insertion, one new triangle per boundary edge per round.

    Depth d has 2^(d+2) vertices, 2^(d+3) - 3 edges and 2^(d+2) - 2
    triangles:

    >>> [(len(b.vertices), len(b.edges), len(b.triangles))
    ...  for b in map(stern_brocot_ball, range(4))]
    [(4, 5, 2), (8, 13, 6), (16, 29, 14), (32, 61, 30)]
    """
    slopes, edges, triangles, _ = _grow(depth)
    vertices = tuple(
        Vertex(i, complexes.KIND_SLOPE, str(s)) for i, s in enumerate(slopes)
    )
    return Complex(vertices, frozenset(edges), frozenset(triangles))


def f_odd_subcomplex(c: Complex) -> Complex:
    """Full subcomplex on the odd-numerator vertices."""
    keep = {v.id for v in c.vertices if int(v.label.partition("/")[0]) % 2}
    return complexes.induced(c, keep)


def odd_vertices_reach_infinity(depth: int, margin: int = 2) -> bool:
    """Every odd vertex of the depth-``depth`` ball is connected to 1/0
    inside the odd subcomplex of the depth-``depth + margin`` ball.  The
    ball is the id prefix of the deeper one, which is built only when the
    search in the ball fails.  It never does on a correct build: every odd
    vertex but 1/0 has an odd neighbor with a smaller id (1/0 for +-1/1;
    for a grown a +- b, its odd-numerator parent)."""
    if depth < 0 or margin < 0:
        raise ValueError(f"depth {depth} and margin {margin} must be >= 0")
    for d in sorted({depth, depth + margin}):
        slopes, edges, _, sizes = _grow(d)
        reached = set(_odd_component(slopes, edges))
        small = range(sizes[depth])
        if all(i in reached for i in small if is_odd_vertex(slopes[i])):
            return True
    return False
