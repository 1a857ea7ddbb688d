"""Exact extended-rational slopes, Farey adjacency, mediant balls and the
odd-numerator subcomplex.

Slopes are irreducible pairs n/d with d >= 0, including 1/0 for the
vertical slope.  Two slopes are Farey-adjacent when the determinant
n1*d2 - n2*d1 is +-1; finite balls of the Farey complex are grown by
mediant insertion from the base triangles on {1/0, 0/1, 1/1, -1/1}.

A ball is grown as a parent table (``_grow``): int columns ``nums`` and
``dens`` of the slopes in id order, and the ends ``pa[c - 2] < pb[c - 2]``
of the edge that vertex c >= 2 was grown on, so its edges are (0, 1),
(pa, c) and (pb, c) and its triangles (pa, pb, c).  The build checks
that each expanded edge has determinant +-1 and exactly one fresh apex,
and numbers new vertices in sorted-frontier order.  Only
``stern_brocot_ball`` makes labels and a ``Complex``; the reach check
and the graft tree search the columns.

The odd subcomplex keeps only vertices with odd numerator.  It carries
no triangles (the mediant of two odd numerators is even) and its balls
are forests.  Their connectivity to 1/0 is checked inside the ball
itself, where every odd vertex has an odd parent; a slightly deeper ball
is only a fallback.
"""

import re
from collections import namedtuple
from itertools import chain
from math import gcd
from operator import itemgetter
from typing import NamedTuple

from . import complexes
from .complexes import KIND_SLOPE, Complex


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


def _mediants(an: int, ad: int, bn: int, bd: int) -> tuple[int, int, int, int]:
    """The candidate apexes a + b and a - b over the Farey-adjacent edge
    a-b, as (n, d, n, d): a common divisor would divide the determinant
    +-1, so both are reduced and only the sign of a - b is normalized."""
    n, d = an - bn, ad - bd
    if d < 0:
        return an + bn, ad + bd, -n, -d
    return (an + bn, ad + bd, n, d) if d else (an + bn, ad + bd, 1, 0)


_Build = namedtuple("_Build", "nums dens pa pb sizes")


def _grow(depth: int) -> _Build:
    """Grow the ball by ``depth`` rounds of mediant insertion into the
    parent table of the module docstring, with the vertex count after each
    round; 1/1 and -1/1 hang on the edge 1/0 - 0/1.  The frontier lists
    the boundary edges (a, b, apex); a new vertex c on (a, b) replaces its
    edge by (a, c, b) and (b, c, a).  A Farey edge has just two common
    neighbors, a + b and a - b, so a candidate that is not the apex and is
    adjacent to a and to b is new.

    >>> b = _grow(1)
    >>> b.nums, b.dens
    ([1, 0, 1, -1, 2, -2, 1, -1], [0, 1, 1, 1, 1, 1, 2, 2])
    >>> b.pa, b.pb, b.sizes
    ([0, 0, 0, 0, 1, 1], [1, 1, 2, 3, 2, 3], [4, 8])
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    nums = [s.n for s in _BASE]
    dens = [s.d for s in _BASE]
    pa, pb = [0, 0], [1, 1]
    frontier = [(0, 2, 1), (1, 2, 0), (0, 3, 1), (1, 3, 0)]
    sizes = [len(nums)]
    for _ in range(depth):
        frontier.sort()
        grown = []
        for a, b, x in frontier:
            an, ad, bn, bd, xn, xd = nums[a], dens[a], nums[b], dens[b], nums[x], dens[x]
            pn, pd, mn, md = _mediants(an, ad, bn, bd)
            p_is_x = pn == xn and pd == xd
            cn, cd = (mn, md) if p_is_x else (pn, pd)
            # the determinants of a-b, a-c and c-b are all +-1 iff their product is
            dets = (an * bd - bn * ad) * (an * cd - cn * ad) * (cn * bd - bn * cd)
            if p_is_x == (mn == xn and md == xd) or dets not in (1, -1):
                raise AssertionError(f"expected one new apex on edge {an}/{ad}-{bn}/{bd}")
            c = len(nums)
            nums.append(cn)
            dens.append(cd)
            pa.append(a)
            pb.append(b)
            grown += ((a, c, b), (b, c, a))
        frontier = grown
        sizes.append(len(nums))
    return _Build(nums, dens, pa, pb, sizes)


def _odd_adjacency(build: _Build) -> dict[int, list[int]]:
    """Neighbor lists of the odd subgraph of a build, in increasing id
    order (each edge joins a vertex to a smaller parent; (0, 1) joins 1/0
    to the even 0/1)."""
    adj = {i: [] for i, n in enumerate(build.nums) if n & 1}
    for c, a, b in zip(range(2, len(build.nums)), build.pa, build.pb):
        if c in adj:
            for p in (a, b):
                if p in adj:
                    adj[p].append(c)
                    adj[c].append(p)
    return adj


def _ball(build: _Build) -> Complex:
    """The complex of a build, with labels; its simplices share one int
    object per id."""
    ids = list(range(len(build.nums)))
    pa, pb = (list(map(ids.__getitem__, p)) for p in (build.pa, build.pb))
    grown = ids[2:]
    labels = map("{}/{}".format, build.nums, build.dens)
    # a union of two sets sizes its table once; a set grown by one edge at
    # a time ends with a table twice as large
    edges = frozenset(chain(((0, 1),), zip(pa, grown))) | frozenset(zip(pb, grown))
    vertices = tuple(complexes._vertices(ids, KIND_SLOPE, labels))
    return Complex(vertices, edges, frozenset(zip(pa, pb, grown)))


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
    return _ball(_grow(depth))


_SLOPE_LABEL = r"-?\d+/\d+"
# a whole line that is a slope label, capturing the last digit before the /
_SLOPE_LINE = re.compile(r"^-?\d*(\d)/\d+$", re.MULTILINE | re.ASCII)


def f_odd_subcomplex(c: Complex) -> Complex:
    """Full subcomplex on the odd-numerator vertices.  Every vertex must
    have kind slope and a label n/d of decimal integers; parity is the
    last digit before the ``/``.  One regex pass over the joined labels
    checks and reads them all; only a failure checks them one by one."""
    if {v.kind for v in c.vertices} - {KIND_SLOPE}:
        v = next(v for v in c.vertices if v.kind != KIND_SLOPE)
        raise ValueError(f"vertex {v.id} ({v.label!r}) has kind {v.kind!r}, not a slope")
    labels = "\n".join(map(itemgetter(2), c.vertices))
    digits = _SLOPE_LINE.findall(labels)
    # a newline inside a label would split it into lines that each pass
    if c.vertices and (
        labels.count("\n") >= len(c.vertices) or len(digits) != len(c.vertices)
    ):
        v = next(v for v in c.vertices if not re.fullmatch(_SLOPE_LABEL, v.label, re.ASCII))
        raise ValueError(f"vertex {v.id} has label {v.label!r}, not a slope n/d")
    keep = {v.id for v, d in zip(c.vertices, digits) if d in "13579"}
    return complexes.induced(c, keep)


def _reaches(build: _Build, margin: int) -> bool:
    """``odd_vertices_reach_infinity`` at the depth of ``build``, which
    serves as the ball; the deeper ball is grown only if its search fails."""
    depth, size = len(build.sizes) - 1, build.sizes[-1]
    odd = [i for i in range(size) if build.nums[i] & 1]
    for d in sorted({depth, depth + margin}):
        reached = complexes.bfs_order(_odd_adjacency(build if d == depth else _grow(d)), 0)
        if set(reached).issuperset(odd):
            return True
    return False


def odd_vertices_reach_infinity(depth: int, margin: int = 2) -> bool:
    """Every odd vertex of the depth-``depth`` ball is connected to 1/0
    inside the odd subcomplex of the depth-``depth + margin`` ball.  The
    ball is the id prefix of the deeper one, which is built only when the
    search in the ball fails.  It never does on a correct build: every odd
    vertex but 1/0 has an odd neighbor with a smaller id (1/0 for +-1/1;
    for a grown a +- b, its odd-numerator parent)."""
    if depth < 0 or margin < 0:
        raise ValueError(f"depth {depth} and margin {margin} must be >= 0")
    return _reaches(_grow(depth), margin)
