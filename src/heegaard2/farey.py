"""Exact extended-rational slopes, Farey adjacency, mediant balls and the
odd-numerator subcomplex.

Slopes are irreducible pairs n/d with d >= 0, 1/0 the vertical slope;
their labels have one writer, ``_label``, and one reader, ``_SLOPE``.
Two slopes are Farey-adjacent when the determinant n1*d2 - n2*d1 is
+-1; finite balls of the Farey complex are grown by mediant insertion
from the base triangles on {1/0, 0/1, 1/1, -1/1}.

A ball is grown as a parent table (``_grow``) with columns ``ids nums dens
pa pb``: the ids, one int object each, the slopes n/d in id order, and the
ends ``pa[c - 2] < pb[c - 2]`` of the edge that vertex c >= 2 was grown on,
so its edges are (0, 1), (pa, c) and (pb, c) and its triangles (pa, pb, c).
A round grows one vertex on each boundary edge and every vertex stays on
the boundary, so after a round that grew ids H..L-1 (H = L/2) each v < H
has two boundary edges, both to ids grown last.  In (v, neighbor) order
they put L + k on the edge from k // 2 to H + k for k < H, and for k >= H
to the ids H..L-1 ordered stably by pb (each v in [H/2, H) is the pb of
two), opposite the neighbor's other parent.  Rounds only append rows, so
a process keeps one table, the deepest grown so far, grows each round of
it once and serves every depth as its prefix.  No other module reads a
build; only ``stern_brocot_ball`` makes a ``Complex`` of one, and every
column of it reuses the one int object per id.

The odd subcomplex keeps the odd-numerator vertices; in every ball it is
a tree on 1/0.  A grown c = a +- b is odd exactly when one parent is, and
Farey-adjacent slopes are never both even, so every odd vertex but 1/0
has exactly one odd parent, with a smaller id: ``odd_tree_check`` tests that
column, and ``odd_subtree`` lists its tree breadth-first for the graft.
"""

import re
from collections import namedtuple
from math import gcd
from typing import NamedTuple

_label = "{}/{}".format


class Slope(NamedTuple):
    """An irreducible extended rational n/d with d >= 0; 1/0 is the
    vertical slope."""

    n: int
    d: int

    def __str__(self) -> str:
        return _label(self.n, self.d)


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


# a label n/d in ASCII decimal digits, capturing the last digit of n
_SLOPE = re.compile(r"-?\d*(\d)/\d+", re.ASCII)


def slope_from_label(label: str) -> Slope:
    """The slope s with ``str(s) == label``; any other label is an error."""
    if _SLOPE.fullmatch(label):
        n, d = map(int, label.split("/"))
        if (n or d) and str(s := slope_normalize(n, d)) == label:
            return s
    raise ValueError(f"{label!r} is not a slope n/d in lowest terms with d >= 0")


def farey_adjacent(a: Slope, b: Slope) -> bool:
    """True when the 2x2 determinant of the two slopes is +-1.

    >>> farey_adjacent(Slope(1, 0), Slope(1, 1))
    True
    """
    return abs(a.n * b.d - b.n * a.d) == 1


def _mediants(an: int, ad: int, bn: int, bd: int) -> tuple[int, int, int, int]:
    """The candidate apexes a + b and a - b over the Farey-adjacent edge
    a-b, as (n, d, n, d): a common divisor would divide the determinant
    +-1, so both are reduced and only the sign of a - b is normalized."""
    n, d = an - bn, ad - bd
    if d < 0:
        return an + bn, ad + bd, -n, -d
    return (an + bn, ad + bd, n, d) if d else (an + bn, ad + bd, 1, 0)


_Build = namedtuple("_Build", "ids nums dens pa pb")


# (depth, build) of the deepest ball grown in this process; replaced whole,
# its columns are never mutated
_table = 0, _Build(list(range(4)), [s.n for s in _BASE], [s.d for s in _BASE], [0, 0], [1, 1])


def _grow(depth: int) -> _Build:
    """Grow the ball by ``depth`` rounds of mediant insertion into the
    parent table of the module docstring (1/1 and -1/1 hang on 1/0 - 0/1),
    checking that each edge grown on has determinant +-1 and one fresh
    apex: a Farey edge has just two common neighbors, a + b and a - b, so
    a candidate that is not the apex and is adjacent to a and to b is new.
    A shallower ball is a prefix of ``_table``; a deeper one runs the
    missing rounds on copies of its columns, published once all pass.

    >>> tuple(_grow(1))[1:]  # nums, dens, pa, pb
    ([1, 0, 1, -1, 2, -2, 1, -1], [0, 1, 1, 1, 1, 1, 2, 2], [0, 0, 0, 0, 1, 1], [1, 1, 2, 3, 2, 3])
    """
    global _table
    if depth < 0:
        raise ValueError("depth must be non-negative")
    made, table = _table
    if depth == made:
        return table
    if depth < made:
        n = 4 << depth
        ids, nums, dens, pa, pb = table
        return _Build(ids[:n], nums[:n], dens[:n], pa[:n - 2], pb[:n - 2])
    ids, nums, dens, pa, pb = map(list, table)  # one int object per id, shared by pa and pb
    for _ in range(made, depth):
        h = len(ids) // 2
        by_pb = sorted(range(h - 2, len(pb)), key=pb.__getitem__)  # c - 2 for the ids c grown last
        ends_a = sorted(ids[:h] * 2)
        ends_b = ids[h:] + [ids[j + 2] for j in by_pb]
        apexes = pb[h - 2:] + list(map(pa.__getitem__, by_pb))
        for a, b, x in zip(ends_a, ends_b, apexes):
            an, ad, bn, bd, xn, xd = nums[a], dens[a], nums[b], dens[b], nums[x], dens[x]
            pn, pd, mn, md = _mediants(an, ad, bn, bd)
            p_is_x = pn == xn and pd == xd
            cn, cd = (mn, md) if p_is_x else (pn, pd)
            # the determinants of a-b, a-c and c-b are all +-1 iff their product is
            dets = (an * bd - bn * ad) * (an * cd - cn * ad) * (cn * bd - bn * cd)
            if p_is_x == (mn == xn and md == xd) or dets not in (1, -1):
                raise AssertionError(f"expected one new apex on edge {_label(an, ad)}-{_label(bn, bd)}")
            nums.append(cn)
            dens.append(cd)
        ids += range(len(ids), len(nums))
        pa += ends_a
        pb += ends_b
    table = _Build(ids, nums, dens, pa, pb)
    _table = depth, table  # one assignment: a race between threads only repeats rounds
    return table


def _ball(build: _Build) -> "Complex":
    """The complex of a build, with labels, on the build's int objects."""
    from .complexes import KIND_SLOPE, Complex  # deferred: --check-tree makes no Complex
    ids, pa, pb = build.ids, build.pa, build.pb
    grown = ids[2:]
    labels = list(map(_label, build.nums, build.dens))
    edge_ends = ([ids[0], *pa, *pb], [ids[1], *grown, *grown])
    return Complex._of(ids, [KIND_SLOPE] * len(ids), labels, edge_ends, (pa, pb, grown))


def stern_brocot_ball(depth: int) -> "Complex":
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


def f_odd_subcomplex(c: "Complex") -> "Complex":
    """Full subcomplex on the odd-numerator vertices.  Every vertex must
    have kind slope and a label n/d of ASCII decimal integers; parity is
    the last digit before the ``/``."""
    from . import complexes
    ids, kinds, labels, slope = c._ids, c._kinds, c._labels, complexes.KIND_SLOPE
    if set(kinds) - {slope}:
        j = next(j for j, kind in enumerate(kinds) if kind != slope)
        raise ValueError(f"vertex {ids[j]} ({labels[j]!r}) has kind {kinds[j]!r}, not a slope")
    digits = [m and m[1] for m in map(_SLOPE.fullmatch, labels)]  # None for a bad label
    if None in digits:
        j = digits.index(None)
        raise ValueError(f"vertex {ids[j]} has label {labels[j]!r}, not a slope n/d")
    keep = {i for i, digit in zip(ids, digits) if digit in "13579"}
    return complexes.induced(c, keep)


def _odd_parents(build: _Build) -> tuple[list[int], bool, bool]:
    """One pass over a build: the odd-parent column (each odd vertex's odd
    parent, ``pa`` if both are odd; -1 elsewhere and at 1/0) and the
    ``forest`` and ``reach`` verdicts of ``odd_tree_check``.

    >>> _odd_parents(_grow(1))
    ([-1, -1, 0, 0, -1, -1, 2, 3], True, True)
    """
    nums, column = build.nums, [-1] * len(build.nums)
    forest = reach = True
    for c, a, b in zip(range(2, len(nums)), build.pa, build.pb):
        if nums[c] & 1:
            if nums[a] & 1:
                column[c] = a
                forest = forest and not nums[b] & 1
            elif nums[b] & 1:
                column[c] = b
            else:
                reach = False
    return column, forest, reach


def odd_tree_check(depth: int) -> tuple[bool, bool]:
    """``(forest, reach)`` of the depth-``depth`` ball: no odd vertex has two
    odd parents, and every odd vertex but 1/0 has one.  The odd edges are the
    edges to odd parents (0/1 is even), which have smaller ids.  So ``forest``
    makes the odd subcomplex a forest, and exactly so when vertices grow on
    edges (two odd parents span an odd triangle); ``reach`` leads every odd
    vertex down the column to 1/0, and under ``forest`` exactly so (a vertex
    without an odd parent is the least id of its component)."""
    return _odd_parents(_grow(depth))[1:]


def odd_vertices_reach_infinity(depth: int) -> bool:
    """The ``reach`` verdict of ``odd_tree_check``: every odd vertex of the
    ball is joined to 1/0 in its odd subcomplex, so in every deeper ball's."""
    return odd_tree_check(depth)[1]


def odd_subtree(depth: int) -> tuple[list[str], list[tuple[int, int]]]:
    """The odd tree of the depth-``depth`` ball as slope labels in BFS
    order from 1/0 (children by increasing id) and local edges (i, j),
    i < j, between BFS positions, read off the odd-parent column."""
    build = _grow(depth)
    children = [[] for _ in build.nums]
    for c, p in enumerate(_odd_parents(build)[0]):
        if p >= 0:
            children[p].append(c)
    order = [0]
    for v in order:  # each vertex has one parent, so none is listed twice
        order += children[v]
    pos = {vid: j for j, vid in enumerate(order)}
    labels = [_label(build.nums[vid], build.dens[vid]) for vid in order]
    return labels, [(pos[a], pos[b]) for a in order for b in children[a]]
