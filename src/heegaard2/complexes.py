"""Finite labeled simplicial 1-/2-complexes and the tree models built on
them: the bipartite black/white disk-and-sphere tree, the sphere-complex
model obtained by grafting copies of ``farey.odd_subtree`` onto it, and
the cone model for the case with a reducing disk.

A complex is a column store: vertex ids, kinds and labels, and the ends
of its edges and triangles.  Its fields ``vertices``, ``edges`` and
``triangles`` are built on first read; the checks and writers read the
columns, so a complex only checked or written never builds them.
Complexes are immutable after construction and every operation is pure.
Edges run a < b, so the largest vertex of a cycle is the ``b`` end of two
of its edges: distinct ``b`` ends, which every builder here leaves, certify
a forest.  Union-find decides the rest, such as the tree (0, 2), (1, 2).
"""

from functools import cached_property
from itertools import compress, islice, repeat
from operator import attrgetter, eq, lt
from typing import Iterable, NamedTuple

KIND_BLACK = "black"  # disk vertices of the subdivided tree
KIND_WHITE = "white"  # sphere vertices (valence 2 inside, 1 on the boundary)
KIND_APEX = "apex"  # the reducing disk in cone models
KIND_SLOPE = "slope"  # slope vertices of Farey-derived complexes

KINDS = (KIND_BLACK, KIND_WHITE, KIND_APEX, KIND_SLOPE)


class Vertex(NamedTuple):
    id: int
    kind: str
    label: str


def _frozenset(columns) -> frozenset:
    """The rows of equally long columns.  A union of two sets sizes its table
    once; a set grown one row at a time ends up to twice as large."""
    rows = zip(*columns)
    return frozenset(islice(rows, len(columns[0]) // 2)) | frozenset(rows)


_fields_of = attrgetter("vertices", "edges", "triangles")


class Complex:
    """Vertices (id, kind, label) with distinct ids and known kinds, edges (a, b)
    with a < b between them and triangles (a, b, c) whose edges are edges.  A value
    record: equal and hashed by its read-only fields, a tuple of ``Vertex`` rows and two
    frozensets of the rows given; a row of the wrong size is the first defect named."""

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[tuple[int, int]],
                 triangles: Iterable[tuple[int, int, int]] = ()):
        vertices = tuple(map(tuple.__new__, repeat(Vertex), vertices))  # sizes checked below
        edges, triangles = frozenset(edges), frozenset(triangles)
        for rows, size, name in ((vertices, 3, "vertex"), (edges, 2, "edge"), (triangles, 3, "triangle")):
            if {*map(len, rows)} - {size}:  # named before zip cuts every row to the shortest
                raise ValueError(f"bad {name} ({', '.join(map(str, next(r for r in rows if len(r) != size)))})")
        vars(self).update(vertices=vertices, edges=edges, triangles=triangles)
        ids, kinds, labels = zip(*vertices) if vertices else ((), (), ())
        self._fill(ids, kinds, labels, tuple(zip(*edges)) or ((), ()),
                   tuple(zip(*triangles)) or ((), (), ()))

    def _fill(self, ids, kinds, labels, edge_ends, triangle_ends=((), (), ())) -> "Complex":
        """Keep the columns the caller hands over; raise ``ValueError`` at their first defect,
        with the message and in the order of a check of each vertex, edge and triangle."""
        vars(self).update(_ids=ids, _kinds=kinds, _labels=labels, _edge_ends=edge_ends,
                          _triangle_ends=triangle_ends)
        idset = set(ids)
        if len(idset) != len(ids):
            raise ValueError("duplicate vertex ids")
        if unknown := set(kinds).difference(KINDS):
            raise ValueError(f"unknown vertex kind {next(k for k in kinds if k in unknown)!r}")
        ea, eb = edge_ends
        if not (all(map(lt, ea, eb)) and idset.issuperset(ea) and idset.issuperset(eb)):
            for a, b in zip(ea, eb):
                if not (a < b) or a not in idset or b not in idset:
                    raise ValueError(f"bad edge ({a}, {b})")
        # edges are ordered, so a triangle whose three edges are edges is
        # ordered too; only a failure pays for the loop naming the first one
        ta, tb, tc = triangle_ends
        if ta and not all(map(self.edges.issuperset, (zip(ta, tb), zip(ta, tc), zip(tb, tc)))):
            for a, b, c in zip(ta, tb, tc):
                if not (a < b < c):
                    raise ValueError(f"bad triangle ({a}, {b}, {c})")
                for e in ((a, b), (a, c), (b, c)):
                    if e not in self.edges:
                        raise ValueError(f"triangle {(a, b, c)} is missing edge {e}")
        return self

    # the complex on columns ids, kinds, labels, edge and triangle ends; fields built on first read
    _of = classmethod(lambda cls, *columns: object.__new__(cls)._fill(*columns))

    vertices = cached_property(
        lambda c: tuple(map(tuple.__new__, repeat(Vertex), zip(c._ids, c._kinds, c._labels))))
    edges = cached_property(lambda c: _frozenset(c._edge_ends))
    triangles = cached_property(lambda c: _frozenset(c._triangle_ends))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return _fields_of(self) == _fields_of(other) if isinstance(other, Complex) else NotImplemented

    def __hash__(self) -> int:
        return hash(_fields_of(self))

    def __repr__(self) -> str:
        return "Complex(vertices={!r}, edges={!r}, triangles={!r})".format(*_fields_of(self))


def make_complex(vertices: Iterable[Vertex], edges: Iterable[tuple[int, int]] = (),
                 triangles: Iterable[tuple[int, int, int]] = ()) -> Complex:
    """``Complex(...)`` of any rows it accepts, vertex rows sorted by id and the ids
    inside each simplex sorted."""
    return Complex(sorted(vertices, key=lambda v: tuple(v)[:1]),
                   *((tuple(sorted(s)) for s in rows) for rows in (edges, triangles)))


def neighbors(c: Complex) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {i: [] for i in c._ids}
    for a, b in zip(*c._edge_ends):
        adj[a].append(b)
        adj[b].append(a)
    return {v: sorted(ws) for v, ws in adj.items()}


def component(c: Complex, start: int) -> list[int]:
    """Vertex ids of the connected component of ``start``, in BFS order
    (neighbors visited in increasing id order)."""
    adj, seen = neighbors(c), {start}
    order = [start]
    for v in order:  # order grows as it is read: first in, first out
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def _forest(ids, ea, eb) -> bool:
    """No cycle among the edges (ea[k], eb[k]), ea[k] < eb[k], on the vertices ``ids``."""
    if len(set(eb)) == len(eb):  # a cycle's largest vertex is the b end of two of its edges
        return True
    parent = dict(zip(ids, ids))
    for a, b in zip(ea, eb):
        # union-find with path halving: replace a and b by their roots
        while (up := parent[a]) != a:
            parent[a] = a = parent[up]
        while (up := parent[b]) != b:
            parent[b] = b = parent[up]
        if a == b:
            return False
        parent[b] = a  # builders list an edge (a, b) mostly as b joins: b stays near the root
    return True


def is_forest(c: Complex) -> bool:
    """True when the 1-skeleton has no cycle: distinct ``b`` ends certify it; union-find
    decides graphs without them, such as the tree (0, 2), (1, 2) and repeated rows."""
    return _forest(c._ids, *c._edge_ends)


def is_tree(c: Complex) -> bool:
    """True when the 1-skeleton is a nonempty connected acyclic graph."""
    return bool(c._ids) and len(c._edge_ends[0]) == len(c._ids) - 1 and is_forest(c)


def _cut(columns, mask) -> list[list]:
    mask = list(mask)
    return [list(compress(column, mask)) for column in columns]


def induced(c: Complex, keep: Iterable[int]) -> Complex:
    """Full subcomplex on the given vertex ids."""
    keep = set(keep)
    vertex_columns = _cut((c._ids, c._kinds, c._labels), map(keep.__contains__, c._ids))
    simplex_ends = (_cut(ends, map(keep.issuperset, zip(*ends))) for ends in (c._edge_ends, c._triangle_ends))
    return Complex._of(*vertex_columns, *simplex_ends)


def to_json(c: Complex) -> dict:
    return {
        "vertices": [{"id": i, "kind": kind, "label": label}
                     for i, kind, label in zip(c._ids, c._kinds, c._labels)],
        "edges": [list(e) for e in sorted(zip(*c._edge_ends))],
        "triangles": [list(t) for t in sorted(zip(*c._triangle_ends))],
    }


_DOT_ATTRS = {
    KIND_BLACK: "shape=circle, style=filled, fillcolor=black, fontcolor=white",
    KIND_WHITE: "shape=circle",
    KIND_APEX: "shape=doublecircle",
    KIND_SLOPE: "shape=box",
}
_DOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"'})  # inside a quoted DOT label


def to_dot(c: Complex) -> str:
    lines = ["graph complex {"]
    lines += (f'  v{i} [label="{str(label).translate(_DOT_ESCAPES)}", {_DOT_ATTRS[kind]}];'
              for i, kind, label in zip(c._ids, c._kinds, c._labels))
    lines += (f"  v{a} -- v{b};" for a, b in sorted(zip(*c._edge_ends)))
    return "\n".join(lines + ["}"])


def sp_tree_model(black_count: int, whites_per_black: int) -> Complex:
    """Bipartite tree of black (disk) and white (sphere) vertices, grown
    breadth-first from one black root until ``black_count`` blacks exist.

    Every black has valence ``whites_per_black``; every white joins at
    most two blacks (the boundary whites of the truncation keep valence
    one), encoding that a disjoint disk pair determines a unique sphere.
    """
    if black_count < 1 or whites_per_black < 1:
        raise ValueError("black_count and whites_per_black must be positive")
    kinds, labels, ea, eb = [], [], [], []
    whites: list[int] = []  # in id order, so black k > 0 joining whites[k - 1] is breadth-first
    for k in range(black_count):
        if k > len(whites):
            raise ValueError("cannot grow the tree: no valence-one white left "
                             "(whites_per_black too small for black_count)")
        b = len(kinds)
        fresh = range(b + 1, b + 1 + whites_per_black - (k > 0))
        kinds += (KIND_BLACK, *repeat(KIND_WHITE, len(fresh)))
        labels += (f"disk{k}", *(f"sphere{j}" for j in range(len(whites), len(whites) + len(fresh))))
        if k:
            ea.append(whites[k - 1])
            eb.append(b)
        ea += repeat(b, len(fresh))
        eb += fresh
        whites += fresh
    return Complex._of(list(range(len(kinds))), kinds, labels, (ea, eb))


def haken_complex_model(black_count: int, whites_per_black: int, farey_depth: int) -> Complex:
    """Model of the sphere complex: delete the blacks of the bipartite
    tree and graft, for each black, a copy of the truncated odd Farey
    tree whose first BFS vertices are identified with that black's
    adjacent whites.  Shared whites glue neighboring copies; the result
    is a tree.
    """
    from . import farey  # deferred: farey builds on this module

    sp = sp_tree_model(black_count, whites_per_black)
    slots, local_edges = farey.odd_subtree(farey_depth)
    if whites_per_black > len(slots):
        raise ValueError(f"whites_per_black={whites_per_black} exceeds the "
                         f"{len(slots)} slots of the depth-{farey_depth} odd subtree")
    is_white = [kind == KIND_WHITE for kind in sp._kinds]
    labels = list(compress(sp._labels, is_white))
    white_ids = {w: j for j, w in enumerate(compress(sp._ids, is_white))}
    lo, hi = zip(*local_edges) if local_edges else ((), ())
    ea, eb, adj = [], [], neighbors(sp)
    for b, label in compress(zip(sp._ids, sp._labels), map(KIND_BLACK.__eq__, sp._kinds)):
        # whites in id order, then fresh ids: copy is increasing, so i < j gives copy[i] < copy[j]
        taken = [white_ids[w] for w in adj[b]]
        copy = taken + list(range(len(labels), len(labels) + len(slots) - len(taken)))
        labels += map(f"{label}:".__add__, slots[len(taken):])
        ea += map(copy.__getitem__, lo)
        eb += map(copy.__getitem__, hi)
    kinds = [KIND_WHITE] * len(white_ids) + [KIND_SLOPE] * (len(labels) - len(white_ids))
    return Complex._of(list(range(len(labels))), kinds, labels, (ea, eb))


def sp_cone_model(base_size: int) -> Complex:
    """Cone over a path tree of ``base_size`` disk vertices: the apex is
    the unique reducing disk, joined to every base vertex; every base
    edge spans a triangle with the apex."""
    if base_size < 1:
        raise ValueError("base_size must be positive")
    ids = list(range(base_size + 1))
    apex, base = ids[0], ids[1:]
    kinds = [KIND_APEX] + [KIND_BLACK] * base_size
    labels = ["reducing-disk", *map("disk{}".format, range(base_size))]
    edge_ends = ([apex] * base_size + base[:-1], base + base[1:])
    triangle_ends = ([apex] * (base_size - 1), base[:-1], base[1:])
    return Complex._of(ids, kinds, labels, edge_ends, triangle_ends)


def cone_check(c: Complex) -> bool:
    """Contractibility witness for cone models: a unique apex adjacent to
    every other vertex, whose deletion leaves a tree."""
    if c._kinds.count(KIND_APEX) != 1:
        return False
    apex, (ea, eb) = c._ids[c._kinds.index(KIND_APEX)], c._edge_ends
    others = set(c._ids) - {apex}
    far = {*compress(eb, map(eq, ea, repeat(apex))), *compress(ea, map(eq, eb, repeat(apex)))}
    rim_a, rim_b = _cut((ea, eb), (a != apex != b for a, b in zip(ea, eb)))  # edges that miss the apex
    return far == others and len(rim_a) == len(others) - 1 and _forest(others, rim_a, rim_b)
