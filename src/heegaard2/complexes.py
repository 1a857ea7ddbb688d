"""Finite labeled simplicial 1-/2-complexes and the tree models built on
them: the bipartite black/white disk-and-sphere tree, the sphere-complex
model obtained by grafting copies of ``farey.odd_subtree`` onto it, and
the cone model for the case with a reducing disk.

A complex stores vertices (id, kind, label), an edge set and an optional
triangle layer.  Complexes are immutable after construction and every
operation here is pure.
"""

from collections import namedtuple
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

KIND_BLACK = "black"  # disk vertices of the subdivided tree
KIND_WHITE = "white"  # sphere vertices (valence 2 inside, 1 on the boundary)
KIND_APEX = "apex"  # the reducing disk in cone models
KIND_SLOPE = "slope"  # slope vertices of Farey-derived complexes

KINDS = (KIND_BLACK, KIND_WHITE, KIND_APEX, KIND_SLOPE)


class Vertex(NamedTuple):
    id: int
    kind: str
    label: str


def _vertices(ids: Iterable[int], kind: str, labels: Iterable[str]) -> Iterator[Vertex]:
    """Vertices of one kind, as ``Vertex._make`` makes them, at C speed."""
    return map(tuple.__new__, repeat(Vertex), zip(ids, repeat(kind), labels))


class Complex(namedtuple("Complex", "vertices edges triangles")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # validates; _replace calls it

    def __new__(cls, vertices: tuple[Vertex, ...], edges: frozenset[tuple[int, int]],
                triangles: frozenset[tuple[int, int, int]] = frozenset()):
        idset = set(map(itemgetter(0), vertices))
        if len(idset) != len(vertices):
            raise ValueError("duplicate vertex ids")
        if unknown := set(map(itemgetter(1), vertices)).difference(KINDS):
            kind = next(v.kind for v in vertices if v.kind in unknown)
            raise ValueError(f"unknown vertex kind {kind!r}")
        for a, b in edges:
            if not (a < b) or a not in idset or b not in idset:
                raise ValueError(f"bad edge ({a}, {b})")
        # edges are ordered, so a triangle whose three edges are edges is
        # ordered too; only a failure pays for the loop naming the first one
        ta, tb, tc = zip(*triangles) if triangles else ((), (), ())
        if not all(map(edges.issuperset, (zip(ta, tb), zip(ta, tc), zip(tb, tc)))):
            for a, b, c in triangles:
                if not (a < b < c):
                    raise ValueError(f"bad triangle ({a}, {b}, {c})")
                for e in ((a, b), (a, c), (b, c)):
                    if e not in edges:
                        raise ValueError(f"triangle {(a, b, c)} is missing edge {e}")
        return super().__new__(cls, vertices, edges, triangles)


def make_complex(
    vertices: Iterable[Vertex],
    edges: Iterable[tuple[int, int]] = (),
    triangles: Iterable[tuple[int, int, int]] = (),
) -> Complex:
    """Normalize (sort ids inside simplices) and validate."""
    vs = tuple(sorted(vertices, key=lambda v: v.id))
    es = frozenset(tuple(sorted(e)) for e in edges)
    ts = frozenset(tuple(sorted(t)) for t in triangles)
    return Complex(vs, es, ts)


def neighbors(c: Complex) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v.id: [] for v in c.vertices}
    for a, b in c.edges:
        adj[a].append(b)
        adj[b].append(a)
    for lst in adj.values():
        lst.sort()
    return adj


def component(c: Complex, start: int) -> list[int]:
    """Vertex ids of the connected component of ``start``, in BFS order
    (neighbors visited in increasing id order)."""
    return bfs_order(neighbors(c), start)


def bfs_order(adj, start: int) -> list[int]:
    """Vertices reachable from ``start`` in BFS order, visiting each
    adjacency list in its stored order.  ``adj`` is anything indexable by
    vertex, such as a dict of neighbor lists or a list of child lists."""
    seen = {start}
    order = [start]
    for v in order:  # order grows as it is read: first in, first out
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def is_forest(c: Complex) -> bool:
    """True when the 1-skeleton has no cycle."""
    parent = {v.id: v.id for v in c.vertices}
    for a, b in c.edges:
        # union-find with path halving: replace a and b by their roots
        while (up := parent[a]) != a:
            parent[a] = a = parent[up]
        while (up := parent[b]) != b:
            parent[b] = b = parent[up]
        if a == b:
            return False
        parent[a] = b
    return True


def is_tree(c: Complex) -> bool:
    """True when the 1-skeleton is a nonempty connected acyclic graph."""
    if not c.vertices:
        return False
    return is_forest(c) and len(c.edges) == len(c.vertices) - 1


def dimension(c: Complex) -> int | None:
    """Largest simplex dimension present; None for the empty complex."""
    if not c.vertices:
        return None
    if c.triangles:
        return 2
    if c.edges:
        return 1
    return 0


def induced(c: Complex, keep: Iterable[int]) -> Complex:
    """Full subcomplex on the given vertex ids."""
    keep = set(keep)
    vs = tuple(v for v in c.vertices if v.id in keep)
    es = frozenset(filter(keep.issuperset, c.edges))
    ts = frozenset(filter(keep.issuperset, c.triangles))
    return Complex(vs, es, ts)


def to_json(c: Complex) -> dict:
    return {
        "vertices": [
            {"id": v.id, "kind": v.kind, "label": v.label} for v in c.vertices
        ],
        "edges": [list(e) for e in sorted(c.edges)],
        "triangles": [list(t) for t in sorted(c.triangles)],
    }


def from_json(data: dict) -> Complex:
    return make_complex(
        (Vertex(v["id"], v["kind"], v["label"]) for v in data["vertices"]),
        (tuple(e) for e in data["edges"]),
        (tuple(t) for t in data.get("triangles", [])),
    )


_DOT_ATTRS = {
    KIND_BLACK: "shape=circle, style=filled, fillcolor=black, fontcolor=white",
    KIND_WHITE: "shape=circle",
    KIND_APEX: "shape=doublecircle",
    KIND_SLOPE: "shape=box",
}


def to_dot(c: Complex, name: str = "complex") -> str:
    lines = [f"graph {name} {{"]
    for v in c.vertices:
        lines.append(f'  v{v.id} [label="{v.label}", {_DOT_ATTRS[v.kind]}];')
    for a, b in sorted(c.edges):
        lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines)


def sp_tree_model(black_count: int, whites_per_black: int) -> Complex:
    """Bipartite tree of black (disk) and white (sphere) vertices, grown
    breadth-first from one black root until ``black_count`` blacks exist.

    Every black has valence ``whites_per_black``; every white joins at
    most two blacks (the boundary whites of the truncation keep valence
    one), encoding that a disjoint disk pair determines a unique sphere.
    """
    if black_count < 1 or whites_per_black < 1:
        raise ValueError("black_count and whites_per_black must be positive")
    vertices: list[Vertex] = []
    edges: set[tuple[int, int]] = set()
    whites: list[int] = []  # in id order, so black k > 0 joining whites[k - 1] is breadth-first
    for k in range(black_count):
        if k > len(whites):
            raise ValueError(
                "cannot grow the tree: no valence-one white left "
                "(whites_per_black too small for black_count)"
            )
        b = len(vertices)
        vertices.append(Vertex(b, KIND_BLACK, f"disk{k}"))
        if k:
            edges.add((whites[k - 1], b))
        for w in range(b + 1, b + 1 + whites_per_black - (k > 0)):
            vertices.append(Vertex(w, KIND_WHITE, f"sphere{len(whites)}"))
            edges.add((b, w))
            whites.append(w)
    return Complex(tuple(vertices), frozenset(edges))


def _haken_build(black_count: int, whites_per_black: int, farey_depth: int):
    from . import farey  # deferred: farey builds on this module

    sp = sp_tree_model(black_count, whites_per_black)
    slots, local_edges = farey.odd_subtree(farey_depth)
    if whites_per_black > len(slots):
        raise ValueError(
            f"whites_per_black={whites_per_black} exceeds the "
            f"{len(slots)} slots of the depth-{farey_depth} odd subtree"
        )
    whites = [v for v in sp.vertices if v.kind == KIND_WHITE]
    white_ids = {v.id: j for j, v in enumerate(whites)}
    vertices = [Vertex(j, KIND_WHITE, v.label) for j, v in enumerate(whites)]
    lo, hi = zip(*local_edges) if local_edges else ((), ())
    edges: set[tuple[int, int]] = set()
    adj = neighbors(sp)
    graft: dict[str, list[int]] = {}
    for v in sp.vertices:
        if v.kind != KIND_BLACK:
            continue
        # whites in id order, then fresh ids: copy is increasing, so i < j gives copy[i] < copy[j]
        copy = [white_ids[w] for w in adj[v.id]]
        fresh = range(len(vertices), len(vertices) + len(slots) - len(copy))
        labels = map(f"{v.label}:".__add__, slots[len(copy):])
        vertices += _vertices(fresh, KIND_SLOPE, labels)
        copy += fresh
        edges.update(zip(map(copy.__getitem__, lo), map(copy.__getitem__, hi)))
        graft[v.label] = copy
    return Complex(tuple(vertices), frozenset(edges)), graft


def haken_complex_model(
    black_count: int, whites_per_black: int, farey_depth: int
) -> Complex:
    """Model of the sphere complex: delete the blacks of the bipartite
    tree and graft, for each black, a copy of the truncated odd Farey
    tree whose first BFS vertices are identified with that black's
    adjacent whites.  Shared whites glue neighboring copies; the result
    is a tree.
    """
    model, _ = _haken_build(black_count, whites_per_black, farey_depth)
    return model


def haken_graft_map(
    black_count: int, whites_per_black: int, farey_depth: int
) -> dict[str, list[int]]:
    """For each black label of the underlying bipartite tree, the vertex
    ids of its grafted copy in BFS slot order (whites first)."""
    _, graft = _haken_build(black_count, whites_per_black, farey_depth)
    return graft


def sp_cone_model(base_size: int) -> Complex:
    """Cone over a path tree of ``base_size`` disk vertices: the apex is
    the unique reducing disk, joined to every base vertex; every base
    edge spans a triangle with the apex."""
    if base_size < 1:
        raise ValueError("base_size must be positive")
    vertices = (Vertex(0, KIND_APEX, "reducing-disk"),) + tuple(
        Vertex(i, KIND_BLACK, f"disk{i - 1}") for i in range(1, base_size + 1)
    )
    edges = {(0, i) for i in range(1, base_size + 1)}
    edges |= {(i, i + 1) for i in range(1, base_size)}
    triangles = frozenset((0, i, i + 1) for i in range(1, base_size))
    return Complex(vertices, frozenset(edges), triangles)


def cone_check(c: Complex) -> bool:
    """Contractibility witness for cone models: a unique apex adjacent to
    every other vertex, whose deletion leaves a tree."""
    apexes = [v.id for v in c.vertices if v.kind == KIND_APEX]
    if len(apexes) != 1:
        return False
    apex = apexes[0]
    others = {v.id for v in c.vertices if v.id != apex}
    if {b if a == apex else a for a, b in c.edges if apex in (a, b)} != others:
        return False
    return is_tree(induced(c, others))
