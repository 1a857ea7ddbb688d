import itertools
import re
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from heegaard2 import complexes, farey
from heegaard2.complexes import KIND_APEX, KIND_BLACK, KIND_SLOPE, KIND_WHITE, Vertex
from helpers import (
    cone_check_oracle,
    cone_check_tuples_oracle,
    cut_build,
    forest_oracle,
    graft_copies,
    induced_oracle,
    is_forest_oracle,
    rehang_build,
    to_json_oracle,
    validate_oracle,
)


def kinds(cpx):
    return {v.id: v.kind for v in cpx.vertices}


def test_complex_validation():
    black = Vertex(0, KIND_BLACK, "a")
    assert complexes.Complex((), frozenset()).vertices == ()
    with pytest.raises(ValueError, match="duplicate vertex ids"):
        complexes.Complex((black, Vertex(0, KIND_WHITE, "b")), frozenset())
    with pytest.raises(ValueError, match="duplicate vertex ids"):
        complexes.Complex((black, Vertex(0, "purple", "b")), frozenset())
    with pytest.raises(ValueError, match=r"bad edge \(0, 1\)"):
        complexes.Complex((black,), frozenset({(0, 1)}))
    with pytest.raises(ValueError, match=r"bad edge \(1, 0\)"):
        complexes.Complex((black, Vertex(1, KIND_BLACK, "b")), frozenset({(1, 0)}))
    three = tuple(Vertex(i, KIND_BLACK, "abc"[i]) for i in range(3))
    with pytest.raises(ValueError, match="missing edge"):
        complexes.Complex(three, frozenset({(0, 1), (1, 2)}), frozenset({(0, 1, 2)}))
    with pytest.raises(ValueError, match="bad triangle"):
        complexes.Complex(
            three, frozenset({(0, 1), (0, 2), (1, 2)}), frozenset({(0, 2, 1)})
        )
    with pytest.raises(ValueError, match="unknown vertex kind 'purple'"):
        complexes.Complex((Vertex(0, "purple", "a"),), frozenset())
    with pytest.raises(ValueError, match="unknown vertex kind 'purple'"):
        complexes.Complex(
            (black, Vertex(1, "purple", "b"), Vertex(2, "mauve", "c")), frozenset()
        )


def test_complex_freezes_the_rows_it_is_given():
    # rows given as a list, with a repeated edge, or from a generator are kept
    # as the tuple and frozensets that compare, hash and count as fields
    vs = (Vertex(0, KIND_SLOPE, "1/0"), Vertex(1, KIND_SLOPE, "0/1"))
    frozen = complexes.Complex(vs, frozenset({(0, 1)}))
    for cpx in (complexes.Complex(vs, [(0, 1), (0, 1)]),
                complexes.Complex(list(vs), [(0, 1)]),
                complexes.Complex(iter(vs), ((0, 1) for _ in range(3)), iter(())),
                complexes.Complex([list(v) for v in vs], [(0, 1)]),
                complexes.Complex(map(tuple, vs), [(0, 1)])):
        assert cpx == frozen and hash(cpx) == hash(frozen)
        assert type(cpx.vertices) is tuple and type(cpx.edges) is frozenset
        assert {type(v) for v in cpx.vertices} == {Vertex}
        assert complexes.to_json(cpx)["edges"] == [[0, 1]]
        assert complexes.is_tree(cpx)
    with pytest.raises(TypeError, match="unhashable"):
        complexes.Complex(vs, [[0, 1]])
    # a vertex row of the wrong size is named as edges and triangles are
    for row, shown in (((1, KIND_SLOPE), "1, slope"), ([1, KIND_SLOPE, "0/1", 2], "1, slope, 0/1, 2")):
        with pytest.raises(ValueError, match=re.escape(f"bad vertex ({shown})")):
            complexes.Complex([vs[0], row], [(0, 1)])


def test_make_complex_normalizes():
    cpx = complexes.make_complex(
        [Vertex(1, KIND_BLACK, "b"), Vertex(0, KIND_WHITE, "w")], [(1, 0)]
    )
    assert [v.id for v in cpx.vertices] == [0, 1]
    assert cpx.edges == frozenset({(0, 1)})


@st.composite
def _any_rows(draw):
    """Vertex rows with int ids as ``Vertex``, tuple or list, and edge and
    triangle rows of distinct vertex ids, unsorted, as tuples or lists; ids
    may repeat, and a few rows of each have the wrong size or a loose id."""
    ids = st.integers(-1, 6)
    vertices = []
    for i in draw(st.lists(ids, max_size=6, unique=draw(st.sampled_from((True, True, False))))):
        fields = [i, draw(st.sampled_from(complexes.KINDS)), draw(st.sampled_from("ab"))]
        fields = draw(st.sampled_from([fields] * 40 + [fields[:2], [], fields + ["x"]]))
        shapes = (tuple, list, lambda row: Vertex(*row)) if len(fields) == 3 else (tuple, list)
        vertices.append(draw(st.sampled_from(shapes))(fields))
    ends = sorted({row[0] for row in vertices if row})

    def simplices(size, max_size):
        rows = []
        if len(ends) >= size:
            rows = draw(st.lists(st.lists(st.sampled_from(ends), min_size=size, max_size=size,
                                          unique=True), max_size=max_size))
        if draw(st.integers(0, 5)) == 3:  # at times one row of any ids and size
            rows.insert(draw(st.integers(0, len(rows))), draw(st.lists(ids, max_size=size + 1)))
        return [draw(st.sampled_from((tuple, list)))(row) for row in rows]

    return vertices, simplices(2, 6), simplices(3, 2)


@given(_any_rows())
@example(([(1, KIND_BLACK, "b"), [0, KIND_WHITE, "w"]], [[1, 0]], []))
@example(([Vertex(2, KIND_SLOPE, "x"), (1, KIND_SLOPE), [0]], [(1, 0)], []))
@example(([Vertex(i, KIND_SLOPE, "x") for i in (2, 0, 1)], [(1, 0), [2, 1], (2, 0)], [[2, 0, 1]]))
def test_make_complex_is_complex_of_the_normalized_rows(rows):
    """``make_complex`` equals ``Complex(...)`` on the vertex rows sorted by id
    and each simplex sorted, or raises the same ``ValueError``, and nothing else."""
    vertices, edges, triangles = rows
    normalized = (sorted(vertices, key=lambda v: list(v)[:1]),
                  [tuple(sorted(s)) for s in edges], [tuple(sorted(s)) for s in triangles])
    message = _raised(lambda: complexes.Complex(*normalized))
    if message is None:
        assert complexes.make_complex(*rows) == complexes.Complex(*normalized)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            complexes.make_complex(*rows)


def test_sp_tree_star():
    cpx = complexes.sp_tree_model(1, 3)
    assert len(cpx.vertices) == 4
    assert len(cpx.edges) == 3
    assert complexes.is_tree(cpx)
    k = kinds(cpx)
    assert sum(1 for v in k.values() if v == KIND_BLACK) == 1


def test_sp_tree_two_blacks():
    cpx = complexes.sp_tree_model(2, 2)
    k = kinds(cpx)
    blacks = [i for i, kind in k.items() if kind == KIND_BLACK]
    whites = [i for i, kind in k.items() if kind == KIND_WHITE]
    assert len(blacks) == 2 and len(whites) == 3
    assert complexes.is_tree(cpx)
    adj = complexes.neighbors(cpx)
    shared = [w for w in whites if len(adj[w]) == 2]
    assert len(shared) == 1  # the black-white-black path


def test_sp_tree_bipartite_and_valences():
    for blacks, whites in ((1, 1), (2, 3), (4, 2), (5, 4), (6, 8)):
        cpx = complexes.sp_tree_model(blacks, whites)
        assert complexes.is_tree(cpx)
        k = kinds(cpx)
        adj = complexes.neighbors(cpx)
        for a, b in cpx.edges:
            assert {k[a], k[b]} == {KIND_BLACK, KIND_WHITE}
        for vid, kind in k.items():
            if kind == KIND_BLACK:
                assert len(adj[vid]) == whites
            else:
                assert len(adj[vid]) in (1, 2)


def test_sp_tree_growth_error():
    with pytest.raises(ValueError):
        complexes.sp_tree_model(3, 1)
    with pytest.raises(ValueError):
        complexes.sp_tree_model(0, 2)


def test_range_errors_name_the_library_parameters():
    with pytest.raises(ValueError, match="^base_size must be positive$"):
        complexes.sp_cone_model(0)
    with pytest.raises(ValueError, match="^black_count and whites_per_black must be positive$"):
        complexes.haken_complex_model(2, 0, 1)
    with pytest.raises(ValueError, match="^depth must be non-negative$"):
        complexes.haken_complex_model(2, 2, -1)


def test_haken_single_black_is_the_odd_subtree():
    depth = 3
    cpx = complexes.haken_complex_model(1, 3, depth)
    fodd = farey.f_odd_subcomplex(farey.stern_brocot_ball(depth))
    inf_id = next(v.id for v in fodd.vertices if v.label == "1/0")
    comp = complexes.component(fodd, inf_id)
    assert len(cpx.vertices) == len(comp)
    assert complexes.is_tree(cpx)
    local = {
        tuple(sorted((comp.index(a), comp.index(b))))
        for a, b in fodd.edges
        if a in comp and b in comp
    }
    graft = graft_copies(cpx, 1, 3)
    (copy,) = graft.values()
    pos = {vid: slot for slot, vid in enumerate(copy)}
    got = {
        tuple(sorted((pos[a], pos[b])))
        for a, b in cpx.edges
    }
    assert got == local


def test_haken_copies_isomorphic_to_odd_subtree():
    blacks, whites, depth = 3, 3, 3
    cpx = complexes.haken_complex_model(blacks, whites, depth)
    graft = graft_copies(cpx, blacks, whites)
    fodd = farey.f_odd_subcomplex(farey.stern_brocot_ball(depth))
    inf_id = next(v.id for v in fodd.vertices if v.label == "1/0")
    comp = complexes.component(fodd, inf_id)
    index = {vid: j for j, vid in enumerate(comp)}
    local = {
        tuple(sorted((index[a], index[b])))
        for a, b in fodd.edges
        if a in index and b in index
    }
    for label, copy in graft.items():
        pos = {vid: slot for slot, vid in enumerate(copy)}
        induced = {
            tuple(sorted((pos[a], pos[b])))
            for a, b in cpx.edges
            if a in pos and b in pos
        }
        assert induced == local, label


def test_haken_shared_whites_glue_copies():
    cpx = complexes.haken_complex_model(2, 3, 3)
    copies = list(graft_copies(cpx, 2, 3).values())
    shared = set(copies[0]) & set(copies[1])
    assert len(shared) == 1
    k = kinds(cpx)
    assert all(k[v] == KIND_WHITE for v in shared)


def test_haken_tree_small_grid():
    for blacks in (1, 2, 4):
        for whites in (2, 3):
            for depth in (1, 3):
                cpx = complexes.haken_complex_model(blacks, whites, depth)
                assert complexes.is_tree(cpx)


def test_haken_too_many_whites():
    with pytest.raises(ValueError):
        complexes.haken_complex_model(1, 999, 1)


def test_cone_model():
    single = complexes.sp_cone_model(1)
    assert len(single.vertices) == 2
    assert single.edges == frozenset({(0, 1)})
    assert not single.triangles
    assert complexes.cone_check(single)

    cone = complexes.sp_cone_model(5)
    adj = complexes.neighbors(cone)
    assert len(adj[0]) == 5
    assert complexes.cone_check(cone)
    assert len(cone.triangles) == 4
    base = complexes.induced(cone, {v.id for v in cone.vertices if v.id != 0})
    assert complexes.is_tree(base)
    with pytest.raises(ValueError):
        complexes.sp_cone_model(0)


def test_cone_check_rejects_non_cone():
    assert not complexes.cone_check(complexes.sp_tree_model(2, 2))


def test_cone_check_rejects_a_bare_or_partial_apex():
    apex = complexes.Vertex(0, complexes.KIND_APEX, "reducing-disk")
    assert not complexes.cone_check(complexes.make_complex([apex]))
    # the apex misses base vertex 3 of the path 1 - 2 - 3
    base = [complexes.Vertex(i, complexes.KIND_BLACK, f"disk{i - 1}") for i in (1, 2, 3)]
    partial = complexes.make_complex(
        [apex, *base], {(0, 1), (0, 2), (1, 2), (2, 3)}, {(0, 1, 2)}
    )
    assert complexes.is_tree(complexes.induced(partial, {1, 2, 3}))
    assert not complexes.cone_check(partial)


def test_json_round_trip():
    for cpx in (
        complexes.sp_tree_model(2, 3),
        complexes.sp_cone_model(4),
        farey.stern_brocot_ball(2),
        complexes.haken_complex_model(6, 3, 4),
    ):
        data = complexes.to_json(cpx)
        back = complexes.make_complex(
            [Vertex(v["id"], v["kind"], v["label"]) for v in data["vertices"]],
            map(tuple, data["edges"]), map(tuple, data["triangles"]),
        )
        assert back == cpx
        assert all(type(v) is Vertex for v in back.vertices)
        assert isinstance(data["edges"], list)


def test_dot_escapes_quotes_and_backslashes_in_labels():
    cpx = complexes.make_complex(
        [Vertex(0, KIND_SLOPE, 'a"b'), Vertex(1, KIND_WHITE, "back\\slash")], [(0, 1)]
    )
    assert complexes.to_dot(cpx).splitlines()[1:3] == [
        '  v0 [label="a\\"b", shape=box];',
        '  v1 [label="back\\\\slash", shape=circle];',
    ]


def test_dot_output():
    dot = complexes.to_dot(complexes.sp_cone_model(2))
    assert dot.startswith("graph complex {\n")
    assert "doublecircle" in dot
    assert "v0 -- v1;" in dot
    assert complexes.to_dot(complexes.sp_cone_model(2)) == dot


def test_component_bfs_order():
    cpx = complexes.sp_tree_model(2, 2)
    order = complexes.component(cpx, 0)
    assert order[0] == 0
    assert sorted(order) == [v.id for v in cpx.vertices]


def _raised(check):
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


def _simplices(ids, size, max_size):
    """Lists of sorted ``size``-tuples of distinct ids (none if too few)."""
    if len(ids) < size:
        return st.just([])
    simplex = st.lists(st.sampled_from(sorted(ids)), min_size=size, max_size=size, unique=True)
    return st.lists(simplex.map(lambda s: tuple(sorted(s))), max_size=max_size)


_DEFECTS = ("none", "duplicate id", "unknown kind", "reversed edge", "dangling edge",
            "triangle order", "missing triangle edge", "edge size", "triangle size")


@st.composite
def complex_parts(draw, defects=_DEFECTS):
    """Vertices with scattered ids, edges and triangles that make a valid
    complex, then at most one defect."""
    ids = draw(st.lists(st.integers(-40, 40), unique=True, max_size=9))
    vertices = [Vertex(i, draw(st.sampled_from(complexes.KINDS)), f"v{i}") for i in ids]
    triangles = set(draw(_simplices(ids, 3, 4)))
    edges = {e for a, b, c in triangles for e in ((a, b), (a, c), (b, c))}
    edges |= set(draw(_simplices(ids, 2, 8)))
    defect = draw(st.sampled_from(defects))
    if defect == "duplicate id" and len(vertices) >= 2:
        j = draw(st.integers(1, len(vertices) - 1))
        vertices[j] = vertices[j]._replace(id=vertices[0].id)
    elif defect == "unknown kind" and vertices:
        j = draw(st.integers(0, len(vertices) - 1))
        vertices[j] = vertices[j]._replace(kind="purple")
    elif defect == "reversed edge" and edges:
        a, b = draw(st.sampled_from(sorted(edges)))
        edges.add((b, a))
    elif defect == "dangling edge" and ids:
        edges.add(tuple(sorted((draw(st.sampled_from(ids)), 41))))
    elif defect == "triangle order" and triangles:
        a, b, c = draw(st.sampled_from(sorted(triangles)))
        triangles.add(draw(st.sampled_from([(b, a, c), (a, c, b), (c, b, a)])))
    elif defect == "missing triangle edge" and triangles:
        a, b, c = draw(st.sampled_from(sorted(triangles)))
        edges.discard(draw(st.sampled_from([(a, b), (a, c), (b, c)])))
    elif defect == "edge size" and edges:
        a, b = draw(st.sampled_from(sorted(edges)))
        edges.add(draw(st.sampled_from([(a,), (a, b, 41)])))
    elif defect == "triangle size" and triangles:
        a, b, c = draw(st.sampled_from(sorted(triangles)))
        triangles.add(draw(st.sampled_from([(a, b), (a, b, c, 41)])))
    return tuple(vertices), frozenset(edges), frozenset(triangles)


def _columns(rows, width):
    return [list(column) for column in zip(*rows)] or [[] for _ in range(width)]


@given(complex_parts())
@example(((), frozenset(), frozenset()))
def test_validation_matches_the_per_element_oracle(parts):
    """Through ``Complex`` and through columns handed over by a builder,
    whose simplices the oracle reads in column order (columns hold no row
    of the wrong size)."""
    vertices, edges, triangles = parts
    parts_ns = SimpleNamespace(vertices=vertices, edges=edges, triangles=triangles)
    assert _raised(lambda: complexes.Complex(vertices, edges, triangles)) == _raised(
        lambda: validate_oracle(parts_ns)
    )
    if {*map(len, edges)} - {2} or {*map(len, triangles)} - {3}:
        return
    columns = _columns(vertices, 3), _columns(edges, 2), _columns(triangles, 3)
    rows_ns = SimpleNamespace(
        vertices=vertices, edges=list(zip(*columns[1])), triangles=list(zip(*columns[2]))
    )
    assert _raised(lambda: complexes.Complex._of(*columns[0], *columns[1:])) == _raised(
        lambda: validate_oracle(rows_ns)
    )


def test_damaged_builds_raise_the_per_element_oracle_message():
    """Cutting vertex 0 off hangs triangles (1, 1, c) on 0/1; a vertex
    rehung on another edge leaves a triangle edge missing or none."""
    grow = farey._grow(3)
    for build in (cut_build(grow, 0), rehang_build(grow, 6, 0, 2), rehang_build(grow, 9, 3, 2)):
        grown = range(2, len(build.nums))
        rows = SimpleNamespace(
            vertices=[Vertex(i, KIND_SLOPE, "") for i in range(len(build.nums))],
            edges=[(0, 1), *zip(build.pa, grown), *zip(build.pb, grown)],
            triangles=list(zip(build.pa, build.pb, grown)),
        )
        assert _raised(lambda: farey._ball(build)) == _raised(lambda: validate_oracle(rows))


def _assert_columns_match_tuples(cpx, keeps):
    assert complexes.to_json(cpx) == to_json_oracle(cpx)
    assert complexes.is_forest(cpx) == is_forest_oracle(cpx)
    assert complexes.cone_check(cpx) == cone_check_tuples_oracle(cpx)
    for keep in keeps:
        sub = complexes.induced(cpx, keep)
        assert sub == induced_oracle(cpx, keep)
        assert complexes.to_json(sub) == to_json_oracle(sub)
        assert complexes.is_forest(sub) == is_forest_oracle(sub)


@pytest.mark.parametrize("depth", range(11))
def test_column_readers_match_the_tuple_oracles_on_balls(depth):
    ball = farey.stern_brocot_ball(depth)
    odd = farey.f_odd_subcomplex(ball)
    n = len(ball.vertices)
    keeps = ({v.id for v in odd.vertices}, range(n // 4), range(1, n, 3), ())
    _assert_columns_match_tuples(ball, keeps)
    _assert_columns_match_tuples(odd, keeps)


@pytest.mark.parametrize(
    "cpx",
    [complexes.haken_complex_model(*args) for args in ((1, 3, 3), (4, 3, 5), (6, 2, 4))]
    + [complexes.sp_tree_model(5, 3)]
    + [complexes.sp_cone_model(size) for size in (1, 2, 7)],
    ids=["graft-1-3-3", "graft-4-3-5", "graft-6-2-4", "tree-5-3", "cone-1", "cone-2", "cone-7"],
)
def test_column_readers_match_the_tuple_oracles_on_models(cpx):
    n = len(cpx.vertices)
    _assert_columns_match_tuples(cpx, (range(1, n), range(n // 2), range(0, n, 2), ()))


def test_readers_build_no_views():
    """The checks and writers read the columns: a derived complex that is
    only checked or written never builds its record views."""
    for cpx in (farey.f_odd_subcomplex(farey.stern_brocot_ball(4)),
                complexes.haken_complex_model(3, 3, 3), complexes.sp_tree_model(3, 3)):
        complexes.to_json(cpx), complexes.to_dot(cpx), complexes.neighbors(cpx)
        complexes.is_tree(cpx), complexes.cone_check(cpx)
        complexes.induced(cpx, range(5))
        assert not vars(cpx).keys() & {"vertices", "edges", "triangles"}


@given(
    st.lists(st.integers(-30, 30), unique=True, max_size=10).flatmap(
        lambda ids: st.tuples(st.just(ids), _simplices(ids, 2, 12))
    )
)
@example(([], []))
@example(([-5, 3, 9], [(-5, 3), (3, 9), (-5, 9)]))
@example(([-5, 3, 9, 20], [(-5, 9), (3, 20)]))
@example(([0, 1, 2], [(0, 2), (1, 2)]))  # a tree without distinct larger ends
@example(([0, 1, 2], [(0, 1), (0, 2), (1, 2)]))
@example(([-7, 4, 11, 30], [(-7, 4), (4, 11), (11, 30)]))  # a path with distinct larger ends
@example(([-7, 4, 11, 30], [(-7, 30), (4, 30), (4, 11)]))  # a path without them
def test_forest_and_tree_match_the_counting_oracle(graph):
    """Scattered ids, cycles, several components and the empty graph, with
    and without the certificate of distinct larger ends."""
    ids, edges = graph
    cpx = complexes.Complex(
        tuple(Vertex(i, KIND_BLACK, str(i)) for i in ids), frozenset(edges)
    )
    assert (complexes.is_forest(cpx), complexes.is_tree(cpx)) == forest_oracle(
        ids, cpx.edges
    )


def test_a_repeated_edge_row_is_no_forest():
    """Columns handed to ``Complex._of`` may repeat a row: a 2-cycle, which
    fails the certificate and is caught by union-find."""
    cpx = complexes.Complex._of([0, 1, 2], [KIND_BLACK] * 3, ["a", "b", "c"], ([0, 1, 0], [1, 2, 1]))
    assert not complexes.is_forest(cpx) and not complexes.is_tree(cpx)
    assert forest_oracle(cpx._ids, list(zip(*cpx._edge_ends))) == (False, False)


def _feasible_grafts():
    """The parameter grid of acceptance criterion 6, infeasible points left out."""
    for depth, blacks, whites in itertools.product(range(7), range(1, 7), range(1, 9)):
        try:
            yield complexes.haken_complex_model(blacks, whites, depth)
        except ValueError:
            pass


def test_every_builder_leaves_distinct_larger_ends():
    """The tree checks take the certificate, not union-find, on every library
    build: odd subcomplexes, bipartite trees, grafts and cone rims."""
    builds = [farey.f_odd_subcomplex(farey.stern_brocot_ball(depth)) for depth in range(11)]
    builds += [complexes.sp_tree_model(blacks, whites) for blacks in (1, 2, 9, 40) for whites in (2, 3, 5)]
    builds += _feasible_grafts()
    assert len(builds) > 200
    ends = [cpx._edge_ends[1] for cpx in builds]
    for size in range(1, 51):
        cone = complexes.sp_cone_model(size)
        apex = cone._ids[cone._kinds.index(KIND_APEX)]
        ends.append([b for a, b in zip(*cone._edge_ends) if apex not in (a, b)])
        assert len(ends[-1]) == size - 1
    for eb in ends:
        assert len(set(eb)) == len(eb)


def test_simplex_rows_of_the_wrong_size_are_named():
    """A row of the wrong size is the first defect named, by ``Complex``,
    ``make_complex`` and the oracle alike."""
    three = tuple(Vertex(i, KIND_BLACK, "abc"[i]) for i in range(3))
    cases = [
        ((three, [(0, 1, 2), (1, 2)]), "bad edge (0, 1, 2)"),
        ((three + three[:1], [(1, 2), (0,)]), "bad edge (0)"),
        ((three, [(0, 1), (0, 2), (1, 2)], [(0, 1)]), "bad triangle (0, 1)"),
        ((three, [(0, 1), (1, 2), (0, 2)], [(0, 1, 2), (2, 1, 0, 2)]), "bad triangle (2, 1, 0, 2)"),
    ]
    for args, message in cases:
        rows = SimpleNamespace(vertices=args[0], edges=frozenset(args[1]),
                               triangles=frozenset(args[2] if len(args) > 2 else ()))
        assert _raised(lambda: complexes.Complex(rows.vertices, rows.edges, rows.triangles)) == message
        assert _raised(lambda: validate_oracle(rows)) == message
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert _raised(lambda: complexes.make_complex(three, [(2, 1, 0), (1, 2)])) == "bad edge (0, 1, 2)"
    assert _raised(lambda: complexes.make_complex(three, triangle, [(1, 0)])) == "bad triangle (0, 1)"


@st.composite
def cone_like(draw):
    """Scattered ids of any kinds and random edges, with one drawn vertex
    made an apex and joined to all or to some of the others: true cones,
    a missed base vertex, a cyclic base and a second apex all occur."""
    ids = draw(st.lists(st.integers(-40, 40), unique=True, max_size=9))
    kind_of = [draw(st.sampled_from(complexes.KINDS)) for _ in ids]
    edges = set(draw(_simplices(ids, 2, 8)))
    if ids:
        j = draw(st.integers(0, len(ids) - 1))
        kind_of[j] = KIND_APEX
        joined = draw(st.sampled_from([ids, draw(st.lists(st.sampled_from(ids)))]))
        edges |= {tuple(sorted((ids[j], i))) for i in joined if i != ids[j]}
    return complexes.Complex(
        tuple(Vertex(i, k, f"v{i}") for i, k in zip(ids, kind_of)), frozenset(edges)
    )


@given(cone_like())
@example(complexes.sp_cone_model(4))
@example(complexes.sp_tree_model(2, 2))
def test_cone_check_matches_the_neighbors_oracle(cpx):
    assert complexes.cone_check(cpx) == cone_check_oracle(cpx)


@given(st.one_of(complex_parts(("none",)).map(lambda parts: complexes.Complex(*parts)),
                 cone_like()), st.data())
@example(complexes.Complex((), frozenset()), None)
def test_column_readers_match_the_tuple_oracles_on_drawn_complexes(cpx, data):
    """Scattered ids, isolated vertices, apexes and the empty complex."""
    ids = [v.id for v in cpx.vertices]
    keep = data.draw(st.sets(st.sampled_from(ids))) if data and ids else set()
    _assert_columns_match_tuples(cpx, (keep, ids))
