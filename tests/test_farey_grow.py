"""The Farey ball grown off its parent table, its odd-parent column, the
one-build reach check, the odd subtree and the bipartite disk-sphere tree
against the frontier, rescan and deque oracles in ``helpers`` and the
labelled odd subcomplex."""

import builtins
import random
import sys
import threading
from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heegaard2 import complexes, farey

from helpers import (
    cut_build,
    grow_frontier_oracle,
    odd_graft_tree_oracle,
    odd_subcomplex_oracle,
    reach_oracle,
    rehang_build,
    sp_tree_model_oracle,
    stern_brocot_ball_oracle,
)


def _base_table():
    """A Farey table of the base rows on columns of its own."""
    base = farey._BASE
    return 0, farey._Build(list(range(4)), [s.n for s in base], [s.d for s in base], [0, 0], [1, 1])


@pytest.fixture
def fresh_table(monkeypatch):
    """Start the process's Farey table again from its base rows, so that
    every round the test asks for runs; the table comes back afterwards."""
    monkeypatch.setattr(farey, "_table", _base_table())


@pytest.mark.parametrize("depth", range(15))
def test_grow_matches_the_frontier_oracle(depth):
    assert farey._grow(depth) == grow_frontier_oracle(depth)


def test_frontier_oracle_rounds_follow_the_closed_form():
    # the round that grows ids L..2L-1 (H = L/2) puts L + k on the edge from
    # k // 2 to H + k for k < H, and for k >= H to the ids H..L-1 ordered
    # stably by pb, each id in [H/2, H) being the pb of exactly two of them
    depth = 12
    build = grow_frontier_oracle(depth)
    pa, pb = build.pa, build.pb
    for L in (2 ** (r + 1) for r in range(1, depth + 1)):
        H = L // 2
        assert pa[L - 2 : 2 * L - 2] == [k // 2 for k in range(L)], L
        assert sorted(pb[H - 2 : L - 2]) == [v for v in range(H // 2, H) for _ in "ab"], L
        assert pb[L - 2 : L + H - 2] == list(range(H, L)), L
        assert pb[L + H - 2 : 2 * L - 2] == sorted(range(H, L), key=lambda c: pb[c - 2]), L


def test_grow_shares_one_int_object_per_id():
    build = farey._grow(8)
    ends = build.pa + build.pb
    assert len({id(i) for i in ends}) == len(set(ends))


def test_ball_columns_share_one_int_object_per_id():
    # the interpreter shares the ints up to 256 anyway; the depth-8 ball's
    # ids run to 1023, so its columns share objects only if _ball reuses them
    ball = farey.stern_brocot_ball(8)
    objects = {id(i) for i in ball._ids}
    assert len(objects) == len(ball._ids)
    for column in (*ball._edge_ends, *ball._triangle_ends):
        assert objects.issuperset(map(id, column))


@pytest.mark.usefixtures("fresh_table")
@pytest.mark.parametrize("denominator", [5, 7, 12])
def test_grow_names_the_first_bad_edge_in_frontier_order(monkeypatch, denominator):
    # wherever a + b has this denominator, offer a - b twice: 4, 8 and 4
    # edges of one round fail, and the library names the one the frontier
    # met first
    mediants = farey._mediants

    def damage(an, ad, bn, bd):
        pn, pd, mn, md = mediants(an, ad, bn, bd)
        return (mn, md, mn, md) if pd == denominator else (pn, pd, mn, md)

    monkeypatch.setattr(farey, "_mediants", damage)
    with pytest.raises(AssertionError, match="one new apex on edge") as raised:
        farey._grow(8)
    with pytest.raises(AssertionError) as expected:
        grow_frontier_oracle(8)
    assert str(raised.value) == str(expected.value)


@pytest.mark.usefixtures("fresh_table")
def test_grow_rejects_a_round_whose_pb_column_breaks_the_closed_form(monkeypatch):
    # reverse the pb order of the ids grown last from the second round on:
    # the round's second half then pairs ids with the wrong edge ends, and
    # its first such edge has no fresh apex
    def reversed_by_key(items, key=None):
        ordered = builtins.sorted(items, key=key)
        return ordered[::-1] if key is not None and len(ordered) > 2 else ordered

    monkeypatch.setattr(farey, "sorted", reversed_by_key, raising=False)
    assert farey._grow(1) == grow_frontier_oracle(1)
    with pytest.raises(AssertionError, match=r"^expected one new apex on edge 1/1--1/2$"):
        farey._grow(2)


@pytest.mark.usefixtures("fresh_table")
def test_a_failing_round_publishes_nothing(monkeypatch):
    farey._grow(3)
    published = farey._table
    mediants = farey._mediants

    def damage(an, ad, bn, bd):
        pn, pd, mn, md = mediants(an, ad, bn, bd)
        return (mn, md, mn, md) if pd == 7 else (pn, pd, mn, md)

    with monkeypatch.context() as damaged:
        damaged.setattr(farey, "_mediants", damage)
        with pytest.raises(AssertionError, match="one new apex on edge"):
            farey._grow(8)
    assert farey._table is published
    assert published[0] == 3
    for depth in range(10):
        assert farey._grow(depth) == grow_frontier_oracle(depth), depth


_oracle_build = cache(grow_frontier_oracle)


def _columns(c):
    return c._ids, c._kinds, c._labels, c._edge_ends, c._triangle_ends


@cache
def _fresh_ball_columns(depth):
    with pytest.MonkeyPatch.context() as fresh:
        fresh.setattr(farey, "_table", _base_table())
        return _columns(farey.stern_brocot_ball(depth))


@given(st.lists(st.integers(0, 10), min_size=1, max_size=6))
def test_any_order_of_depths_serves_each_build_and_ball_as_grown_afresh(depths):
    # the columns of a build or ball stay as they were when later requests
    # extend the table past it
    with pytest.MonkeyPatch.context() as fresh:
        fresh.setattr(farey, "_table", _base_table())
        served = []
        for depth in depths:
            build = farey._grow(depth)
            assert build == _oracle_build(depth), depth
            ball = farey.stern_brocot_ball(depth)
            assert _columns(ball) == _fresh_ball_columns(depth), depth
            served.append((depth, build, ball))
    for depth, build, ball in served:
        assert build == _oracle_build(depth), depth
        assert _columns(ball) == _fresh_ball_columns(depth), depth


def test_threads_growing_shuffled_depths_each_get_the_oracle_build(monkeypatch):
    # four threads share one table from its base rows; a short switch
    # interval makes them interleave within rounds
    depths = range(11)
    grown = [[] for _ in range(4)]

    def work(k):
        order = random.Random(k).sample(depths, len(depths))
        grown[k] += ((depth, farey._grow(depth)) for depth in order)

    interval = sys.getswitchinterval()
    for _ in range(3):
        monkeypatch.setattr(farey, "_table", _base_table())
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
    for served in grown:
        assert sorted(depth for depth, _ in served) == sorted(list(depths) * 3)
        for depth, build in served:
            assert build == _oracle_build(depth), depth


@pytest.mark.parametrize("depth", range(11))
def test_ball_matches_rescan_oracle(depth):
    ball = farey.stern_brocot_ball(depth)
    oracle = stern_brocot_ball_oracle(depth)
    assert complexes.to_json(ball) == complexes.to_json(oracle)
    assert complexes.to_json(farey.f_odd_subcomplex(ball)) == complexes.to_json(
        odd_subcomplex_oracle(oracle)
    )


def test_reach_matches_two_ball_oracle():
    # the oracle looks for 1/0 in balls up to 3 rounds deeper: the answer
    # does not depend on how much deeper
    for depth in range(9):
        reach = farey.odd_vertices_reach_infinity(depth)
        assert reach == farey.odd_tree_check(depth)[1], depth
        for margin in range(4):
            assert reach == reach_oracle(depth, margin), (depth, margin)


@pytest.mark.parametrize("depth", range(13))
def test_odd_tree_check_forest_matches_the_odd_subcomplex(depth):
    odd = farey.f_odd_subcomplex(farey.stern_brocot_ball(depth))
    assert farey.odd_tree_check(depth)[0] == complexes.is_forest(odd)


def test_ball_is_the_id_prefix_of_a_deeper_ball():
    for depth in range(9):
        deeper = farey.stern_brocot_ball(depth + 2)
        prefix = complexes.induced(deeper, range(2 ** (depth + 2)))
        assert prefix == farey.stern_brocot_ball(depth), depth


def test_odd_graft_tree_matches_oracle():
    for depth in range(11):
        slots, local_edges = farey.odd_subtree(depth)
        oracle_slots, oracle_edges = odd_graft_tree_oracle(depth)
        assert slots == oracle_slots, depth
        assert sorted(tuple(sorted(e)) for e in local_edges) == oracle_edges, depth


def _model_or_error(blacks, whites, depth):
    try:
        model = complexes.haken_complex_model(blacks, whites, depth)
    except ValueError as exc:
        return str(exc)
    return model.vertices, model.edges


def test_haken_model_matches_oracle_graft_on_criterion_6_grid(monkeypatch):
    grid = [
        (blacks, whites, depth)
        for depth in range(7)
        for blacks in range(1, 7)
        for whites in range(1, 9)
    ]
    built = [_model_or_error(*args) for args in grid]
    monkeypatch.setattr(farey, "odd_subtree", odd_graft_tree_oracle)
    for args, got in zip(grid, built):
        assert got == _model_or_error(*args), args


def test_odd_subtree_edges_run_from_earlier_to_later_bfs_positions():
    for depth in range(11):
        slots, local_edges = farey.odd_subtree(depth)
        assert slots[0] == "1/0"
        assert all(i < j for i, j in local_edges), depth
        # a tree on the slots, each vertex but 1/0 hanging on one earlier one
        assert sorted(j for _, j in local_edges) == list(range(1, len(slots))), depth


def test_odd_subtree_and_ball_labels_read_back_through_slope_from_label():
    labels = farey.odd_subtree(10)[0] + [v.label for v in farey.stern_brocot_ball(10).vertices]
    for label in labels:
        assert str(farey.slope_from_label(label)) == label


def _tree_or_error(build, blacks, whites):
    try:
        return build(blacks, whites)
    except ValueError as exc:
        return str(exc)


def test_sp_tree_model_matches_the_deque_oracle():
    for blacks in range(41):
        for whites in range(9):
            assert _tree_or_error(complexes.sp_tree_model, blacks, whites) == _tree_or_error(
                sp_tree_model_oracle, blacks, whites
            ), (blacks, whites)


def test_reach_sees_every_odd_vertex_of_the_small_ball(monkeypatch):
    # the verdict is true at every depth, so cut the last odd vertex of the
    # depth-2 ball off the grown ball and expect it to be missed
    grow = farey._grow
    build = grow(2)
    lost = max(i for i in range(len(build.nums)) if build.nums[i] % 2)

    def cut(depth):
        return cut_build(grow(depth), lost)

    monkeypatch.setattr(farey, "_grow", cut)
    assert not farey.odd_vertices_reach_infinity(2)
    assert farey.odd_vertices_reach_infinity(1)


def test_reach_rejects_negative_depth():
    with pytest.raises(ValueError, match="depth"):
        farey.odd_vertices_reach_infinity(-1)
    with pytest.raises(ValueError, match="depth"):
        farey.odd_tree_check(-1)


@pytest.mark.usefixtures("fresh_table")
@pytest.mark.parametrize(
    "wrong, collapsed",
    [
        (farey.Slope(2, 1), farey.Slope(1, 1)),
        (farey.Slope(2, 1), farey.Slope(0, 1)),
        (farey.Slope(0, 1), farey.Slope(5, 1)),
    ],
    ids=["repeats-a-vertex", "no-new-apex", "two-new-apexes"],
)
def test_grow_rejects_an_apex_that_is_not_fresh(monkeypatch, wrong, collapsed):
    # the first edge 1/0 - 1/1 (apex 0/1) offers 2/1 and 0/1; mapping 2/1
    # onto 1/1 offers one candidate that is already a vertex, onto 0/1 none
    # at all, and mapping 0/1 onto 5/1 offers two new candidates
    mediants = farey._mediants

    def collapse(an, ad, bn, bd):
        pn, pd, mn, md = mediants(an, ad, bn, bd)
        slopes = (farey.Slope(pn, pd), farey.Slope(mn, md))
        p, m = (collapsed if s == wrong else s for s in slopes)
        return (*p, *m)

    monkeypatch.setattr(farey, "_mediants", collapse)
    with pytest.raises(AssertionError, match="one new apex"):
        farey.stern_brocot_ball(1)


def test_grow_rejects_an_edge_that_is_not_adjacent(monkeypatch):
    # base slopes scaled to determinant 2: the edge 1/0 - 1/2 (apex 0/2)
    # offers 2/2 as its one new apex, so only the adjacency check fails
    base = (farey.Slope(1, 0), farey.Slope(0, 2), farey.Slope(1, 2), farey.Slope(-1, 2))
    monkeypatch.setattr(farey, "_BASE", base)
    monkeypatch.setattr(farey, "_table", _base_table())
    farey.stern_brocot_ball(0)
    with pytest.raises(AssertionError, match="one new apex on edge 1/0-1/2"):
        farey.stern_brocot_ball(1)


def _recording_grow(monkeypatch, damage=lambda build: build):
    calls = []
    grow = farey._grow

    def recorded(depth):
        calls.append(depth)
        build = grow(depth)
        return damage(build) if len(calls) == 1 else build

    monkeypatch.setattr(farey, "_grow", recorded)
    return calls


@pytest.mark.parametrize("depth", [0, 3, 5])
def test_reach_builds_one_ball_when_it_passes(monkeypatch, depth):
    calls = _recording_grow(monkeypatch)
    assert farey.odd_vertices_reach_infinity(depth)
    assert calls == [depth]


@pytest.mark.parametrize("depth", [2, 4])
def test_reach_grows_one_ball_when_it_fails(monkeypatch, depth):
    # cut the build's edges at 1/0: the verdict is false, and no deeper
    # ball is grown to look for another way round
    calls = _recording_grow(monkeypatch, lambda build: cut_build(build, 0))
    assert not farey.odd_vertices_reach_infinity(depth)
    assert calls == [depth]


@pytest.mark.parametrize("depth", range(13))
def test_odd_parent_column_matches_the_odd_subcomplex(depth):
    # oracle: neighbor lists of the odd subcomplex of the labelled ball
    odd = farey.f_odd_subcomplex(farey.stern_brocot_ball(depth))
    adj = complexes.neighbors(odd)
    column, forest, reach = farey._odd_parents(farey._grow(depth))
    assert (forest, reach) == (complexes.is_forest(odd), True)
    assert column[0] == -1
    for v in range(1, len(column)):
        if v in adj:
            smaller = [w for w in adj[v] if w < v]
            assert smaller == [column[v]], v
        else:
            assert column[v] == -1, v
    assert sorted(v for v in adj if v) == [v for v, p in enumerate(column) if p >= 0]


def test_each_verdict_fails_on_its_own():
    build = farey._grow(3)
    lost = max(i for i in range(len(build.nums)) if build.nums[i] % 2)
    _, forest, reach = farey._odd_parents(cut_build(build, lost))
    assert (forest, reach) == (True, False)
    # 1/2 (id 6, a leaf of the depth-1 ball) on the odd edge 1/0 - 1/1
    # (ids 0, 2): the three span an odd triangle
    damaged = rehang_build(farey._grow(1), 6, 0, 2)
    column, forest, reach = farey._odd_parents(damaged)
    assert (forest, reach) == (False, True)
    assert column[6] == 0
    assert not complexes.is_forest(farey.f_odd_subcomplex(farey._ball(damaged)))
