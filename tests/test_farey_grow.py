"""The Farey ball grown off its parent table, its odd-parent column, the
one-build reach check, the odd subtree and the bipartite disk-sphere tree
against the frontier, rescan and deque oracles in ``helpers`` and the
labelled odd subcomplex."""

import builtins
import random
import sys
import threading
from functools import cache
from itertools import repeat
from operator import is_

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heegaard2 import complexes, farey

from helpers import (
    cut_build,
    f_odd_subcomplex_oracle,
    grow_frontier_oracle,
    odd_graft_tree_oracle,
    odd_mask_columns,
    odd_subcomplex_oracle,
    reach_oracle,
    rehang_build,
    sp_tree_model_oracle,
    stern_brocot_ball_oracle,
)


def _base_table(patch):
    """Through ``patch``, start the process's Farey table again from the base
    rows, on columns of its own, and its row store again from nothing."""
    base = farey._BASE
    rows = farey._Build(list(range(4)), [s.n for s in base], [s.d for s in base], [0, 0], [1, 1])
    patch.setattr(farey, "_table", (0, rows))
    patch.setattr(farey, "_store", dict.fromkeys(farey._store, ()))


@pytest.fixture
def fresh_table(monkeypatch):
    """Start the process's Farey table and row store again from the base
    rows, so that every round and row the test asks for is made; both come
    back afterwards."""
    _base_table(monkeypatch)


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


@cache
def _oracle_labels(depth):
    build = _oracle_build(depth)
    return tuple(str(farey.Slope(n, d)) for n, d in zip(build.nums, build.dens))


@cache
def _oracle_store(depth):
    """The columns of ``farey._store`` for the depth-``depth`` ball, made
    from the frontier oracle's build: its row columns, the row counts a
    served ball can have, and the odd vertices with their labels and the odd
    edge rows (pa, c) and (pb, c), from which ``_odd_cut`` picks a cut."""
    build, labels = _oracle_build(depth), _oracle_labels(depth)
    grown, odd = build.ids[2:], [n % 2 for n in build.nums]
    odd_edges = ([(a, c) for a, c in zip(ends, grown) if odd[a] and odd[c]] for ends in (build.pa, build.pb))
    return {
        "labels": labels,
        "vertices": tuple(map(complexes.Vertex, build.ids, repeat(complexes.KIND_SLOPE), labels)),
        "pa": tuple(zip(build.pa, grown)),
        "pb": tuple(zip(build.pb, grown)),
        "triangles": tuple(zip(build.pa, build.pb, grown)),
        "checked": range(2, len(labels) + 1),
        "odd": ([i for i in build.ids if odd[i]], [label for label, o in zip(labels, odd) if o], *odd_edges),
    }


def _odd_cut(depth, n):
    """The stored odd cut of the ball on the first n rows of the table, as
    (n, odd ids, their labels, odd edge rows (pa, c) by c, then (pb, c) by c)."""
    ids, labels, *edges = _oracle_store(depth)["odd"]
    k = sum(i < n for i in ids)
    return n, ids[:k], labels[:k], *([(a, c) for a, c in rows if c < n] for rows in edges)


def _assert_store_is_an_oracle_prefix(depth):
    oracle = _oracle_store(depth)
    for name, column in farey._store.items():
        if name == "checked":
            assert set(column) <= set(oracle[name]), name
        elif name == "odd" and column:
            n, ids, labels, ends, m = column
            rows = list(zip(*ends))
            assert (n, list(ids), list(labels), rows[:m], rows[m:]) == _odd_cut(depth, n), name
        elif name != "odd":
            assert column == oracle[name][: len(column)], name


def _columns(c):
    return c._ids, c._kinds, c._labels, c._edge_ends, c._triangle_ends


@cache
def _fresh_ball_columns(depth):
    with pytest.MonkeyPatch.context() as fresh:
        _base_table(fresh)
        return _columns(farey.stern_brocot_ball(depth))


@given(st.lists(st.integers(0, 10), min_size=1, max_size=6))
def test_any_order_of_depths_serves_each_build_and_ball_as_grown_afresh(depths):
    # the columns of a build or ball stay as they were when later requests
    # extend the table or the label column past it, and every label column
    # is a prefix of the oracle's labels
    with pytest.MonkeyPatch.context() as fresh:
        _base_table(fresh)
        served = []
        for depth in depths:
            build = farey._grow(depth)
            assert build == _oracle_build(depth), depth
            ball = farey.stern_brocot_ball(depth)
            assert _columns(ball) == _fresh_ball_columns(depth), depth
            assert ball._labels == _oracle_labels(depth), depth
            _assert_store_is_an_oracle_prefix(10)
            served.append((depth, build, ball))
    for depth, build, ball in served:
        assert build == _oracle_build(depth), depth
        assert _columns(ball) == _fresh_ball_columns(depth), depth
        assert ball._labels == _oracle_labels(depth), depth


def _fields(c):
    return c.vertices, c.edges, c.triangles


_oracle_fields = cache(lambda depth: _fields(stern_brocot_ball_oracle(depth)))


def _rows_are_the_stores(ball):
    """Every row of the ball's fields but the edge (0, 1) is a row object
    of the store, as made once."""
    stored = {id(row) for column in farey._store.values() for row in column}
    rows = (*ball.vertices, *ball.edges - {(0, 1)}, *ball.triangles)
    return all(id(row) in stored for row in rows)


@given(st.lists(st.integers(0, 8), min_size=1, max_size=6),
       st.permutations(["vertices", "edges", "triangles"]), st.integers(0, 3))
def test_served_balls_read_in_any_order_have_the_fields_of_a_plain_complex(depths, order, reads):
    # whatever balls came before and whichever of its fields were read first,
    # a served ball equals, hashes and prints as the plain complex on its
    # columns (whose frozensets are built in the same row order), its rows
    # are the store's, and the store holds only rows of the table's prefixes
    with pytest.MonkeyPatch.context() as fresh:
        _base_table(fresh)
        served = []
        for depth in depths:
            ball = farey.stern_brocot_ball(depth)
            assert type(ball) is complexes._Served, depth
            for name in order[:reads]:
                getattr(ball, name)
            _assert_store_is_an_oracle_prefix(8)
            served.append((depth, ball))
        for depth, ball in served:
            plain = complexes.Complex._of(*_columns(ball))
            rows = complexes.Complex(plain.vertices, zip(*ball._edge_ends), zip(*ball._triangle_ends))
            assert _fields(ball) == _fields(plain) == _fields(rows) == _oracle_fields(depth), depth
            assert ball == plain == rows and hash(ball) == hash(plain) == hash(rows), depth
            assert repr(ball) == repr(plain), depth
            assert _rows_are_the_stores(ball), depth
        _assert_store_is_an_oracle_prefix(8)


_oracle_odd_fields = cache(lambda depth: _fields(odd_subcomplex_oracle(stern_brocot_ball_oracle(depth))))


def test_threads_growing_shuffled_depths_each_get_the_oracle_build(monkeypatch):
    # four threads share one table and row store from the base rows; a
    # short switch interval makes them interleave within rounds
    depths = range(11)
    grown = [[] for _ in range(4)]

    def work(k):
        order = random.Random(k).sample(depths, len(depths))
        for depth in order:
            build, ball = farey._grow(depth), farey.stern_brocot_ball(depth)
            odd = farey.f_odd_subcomplex(ball)
            grown[k].append((depth, build, ball._labels, _fields(ball), _fields(odd)))

    interval = sys.getswitchinterval()
    for _ in range(3):
        _base_table(monkeypatch)
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
        _assert_store_is_an_oracle_prefix(10)
    for served in grown:
        assert sorted(depth for depth, *_ in served) == sorted(list(depths) * 3)
        for depth, build, labels, fields, odd in served:
            assert build == _oracle_build(depth), depth
            assert labels == _oracle_labels(depth), depth
            assert fields == _oracle_fields(depth), depth
            assert odd == _oracle_odd_fields(depth), depth


@given(st.lists(st.tuples(st.integers(0, 10), st.integers(2, 4 << 10)), min_size=1, max_size=6))
def test_served_odd_subcomplexes_in_any_order_are_the_oracles_and_the_mask_cuts(requests):
    # balls of any row count n on the table, in any order of depths: each odd
    # subcomplex, a slice of the one stored cut below n, is the label oracle's
    # and prints and renders as the complex on the parity-mask columns
    with pytest.MonkeyPatch.context() as fresh:
        _base_table(fresh)
        for depth, count in requests:
            n = min(count, 4 << depth)
            ball = farey._ball(farey._prefix(farey._grow(depth), n))
            assert type(ball) is complexes._Served, (depth, n)
            odd, masks = farey.f_odd_subcomplex(ball), complexes.Complex._of(*odd_mask_columns(ball))
            assert odd == f_odd_subcomplex_oracle(ball) == masks, (depth, n)
            assert repr(odd) == repr(masks), (depth, n)
            assert complexes.to_json(odd) == complexes.to_json(masks), (depth, n)
            _assert_store_is_an_oracle_prefix(10)


@pytest.mark.usefixtures("fresh_table")
def test_a_served_row_count_is_checked_until_a_ball_of_it_passes(monkeypatch):
    # a table whose vertex 21 hangs on 1/1 - -1/1, which is no edge, published
    # whole: each depth-3 ball fails the triangle check, a depth-2 ball (16
    # rows, all sound) passes it, and a second depth-2 ball is not checked
    damaged = rehang_build(farey._grow(3), 21, 2, 3)
    monkeypatch.setattr(farey, "_table", (3, damaged))
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^triangle \(2, 3, 21\) is missing edge \(2, 3\)$"):
            farey.stern_brocot_ball(3)
    assert farey._store["checked"] == ()
    fill, filled = complexes.Complex._fill, []

    def spy(self, *columns):
        filled.append(len(columns[0]))
        return fill(self, *columns)

    monkeypatch.setattr(complexes.Complex, "_fill", spy)
    first, second = farey.stern_brocot_ball(2), farey.stern_brocot_ball(2)
    assert filled == [16]
    assert farey._store["checked"] == (16,)
    assert _columns(first) == _columns(second) == _fresh_ball_columns(2)
    assert _fields(second) == _oracle_fields(2)


@pytest.mark.usefixtures("fresh_table")
def test_a_table_grown_meanwhile_deeper_stays_published(monkeypatch):
    # while _grow(8) grows from depth 3, its first apex grows the table to
    # depth 10 re-entrantly; _grow(8) returns its own build and leaves the
    # deeper table published
    farey._grow(3)
    mediants, inner = farey._mediants, []

    def reenter(*ends):
        if not inner:
            inner.append(None)
            inner[0] = farey._grow(10)
        return mediants(*ends)

    monkeypatch.setattr(farey, "_mediants", reenter)
    assert farey._grow(8) == _oracle_build(8)
    assert farey._table == (10, inner[0])
    assert inner[0] == _oracle_build(10)


def _shift_nums_past(build, row):
    """The build with the numerator of ``row`` moved to the last row."""
    nums = build.nums[:row] + build.nums[row + 1 :] + build.nums[row : row + 1]
    return build._replace(nums=nums)


@pytest.mark.usefixtures("fresh_table")
def test_a_damaged_build_leaves_the_label_column_as_it_was():
    # a build deeper than the label column, its numerators shifted past row
    # 5, is no prefix of the table: it formats labels of its own, and the
    # balls made afterwards still read the labels of the table's slopes
    farey.stern_brocot_ball(1)
    column = farey._store["labels"]
    damaged = _shift_nums_past(farey._grow(4), 5)
    ball = farey._ball(damaged)
    assert ball._labels == [str(farey.Slope(n, d)) for n, d in zip(damaged.nums, damaged.dens)]
    assert _fields(ball) == _fields(complexes.Complex._of(*_columns(ball)))
    assert farey._store["labels"] is column
    assert farey.stern_brocot_ball(3)._labels == _oracle_labels(3)
    assert farey._store["labels"] == _oracle_labels(3)


@pytest.mark.parametrize(
    "damage",
    [
        lambda build: build._replace(ids=build.ids[:-2] + build.ids[:-3:-1]),
        lambda build: rehang_build(build, 21, 0, 2),
        lambda build: _shift_nums_past(build, 5),
    ],
    ids=["last-two-ids-swapped", "rehung", "shifted-nums"],
)
def test_a_build_that_is_no_prefix_of_the_table_is_not_served(damage):
    # one column off the table is enough: the ball is a plain complex with
    # labels of its own, and it is cut by its labels
    build = damage(farey._grow(3))
    column = farey._store["labels"]
    ball = farey._ball(build)
    assert type(ball) is complexes.Complex
    assert "_nums" not in vars(ball)
    assert farey._store["labels"] is column
    assert farey.f_odd_subcomplex(ball) == f_odd_subcomplex_oracle(ball)


def test_a_build_of_any_row_count_on_the_table_is_served():
    # a prefix need not end at a round: the first 21 rows of the table
    build = farey._grow(3)
    ids, nums, dens, pa, pb = build
    ball = farey._ball(farey._Build(ids[:21], nums[:21], dens[:21], pa[:19], pb[:19]))
    assert type(ball) is complexes._Served
    plain = complexes.Complex._of(*_columns(ball))
    assert _fields(ball) == _fields(plain)
    assert repr(ball) == repr(plain)
    assert farey.f_odd_subcomplex(ball) == f_odd_subcomplex_oracle(ball)


def test_odd_subcomplex_of_a_ball_on_shifted_ids_matches_the_label_oracle():
    # ids, pa and pb of the depth-2 build shifted by 100: the ids are not
    # row positions, so the ball is not served and is cut by its labels
    build = farey._grow(2)
    shift = [i + 100 for i in build.ids]
    ball = farey._ball(build._replace(ids=shift, pa=[shift[a] for a in build.pa], pb=[shift[b] for b in build.pb]))
    odd, oracle = farey.f_odd_subcomplex(ball), f_odd_subcomplex_oracle(ball)
    assert odd == oracle
    assert len(odd.vertices) == 11
    assert complexes.to_json(odd) == complexes.to_json(oracle)


@pytest.mark.usefixtures("fresh_table")
def test_only_making_a_ball_grows_the_label_column():
    farey.odd_tree_check(8)
    farey.odd_subtree(8)
    complexes.haken_complex_model(3, 2, 8)
    assert farey._store == dict.fromkeys(farey._store, ())
    farey.stern_brocot_ball(2)
    assert farey._store["labels"] == _oracle_labels(2)


@pytest.mark.usefixtures("fresh_table")
def test_a_served_ball_makes_the_rows_of_each_field_on_its_first_read():
    # the first ball of a row count reads its edges (the triangle check); its
    # vertex and triangle rows wait for their fields' first reads, and a ball
    # of a row count that has passed the checks reads no edge rows
    ball = farey.stern_brocot_ball(3)
    assert {name: len(column) for name, column in farey._store.items()} == {
        "labels": 32, "vertices": 0, "pa": 30, "pb": 30, "triangles": 0, "checked": 1, "odd": 0}
    assert ball.vertices is farey._store["vertices"]
    assert len(ball.triangles) == len(farey._store["triangles"]) == 30
    assert farey.stern_brocot_ball(1).vertices == farey._store["vertices"][:8]
    _assert_store_is_an_oracle_prefix(3)
    farey._store.update(pa=(), pb=())
    again = farey.stern_brocot_ball(3)
    assert farey._store["pa"] == farey._store["pb"] == ()
    assert again.edges == ball.edges
    assert farey._store["checked"] == (32, 8)


def _refuse(*args):
    raise AssertionError("cut a ball by its labels")


@pytest.mark.usefixtures("fresh_table")
def test_odd_subcomplex_of_a_ball_reads_parity_off_its_slopes(monkeypatch):
    # balls as first made, then as prefixes served after a deeper build;
    # neither the label grammar nor the id-set cut of induced is read
    monkeypatch.setattr(farey, "_SLOPE", None)
    monkeypatch.setattr(complexes, "induced", _refuse)
    for depth in [*range(11), *range(10, -1, -1)]:
        ball = farey.stern_brocot_ball(depth)
        odd, oracle = farey.f_odd_subcomplex(ball), f_odd_subcomplex_oracle(ball)
        assert odd == oracle, depth
        assert complexes.to_json(odd) == complexes.to_json(oracle), depth


@pytest.mark.parametrize(
    "depth, damage",
    [
        (1, lambda build: rehang_build(build, 6, 0, 2)),
        (3, lambda build: rehang_build(build, 21, 0, 2)),
        (4, lambda build: _shift_nums_past(build, 5)),
        (6, lambda build: _shift_nums_past(build, 40)),
    ],
    ids=["rehung-1", "rehung-3", "shifted-4", "shifted-6"],
)
def test_odd_subcomplex_of_a_damaged_ball_matches_the_label_oracle(depth, damage):
    # 1/2 or 3/4 hung on the odd edge 1/0 - 1/1 spans an odd triangle, and
    # shifted numerators leave odd edges and triangles all over the ball
    ball = farey._ball(damage(farey._grow(depth)))
    odd, oracle = farey.f_odd_subcomplex(ball), f_odd_subcomplex_oracle(ball)
    assert odd == oracle
    assert complexes.to_json(odd) == complexes.to_json(oracle)
    assert not complexes.is_forest(odd)


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
    _base_table(monkeypatch)
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
