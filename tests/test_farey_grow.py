"""The frontier-grown Farey ball, the one-build reach check and the odd
graft tree against the rescan oracles in ``helpers``."""

import pytest

from heegaard2 import complexes, farey

from helpers import (
    odd_graft_tree_oracle,
    odd_subcomplex_oracle,
    reach_oracle,
    stern_brocot_ball_oracle,
)


@pytest.mark.parametrize("depth", range(11))
def test_ball_matches_rescan_oracle(depth):
    ball = farey.stern_brocot_ball(depth)
    oracle = stern_brocot_ball_oracle(depth)
    assert complexes.to_json(ball) == complexes.to_json(oracle)
    assert complexes.to_json(farey.f_odd_subcomplex(ball)) == complexes.to_json(
        odd_subcomplex_oracle(oracle)
    )


def test_reach_matches_two_ball_oracle():
    for depth in range(9):
        for margin in range(4):
            assert farey.odd_vertices_reach_infinity(depth, margin) == reach_oracle(
                depth, margin
            ), (depth, margin)


def test_ball_is_the_id_prefix_of_a_deeper_ball():
    for depth in range(9):
        deeper = farey.stern_brocot_ball(depth + 2)
        prefix = complexes.induced(deeper, range(2 ** (depth + 2)))
        assert prefix == farey.stern_brocot_ball(depth), depth


def test_odd_graft_tree_matches_oracle():
    for depth in range(7):
        slots, local_edges = complexes._odd_graft_tree(depth)
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
    monkeypatch.setattr(complexes, "_odd_graft_tree", odd_graft_tree_oracle)
    for args, got in zip(grid, built):
        assert got == _model_or_error(*args), args


def test_reach_sees_every_odd_vertex_of_the_small_ball(monkeypatch):
    # the verdict is true at every depth, so cut the last odd vertex of the
    # depth-2 ball off the grown ball and expect it to be missed
    grow = farey._grow

    def cut(depth):
        slopes, edges, triangles, sizes = grow(depth)
        lost = max(i for i in range(sizes[2]) if farey.is_odd_vertex(slopes[i]))
        return slopes, {e for e in edges if lost not in e}, triangles, sizes

    monkeypatch.setattr(farey, "_grow", cut)
    assert not farey.odd_vertices_reach_infinity(2)
    assert farey.odd_vertices_reach_infinity(1)


@pytest.mark.parametrize("depth", [0, 3])
def test_reach_rejects_negative_margin(depth):
    with pytest.raises(ValueError, match="margin"):
        farey.odd_vertices_reach_infinity(depth, margin=-1)


def test_reach_rejects_negative_depth():
    with pytest.raises(ValueError, match="depth"):
        farey.odd_vertices_reach_infinity(-1, margin=2)


@pytest.mark.parametrize(
    "collapsed",
    [farey.Slope(1, 1), farey.Slope(0, 1)],
    ids=["repeats-a-vertex", "no-new-apex"],
)
def test_grow_rejects_an_apex_that_is_not_fresh(monkeypatch, collapsed):
    # the edge 1/0 - 1/1 (apex 0/1) would grow 2/1; mapping 2/1 onto 1/1
    # offers one candidate that is already a vertex, onto 0/1 none at all
    normalize = farey.slope_normalize

    def collapse(n, d):
        s = normalize(n, d)
        return collapsed if s == farey.Slope(2, 1) else s

    monkeypatch.setattr(farey, "slope_normalize", collapse)
    with pytest.raises(AssertionError, match="one new apex"):
        farey.stern_brocot_ball(1)
