import itertools
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from heegaard2 import complexes, farey
from heegaard2.farey import Slope
from helpers import f_odd_subcomplex_oracle, printed_slope


def labels(cpx):
    return {v.label for v in cpx.vertices}


def test_slope_normalize():
    assert farey.slope_normalize(2, 4) == Slope(1, 2)
    assert farey.slope_normalize(-3, -6) == Slope(1, 2)
    assert farey.slope_normalize(3, -6) == Slope(-1, 2)
    assert farey.slope_normalize(5, 0) == Slope(1, 0)
    assert farey.slope_normalize(-5, 0) == Slope(1, 0)
    assert farey.slope_normalize(0, 7) == Slope(0, 1)
    with pytest.raises(ValueError):
        farey.slope_normalize(0, 0)


def test_slope_labels_round_trip():
    for s in (Slope(1, 0), Slope(0, 1), Slope(-3, 2), Slope(7, 5)):
        assert farey.slope_from_label(str(s)) == s
    for v in farey.stern_brocot_ball(10).vertices:
        assert str(farey.slope_from_label(v.label)) == v.label


# labels that no Slope prints, each of which bare int() once read
@pytest.mark.parametrize(
    "label",
    ["0/0", "3/-4", "2/4", "5/0", "1_0/3", " 3/4", "+3/4", "\u0663/4", "-0/1", "-1/0", "03/4"],
)
def test_slope_from_label_rejects_what_str_never_writes(label):
    with pytest.raises(ValueError, match=re.escape(f"{label!r} is not a slope n/d")):
        farey.slope_from_label(label)


@given(
    st.text(alphabet="0123456789-/+_ \n\u0663", max_size=7)
    | st.builds("{}/{}".format, st.integers(-30, 30), st.integers(-3, 30))
)
@example("1/0")
@example("-1/0")
@example("0/1")
def test_slope_from_label_reads_exactly_what_str_writes(label):
    try:
        got = farey.slope_from_label(label)
    except ValueError:
        got = None
    assert got == printed_slope(label)


def test_farey_adjacent():
    assert farey.farey_adjacent(Slope(1, 0), Slope(1, 1))
    assert not farey.farey_adjacent(Slope(1, 0), Slope(1, 2))
    assert farey.farey_adjacent(Slope(1, 1), Slope(3, 2))
    # symmetric and invariant under negating both slopes
    pairs = [(Slope(1, 0), Slope(2, 1)), (Slope(1, 2), Slope(1, 3)), (Slope(0, 1), Slope(1, 1))]
    for a, b in pairs:
        assert farey.farey_adjacent(a, b) == farey.farey_adjacent(b, a)
        na, nb = Slope(-a.n, a.d), Slope(-b.n, b.d)
        assert farey.farey_adjacent(na, nb) == farey.farey_adjacent(a, b)


def test_ball_depth_zero():
    ball = farey.stern_brocot_ball(0)
    assert labels(ball) == {"1/0", "0/1", "1/1", "-1/1"}
    assert len(ball.triangles) == 2
    with pytest.raises(ValueError):
        farey.stern_brocot_ball(-1)


def test_ball_depth_one_adds_mediants():
    ball = farey.stern_brocot_ball(1)
    assert labels(ball) == {
        "1/0", "0/1", "1/1", "-1/1", "1/2", "2/1", "-1/2", "-2/1",
    }


def test_mediant_adjacent_to_parents():
    # both candidate apexes that _grow computes on an edge, a + b and a - b
    ball = farey.stern_brocot_ball(4)
    slope_of = {v.id: farey.slope_from_label(v.label) for v in ball.vertices}
    for a, b in ball.edges:
        sa, sb = slope_of[a], slope_of[b]
        pn, pd, mn, md = farey._mediants(*sa, *sb)
        assert Slope(pn, pd) == farey.slope_normalize(sa.n + sb.n, sa.d + sb.d)
        assert Slope(mn, md) == farey.slope_normalize(sa.n - sb.n, sa.d - sb.d)
        for m in (Slope(pn, pd), Slope(mn, md)):
            assert farey.farey_adjacent(m, sa)
            assert farey.farey_adjacent(m, sb)


def test_ball_is_flag_and_edge_complete():
    # at small depth, edges are exactly the determinant-one pairs and the
    # triangles are exactly the 3-cliques
    ball = farey.stern_brocot_ball(3)
    slope_of = {v.id: farey.slope_from_label(v.label) for v in ball.vertices}
    expected_edges = {
        tuple(sorted((i, j)))
        for i, j in itertools.combinations(slope_of, 2)
        if farey.farey_adjacent(slope_of[i], slope_of[j])
    }
    assert set(ball.edges) == expected_edges
    expected_triangles = {
        tuple(sorted(t))
        for t in itertools.combinations(slope_of, 3)
        if all(
            tuple(sorted(e)) in expected_edges
            for e in itertools.combinations(t, 2)
        )
    }
    assert set(ball.triangles) == expected_triangles


def test_triangle_vertices_pairwise_adjacent():
    ball = farey.stern_brocot_ball(5)
    slope_of = {v.id: farey.slope_from_label(v.label) for v in ball.vertices}
    for a, b, c in ball.triangles:
        assert farey.farey_adjacent(slope_of[a], slope_of[b])
        assert farey.farey_adjacent(slope_of[a], slope_of[c])
        assert farey.farey_adjacent(slope_of[b], slope_of[c])


def test_f_odd_small_induced_example():
    slopes = [Slope(1, 0), Slope(1, 1), Slope(1, 2), Slope(2, 1)]
    vertices = [
        complexes.Vertex(i, complexes.KIND_SLOPE, str(s))
        for i, s in enumerate(slopes)
    ]
    edges = {
        (i, j)
        for i, j in itertools.combinations(range(4), 2)
        if farey.farey_adjacent(slopes[i], slopes[j])
    }
    cpx = complexes.make_complex(vertices, edges)
    odd = farey.f_odd_subcomplex(cpx)
    assert {v.label for v in odd.vertices} == {"1/0", "1/1", "1/2"}
    assert odd.edges == frozenset({(0, 1), (1, 2)})


def test_f_odd_empty():
    empty = complexes.make_complex([])
    assert farey.f_odd_subcomplex(empty).vertices == ()


@pytest.mark.parametrize(
    "cpx, named",
    [
        (complexes.haken_complex_model(2, 2, 2), r"vertex 0 \('sphere0'\) has kind 'white'"),
        (complexes.sp_cone_model(2), r"vertex 0 \('reducing-disk'\) has kind 'apex'"),
        (
            complexes.make_complex([
                complexes.Vertex(0, complexes.KIND_SLOPE, "1/0"),
                complexes.Vertex(1, complexes.KIND_WHITE, "sphere3"),
                complexes.Vertex(2, complexes.KIND_SLOPE, "disk0:1/1"),
            ]),
            r"vertex 1 \('sphere3'\) has kind 'white'",
        ),
    ],
)
def test_f_odd_rejects_a_vertex_that_is_not_a_slope(cpx, named):
    with pytest.raises(ValueError, match=rf"^{named}, not a slope$"):
        farey.f_odd_subcomplex(cpx)


# "1/2\n3/4" would pass a match over the newline-joined labels alone
@pytest.mark.parametrize("label", ["abc", "disk0:3/2", "3/x", "1/2\n3/4"])
def test_f_odd_rejects_a_slope_vertex_whose_label_is_not_a_slope(label):
    cpx = complexes.make_complex([
        complexes.Vertex(0, complexes.KIND_SLOPE, "1/0"),
        complexes.Vertex(1, complexes.KIND_SLOPE, label),
        complexes.Vertex(2, complexes.KIND_SLOPE, "x"),
    ])
    named = re.escape(f"vertex 1 has label {label!r}, not a slope n/d")
    with pytest.raises(ValueError, match=rf"^{named}$"):
        farey.f_odd_subcomplex(cpx)


_BALL_LABELS = sorted(v.label for v in farey.stern_brocot_ball(5).vertices)
_NEAR_MISSES = [" 3/4", "1_0/3", "\u0663/4", "3/4\n", "+3/4", "3/-4", "disk0:1/2", "1/2\n3/4"]


@st.composite
def slope_complexes(draw):
    """A path of slope vertices labelled from a Farey ball, with a few
    near-miss labels put in at drawn places."""
    labels = draw(st.lists(st.sampled_from(_BALL_LABELS), max_size=12))
    for miss in draw(st.lists(st.sampled_from(_NEAR_MISSES), max_size=2)):
        labels.insert(draw(st.integers(0, len(labels))), miss)
    vertices = tuple(complexes.Vertex(i, complexes.KIND_SLOPE, l) for i, l in enumerate(labels))
    return complexes.Complex(vertices, frozenset((i, i + 1) for i in range(len(labels) - 1)))


def _outcome(f_odd, cpx):
    try:
        return f_odd(cpx)
    except ValueError as exc:
        return str(exc)


@given(slope_complexes())
def test_f_odd_matches_the_joined_label_oracle(cpx):
    assert _outcome(farey.f_odd_subcomplex, cpx) == _outcome(f_odd_subcomplex_oracle, cpx)


def test_f_odd_no_triangles_and_forest():
    for depth in range(6):
        odd = farey.f_odd_subcomplex(farey.stern_brocot_ball(depth))
        assert not odd.triangles
        assert complexes.is_forest(odd)


def test_forest_and_tree_basics():
    single = complexes.make_complex(
        [complexes.Vertex(0, complexes.KIND_SLOPE, "1/0")]
    )
    assert complexes.is_tree(single)
    cycle = complexes.make_complex(
        [complexes.Vertex(i, complexes.KIND_SLOPE, f"{i}/1") for i in range(3)],
        [(0, 1), (1, 2), (0, 2)],
    )
    assert not complexes.is_forest(cycle)
    assert not complexes.is_tree(cycle)


def test_odd_vertices_reach_infinity_small_depths():
    for depth in range(5):
        assert farey.odd_vertices_reach_infinity(depth)
