import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from heegaard2 import goeritz
from helpers import GOERITZ_REFERENCE, STABILIZER_REFERENCE
from helpers import goeritz_insertion_words as insertion_words
from helpers import goeritz_random_word as random_word
from helpers import rules_oracle


def test_parse_and_format_tokens():
    assert goeritz.parse_tokens("d b d") == ("d", "b", "d")
    assert goeritz.parse_tokens("b'") == ("b'",)
    assert goeritz.parse_tokens("1") == ()
    assert goeritz.parse_tokens("") == ()
    assert goeritz.format_tokens(()) == "1"
    assert goeritz.format_tokens(("a", "b")) == "a b"
    assert goeritz.parse_tokens("d q") == ("d", "q")  # normal_form checks the alphabet
    with pytest.raises(ValueError, match=r"^token 'q' is not over the case-1b alphabet"):
        goeritz.normal_form("1b", goeritz.parse_tokens("d q"))
    with pytest.raises(ValueError, match=r"^token 'g2' is not over the case-1b alphabet"):
        goeritz.normal_form("1b", goeritz.parse_tokens("g2"))
    with pytest.raises(ValueError, match=r"^unknown case 'zz'; expected one of"):
        goeritz.normal_form("zz", goeritz.parse_tokens("d b"))


def test_invert_word():
    assert goeritz.invert_word(("a", "b", "c'")) == ("c", "b'", "a'")
    assert goeritz.invert_word(()) == ()


def test_goeritz_presentations():
    p1a = goeritz.goeritz_presentation("1a")
    assert p1a.generators == ("a", "b", "g1", "g2")
    assert ("g1", "g1") in p1a.relators and ("g2", "g2") in p1a.relators
    assert p1a.central == ("a",)

    p1b = goeritz.goeritz_presentation("1b")
    assert ("d", "b", "d", "b'", "a'") in p1b.relators

    p2 = goeritz.goeritz_presentation("2")
    assert "t" in p2.central and "a" in p2.central
    assert ("s", "s") in p2.relators

    with pytest.raises(ValueError):
        goeritz.goeritz_presentation("3")


def test_presentations_equal_literal_reference():
    # record equality: generators, relators in order, central generators
    for case in goeritz.CASES:
        assert goeritz.goeritz_presentation(case) == GOERITZ_REFERENCE[case]
        assert set(STABILIZER_REFERENCE[case]) == set(goeritz.STABILIZERS)
        for which in goeritz.STABILIZERS:
            got = goeritz.stabilizer_presentation(which, case)
            assert got == STABILIZER_REFERENCE[case][which], (which, case)


def test_unknown_case_message():
    calls = (
        goeritz.goeritz_presentation,
        lambda c: goeritz.stabilizer_presentation("disk", c),
        goeritz.case_amalgam,
        goeritz.rewrite_system,
        lambda c: goeritz.normal_form(c, ("a",)),
        lambda c: goeritz.element_order(c, ("a",)),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"^unknown case '3'; expected one of"):
            call("3")
    with pytest.raises(ValueError, match=r"^unknown stabilizer 'zz'; expected one of"):
        goeritz.stabilizer_presentation("zz", "1a")


def test_presentation_text_and_json():
    text = goeritz.presentation_text(goeritz.goeritz_presentation("1a"))
    assert "g1^2" in text and "g2^2" in text and "central: a" in text
    data = goeritz.presentation_json(goeritz.goeritz_presentation("1b"))
    assert data["generators"] == ["a", "b", "g1", "d"]
    assert ["d", "b", "d", "b'", "a'"] in data["relators"]
    assert data["central"] == ["a"]


def test_presentation_validation():
    with pytest.raises(ValueError):
        goeritz.Presentation(("a",), (("b",),))
    with pytest.raises(ValueError):
        goeritz.Presentation(("a",), (), ("b",))


def test_stabilizer_presentations_lens():
    dp = goeritz.stabilizer_presentation("disk_sphere", "1a")
    assert dp.generators == ("a", "b") and dp.relators == (("a", "a"),)
    dpq = goeritz.stabilizer_presentation("disk_sphere_sphere", "1a")
    assert dpq.generators == ("a",)
    dpuq = goeritz.stabilizer_presentation("disk_sphere_pair", "1a")
    assert dpuq.generators == ("a", "g1") and ("g1", "g1") in dpuq.relators
    disk = goeritz.stabilizer_presentation("disk", "1b")
    assert disk.generators == ("a", "b", "g1")
    pair_plain = goeritz.stabilizer_presentation("disk_pair", "1a")
    assert pair_plain.generators == ("a", "b")
    pair_sym = goeritz.stabilizer_presentation("disk_pair", "1b")
    assert ("d", "b", "d", "b'", "a'") in pair_sym.relators
    with pytest.raises(ValueError):
        goeritz.stabilizer_presentation("unknown", "1a")


def test_stabilizer_presentations_bundle():
    for which in goeritz.STABILIZERS:
        pres = goeritz.stabilizer_presentation(which, "2")
        assert "t" in pres.generators
        assert "t" in pres.central
    pair = goeritz.stabilizer_presentation("disk_pair", "2")
    assert pair.generators == ("a", "s", "t")


def test_amalgams_reproduce_presentations():
    for case in goeritz.CASES:
        assembled = goeritz.amalgam_assemble(goeritz.case_amalgam(case))
        target = goeritz.goeritz_presentation(case)
        # generators, relators and central generators as ordered tuples
        assert assembled == target
        assert goeritz.abelianization(assembled) == goeritz.abelianization(target)
        # every assembled relator is trivial in the case group
        for r in assembled.relators:
            assert goeritz.normal_form(case, r) == ()


def test_amalgam_validation():
    a = goeritz.Presentation(("a", "b"), (("a", "a"),), ("a",))
    b = goeritz.Presentation(("a", "b"), (), ())
    edge = goeritz.Presentation(("a",), (("a", "a"),), ("a",))
    with pytest.raises(ValueError, match="not carried by the edge group"):
        # b is shared but not carried by the edge group
        goeritz.amalgam_assemble(goeritz.AmalgamData(a, b, edge))
    with pytest.raises(ValueError, match="'g' is not a generator of both factors"):
        # the edge generator g is missing from the second factor
        wide = goeritz.Presentation(("a", "g"), (("a", "a"),), ("a",))
        goeritz.amalgam_assemble(goeritz.AmalgamData(wide, edge, wide))


def test_rules_read_off_the_presentations_match_the_oracle():
    # same rules in the same order as the per-case rule list
    for case in goeritz.CASES:
        assert goeritz.rewrite_system(case).rules == rules_oracle(case)


def test_normal_form_examples():
    assert goeritz.normal_form("1b", ("d", "b", "d")) == ("a", "b")
    assert goeritz.normal_form("1b", ("a", "d", "b", "d")) == ("b",)
    assert goeritz.normal_form("1b", ("d", "b", "b", "d")) == ("b", "b")
    assert goeritz.normal_form("1a", ("g1", "g1")) == ()
    assert goeritz.normal_form("2", ("t", "b", "t'")) == ("b",)
    assert goeritz.normal_form("1a", ("b", "g1", "b'", "g2")) == ("b", "g1", "b'", "g2")
    with pytest.raises(ValueError):
        goeritz.normal_form("1a", ("d",))


def test_normal_form_idempotent():
    rng = random.Random(23)
    for case in goeritz.CASES:
        for _ in range(150):
            w = random_word(rng, case)
            nf = goeritz.normal_form(case, w)
            assert goeritz.normal_form(case, nf) == nf


def test_normal_form_shape_1b():
    rng = random.Random(5)
    for _ in range(200):
        nf = goeritz.normal_form("1b", random_word(rng, "1b"))
        assert "a'" not in nf and "g1'" not in nf and "d'" not in nf
        if "a" in nf:
            assert nf[0] == "a" and nf.count("a") == 1
        for left, right in zip(nf, nf[1:]):
            assert (left, right) not in {
                ("d", "b"), ("d", "b'"), ("d", "d"), ("g1", "g1"),
                ("b", "b'"), ("b'", "b"), ("a", "a"),
            }


def test_normal_form_shape_1a():
    rng = random.Random(3)
    for _ in range(200):
        nf = goeritz.normal_form("1a", random_word(rng, "1a"))
        assert "a'" not in nf and "g1'" not in nf and "g2'" not in nf
        if "a" in nf:
            assert nf[0] == "a" and nf.count("a") == 1
        # alternating free-product word: no involution repeats, no b-cancels
        for left, right in zip(nf, nf[1:]):
            assert (left, right) not in {
                ("g1", "g1"), ("g2", "g2"), ("b", "b'"), ("b'", "b"), ("a", "a"),
            }


def test_normal_form_shape_2():
    rng = random.Random(17)
    for _ in range(200):
        nf = goeritz.normal_form("2", random_word(rng, "2"))
        assert "a'" not in nf and "g'" not in nf and "s'" not in nf
        if "a" in nf:
            assert nf[0] == "a" and nf.count("a") == 1
        # all t letters form one uniformly signed run right after the a
        t_positions = [i for i, tok in enumerate(nf) if tok in ("t", "t'")]
        if t_positions:
            assert len({nf[i] for i in t_positions}) == 1
            start = 1 if nf and nf[0] == "a" else 0
            assert t_positions == list(range(start, start + len(t_positions)))
        for left, right in zip(nf, nf[1:]):
            assert (left, right) not in {
                ("g", "g"), ("s", "s"), ("b", "b'"), ("b'", "b"),
                ("t", "t'"), ("t'", "t"), ("a", "a"),
            }


def test_equal():
    assert goeritz.equal("1b", ("d", "b", "d"), ("a", "b"))
    assert not goeritz.equal("1a", ("b", "g1"), ("g1", "b"))
    assert goeritz.equal("2", ("s", "t", "s"), ("t",))
    rng = random.Random(31)
    for case in goeritz.CASES:
        w = random_word(rng, case)
        assert goeritz.equal(case, w, w)


def test_centrality():
    rng = random.Random(43)
    for case in goeritz.CASES:
        central = goeritz.goeritz_presentation(case).central
        for _ in range(100):
            w = random_word(rng, case, max_len=15)
            for z in central:
                assert goeritz.normal_form(case, (z,) + w) == goeritz.normal_form(
                    case, w + (z,)
                )


def test_torsion_and_infinite_order():
    for case in goeritz.CASES:
        pres = goeritz.goeritz_presentation(case)
        for g in pres.generators:
            if g in ("b", "t"):
                for k in range(1, 21):
                    assert goeritz.normal_form(case, (g,) * k) == (g,) * k
            else:
                assert goeritz.normal_form(case, (g, g)) == ()


def test_element_order():
    assert goeritz.element_order("1a", ("a",)) == 2
    assert goeritz.element_order("1a", ()) == 1
    assert goeritz.element_order("1b", ("d",)) == 2
    assert goeritz.element_order("1a", ("b",), cutoff=10) is None
    assert goeritz.element_order("2", ("t",), cutoff=10) is None
    # a product of two distinct involutions in a free product has infinite order
    assert goeritz.element_order("1a", ("g1", "g2"), cutoff=16) is None


def test_relator_insertion_preserves_normal_form():
    rng = random.Random(57)
    for case in goeritz.CASES:
        inserts = insertion_words(case)
        for _ in range(500):
            w = random_word(rng, case)
            nf = goeritz.normal_form(case, w)
            extra = rng.choice(inserts)
            pos = rng.randrange(0, len(w) + 1)
            assert goeritz.normal_form(case, w[:pos] + extra + w[pos:]) == nf


def test_rewrite_steps_decrease_measure():
    rng = random.Random(71)
    for case in goeritz.CASES:
        rules = goeritz.rewrite_system(case).rules
        for _ in range(200):
            w = random_word(rng, case, max_len=16)
            before = goeritz.termination_measure(w)
            for lhs, rhs in rules:
                k = len(lhs)
                for i in range(len(w) - k + 1):
                    if w[i : i + k] == lhs:
                        after = goeritz.termination_measure(w[:i] + rhs + w[i + k :])
                        assert after < before


def test_local_confluence_shipped_systems():
    for case in goeritz.CASES:
        assert goeritz.check_local_confluence(goeritz.rewrite_system(case)) == []


def test_local_confluence_failing_fixture():
    # constructed to fail: u v -> v and v u -> u diverge on u v u
    fixture = goeritz.RewriteSystem(((("u", "v"), ("v",)), (("v", "u"), ("u",))))
    pairs = goeritz.check_local_confluence(fixture)
    assert pairs
    words = {p.word for p in pairs}
    assert ("u", "v", "u") in words or ("v", "u", "v") in words


def test_local_confluence_reports_an_inclusion_overlap():
    # the left side v of the second rule lies inside u v w; rewriting
    # u v w by either rule ends in a distinct irreducible word
    fixture = goeritz.RewriteSystem(((("u", "v", "w"), ("x",)), (("v",), ("y",))))
    pairs = goeritz.check_local_confluence(fixture)
    assert pairs == [goeritz.CriticalPair(("u", "v", "w"), ("x",), ("u", "y", "w"))]


def sympy_invariants(rows):
    if not rows or not any(any(r) for r in rows):
        return []
    snf = smith_normal_form(Matrix(rows))
    out = []
    for i in range(min(snf.rows, snf.cols)):
        v = abs(snf[i, i])
        if v:
            out.append(int(v))
    return out


def test_abelianizations():
    expected = {
        "1a": ((2, 2, 2), 1),
        "1b": ((2, 2), 1),
        "2": ((2, 2, 2), 2),
    }
    for case, (torsion, free) in expected.items():
        pres = goeritz.goeritz_presentation(case)
        inv = goeritz.abelianization(pres)
        assert inv.torsion == torsion
        assert inv.free_rank == free
        # independent oracle: sympy's Smith normal form of the same matrix
        index = {g: i for i, g in enumerate(pres.generators)}
        rows = []
        for r in pres.relators:
            row = [0] * len(pres.generators)
            for tok in r:
                base = tok.rstrip("'")
                row[index[base]] += -1 if tok.endswith("'") else 1
            rows.append(row)
        oracle = sympy_invariants(rows)
        assert sorted(d for d in oracle if d > 1) == sorted(inv.torsion)
        assert len(pres.generators) - len(oracle) == inv.free_rank


def test_abelianization_free_group():
    free = goeritz.Presentation(("b",), ())
    assert goeritz.abelianization(free) == ((), 1)
    free = goeritz.Presentation(("a", "b", "g"), ())
    assert goeritz.abelianization(free) == ((), 3)


def test_smith_diagonal_random_matrices_against_sympy():
    rng = random.Random(97)
    shapes = [(3, 4), (4, 3), (2, 5), (5, 2), (4, 4), (1, 1)]
    for rows_n, cols_n in shapes:
        for _ in range(20):
            rows = [
                [rng.randrange(-5, 6) for _ in range(cols_n)] for _ in range(rows_n)
            ]
            mine = goeritz._smith_diagonal(rows, cols_n)
            assert [d for d in mine if d != 0] == sympy_invariants(rows)


@pytest.mark.parametrize(
    "rows, ncols, diagonal",
    [
        # diagonal but not yet a divisibility chain: the gcd/lcm closure
        ([[2, 0], [0, 3]], 2, [1, 6]),
        ([[4, 0], [0, 6]], 2, [2, 12]),
        ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], 3, [1, 30, 30]),
        ([[0, 0, 0], [0, 0, 0]], 3, []),
        ([], 4, []),
    ],
)
def test_smith_diagonal_closes_the_divisibility_chain(rows, ncols, diagonal):
    assert goeritz._smith_diagonal(rows, ncols) == diagonal
    assert diagonal == sympy_invariants(rows)


@st.composite
def sparse_matrices(draw):
    rows_n = draw(st.integers(0, 6))
    cols_n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-9, 9))  # many zeros
    row = st.lists(entry, min_size=cols_n, max_size=cols_n)
    return draw(st.lists(row, min_size=rows_n, max_size=rows_n)), cols_n


@given(sparse_matrices())
def test_smith_diagonal_sparse_matrices_against_sympy(matrix):
    rows, cols_n = matrix
    assert goeritz._smith_diagonal(rows, cols_n) == sympy_invariants(rows)
