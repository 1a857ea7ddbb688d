"""The stack rewriting engine against the plain scan-and-splice oracle,
its property checks, and its rejection of rules that never terminate;
the exact element orders against power probes."""

import functools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heegaard2 import goeritz
from helpers import goeritz_insertion_words, goeritz_random_word, oracle_order, rewrite_oracle


def case_tokens(case):
    gens = goeritz.goeritz_presentation(case).generators
    return list(gens) + [g + "'" for g in gens]


def test_engine_matches_oracle_on_criterion_8_corpus():
    rng = random.Random(2024)
    for case in goeritz.CASES:
        rules = goeritz.rewrite_system(case).rules
        engine = functools.partial(goeritz.normal_form, case)
        inserts = goeritz_insertion_words(case)
        for _ in range(1000):
            w = goeritz_random_word(rng, case)
            pos = rng.randrange(0, len(w) + 1)
            inserted = w[:pos] + rng.choice(inserts) + w[pos:]
            for word in (w, inserted):
                assert goeritz.normal_form(case, word) == rewrite_oracle(word, rules)
                assert goeritz.element_order(case, word, 4) == oracle_order(case, word, 4, engine)


def test_engine_matches_oracle_on_long_words():
    rng = random.Random(4051)
    for case in goeritz.CASES:
        rules = goeritz.rewrite_system(case).rules
        tokens = case_tokens(case)
        inserts = goeritz_insertion_words(case)
        for length in (200, 450, 1000):
            w = tuple(rng.choice(tokens) for _ in range(length))
            assert goeritz.normal_form(case, w) == rewrite_oracle(w, rules)
            # u r u^-1 with r a relator-type word, followed by a short tail
            u = w[: length // 2]
            tail = goeritz_random_word(rng, case)
            wrapped = u + rng.choice(inserts) + goeritz.invert_word(u) + tail
            nf = goeritz.normal_form(case, wrapped)
            assert nf == rewrite_oracle(wrapped, rules)
            assert nf == goeritz.normal_form(case, tail)


def test_bare_rule_list_matches_system():
    rng = random.Random(8)
    for case in goeritz.CASES:
        rules = list(goeritz.rewrite_system(case).rules)
        for _ in range(100):
            w = goeritz_random_word(rng, case)
            assert goeritz.rewrite(w, rules) == goeritz.normal_form(case, w)


def test_element_order_matches_oracle_powers():
    rng = random.Random(616)
    for case in goeritz.CASES:
        pres = goeritz.goeritz_presentation(case)
        involutions = [g for g in pres.generators if g not in ("b", "t")]
        words = [goeritz_random_word(rng, case, max_len=12) for _ in range(60)]
        for _ in range(30):
            u = goeritz_random_word(rng, case, max_len=8)
            words.append(u + (rng.choice(involutions),) + goeritz.invert_word(u))
            words.append(u + goeritz.invert_word(u))
        orders = set()
        for w in words:
            order = goeritz.element_order(case, w, cutoff=16)
            assert order == oracle_order(case, w, 16), (case, w)
            orders.add(order)
        assert {1, 2, None} <= orders


@st.composite
def order_words(draw, case):
    """A random word, a conjugated involution u g u^-1 or a trivial u u^-1,
    multiplied on either side by nothing or by a, t or t'."""
    tokens = case_tokens(case)
    gens = goeritz.goeritz_presentation(case).generators
    u = tuple(draw(st.lists(st.sampled_from(tokens), max_size=6)))
    shape = draw(st.sampled_from(("random", "involution", "trivial")))
    if shape == "random":
        w = tuple(draw(st.lists(st.sampled_from(tokens), max_size=10)))
    else:
        g = draw(st.sampled_from([g for g in gens if g not in ("b", "t")]))
        w = u + ((g,) if shape == "involution" else ()) + goeritz.invert_word(u)
    z = draw(st.sampled_from([()] + [(tok,) for tok in ("a", "t", "t'") if tok[0] in gens]))
    return draw(st.sampled_from((z + w, w + z)))


@pytest.mark.parametrize("case", goeritz.CASES)
@given(data=st.data())
def test_element_order_matches_power_probes(case, data):
    # the powers are rewritten by the library engine, which the tests above
    # check against the scan-and-splice oracle; 64 probes of it are too slow
    w = data.draw(order_words(case))
    engine = functools.partial(goeritz.normal_form, case)
    for cutoff in (0, 1, 2, 3, 4, 64):
        assert goeritz.element_order(case, w, cutoff) == oracle_order(case, w, cutoff, engine)


@pytest.mark.parametrize(
    "case, text, cutoff, order",
    [
        ("1a", "a b g1 b g2", 256, None),
        ("1a", "a", 1, None),
        ("1a", "g1 a", 2, 2),
        ("1a", "1", 0, 1),
        ("2", "a g", 64, 2),
        ("2", "g t", 64, None),
        ("2", "t' a", 64, None),
        ("1b", "d b", 64, None),
        ("1b", "b d b'", 64, 2),
    ],
)
def test_element_order_examples(case, text, cutoff, order):
    assert goeritz.element_order(case, goeritz.parse_tokens(text), cutoff) == order


def test_element_order_takes_two_rewrites(monkeypatch):
    pushes = []
    push = goeritz._push
    monkeypatch.setattr(goeritz, "_push", lambda *args: pushes.append(1) or push(*args))
    for case, text in (("1a", "a b g1 b g2"), ("1b", "b g1 b' d"), ("2", "b' g b s t")):
        pushes.clear()
        assert goeritz.element_order(case, goeritz.parse_tokens(text), 1000) is None
        assert len(pushes) == 2


def test_presentations_fit_the_free_product_argument():
    """``element_order`` relies on every torsion element squaring to 1: G/C,
    C the central subgroup, is a free product of cyclic groups whose torsion
    is conjugate to an involution generator, and c^2 is 1 or a power of t
    for c in C.  So every relator is a generator square or the half twist,
    the central generators are a (an involution) and t (free), and every
    other generator is an involution or b."""
    for case in goeritz.CASES:
        p = goeritz.goeritz_presentation(case)
        squares = {r[0] for r in p.relators if r == (r[0], r[0])}
        assert all(r == (r[0], r[0]) or r == goeritz._HALF_TWIST for r in p.relators)
        assert set(p.central) <= {"a", "t"} and "a" in squares and "t" not in squares
        for g in p.generators:
            assert g in p.central or g in squares or g == "b", (case, g)


def test_empty_left_hand_side_is_rejected():
    with pytest.raises(ValueError, match=r"rule \(\) -> \('b',\) has an empty"):
        goeritz.RewriteSystem(((("a", "a"), ()), ((), ("b",))))
    with pytest.raises(ValueError, match=r"rule \(\) -> \(\) has an empty"):
        goeritz.rewrite(("a",), [((), ())])


@pytest.mark.parametrize("case", goeritz.CASES)
@given(data=st.data())
def test_engine_properties(case, data):
    rs = goeritz.rewrite_system(case)
    word = tuple(data.draw(st.lists(st.sampled_from(case_tokens(case)), max_size=60)))
    nf = goeritz.rewrite(word, rs)
    assert goeritz.rewrite(nf, rs) == nf
    for lhs, _ in rs.rules:
        k = len(lhs)
        assert all(nf[i : i + k] != lhs for i in range(len(nf) - k + 1))
    assert nf == rewrite_oracle(word, rs.rules)
