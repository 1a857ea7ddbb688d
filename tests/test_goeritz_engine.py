"""The stack rewriting engine against the plain scan-and-splice oracle,
its property checks, and its rejection of rules that never terminate."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heegaard2 import goeritz
from helpers import goeritz_insertion_words, goeritz_random_word, rewrite_oracle


def case_tokens(case):
    gens = goeritz.goeritz_presentation(case).generators
    return list(gens) + [g + "'" for g in gens]


def oracle_order(case, word, cutoff):
    rules = goeritz.rewrite_system(case).rules
    nf = rewrite_oracle(word, rules)
    if not nf:
        return 1
    power = ()
    for k in range(1, cutoff + 1):
        power = rewrite_oracle(power + nf, rules)
        if not power:
            return k
    return None


def test_engine_matches_oracle_on_criterion_8_corpus():
    rng = random.Random(2024)
    for case in goeritz.CASES:
        rules = goeritz.rewrite_system(case).rules
        inserts = goeritz_insertion_words(case)
        for _ in range(1000):
            w = goeritz_random_word(rng, case)
            pos = rng.randrange(0, len(w) + 1)
            inserted = w[:pos] + rng.choice(inserts) + w[pos:]
            for word in (w, inserted):
                assert goeritz.normal_form(case, word) == rewrite_oracle(word, rules)


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
