import functools
import itertools
import math
import random
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from heegaard2 import fgroup
from helpers import (
    apply_endomorphism_oracle,
    block_form_oracle,
    cyclic_reduce_oracle,
    cyclically_reduced_words,
    free_reduce_oracle,
    is_primitive_oracle,
    least_rotation_oracle,
    letter_obstruction_reason_oracle,
    power_root_oracle,
    primitive_words_orbit_oracle,
    subword_obstruction_oracle,
)


def test_parse_and_format():
    assert fgroup.parse_word("xyXY") == "xyXY"
    assert fgroup.parse_word("1") == ""
    assert fgroup.format_word("") == "1"
    assert fgroup.format_word("xxy") == "xxy"
    with pytest.raises(ValueError):
        fgroup.parse_word("xz")


def test_free_reduce_examples():
    assert fgroup.free_reduce("xX") == ""
    assert fgroup.free_reduce("xyYx") == "xx"
    assert fgroup.free_reduce("xxyxxyy") == "xxyxxyy"


def test_free_reduce_idempotent_and_shortening():
    rng = random.Random(7)
    words = ["".join(rng.choice("xXyY") for _ in range(n)) for n in range(40)]
    for w in words:
        r = fgroup.free_reduce(w)
        assert fgroup.free_reduce(r) == r
        assert len(r) <= len(w)


def _all_words(max_len):
    return ["".join(p) for n in range(max_len + 1) for p in itertools.product("xXyY", repeat=n)]


def test_free_reduce_matches_oracle_on_all_words_up_to_8():
    words = _all_words(8)
    assert len(words) == 87381
    for w in words:
        assert fgroup.free_reduce(w) == free_reduce_oracle(w), w


# words in which deleting every adjacent inverse pair at once leaves a new one
NESTED = ["x" * k + "X" * k for k in range(2, 13)] + ["xyYX", "yxXY", "xxyYXX"]


@pytest.mark.parametrize("word", NESTED)
def test_free_reduce_finishes_nested_cancellations(word):
    assert re.search("xX|Xx|yY|Yy", re.sub("xX|Xx|yY|Yy", "", word))
    assert fgroup.free_reduce(word) == free_reduce_oracle(word) == ""
    assert fgroup.free_reduce("y" + word + "x") == "yx"
    assert fgroup.free_reduce(word + "Y" + word) == "Y"


class _CountingPattern:
    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def __getattr__(self, name):
        self.calls += 1
        return getattr(self.pattern, name)


def test_free_reduce_takes_a_bounded_number_of_passes(monkeypatch):
    # x^k X^k needs k rounds of pair deletion; a stack finishes it in one pass
    counting = _CountingPattern(fgroup._CANCEL)
    monkeypatch.setattr(fgroup, "_CANCEL", counting)
    assert fgroup.free_reduce("x" * 1000 + "X" * 1000) == ""
    assert counting.calls <= 2


@given(st.text(alphabet="xXyY", max_size=80))
@example("x" * 40 + "X" * 40)
@example("xyXY" * 10 + "yxYX" * 10)
def test_free_reduce_matches_oracle_and_is_idempotent(w):
    r = fgroup.free_reduce(w)
    assert r == free_reduce_oracle(w)
    assert fgroup.free_reduce(r) == r


def test_apply_endomorphism_matches_oracle():
    for w in _all_words(6):
        for xi, yi in fgroup.WHITEHEAD_AUTOMORPHISMS + (("", "xyX"), ("YXyy", "x")):
            assert fgroup.apply_endomorphism(w, xi, yi) == apply_endomorphism_oracle(w, xi, yi)


# every public function that reduces or substitutes a word, on one argument
WORD_READERS = [
    fgroup.free_reduce,
    fgroup.cyclic_reduce,
    fgroup.cyclic_canonical,
    fgroup.letter_obstruction_reason,
    fgroup.has_letter_obstruction,
    fgroup.has_subword_obstruction,
    fgroup.has_primitive_block_form,
    lambda w: fgroup.apply_endomorphism(w, "xy", "y"),
    fgroup.is_primitive,
    fgroup.primitive_power_root,
]


@pytest.mark.parametrize("word", ["z", "zx", "xz", "x1", "1"])
def test_other_letters_raise_value_error(word):
    bad = sorted(set(word) - set("xXyY"))
    message = re.escape(f"invalid letters {bad}; words use x, y, X, Y (X = x inverse)")
    for reader in WORD_READERS:
        with pytest.raises(ValueError, match=message):
            reader(word)
    # only parse_word reads "1" as the empty word
    if word == "1":
        assert fgroup.parse_word(word) == ""
    else:
        with pytest.raises(ValueError, match=message):
            fgroup.parse_word(word)
    # the letter-by-letter maps reduce nothing and pass other letters through
    assert fgroup.format_word(word) == word
    assert fgroup.invert(word) == word[::-1].swapcase()
    assert all(bad[0] in image for image in fgroup.letter_symmetries(word))


letter_words = st.text(alphabet="xXyY", max_size=40)


@given(letter_words, letter_words)
@example("xy" * 50, "x")
@example("xyX", "")
@example("", "xX")
def test_cyclic_reduce_of_conjugates_matches_slicing_oracle(u, w):
    conjugate = u + w + fgroup.invert(u)
    reduced = fgroup.cyclic_reduce(conjugate)
    assert reduced == cyclic_reduce_oracle(conjugate)
    assert fgroup.cyclic_canonical(reduced) == fgroup.cyclic_canonical(w)


def test_cyclic_canonical_matches_rotation_oracle():
    for w in cyclically_reduced_words(6):
        assert fgroup.cyclic_canonical(w) == least_rotation_oracle(w)


def test_cyclic_canonical_examples():
    # y x^2 y^2 x^2 rotates to x^2 y x^2 y^2
    assert fgroup.cyclic_canonical("yxxyyxx") == "xxyxxyy"
    assert fgroup.cyclic_canonical("xyX") == "y"
    assert fgroup.cyclic_canonical("") == ""
    assert fgroup.cyclic_canonical("xxyxxyy") == "xxyxxyy"


def test_cyclic_canonical_idempotent_and_shortening():
    rng = random.Random(13)
    words = ["".join(rng.choice("xXyY") for _ in range(n)) for n in range(30)]
    for w in words:
        c = fgroup.cyclic_canonical(w)
        assert fgroup.cyclic_canonical(c) == c
        assert len(c) <= len(w)


def test_cyclic_canonical_constant_on_rotations():
    rng = random.Random(11)
    for w in list(cyclically_reduced_words(5)) + [
        "".join(rng.choice("xy") for _ in range(12)) for _ in range(30)
    ]:
        c = fgroup.cyclic_canonical(w)
        for i in range(len(w)):
            assert fgroup.cyclic_canonical(w[i:] + w[:i]) == c


def test_letter_obstruction_examples():
    assert fgroup.has_letter_obstruction("xyXY")  # x and X
    assert fgroup.letter_obstruction_reason("xyXY") == "contains both x and X"
    assert fgroup.has_letter_obstruction("xxyy")  # squares of both
    assert not fgroup.has_letter_obstruction("xxyxxyxxy")
    assert not fgroup.has_letter_obstruction("x")
    assert not fgroup.has_letter_obstruction("")


def test_letter_obstruction_square_is_cyclic():
    # the square wraps around: y x x y reads  x^2 ... y^2 cyclically
    assert fgroup.has_letter_obstruction("yxxy")
    # a single letter is not a square of itself
    assert not fgroup.has_letter_obstruction("xy")


def test_subword_obstruction_examples():
    assert fgroup.has_subword_obstruction("xyyyXy")  # x y^3 x^-1
    assert fgroup.has_subword_obstruction("xxyyxy")  # x^2 y^2
    assert not fgroup.has_subword_obstruction("xxyxxyxxy")
    assert not fgroup.has_subword_obstruction("xxy")
    # y^2 x^2 is x^2 y^2 read backwards, found only as the reversed square
    assert fgroup.has_subword_obstruction("xxyxyy")


def test_subword_obstruction_symmetries():
    # images of x y^2 x^-1 under inverting letters / reversing the curve
    for w in ("XyyxY", "xYYXy", "XYYxy", "xYYXy"):
        assert fgroup.has_subword_obstruction(w)
    # a flanked power that only cyclic reduction exposes is not an
    # obstruction: x Y Y X reduces to the primitive power Y Y
    assert not fgroup.has_subword_obstruction("xYYX")
    # the doubled square through every symmetry, e.g. the inverse of xxyy
    assert fgroup.has_subword_obstruction("YYXX")


def test_letter_symmetries_order():
    assert list(fgroup.letter_symmetries("xxyX")) == [
        "xxyX", "xxYX", "XXyx", "XXYx", "yyxY", "YYxy", "yyXY", "YYXy",
    ]


def test_subword_obstruction_invariant_under_inversion_and_signs():
    flips = [str.maketrans(f, f.swapcase()) for f in ("xX", "yY", "xXyY")]
    for w in cyclically_reduced_words(8):
        value = fgroup.has_subword_obstruction(w)
        assert fgroup.has_subword_obstruction(fgroup.invert(w)) == value, w
        for flip in flips:
            assert fgroup.has_subword_obstruction(w.translate(flip)) == value, w


def test_subword_implies_letter_obstruction():
    for w in cyclically_reduced_words(8):
        if fgroup.has_subword_obstruction(w):
            assert fgroup.has_letter_obstruction(w)


def test_block_form_examples():
    assert fgroup.has_primitive_block_form("xxy")
    assert fgroup.has_primitive_block_form("xyxyyxy")  # blocks xy, xy^2, xy
    assert fgroup.has_primitive_block_form("y")  # via the x<->y swap
    assert not fgroup.has_primitive_block_form("xxyy")
    assert not fgroup.has_primitive_block_form("")


def test_block_form_rejects_a_letter_with_both_signs():
    # both fold to the block form xy xy once every letter is made positive
    assert not fgroup.has_primitive_block_form("xyxY")
    assert not fgroup.has_primitive_block_form("xyXy")


def test_block_form_passes_on_primitives():
    for w in fgroup.primitive_words_up_to(8):
        assert fgroup.has_primitive_block_form(w), w


def test_is_primitive_examples():
    assert fgroup.is_primitive("x")
    assert fgroup.is_primitive("y")
    assert fgroup.is_primitive("xxy")
    assert fgroup.is_primitive("xY")
    assert not fgroup.is_primitive("")
    assert not fgroup.is_primitive("xxyy")
    assert not fgroup.is_primitive("xxx")
    assert not fgroup.is_primitive("xyXY")


def test_is_primitive_matches_orbit_enumeration():
    # bidirectional check of the greedy Whitehead decider against the
    # closure of the orbit of x under the oracles' moves and symmetries
    orbit = primitive_words_orbit_oracle(8)
    found = set()
    for w in cyclically_reduced_words(8):
        c = fgroup.cyclic_canonical(w)
        if fgroup.is_primitive(c):
            found.add(c)
    assert found == orbit


def test_is_primitive_matches_the_greedy_oracle_on_all_words_up_to_7():
    for w in cyclically_reduced_words(7):
        assert fgroup.is_primitive(w) == is_primitive_oracle(w), w


def test_is_primitive_symmetry_invariance():
    for w in cyclically_reduced_words(6):
        value = fgroup.is_primitive(w)
        assert fgroup.is_primitive(fgroup.invert(w)) == value
        for image in fgroup.letter_symmetries(w):
            assert fgroup.is_primitive(image) == value


def test_primitive_power_root_examples():
    assert fgroup.primitive_power_root("").kind == "trivial"
    assert fgroup.primitive_power_root("xX").kind == "trivial"
    assert fgroup.primitive_power_root("x").kind == "primitive"
    v = fgroup.primitive_power_root("xxx")
    assert (v.kind, v.root, v.exponent) == ("power-of-primitive", "x", 3)
    v = fgroup.primitive_power_root("xxyxxyxxy")
    assert (v.kind, v.root, v.exponent) == ("power-of-primitive", "xxy", 3)
    # a rotation that splits the root still prints the canonical root
    v = fgroup.primitive_power_root("yxxyxxyxx")
    assert (v.kind, v.root, v.exponent) == ("power-of-primitive", "xxy", 3)
    v = fgroup.primitive_power_root("xyyX")
    assert (v.kind, v.root, v.exponent) == ("power-of-primitive", "y", 2)
    assert fgroup.primitive_power_root("xyXY").kind == "neither"
    assert fgroup.primitive_power_root("xxyy").kind == "neither"


def test_primitivity_respects_homology():
    # a primitive element maps to a primitive vector of the integer
    # lattice under abelianization; an independent necessary condition
    from math import gcd

    for w in cyclically_reduced_words(7):
        ex = w.count("x") - w.count("X")
        ey = w.count("y") - w.count("Y")
        if fgroup.is_primitive(w):
            assert gcd(abs(ex), abs(ey)) == 1
        v = fgroup.primitive_power_root(w)
        if v.kind == "power-of-primitive":
            assert ex % v.exponent == 0 and ey % v.exponent == 0


def test_primitive_power_root_structure():
    for w in cyclically_reduced_words(6):
        v = fgroup.primitive_power_root(w)
        c = fgroup.cyclic_canonical(w)
        if v.kind == "power-of-primitive":
            assert v.exponent >= 2
            assert fgroup.is_primitive(v.root)
            assert v.root * v.exponent == c
        elif v.kind == "primitive":
            assert fgroup.is_primitive(c)


def test_primitive_words_up_to_smallest():
    words = fgroup.primitive_words_up_to(2)
    assert {"x", "X", "y", "Y"} <= words
    assert "xy" in words and "xY" in words
    assert all(len(w) <= 2 for w in words)
    assert fgroup.primitive_words_up_to(0) == set()


def test_primitive_words_up_to_matches_orbit_closure():
    for max_len in range(15):
        assert fgroup.primitive_words_up_to(max_len) == primitive_words_orbit_oracle(max_len)


@st.composite
def _christoffel_powers(draw, exponents):
    """A Christoffel root of up to 60 letters raised to a drawn exponent,
    under a letter symmetry and a rotation that may split the root."""
    n = draw(st.integers(1, 60))
    p = draw(st.integers(0, n).filter(lambda p: math.gcd(p, n - p) == 1))
    k = draw(exponents)
    word = fgroup._christoffel(p, n - p) * k
    word = list(fgroup.letter_symmetries(word))[draw(st.integers(0, 7))]
    turn = draw(st.integers(0, len(word) - 1))
    return word[turn:] + word[:turn], k


@given(_christoffel_powers(st.integers(1, 3)))
def test_christoffel_powers_are_primitive_powers(word_and_k):
    word, k = word_and_k
    verdict = fgroup.primitive_power_root(word)
    if k == 1:
        assert verdict.kind == "primitive", word
    else:
        assert (verdict.kind, verdict.exponent) == ("power-of-primitive", k), word


@given(_christoffel_powers(st.integers(2, 6)))
@example(("yxxyxxyxx", 3))
@example(("YxYYxYYxY", 3))
def test_rotated_proper_powers_match_the_oracle_with_a_canonical_root(word_and_k):
    word, k = word_and_k
    verdict = fgroup.primitive_power_root(word)
    assert verdict == power_root_oracle(word) == ("power-of-primitive", verdict.root, k)
    assert verdict.root == fgroup.cyclic_canonical(verdict.root)


def _doubled_word_answers(w):
    return (
        fgroup.letter_obstruction_reason(w),
        fgroup.has_letter_obstruction(w),
        fgroup.has_subword_obstruction(w),
        fgroup.has_primitive_block_form(w),
        fgroup.primitive_power_root(w),
    )


def _scanning_answers(w):
    reason = letter_obstruction_reason_oracle(w)
    return (
        reason,
        reason is not None,
        subword_obstruction_oracle(w),
        block_form_oracle(w),
        power_root_oracle(w),
    )


def test_doubled_word_searches_match_scanning_oracles_on_all_words_up_to_8():
    # every oracle begins by cyclically reducing its word, so one oracle
    # call serves all the words with the same reduction
    scanning = functools.cache(_scanning_answers)
    words = _all_words(8)
    assert len(words) == 87381
    for w in words:
        assert _doubled_word_answers(w) == scanning(fgroup.cyclic_reduce(w)), w


@st.composite
def run_words(draw):
    """Words of up to 300 letters: a block of short and long letter runs,
    repeated."""
    run = st.tuples(st.sampled_from("xXyY"), st.integers(1, 3) | st.integers(1, 200))
    block = "".join(ch * m for ch, m in draw(st.lists(run, min_size=1, max_size=8)))[:300]
    return block * draw(st.integers(1, 300 // len(block)))


@given(run_words())
@example("x" * 200 + "y")
@example("xxy" * 100)
@example("xyxyy" * 60)
def test_doubled_word_searches_match_scanning_oracles_on_long_run_words(w):
    assert _doubled_word_answers(w) == _scanning_answers(w)
