import os
import subprocess
import sys
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heegaard2 import fgroup, surgery
from helpers import least_rotation_oracle, surgery_word_oracle, tuple_rotation_equal


def coprime_pairs(limit):
    for p in range(2, limit + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield p, q


def test_params_validation():
    surgery.SplittingParams(2, 1, 2, 1)
    with pytest.raises(ValueError):
        surgery.SplittingParams(1, 1, 2, 1)
    with pytest.raises(ValueError):
        surgery.SplittingParams(4, 2, 2, 1)
    with pytest.raises(ValueError):
        surgery.SplittingParams(3, 3, 2, 1)
    with pytest.raises(ValueError):
        surgery.SplittingParams(3, 0, 2, 1)
    with pytest.raises(ValueError):
        surgery.SplittingParams(3, 1, 2, 0)


def test_params_error_names_the_side():
    with pytest.raises(ValueError, match=r"^summand 2: .*not coprime"):
        surgery.SplittingParams(3, 1, 4, 2)
    with pytest.raises(ValueError, match=r"^summand 1: p must be at least 2"):
        surgery.SplittingParams(1, 1, 2, 1)


def test_gap_pattern_examples():
    assert surgery.gap_pattern(surgery.SplittingParams(3, 1, 2), 2) == (1, 2)
    assert surgery.gap_pattern(surgery.SplittingParams(5, 2, 2), 3) == (2, 2, 1)
    # points {0, 3, 1} on Z/5
    assert surgery.gap_pattern(surgery.SplittingParams(5, 3, 2), 3) == (1, 2, 2)


def test_gap_pattern_index_errors():
    params = surgery.SplittingParams(3, 1, 2)
    with pytest.raises(ValueError):
        surgery.gap_pattern(params, 0)
    with pytest.raises(ValueError):
        surgery.gap_pattern(params, 4)


def test_gap_pattern_invariants():
    for p1, q1 in coprime_pairs(30):
        params = surgery.SplittingParams(p1, q1, 2)
        for i in range(1, p1 + 1):
            gaps = surgery.gap_pattern(params, i)
            assert len(gaps) == i
            assert sum(gaps) == p1
            assert all(g >= 1 for g in gaps)
            assert len(set(gaps)) <= 3  # three-distance property


def test_figure_sequence():
    params = surgery.SplittingParams(3, 1, 2, 1)
    assert surgery.surgery_sequence(params) == ["xxyyy", "xxyxxyy", "xxyxxyxxy"]


def test_two_step_sequence():
    params = surgery.SplittingParams(2, 1, 3, 1)
    assert surgery.surgery_sequence(params) == ["xxxyy", "xxxyxxxy"]


def test_first_and_last_words():
    for p1, q1 in coprime_pairs(9):
        for p2 in (2, 3, 5):
            params = surgery.SplittingParams(p1, q1, p2)
            assert surgery.surgery_word(params, 1) == "x" * p2 + "y" * p1
            assert surgery.surgery_word(params, p1) == ("x" * p2 + "y") * p1


def test_last_word_is_primitive_power():
    params = surgery.SplittingParams(5, 3, 4)
    verdict = fgroup.primitive_power_root(surgery.surgery_word(params, 5))
    assert verdict.kind == "power-of-primitive"
    assert verdict.root == "xxxxy"
    assert verdict.exponent == 5


def test_closed_forms_small_grid():
    for p1, q1 in coprime_pairs(9):
        for p2 in (2, 3):
            params = surgery.SplittingParams(p1, q1, p2)
            xb = "x" * p2
            assert fgroup.cyclic_equal(
                surgery.surgery_word(params, 2),
                xb + "y" * q1 + xb + "y" * (p1 - q1),
            )
            if p1 >= 3:
                if 2 * q1 < p1:
                    third = xb + "y" * q1 + xb + "y" * q1 + xb + "y" * (p1 - 2 * q1)
                else:
                    third = (
                        xb + "y" * (2 * q1 - p1)
                        + xb + "y" * (p1 - q1)
                        + xb + "y" * (p1 - q1)
                    )
                assert fgroup.cyclic_equal(surgery.surgery_word(params, 3), third)
            penultimate = (xb + "y") * (p1 - q1) + "y" + (xb + "y") * (q1 - 1)
            assert fgroup.cyclic_equal(
                surgery.surgery_word(params, p1 - 1), penultimate
            )


def test_fourth_entry_of_5_2_sequence():
    params = surgery.SplittingParams(5, 2, 2, 1)
    fourth = surgery.surgery_sequence(params)[3]
    assert fgroup.cyclic_equal(fourth, "xxy" * 3 + "y" + "xxy")


def test_words_positive_and_reduced():
    for p1, q1 in coprime_pairs(8):
        params = surgery.SplittingParams(p1, q1, 3)
        for i in range(1, p1 + 1):
            w = surgery.surgery_word(params, i)
            assert set(w) <= {"x", "y"}
            assert w.count("x") == 3 * i
            assert w.count("y") == p1
            assert fgroup.cyclic_canonical(w) == w


def test_middle_words_rejected_when_gap_at_least_two():
    for p1, q1 in coprime_pairs(8):
        params = surgery.SplittingParams(p1, q1, 2)
        for i in range(2, p1):
            gaps = surgery.gap_pattern(params, i)
            if max(gaps) >= 2:
                assert fgroup.has_letter_obstruction(surgery.surgery_word(params, i))


def test_q2_does_not_enter_words():
    for q2 in (1, 2, 3, 4):
        if gcd(5, q2) != 1:
            continue
        params = surgery.SplittingParams(7, 3, 5, q2)
        assert surgery.surgery_sequence(params) == surgery.surgery_sequence(
            surgery.SplittingParams(7, 3, 5, 1)
        )


def test_gap_pattern_against_marking_oracle():
    # independent oracle: mark the points on an explicit circle and walk it
    for p1, q1 in coprime_pairs(12):
        params = surgery.SplittingParams(p1, q1, 2)
        for i in range(1, p1 + 1):
            marked = [False] * p1
            for j in range(i):
                marked[j * q1 % p1] = True
            gaps = []
            run = 0
            seen_first = False
            first_prefix = 0
            for pos in range(p1):
                if marked[pos]:
                    if seen_first:
                        gaps.append(run)
                    else:
                        seen_first = True
                    run = 1
                else:
                    if seen_first:
                        run += 1
                    else:
                        first_prefix += 1
            gaps.append(run + first_prefix)
            assert tuple(gaps) == surgery.gap_pattern(params, i)
            assert tuple_rotation_equal(tuple(gaps), surgery.gap_pattern(params, i))


# (p1, q1, p2) with p1 <= 80, q1 coprime to p1 and p2 in 2..6
splitting_params = st.integers(2, 80).flatmap(
    lambda p1: st.builds(
        surgery.SplittingParams,
        st.just(p1),
        st.integers(1, p1 - 1).filter(lambda q1: gcd(p1, q1) == 1),
        st.integers(2, 6),
    )
)


@given(splitting_params)
def test_surgery_word_is_least_rotation_of_expanded_gaps(params):
    for i in range(1, params.p1 + 1):
        word = surgery.surgery_word(params, i)
        assert word == surgery_word_oracle(params, i)
        raw = "".join("x" * params.p2 + "y" * g for g in surgery.gap_pattern(params, i))
        assert word == least_rotation_oracle(raw)


def test_surgery_word_with_two_million_letters():
    # the least rotation is searched over the i gaps, not over the letters
    params = surgery.SplittingParams(2_000_003, 1, 2)
    assert surgery.surgery_word(params, 1) == "xx" + "y" * 2_000_003
    assert surgery.surgery_word(params, 2) == "xxyxx" + "y" * 2_000_002


def test_surgery_does_not_load_fgroup():
    code = "import sys, heegaard2.surgery; assert 'heegaard2.fgroup' not in sys.modules"
    src = os.path.dirname(os.path.dirname(surgery.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
