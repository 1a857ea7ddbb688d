"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from math import gcd

from heegaard2 import classify, complexes, farey, fgroup, goeritz, surgery
from helpers import (
    cyclically_reduced_words,
    goeritz_insertion_words,
    goeritz_random_word,
    surgery_word_oracle,
    tuple_rotation_equal,
)


def coprime_pairs(limit):
    for p in range(2, limit + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield p, q


def test_criterion_1_figure_sequence_exact_and_fast():
    params = surgery.SplittingParams(3, 1, 2, 1)
    surgery.surgery_sequence(params)  # warm-up
    start = time.perf_counter()
    sequence = surgery.surgery_sequence(params)
    elapsed = time.perf_counter() - start
    assert sequence == ["xxyyy", "xxyxxyy", "xxyxxyxxy"]
    assert elapsed < 0.001, f"took {elapsed * 1e6:.0f} us"
    print(f"PASS criterion 1: figure sequence exact in {elapsed * 1e6:.0f} us")


def _formula_gaps(p1, q1, i):
    """Closed-form exponent tuples for the checked indices.  For i = 3
    with q1 > p1/2 the printed second-case exponents do not sum to p1;
    the gap-model values (2*q1 - p1, p1 - q1, p1 - q1) are used (they sum
    to p1 and agree with the first case at the boundary)."""
    if i == 1:
        return (p1,)
    if i == 2:
        return (q1, p1 - q1)
    if i == 3:
        if 2 * q1 < p1:
            return (q1, q1, p1 - 2 * q1)
        return (2 * q1 - p1, p1 - q1, p1 - q1)
    if i == p1 - 1:
        return (1,) * (p1 - q1 - 1) + (2,) + (1,) * (q1 - 1)
    if i == p1:
        return (1,) * p1
    raise AssertionError(i)


def _formula_word(p1, q1, p2, i):
    xb = "x" * p2
    return "".join(xb + "y" * g for g in _formula_gaps(p1, q1, i))


def test_criterion_2_closed_form_battery():
    start = time.perf_counter()
    steep_cases = 0
    # exponent level, all (p1, q1) with p1 <= 50; the x-blocks all equal
    # x^p2, so two block words agree up to rotation exactly when their
    # y-exponent tuples agree up to rotation
    for p1, q1 in coprime_pairs(50):
        params = surgery.SplittingParams(p1, q1, 2)
        indices = {1, 2, p1 - 1, p1}
        if p1 >= 3:
            indices.add(3)
            if 2 * q1 > p1:
                steep_cases += 1
        for i in sorted(indices):
            assert tuple_rotation_equal(
                surgery.gap_pattern(params, i), _formula_gaps(p1, q1, i)
            ), (p1, q1, i)
    # word level on a subgrid, with the full (p2, q2) quantifier
    for p1, q1 in coprime_pairs(10):
        for p2, q2 in coprime_pairs(6):
            params = surgery.SplittingParams(p1, q1, p2, q2)
            indices = {1, 2, p1 - 1, p1} | ({3} if p1 >= 3 else set())
            for i in sorted(indices):
                word = surgery.surgery_word(params, i)
                expected = _formula_word(p1, q1, p2, i)
                assert fgroup.cyclic_canonical(word) == fgroup.cyclic_canonical(expected), (p1, q1, p2, q2, i)
                assert word == surgery_word_oracle(params, i), (p1, q1, p2, q2, i)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    print(
        "note: i=3 with q1 > p1/2 uses exponents (2*q1-p1, p1-q1, p1-q1), "
        f"which sum to p1 ({steep_cases} instances checked)"
    )
    print(f"PASS criterion 2: closed-form battery in {elapsed:.2f} s")


def test_criterion_3_criteria_sound_against_whitehead_oracle():
    start = time.perf_counter()
    flagged = 0
    total = 0
    for w in cyclically_reduced_words(9):
        total += 1
        if fgroup.has_letter_obstruction(w) or fgroup.has_subword_obstruction(w):
            flagged += 1
            assert fgroup.primitive_power_root(w).kind == "neither", w
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f} s"
    assert flagged > 0 and total > flagged
    print(
        f"PASS criterion 3: {flagged} flagged words of {total} all oracle-rejected "
        f"in {elapsed:.1f} s"
    )


def test_criterion_4_block_form_necessary_for_primitives():
    primitives = fgroup.primitive_words_up_to(12)
    assert "x" in primitives and "xxy" in primitives
    assert "xxyxxyxxy" not in primitives
    for w in primitives:
        assert fgroup.has_primitive_block_form(w), w
        assert fgroup.is_primitive(w), w
    print(f"PASS criterion 4: all {len(primitives)} primitive words pass the block form")


def test_criterion_5_odd_subcomplex_trees():
    start = time.perf_counter()
    for depth in range(11):
        odd = farey.f_odd_subcomplex(farey.stern_brocot_ball(depth))
        assert not odd.triangles, depth
        assert complexes.is_forest(odd), depth
        assert farey.odd_vertices_reach_infinity(depth), depth
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    print(f"PASS criterion 5: odd subcomplexes are forests with margin-2 reach "
          f"in {elapsed:.1f} s")


def test_criterion_6_sphere_complex_models():
    built = 0
    infeasible = 0
    for depth in range(7):
        slots = len(
            complexes.component(
                farey.f_odd_subcomplex(farey.stern_brocot_ball(depth)),
                next(
                    v.id
                    for v in farey.f_odd_subcomplex(
                        farey.stern_brocot_ball(depth)
                    ).vertices
                    if v.label == "1/0"
                ),
            )
        )
        for blacks in range(1, 7):
            for whites in range(1, 9):
                if whites == 1 and blacks > 2:
                    # the bipartite tree cannot grow: every white is used up
                    try:
                        complexes.haken_complex_model(blacks, whites, depth)
                    except ValueError:
                        infeasible += 1
                        continue
                    raise AssertionError("expected growth failure")
                if whites > slots:
                    try:
                        complexes.haken_complex_model(blacks, whites, depth)
                    except ValueError:
                        infeasible += 1
                        continue
                    raise AssertionError("expected slot overflow")
                model = complexes.haken_complex_model(blacks, whites, depth)
                assert complexes.is_tree(model), (blacks, whites, depth)
                built += 1
    assert built >= 200
    for base in range(1, 51):
        cone = complexes.sp_cone_model(base)
        assert complexes.cone_check(cone), base
    print(
        f"PASS criterion 6: {built} grafted models are trees "
        f"({infeasible} infeasible parameter combos rejected); 50 cone models pass"
    )


def test_criterion_7_classification_grid():
    pairs = list(coprime_pairs(30))
    for p1, q1 in pairs:
        for p2, q2 in pairs:
            a, b = classify.Lens(p1, q1), classify.Lens(p2, q2)
            direct = 1 if (q1 * q1 % p1 == 1 or q2 * q2 % p2 == 1) else 2
            assert classify.surface_count(a, b) == direct
            assert classify.surface_count(b, a) == direct
            descriptors = classify.splittings(a, b)
            assert len(descriptors) == direct
            symmetric = [d for d in descriptors if d.symmetric]
            if classify.oriented_lens_homeomorphic(a, b):
                assert len(symmetric) == 1 and symmetric[0].case == "1b"
            else:
                assert not symmetric
    print(f"PASS criterion 7: classification grid over {len(pairs)} lens parameters")


def test_criterion_8_goeritz_word_problems():
    for case in goeritz.CASES:
        assert goeritz.check_local_confluence(goeritz.rewrite_system(case)) == []
    assert goeritz.normal_form("1b", ("d", "b", "d")) == ("a", "b")
    expected = {"1a": ((2, 2, 2), 1), "1b": ((2, 2), 1), "2": ((2, 2, 2), 2)}
    for case, (torsion, free_rank) in expected.items():
        inv = goeritz.abelianization(goeritz.goeritz_presentation(case))
        assert inv.torsion == torsion and inv.free_rank == free_rank
        assembled = goeritz.amalgam_assemble(goeritz.case_amalgam(case))
        target = goeritz.goeritz_presentation(case)
        assert set(assembled.generators) == set(target.generators)
        assert set(assembled.relators) == set(target.relators)
        assert set(assembled.central) == set(target.central)
    rng = random.Random(2024)
    for case in goeritz.CASES:
        inserts = goeritz_insertion_words(case)
        for _ in range(10_000):
            w = goeritz_random_word(rng, case)
            nf = goeritz.normal_form(case, w)
            extra = rng.choice(inserts)
            pos = rng.randrange(0, len(w) + 1)
            assert goeritz.normal_form(case, w[:pos] + extra + w[pos:]) == nf
    print("PASS criterion 8: confluent systems, 3x10^4 relator insertions, "
          "abelianizations and amalgams check out")


def test_criterion_9_torsion_and_centrality():
    for case in goeritz.CASES:
        pres = goeritz.goeritz_presentation(case)
        for g in pres.generators:
            if g in ("b", "t"):
                for k in range(1, 51):
                    assert goeritz.normal_form(case, (g,) * k) != ()
            else:
                assert goeritz.normal_form(case, (g, g)) == ()
        rng = random.Random(99)
        for _ in range(200):
            w = goeritz_random_word(rng, case, max_len=20)
            for z in pres.central:
                assert goeritz.normal_form(case, (z,) + w) == goeritz.normal_form(
                    case, w + (z,)
                )
    print("PASS criterion 9: involution squares vanish, b and t powers do not, "
          "central letters commute")
