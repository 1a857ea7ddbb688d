from math import gcd

import pytest

from heegaard2 import classify
from heegaard2.classify import Lens, S2xS1


def lens_params(limit):
    for p in range(2, limit + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield p, q


def test_lens_validation():
    Lens(2, 1)
    with pytest.raises(ValueError):
        Lens(1, 0)
    with pytest.raises(ValueError):
        Lens(0, 1)
    with pytest.raises(ValueError):
        Lens(4, 2)
    with pytest.raises(ValueError):
        Lens(5, 5)


def test_parse_summand():
    assert classify.parse_summand("s2xs1") == S2xS1()
    assert classify.parse_summand("lens:5,2") == Lens(5, 2)
    for bad in ("lens:5", "lens:5,2,1", "lens:a,b", "rp3", "lens:1,0",
                "lens:1_3,2", "lens:\u0665,2", "lens:5,\uff12", "lens:+5,2", "lens: 5,2"):
        with pytest.raises(ValueError):
            classify.parse_summand(bad)


def test_genus_one_reversible():
    assert classify.genus_one_reversible(Lens(5, 4))  # 16 = 1 mod 5
    assert not classify.genus_one_reversible(Lens(5, 2))
    assert classify.genus_one_reversible(S2xS1())
    assert classify.genus_one_reversible(Lens(3, 1))
    assert classify.genus_one_reversible(Lens(8, 3))  # 9 = 1 mod 8


def test_surface_count_examples():
    assert classify.surface_count(Lens(3, 1), Lens(5, 2)) == 1
    assert classify.surface_count(Lens(5, 2), Lens(5, 2)) == 2
    assert classify.surface_count(S2xS1(), Lens(7, 3)) == 1
    assert classify.surface_count(S2xS1(), S2xS1()) == 1


def test_surface_count_symmetric_and_inverse_invariant():
    for p1, q1 in lens_params(12):
        for p2, q2 in lens_params(8):
            a, b = Lens(p1, q1), Lens(p2, q2)
            assert classify.surface_count(a, b) == classify.surface_count(b, a)
            q1_inv = pow(q1, -1, p1)
            assert classify.surface_count(Lens(p1, q1_inv), b) == classify.surface_count(a, b)


def test_oriented_lens_homeomorphic():
    assert classify.oriented_lens_homeomorphic(Lens(5, 2), Lens(5, 3))  # 2*3 = 1 mod 5
    assert classify.oriented_lens_homeomorphic(Lens(5, 2), Lens(5, 2))
    assert not classify.oriented_lens_homeomorphic(Lens(5, 2), Lens(7, 2))
    assert not classify.oriented_lens_homeomorphic(Lens(7, 2), Lens(7, 3))
    for p, q in lens_params(15):
        a = Lens(p, q)
        assert classify.oriented_lens_homeomorphic(a, Lens(p, pow(q, -1, p)))


def test_splittings_examples():
    both = classify.splittings(Lens(5, 2), Lens(5, 2))
    assert [d.case for d in both] == ["1b", "1a"]
    assert [d.symmetric for d in both] == [True, False]

    plain = classify.splittings(Lens(5, 2), Lens(7, 2))
    assert len(plain) == 2
    assert all(d.case == "1a" and not d.symmetric for d in plain)

    bundle = classify.splittings(S2xS1(), Lens(3, 1))
    assert len(bundle) == 1
    assert bundle[0].case == "2" and not bundle[0].symmetric


def test_splittings_unique_symmetric():
    one = classify.splittings(Lens(3, 1), Lens(3, 1))
    assert len(one) == 1 and one[0].case == "1b" and one[0].symmetric
    mixed = classify.splittings(Lens(4, 1), Lens(5, 2))
    assert len(mixed) == 1 and mixed[0].case == "1a" and not mixed[0].symmetric


def test_splittings_invariants_grid():
    for p1, q1 in lens_params(12):
        for p2, q2 in lens_params(12):
            a, b = Lens(p1, q1), Lens(p2, q2)
            descriptors = classify.splittings(a, b)
            assert len(descriptors) == classify.surface_count(a, b)
            symmetric = [d for d in descriptors if d.symmetric]
            assert len(symmetric) <= 1
            assert all(d.case == "1b" for d in symmetric)
            if classify.oriented_lens_homeomorphic(a, b):
                assert len(symmetric) == 1
            else:
                assert not symmetric
            assert all(d.case in ("1a", "1b") for d in descriptors)


def test_splittings_case_2_iff_bundle_summand():
    for summands in ((S2xS1(), Lens(9, 2)), (Lens(9, 2), S2xS1()), (S2xS1(), S2xS1())):
        descriptors = classify.splittings(*summands)
        assert all(d.case == "2" for d in descriptors)
    assert all(
        d.case != "2" for d in classify.splittings(Lens(5, 2), Lens(5, 4))
    )
