"""The value records of the library: defaults, equality and hashing by
fields, read-only fields, the validation messages and the reprs."""

import pickle

import pytest

from heegaard2 import complexes, farey
from heegaard2.classify import Lens, S2xS1, SplittingDescriptor
from heegaard2.complexes import KIND_SLOPE, Complex, Vertex
from heegaard2.fgroup import PrimitivityVerdict
from heegaard2.goeritz import Presentation, RewriteSystem, check_local_confluence
from heegaard2.surgery import SplittingParams


def assert_rebuilds_validate(record, field, bad, message):
    """``_replace`` and ``_make`` run the record's validation: a valid
    rebuild is equal to the record, and ``field`` set to ``bad`` raises."""
    assert record._replace() == record == type(record)._make(record._asdict().values())
    assert type(record._make(record._asdict().values())) is type(record)
    fields = record._asdict() | {field: bad}
    for rebuild in (lambda: record._replace(**{field: bad}),
                    lambda: type(record)._make(fields.values())):
        with pytest.raises(ValueError, match=f"^{message}$"):
            rebuild()


def assert_value_semantics(make, other, field):
    """``make()`` builds equal, equally hashed records, unequal to
    ``other``, whose ``field`` cannot be assigned."""
    a, b = make(), make()
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != other
    with pytest.raises(AttributeError):
        setattr(a, field, None)


def test_primitivity_verdict():
    verdict = PrimitivityVerdict("primitive")
    assert (verdict.kind, verdict.root, verdict.exponent) == ("primitive", None, None)
    assert_value_semantics(
        lambda: PrimitivityVerdict("power-of-primitive", "xy", 3),
        PrimitivityVerdict("power-of-primitive", "xy", 2),
        "exponent",
    )
    assert repr(verdict) == "PrimitivityVerdict(kind='primitive', root=None, exponent=None)"


def test_lens():
    assert_value_semantics(lambda: Lens(5, 2), Lens(5, 3), "q")
    assert repr(Lens(5, 2)) == "Lens(p=5, q=2)"
    assert str(Lens(5, 2)) == "lens:5,2"
    for args, message in (
        ((1, 0), "p must be at least 2, got 1"),
        ((5, 5), "require 1 <= q < p, got q=5, p=5"),
        ((4, 2), "p=4 and q=2 are not coprime"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Lens(*args)
    assert_rebuilds_validate(Lens(5, 2), "q", 5, "require 1 <= q < p, got q=5, p=5")
    with pytest.raises(ValueError, match="^p=4 and q=2 are not coprime$"):
        Lens._make((4, 2))


def test_lens_compares_as_a_tuple():
    assert Lens(5, 2) == (5, 2)
    assert Lens(5, 2) != S2xS1()


def test_s2xs1():
    assert_value_semantics(S2xS1, Lens(2, 1), "p")
    assert S2xS1()
    assert repr(S2xS1()) == "S2xS1()" and str(S2xS1()) == "s2xs1"
    assert len({S2xS1(), S2xS1()}) == 1


def test_splitting_descriptor():
    pair = (Lens(5, 2), S2xS1())
    assert_value_semantics(
        lambda: SplittingDescriptor("2", False, pair),
        SplittingDescriptor("2", True, pair),
        "symmetric",
    )
    assert SplittingDescriptor("2", False, pair).summands == pair


def test_splitting_params():
    assert SplittingParams(5, 2, 3).q2 == 1
    assert_value_semantics(lambda: SplittingParams(5, 2, 3), SplittingParams(5, 2, 3, 2), "p1")
    assert repr(SplittingParams(5, 2, 3)) == "SplittingParams(p1=5, q1=2, p2=3, q2=1)"
    with pytest.raises(ValueError, match="^summand 1: p must be at least 2, got 1$"):
        SplittingParams(1, 1, 3)
    with pytest.raises(ValueError, match="^summand 2: p=4 and q=2 are not coprime$"):
        SplittingParams(5, 2, 4, 2)
    assert_rebuilds_validate(
        SplittingParams(5, 2, 3), "q2", 3, "summand 2: require 1 <= q < p, got q=3, p=3"
    )


def test_presentation():
    assert Presentation(("a",), (("a", "a"),)).central == ()
    assert_value_semantics(
        lambda: Presentation(("a", "b"), (("a", "a"),), ("b",)),
        Presentation(("a", "b"), (("a", "a"),)),
        "relators",
    )
    with pytest.raises(ValueError, match="^relator token 'c' uses no declared generator$"):
        Presentation(("a",), (("a", "c"),))
    with pytest.raises(ValueError, match="^central generator 'z' is not declared$"):
        Presentation(("a",), (), ("z",))
    assert_rebuilds_validate(
        Presentation(("a", "b"), (("a", "a"),), ("b",)), "central", ("z",),
        "central generator 'z' is not declared",
    )


def test_presentation_freezes_its_fields():
    """Fields given as lists or iterators are kept as tuples, each relator a
    tuple of tokens, that compare and hash as the fields."""
    frozen = Presentation(("a", "b"), (("a", "a"),), ("a",))
    from_iterators = Presentation(iter(["a", "b"]), iter([("a", "a")]), iter(["a"]))
    assert from_iterators == frozen and from_iterators.relators == (("a", "a"),)
    assert_value_semantics(lambda: Presentation(["a", "b"], [["a", "a"]], ["a"]),
                           Presentation(("a", "b"), (("a", "a"),)), "central")
    from_lists = Presentation(["a", "b"], [["a", "a"]], ["a"])
    assert from_lists == frozen and hash(from_lists) == hash(frozen)


def test_complex():
    vs = (Vertex(0, KIND_SLOPE, "0/1"), Vertex(1, KIND_SLOPE, "1/0"))
    es = frozenset({(0, 1)})
    assert Complex(vs, es).triangles == frozenset()
    assert_value_semantics(lambda: Complex(vs, es), Complex(vs, frozenset()), "edges")
    assert repr(Complex(vs, frozenset())).startswith("Complex(vertices=(Vertex(id=0,")
    for args, message in (
        ((vs + vs[:1], es), "duplicate vertex ids"),
        (((Vertex(0, "purple", "x"),), frozenset()), "unknown vertex kind 'purple'"),
        ((vs, frozenset({(1, 0)})), r"bad edge \(1, 0\)"),
        ((vs, es, frozenset({(0, 1, 2)})), r"triangle \(0, 1, 2\) is missing edge \(0, 2\)"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Complex(*args)


def _built_complexes():
    ball = farey.stern_brocot_ball(3)
    vertices = [Vertex(2, KIND_SLOPE, "1/1"), Vertex(0, KIND_SLOPE, "1/0"), Vertex(5, KIND_SLOPE, "x")]
    return {
        "ball": ball,
        "odd": farey.f_odd_subcomplex(ball),
        "induced": complexes.induced(ball, range(0, 32, 3)),
        "make": complexes.make_complex(vertices, [(2, 0)]),
        "tree": complexes.sp_tree_model(3, 3),
        "graft": complexes.haken_complex_model(3, 3, 3),
        "cone": complexes.sp_cone_model(4),
        "empty": Complex((), frozenset()),
    }


@pytest.mark.parametrize("name", list(_built_complexes()))
def test_complex_record_contract(name):
    """Every builder gives a record equal to, and hashed as, the complex
    of its three fields, with the named-tuple repr."""
    cpx = _built_complexes()[name]
    again = Complex(cpx.vertices, cpx.edges, cpx.triangles)
    assert cpx == again and hash(cpx) == hash(again)
    other = Complex((Vertex(99, KIND_SLOPE, "x"),), frozenset())
    assert_value_semantics(lambda: _built_complexes()[name], other, "vertices")
    assert repr(cpx) == (f"Complex(vertices={cpx.vertices!r}, edges={cpx.edges!r}, "
                         f"triangles={cpx.triangles!r})")
    assert pickle.loads(pickle.dumps(cpx)) == cpx


def test_rewrite_system():
    rules = ((("a", "a"), ()), (("b'",), ("b",)))
    assert_value_semantics(lambda: RewriteSystem(rules), RewriteSystem(rules[:1]), "rules")
    assert RewriteSystem(rules) != rules
    assert repr(RewriteSystem(rules[:1])) == "RewriteSystem(rules=((('a', 'a'), ()),))"
    with pytest.raises(AttributeError):
        RewriteSystem(rules)._index = {}
    with pytest.raises(ValueError, match=r"^rule \(\) -> \('a',\) has an empty left-hand side$"):
        RewriteSystem((((), ("a",)),))


def test_rewrite_system_freezes_its_rules():
    """Rules given as lists, from an iterator or in a list the caller keeps are
    kept as a tuple of word pairs that compares, hashes and rewrites as the field."""
    rules = ((("u", "v"), ("v",)), (("v", "u"), ("u",)))  # diverge on u v u and v u v
    frozen = RewriteSystem(rules)
    assert RewriteSystem(iter(rules)) == frozen
    assert len(check_local_confluence(RewriteSystem(iter(rules)))) == 2
    given = [[list(lhs), list(rhs)] for lhs, rhs in rules]
    assert_value_semantics(lambda: RewriteSystem(given), RewriteSystem(rules[:1]), "rules")
    kept = RewriteSystem(given)
    assert kept == frozen and hash(kept) == hash(frozen)
    given.append([["u"], []])
    assert kept.rules == rules and check_local_confluence(kept) == check_local_confluence(frozen)
