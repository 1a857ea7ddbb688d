"""Presentations of the genus-two Goeritz groups of connected sums, the
stabilizer subgroups they are assembled from, and confluent rewriting
systems solving their word problems.

The three cases are:

* ``1a`` lens # lens, not symmetric:
  < a, b, g1, g2 | a^2, g1^2, g2^2 > with a central;
* ``1b`` lens # lens, symmetric:
  < a, b, g1, d | a^2, g1^2, d^2, d b d = a b > with a central;
* ``2``  an S^2 x S^1 summand:
  < a, b, g, s, t | a^2, g^2, s^2 > with a and t central.

Generator tokens are shell-safe ASCII (a, b, g, g1, g2, d, s, t); a
trailing apostrophe marks an inverse, so "d b d" is the word d*b*d and
"b'" is the inverse of b.  Words are tuples of tokens; the empty word
prints as "1".

Normal forms push the central letters to the front, kill involution
squares and free cancellations, and (in case 1b) move d past b at the
cost of an a; each rule family is read off the case presentation.  The
rule sets terminate (each rule lowers a well-founded measure: the test
``test_rewrite_steps_decrease_measure``) and are locally confluent
(:func:`check_local_confluence` returns no critical pairs), so normal
forms are unique and word equality is decidable.

One stack engine, :func:`rewrite`, applies every rule set here: its stack
stays irreducible, so only rules ending in the token just pushed are
tried, and confluence makes the unique normal form independent of that
strategy.  :func:`element_order` decides orders exactly.  Stabilizers use the
generator names of the whole group, so amalgams identify generators by name.

Abelianizations read the invariant factors off the relator exponent
matrix, diagonalized by integer row and column operations and then
closed under gcd/lcm pairs into its Smith normal form.
"""

from collections import namedtuple
from itertools import groupby
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple

Word = tuple[str, ...]

CASES = ("1a", "1b", "2")

# generators of order two; b and t have infinite order
_INVOLUTIONS = frozenset({"a", "g", "g1", "g2", "d", "s"})
# generators central in every group that contains them
_CENTRAL = frozenset({"a", "t"})
# the relation d b d = a b of the symmetric splitting, as a relator
_HALF_TWIST = ("d", "b", "d", "b'", "a'")


def _lookup(table: Mapping, key: str, names: tuple = CASES, kind: str = "case"):
    """The entry of a table keyed by ``names``; an unknown key is a ValueError."""
    if key not in names:
        raise ValueError(f"unknown {kind} {key!r}; expected one of {names}")
    return table[key]


def invert_word(word: Word) -> Word:
    """Formal inverse: reverse and toggle the apostrophe on each token."""
    return tuple(tok[:-1] if tok.endswith("'") else tok + "'" for tok in reversed(word))


def parse_tokens(text: str) -> Word:
    """Parse a whitespace-separated token word; "1" is the empty word.
    Tokens are not checked against an alphabet: ``normal_form`` does that."""
    word = tuple(text.split())
    return () if word == ("1",) else word


def format_tokens(word: Word) -> str:
    return " ".join(word) if word else "1"


class Presentation(namedtuple("Presentation", "generators relators central")):
    """Generators, relator words and the generators marked central, kept as tuples."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # validates; _replace calls it

    def __new__(cls, generators: Iterable[str], relators: Iterable[Word], central: Iterable[str] = ()):
        generators, relators, central = tuple(generators), tuple(map(tuple, relators)), tuple(central)
        gens = set(generators)
        for r in relators:
            for tok in r:
                if tok.removesuffix("'") not in gens:
                    raise ValueError(f"relator token {tok!r} uses no declared generator")
        for g in central:
            if g not in gens:
                raise ValueError(f"central generator {g!r} is not declared")
        return super().__new__(cls, generators, relators, central)


def _collapse_runs(word: Word) -> str:
    runs = [(tok, len(list(group))) for tok, group in groupby(word)]
    return " ".join(tok if n == 1 else f"{tok}^{n}" for tok, n in runs)


def presentation_text(p: Presentation) -> str:
    rel = ", ".join(_collapse_runs(r) for r in p.relators)
    text = f"< {', '.join(p.generators)} | {rel} >"
    if p.central:
        text += f"  central: {', '.join(p.central)}"
    return text


def presentation_json(p: Presentation) -> dict:
    return {"generators": list(p.generators), "relators": [*map(list, p.relators)], "central": list(p.central)}


def _presentation(*gens: str) -> Presentation:
    """The presentation on ``gens``: the square of each involution in
    generator order, then the half twist when d is present; a and t are
    central."""
    relators = [(g, g) for g in gens if g in _INVOLUTIONS]
    if "d" in gens:
        relators.append(_HALF_TWIST)
    return Presentation(gens, tuple(relators), tuple(g for g in gens if g in _CENTRAL))


_GOERITZ = {
    "1a": _presentation("a", "b", "g1", "g2"),
    "1b": _presentation("a", "b", "g1", "d"),
    "2": _presentation("a", "b", "g", "s", "t"),
}
_ALLOWED_TOKENS = {c: frozenset(p.generators + invert_word(p.generators)) for c, p in _GOERITZ.items()}


def _check_alphabet(word: Word, case: str) -> None:
    allowed = _lookup(_ALLOWED_TOKENS, case)
    for tok in word:
        if tok not in allowed:
            raise ValueError(f"token {tok!r} is not over the case-{case} alphabet {_GOERITZ[case].generators}")


def goeritz_presentation(case: str) -> Presentation:
    """The Goeritz-group presentation for the given case.

    >>> print(presentation_text(goeritz_presentation("1b")))
    < a, b, g1, d | a^2, g1^2, d^2, d b d b' a' >  central: a
    """
    return _lookup(_GOERITZ, case)


# generators of each stabilizer in cases 1a, 1b and 2; the lens cases differ
# only in the unordered disk pair, which carries the half twist d if symmetric
_STABILIZER_GENERATORS = {
    # one disk and one sphere
    "disk_sphere": (("a", "b"), ("a", "b"), ("a", "b", "t")),
    # one disk and an ordered sphere pair
    "disk_sphere_sphere": (("a",), ("a",), ("a", "t")),
    # one disk and an unordered sphere pair
    "disk_sphere_pair": (("a", "g1"), ("a", "g1"), ("a", "g", "t")),
    # one disk
    "disk": (("a", "b", "g1"), ("a", "b", "g1"), ("a", "b", "g", "t")),
    # an ordered disk pair
    "disk_disk": (("a", "b"), ("a", "b"), ("a", "t")),
    # an unordered disk pair
    "disk_pair": (("a", "b"), ("a", "b", "d"), ("a", "s", "t")),
}
STABILIZERS = tuple(_STABILIZER_GENERATORS)


def stabilizer_presentation(which: str, case: str) -> Presentation:
    """Presentation of a stabilizer subgroup of the Goeritz group.

    ``which`` names what is stabilized (see :data:`STABILIZERS`); the
    case determines whether the central twist t is present and whether
    the unordered disk pair carries the half-twist relation d b d = a b.
    """
    gens = _lookup(_STABILIZER_GENERATORS, which, STABILIZERS, "stabilizer")
    return _presentation(*_lookup(dict(zip(CASES, gens)), case))


class AmalgamData(NamedTuple):
    """Two vertex groups and an edge group, subgroups of one Goeritz group
    in its generator names; the edge group includes into both by name."""

    vertex_a: Presentation
    vertex_b: Presentation
    edge: Presentation


def amalgam_assemble(data: AmalgamData) -> Presentation:
    """Presentation of the amalgamated free product.  The edge group
    includes into both vertex groups by generator name, so shared names
    are identified: generators and relators are the unions of the
    factors' (duplicates dropped; each generator new in the second factor
    goes just before the next generator the factors share), central
    generators those central in both.  A shared generator missing from the
    edge group, or an edge generator missing from a factor, is a
    ValueError."""
    a, b, edge = data
    for g in a.generators:
        if g in b.generators and g not in edge.generators:
            raise ValueError(f"inconsistent shared generator {g!r}: not carried by the edge group")
    for g in edge.generators:
        if g not in a.generators or g not in b.generators:
            raise ValueError(f"edge generator {g!r} is not a generator of both factors")
    generators = list(a.generators)
    for k, g in enumerate(b.generators):
        if g not in a.generators:
            shared = [h for h in b.generators[k:] if h in a.generators]
            generators.insert(generators.index(shared[0]) if shared else len(generators), g)
    relators = tuple(dict.fromkeys(a.relators + b.relators))
    central = tuple(g for g in a.central if g in b.central)
    return Presentation(tuple(generators), relators, central)


def case_amalgam(case: str) -> AmalgamData:
    """The amalgam that assembles the Goeritz group of the given case:
    the stabilizers of a disk and of an unordered disk pair (in case 1a,
    the disk one again with g2 for g1) over that of a disk and a sphere
    (of an ordered disk pair in case 2)."""
    vertex_a = stabilizer_presentation("disk", case)
    vertex_b = _presentation("a", "b", "g2") if case == "1a" else stabilizer_presentation("disk_pair", case)
    edge = stabilizer_presentation("disk_disk" if case == "2" else "disk_sphere", case)
    return AmalgamData(vertex_a, vertex_b, edge)


class RewriteSystem:
    """An ordered list of rules (left word -> right word, left never empty), kept
    as tuples; every shipped rule decreases the measure that
    ``tests/test_goeritz.py::test_rewrite_steps_decrease_measure`` checks."""

    # _index: token -> (left side as a list, reversed right side) of each
    # rule whose left-hand side ends in that token, in rule order
    __slots__ = ("rules", "_index")

    def __init__(self, rules: Iterable[tuple[Word, Word]]):
        rules = tuple((tuple(lhs), tuple(rhs)) for lhs, rhs in rules)
        index: dict[str, list[tuple[list[str], Word]]] = {}
        for lhs, rhs in rules:
            if not lhs:
                raise ValueError(f"rule {lhs!r} -> {rhs!r} has an empty left-hand side")
            index.setdefault(lhs[-1], []).append((list(lhs), rhs[::-1]))
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return self.rules == other.rules if isinstance(other, RewriteSystem) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.rules)

    def __repr__(self) -> str:
        return f"RewriteSystem(rules={self.rules!r})"


def _build_rules(p: Presentation) -> RewriteSystem:
    """The rules read off a presentation: each involution square g g gives
    g' -> g and g g -> 1, every other generator free cancellation, the
    half twist d b -> a b d and d b' -> a b' d, and each central z, in
    order, rules moving z (and z' if z is free) left past the letters of
    the generators not central before it."""
    involutions = [g for g in p.generators if (g, g) in p.relators]
    rules: list[tuple[Word, Word]] = [((g + "'",), (g,)) for g in involutions]
    rules += [((g, g), ()) for g in involutions]
    free = [g for g in p.generators if g not in involutions]
    rules += [r for g in free for r in (((g, g + "'"), ()), ((g + "'", g), ()))]
    if _HALF_TWIST in p.relators:
        rules += [(("d", tok), ("a", tok, "d")) for tok in ("b", "b'")]
    for i, z in enumerate(p.central):
        letters = (z,) if z in involutions else (z, z + "'")
        ahead = p.central[: i + 1]
        movers = [g for g in involutions if g not in ahead]
        movers += [tok for g in free if g not in ahead for tok in (g, g + "'")]
        for tok in movers:
            rules += [((tok, y), (y, tok)) for y in letters]
    return RewriteSystem(rules)


_SYSTEMS = {case: _build_rules(p) for case, p in _GOERITZ.items()}


def rewrite_system(case: str) -> RewriteSystem:
    """The shipped confluent rewriting system for the case."""
    return _lookup(_SYSTEMS, case)


def _push(stack: list[str], word: Word, index: dict) -> list[str]:
    """Push ``word`` onto the irreducible ``stack``, rewriting as it goes."""
    pending = list(reversed(word))
    while pending:
        tok = pending.pop()
        stack.append(tok)
        for lhs, rhs_reversed in index.get(tok, ()):
            if stack[-len(lhs) :] == lhs:
                del stack[-len(lhs) :]
                pending += rhs_reversed
                break
    return stack


def rewrite(word: Word, rules: RewriteSystem) -> Word:
    """Apply the rules to exhaustion.  Tokens are pushed one at a time onto a
    stack that stays irreducible, so a new redex must end at the token just
    pushed: only rules whose left-hand side ends in it are tried, and a match
    is popped and its right-hand side read next.  A terminating, locally
    confluent system has one normal form that every strategy reaches, so
    this one returns it."""
    return tuple(_push([], word, rules._index))


def normal_form(case: str, word: Word) -> Word:
    """The unique irreducible word equal to ``word`` in the case's
    group; idempotent."""
    _check_alphabet(word, case)
    return rewrite(word, rewrite_system(case))


def equal(case: str, w1: Word, w2: Word) -> bool:
    """Word problem: equality in the Goeritz group of the case."""
    return normal_form(case, w1) == normal_form(case, w2)


class CriticalPair(NamedTuple):
    """An overlap word whose two one-step resolutions rewrite to distinct
    irreducible words."""

    word: Word
    left_result: Word
    right_result: Word


def check_local_confluence(rs: RewriteSystem) -> list[CriticalPair]:
    """Enumerate all overlaps of left-hand sides, rewrite both
    resolutions to irreducible form and report the mismatches, each once
    and in the order first found.  An empty list certifies unique normal
    forms for a terminating system."""
    rules = rs.rules

    def overlaps() -> Iterable[tuple[Word, Word, Word]]:
        # (overlap word, its left resolution, its right resolution)
        for l1, r1 in rules:
            for l2, r2 in rules:
                for k in range(1, min(len(l1), len(l2)) + 1):
                    if l1[len(l1) - k :] != l2[:k]:
                        continue
                    if k == len(l1) == len(l2) and (l1, r1) == (l2, r2):
                        continue
                    yield l1 + l2[k:], r1 + l2[k:], l1[: len(l1) - k] + r2
                if len(l2) < len(l1):
                    for i in range(len(l1) - len(l2) + 1):
                        if l1[i : i + len(l2)] == l2:
                            yield l1, r1, l1[:i] + r2 + l1[i + len(l2) :]

    pairs = (CriticalPair(w, rewrite(x, rs), rewrite(y, rs)) for w, x, y in overlaps())
    return list(dict.fromkeys(p for p in pairs if p.left_result != p.right_result))


class AbelianInvariants(NamedTuple):
    """Invariant factors of the abelianization: the torsion coefficients
    (each dividing the next) and the free rank."""

    torsion: tuple[int, ...]
    free_rank: int


def _smith_diagonal(rows: list[list[int]], ncols: int) -> list[int]:
    """Nonzero diagonal of the Smith normal form of an integer matrix with
    ``ncols`` columns, each entry dividing the next.  First diagonalize:
    pivot on a least nonzero entry and clear its row and column by integer
    division, a nonzero remainder being the next, smaller pivot; once both
    are clear, record |p| and drop them.  Then close the diagonal under
    gcd/lcm pairs, which is the Smith form of a diagonal matrix."""
    a = [list(r) for r in rows]
    cols = list(range(ncols))
    diag: list[int] = []
    while nonzero := [(abs(r[j]), i, j) for i, r in enumerate(a) for j in cols if r[j]]:
        _, i, j = min(nonzero)
        pivot_row, p = a[i], a[i][j]
        for r in a:
            if r is not pivot_row:
                q = r[j] // p
                for k in cols:
                    r[k] -= q * pivot_row[k]
        for k in cols:
            if k != j:
                q = pivot_row[k] // p
                for r in a:
                    r[k] -= q * r[j]
        if [pivot_row[k] for k in cols if pivot_row[k]] == [p] == [r[j] for r in a if r[j]]:
            diag.append(abs(p))
            del a[i]
            cols.remove(j)
    for i in range(len(diag)):
        for k in range(i + 1, len(diag)):
            diag[i], diag[k] = gcd(diag[i], diag[k]), lcm(diag[i], diag[k])
    return diag


def abelianization(p: Presentation) -> AbelianInvariants:
    """Invariant factors of the abelianized group, from the Smith normal
    form of the relator exponent matrix."""
    rows = [[r.count(g) - r.count(g + "'") for g in p.generators] for r in p.relators]
    diag = _smith_diagonal(rows, len(p.generators))  # its entries are nonzero
    return AbelianInvariants(tuple(d for d in diag if d > 1), len(p.generators) - len(diag))


def element_order(case: str, word: Word, cutoff: int = 64) -> int | None:
    """The order of the element if it is at most ``cutoff``, else None; the
    identity has order 1 at every cutoff.  A torsion element w has w^2 = 1, so
    the normal form of w^2 decides the order: C = <a> (<a, t> in case 2) is
    central, G/C is the free product Z * Z/2 * Z/2 (Z/2 * (Z x Z/2) in case
    1b), and torsion in a free product is conjugate into a factor (Magnus,
    Karrass and Solitar, Combinatorial Group Theory, Section 4.1).  So w is
    u x c u^-1 with x = 1 or an involution and c in C, and c^2 is 1 or t^2k."""
    nf = normal_form(case, word)
    if not nf:
        return 1
    square = _push(list(nf), nf, rewrite_system(case)._index)
    return None if square or cutoff < 2 else 2
