"""Shared test utilities: exhaustive word enumeration and independent
oracles kept deliberately separate from the library implementations."""

import argparse
import math
import re
import sys
from collections import deque
from functools import partial
from operator import itemgetter

from heegaard2 import cli, complexes, farey, fgroup, surgery
from heegaard2.complexes import KIND_BLACK, KIND_SLOPE, KIND_WHITE, Complex, Vertex
from heegaard2.goeritz import Presentation

_INV = {"x": "X", "X": "x", "y": "Y", "Y": "y"}
_ORDER = str.maketrans("xXyY", "abcd")


def cyclically_reduced_words(max_len):
    """All freely and cyclically reduced words of length 1..max_len."""

    def build(prefix, n):
        if len(prefix) == n:
            if n == 1 or prefix[0] != _INV[prefix[-1]]:
                yield "".join(prefix)
            return
        for ch in "xXyY":
            if prefix and ch == _INV[prefix[-1]]:
                continue
            prefix.append(ch)
            yield from build(prefix, n)
            prefix.pop()

    for n in range(1, max_len + 1):
        yield from build([], n)


def free_reduce_oracle(word):
    """``free_reduce`` by deleting the leftmost inverse pair, one pair at a
    time, until none is left."""
    w = word
    while True:
        for i in range(len(w) - 1):
            if w[i] == _INV[w[i + 1]]:
                w = w[:i] + w[i + 2 :]
                break
        else:
            return w


def apply_endomorphism_oracle(word, x_image, y_image):
    """``apply_endomorphism`` as first written, verbatim: a per-letter
    generator of images, joined."""
    table = {
        "x": x_image,
        "X": fgroup.invert(x_image),
        "y": y_image,
        "Y": fgroup.invert(y_image),
    }
    return "".join(table[ch] for ch in word)


def cyclic_reduce_oracle(word):
    """``cyclic_reduce`` by re-slicing: strip one inverse first/last pair
    at a time, copying the rest of the word each time."""
    w = free_reduce_oracle(word)
    while len(w) >= 2 and w[0] == _INV[w[-1]]:
        w = w[1:-1]
    return w


def least_rotation_oracle(word):
    """Least rotation of ``cyclic_reduce_oracle(word)``, by brute-force
    enumeration of all rotations."""
    w = cyclic_reduce_oracle(word)
    if not w:
        return ""
    rotations = [w[i:] + w[:i] for i in range(len(w))]
    return min(rotations, key=lambda r: r.translate(_ORDER))


# The eight Whitehead moves of the rank-2 free group that can change cyclic
# length, written out here and not read from ``fgroup``: fix one generator
# and multiply the other by it on either side with either sign, as
# (image of x, image of y).
WHITEHEAD_MOVES = (
    ("xy", "y"), ("xY", "y"), ("yx", "y"), ("Yx", "y"),
    ("x", "yx"), ("x", "yX"), ("x", "xy"), ("x", "Xy"),
)

# The eight letter symmetries, as images of x X y Y: the four sign changes
# of the two generators, without and with swapping x and y.
_LETTER_SYMMETRIES = tuple(
    str.maketrans("xXyY", image)
    for image in ("xXyY", "xXYy", "XxyY", "XxYy", "yYxX", "yYXx", "YyxX", "YyXx")
)


def letter_symmetries_oracle(word):
    """The images of ``word`` under the eight letter symmetries."""
    return [word.translate(table) for table in _LETTER_SYMMETRIES]


def is_primitive_oracle(word):
    """Greedy Whitehead reduction on cyclic reductions: apply the first move
    that shortens the cyclic length until none does; primitive exactly when
    that ends at length 1.  Only lengths are compared, and cyclic length does
    not change under conjugation, so the greedy choices are those of the same
    loop run on least rotations."""
    w = cyclic_reduce_oracle(word)
    if not w:
        return False
    while len(w) > 1:
        for x_image, y_image in WHITEHEAD_MOVES:
            image = cyclic_reduce_oracle(apply_endomorphism_oracle(w, x_image, y_image))
            if len(image) < len(w):
                w = image
                break
        else:
            return False
    return True


def surgery_word_oracle(params, i):
    """``surgery_word`` as first written, verbatim: the word expanded from
    the gaps in index order, then canonicalized by ``fgroup``."""
    x_block = "x" * params.p2
    raw = "".join(x_block + "y" * g for g in surgery.gap_pattern(params, i))
    return fgroup.cyclic_canonical(raw)


# The hand-written cyclic-word scanners that ``fgroup`` replaced by
# searches in the doubled word, kept verbatim as reference oracles.
_SIGN_CHANGES = tuple(str.maketrans(s, s.swapcase()) for s in ("", "yY", "xX", "xXyY"))


def _has_flanked_power(v: str) -> bool:
    # cyclic subword x y^p X with p >= 1, literal letters
    n = len(v)
    if n < 3:
        return False
    d = v + v
    for i in range(n):
        if d[i] != "x":
            continue
        j = i + 1
        while j < i + n and d[j] == "y":
            j += 1
        p = j - i - 1
        if p >= 1 and p + 2 <= n and d[j] == "X":
            return True
    return False


def _has_double_square(v: str) -> bool:
    # cyclic subword xxyy, literal letters
    n = len(v)
    if n < 4:
        return False
    idx = (v + v).find("xxyy")
    return 0 <= idx < n


def subword_obstruction_oracle(word):
    """``has_subword_obstruction`` by the two index-loop scanners."""
    w = fgroup.cyclic_reduce(word)
    return any(
        _has_flanked_power(v) or _has_double_square(v)
        for v in (u.translate(sign) for u in (w, w[::-1]) for sign in _SIGN_CHANGES)
    )


def letter_obstruction_reason_oracle(word):
    """``letter_obstruction_reason`` by the set of n cyclic letter pairs."""
    w = fgroup.cyclic_reduce(word)
    seen = set(w)
    if "x" in seen and "X" in seen:
        return "contains both x and X"
    if "y" in seen and "Y" in seen:
        return "contains both y and Y"
    n = len(w)
    if n >= 2:
        pairs = {w[i] + w[(i + 1) % n] for i in range(n)}
        if pairs & {"xx", "XX"} and pairs & {"yy", "YY"}:
            return "contains a square of each generator"
    return None


def _block_form(v: str) -> bool:
    # cyclic product of blocks x^e y^n / x^e y^(n+1) with literal letters:
    # one sign of x throughout, only positive y, y-runs of two adjacent sizes
    if "Y" in v or ("x" in v and "X" in v):
        return False
    n = len(v)
    xs = [i for i, ch in enumerate(v) if ch in "xX"]
    if not xs:
        return False
    gaps = []
    for k, i in enumerate(xs):
        nxt = xs[(k + 1) % len(xs)]
        gaps.append((nxt - i - 1) % n)
    return max(gaps) - min(gaps) <= 1


def block_form_oracle(word):
    """``has_primitive_block_form`` by the index list and modular gaps."""
    w = fgroup.cyclic_reduce(word)
    if not w:
        return False
    return any(_block_form(v) for v in fgroup.letter_symmetries(w))


def power_root_oracle(word):
    """``primitive_power_root`` with the root found by the divisor loop, on
    the least rotation and the primitivity of the oracles in this file."""
    c = least_rotation_oracle(word)
    n = len(c)
    if n == 0:
        return fgroup.PrimitivityVerdict("trivial")
    root, exponent = c, 1
    for d in range(1, n):
        if n % d == 0 and c[:d] * (n // d) == c:
            root, exponent = c[:d], n // d
            break
    if not is_primitive_oracle(root):
        return fgroup.PrimitivityVerdict("neither")
    if exponent == 1:
        return fgroup.PrimitivityVerdict("primitive")
    return fgroup.PrimitivityVerdict("power-of-primitive", root, exponent)


def tuple_rotation_equal(t1, t2):
    if len(t1) != len(t2):
        return False
    if not t1:
        return True
    doubled = t1 + t1
    return any(doubled[i : i + len(t1)] == t2 for i in range(len(t1)))


# The Goeritz-group and stabilizer presentations written out by hand, as
# given with the paper's amalgam decomposition.  The library derives them
# from one generator vocabulary and must reproduce them exactly.
GOERITZ_REFERENCE = {
    "1a": Presentation(
        ("a", "b", "g1", "g2"),
        (("a", "a"), ("g1", "g1"), ("g2", "g2")),
        ("a",),
    ),
    "1b": Presentation(
        ("a", "b", "g1", "d"),
        (("a", "a"), ("g1", "g1"), ("d", "d"), ("d", "b", "d", "b'", "a'")),
        ("a",),
    ),
    "2": Presentation(
        ("a", "b", "g", "s", "t"),
        (("a", "a"), ("g", "g"), ("s", "s")),
        ("a", "t"),
    ),
}

_LENS_STABILIZER_REFERENCE = {
    "disk_sphere": Presentation(("a", "b"), (("a", "a"),), ("a",)),
    "disk_sphere_sphere": Presentation(("a",), (("a", "a"),), ("a",)),
    "disk_sphere_pair": Presentation(("a", "g1"), (("a", "a"), ("g1", "g1")), ("a",)),
    "disk": Presentation(("a", "b", "g1"), (("a", "a"), ("g1", "g1")), ("a",)),
    "disk_disk": Presentation(("a", "b"), (("a", "a"),), ("a",)),
}

STABILIZER_REFERENCE = {
    "1a": {
        **_LENS_STABILIZER_REFERENCE,
        "disk_pair": Presentation(("a", "b"), (("a", "a"),), ("a",)),
    },
    "1b": {
        **_LENS_STABILIZER_REFERENCE,
        "disk_pair": Presentation(
            ("a", "b", "d"),
            (("a", "a"), ("d", "d"), ("d", "b", "d", "b'", "a'")),
            ("a",),
        ),
    },
    "2": {
        "disk_sphere": Presentation(("a", "b", "t"), (("a", "a"),), ("a", "t")),
        "disk_sphere_sphere": Presentation(("a", "t"), (("a", "a"),), ("a", "t")),
        "disk_sphere_pair": Presentation(
            ("a", "g", "t"), (("a", "a"), ("g", "g")), ("a", "t")
        ),
        "disk": Presentation(
            ("a", "b", "g", "t"), (("a", "a"), ("g", "g")), ("a", "t")
        ),
        "disk_disk": Presentation(("a", "t"), (("a", "a"),), ("a", "t")),
        "disk_pair": Presentation(
            ("a", "s", "t"), (("a", "a"), ("s", "s")), ("a", "t")
        ),
    },
}


def goeritz_random_word(rng, case, max_len=30):
    from heegaard2 import goeritz

    gens = goeritz.goeritz_presentation(case).generators
    tokens = [g for g in gens] + [g + "'" for g in gens]
    return tuple(rng.choice(tokens) for _ in range(rng.randrange(0, max_len + 1)))


def goeritz_insertion_words(case):
    """Relators, their inverses, and commutators of central generators."""
    from heegaard2 import goeritz

    pres = goeritz.goeritz_presentation(case)
    words = list(pres.relators)
    words += [goeritz.invert_word(r) for r in pres.relators]
    for z in pres.central:
        for g in pres.generators:
            if g != z:
                words.append((g, z, g + "'", z + "'"))
                words.append((z, g, z + "'", g + "'"))
    return words


def rewrite_oracle(word, rules):
    """Plain rule rewriting: scan left to right, try every rule at each
    position, splice the first match in and back up.  The library's stack
    engine must reach the same normal forms on confluent systems."""
    rules = tuple(rules)
    w = list(word)
    max_lhs = max((len(l) for l, _ in rules), default=1)
    i = 0
    while i < len(w):
        for lhs, rhs in rules:
            k = len(lhs)
            if tuple(w[i : i + k]) == lhs:
                w[i : i + k] = rhs
                i = max(0, i - max_lhs + 1)
                break
        else:
            i += 1
    return tuple(w)


def oracle_order(case, word, cutoff, normal_form=None):
    """``element_order`` by probing powers: the least k <= cutoff with
    w^k = 1, else None; the identity has order 1 at every cutoff.  Each
    power is rewritten from scratch by ``normal_form`` (by default the
    scan-and-splice oracle on the case's rules)."""
    from heegaard2 import goeritz

    if normal_form is None:
        normal_form = partial(rewrite_oracle, rules=goeritz.rewrite_system(case).rules)
    nf = normal_form(word)
    if not nf:
        return 1
    power = ()
    for k in range(1, cutoff + 1):
        power = normal_form(power + nf)
        if not power:
            return k
    return None


def rules_oracle(case):
    """The Goeritz rule list as first written: each rule family spelled out
    for its case, with b and t as the free letters and the half twist
    added for case 1b.  The library reads the same rules, in the same
    order, off the case presentation."""
    from heegaard2.goeritz import _ALPHABETS, _INVOLUTIONS, _free_cancellation

    gens = _ALPHABETS[case]
    involutions = [g for g in gens if g in _INVOLUTIONS]
    rules = [((g + "'",), (g,)) for g in involutions]
    rules += [((g, g), ()) for g in involutions]
    free = [g for g in ("b", "t") if g in gens]
    rules += _free_cancellation(free)
    if case == "1b":
        rules.append((("d", "b"), ("a", "b", "d")))
        rules.append((("d", "b'"), ("a", "b'", "d")))
    movers = [g for g in involutions if g != "a"]
    for tok in movers + [tok for g in free for tok in (g, g + "'")]:
        rules.append(((tok, "a"), ("a", tok)))
    if "t" in gens:
        for tok in [g for g in movers if g != "t"] + ["b", "b'"]:
            rules.append(((tok, "t"), ("t", tok)))
            rules.append(((tok, "t'"), ("t'", tok)))
    return tuple(rules)


def stern_brocot_ball_oracle(depth):
    """Farey ball by rescanning: every round sorts all edges and takes
    those with one apex as the boundary.  The library grows the same ball
    off its parent table and must produce identical ids, edges and triangles."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    ids = {}
    slopes = []
    edges = set()
    triangles = set()
    apexes = {}

    def vid(s):
        if s not in ids:
            ids[s] = len(slopes)
            slopes.append(s)
        return ids[s]

    def add_triangle(sa, sb, sc):
        tri = tuple(sorted((vid(sa), vid(sb), vid(sc))))
        triangles.add(tri)
        a, b, c = tri
        for edge, apex in (((a, b), c), ((a, c), b), ((b, c), a)):
            edges.add(edge)
            apexes.setdefault(edge, set()).add(apex)

    base = [farey.INFINITY, farey.Slope(0, 1), farey.Slope(1, 1), farey.Slope(-1, 1)]
    for s in base:
        vid(s)
    add_triangle(base[0], base[1], base[2])
    add_triangle(base[0], base[1], base[3])

    for _ in range(depth):
        boundary = sorted(e for e in edges if len(apexes[e]) == 1)
        for ia, ib in boundary:
            sa, sb = slopes[ia], slopes[ib]
            candidates = {
                farey.slope_normalize(sa.n + sb.n, sa.d + sb.d),
                farey.slope_normalize(sa.n - sb.n, sa.d - sb.d),
            }
            existing = {slopes[c] for c in apexes[(ia, ib)]}
            fresh = [s for s in sorted(candidates) if s not in existing]
            if len(fresh) != 1:
                raise AssertionError(f"expected one new apex on edge {sa}-{sb}")
            add_triangle(sa, sb, fresh[0])

    vertices = [
        complexes.Vertex(i, complexes.KIND_SLOPE, str(s)) for i, s in enumerate(slopes)
    ]
    return complexes.make_complex(vertices, edges, triangles)


def grow_frontier_oracle(depth):
    """``farey._grow`` as it was before each round read its edges off the
    parent table, kept verbatim: the frontier lists the boundary edges
    (a, b, apex) and is sorted every round; a new vertex c on (a, b)
    replaces its edge by (a, c, b) and (b, c, a).  It reads ``farey``'s
    base, mediants and label writer at call time, so patches apply."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    nums = [s.n for s in farey._BASE]
    dens = [s.d for s in farey._BASE]
    pa, pb = [0, 0], [1, 1]
    frontier = [(0, 2, 1), (1, 2, 0), (0, 3, 1), (1, 3, 0)]
    for _ in range(depth):
        frontier.sort()
        grown = []
        for a, b, x in frontier:
            an, ad, bn, bd, xn, xd = nums[a], dens[a], nums[b], dens[b], nums[x], dens[x]
            pn, pd, mn, md = farey._mediants(an, ad, bn, bd)
            p_is_x = pn == xn and pd == xd
            cn, cd = (mn, md) if p_is_x else (pn, pd)
            # the determinants of a-b, a-c and c-b are all +-1 iff their product is
            dets = (an * bd - bn * ad) * (an * cd - cn * ad) * (cn * bd - bn * cd)
            if p_is_x == (mn == xn and md == xd) or dets not in (1, -1):
                raise AssertionError(f"expected one new apex on edge {farey._label(an, ad)}-{farey._label(bn, bd)}")
            c = len(nums)
            nums.append(cn)
            dens.append(cd)
            pa.append(a)
            pb.append(b)
            grown += ((a, c, b), (b, c, a))
        frontier = grown
    return farey._Build(nums, dens, pa, pb)


def odd_subcomplex_oracle(c):
    """Full subcomplex on the vertices whose numerator, read by ``int`` up
    to the ``/`` and not by the library's label grammar, is odd."""
    keep = {v.id for v in c.vertices if int(v.label.partition("/")[0]) % 2}
    return induced_oracle(c, keep)


# ``f_odd_subcomplex`` as first written, verbatim: one MULTILINE regex pass
# over the newline-joined labels, guarded by a newline count, and a second
# regex to name an offender.  The library's one-pattern scan must return
# the same complex or raise the same message.
_SLOPE_LABEL = r"-?\d+/\d+"
# a whole line that is a slope label, capturing the last digit before the /
_SLOPE_LINE = re.compile(r"^-?\d*(\d)/\d+$", re.MULTILINE | re.ASCII)


def f_odd_subcomplex_oracle(c):
    if {v.kind for v in c.vertices} - {KIND_SLOPE}:
        v = next(v for v in c.vertices if v.kind != KIND_SLOPE)
        raise ValueError(f"vertex {v.id} ({v.label!r}) has kind {v.kind!r}, not a slope")
    labels = "\n".join(map(itemgetter(2), c.vertices))
    digits = _SLOPE_LINE.findall(labels)
    # a newline inside a label would split it into lines that each pass
    if c.vertices and (
        labels.count("\n") >= len(c.vertices) or len(digits) != len(c.vertices)
    ):
        v = next(v for v in c.vertices if not re.fullmatch(_SLOPE_LABEL, v.label, re.ASCII))
        raise ValueError(f"vertex {v.id} has label {v.label!r}, not a slope n/d")
    keep = {v.id for v, d in zip(c.vertices, digits) if d in "13579"}
    return induced_oracle(c, keep)


def printed_slope(label):
    """The slope s with ``str(s) == label``, or None: the label must read
    back, character for character, as ``{n}/{d}`` of an irreducible n/d
    with d >= 0 (1/0 the only one with d = 0)."""
    num, _, den = label.partition("/")
    try:
        n, d = int(num), int(den)
    except ValueError:
        return None
    if f"{n}/{d}" != label or d < 0 or math.gcd(n, d) != 1 or (d == 0 and n != 1):
        return None
    return farey.Slope(n, d)


def reach_oracle(depth, margin=2):
    """Two-ball reach check: the odd vertices of the depth ball, by label,
    all lie in the component of 1/0 in the odd subcomplex of a separately
    built ball of depth ``depth + margin``."""
    small = stern_brocot_ball_oracle(depth)
    odd_small = {v.label for v in odd_subcomplex_oracle(small).vertices}
    big = odd_subcomplex_oracle(stern_brocot_ball_oracle(depth + margin))
    labels = {v.id: v.label for v in big.vertices}
    inf_id = next(v.id for v in big.vertices if v.label == "1/0")
    return odd_small <= {labels[i] for i in complexes.component(big, inf_id)}


def cut_build(build, v):
    """The build with every edge at vertex ``v`` moved onto 0/1 (id 1,
    even), so that ``v`` has no odd neighbor left."""
    pa = [1 if a == v else a for a in build.pa]
    pb = [1 if b == v else b for b in build.pb]
    if 2 <= v < len(build.nums):
        pa[v - 2] = pb[v - 2] = 1
    return build._replace(pa=pa, pb=pb)


def rehang_build(build, v, a, b):
    """The build with vertex ``v`` grown on the edge a-b instead."""
    pa, pb = list(build.pa), list(build.pb)
    pa[v - 2], pb[v - 2] = a, b
    return build._replace(pa=pa, pb=pb)


def odd_graft_tree_oracle(farey_depth):
    """Graft slots and local edges from the oracle ball: the component of
    1/0 in its odd subcomplex, in BFS order with neighbors by increasing
    id, and its edges renumbered by BFS position."""
    fodd = odd_subcomplex_oracle(stern_brocot_ball_oracle(farey_depth))
    inf_id = next(v.id for v in fodd.vertices if v.label == "1/0")
    order = complexes.component(fodd, inf_id)
    pos = {vid: j for j, vid in enumerate(order)}
    labels = {v.id: v.label for v in fodd.vertices}
    local_edges = sorted(
        tuple(sorted((pos[a], pos[b])))
        for a, b in fodd.edges
        if a in pos and b in pos
    )
    return [labels[vid] for vid in order], local_edges


def graft_copies(model, black_count, whites_per_black):
    """Each black's grafted copy in ``model``, a ``haken_complex_model`` on
    ``sp_tree_model(black_count, whites_per_black)``, rebuilt from labels and
    keyed by the black's label: the vertices labelled as that black's whites
    in the bipartite tree, by increasing tree id, then the vertices labelled
    ``disk{k}:...``, by increasing id."""
    sp = complexes.sp_tree_model(black_count, whites_per_black)
    label_of = {v.id: v.label for v in sp.vertices}
    id_of = {v.label: v.id for v in model.vertices}
    copies = {}
    for black in (v for v in sp.vertices if v.kind == KIND_BLACK):
        whites = sorted(a + b - black.id for a, b in sp.edges if black.id in (a, b))
        fresh = sorted(v.id for v in model.vertices if v.label.startswith(f"{black.label}:"))
        copies[black.label] = [id_of[label_of[w]] for w in whites] + fresh
    return copies


# ``sp_tree_model`` as first written, verbatim: breadth-first growth
# simulated with a deque of free whites, a ``None`` root sentinel and a
# black counter.  The library's plain-list growth must give an equal
# complex or raise the same message.
def sp_tree_model_oracle(black_count: int, whites_per_black: int) -> Complex:
    """Bipartite tree of black (disk) and white (sphere) vertices, grown
    breadth-first from one black root until ``black_count`` blacks exist.

    Every black has valence ``whites_per_black``; every white joins at
    most two blacks (the boundary whites of the truncation keep valence
    one), encoding that a disjoint disk pair determines a unique sphere.
    """
    if black_count < 1 or whites_per_black < 1:
        raise ValueError("black_count and whites_per_black must be positive")
    vertices: list[Vertex] = []
    edges: set[tuple[int, int]] = set()
    free_whites: deque[int | None] = deque([None])  # None: the root joins no white
    blacks = 0
    while blacks < black_count:
        if not free_whites:
            raise ValueError(
                "cannot grow the tree: no valence-one white left "
                "(whites_per_black too small for black_count)"
            )
        w = free_whites.popleft()
        b = len(vertices)
        vertices.append(Vertex(b, KIND_BLACK, f"disk{blacks}"))
        blacks += 1
        if w is not None:
            edges.add((w, b))
        for w2 in range(b + 1, b + 1 + whites_per_black - (w is not None)):
            vertices.append(Vertex(w2, KIND_WHITE, f"sphere{w2 - blacks}"))
            edges.add((b, w2))
            free_whites.append(w2)
    return Complex(tuple(vertices), frozenset(edges))


def cone_check_oracle(c):
    """Contractibility witness for cone models, by counting: the apex's
    neighbors read off the edge set, and the edges that miss the apex a
    tree by ``forest_oracle``.  It calls nothing in ``complexes``."""
    apexes = [v.id for v in c.vertices if v.kind == complexes.KIND_APEX]
    if len(apexes) != 1:
        return False
    apex = apexes[0]
    others = {v.id for v in c.vertices if v.id != apex}
    if {a if b == apex else b for a, b in c.edges if apex in (a, b)} != others:
        return False
    return forest_oracle(others, [e for e in c.edges if apex not in e])[1]


def validate_oracle(self):
    """The per-element ``Complex.__post_init__`` validation, verbatim after a
    first pass that names a simplex row of the wrong size: each check in
    turn over every vertex, edge and triangle, raising ``ValueError`` at
    the first offender.  ``self`` is anything with
    ``vertices``, ``edges`` and ``triangles``; the library's whole-set
    checks must raise the same message, or none when this raises none."""
    for rows, size, name in ((self.edges, 2, "edge"), (self.triangles, 3, "triangle")):
        for row in rows:
            if len(row) != size:
                raise ValueError(f"bad {name} ({', '.join(map(str, row))})")
    ids, kinds, _ = zip(*self.vertices) if self.vertices else ((), (), ())
    idset = set(ids)
    if len(ids) != len(idset):
        raise ValueError("duplicate vertex ids")
    if unknown := set(kinds).difference(complexes.KINDS):
        kind = next(k for k in kinds if k in unknown)
        raise ValueError(f"unknown vertex kind {kind!r}")
    for a, b in self.edges:
        if not (a < b) or a not in idset or b not in idset:
            raise ValueError(f"bad edge ({a}, {b})")
    for a, b, c in self.triangles:
        if not (a < b < c):
            raise ValueError(f"bad triangle ({a}, {b}, {c})")
        for e in ((a, b), (a, c), (b, c)):
            if e not in self.edges:
                raise ValueError(f"triangle {(a, b, c)} is missing edge {e}")


# The readers of the named-tuple ``Complex``, verbatim but for the names:
# they read the ``vertices``, ``edges`` and ``triangles`` views, where the
# library reads the columns.  ``cone_check_tuples_oracle`` calls the other
# tuple readers, with ``is_tree`` written out.
def induced_oracle(c, keep):
    """Full subcomplex on the given vertex ids."""
    keep = set(keep)
    vs = tuple(v for v in c.vertices if v.id in keep)
    es = frozenset(filter(keep.issuperset, c.edges))
    ts = frozenset(filter(keep.issuperset, c.triangles))
    return Complex(vs, es, ts)


def to_json_oracle(c):
    return {
        "vertices": [
            {"id": v.id, "kind": v.kind, "label": v.label} for v in c.vertices
        ],
        "edges": [list(e) for e in sorted(c.edges)],
        "triangles": [list(t) for t in sorted(c.triangles)],
    }


def is_forest_oracle(c):
    """True when the 1-skeleton has no cycle."""
    parent = {v.id: v.id for v in c.vertices}
    for a, b in c.edges:
        # union-find with path halving: replace a and b by their roots
        while (up := parent[a]) != a:
            parent[a] = a = parent[up]
        while (up := parent[b]) != b:
            parent[b] = b = parent[up]
        if a == b:
            return False
        parent[a] = b
    return True


def cone_check_tuples_oracle(c):
    """Contractibility witness for cone models: a unique apex adjacent to
    every other vertex, whose deletion leaves a tree."""
    apexes = [v.id for v in c.vertices if v.kind == complexes.KIND_APEX]
    if len(apexes) != 1:
        return False
    apex = apexes[0]
    others = {v.id for v in c.vertices if v.id != apex}
    if {b if a == apex else a for a, b in c.edges if apex in (a, b)} != others:
        return False
    base = induced_oracle(c, others)
    return bool(base.vertices) and is_forest_oracle(base) and len(base.edges) == len(base.vertices) - 1


def forest_oracle(vertex_ids, edges):
    """(is forest, is tree) of a simple graph by counting: BFS finds the
    components, and a graph is a forest exactly when it has
    V - components edges; a tree is a forest with one component."""
    adj = {v: [] for v in vertex_ids}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    components = 0
    for v in adj:
        if v in seen:
            continue
        components += 1
        seen.add(v)
        queue = [v]
        while queue:
            for w in adj[queue.pop()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    forest = len(edges) == len(adj) - components
    return forest, forest and components == 1


def primitive_words_orbit_oracle(max_len: int) -> set[str]:
    """All primitive cyclic words of length at most ``max_len``, as
    canonical forms, enumerated by closing the automorphism orbit of the
    generator x under Whitehead moves and letter symmetries.  The moves,
    the symmetries and the substitution, reduction and rotation of the
    images are the ones in this file, not ``fgroup``'s."""
    if max_len < 1:
        return set()
    seen = {"x"}
    frontier = ["x"]
    while frontier:
        fresh = []
        for w in frontier:
            images = [
                least_rotation_oracle(apply_endomorphism_oracle(w, xi, yi))
                for xi, yi in WHITEHEAD_MOVES
            ]
            images.extend(least_rotation_oracle(s) for s in letter_symmetries_oracle(w))
            for img in images:
                if 1 <= len(img) <= max_len and img not in seen:
                    seen.add(img)
                    fresh.append(img)
        frontier = fresh
    return seen


# The argparse front end that ``cli._parse`` replaced, kept verbatim (with the
# handlers read from ``cli``) as the oracle of the CLI's flags and messages.


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; reserve 2 for
    # invariant violations and use 1 here instead
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _int(text: str) -> int:
    """Integer flags, in ASCII digits only, as ``lens:p,q`` (``int`` reads ``+5``, ``1_0``)."""
    if re.fullmatch("-?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def argparse_oracle() -> _Parser:
    """The CLI's parser as argparse built it; ``parse_args`` returns the
    namespace with the handler in ``func``, or raises ``SystemExit`` (0 after
    printing help, 1 after a usage error)."""
    parser = _Parser(prog="heegaard2", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("words", help="surgery word sequence for summand parameters")
    p.add_argument("--p1", type=_int, required=True)
    p.add_argument("--q1", type=_int, required=True)
    p.add_argument("--p2", type=_int, required=True)
    p.add_argument("--q2", type=_int, default=1)
    p.add_argument("--index", type=_int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cli._cmd_words)

    p = sub.add_parser("primitive", help="classify a word over x, y, X, Y")
    p.add_argument("word")
    p.set_defaults(func=cli._cmd_primitive)

    p = sub.add_parser("classify", help="count genus-two surfaces of a connected sum")
    p.add_argument("--m1", required=True, help="lens:p,q or s2xs1")
    p.add_argument("--m2", required=True, help="lens:p,q or s2xs1")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cli._cmd_classify)

    p = sub.add_parser("goeritz", help="Goeritz presentations and word problems")
    p.add_argument("--case", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--normal-form", dest="normal_form", default=None,
                      help='token word, e.g. "d b d"')
    mode.add_argument("--abelianization", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cli._cmd_goeritz)

    p = sub.add_parser("farey", help="mediant balls and the odd subtree")
    p.add_argument("--max-depth", dest="max_depth", type=_int, required=True)
    p.add_argument("--odd", action="store_true")
    p.add_argument("--check-tree", dest="check_tree", action="store_true")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(func=cli._cmd_farey)

    p = sub.add_parser("sphere-complex", help="grafted sphere-complex and cone models")
    p.add_argument("--blacks", type=_int, default=None)
    p.add_argument("--whites-per-black", dest="whites_per_black", type=_int, default=None)
    p.add_argument("--farey-depth", dest="farey_depth", type=_int, default=None)
    p.add_argument("--cone", type=_int, default=None)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(func=cli._cmd_sphere_complex)

    return parser
