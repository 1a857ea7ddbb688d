"""Answers the benchmark checks the library against.

Nothing here imports heegaard2: every expected answer is derived from
the mathematics (or from a brute-force definition), so the code under
test never serves as its own oracle.
"""

import hashlib
from collections import deque
from math import gcd

# -- curve words ------------------------------------------------------------

INVERSE = {"x": "X", "X": "x", "y": "Y", "Y": "y"}
_ORDER = str.maketrans("xXyY", "abcd")  # x < X < y < Y


def cyclic_reduce(word):
    out = []
    for ch in word:
        if out and out[-1] == INVERSE[ch]:
            out.pop()
        else:
            out.append(ch)
    i, j = 0, len(out)
    while j - i >= 2 and out[i] == INVERSE[out[j - 1]]:
        i, j = i + 1, j - 1
    return "".join(out[i:j])


def least_rotation(word):
    """Brute force over every rotation of the cyclic reduction."""
    w = cyclic_reduce(word)
    if not w:
        return ""
    return min((w[i:] + w[:i] for i in range(len(w))), key=lambda r: r.translate(_ORDER))


def christoffel(a, b):
    """Lower Christoffel word with ``a`` letters x and ``b`` letters y."""
    n = a + b
    return "".join("y" if (i + 1) * b // n > i * b // n else "x" for i in range(n))


def _is_primitive(root):
    # Osborne-Zieschang / Cohen-Metzler-Zimmermann: a cyclically reduced
    # primitive word uses each generator with one sign only, and after
    # making both signs positive it is a rotation of the Christoffel word
    # of its coprime letter counts.
    if ("x" in root and "X" in root) or ("y" in root and "Y" in root):
        return False
    positive = root.lower()
    a, b = positive.count("x"), positive.count("y")
    if gcd(a, b) != 1:
        return False
    return least_rotation(positive) == least_rotation(christoffel(a, b))


def classify_word(word):
    """(kind, root, exponent) as ``fgroup.primitive_power_root`` reports it."""
    c = least_rotation(word)
    n = len(c)
    if n == 0:
        return ("trivial", None, None)
    root, exponent = c, 1
    for d in range(1, n):
        if n % d == 0 and c[:d] * (n // d) == c:
            root, exponent = c[:d], n // d
            break
    if not _is_primitive(root):
        return ("neither", None, None)
    if exponent == 1:
        return ("primitive", None, None)
    return ("power-of-primitive", root, exponent)


def surgery_words(p1, q1, p2):
    """Canonical words of the surgery sequence, from the gap model."""
    words = []
    for i in range(1, p1 + 1):
        points = sorted(j * q1 % p1 for j in range(i))
        gaps = [b - a for a, b in zip(points, points[1:])] + [p1 - points[-1]]
        words.append(least_rotation("".join("x" * p2 + "y" * g for g in gaps)))
    return words


# -- Goeritz groups -----------------------------------------------------------

GOERITZ_GENERATORS = {
    "1a": ("a", "b", "g1", "g2"),
    "1b": ("a", "b", "g1", "d"),
    "2": ("a", "b", "g", "s", "t"),
}
GOERITZ_RELATORS = {
    "1a": (("a", "a"), ("g1", "g1"), ("g2", "g2")),
    "1b": (("a", "a"), ("g1", "g1"), ("d", "d"), ("d", "b", "d", "b'", "a'")),
    "2": (("a", "a"), ("g", "g"), ("s", "s")),
}
GOERITZ_CENTRAL = {"1a": ("a",), "1b": ("a",), "2": ("a", "t")}
INFINITE_ORDER = ("b", "t")
# Abelianizations: 1a = Z + (Z/2)^3, 1b = Z + (Z/2)^2, 2 = Z^2 + (Z/2)^3.
GOERITZ_ABELIAN = {"1a": ((2, 2, 2), 1), "1b": ((2, 2), 1), "2": ((2, 2, 2), 2)}
# Each generator's image in the abelianization: (coordinate, modulus),
# modulus 0 for a free coordinate.  In 1b the relators force a = 2d = 0.
_ABELIAN_MAP = {
    "1a": {"a": (0, 2), "b": (1, 0), "g1": (2, 2), "g2": (3, 2)},
    "1b": {"b": (0, 0), "g1": (1, 2), "d": (2, 2)},
    "2": {"a": (0, 2), "b": (1, 0), "g": (2, 2), "s": (3, 2), "t": (4, 0)},
}


def invert_tokens(word):
    return tuple(t[:-1] if t.endswith("'") else t + "'" for t in reversed(word))


def insertion_words(case):
    """Words equal to 1: relators, their inverses and commutators of the
    central generators with every other generator."""
    words = list(GOERITZ_RELATORS[case])
    words += [invert_tokens(r) for r in GOERITZ_RELATORS[case]]
    for z in GOERITZ_CENTRAL[case]:
        for g in GOERITZ_GENERATORS[case]:
            if g != z:
                words.append((g, z, g + "'", z + "'"))
                words.append((z, g, z + "'", g + "'"))
    return words


def abelian_image(case, word):
    """Exponent sums in the abelianization; equal elements have equal images."""
    table = _ABELIAN_MAP[case]
    image = [0] * (1 + max(c for c, _ in table.values()))
    for tok in word:
        base = tok.rstrip("'")
        if base in table:
            coord, _ = table[base]
            image[coord] += -1 if tok.endswith("'") else 1
    for coord, modulus in table.values():
        if modulus:
            image[coord] %= modulus
    return tuple(image)


def normal_form_shape_ok(case, nf):
    """Shape every irreducible word has: alphabet letters, no primed
    involution, no cancelling neighbours, no involution squares, a only
    in front, t only right after it, and in 1b no d before b."""
    gens = GOERITZ_GENERATORS[case]
    for i, tok in enumerate(nf):
        base = tok.rstrip("'")
        if base not in gens or tok.count("'") > 1:
            return False
        if tok.endswith("'") and base not in INFINITE_ORDER:
            return False
        if base == "a" and i != 0:
            return False
        if i:
            prev = nf[i - 1]
            if prev == tok and base not in INFINITE_ORDER:
                return False
            if prev.rstrip("'") == base and prev != tok:
                return False
            if base == "t" and prev.rstrip("'") not in ("a", "t"):
                return False
            if prev == "d" and base == "b":
                return False
    return True


# -- Farey balls --------------------------------------------------------------


def _digest(lines):
    return hashlib.sha1("\n".join(sorted(lines)).encode()).hexdigest()


def _edge_key(u, v):
    return "|".join(sorted((u, v)))


def farey_ball(depth):
    """Stern-Brocot recursion on both sides of 0/1--1/0.  Returns the
    vertex, edge and triangle counts of the ball, and the odd subcomplex
    as label and edge digests plus the size of the component of 1/0."""
    vertices = {(1, 0), (0, 1), (1, 1)}
    edges = {((0, 1), (1, 1)), ((1, 1), (1, 0)), ((0, 1), (1, 0))}
    boundary = [((0, 1), (1, 1)), ((1, 1), (1, 0))]
    for _ in range(depth):
        fresh = []
        for u, v in boundary:
            m = (u[0] + v[0], u[1] + v[1])
            vertices.add(m)
            edges.add((u, m))
            edges.add((m, v))
            fresh += [(u, m), (m, v)]
        boundary = fresh

    def mirror(s):
        return s if s[0] == 0 or s[1] == 0 else (-s[0], s[1])

    vertices |= {mirror(s) for s in vertices}
    edges |= {(mirror(u), mirror(v)) for u, v in edges}
    label = {s: f"{s[0]}/{s[1]}" for s in vertices}
    odd = {s for s in vertices if s[0] % 2}
    odd_edges = [(label[u], label[v]) for u, v in edges if u in odd and v in odd]
    adjacency = {label[s]: [] for s in odd}
    for u, v in odd_edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen, queue = {"1/0"}, deque(["1/0"])
    while queue:
        for w in adjacency[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return {
        "vertices": len(vertices),
        "edges": len(edges),
        "triangles": len(vertices) - 2,
        "odd_vertices": len(odd),
        "odd_edges": len(odd_edges),
        "odd_label_digest": _digest(label[s] for s in odd),
        "odd_edge_digest": _digest(_edge_key(u, v) for u, v in odd_edges),
        "odd_root_component": len(seen),
    }


def complex_json_digests(data):
    """Label and edge digests of a complex rendered by ``to_json``."""
    labels = {v["id"]: v["label"] for v in data["vertices"]}
    return (
        _digest(labels.values()),
        _digest(_edge_key(labels[a], labels[b]) for a, b in data["edges"]),
    )


def sp_whites(blacks, whites_per_black):
    """White vertices of the bipartite disk/sphere tree."""
    return whites_per_black + (blacks - 1) * (whites_per_black - 1)


def graft_vertices(blacks, whites_per_black, odd_root_component):
    """Vertices of the grafted model: the whites, plus for every black the
    slots of its odd-tree copy that are not identified with a white."""
    return sp_whites(blacks, whites_per_black) + blacks * (
        odd_root_component - whites_per_black
    )


def is_spanning_tree(n_vertices, edges):
    """Independent tree check: n - 1 edges and one BFS component."""
    if n_vertices == 0 or len(edges) != n_vertices - 1:
        return False
    adjacency = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    start = next(iter(adjacency), None)
    if start is None:
        return n_vertices == 1
    seen, queue = {start}, deque([start])
    while queue:
        for w in adjacency[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n_vertices


# -- surface counts ------------------------------------------------------------


def _reversible(summand):
    # S^2 x S^1 always; L(p, q) exactly when q^2 = 1 (mod p)
    return summand is None or summand[1] * summand[1] % summand[0] == 1


def splitting_lines(m1, m2):
    """Expected ``classify`` text output; a summand is (p, q) or None for
    S^2 x S^1."""
    if m1 is None or m2 is None:
        cases = [("2", False)]
    else:
        count = 1 if _reversible(m1) or _reversible(m2) else 2
        (p, q), (p2, q2) = m1, m2
        if p == p2 and (q == q2 or q * q2 % p == 1):
            cases = [("1b", True)] + ([("1a", False)] if count == 2 else [])
        else:
            cases = [("1a", False)] * count
    lines = [f"count: {len(cases)}"]
    lines += [f"splitting: case={c} symmetric={str(s).lower()}" for c, s in cases]
    return lines
