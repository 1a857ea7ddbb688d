"""Shared test utilities: exhaustive word enumeration and independent
oracles kept deliberately separate from the library implementations."""

from heegaard2 import fgroup

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


def least_rotation_oracle(word):
    """Least rotation by brute-force enumeration of all rotations."""
    w = fgroup.cyclic_reduce(word)
    if not w:
        return ""
    rotations = [w[i:] + w[:i] for i in range(len(w))]
    return min(rotations, key=lambda r: r.translate(_ORDER))


def tuple_rotation_equal(t1, t2):
    if len(t1) != len(t2):
        return False
    if not t1:
        return True
    doubled = t1 + t1
    return any(doubled[i : i + len(t1)] == t2 for i in range(len(t1)))


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
