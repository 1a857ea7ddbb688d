"""Words in the rank-2 free group on generators x and y.

A word is an ASCII string over the alphabet {x, y, X, Y}, where the
uppercase letters stand for the inverses of the lowercase ones; a
function that reduces or substitutes a word raises ``ValueError`` on any
other letter.  The empty word prints as "1".  Cyclic words (curve words
read off from a closed curve, well defined only up to rotation) are
represented by a canonical form: the lexicographically least rotation of
the free and cyclic reduction, under the fixed letter order x < X < y < Y.
Cyclic subwords are read one way only: a cyclic subword of ``w`` is a
match in the doubled word ``w + w``.

Everything here is a pure function on immutable values, so all of it is
safe to call concurrently.
"""

import re
from math import gcd
from typing import Iterator, NamedTuple

_DELETE_LETTERS = str.maketrans("", "", "xXyY")  # leaves only the other letters

# Translate letters to naturally ordered characters so that plain string
# comparison realises the order x < X < y < Y.
_ORDER_KEY = str.maketrans("xXyY", "abcd")

_SWAP_XY = str.maketrans("xXyY", "yYxX")
# The four sign changes x -> x^(+-1), y -> y^(+-1): none, y, x, both.
_SIGN_CHANGES = tuple(str.maketrans(s, s.swapcase()) for s in ("", "yY", "xX", "xXyY"))


def parse_word(text: str) -> str:
    """Parse an ASCII word; "1" denotes the empty word.

    >>> parse_word("xyX")
    'xyX'
    >>> parse_word("1")
    ''
    """
    return "" if text == "1" else _checked(text)


def _checked(word: str) -> str:
    if bad := word.translate(_DELETE_LETTERS):
        raise ValueError(f"invalid letters {sorted(set(bad))}; words use x, y, X, Y (X = x inverse)")
    return word


def format_word(word: str) -> str:
    """Render a word; the empty word prints as "1"."""
    return word if word else "1"


def invert(word: str) -> str:
    """The inverse word: reversed, with every letter inverted.

    >>> invert("xxY")
    'yXX'
    """
    return word[::-1].swapcase()


# adjacent inverse letters; deleting them can bring new pairs together (xyYX)
_CANCEL = re.compile("xX|Xx|yY|Yy")


def free_reduce(word: str) -> str:
    """The unique freely reduced word equal to ``word``.

    >>> free_reduce("xxyYXX")
    ''
    """
    w = _checked(word)
    if "xX" not in w and "Xx" not in w and "yY" not in w and "Yy" not in w:
        return w  # already reduced; four substring tests beat a regex pass that finds nothing
    w = _CANCEL.sub("", w)
    if "xX" not in w and "Xx" not in w and "yY" not in w and "Yy" not in w:
        return w
    out: list[str] = []  # a stack, so that x^k X^k costs one pass and not k
    for ch in w:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def cyclic_reduce(word: str) -> str:
    """Freely reduce, then strip inverse first/last pairs in one inward walk."""
    w = free_reduce(word)
    i, j = 0, len(w) - 1
    while i < j and w[i] == w[j].swapcase():
        i, j = i + 1, j - 1
    return w[i : j + 1]


def cyclic_canonical(word: str) -> str:
    """Canonical form of the cyclic word: the least rotation of the
    cyclic reduction under the order x < X < y < Y.

    Two words that are equal up to rotation have the same output.

    >>> cyclic_canonical("yxx")
    'xxy'
    >>> cyclic_canonical("xyX")
    'y'
    """
    w = cyclic_reduce(word)
    n = len(w)
    if n <= 1:
        return w
    doubled = w.translate(_ORDER_KEY) * 2
    best = min(range(n), key=lambda i: doubled[i : i + n])
    return w[best:] + w[:best]


def letter_symmetries(word: str) -> Iterator[str]:
    """The eight letter substitutions generated by swapping x with y and
    inverting x or y.  Each is an automorphism, so reduction, primitivity
    and cyclic length are preserved."""
    return (w.translate(sign) for w in (word, word.translate(_SWAP_XY)) for sign in _SIGN_CHANGES)


def letter_obstruction_reason(word: str) -> str | None:
    """Reason string when the letter-content test fires, else None."""
    w = cyclic_reduce(word)
    seen = set(w)
    if "x" in seen and "X" in seen:
        return "contains both x and X"
    if "y" in seen and "Y" in seen:
        return "contains both y and Y"
    d = w + w[:1]  # its letter pairs are the cyclic letter pairs of w
    if re.search("xx|XX", d) and re.search("yy|YY", d):
        return "contains a square of each generator"
    return None


def has_letter_obstruction(word: str) -> bool:
    """Letter-content certificate that a cyclic word is neither trivial
    nor a power of a primitive element.

    Fires when the cyclic reduction contains both x and X, both y and Y,
    or a square of each generator (x or X twice in a row, and y or Y
    twice in a row, as cyclic subwords).  A word that passes is merely
    *not rejected*; it may still fail to be a primitive power.
    """
    return letter_obstruction_reason(word) is not None


# cyclic subword x y^p X (p >= 1), x x y y or y y x x, either sign of x and of y, as a
# match in w + w; no pattern has a period below its length, so no match outgrows w.
_SUBWORD = re.compile("x(?:y+|Y+)X|X(?:y+|Y+)x|(?:xx|XX)(?:yy|YY)|(?:yy|YY)(?:xx|XX)")


def has_subword_obstruction(word: str) -> bool:
    """Subword certificate: a cyclic subword x y^p X (p >= 1) or x x y y,
    up to inverting x, inverting y, or reversing the curve orientation
    (global inversion).  The inverse is the reversal with both signs
    changed, and the reversal of x x y y is y y x x: one search for their
    sign variants and those of x y^p X in the doubled word finds them all.

    Stronger than :func:`has_letter_obstruction`: whenever this fires,
    the letter test fires as well.
    """
    w = cyclic_reduce(word)
    return _SUBWORD.search(w + w) is not None


def _block_form(v: str, e: str) -> bool:
    # positive v is a cyclic product of blocks e f^n / e f^(n+1), f the other
    # letter: the f-runs between cyclically consecutive e letters, from the first
    i = v.find(e)
    if i < 0:
        return False
    gaps = [len(run) for run in (v[i + 1 :] + v[:i]).split(e)]
    return max(gaps) - min(gaps) <= 1


def has_primitive_block_form(word: str) -> bool:
    """Necessary cyclic form for primitive words.

    After one of the eight letter symmetries, the cyclic reduction must
    decompose into blocks x^e y^n and x^e y^(n+1) for a single sign e and
    a single n >= 0.  Every primitive word passes; many imprimitive words
    pass as well (e.g. powers of a single generator), so this is only a
    necessary test.  A letter with both signs keeps them under every
    symmetry; otherwise the positive word is tested with x and with y
    leading the blocks.
    """
    w = cyclic_reduce(word)
    if not w or ("x" in w and "X" in w) or ("y" in w and "Y" in w):
        return False
    v = w.lower()
    return _block_form(v, "x") or _block_form(v, "y")


# The length-changing Whitehead automorphisms of the rank-2 free group,
# modulo inner automorphisms: fix one generator and multiply the other by
# it on either side with either sign.  Given as (image of x, image of y).
WHITEHEAD_AUTOMORPHISMS: tuple[tuple[str, str], ...] = (
    ("xy", "y"), ("xY", "y"), ("yx", "y"), ("Yx", "y"), ("x", "yx"), ("x", "yX"), ("x", "xy"), ("x", "Xy"),
)


def apply_endomorphism(word: str, x_image: str, y_image: str) -> str:
    """Substitute images for the generators (no reduction performed)."""
    # keyed by code point, as str.translate reads it: x, X, y, Y are 120, 88, 121, 89
    table = {120: x_image, 88: invert(x_image), 121: y_image, 89: invert(y_image)}
    return _checked(word).translate(table)


def is_primitive(word: str) -> bool:
    """Decide whether the word is primitive (a member of a free
    generating pair), by greedy Whitehead reduction.

    Repeatedly applies the first automorphism from
    :data:`WHITEHEAD_AUTOMORPHISMS` that shortens the cyclic length; the
    word is primitive exactly when the terminal cyclic length is 1.

    >>> is_primitive("xxy")
    True
    >>> is_primitive("xxyy")
    False
    """
    w = cyclic_canonical(word)
    if not w:
        return False
    while True:
        n = len(w)
        if n == 1:
            return True
        for xi, yi in WHITEHEAD_AUTOMORPHISMS:
            image = cyclic_canonical(apply_endomorphism(w, xi, yi))
            if len(image) < n:
                w = image
                break
        else:
            return False


class PrimitivityVerdict(NamedTuple):
    """Classification of a word: trivial, primitive, a proper power of a
    primitive element (with its root and exponent), or neither."""

    kind: str  # "trivial" | "primitive" | "power-of-primitive" | "neither"
    root: str | None = None
    exponent: int | None = None


def primitive_power_root(word: str) -> PrimitivityVerdict:
    """Find the root and maximal exponent on the cyclic reduction (no
    rotation changes the period), then classify the root with the Whitehead
    oracle.  Only a returned root, that of a proper power, is made canonical.

    >>> primitive_power_root("xxx").kind, primitive_power_root("xxx").root
    ('power-of-primitive', 'x')
    """
    w = cyclic_reduce(word)
    n = len(w)
    if n == 0:
        return PrimitivityVerdict("trivial")
    period = (w + w).find(w, 1)  # the least rotation fixing w; it divides n
    root, exponent = w[:period], n // period
    if not is_primitive(root):
        return PrimitivityVerdict("neither")
    if exponent == 1:
        return PrimitivityVerdict("primitive")
    return PrimitivityVerdict("power-of-primitive", cyclic_canonical(root), exponent)


def _christoffel(p: int, q: int) -> str:
    # the lower Christoffel word of slope q/p: p letters x and q letters y,
    # letter i being y exactly when the line of slope q/p steps up after it
    n = p + q
    return "".join("y" if (i + 1) * q // n > i * q // n else "x" for i in range(n))


def primitive_words_up_to(max_len: int) -> set[str]:
    """All primitive cyclic words of length at most ``max_len``, as
    canonical forms.  Up to a letter symmetry, a primitive conjugacy class
    is that of the Christoffel word of a coprime pair p, q >= 0
    (Osborne-Zieschang, Invent. Math. 63 (1981)), so these are the
    canonical forms of the letter symmetries of those words."""
    return {
        cyclic_canonical(s)
        for n in range(1, max_len + 1)
        for p in range(n + 1)
        if gcd(p, n - p) == 1
        for s in letter_symmetries(_christoffel(p, n - p))
    }
