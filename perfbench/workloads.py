"""The four benchmark workloads.

Each workload turns a seed into ops, runs one op against the library and
checks its answer against :mod:`oracles`.  Inputs and answers are made
before heegaard2 is imported, so set-up time excludes them.

Every cycle of a workload has the same size schedule; the seed draws the
content (letters, slopes, parameters inside each size band, order).  A
run repeats whole cycles, so its figures do not depend on where the time
limit happens to cut a cycle.
"""

import importlib
import json
import os
import subprocess
import sys
from math import gcd
from pathlib import Path
from time import perf_counter

import hostspeed
import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"

MODULES = ("fgroup", "surgery", "classify", "farey", "complexes", "goeritz")


def load_library(with_cli=False):
    """Import heegaard2 (and its CLI); returns the modules by short name."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("heegaard2")
    names = MODULES + (("cli",) if with_cli else ())
    return {m: importlib.import_module(f"heegaard2.{m}") for m in names}


def _coprime_below(rng, p):
    while True:
        q = rng.randrange(1, p)
        if gcd(p, q) == 1:
            return q


_SYMMETRIES = [
    str.maketrans("xXyY", image)
    for image in ("xXyY", "XxyY", "xXYy", "XxYy", "yYxX", "YyxX", "yYXx", "YyXx")
]


def _disguise(rng, word):
    """A random letter symmetry and rotation: same class, new letters."""
    word = word.translate(rng.choice(_SYMMETRIES))
    k = rng.randrange(len(word))
    return word[k:] + word[:k]


class CurveWords:
    """Op: build one surgery sequence, or classify one word (verdict plus
    the letter, subword and block-form certificates)."""

    name = "curve-words"
    calibration = hostspeed.KERNEL
    collect_between_ops = False
    with_cli = False
    CYCLES = 4  # distinct seeded cycles; a run repeats them in turn
    # (p1 band centre, p2) of the surgery sequences in one cycle
    SEQUENCES = ((24, 2), (48, 3), (72, 4), (96, 3), (118, 4))
    TINY_SEQUENCES = ((12, 2),)

    def __init__(self):
        self.lib = None
        self.reset_counts()

    def reset_counts(self):
        self.neither = 0
        self.rejected = 0

    def _short_word(self, rng, length):
        while True:
            letters = [rng.choice("xXyY")]
            while len(letters) < length:
                ch = rng.choice("xXyY")
                if ch != oracles.INVERSE[letters[-1]]:
                    letters.append(ch)
            if length == 1 or letters[0] != oracles.INVERSE[letters[-1]]:
                return "".join(letters)

    def _long_words(self, rng, tiny):
        scale = 8 if tiny else 1
        n = (200 + rng.randrange(21)) // scale
        length = (250 + rng.randrange(11)) // scale
        a = _coprime_below(rng, length)
        root_len = (40 + rng.randrange(21)) // scale
        r = _coprime_below(rng, root_len)
        power = oracles.christoffel(r, root_len - r) * (250 // scale // root_len)
        return [
            _disguise(rng, "x" * n + "y"),
            _disguise(rng, oracles.christoffel(a, length - a)),
            _disguise(rng, power),
        ]

    def make_cycle(self, rng, tiny=False):
        ops = []
        for centre, p2 in self.TINY_SEQUENCES if tiny else self.SEQUENCES:
            p1 = centre + rng.randrange(-2, 3)
            q1 = _coprime_below(rng, p1)
            words = oracles.surgery_words(p1, q1, p2)
            ops.append(("sequence", (p1, q1, p2), words))
            ops += [("classify", w, oracles.classify_word(w)) for w in words]
        ops += [("classify", w, oracles.classify_word(w)) for w in self._long_words(rng, tiny)]
        short = 2 * len(ops)
        for i in range(short):
            w = self._short_word(rng, 4 + i % 9)
            ops.append(("classify", w, oracles.classify_word(w)))
        rng.shuffle(ops)
        return ops

    def once(self, rng, tiny=False):
        return []

    def run(self, op):
        kind, arg, _ = op
        fgroup = self.lib["fgroup"]
        if kind == "sequence":
            surgery = self.lib["surgery"]
            return surgery.surgery_sequence(surgery.SplittingParams(*arg))
        v = fgroup.primitive_power_root(arg)
        return (
            (v.kind, v.root, v.exponent),
            fgroup.has_letter_obstruction(arg),
            fgroup.has_subword_obstruction(arg),
            fgroup.has_primitive_block_form(arg),
        )

    def check(self, op, out):
        kind, _, expected = op
        if kind == "sequence":
            return out == expected
        verdict, letter, subword, block = out
        if expected[0] == "neither":
            self.neither += 1
            self.rejected += bool(letter or subword)
        if (letter or subword) and expected[0] != "neither":
            return False
        if expected[0] == "primitive" and not block:
            return False
        return verdict == expected

    def warmup(self):
        for w in ("xxy", "xyXY", "x" * 20 + "y"):
            self.run(("classify", w, None))
        self.run(("sequence", (7, 3, 2), None))


def _goeritz_word(rng, case, length):
    gens = oracles.GOERITZ_GENERATORS[case]
    tokens = list(gens) + [g + "'" for g in gens]
    return tuple(rng.choice(tokens) for _ in range(length))


def _trivially_wrapped(rng, case, length, tail):
    """u r u^-1 tail, which equals tail: r is a relator-type word."""
    r = rng.choice(oracles.insertion_words(case))
    u = _goeritz_word(rng, case, max(0, (length - len(r) - len(tail)) // 2))
    return u + r + oracles.invert_tokens(u) + tail


class GoeritzWords:
    """Op: one word-problem query (``equal`` or ``normal_form``), one
    ``element_order`` probe, or (once per case per run) a confluence
    check or an abelianization."""

    name = "goeritz-words"
    calibration = hostspeed.KERNEL
    collect_between_ops = False
    with_cli = False
    CYCLES = 16
    CASES = ("1a", "1b", "2")
    LONG = (200, 450, 1000)

    def __init__(self):
        self.lib = None

    @staticmethod
    def _infinite_order_words(rng, case):
        """Three probes b x b y, b y b x and a b x b y (x, y the non-central
        involutions, b or b' throughout): b has exponent sum +-2, so each
        has infinite order.  A fixed shape keeps the probe cost steady."""
        movers = [
            g for g in oracles.GOERITZ_GENERATORS[case]
            if g != "a" and g not in oracles.INFINITE_ORDER
        ]
        sign = rng.choice(["b", "b'"])
        bodies = [
            tuple(tok for m in order for tok in (sign, m))
            for order in (movers, movers[::-1], rng.sample(movers, len(movers)))
        ]
        bodies[2] = ("a",) + bodies[2]
        return bodies

    def make_cycle(self, rng, tiny=False):
        ops = []
        short = 10 if tiny else 100
        for case in self.CASES:
            inserts = oracles.insertion_words(case)
            involutions = [
                g for g in oracles.GOERITZ_GENERATORS[case] if g not in oracles.INFINITE_ORDER
            ]
            for i in range(short):
                w = _goeritz_word(rng, case, 13 * i % 31)  # every length 0-30 in turn
                share = i % 20
                if share < 8:
                    pos = rng.randrange(len(w) + 1)
                    extra = rng.choice(inserts)
                    ops.append(("equal", (case, w, w[:pos] + extra + w[pos:]), True))
                elif share < 14:
                    ops.append(("nf", (case, w), oracles.abelian_image(case, w)))
                elif share < 17:
                    ops.append(("nf", (case, w + oracles.invert_tokens(w)), ()))
                else:
                    while True:
                        w2 = _goeritz_word(rng, case, rng.randrange(0, 31))
                        if oracles.abelian_image(case, w) != oracles.abelian_image(case, w2):
                            break
                    ops.append(("equal", (case, w, w2), False))
            for length in (50,) if tiny else self.LONG:
                tail = _goeritz_word(rng, case, rng.randrange(0, 31))
                if length == 450:
                    w = _goeritz_word(rng, case, length)
                    ops.append(("nf", (case, w), oracles.abelian_image(case, w)))
                else:
                    long = _trivially_wrapped(rng, case, length, tail)
                    ops.append(("equal", (case, long, tail), True))
            for word in self._infinite_order_words(rng, case)[: 1 if tiny else 3]:
                ops.append(("order", (case, word), None))
            for _ in range(2):
                u = _goeritz_word(rng, case, rng.randrange(0, 11))
                g = rng.choice(involutions)
                ops.append(("order", (case, u + (g,) + oracles.invert_tokens(u)), 2))
            u = _goeritz_word(rng, case, rng.randrange(1, 11))
            ops.append(("order", (case, u + oracles.invert_tokens(u)), 1))
        rng.shuffle(ops)
        return ops

    def once(self, rng, tiny=False):
        ops = [("confluence", (case,), []) for case in self.CASES]
        ops += [("abelian", (case,), oracles.GOERITZ_ABELIAN[case]) for case in self.CASES]
        return ops

    def run(self, op):
        kind, args, _ = op
        g = self.lib["goeritz"]
        if kind == "equal":
            return g.equal(*args)
        if kind == "nf":
            return g.normal_form(*args)
        if kind == "order":
            return g.element_order(*args, cutoff=64)
        if kind == "confluence":
            return g.check_local_confluence(g.rewrite_system(args[0]))
        inv = g.abelianization(g.goeritz_presentation(args[0]))
        return (inv.torsion, inv.free_rank)

    def check(self, op, out):
        kind, args, expected = op
        if kind == "nf" and expected != ():
            case = args[0]
            return oracles.abelian_image(case, out) == expected and oracles.normal_form_shape_ok(case, out)
        return out == expected

    def warmup(self):
        for case in self.CASES:
            w = oracles.GOERITZ_GENERATORS[case][:4]
            self.run(("nf", (case, w), None))
            self.run(("equal", (case, w, w), None))
            self.lib["goeritz"].element_order(case, ("b",), cutoff=4)


class FareyTrees:
    """Op: a ball build with its odd subcomplex and JSON rendering; a
    forest and reach check (the ``farey --check-tree`` path); a grafted
    sphere-complex model with its tree check; or a cone model with
    ``cone_check``."""

    name = "farey-trees"
    calibration = hostspeed.KERNEL
    # An op builds tens of thousands of objects, so where the collector's
    # generation counts stand when it starts decides how many full
    # collections it pays.  A collection before each op (outside its
    # timing) starts every op from the same state.
    collect_between_ops = True
    with_cli = False
    CYCLES = 12
    BALL_DEPTHS = range(4, 13)
    CHECK_DEPTHS = range(4, 11)
    GRAFT_DEPTHS = (4, 5, 6, 7, 8, 4, 6, 8, 7)
    CONES = 10  # size strata of the cone bases in a cycle
    MAX_BLACKS = 30
    MAX_CONE = 2000

    def __init__(self):
        self.lib = None
        self.balls = {}

    def _ball(self, depth):
        if depth not in self.balls:
            self.balls[depth] = oracles.farey_ball(depth)
        return self.balls[depth]

    def make_cycle(self, rng, tiny=False):
        ops = []
        for d in range(3, 6) if tiny else self.BALL_DEPTHS:
            ops.append(("ball", d, self._ball(d)))
        for d in range(3, 5) if tiny else self.CHECK_DEPTHS:
            ops.append(("check", d, self._ball(d)["odd_vertices"]))
        # Sizes sit near the centre of evenly spaced strata, so every cycle
        # has nearly the same costs; the seed draws each size within its band.
        strata = len(self.GRAFT_DEPTHS)
        for k, depth in enumerate(self.GRAFT_DEPTHS[:2] if tiny else self.GRAFT_DEPTHS):
            centre = (2 * k + 1) * self.MAX_BLACKS // (2 * strata)
            blacks = max(1, centre + rng.randrange(-1, 2))
            whites = 2 + k % 3
            size = oracles.graft_vertices(blacks, whites, self._ball(depth)["odd_root_component"])
            ops.append(("graft", (blacks, whites, depth), size))
        strata = 2 if tiny else self.CONES
        for k in range(strata):
            centre = (2 * k + 1) * self.MAX_CONE // (2 * strata)
            ops.append(("cone", centre + rng.randrange(-(centre // 50), centre // 50 + 1), None))
        rng.shuffle(ops)
        return ops

    def once(self, rng, tiny=False):
        return []

    def run(self, op):
        kind, arg, _ = op
        farey, complexes = self.lib["farey"], self.lib["complexes"]
        if kind == "ball":
            ball = farey.stern_brocot_ball(arg)
            odd = farey.f_odd_subcomplex(ball)
            return (
                (len(ball.vertices), len(ball.edges), len(ball.triangles)),
                complexes.to_json(odd),
            )
        if kind == "check":
            odd = farey.f_odd_subcomplex(farey.stern_brocot_ball(arg))
            return (len(odd.vertices), complexes.is_forest(odd), farey.odd_vertices_reach_infinity(arg))
        if kind == "graft":
            model = complexes.haken_complex_model(*arg)
            return (len(model.vertices), model.edges, complexes.is_tree(model))
        cone = complexes.sp_cone_model(arg)
        return (len(cone.vertices), len(cone.edges), len(cone.triangles), complexes.cone_check(cone))

    def check(self, op, out):
        kind, arg, expected = op
        if kind == "ball":
            counts, data = out
            return (
                counts == (expected["vertices"], expected["edges"], expected["triangles"])
                and len(data["vertices"]) == expected["odd_vertices"]
                and len(data["edges"]) == expected["odd_edges"]
                and oracles.complex_json_digests(data)
                == (expected["odd_label_digest"], expected["odd_edge_digest"])
            )
        if kind == "check":
            return out == (expected, True, True)
        if kind == "graft":
            n, edges, tree = out
            return tree and n == expected and oracles.is_spanning_tree(n, edges)
        return out == (arg + 1, 2 * arg - 1, arg - 1, True)

    def warmup(self):
        self.run(("ball", 3, None))
        self.run(("check", 2, None))
        self.run(("graft", (2, 2, 3), None))
        self.run(("cone", 10, None))


class CliMix:
    """Op: one ``python -m heegaard2.cli ...`` child process, run to
    completion before the next starts."""

    name = "cli-mix"
    calibration = hostspeed.FLOOR
    collect_between_ops = False
    with_cli = True
    CYCLES = 10
    # subcommand draws per cycle of 20; the last two are invalid inputs
    PLAN = (
        ["classify"] * 3 + ["normal-form"] * 3 + ["abelianization"] * 2
        + ["words"] * 3 + ["primitive"] * 3 + ["farey"] * 2
        + ["graft", "cone"] + ["invalid"] * 2
    )
    TINY_PLAN = (
        "classify", "normal-form", "abelianization", "words", "primitive",
        "farey", "graft", "cone", "invalid",
    )
    INVALID = (
        ["classify", "--m1", "lens:4,2", "--m2", "lens:5,2"],
        ["classify", "--m1", "lens:1,0", "--m2", "s2xs1"],
        ["primitive", "xyz"],
        ["goeritz", "--case", "1a", "--normal-form", "d b"],
        ["goeritz", "--case", "3", "--abelianization"],
        ["words", "--p1", "6", "--q1", "3", "--p2", "2"],
        ["words", "--p1", "7", "--q1", "2", "--p2", "1"],
        ["farey", "--max-depth", "-1", "--odd"],
        ["farey", "--max-depth", "3", "--check-tree"],
        ["sphere-complex", "--blacks", "3"],
    )

    def __init__(self):
        self.lib = None
        self.child_rss_kib = 0
        self.stdout_bytes = 0
        self.recorder = None  # set by the traced run
        self.spans_path = None
        self.import_ms = []

    # -- inputs and answers -------------------------------------------------

    @staticmethod
    def _summand(rng):
        if rng.random() < 0.15:
            return None, "s2xs1"
        p = rng.randrange(2, 31)
        q = _coprime_below(rng, p)
        return (p, q), f"lens:{p},{q}"

    def _op(self, rng, kind):
        if kind == "classify":
            m1, t1 = self._summand(rng)
            m2, t2 = self._summand(rng)
            if m1 and m2 and rng.random() < 0.35:
                p, q = m1
                q2 = rng.choice([q, pow(q, -1, p)])
                m2, t2 = (p, q2), f"lens:{p},{q2}"
            return ["classify", "--m1", t1, "--m2", t2], oracles.splitting_lines(m1, m2), 0
        if kind == "normal-form":
            case = rng.choice(GoeritzWords.CASES)
            draw = rng.random()
            if draw < 0.6:
                word = _trivially_wrapped(rng, case, rng.randrange(4, 16), ())
                expected = "1"
            elif case == "1b" and draw < 0.8:
                word = ("d", "b", "d")
                expected = "a b"
            else:
                word = (rng.choice(["b", "b'"]),) * rng.randrange(1, 6)
                expected = " ".join(word)
            argv = ["goeritz", "--case", case, "--normal-form", " ".join(word) or "1"]
            return argv, [expected], 0
        if kind == "abelianization":
            case = rng.choice(GoeritzWords.CASES)
            torsion, rank = oracles.GOERITZ_ABELIAN[case]
            text = ("Z" if rank == 1 else f"Z^{rank}") + f" + Z/2^{len(torsion)}"
            return ["goeritz", "--case", case, "--abelianization"], [text], 0
        if kind == "words":
            p1 = rng.randrange(2, 11)
            q1, p2 = _coprime_below(rng, p1), rng.randrange(2, 6)
            argv = ["words", "--p1", str(p1), "--q1", str(q1), "--p2", str(p2)]
            return argv, oracles.surgery_words(p1, q1, p2), 0
        if kind == "primitive":
            word = "".join(rng.choice("xXyY") for _ in range(rng.randrange(2, 13)))
            verdict, root, exponent = oracles.classify_word(word)
            if verdict == "power-of-primitive":
                verdict = f"power-of-primitive({root}, {exponent})"
            return ["primitive", word], [verdict, None], 0
        if kind == "farey":
            depth = rng.randrange(0, 7)
            argv = ["farey", "--max-depth", str(depth), "--odd", "--check-tree"]
            return argv, ["forest: true", "connected to 1/0 within depth+2: true"], 0
        if kind == "graft":
            blacks, whites, depth = rng.randrange(1, 11), rng.randrange(2, 4), rng.randrange(2, 6)
            n = oracles.graft_vertices(blacks, whites, oracles.farey_ball(depth)["odd_root_component"])
            argv = ["sphere-complex", "--blacks", str(blacks), "--whites-per-black",
                    str(whites), "--farey-depth", str(depth)]
            return argv, [f"vertices: {n}", f"edges: {n - 1}", "tree: true"], 0
        if kind == "cone":
            n = rng.randrange(1, 501)
            argv = ["sphere-complex", "--cone", str(n)]
            return argv, [f"vertices: {n + 1}", f"edges: {2 * n - 1}", "cone: true"], 0
        return list(rng.choice(self.INVALID)), [], 1

    def make_cycle(self, rng, tiny=False):
        ops = [("cli",) + self._op(rng, kind) for kind in (self.TINY_PLAN if tiny else self.PLAN)]
        rng.shuffle(ops)
        return [(kind, argv, (lines, code)) for kind, argv, lines, code in ops]

    def once(self, rng, tiny=False):
        return []

    # -- running and checking ------------------------------------------------

    def env(self):
        return dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, command):
        """Run one child to completion; returns (exit code, stdout, peak
        resident KiB of that child alone)."""
        proc = subprocess.Popen(
            command, cwd=ROOT, env=self.env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
        )
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, usage.ru_maxrss

    def run(self, op):
        _, argv, _ = op
        if self.recorder is None:
            code, out, rss = self.spawn([sys.executable, "-m", "heegaard2.cli", *argv])
        else:
            command = [sys.executable, str(CLI_CHILD), str(self.spans_path), *argv]
            code, out, rss = self.spawn(command)
            with open(self.spans_path) as f:
                record = json.load(f)
            os.unlink(self.spans_path)
            self.recorder.add_rows(record["spans"], self.recorder.op_id)
            self.import_ms.append(record["import_ms"])
        self.child_rss_kib = max(self.child_rss_kib, rss)
        self.stdout_bytes += len(out)
        return code, out.decode()

    def check(self, op, out):
        _, _, (lines, code) = op
        got_code, text = out
        got = text.splitlines()
        if got_code != code or len(got) != len(lines):
            return False
        for want, line in zip(lines, got):
            if want is None:
                if not line.startswith("criterion: "):
                    return False
            elif want != line:
                return False
        return True

    def warmup(self):
        for argv in (
            ["classify", "--m1", "lens:5,2", "--m2", "lens:7,3"],
            ["goeritz", "--case", "1b", "--normal-form", "d b d"],
        ):
            self.run(("cli", argv, None))


WORKLOADS = {w.name: w for w in (CurveWords, GoeritzWords, FareyTrees, CliMix)}


def measure_setup(workload):
    """Seconds from just before importing heegaard2 to the end of the
    warm-up pass; leaves the library loaded on the workload."""
    start = perf_counter()
    workload.lib = load_library(workload.with_cli)
    workload.warmup()
    return perf_counter() - start
