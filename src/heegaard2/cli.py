"""Command-line front end.

Subcommands mirror the library: ``words`` (surgery word sequences),
``primitive`` (word classification), ``classify`` (surface counts),
``goeritz`` (presentations, normal forms, abelianizations), ``farey``
(mediant balls and the odd subtree) and ``sphere-complex`` (grafted tree
and cone models).

Exit codes: 0 success, 1 usage or validation error, 2 a verified
invariant was violated (a check answered false, or the library raised
anything but ``ValueError`` or a write to stdout failed, reported on one
``error:`` line).  Each command returns its exit code and its output
text (without the final newline), and ``main`` alone writes that text to
stdout, once, after the command has returned: stdout stays empty on exit
1 and on an ``error:`` exit 2.  A stdout closed by its reader (as in
``| head -1``) is no failure and keeps the command's exit code, so a
check that answered false still exits 2.
"""

import argparse
import os
import re
import sys
from itertools import groupby

# Each command imports its library modules when it runs, so start-up pays only
# for those, and calls them as module attributes, so patches of them apply.


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


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _json(payload) -> str:
    import json
    return json.dumps(payload, sort_keys=True)


def _render_complex(cpx, fmt: str, last_line: str) -> str:
    from . import complexes
    if fmt == "dot":
        return complexes.to_dot(cpx)
    if fmt == "json":
        return _json(complexes.to_json(cpx))
    return f"vertices: {len(cpx._ids)}\nedges: {len(cpx._edge_ends[0])}\n{last_line}"


def _cmd_words(args) -> tuple[int, str]:
    from . import surgery
    params = surgery.SplittingParams(args.p1, args.q1, args.p2, args.q2)
    if args.index is not None:
        items = [(args.index, surgery.surgery_word(params, args.index))]
    else:
        items = list(enumerate(surgery.surgery_sequence(params), start=1))
    if args.format == "json":
        records = [{"i": i, "word": w} for i, w in items]
        return 0, _json(records[0] if args.index is not None else records)
    return 0, "\n".join(w for _, w in items)


def _cmd_primitive(args) -> tuple[int, str]:
    from . import fgroup
    word = fgroup.parse_word(args.word)
    verdict = fgroup.primitive_power_root(word)
    if verdict.kind == "power-of-primitive":
        root, k = fgroup.format_word(verdict.root), verdict.exponent
        return 0, (f"power-of-primitive({root}, {k})\n"
                   f"criterion: primitive root {root} repeated {k} times")
    if verdict.kind == "trivial":
        return 0, "trivial\ncriterion: the word reduces to the empty word"
    if verdict.kind == "primitive":
        return 0, "primitive\ncriterion: whitehead reduction reaches length 1"
    reason = fgroup.letter_obstruction_reason(word)
    return 0, f"neither\ncriterion: {reason or 'whitehead reduction stops above length 1'}"


def _cmd_classify(args) -> tuple[int, str]:
    from . import classify
    m1 = classify.parse_summand(args.m1)
    m2 = classify.parse_summand(args.m2)
    descriptors = classify.splittings(m1, m2)
    if args.format == "json":
        splittings = [{"case": d.case, "symmetric": d.symmetric} for d in descriptors]
        return 0, _json({"count": len(descriptors), "splittings": splittings})
    lines = [f"splitting: case={d.case} symmetric={_bool(d.symmetric)}" for d in descriptors]
    return 0, "\n".join([f"count: {len(descriptors)}", *lines])


def _format_abelian(inv) -> str:
    rank = inv.free_rank
    parts = ["Z" if rank == 1 else f"Z^{rank}"] if rank else []
    for n, run in groupby(inv.torsion):
        k = len(list(run))
        parts.append(f"Z/{n}" + (f"^{k}" if k > 1 else ""))
    return " + ".join(parts) if parts else "0"


def _cmd_goeritz(args) -> tuple[int, str]:
    from . import goeritz
    presentation = goeritz.goeritz_presentation(args.case)
    if args.normal_form is not None:
        word = goeritz.parse_tokens(args.normal_form, args.case)
        nf = goeritz.format_tokens(goeritz.normal_form(args.case, word))
        payload = {"input": goeritz.format_tokens(word), "normal_form": nf}
        text = nf
    elif args.abelianization:
        inv = goeritz.abelianization(presentation)
        payload = {"free_rank": inv.free_rank, "torsion": list(inv.torsion)}
        text = _format_abelian(inv)
    else:
        payload = goeritz.presentation_json(presentation)
        text = goeritz.presentation_text(presentation)
    return 0, _json(payload) if args.format == "json" else text


def _cmd_farey(args) -> tuple[int, str]:
    from . import farey
    if args.max_depth < 0:
        raise ValueError("--max-depth must be non-negative")
    if args.check_tree and not args.odd:
        raise ValueError("--check-tree requires --odd")
    if args.check_tree and args.format != "text":
        raise ValueError(f"--check-tree prints text only, not --format {args.format}")
    if args.check_tree:
        forest_ok, reach_ok = farey.odd_tree_check(args.max_depth)
        text = f"forest: {_bool(forest_ok)}\nconnected to 1/0 within depth+2: {_bool(reach_ok)}"
        return 0 if forest_ok and reach_ok else 2, text
    ball = farey.stern_brocot_ball(args.max_depth)
    cpx = farey.f_odd_subcomplex(ball) if args.odd else ball
    return 0, _render_complex(cpx, args.format, f"triangles: {len(cpx._triangle_ends[0])}")


def _cmd_sphere_complex(args) -> tuple[int, str]:
    from . import complexes
    flags = {"--blacks": args.blacks, "--whites-per-black": args.whites_per_black,
             "--farey-depth": args.farey_depth}
    if args.cone is not None:
        if given := [flag for flag, value in flags.items() if value is not None]:
            raise ValueError(f"--cone takes no graft flags, got {', '.join(given)}")
        if args.cone < 1:
            raise ValueError("--cone must be positive")
        cpx = complexes.sp_cone_model(args.cone)
        verdict, ok = "cone", complexes.cone_check(cpx)
    else:
        if missing := [flag for flag, value in flags.items() if value is None]:
            raise ValueError(f"missing {', '.join(missing)} (or use --cone)")
        for flag, least in (("--blacks", 1), ("--whites-per-black", 1), ("--farey-depth", 0)):
            if flags[flag] < least:
                raise ValueError(f"{flag} must be {'positive' if least else 'non-negative'}")
        cpx = complexes.haken_complex_model(args.blacks, args.whites_per_black, args.farey_depth)
        verdict, ok = "tree", complexes.is_tree(cpx)
    return 0 if ok else 2, _render_complex(cpx, args.format, f"{verdict}: {_bool(ok)}")


def build_parser() -> _Parser:
    parser = _Parser(prog="heegaard2", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("words", help="surgery word sequence for summand parameters")
    p.add_argument("--p1", type=_int, required=True)
    p.add_argument("--q1", type=_int, required=True)
    p.add_argument("--p2", type=_int, required=True)
    p.add_argument("--q2", type=_int, default=1)
    p.add_argument("--index", type=_int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_words)

    p = sub.add_parser("primitive", help="classify a word over x, y, X, Y")
    p.add_argument("word")
    p.set_defaults(func=_cmd_primitive)

    p = sub.add_parser("classify", help="count genus-two surfaces of a connected sum")
    p.add_argument("--m1", required=True, help="lens:p,q or s2xs1")
    p.add_argument("--m2", required=True, help="lens:p,q or s2xs1")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("goeritz", help="Goeritz presentations and word problems")
    p.add_argument("--case", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--normal-form", dest="normal_form", default=None,
                      help='token word, e.g. "d b d"')
    mode.add_argument("--abelianization", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_goeritz)

    p = sub.add_parser("farey", help="mediant balls and the odd subtree")
    p.add_argument("--max-depth", dest="max_depth", type=_int, required=True)
    p.add_argument("--odd", action="store_true")
    p.add_argument("--check-tree", dest="check_tree", action="store_true")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(func=_cmd_farey)

    p = sub.add_parser("sphere-complex", help="grafted sphere-complex and cone models")
    p.add_argument("--blacks", type=_int, default=None)
    p.add_argument("--whites-per-black", dest="whites_per_black", type=_int, default=None)
    p.add_argument("--farey-depth", dest="farey_depth", type=_int, default=None)
    p.add_argument("--cone", type=_int, default=None)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(func=_cmd_sphere_complex)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, text = args.func(args)
        try:
            print(text)
            sys.stdout.flush()  # a write error in buffered output shows here
        except BrokenPipeError:
            pass  # the reader has left: no failure, and the command's code stands
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}:", *str(exc).split(), file=sys.stderr)
        return 2


def entry_point() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # main has set the code; the output is still buffered, so point stdout
        # at devnull: the interpreter's own flush at exit has nothing to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except ValueError:  # a stream without a file descriptor, or a closed one
            sys.stdout = os.fdopen(devnull, "w")
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
