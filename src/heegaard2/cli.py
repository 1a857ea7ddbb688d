"""Command-line front end.

Subcommands mirror the library: ``words`` (surgery word sequences),
``primitive`` (word classification), ``classify`` (surface counts),
``goeritz`` (presentations, normal forms, abelianizations), ``farey``
(mediant balls and the odd subtree) and ``sphere-complex`` (grafted tree
and cone models).

Exit codes: 0 success, 1 usage or validation error, 2 a verified
invariant was violated (a check answered false, or the library raised
anything but ``ValueError``, reported on one ``error:`` line).  A stdout
closed by its reader (as in ``| head -1``) is no failure: output stops
quietly, with exit 0 unless a check has already answered false.
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


def _print_json(payload) -> None:
    import json
    print(json.dumps(payload, sort_keys=True))


def _print_complex(cpx, fmt: str, last_line: str) -> None:
    from . import complexes
    if fmt == "dot":
        print(complexes.to_dot(cpx))
    elif fmt == "json":
        _print_json(complexes.to_json(cpx))
    else:
        print(f"vertices: {len(cpx.vertices)}\nedges: {len(cpx.edges)}\n{last_line}")


def _cmd_words(args) -> int:
    from . import fgroup, surgery
    params = surgery.SplittingParams(args.p1, args.q1, args.p2, args.q2)
    if args.index is not None:
        items = [(args.index, surgery.surgery_word(params, args.index))]
    else:
        items = list(enumerate(surgery.surgery_sequence(params), start=1))
    if args.format == "json":
        records = [{"i": i, "word": fgroup.format_word(w)} for i, w in items]
        _print_json(records[0] if args.index is not None else records)
    else:
        for _, w in items:
            print(fgroup.format_word(w))
    return 0


def _cmd_primitive(args) -> int:
    from . import fgroup
    word = fgroup.parse_word(args.word)
    verdict = fgroup.primitive_power_root(word)
    if verdict.kind == "power-of-primitive":
        print(f"power-of-primitive({fgroup.format_word(verdict.root)}, {verdict.exponent})")
        print(f"criterion: primitive root {fgroup.format_word(verdict.root)} repeated {verdict.exponent} times")
    elif verdict.kind == "trivial":
        print("trivial")
        print("criterion: the word reduces to the empty word")
    elif verdict.kind == "primitive":
        print("primitive")
        print("criterion: whitehead reduction reaches length 1")
    else:
        print("neither")
        reason = fgroup.letter_obstruction_reason(word)
        print(f"criterion: {reason or 'whitehead reduction stops above length 1'}")
    return 0


def _cmd_classify(args) -> int:
    from . import classify
    m1 = classify.parse_summand(args.m1)
    m2 = classify.parse_summand(args.m2)
    descriptors = classify.splittings(m1, m2)
    if args.format == "json":
        splittings = [{"case": d.case, "symmetric": d.symmetric} for d in descriptors]
        _print_json({"count": len(descriptors), "splittings": splittings})
    else:
        print(f"count: {len(descriptors)}")
        for d in descriptors:
            print(f"splitting: case={d.case} symmetric={_bool(d.symmetric)}")
    return 0


def _format_abelian(inv) -> str:
    rank = inv.free_rank
    parts = ["Z" if rank == 1 else f"Z^{rank}"] if rank else []
    for n, run in groupby(inv.torsion):
        k = len(list(run))
        parts.append(f"Z/{n}" + (f"^{k}" if k > 1 else ""))
    return " + ".join(parts) if parts else "0"


def _cmd_goeritz(args) -> int:
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
    if args.format == "json":
        _print_json(payload)
    else:
        print(text)
    return 0


def _cmd_farey(args) -> int:
    from . import farey
    if args.max_depth < 0:
        raise ValueError("--max-depth must be non-negative")
    if args.check_tree and not args.odd:
        raise ValueError("--check-tree requires --odd")
    if args.check_tree and args.format != "text":
        raise ValueError(f"--check-tree prints text only, not --format {args.format}")
    if args.check_tree:
        _, forest_ok, reach_ok = farey._odd_parents(farey._grow(args.max_depth))
        print(f"forest: {_bool(forest_ok)}\nconnected to 1/0 within depth+2: {_bool(reach_ok)}")
        return 0 if forest_ok and reach_ok else 2
    ball = farey.stern_brocot_ball(args.max_depth)
    cpx = farey.f_odd_subcomplex(ball) if args.odd else ball
    _print_complex(cpx, args.format, f"triangles: {len(cpx.triangles)}")
    return 0


def _cmd_sphere_complex(args) -> int:
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
    _print_complex(cpx, args.format, f"{verdict}: {_bool(ok)}")
    return 0 if ok else 2


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
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except BrokenPipeError:
        return 0
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
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull, so that the
        # interpreter's own flush at exit has no pipe to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
