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

import os
import sys
from itertools import groupby

# Each command imports its library modules when it runs, so start-up pays only
# for those, and calls them as module attributes, so patches of them apply.


def _int(text: str) -> int:
    """Integer flags, in ASCII digits only, as ``lens:p,q`` (``int`` reads ``+5``, ``1_0``)."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"invalid int value: {text!r}")
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


# Each subcommand: its handler, its help line and its flags in order, each flag ->
# (type, default).  The type is _int, str, a tuple of choices or bool for a
# switch, and the default ... makes the flag required; ``word`` is a positional.
_TEXT, _GRAPH = (("text", "json"), "text"), (("text", "json", "dot"), "text")
_COMMANDS = {
    "words": (_cmd_words, "surgery word sequence for summand parameters", {
        "--p1": (_int, ...), "--q1": (_int, ...), "--p2": (_int, ...), "--q2": (_int, 1),
        "--index": (_int, None), "--format": _TEXT}),
    "primitive": (_cmd_primitive, "classify a word over x, y, X, Y", {"word": (str, ...)}),
    "classify": (_cmd_classify, "count genus-two surfaces of a connected sum (lens:p,q or s2xs1)", {
        "--m1": (str, ...), "--m2": (str, ...), "--format": _TEXT}),
    "goeritz": (_cmd_goeritz, 'Goeritz presentations and word problems (tokens as "d b d")', {
        "--case": (str, ...), "--normal-form": (str, None), "--abelianization": (bool, False),
        "--format": _TEXT}),
    "farey": (_cmd_farey, "mediant balls and the odd subtree", {
        "--max-depth": (_int, ...), "--odd": (bool, False), "--check-tree": (bool, False),
        "--format": _GRAPH}),
    "sphere-complex": (_cmd_sphere_complex, "grafted sphere-complex and cone models", {
        "--blacks": (_int, None), "--whites-per-black": (_int, None),
        "--farey-depth": (_int, None), "--cone": (_int, None), "--format": _GRAPH}),
}
_TOP = {"command": (tuple(_COMMANDS), ...)}  # the top level's one positional
_EXCLUSIVE = {"--normal-form": "--abelianization", "--abelianization": "--normal-form"}
_Args = type(sys.implementation)  # types.SimpleNamespace, without loading ``types``


def _usage(command: str = "", full: bool = False) -> str:
    """The usage line of ``command`` or of the top level, made from the table;
    ``full`` adds the help lines that ``-h`` prints."""
    items = [f"usage: heegaard2 {command}".rstrip(), "[-h]"]
    for flag, (kind, default) in (_COMMANDS[command][2] if command else _TOP).items():
        value = "{%s}" % ",".join(kind) if isinstance(kind, tuple) else flag.lstrip("-").upper()
        item = flag if kind is bool else f"{flag} {value}" if flag[0] == "-" else value
        items.append(item if default is ... else f"[{item}]")
    if not full:
        return " ".join(items)
    helps = [_COMMANDS[command][1]] if command else [f"  {name:16}{e[1]}" for name, e in _COMMANDS.items()]
    return "\n".join([" ".join(items), "", *helps])


def _option(token: str, flags) -> tuple | None:
    """How argparse read ``token`` among ``-h``, ``--help`` and ``flags``: None
    for a value (a dash with a number or a space is one), else ``(option, its
    =value or None)``, the option None if unknown.  A long option may be cut to
    a prefix that fits it alone, and ``-hX`` is ``-h`` given ``X``."""
    if token[:1] != "-" or token == "-":
        return None
    head, dot, tail = token[1:].removesuffix("\n").partition(".")
    if (head.isdecimal() or dot and not head) and (not dot or tail.isdecimal()):
        return None  # argparse's negative number, -\d+$ or -\d*\.\d+$
    if token[1] == "h":
        return "-h", token[2:].removeprefix("=") if token[2:] else None
    name, eq, text = token.partition("=") if token[1] == "-" else (token, "", "")
    names = ["-h", "--help", *(flag for flag in flags if flag[0] == "-")]
    found = [name] if name in names else [n for n in names if n.startswith(name) and token != "--"]
    if len(found) > 1:
        raise ValueError(f"ambiguous option: {token} could match {', '.join(found)}")
    return (found[0], text if eq else None) if found else None if " " in token else (None, None)


def _parse(argv: list) -> _Args:
    """``argv`` read as argparse read it, with its messages in its order: an
    ambiguous prefix, then values and conflicts token by token, then missing
    flags, then leftovers.  ``-h`` returns the help as the command; a usage
    error prints a usage line to stderr and raises ``ValueError``."""
    command, flags, values, given, leftover, usage, at = "", _TOP, {}, set(), [], _usage(), 0
    try:
        options = [_option(token, flags) for token in argv]
        while at < len(argv):
            token, option = argv[at], options[at]
            at += 1
            # a value is the positional's while that is still to come, else left over
            flag, text = option or (next((f for f in flags if f[0] != "-" and f not in given), None), token)
            if flag is None:
                leftover.append(token)
                continue
            kind = flags[flag][0] if flag in flags else bool  # -h and --help are switches
            try:
                if kind is bool and text is not None:
                    raise ValueError(f"ignored explicit argument {text!r}")
                if flag not in flags:
                    return _Args(func=lambda args: (0, _usage(command, full=True)))
                if text is None and kind is not bool:
                    if at == len(argv) or options[at] is not None:
                        raise ValueError("expected one argument")
                    text, at = argv[at], at + 1
                if isinstance(kind, tuple) and text not in kind:
                    raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})")
                values[flag] = True if kind is bool else text if isinstance(kind, tuple) else kind(text)
                if (other := _EXCLUSIVE.get(flag)) in given:
                    raise ValueError(f"not allowed with argument {other}")
            except ValueError as exc:
                raise ValueError(f"argument {flag if flag in flags else '-h/--help'}: {exc}") from None
            given.add(flag)
            if flag == "command":  # the rest of argv is the command's
                command, flags, usage, given = text, _COMMANDS[text][2], _usage(text), set()
                values = {flag: default for flag, (_, default) in flags.items()}
                options[at:] = [_option(token, flags) for token in argv[at:]]
        if missing := [flag for flag, (_, default) in flags.items() if default is ... and flag not in given]:
            raise ValueError(f"the following arguments are required: {', '.join(missing)}")
        if leftover:
            usage = _usage()
            raise ValueError(f"unrecognized arguments: {' '.join(leftover)}")
    except ValueError:
        print(usage, file=sys.stderr)
        raise
    return _Args(func=_COMMANDS[command][0], **{f.lstrip("-").replace("-", "_"): v for f, v in values.items()})


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        code, text = args.func(args)
        try:
            print(text)
            sys.stdout.flush()  # a write error in buffered output shows here
        except BrokenPipeError:
            pass  # the reader has left: no failure, and the command's code stands
        return code
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
