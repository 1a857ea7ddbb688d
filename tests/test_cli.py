import ast
import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import shlex
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heegaard2
from heegaard2 import cli, complexes, farey, goeritz

from helpers import argparse_oracle, cut_build, rehang_build


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_words_json(capsys):
    code, out, _ = run(
        capsys, "words", "--p1", "3", "--q1", "1", "--p2", "2", "--format", "json"
    )
    assert code == 0
    records = json.loads(out)
    assert records == [
        {"i": 1, "word": "xxyyy"},
        {"i": 2, "word": "xxyxxyy"},
        {"i": 3, "word": "xxyxxyxxy"},
    ]


def test_words_validation_error(capsys):
    code, _, err = run(capsys, "words", "--p1", "4", "--q1", "2", "--p2", "2")
    assert code == 1
    assert "coprime" in err


def test_words_index_out_of_range(capsys):
    code, _, err = run(
        capsys, "words", "--p1", "3", "--q1", "1", "--p2", "2", "--index", "9"
    )
    assert code == 1
    assert "index" in err


def test_primitive_neither(capsys):
    code, out, _ = run(capsys, "primitive", "xyXY")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "neither"
    assert "contains both x and X" in lines[1]


def test_primitive_true(capsys):
    code, out, _ = run(capsys, "primitive", "xxy")
    assert code == 0
    assert out.splitlines()[0] == "primitive"


def test_primitive_trivial(capsys):
    code, out, _ = run(capsys, "primitive", "1")
    assert code == 0
    assert out.splitlines()[0] == "trivial"


def test_primitive_bad_characters(capsys):
    code, _, err = run(capsys, "primitive", "xyz")
    assert code == 1
    assert "invalid" in err


def test_classify_bundle(capsys):
    code, out, _ = run(
        capsys, "classify", "--m1", "s2xs1", "--m2", "lens:3,1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"count": 1, "splittings": [{"case": "2", "symmetric": False}]}


def test_classify_rejects_degenerate_lens(capsys):
    code, _, err = run(capsys, "classify", "--m1", "lens:1,0", "--m2", "lens:3,1")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "m1, message",
    [
        ("lens:1_3,2", "expected integer lens parameters, got 'lens:1_3,2'"),
        ("lens:\u0665,2", "expected integer lens parameters, got 'lens:\u0665,2'"),
        ("lens:5,-2", "require 1 <= q < p, got q=-2, p=5"),
    ],
    ids=["underscore", "arabic-indic-digit", "negative-q"],
)
def test_classify_rejects_malformed_lens_parameters(capsys, m1, message):
    code, out, err = run(capsys, "classify", "--m1", m1, "--m2", "s2xs1")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_goeritz_presentation_text(capsys):
    code, out, _ = run(capsys, "goeritz", "--case", "1a")
    assert code == 0
    assert "g1^2" in out and "g2^2" in out


def test_goeritz_abelianization(capsys):
    code, out, _ = run(capsys, "goeritz", "--case", "2", "--abelianization")
    assert code == 0
    assert out.strip() == "Z^2 + Z/2^3"
    code, out, _ = run(capsys, "goeritz", "--case", "1b", "--abelianization")
    assert code == 0
    assert out.strip() == "Z + Z/2^2"
    code, out, _ = run(capsys, "goeritz", "--case", "1a", "--abelianization")
    assert code == 0
    assert out.strip() == "Z + Z/2^3"


def test_format_abelian_runs():
    fmt = cli._format_abelian
    assert fmt(goeritz.AbelianInvariants((), 0)) == "0"
    assert fmt(goeritz.AbelianInvariants((), 1)) == "Z"
    assert fmt(goeritz.AbelianInvariants((2, 2, 6), 0)) == "Z/2^2 + Z/6"
    assert fmt(goeritz.AbelianInvariants((2, 4, 4, 4), 3)) == "Z^3 + Z/2 + Z/4^3"


def test_goeritz_alien_token(capsys):
    code, out, err = run(capsys, "goeritz", "--case", "1a", "--normal-form", "d b")
    assert (code, out) == (1, "")
    assert err == "error: token 'd' is not over the case-1a alphabet ('a', 'b', 'g1', 'g2')\n"


def test_farey_check_tree(capsys):
    code, out, _ = run(capsys, "farey", "--max-depth", "6", "--odd", "--check-tree")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "forest: true"
    assert lines[1].endswith("true")


def test_farey_check_tree_grows_the_ball_once(capsys, monkeypatch):
    calls = []
    grow = farey._grow

    def counted(depth):
        calls.append(depth)
        return grow(depth)

    def no_complex(*args):
        raise AssertionError("built a complex for --check-tree")

    monkeypatch.setattr(farey, "_grow", counted)
    for name in ("_ball", "f_odd_subcomplex"):
        monkeypatch.setattr(farey, name, no_complex)
    monkeypatch.setattr(complexes, "is_forest", no_complex)
    for depth in range(13):
        calls.clear()
        code, out, _ = run(capsys, "farey", "--max-depth", str(depth), "--odd", "--check-tree")
        assert code == 0, depth
        assert out == "forest: true\nconnected to 1/0 within depth+2: true\n", depth
        assert calls == [depth]


_LIBRARY_MODULES = {"farey", "complexes", "fgroup", "goeritz", "classify", "surgery"}


def test_cli_reads_no_private_name_of_a_library_module():
    # the CLI asks each library module through its public functions only
    tree = ast.parse(inspect.getsource(cli))
    private = [
        (node.lineno, f"{node.value.id}.{node.attr}")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in _LIBRARY_MODULES and node.attr.startswith("_")
    ]
    assert private == []
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names if node.level == 1}
    assert imported == _LIBRARY_MODULES


_COUNTED_ARGV = [
    *(["farey", "--max-depth", "3", *odd, "--format", fmt]
      for odd in ([], ["--odd"]) for fmt in ("text", "json", "dot")),
    ["sphere-complex", "--blacks", "3", "--whites-per-black", "2", "--farey-depth", "3"],
    ["sphere-complex", "--cone", "5"],
]


def test_complex_output_builds_no_vertex_or_triangle_view(capsys, monkeypatch):
    # the counts come off the columns, and json and dot print no triangle
    # count; a served Farey ball makes no vertex or triangle rows either, in
    # a row store started afresh so that any row read would be made
    expected = [run(capsys, *argv) for argv in _COUNTED_ARGV]

    def unbuilt(*args):
        raise AssertionError("built a view to count it")

    for name in ("vertices", "triangles"):
        for cls in (complexes.Complex, complexes._Served):
            monkeypatch.setattr(cls, name, property(unbuilt))
        monkeypatch.setitem(farey._MAKERS, name, unbuilt)
    monkeypatch.setattr(farey, "_store", dict.fromkeys(farey._store, ()))
    for argv, want in zip(_COUNTED_ARGV, expected):
        assert want[0] == 0, argv
        assert run(capsys, *argv) == want, argv


@pytest.mark.parametrize(
    "damage, line",
    [
        (lambda build: rehang_build(build, 6, 0, 2), "forest: false"),
        (lambda build: cut_build(build, 0), "connected to 1/0 within depth+2: false"),
    ],
    ids=["two-odd-parents", "cut-off-1/0"],
)
def test_farey_check_tree_exits_2_on_a_damaged_build(capsys, monkeypatch, damage, line):
    grow = farey._grow
    monkeypatch.setattr(farey, "_grow", lambda depth: damage(grow(depth)))
    argv = ["farey", "--max-depth", "3", "--odd", "--check-tree"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (2, "")
    assert line in out.splitlines()
    # a reader that has left does not turn the false verdict into exit 0
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code, _, err = run(capsys, *argv)
    assert (code, err) == (2, "")


@pytest.mark.parametrize(
    "check, argv, line",
    [
        ("is_tree", ["--blacks", "2", "--whites-per-black", "2", "--farey-depth", "2"],
         "tree: false"),
        ("cone_check", ["--cone", "4"], "cone: false"),
    ],
    ids=["graft", "cone"],
)
def test_sphere_complex_exits_2_on_a_false_verdict(capsys, monkeypatch, check, argv, line):
    monkeypatch.setattr(complexes, check, lambda cpx: False)
    code, out, err = run(capsys, "sphere-complex", *argv)
    assert (code, err) == (2, "")
    assert out.splitlines()[-1] == line
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code, _, err = run(capsys, "sphere-complex", *argv)
    assert (code, err) == (2, "")


def test_farey_check_tree_requires_odd(capsys):
    code, _, err = run(capsys, "farey", "--max-depth", "2", "--check-tree")
    assert code == 1
    assert "--odd" in err


def test_farey_flags_checked_before_any_build(capsys, monkeypatch):
    def no_build(depth):
        raise AssertionError("built a ball before checking the flags")

    monkeypatch.setattr(farey, "stern_brocot_ball", no_build)
    monkeypatch.setattr(farey, "_grow", no_build)
    code, _, err = run(capsys, "farey", "--max-depth", "3", "--check-tree")
    assert code == 1
    assert "--odd" in err
    code, _, err = run(capsys, "farey", "--max-depth", "-1", "--odd", "--check-tree")
    assert code == 1
    assert "--max-depth" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["goeritz", "--case", "1b", "--normal-form", "d b d", "--abelianization"],
         "argument --abelianization: not allowed with argument --normal-form"),
        (["sphere-complex", "--cone", "3", "--blacks", "2"],
         "--cone takes no graft flags, got --blacks"),
        (["sphere-complex", "--whites-per-black", "2", "--farey-depth", "1", "--cone", "3"],
         "--cone takes no graft flags, got --whites-per-black, --farey-depth"),
        (["farey", "--max-depth", "3", "--odd", "--check-tree", "--format", "json"],
         "--check-tree prints text only, not --format json"),
        (["farey", "--max-depth", "3", "--odd", "--check-tree", "--format", "dot"],
         "--check-tree prints text only, not --format dot"),
    ],
    ids=["normal-form-and-abelianization", "cone-and-blacks", "cone-and-two-graft-flags",
         "check-tree-json", "check-tree-dot"],
)
def test_one_mode_per_invocation(capsys, monkeypatch, argv, message):
    def no_build(*args):
        raise AssertionError("built before checking the flags")

    for module, names in (
        (farey, ("stern_brocot_ball", "_grow")),
        (complexes, ("sp_cone_model", "haken_complex_model", "sp_tree_model")),
        (goeritz, ("goeritz_presentation", "normal_form", "abelianization")),
    ):
        for name in names:
            monkeypatch.setattr(module, name, no_build)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {message}"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--cone", "0"], "--cone must be positive"),
        (["--cone", "-3"], "--cone must be positive"),
        (["--blacks", "0", "--whites-per-black", "2", "--farey-depth", "1"],
         "--blacks must be positive"),
        (["--blacks", "2", "--whites-per-black", "0", "--farey-depth", "1"],
         "--whites-per-black must be positive"),
        (["--blacks", "2", "--whites-per-black", "2", "--farey-depth", "-1"],
         "--farey-depth must be non-negative"),
        (["--blacks", "-1", "--whites-per-black", "0", "--farey-depth", "-1"],
         "--blacks must be positive"),
    ],
    ids=["cone-0", "cone-negative", "blacks-0", "whites-per-black-0", "farey-depth-negative",
         "all-three-out-of-range"],
)
def test_sphere_complex_names_the_flag_out_of_range(capsys, monkeypatch, argv, message):
    def no_build(*args):
        raise AssertionError("built before checking the flags")

    for name in ("sp_cone_model", "haken_complex_model", "sp_tree_model"):
        monkeypatch.setattr(complexes, name, no_build)
    for name in ("odd_subtree", "_grow"):
        monkeypatch.setattr(farey, name, no_build)
    assert run(capsys, "sphere-complex", *argv) == (1, "", f"error: {message}\n")


_INT = st.integers(-3, 9).map(str)  # small enough that every build is quick
_JUNK = st.sampled_from(["", "\u0663", "1_0", "+5", "x"]) | st.text("xyXY", max_size=6)
_FORMAT, _GRAPH_FORMAT = st.sampled_from(["text", "json"]), st.sampled_from(["text", "json", "dot"])
_SUMMAND = st.just("s2xs1") | st.builds("lens:{},{}".format, st.integers(-3, 9), st.integers(-3, 9))
_TOKENS = st.lists(st.sampled_from(["a", "b", "b'", "d", "t", "t'", "g1"]), max_size=4)
# each subcommand's flags and their values; a switch takes none
_FUZZ_FLAGS = {
    "words": {"--p1": _INT, "--q1": _INT, "--p2": _INT, "--q2": _INT, "--index": _INT,
              "--format": _FORMAT},
    "primitive": {},
    "classify": {"--m1": _SUMMAND, "--m2": _SUMMAND, "--format": _FORMAT},
    "goeritz": {"--case": st.sampled_from(["1a", "1b", "2", "3"]),
                "--normal-form": _TOKENS.map(" ".join), "--abelianization": None,
                "--format": _FORMAT},
    "farey": {"--max-depth": _INT, "--odd": None, "--check-tree": None,
              "--format": _GRAPH_FORMAT},
    "sphere-complex": {"--blacks": _INT, "--whites-per-black": _INT, "--farey-depth": _INT,
                       "--cone": _INT, "--format": _GRAPH_FORMAT},
}


@given(st.data())
def test_cli_fuzz_exits_0_or_1_with_one_error_line(data):
    command = data.draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    pieces = []
    for flag, values in _FUZZ_FLAGS[command].items():
        if data.draw(st.integers(0, 2)):  # each flag given twice in three draws
            pieces.append((flag,) if values is None else (flag, data.draw(values)))
    # and at most one fault: a flag with junk or without its value, an unknown
    # flag or a stray value (the word of ``primitive``), all in any order
    flag = st.sampled_from([*_FUZZ_FLAGS[command], "--bogus", "-z"])
    pieces += data.draw(st.lists(st.tuples(flag, _JUNK) | st.tuples(flag | _INT | _JUNK),
                                 max_size=1))
    argv = [command, *(token for piece in data.draw(st.permutations(pieces)) for token in piece)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == "", argv
        assert err.getvalue().splitlines()[-1].startswith("error:"), argv
    # a closed stdout changes neither the exit code nor stderr
    closed_err = io.StringIO()
    with contextlib.redirect_stdout(_ClosedPipe()), contextlib.redirect_stderr(closed_err):
        assert cli.main(argv) == code, argv
    assert closed_err.getvalue() == err.getvalue(), argv


def _outcome(argv, oracle=False):
    """``cli.main(argv)`` as (exit code, stdout, stderr), with the flags read
    by ``cli._parse`` or, for ``oracle``, by the argparse parser it replaced."""
    out, err = io.StringIO(), io.StringIO()
    parse = (lambda args: argparse_oracle().parse_args(args)) if oracle else cli._parse
    with mock.patch.object(cli, "_parse", parse), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse after its help or a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_same_as_the_oracle(argv):
    code, out, err = _outcome(argv)
    want_code, want_out, want_err = _outcome(argv, oracle=True)
    if want_code == 0 and want_out.startswith("usage: heegaard2"):
        # the help: the text is made from the table, not argparse's
        assert (code, out[:16]) == (0, "usage: heegaard2"), (argv, out, err)
    else:
        assert (code, out) == (want_code, want_out), (argv, err, want_err)
        assert err.splitlines()[-1:] == want_err.splitlines()[-1:], argv
        if code == 1 and not want_err.startswith("error:"):  # a usage error
            assert err.startswith("usage: heegaard2"), argv


@settings(max_examples=400)
@given(st.data())
def test_cli_reads_flags_as_the_argparse_oracle(data):
    # the fuzz draws above, with prefixes, --flag=value, repeats and strays
    command = data.draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    flags = _FUZZ_FLAGS[command]
    pieces = []
    for flag, values in flags.items():
        for _ in range(data.draw(st.integers(0, 2))):  # absent, given or repeated
            name = flag
            if not data.draw(st.integers(0, 3)):  # a prefix, perhaps ambiguous or of --help
                name = flag[:data.draw(st.integers(3, len(flag)))]
            if values is None:
                pieces.append((name,))
            elif data.draw(st.booleans()):
                pieces.append((f"{name}={data.draw(values)}",))
            else:
                pieces.append((name, data.draw(values)))
    if command == "primitive" and data.draw(st.booleans()):
        pieces.append((data.draw(st.text("xyXY1", max_size=5)),))
    # a dash with a number or a space is a value, so a flag can take it
    dashed = st.sampled_from(["-x y", "-.5", "-1."])
    stray = st.sampled_from([*flags, "--bogus", "-z", "-h", "--help", "--he", "--he=x", "--odd=x",
                             "--format=dot", "--f"]) | _INT | _JUNK | dashed
    pieces += data.draw(st.lists(st.tuples(stray) | st.tuples(stray, _JUNK | dashed), max_size=1))
    tokens = [token for piece in data.draw(st.permutations(pieces)) for token in piece]
    before = data.draw(st.sampled_from([[]] * 5 + [["-z"], ["-h"], ["--bogus"], ["-1"]]))
    # now and then an unknown command, or none (a flag or value where it should be)
    command = data.draw(st.sampled_from([[command]] * 18 + [["nonsense"], []]))
    _assert_same_as_the_oracle([*before, *command, *tokens])


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["-z"], "the following arguments are required: command"),
        (["wor"], "argument command: invalid choice: 'wor' (choose from 'words', 'primitive', "
                  "'classify', 'goeritz', 'farey', 'sphere-complex')"),
        (["words", "--p1", "3"], "the following arguments are required: --q1, --p2"),
        (["words", "--p1", "3", "--q1", "1", "--p", "2"],
         "ambiguous option: --p could match --p1, --p2"),
        (["words", "--p1", "x", "--q=1"], "ambiguous option: --q=1 could match --q1, --q2"),
        (["words", "--p1", "--q1", "1"], "argument --p1: expected one argument"),
        (["words", "--p1=+5"], "argument --p1: invalid int value: '+5'"),
        (["words", "--p1", "3", "--q1", "1", "--p2", "2", "--form", "xml"],
         "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
        (["goeritz", "--case", "1a", "--abel", "--normal-form", "a"],
         "argument --normal-form: not allowed with argument --abelianization"),
        (["goeritz", "--case", "1a", "--abelianization=yes"],
         "argument --abelianization: ignored explicit argument 'yes'"),
        (["farey", "--help=x"], "argument -h/--help: ignored explicit argument 'x'"),
        (["primitive"], "the following arguments are required: word"),
        (["primitive", "xy", "--bogus", "x", "-z"], "unrecognized arguments: --bogus x -z"),
        (["-z", "farey", "--max-depth", "3", "4"], "unrecognized arguments: -z 4"),
        (["farey", "--max", "-1"], "--max-depth must be non-negative"),
        (["sphere-complex", "--cone", "-x y"], "argument --cone: invalid int value: '-x y'"),
    ],
)
def test_usage_errors_keep_argparse_messages_and_order(argv, message):
    code, out, err = _outcome(argv)
    assert (code, out, err.splitlines()[-1]) == (1, "", f"error: {message}")
    _assert_same_as_the_oracle(argv)


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], ["-z", "--he"], ["farey", "-h"], ["words", "--p1", "3", "--h"],
     ["primitive", "-h"], ["goeritz", "--case", "1a", "--help", "--abelianization", "x"]],
)
def test_help_prints_usage_from_the_table_and_exits_0(argv):
    code, out, err = _outcome(argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: heegaard2")
    command = next((token for token in argv if token[0] != "-"), None)
    assert (f"usage: heegaard2 {command} [-h]" if command else "words") in out
    _assert_same_as_the_oracle(argv)


@pytest.mark.parametrize("text", ["0", "-12", "007", "+5", "--5", "-", "5\n", "\u0663", "1_0",
                                  " 4", "", "-0", "4 "])
def test_int_reads_exactly_the_ascii_digit_pattern(text):
    if re.fullmatch("-?[0-9]+", text):
        assert cli._int(text) == int(text)
    else:
        with pytest.raises(ValueError, match=re.escape(f"invalid int value: {text!r}")):
            cli._int(text)


# one valid invocation per subcommand with integer flags, naming every flag
_INT_ARGVS = (
    ["words", "--p1", "5", "--q1", "2", "--p2", "3", "--q2", "1", "--index", "1"],
    ["farey", "--max-depth", "2"],
    ["sphere-complex", "--blacks", "2", "--whites-per-black", "2", "--farey-depth", "2"],
    ["sphere-complex", "--cone", "4"],
)


@pytest.mark.parametrize("value", ["\u0663", "1_0", " 4", "+5", "-", "5\n"])
@pytest.mark.parametrize(
    "argv, at",
    [pytest.param(argv, at, id=argv[at - 1])
     for argv in _INT_ARGVS for at in range(2, len(argv), 2)],
)
def test_integer_flags_take_ascii_digits_only(capsys, argv, at, value):
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv[:at], value, *argv[at + 1:])
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == f"error: argument {argv[at - 1]}: invalid int value: {value!r}"


@pytest.mark.parametrize(
    "argv",
    [
        ["farey", "--max-depth", "2"],
        ["farey", "--max-depth", "2", "--odd", "--check-tree"],
        ["sphere-complex", "--blacks", "2", "--whites-per-black", "2", "--farey-depth", "2"],
    ],
)
def test_internal_error_exits_2_with_one_line(capsys, monkeypatch, argv):
    def broken(depth):
        raise AssertionError("expected one new apex on edge 1/0-1/1\nsecond line")

    monkeypatch.setattr(farey, "_grow", broken)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: AssertionError: expected one new apex on edge 1/0-1/1 second line\n"


def test_closed_stdout_exits_0_without_an_error_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert cli.main(["farey", "--max-depth", "2", "--format", "json"]) == 0
    assert capsys.readouterr().err == ""


def test_failed_write_exits_2_with_one_line(capsys, monkeypatch):
    class FullDevice(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", FullDevice())
    assert cli.main(["primitive", "x"]) == 2
    assert capsys.readouterr().err == "error: OSError: [Errno 28] No space left on device\n"


class _Disk(io.RawIOBase):
    """A raw stdout that discards what it is given, or raises ``error`` if set."""
    error = None

    def writable(self):
        return True

    def write(self, data):
        if self.error:
            raise self.error
        return len(data)


def _entry_point_code(monkeypatch, disk, exitfuncs=lambda: None):
    """``entry_point``'s exit code for ``primitive x`` with stdout on ``disk`` and
    ``exitfuncs`` for the atexit handlers (pytest's own stay registered)."""
    def exit_now(code):  # os._exit would end the test run itself
        raise SystemExit(code)

    stdout = io.TextIOWrapper(io.BufferedWriter(disk))
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "argv", ["heegaard2", "primitive", "x"])
    monkeypatch.setattr(cli.atexit, "_run_exitfuncs", exitfuncs)
    monkeypatch.setattr(cli.os, "_exit", exit_now)
    with pytest.raises(SystemExit) as exited:
        cli.entry_point()
    disk.error = None
    stdout.close()  # writes the bytes still buffered to the disk, so collecting it flushes nothing
    return exited.value.code


def test_failed_final_flush_exits_2_with_one_line(capsys, monkeypatch):
    """``main``'s own flush meets the full disk and reports it; the bytes stay
    buffered, and ``entry_point``'s flush, failing on them again, adds no line."""
    disk = _Disk()
    disk.error = OSError(28, "No space left on device")
    assert _entry_point_code(monkeypatch, disk) == 2
    assert capsys.readouterr().err == "error: OSError: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("error, code, err", [
    (OSError(28, "No space left on device"), 2, "error: OSError: [Errno 28] No space left on device\n"),
    (BrokenPipeError(32, "Broken pipe"), 0, ""),
], ids=["full-disk", "reader-left"])
def test_hook_output_that_fails_at_the_final_flush(capsys, monkeypatch, error, code, err):
    """Only an atexit handler's output is still buffered at ``entry_point``'s
    flush: a full disk there exits 2 with one line, a reader that left keeps 0."""
    disk = _Disk()

    def hook():  # the disk fills after main has written and flushed its text
        disk.error = error
        print("hook ran")

    assert _entry_point_code(monkeypatch, disk, hook) == code
    assert capsys.readouterr().err == err


def _fresh_env():
    """The environment for a fresh interpreter that imports this heegaard2."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(heegaard2.__file__)))


def test_reader_closing_at_once_ends_the_cli_quietly():
    argv = ["farey", "--max-depth", "10", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "heegaard2.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env(),
    )
    proc.stdout.close()  # the reader leaves before the first byte
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


def test_atexit_handler_registered_before_the_cli_still_runs():
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'hook ran')\n"
        "sys.argv = ['heegaard2', 'primitive', 'x']\n"
        "runpy.run_module('heegaard2.cli', run_name='__main__')\n"
        "print('not reached')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_fresh_env()
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "primitive\ncriterion: whitehead reduction reaches length 1\nhook ran\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_exits_2_with_one_line():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "heegaard2.cli", "primitive", "x"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=_fresh_env(),
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: OSError: [Errno 28] No space left on device\n"


def test_stdout_closed_at_start_exits_2_with_one_line():
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "heegaard2.cli", "primitive", "x"],
        stderr=subprocess.PIPE, text=True, env=_fresh_env(),
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: OSError: stdout is closed\n"


def test_child_writes_what_main_writes_in_process(capsys):
    argv = ["farey", "--max-depth", "12", "--odd", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "heegaard2.cli", *argv], capture_output=True, env=_fresh_env()
    )
    code, out, err = run(capsys, *argv)
    assert (proc.returncode, proc.stderr) == (code, err.encode()) == (0, b"")
    assert proc.stdout == out.encode()


_CHECK_TREE = "forest: true\nconnected to 1/0 within depth+2: true\n"

# The output pins: id, argv as a shell would split it, the exit code and the
# whole stdout, or its sha256 after "sha256:".
_PINS = (
    ("check-tree-10", "farey --max-depth 10 --odd --check-tree", 0, _CHECK_TREE),
    ("check-tree-16", "farey --max-depth 16 --odd --check-tree", 0, _CHECK_TREE),
    ("check-tree-prefix", "farey --max 3 --odd --check-tree", 0, _CHECK_TREE),
    ("farey-14", "farey --max-depth 14", 0, "vertices: 65536\nedges: 131069\ntriangles: 65534\n"),
    ("farey-odd-json-6", "farey --max-depth 6 --odd --format json", 0,
     "sha256:7eb8dac82e431a72df5f05d95f8d0ff8ca823ddd0cbcb031e15b4497a0255547"),
    ("farey-dot-4", "farey --max-depth 4 --format dot", 0,
     "sha256:beec6c3c29bde41808e5ab5c0f814741ef262e877cc2a43041521b00c9be30e5"),
    ("farey-json-8", "farey --max-depth 8 --format json", 0,  # the build order
     "sha256:92a5a70a00b4b3d94e56f6332116b0f1f0b039ad11ca2579bc19be708a0a30c5"),
    ("farey-odd-json-12", "farey --max-depth 12 --odd --format json", 0,
     "sha256:07a2346891d6ba267e9eacd07ebfd07727ac6e00410f9b11ba1e508ae229c950"),
    ("graft-2", "sphere-complex --blacks 2 --whites-per-black 3 --farey-depth 4", 0,
     "vertices: 85\nedges: 84\ntree: true\n"),
    ("graft-25", "sphere-complex --blacks 25 --whites-per-black 3 --farey-depth 8", 0,
     "vertices: 17051\nedges: 17050\ntree: true\n"),
    ("graft-json-3", "sphere-complex --blacks 3 --whites-per-black 3 --farey-depth 4 --format json", 0,
     "sha256:d6ca58dc653040dfecf5e5009ad2488a0e1dea9050e5727958c87e7126e23aaa"),
    ("graft-json-25", "sphere-complex --blacks 25 --whites-per-black 3 --farey-depth 8 --format json", 0,
     "sha256:d8daecf1dafaad57d60bba55aa36a17bdb0fe4f8592ab1a7f2c70b57d0dbf7c6"),
    ("cone-5", "sphere-complex --cone 5", 0, "vertices: 6\nedges: 9\ncone: true\n"),
    ("cone-2000", "sphere-complex --cone 2000", 0, "vertices: 2001\nedges: 3999\ncone: true\n"),
    ("cone-dot-5", "sphere-complex --cone 5 --format dot", 0,
     "sha256:c7a93ec970b5c0e07fb3c1b1b40181512f7851b816061685c5766c4a88580ca0"),
    ("goeritz-normal-form", "goeritz --case 1b --normal-form 'd b d'", 0, "a b\n"),
    ("goeritz-abelianization-2", "goeritz --case 2 --abelianization", 0, "Z^2 + Z/2^3\n"),
    ("goeritz-abelianization-2-json", "goeritz --case 2 --abelianization --format json", 0,
     '{"free_rank": 2, "torsion": [2, 2, 2]}\n'),
    ("goeritz-abelianization-1b", "goeritz --case 1b --abelianization", 0, "Z + Z/2^2\n"),
    ("words-3", "words --p1 3 --q1 1 --p2 2", 0, "xxyyy\nxxyxxyy\nxxyxxyxxy\n"),
    ("words-2-index-2", "words --p1 2 --q1 1 --p2 3 --index 2", 0, "xxxyxxxy\n"),
    ("words-40", "words --p1 40 --q1 11 --p2 3", 0,
     "sha256:0db3f61b0f0d499fab81aa39fc70ec137cb8a2cd2350b37e1786492a0f7f6891"),
    ("words-40-json", "words --p1 40 --q1 11 --p2 3 --format json", 0,
     "sha256:51b65792ff48445ae78bedbcfad7dd25a32099785a489f22a68af86a8a771494"),
    ("words-1000-last", "words --p1 1000 --q1 7 --p2 5 --index 1000", 0, "xxxxxy" * 1000 + "\n"),
    ("words-1000-first", "words --p1 1000 --q1 7 --p2 5 --index 1", 0, "xxxxx" + "y" * 1000 + "\n"),
    ("classify", "classify --m1 lens:5,2 --m2 lens:5,2", 0,
     "count: 2\nsplitting: case=1b symmetric=true\nsplitting: case=1a symmetric=false\n"),
    ("primitive-neither", "primitive xyxyyyy", 0,
     "neither\ncriterion: whitehead reduction stops above length 1\n"),
    ("primitive-power", "primitive xxyxxyxxy", 0,
     "power-of-primitive(xxy, 3)\ncriterion: primitive root xxy repeated 3 times\n"),
    ("primitive-power-split-root", "primitive yxxyxxyxx", 0,  # a rotation that splits the root
     "power-of-primitive(xxy, 3)\ncriterion: primitive root xxy repeated 3 times\n"),
    ("primitive-power-conjugate", "primitive xyyX", 0,
     "power-of-primitive(y, 2)\ncriterion: primitive root y repeated 2 times\n"),
    ("primitive-squares", "primitive xxyy", 0, "neither\ncriterion: contains a square of each generator\n"),
    ("primitive-nested-cancel", "primitive xxyYXXy", 0,
     "primitive\ncriterion: whitehead reduction reaches length 1\n"),
    ("primitive-power-50", "primitive " + "xxy" * 50, 0,
     "power-of-primitive(xxy, 50)\ncriterion: primitive root xxy repeated 50 times\n"),
)
_FRESH_PINS = ("farey-dot-4", "graft-json-3", "words-40", "goeritz-normal-form")


def _assert_pinned(out: bytes, expected: str):
    if expected.startswith("sha256:"):
        assert "sha256:" + hashlib.sha256(out).hexdigest() == expected
    else:
        assert out == expected.encode()


@pytest.mark.parametrize("argv, code, expected",
                         [pytest.param(shlex.split(a), c, e, id=i) for i, a, c, e in _PINS])
def test_output_pin(capsys, argv, code, expected):
    got, out, err = run(capsys, *argv)
    assert (got, err) == (code, "")
    _assert_pinned(out.encode(), expected)


@pytest.mark.parametrize("argv, code, expected",
                         [pytest.param(shlex.split(a), c, e, id=i) for i, a, c, e in _PINS if i in _FRESH_PINS])
def test_output_pin_in_a_fresh_process(argv, code, expected):
    proc = subprocess.run([sys.executable, "-m", "heegaard2.cli", *argv],
                          capture_output=True, env=_fresh_env())
    assert (proc.returncode, proc.stderr) == (code, b"")
    _assert_pinned(proc.stdout, expected)


@pytest.mark.parametrize("argv, code, err_last", [
    # one mode per invocation and ASCII integer flags
    ("goeritz --case 1b --normal-form d --abelianization", 1,
     "error: argument --abelianization: not allowed with argument --normal-form"),
    ("sphere-complex --cone 3 --blacks 2", 1, "error: --cone takes no graft flags, got --blacks"),
    ("farey --max-depth 3 --odd --check-tree --format json", 1,
     "error: --check-tree prints text only, not --format json"),
    ("farey --max-depth ٣ --odd --check-tree", 1,
     "error: argument --max-depth: invalid int value: '٣'"),
    ("words --p1 3", 1, "error: the following arguments are required: --q1, --p2"),
    # a sphere-complex value out of range names its flag
    ("sphere-complex --cone 0", 1, "error: --cone must be positive"),
    ("sphere-complex --blacks 0 --whites-per-black 2 --farey-depth 1", 1, "error: --blacks must be positive"),
    ("--help", 0, ""),
    ("farey -h", 0, ""),
])
def test_exit_code_and_last_error_line_in_a_fresh_process(argv, code, err_last):
    # an error leaves stdout empty; help prints usage and leaves stderr empty
    proc = subprocess.run([sys.executable, "-m", "heegaard2.cli", *shlex.split(argv)],
                          capture_output=True, text=True, env=_fresh_env())
    last = proc.stderr.splitlines()[-1] if proc.stderr else ""
    out_head = "usage: heegaard2" if code == 0 else ""
    assert (proc.returncode, proc.stdout[:16], last) == (code, out_head, err_last)


def test_farey_negative_depth(capsys):
    code, _, err = run(capsys, "farey", "--max-depth", "-1")
    assert code == 1


def test_farey_json(capsys):
    code, out, _ = run(capsys, "farey", "--max-depth", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    labels = {v["label"] for v in payload["vertices"]}
    assert "1/2" in labels and "2/1" in labels
    assert payload["edges"] and payload["triangles"]


def test_farey_dot(capsys):
    code, out, _ = run(capsys, "farey", "--max-depth", "0", "--format", "dot")
    assert code == 0
    assert out.startswith("graph")
    assert 'label="1/0"' in out


def test_sphere_complex_tree(capsys):
    code, out, _ = run(
        capsys,
        "sphere-complex",
        "--blacks", "2", "--whites-per-black", "3", "--farey-depth", "4",
    )
    assert code == 0
    assert "tree: true" in out


def test_sphere_complex_cone(capsys):
    code, out, _ = run(capsys, "sphere-complex", "--cone", "5")
    assert code == 0
    assert "cone: true" in out


def test_sphere_complex_whites_too_large(capsys):
    code, _, err = run(
        capsys,
        "sphere-complex",
        "--blacks", "1", "--whites-per-black", "999", "--farey-depth", "1",
    )
    assert code == 1
    assert "slots" in err


def test_sphere_complex_missing_args(capsys):
    code, _, err = run(capsys, "sphere-complex", "--blacks", "2")
    assert code == 1


def test_words_bad_q2(capsys):
    code, _, err = run(
        capsys, "words", "--p1", "3", "--q1", "1", "--p2", "4", "--q2", "2"
    )
    assert code == 1
    assert "coprime" in err


def test_goeritz_normal_form_json(capsys):
    code, out, _ = run(
        capsys, "goeritz", "--case", "2", "--normal-form", "t b t'",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"input": "t b t'", "normal_form": "b"}


def test_goeritz_presentation_json(capsys):
    code, out, _ = run(capsys, "goeritz", "--case", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == ["a", "b", "g", "s", "t"]
    assert payload["central"] == ["a", "t"]


def test_farey_text_summary(capsys):
    code, out, _ = run(capsys, "farey", "--max-depth", "2", "--odd")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("vertices: ")
    assert lines[2] == "triangles: 0"


def test_sphere_complex_dot(capsys):
    code, out, _ = run(
        capsys,
        "sphere-complex",
        "--blacks", "1", "--whites-per-black", "2", "--farey-depth", "2",
        "--format", "dot",
    )
    assert code == 0
    assert out.startswith("graph") and "sphere0" in out


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "words", "--p1", "3")
    assert code == 1
    code, _, _ = run(capsys, "nonsense")
    assert code == 1


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "farey", "--max-depth", "3", "--format", "json")
    _, second, _ = run(capsys, "farey", "--max-depth", "3", "--format", "json")
    assert first == second
    _, third, _ = run(capsys, "goeritz", "--case", "1b", "--format", "json")
    _, fourth, _ = run(capsys, "goeritz", "--case", "1b", "--format", "json")
    assert third == fourth


def test_goeritz_unknown_case_is_one_error_line(capsys):
    code, out, err = run(capsys, "goeritz", "--case", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: unknown case '3'; expected one of ")
    assert err.count("\n") == 1 and err.endswith("\n")


def _fresh_imports(*args):
    """Names of the modules a fresh ``python -X importtime ARGS`` imports,
    read off the import-time log, which records every import statement."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True,
        env=_fresh_env(),
    )
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


@pytest.mark.parametrize(
    "argv, needed",
    [
        (["primitive", "xy"], {"fgroup"}),
        (["words", "--p1", "5", "--q1", "2", "--p2", "3"], {"classify", "surgery"}),
        (["classify", "--m1", "lens:5,2", "--m2", "s2xs1"], {"classify"}),
        (["goeritz", "--case", "1a", "--abelianization"], {"goeritz"}),
        (["farey", "--max-depth", "3", "--odd"], {"complexes", "farey"}),
        (["farey", "--max-depth", "3", "--odd", "--check-tree"], {"farey"}),
        (["sphere-complex", "--cone", "3"], {"complexes"}),
        (["sphere-complex", "--blacks", "2", "--whites-per-black", "2", "--farey-depth", "3"],
         {"complexes", "farey"}),
    ],
)
def test_cli_child_imports_only_its_subcommands_modules(argv, needed):
    baseline = _fresh_imports("-c", "pass")
    loaded = _fresh_imports("-m", "heegaard2.cli", *argv) - baseline
    assert {m for m in loaded if m.startswith("heegaard2.")} == {f"heegaard2.{m}" for m in needed}
    assert not loaded & {"dataclasses", "inspect", "json", "argparse", "gettext", "locale"}


def test_package_loads_submodules_on_first_access():
    code = (
        "import sys, heegaard2\n"
        "assert not [m for m in sys.modules if m.startswith('heegaard2.')]\n"
        "assert heegaard2.goeritz.CASES == ('1a', '1b', '2')\n"
        "from heegaard2 import fgroup\n"
        "assert fgroup is sys.modules['heegaard2.fgroup']\n"
        "try:\n"
        "    heegaard2.nonsense\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_fresh_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "module 'heegaard2' has no attribute 'nonsense'\n"
