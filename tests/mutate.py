"""Mutation check: each entry breaks one fast path of ``heegaard2`` in a
temporary copy of ``src/``, and its narrow test selection must then fail.

Run from anywhere, with the test dependencies installed::

    python tests/mutate.py            # every entry
    python tests/mutate.py smith-gcd  # the named entries only

An entry names a file under ``src/heegaard2``, a source text that must
occur in it exactly once, the text that replaces it and the pytest node
ids it runs.  The selections first run together on the unmutated copy and
must pass.  Then each mutant runs its selection in a child process with
``PYTHONPATH=<copy>/src``; the child checks that ``heegaard2`` was
imported from the copy before it starts pytest.  An entry is killed
when pytest reports failed tests (exit status 1).  A target text that is
missing or repeated, a node id that is gone, a mutant that breaks the
import or a run that hangs is a fault of this list, and the script exits
1 on any of them or on a mutant that survives.  The file is not a test module, so
the tier-1 suite does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120
_WRONG_COPY = 9  # the child's exit status when heegaard2 came from elsewhere

# The child imports heegaard2 before pytest does, so every test reads the
# package (and its submodules, found on its ``__path__``) from the copy.
_CHILD = """
import sys
import heegaard2
if not heegaard2.__file__.startswith(sys.argv[1]):
    print(f"heegaard2 imported from {heegaard2.__file__}, not the copy", file=sys.stderr)
    sys.exit(%d)
import pytest
sys.exit(pytest.main(sys.argv[2:]))
""" % _WRONG_COPY


class Mutant(NamedTuple):
    name: str
    file: str  # under src/heegaard2
    text: str  # occurs exactly once in the file
    replacement: str
    selection: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant("whitehead-greedy", "fgroup.py",
           "            if len(image) < n:\n",
           "            if len(image) < n - 1:\n",
           ("tests/test_fgroup.py::test_is_primitive_examples",)),
    Mutant("least-rotation-max", "fgroup.py",
           "    best = min(range(n), key=lambda i: doubled[i : i + n])\n",
           "    best = max(range(n), key=lambda i: doubled[i : i + n])\n",
           ("tests/test_fgroup.py::test_cyclic_canonical_matches_rotation_oracle",)),
    Mutant("goeritz-push-skips-rhs", "goeritz.py",
           "                pending += rhs_reversed\n",
           "                stack += rhs_reversed[::-1]\n",
           ("tests/test_goeritz_engine.py::test_engine_matches_oracle_on_criterion_8_corpus",)),
    Mutant("smith-gcd", "goeritz.py",
           "gcd(diag[i], diag[k]), lcm(diag[i], diag[k])",
           "min(diag[i], diag[k]), max(diag[i], diag[k])",
           ("tests/test_goeritz.py::test_smith_diagonal_random_matrices_against_sympy",
            "tests/test_goeritz.py::test_smith_diagonal_closes_the_divisibility_chain")),
    Mutant("rules-half-twist-on-b-only", "goeritz.py",
           """for tok in ("b", "b'")]""",
           """for tok in ("b",)]""",
           ("tests/test_goeritz.py::test_rules_read_off_the_presentations_match_the_oracle",
            "tests/test_goeritz.py::test_local_confluence_shipped_systems",
            "tests/test_goeritz.py::test_normal_form_shape_1b")),
    Mutant("rules-central-without-inverse", "goeritz.py",
           """letters = (z,) if z in involutions else (z, z + "'")""",
           "letters = (z,)",
           ("tests/test_goeritz.py::test_rules_read_off_the_presentations_match_the_oracle",
            "tests/test_goeritz.py::test_centrality",
            "tests/test_goeritz.py::test_normal_form_shape_2")),
    Mutant("grow-reversed-round", "farey.py",
           "        for a, b, x in zip(ends_a, ends_b, apexes):\n",
           "        for a, b, x in reversed(list(zip(ends_a, ends_b, apexes))):\n",
           ("tests/test_farey_grow.py::test_grow_matches_the_frontier_oracle",)),
    Mutant("grow-serves-the-deeper-table", "farey.py",
           "    if depth == made:\n",
           "    if depth <= made:\n",
           ("tests/test_farey_grow.py::test_any_order_of_depths_serves_each_build_and_ball_as_grown_afresh",)),
    Mutant("grow-extends-the-published-columns", "farey.py",
           "    ids, nums, dens, pa, pb = map(list, table)",
           "    ids, nums, dens, pa, pb = table",
           ("tests/test_farey_grow.py::test_any_order_of_depths_serves_each_build_and_ball_as_grown_afresh",)),
    Mutant("ball-remakes-ids", "farey.py",
           "    n, table, grown = len(nums), _table[1], ids[2:]\n",
           "    ids = list(range(len(nums)))\n    n, table, grown = len(nums), _table[1], ids[2:]\n",
           ("tests/test_farey_grow.py::test_ball_columns_share_one_int_object_per_id",)),
    Mutant("ball-labels-grown-from-the-build", "farey.py",
           "    if build != (table if len(table.nums) == n else _prefix(table, n)):\n",
           "    if False:\n",
           ("tests/test_farey_grow.py::test_a_damaged_build_leaves_the_label_column_as_it_was",)),
    Mutant("ball-served-by-its-slopes", "farey.py",
           "    if build != (table if len(table.nums) == n else _prefix(table, n)):\n",
           "    if build[1:3] != (table if len(table.nums) == n else _prefix(table, n))[1:3]:\n",
           ("tests/test_farey_grow.py::test_odd_subcomplex_of_a_ball_on_shifted_ids_matches_the_label_oracle",
            "tests/test_farey_grow.py::test_a_build_that_is_no_prefix_of_the_table_is_not_served")),
    Mutant("store-remakes-each-column", "farey.py",
           "column + tuple(_MAKERS[name](build, k, n))",
           "tuple(_MAKERS[name](build, 0, n))",
           ("tests/test_farey_grow.py::test_served_balls_read_in_any_order_have_the_fields_of_a_plain_complex",)),
    Mutant("ball-makes-its-vertex-rows-at-once", "farey.py",
           "    return ball._fill(ids, kinds, _stored(",
           "    _rows(build, \"vertices\")\n    return ball._fill(ids, kinds, _stored(",
           ("tests/test_cli.py::test_complex_output_builds_no_vertex_or_triangle_view",)),
    Mutant("odd-parents-forest-flag", "farey.py",
           "                forest = forest and not nums[b] & 1\n",
           "                forest = forest or not nums[b] & 1\n",
           ("tests/test_farey_grow.py::test_each_verdict_fails_on_its_own",)),
    Mutant("odd-subtree-walks-children-reversed", "farey.py",
           "        order += children[v]\n",
           "        order += children[v][::-1]\n",
           ("tests/test_farey_grow.py::test_odd_graft_tree_matches_oracle",
            "tests/test_complexes.py::test_haken_single_black_is_the_odd_subtree")),
    Mutant("rewrite-system-keeps-rules-as-given", "goeritz.py",
           "        rules = tuple((tuple(lhs), tuple(rhs)) for lhs, rhs in rules)\n",
           "",
           ("tests/test_records.py::test_rewrite_system_freezes_its_rules",
            "tests/test_goeritz_engine.py::test_bare_rule_list_matches_system")),
    Mutant("make-complex-sorts-by-id-attribute", "complexes.py",
           "key=lambda v: tuple(v)[:1]",
           "key=lambda v: v.id",
           ("tests/test_complexes.py::test_make_complex_is_complex_of_the_normalized_rows",)),
    Mutant("fill-edge-column-b-ends", "complexes.py",
           " and idset.issuperset(ea) and idset.issuperset(eb)):\n",
           " and idset.issuperset(ea)):\n",
           ("tests/test_complexes.py::test_complex_validation",)),
    Mutant("surgery-word-max-rotation", "surgery.py",
           "min(doubled[k : k + i] for k in range(i))",
           "max(doubled[k : k + i] for k in range(i))",
           ("tests/test_surgery.py::test_first_and_last_words",
            "tests/test_surgery.py::test_surgery_word_is_least_rotation_of_expanded_gaps")),
    Mutant("forest-certificate-one-repeat", "complexes.py",
           "    if len(set(eb)) == len(eb):",
           "    if len(set(eb)) >= len(eb) - 1:",
           ("tests/test_complexes.py::test_a_repeated_edge_row_is_no_forest",
            "tests/test_complexes.py::test_forest_and_tree_match_the_counting_oracle")),
    Mutant("complex-rows-not-frozen", "complexes.py",
           "        vertices = tuple(map(tuple.__new__, repeat(Vertex), vertices))  # sizes checked below\n"
           "        edges, triangles = frozenset(edges), frozenset(triangles)\n",
           "",
           ("tests/test_complexes.py::test_complex_freezes_the_rows_it_is_given",)),
    Mutant("complex-vertex-rows-as-given", "complexes.py",
           "tuple(map(tuple.__new__, repeat(Vertex), vertices))",
           "tuple(vertices)",
           ("tests/test_complexes.py::test_complex_freezes_the_rows_it_is_given",)),
    Mutant("cone-check-apex-misses-a-vertex", "complexes.py",
           "    return far == others and len(rim_a) == len(others) - 1",
           "    return len(rim_a) == len(others) - 1",
           ("tests/test_complexes.py::test_cone_check_rejects_a_bare_or_partial_apex",)),
    Mutant("dot-edges-in-column-order", "complexes.py",
           "for a, b in sorted(zip(*c._edge_ends)))",
           "for a, b in zip(*c._edge_ends))",
           ("tests/test_cli.py::test_output_pin[farey-dot-4]",)),
    Mutant("cli-parse-skips-required-flags", "cli.py",
           """raise ValueError(f"the following arguments are required: {', '.join(missing)}")""",
           "pass",
           ("tests/test_cli.py::test_usage_errors_keep_argparse_messages_and_order",)),
    Mutant("cli-parse-allows-both-modes", "cli.py",
           "(other := _EXCLUSIVE.get(flag)) in given",
           "(other := _EXCLUSIVE.get(flag)) in ()",
           ("tests/test_cli.py::test_one_mode_per_invocation",)),
    Mutant("cli-parse-ambiguous-prefix", "cli.py",
           "    if len(found) > 1:\n",
           "    if len(found) > 2:\n",
           ("tests/test_cli.py::test_usage_errors_keep_argparse_messages_and_order",)),
    Mutant("cli-check-tree-swaps-verdicts", "farey.py",
           "    return _odd_parents(_grow(depth))[1:]\n",
           "    return _odd_parents(_grow(depth))[:0:-1]\n",
           ("tests/test_cli.py::test_farey_check_tree_exits_2_on_a_damaged_build",)),
    Mutant("odd-subcomplex-drops-digit-9", "farey.py",
           'if digit in "13579"}',
           'if digit in "1357"}',
           ("tests/test_farey.py::test_f_odd_matches_the_joined_label_oracle",)),
    Mutant("free-reduce-skips-the-stack", "fgroup.py",
           '    w = _CANCEL.sub("", w)\n'
           '    if "xX" not in w and "Xx" not in w and "yY" not in w and "Yy" not in w:\n',
           '    w = _CANCEL.sub("", w)\n    if True:\n',
           ("tests/test_fgroup.py::test_free_reduce_examples",
            "tests/test_fgroup.py::test_free_reduce_finishes_nested_cancellations")),
    Mutant("free-reduce-skips-the-regex", "fgroup.py",
           "    w = _checked(word)\n"
           '    if "xX" not in w and "Xx" not in w and "yY" not in w and "Yy" not in w:\n',
           "    w = _checked(word)\n    if True:\n",
           ("tests/test_fgroup.py::test_free_reduce_examples",)),
    Mutant("subword-drops-reversed-square", "fgroup.py",
           "|(?:yy|YY)(?:xx|XX)",
           "",
           ("tests/test_fgroup.py::test_subword_obstruction_examples",)),
    Mutant("block-form-allows-mixed-y", "fgroup.py",
           """ or ("y" in w and "Y" in w)""",
           "",
           ("tests/test_fgroup.py::test_block_form_rejects_a_letter_with_both_signs",)),
    Mutant("power-root-prints-the-raw-root", "fgroup.py",
           "cyclic_canonical(root), exponent)",
           "root, exponent)",
           ("tests/test_fgroup.py::test_primitive_power_root_examples",
            "tests/test_fgroup.py::test_rotated_proper_powers_match_the_oracle_with_a_canonical_root")),
    Mutant("cli-exit-skips-atexit", "cli.py",
           "    atexit._run_exitfuncs()  # CPython's own exit routine, before its flush\n",
           "",
           ("tests/test_cli.py::test_atexit_handler_registered_before_the_cli_still_runs",)),
    Mutant("cli-exit-drops-hook-write-error", "cli.py",
           "            if stream is sys.stdout and not reported:\n"
           "                code = _internal_error(exc)\n",
           "            pass\n",
           ("tests/test_cli.py::test_hook_output_that_fails_at_the_final_flush",)),
    Mutant("cli-exit-reports-write-twice", "cli.py",
           "        reported = True\n",
           "        reported = False\n",
           ("tests/test_cli.py::test_failed_final_flush_exits_2_with_one_line",)),
)


def _run(copy: Path, selection) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-c", _CHILD, str(copy), "-q", "-x", "-p", "no:cacheprovider",
            *selection]
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        return -1
    if done.returncode == _WRONG_COPY:
        sys.exit(f"mutate: {done.stderr.strip()}")
    return done.returncode


def _target(copy: Path, mutant: Mutant) -> tuple[Path, str]:
    """The mutant's file in the copy and its unmutated source."""
    path = copy / "src" / "heegaard2" / mutant.file
    source = path.read_text()
    if (count := source.count(mutant.text)) != 1:
        sys.exit(f"mutate: {mutant.name}: the target text occurs {count} times in "
                 f"{mutant.file}, not once; update the entry with the source")
    return path, source


def main(names) -> int:
    if unknown := set(names) - {m.name for m in MUTANTS}:
        sys.exit(f"mutate: no entries named {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory(prefix="heegaard2-mutate-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        for m in chosen:  # every target is checked before any mutant runs
            _target(copy, m)
        if code := _run(copy, [node for m in chosen for node in m.selection]):
            sys.exit(f"mutate: the selections fail on the unmutated source (pytest exit {code})")
        survivors = []
        for m in chosen:
            start = time.perf_counter()
            path, source = _target(copy, m)
            path.write_text(source.replace(m.text, m.replacement))
            code = _run(copy, m.selection)
            path.write_text(source)
            verdict = {1: "killed", 0: "SURVIVED", -1: f"HUNG past {TIMEOUT_S} s"}.get(
                code, f"ERROR (pytest exit {code})")
            print(f"{m.name:32} {verdict:12} {time.perf_counter() - start:5.1f} s", flush=True)
            if code != 1:
                survivors.append(m.name)
    if survivors:
        print(f"mutate: {len(survivors)} of {len(chosen)} not killed: {', '.join(survivors)}")
        return 1
    print(f"mutate: all {len(chosen)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
