"""Span recorder for the traced run.

Timing wrappers are installed on module attributes of heegaard2, so the
library's own calls between (and inside) modules go through them and
yield nested spans.  Spans stay in memory as flat arrays and are written
out when the run ends.  Nothing here is active in the untraced run.
"""

import functools
import gzip
import statistics
from array import array
from time import perf_counter

WRAPPED = {
    "fgroup": (
        "primitive_power_root",
        "is_primitive",
        "cyclic_canonical",
        "apply_endomorphism",
        "has_letter_obstruction",
        "has_subword_obstruction",
        "has_primitive_block_form",
    ),
    "surgery": ("surgery_sequence", "surgery_word", "gap_pattern"),
    "classify": ("splittings",),
    "farey": ("stern_brocot_ball", "f_odd_subcomplex", "odd_vertices_reach_infinity"),
    "complexes": (
        "make_complex",
        "induced",
        "component",
        "is_forest",
        "is_tree",
        "sp_tree_model",
        "haken_complex_model",
        "cone_check",
        "to_json",
    ),
    "goeritz": (
        "normal_form",
        "equal",
        "rewrite",
        "element_order",
        "check_local_confluence",
        "abelianization",
    ),
}
CLI_MAIN = "cli.main"

# Sizes recorded on a span, from its arguments and from its result.
_SIZE_IN = {
    "fgroup.cyclic_canonical": lambda args, kwargs: len(args[0]),
    "farey.stern_brocot_ball": lambda args, kwargs: args[0],
    "farey.odd_vertices_reach_infinity": lambda args, kwargs: args[0],
    "goeritz.normal_form": lambda args, kwargs: len(args[1]),
}
_SIZE_OUT = {
    "farey.stern_brocot_ball": lambda result: len(result.vertices),
    "goeritz.normal_form": len,
}


def layer_metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = {}
    for module, functions in WRAPPED.items():
        for fn in functions:
            names[f"{module}.{fn}.calls"] = "count"
            names[f"{module}.{fn}.self_s"] = "s"
    names.update(
        {
            "fgroup.letters_canonicalized": "count",
            "fgroup.endomorphisms_per_verdict": "ratio",
            "fgroup.certificate_reject_ratio": "ratio",
            "farey.vertices_built": "count",
            "farey.reach_rebuild_ratio": "ratio",
            "complexes.ball_builds_per_graft": "ratio",
            "goeritz.tokens_in": "count",
            "goeritz.tokens_out": "count",
            "goeritz.rewrite_calls_per_order": "ratio",
            "cli.main.calls": "count",
            "cli.main.self_ms": "ms",
            "cli.spawn_ms": "ms",
            "cli.import_ms": "ms",
            "cli.stdout_bytes": "bytes",
            "trace.overhead_ratio": "ratio",
        }
    )
    return names


class Recorder:
    """Spans as parallel arrays: name, start, end, parent span, op id and
    the two recorded sizes.  A parent of -1 marks a root span."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.size_in = array("q")
        self.size_out = array("q")
        self._stack = [-1]
        self.op_id = -1

    def __len__(self):
        return len(self.name)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        nid = self._name_id(name)
        size_in = _SIZE_IN.get(name)
        size_out = _SIZE_OUT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.size_in.append(size_in(args, kwargs) if size_in else 0)
            self.size_out.append(0)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                self._stack.pop()
            if size_out:
                self.size_out[sid] = size_out(result)
            return result

        return wrapper

    def install(self, modules, extra=()):
        """Wrap every function in WRAPPED (plus ``extra`` names) on the
        given modules; returns a function that restores the originals."""
        saved = []
        targets = [(m, f) for m, fns in WRAPPED.items() for f in fns]
        targets += [tuple(name.split(".")) for name in extra]
        for module_name, fn_name in targets:
            module = modules[module_name]
            original = getattr(module, fn_name)
            saved.append((module, fn_name, original))
            setattr(module, fn_name, self.wrap(f"{module_name}.{fn_name}", original))

        def restore():
            for module, fn_name, original in saved:
                setattr(module, fn_name, original)

        return restore

    def to_rows(self):
        return [
            [self.names[self.name[i]], self.start[i], self.end[i], self.parent[i],
             self.op[i], self.size_in[i], self.size_out[i]]
            for i in range(len(self))
        ]

    def add_rows(self, rows, op_id):
        """Append spans recorded by another process under ``op_id``."""
        offset = len(self)
        for name, start, end, parent, _, size_in, size_out in rows:
            self.name.append(self._name_id(name))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + offset if parent >= 0 else -1)
            self.op.append(op_id)
            self.size_in.append(size_in)
            self.size_out.append(size_out)

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\top\tsize_in\tsize_out\n")
            for row in self.to_rows():
                out.write("\t".join(map(str, row)) + "\n")

    def layer_metrics(self):
        """Calls and self time per wrapped function, and the derived
        counts and ratios that need the span tree."""
        n = len(self)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        calls, self_s = {}, {}
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] = calls.get(name, 0) + 1
            own = self.end[i] - self.start[i] - child_time[i]
            self_s[name] = self_s.get(name, 0.0) + own

        def under(ancestor):
            # under[i]: some ancestor of span i is named ``ancestor``;
            # parents always precede their children in the arrays
            nid = self._name_ids.get(ancestor, -2)
            flags = bytearray(n)
            for i in range(n):
                p = self.parent[i]
                if p >= 0 and (self.name[p] == nid or flags[p]):
                    flags[i] = 1
            return flags

        def spans_named(name):
            nid = self._name_ids.get(name, -2)
            return [i for i in range(n) if self.name[i] == nid]

        def ratio(num, den):
            return num / den if den else 0.0

        balls = spans_named("farey.stern_brocot_ball")
        in_reach = under("farey.odd_vertices_reach_infinity")
        in_graft = under("complexes.haken_complex_model")
        in_order = under("goeritz.element_order")
        reach_ball = sum(1 << (self.size_in[i] + 2) for i in spans_named("farey.odd_vertices_reach_infinity"))
        normal_forms = spans_named("goeritz.normal_form")
        main_self = [
            (self.end[i] - self.start[i] - child_time[i]) * 1000
            for i in spans_named(CLI_MAIN)
        ]

        out = {}
        for module, functions in WRAPPED.items():
            for fn in functions:
                name = f"{module}.{fn}"
                out[f"{name}.calls"] = calls.get(name, 0)
                out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out.update(
            {
                "fgroup.letters_canonicalized": sum(
                    self.size_in[i] for i in spans_named("fgroup.cyclic_canonical")
                ),
                "fgroup.endomorphisms_per_verdict": ratio(
                    calls.get("fgroup.apply_endomorphism", 0),
                    calls.get("fgroup.primitive_power_root", 0),
                ),
                "farey.vertices_built": sum(self.size_out[i] for i in balls),
                "farey.reach_rebuild_ratio": ratio(
                    sum(self.size_out[i] for i in balls if in_reach[i]), reach_ball
                ),
                "complexes.ball_builds_per_graft": ratio(
                    sum(1 for i in balls if in_graft[i]),
                    calls.get("complexes.haken_complex_model", 0),
                ),
                "goeritz.tokens_in": sum(self.size_in[i] for i in normal_forms),
                "goeritz.tokens_out": sum(self.size_out[i] for i in normal_forms),
                "goeritz.rewrite_calls_per_order": ratio(
                    sum(1 for i in spans_named("goeritz.rewrite") if in_order[i]),
                    calls.get("goeritz.element_order", 0),
                ),
                "cli.main.calls": len(main_self),
                "cli.main.self_ms": statistics.median(main_self) if main_self else 0.0,
            }
        )
        return out
