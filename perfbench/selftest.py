"""Self-test of the benchmark: ``python3 perfbench/selftest.py`` from the
repository root.

Runs every workload at a tiny size, plain and traced, and asserts that
every metric BENCHMARK.json names appears with its unit and that no op
fails.  Then it substitutes wrong answers (stubbed library functions, or
for cli-mix a stubbed copy of the sources) and asserts that the oracles
catch them.
"""

import json
import shutil

import run
import workloads
from spans import layer_metric_names

SEED = 7


def tiny_run(name, trace=False):
    _, result = run.run(name, SEED, seconds=0.01, trace=trace, tiny=True)
    return result


def check_contract():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS, e2e
    assert layers == layer_metric_names(), set(layers) ^ set(layer_metric_names())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        for trace, units in ((False, e2e), (True, layers)):
            result = tiny_run(name, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units, (name, trace, set(got) ^ set(units))
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            assert result["attempted"] >= 1
            for key, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (name, key)
            if not trace:
                assert all(metric["value"] > 0 for metric in result["metrics"].values()), name
        print(f"ok {name}: every metric present, fail_rate 0")


def failures_with(name, module, attr, stub):
    lib = workloads.load_library()
    original = getattr(lib[module], attr)
    setattr(lib[module], attr, stub)
    try:
        result = tiny_run(name)
    finally:
        setattr(lib[module], attr, original)
    return result["failed"]


def check_oracles_catch_errors():
    lib = workloads.load_library()
    fgroup = lib["fgroup"]
    stubs = (
        ("curve-words", "fgroup", "primitive_power_root",
         lambda word: fgroup.PrimitivityVerdict("primitive")),
        ("curve-words", "fgroup", "has_letter_obstruction", lambda word: True),
        ("goeritz-words", "goeritz", "normal_form", lambda case, word: tuple(word)),
        ("farey-trees", "complexes", "is_forest", lambda c: False),
        ("farey-trees", "complexes", "to_json", lambda c: {"vertices": [], "edges": []}),
    )
    for name, module, attr, stub in stubs:
        failed = failures_with(name, module, attr, stub)
        assert failed > 0, (name, attr)
        print(f"ok {name}: stubbed {module}.{attr} -> {failed} failed ops")
    # cli-mix runs children, so stub a copy of the sources instead
    stub_src = run.OUT_DIR / "selftest-src"
    shutil.rmtree(stub_src, ignore_errors=True)
    shutil.copytree(workloads.SRC, stub_src)
    with open(stub_src / "heegaard2" / "goeritz.py", "a") as f:
        f.write("\n\ndef abelianization(p):\n    return AbelianInvariants((), 0)\n")
    saved = workloads.SRC
    workloads.SRC = stub_src
    try:
        failed = tiny_run("cli-mix")["failed"]
    finally:
        workloads.SRC = saved
        shutil.rmtree(stub_src)
    assert failed > 0
    print(f"ok cli-mix: stubbed goeritz.abelianization in the sources -> {failed} failed ops")


if __name__ == "__main__":
    check_contract()
    check_oracles_catch_errors()
    print("selftest passed")
