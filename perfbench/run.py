"""heegaard2 benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: curve-words, goeritz-words,
farey-trees, cli-mix (see BENCHMARK.json for why each exists and what an
op is).  One client waits for each answer (a closed loop), in this one
process with no worker threads; cli-mix runs one CLI child at a time.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every batch of
ops twice, plainly and with span wrappers on the library's public
functions, and prints the per-layer metrics; spans are written to
.perfbench_out/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import hostspeed
import workloads
from spans import Recorder, layer_metric_names

SETUP_PROBES = 5  # fresh processes timing set-up before and again after the timed phase
SPAWN_PROBES = 11  # `python -c pass` children timed by the traced cli-mix run
OUT_DIR = workloads.ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def make_inputs(workload, seed, tiny):
    """Ops run once at the start of a run, and the seeded cycles."""
    name = workload.name
    once = workload.once(random.Random(f"{name}/{seed}/once"), tiny)
    count = 1 if tiny else workload.CYCLES
    cycles = [
        workload.make_cycle(random.Random(f"{name}/{seed}/{k}"), tiny) for k in range(count)
    ]
    return once, cycles


class Phase:
    """Latencies and failures of the ops run so far.  Each op is timed
    alone; checking its answer is outside the timing."""

    def __init__(self, workload, recorder=None):
        self.workload = workload
        self.recorder = recorder
        self.latencies = []  # at the reference host speed once finished
        self.failed = 0
        self.cycles = 0
        self.scale = hostspeed.Scale(workload.calibration)

    def run_ops(self, ops, hard_stop):
        self.scale.mark()
        for op in ops:
            if self.workload.collect_between_ops:
                gc.collect()
            if self.recorder is not None:
                self.recorder.op_id = len(self.latencies)
            t0 = perf_counter()
            try:
                out = self.workload.run(op)
            except Exception as exc:  # a raising op is a failed op
                self.latencies.append(perf_counter() - t0)
                self.scale.add(self.latencies, len(self.latencies) - 1)
                self.failed += 1
                print(f"op raised: {op[0]}: {exc!r}", file=sys.stderr)
                continue
            self.latencies.append(perf_counter() - t0)
            self.scale.add(self.latencies, len(self.latencies) - 1)
            ok = self.workload.check(op, out)
            del out  # release the answer before the next op, so it adds to no peak
            if not ok:
                self.failed += 1
                print(f"wrong answer: {op[0]} {str(op[1])[:120]}", file=sys.stderr)
            if perf_counter() > hard_stop:
                break

    def finish(self):
        """Rescale the op times to the reference host speed."""
        self.scale.finish()


def cycle_schedule(once, cycles, seconds):
    """The ``once`` ops, then whole cycles in turn (at least one) until
    ``seconds`` have passed; also yields the time after which a run
    stops mid-cycle."""
    start = perf_counter()
    hard_stop = start + 2 * seconds + 30
    yield once, hard_stop
    k = 0
    while k == 0 or perf_counter() < start + seconds:
        yield cycles[k % len(cycles)], hard_stop
        k += 1
        if perf_counter() > hard_stop:
            return


def timed_phase(workload, once, cycles, seconds):
    phase = Phase(workload)
    for ops, hard_stop in cycle_schedule(once, cycles, seconds):
        phase.run_ops(ops, hard_stop)
        phase.cycles += ops is not once
    phase.finish()
    return phase


def probe_setup(workload, count):
    """Set-up times of ``count`` fresh processes."""
    probe = workloads.ROOT / "perfbench" / "setup_probe.py"

    def child():
        done = subprocess.run(
            [sys.executable, str(probe), workload.name], cwd=workloads.ROOT,
            capture_output=True, text=True, check=True, timeout=120,
        )
        return float(done.stdout.strip().splitlines()[-1])

    return [hostspeed.scaled(hostspeed.FLOOR, child) for _ in range(count)]


def spawn_floor_ms():
    """Median wall time of a `python -c pass` child: the interpreter floor."""
    return statistics.median(hostspeed.floor_probe() * 1000 for _ in range(SPAWN_PROBES))


def end_to_end(workload, phase, setup):
    lat = phase.latencies
    completed = len(lat) - phase.failed
    if workload.with_cli:
        peak_kib = workload.child_rss_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_ops_s": completed / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1000,
        "peak_rss_mib": peak_kib / 1024,
        "setup_s": statistics.median(setup),
    }


def traced(workload, once, cycles, seconds):
    """Each batch of ops twice, plainly and under span wrappers, in
    alternating order; returns both phases, the recorder and the
    per-layer metrics."""
    recorder = Recorder()
    plain, spanned = Phase(workload), Phase(workload, recorder)
    if isinstance(workload, workloads.CurveWords):
        workload.reset_counts()
    if workload.with_cli:
        workload.spans_path = OUT_DIR / f"child-spans-{workload.name}.json"
        workload.stdout_bytes = 0

    def run_spanned(ops, hard_stop):
        if workload.with_cli:  # each traced CLI child installs the wrappers
            workload.recorder = recorder
            try:
                spanned.run_ops(ops, hard_stop)
            finally:
                workload.recorder = None
            return
        restore = recorder.install(workload.lib)
        try:
            spanned.run_ops(ops, hard_stop)
        finally:
            restore()

    for k, (ops, hard_stop) in enumerate(cycle_schedule(once, cycles, seconds)):
        if k % 2:
            run_spanned(ops, hard_stop)
            plain.run_ops(ops, hard_stop)
        else:
            plain.run_ops(ops, hard_stop)
            run_spanned(ops, hard_stop)
        plain.cycles += ops is not once
    plain.finish()
    spanned.finish()
    metrics = recorder.layer_metrics()
    metrics["fgroup.certificate_reject_ratio"] = 0.0
    if isinstance(workload, workloads.CurveWords) and workload.neither:
        # counted over both passes, which see the same words
        metrics["fgroup.certificate_reject_ratio"] = workload.rejected / workload.neither
    metrics.update({"cli.spawn_ms": 0.0, "cli.import_ms": 0.0, "cli.stdout_bytes": 0})
    if workload.with_cli:
        metrics["cli.spawn_ms"] = spawn_floor_ms()
        metrics["cli.import_ms"] = statistics.median(workload.import_ms)
        metrics["cli.stdout_bytes"] = workload.stdout_bytes
    metrics["trace.overhead_ratio"] = sum(spanned.latencies) / sum(plain.latencies)
    return plain, spanned, recorder, metrics


def run(name, seed, seconds, trace, tiny=False):
    """Run one workload; returns (summary lines, result object)."""
    workload = workloads.WORKLOADS[name]()
    once, cycles = make_inputs(workload, seed, tiny)
    setup = [hostspeed.scaled(hostspeed.FLOOR, lambda: workloads.measure_setup(workload))]
    if not trace:
        setup += probe_setup(workload, SETUP_PROBES)
    if workload.with_cli:
        workload.child_rss_kib = 0
        workload.stdout_bytes = 0
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        plain, spanned, recorder, values = traced(workload, once, cycles, seconds)
        units = layer_metric_names()
        recorder.write(OUT_DIR / f"spans-{name}-seed{seed}.tsv.gz")
        phases = (plain, spanned)
    else:
        phase = timed_phase(workload, once, cycles, seconds=seconds)
        setup += probe_setup(workload, SETUP_PROBES)
        values = end_to_end(workload, phase, setup)
        units = END_TO_END_UNITS
        phases = (phase,)
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    lat = phases[0].latencies
    p90 = statistics.quantiles(lat, n=10)[-1]
    lines = [
        f"workload {name} seed {seed} trace {int(trace)}: "
        f"{len(lat)} ops in {phases[0].cycles} cycles, "
        f"{sum(1 for t in lat if t > p90)} beyond p90, fail_rate {failed / attempted}",
        f"  host ran {phases[0].scale.host_factor():.3f}x the reference time of the "
        f"calibration probe; op times and set-up are scaled to the reference",
    ]
    lines += [f"  {key} = {values[key]} {unit}" for key, unit in units.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    return lines, result


def main():
    parser = argparse.ArgumentParser(description="heegaard2 benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (workloads.SRC / "heegaard2" / "__init__.py").is_file():
        print(f"error: no heegaard2 sources under {workloads.SRC}", file=sys.stderr)
        return 2
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
