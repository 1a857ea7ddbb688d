"""Record a baseline: ``python3 perfbench/baseline.py [FIRST_SEED [RUNS]]``.

Runs every workload untraced once per seed (default seeds 101-110) for
BENCHMARK.json's run_seconds, one run at a time, and writes
perfbench/baseline.json: per workload and end-to-end metric the median
and quartiles over the runs, with the Python version and CPU count.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(results, run_seconds, seeds):
    """``results`` maps a workload to its runs' result objects."""
    out = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": run_seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for name, runs in results.items():
        metrics = {}
        for key in runs[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            metrics[key] = {
                "unit": runs[0]["metrics"][key]["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "iqr_over_median": (q3 - q1) / statistics.median(values),
            }
        out["workloads"][name] = {
            "runs": len(runs),
            "ops_attempted_median": statistics.median(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    return out


def main():
    first = int(sys.argv[1]) if len(sys.argv) > 1 else 101
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(range(first, first + count))
    results = {}
    for workload in spec["workloads"]:
        for seed in seeds:
            done = subprocess.run(
                [*spec["command"], "--workload", workload["name"], "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
            )
            results.setdefault(workload["name"], []).append(
                json.loads(done.stdout.strip().splitlines()[-1])
            )
    summary = summarize(results, spec["run_seconds"], seeds)
    (HERE / "baseline.json").write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
