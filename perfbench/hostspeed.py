"""Host-speed calibration.

The benchmark runs on a few cores of a shared host whose speed for the
same work drifts by up to 1.5x, in spells that last from under a second
to minutes.  No statistic taken inside one run removes a drift that
outlasts it, so the benchmark times a fixed, benchmark-owned probe next
to the ops, about every ``Calibration.every_s`` seconds, and scales each
op time by the probe's reference time over the median of the probes
around it.  Timings are thus reported at the host speed on which the
probe takes its reference time.  The program under test never runs
inside a probe, so a change to the program cannot move the scale.

Library workloads probe with ``kernel``, a loop doing the interpreter
work the library does (string slicing, concatenation and comparison,
dict lookups, integer arithmetic, calls) that allocates no object the
garbage collector tracks.  cli-mix, and set-up in every workload,
probe with a ``python -c pass`` child, whose start-up drifts with the
host the way a CLI child's start-up and an import do.
"""

import statistics
import subprocess
import sys
from time import perf_counter

# The probes' median times on the 2-vCPU host of perfbench/baseline.json
KERNEL_REF_S = 0.0012
FLOOR_REF_S = 0.055
WINDOW = 2  # probes on each side of a stretch that set its scale
_WORD = "xyXYxxyYXyxYyyXx" * 4
_SEEN = {}  # reused, so the loop allocates nothing the collector tracks


def _step(word, k):
    return word[k:] + word[:k]


def kernel():
    seen = _SEEN
    seen.clear()
    acc = 0
    for i in range(1000):
        r = _step(_WORD, i % 64)
        key = r[:8]
        seen[key] = seen.get(key, 0) + 1
        acc += (r < _WORD) + r.count("xy") + (i * i) % 7
    return acc + len(seen)


def kernel_probe():
    """Seconds the loop takes now: the median of three runs."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


def floor_probe():
    """Seconds a ``python -c pass`` child takes: the interpreter floor."""
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "pass"], check=True, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return perf_counter() - t0


class Calibration:
    """A probe (a callable returning seconds), its time at the reference
    speed, and the longest stretch of ops between two probes."""

    def __init__(self, probe, ref_s, every_s):
        self.probe = probe
        self.ref_s = ref_s
        self.every_s = every_s


KERNEL = Calibration(kernel_probe, KERNEL_REF_S, every_s=0.1)
FLOOR = Calibration(floor_probe, FLOOR_REF_S, every_s=0.5)


class Scale:
    """Collects op times with the probes taken between them, and rescales
    them to the reference speed once the phase is over."""

    def __init__(self, calibration):
        self.calibration = calibration
        self.probes = []
        self.pending = []  # (list, index, probes taken before it)
        self.last = None

    def mark(self):
        """Probe if no probe was taken in the last ``every_s`` seconds."""
        if self.last is None or perf_counter() - self.last >= self.calibration.every_s:
            self.probes.append(self.calibration.probe())
            self.last = perf_counter()

    def add(self, times, index):
        """Register ``times[index]``, an op time just measured."""
        self.pending.append((times, index, len(self.probes)))
        self.mark()

    def finish(self):
        """Probe once more and rescale every registered op time by the
        reference over the median of the ``WINDOW`` probes on each side."""
        self.probes.append(self.calibration.probe())
        scales = {}
        for times, index, k in self.pending:
            if k not in scales:
                around = self.probes[max(0, k - WINDOW):k + WINDOW]
                scales[k] = self.calibration.ref_s / statistics.median(around)
            times[index] *= scales[k]
        self.pending.clear()

    def host_factor(self):
        """How much slower than the reference the host ran: the median
        probe time over the reference."""
        return statistics.median(self.probes) / self.calibration.ref_s


def scaled(calibration, measure):
    """Run ``measure()``, which returns seconds, between two probes and
    return those seconds at the reference speed."""
    before = calibration.probe()
    seconds = measure()
    return seconds * 2 * calibration.ref_s / (before + calibration.probe())


for _ in range(3):  # let the interpreter specialise the loop before it is timed
    kernel()
