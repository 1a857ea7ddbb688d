"""Set-up probe: ``setup_probe.py WORKLOAD``.

A fresh process that imports heegaard2 and runs the workload's warm-up
pass, then prints the seconds that took.  The benchmark starts several
and reports the median with its own set-up time.
"""

import sys

import workloads

if __name__ == "__main__":
    workload = workloads.WORKLOADS[sys.argv[1]]()
    print(repr(workloads.measure_setup(workload)))
