"""Print one set-up time of a workload, measured in a fresh process.

    python3 bench/setup_probe.py <workload>

The clock starts just before `import ptwell` and stops when the workload's
warm-up is done, so interpreter start-up is not part of it.  Prints the
seconds and the reference-loop times just before and after, which
bench/run.py uses to scale it (see refclock).  Run with src/ on PYTHONPATH.
"""
import sys
import time

import refclock
import workloads

if __name__ == "__main__":
    name = sys.argv[1]
    before = refclock.reference()
    t0 = time.perf_counter()
    workloads.warm_up(name, workloads.load(name))
    seconds = time.perf_counter() - t0
    print(seconds, before, refclock.reference())
