"""Start benchmark commands one at a time and report what each cost.

Reads one JSON request a line on standard input::

    {"cmd": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS}

runs the command to its end (killing it after the timeout) and answers
one JSON line::

    {"wall_s": ..., "cpu_s": ..., "maxrss_kb": ..., "rc": ...,
     "ref_units": ..., "ref_cpu_s": ...}

Linux reports a child's max-RSS as at least its parent's RSS high-water
mark at the moment the child was started.  ``run.py`` holds
large outputs while it checks them, so it starts its commands through
this small process, whose own high-water mark stays below that of any
command it runs.

The launcher pins itself, and so every command, to one CPU, and runs a
reference loop in a thread on that CPU for as long as it lives: one
fixed unit of pure-Python work, then a pause of ``PAUSE_S``.  The host
this runs on changes a CPU's speed by up to about 1.8x for tens of
seconds at a time, independently on each CPU, and a command's time
follows.  The reference units that complete while a command runs share
its CPU at the same moments, so ``ref_cpu_s / ref_units`` is the cost
of one unit at the speed the command saw, and ``run.py`` scales the
command's CPU time by it.
"""

import json
import os
import subprocess
import sys
import threading
import time
from itertools import combinations

#: Pause between reference units: the loop takes about a tenth of the CPU.
PAUSE_S = 0.01


def reference_unit() -> int:
    """A fixed amount of pure-Python work (0.7 to 1.6 ms on a 2.0 GHz
    Xeon vCPU): arrangements of two three-label blocks out of eight
    labels, the recursion shape of the forest sweep."""
    count = 0

    def rec(remaining: frozenset, depth: int) -> None:
        nonlocal count
        if depth == 2:
            count += 1
            return
        for block in combinations(sorted(remaining), 3):
            rest = remaining.difference(block)
            for _ in (0, 1):
                rec(rest, depth + 1)

    rec(frozenset(range(8)), 0)
    return count


class Reference(threading.Thread):
    """The reference loop; ``totals`` is (units done, their CPU seconds)."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.totals = (0, 0.0)
        self.stopping = threading.Event()

    def run(self) -> None:
        units, cpu = 0, 0.0
        while not self.stopping.is_set():
            start = time.thread_time()
            reference_unit()
            cpu += time.thread_time() - start
            units += 1
            self.totals = (units, cpu)  # one assignment: read whole or not at all
            self.stopping.wait(PAUSE_S)


def main() -> int:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    reference = Reference()
    reference.start()
    try:
        for line in sys.stdin:
            request = json.loads(line)
            with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
                units0, cpu0 = reference.totals
                t0 = time.perf_counter()
                proc = subprocess.Popen(request["cmd"], stdout=out, stderr=err)
                timer = threading.Timer(request["timeout"], proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    timer.cancel()
                wall = time.perf_counter() - t0
                units1, cpu1 = reference.totals
            proc.returncode = os.waitstatus_to_exitcode(status)
            reply = {
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_kb": usage.ru_maxrss,
                "rc": proc.returncode,
                "ref_units": units1 - units0,
                "ref_cpu_s": cpu1 - cpu0,
            }
            print(json.dumps(reply), flush=True)
    finally:
        reference.stopping.set()
        reference.join()
    return 0


if __name__ == "__main__":
    sys.exit(main())
