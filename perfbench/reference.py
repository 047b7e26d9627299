"""The host reference kernel, which shows the host's speed during a run.

The host this benchmark was built on changes speed by up to 30 % within
seconds and by up to 40 % between runs an hour apart, for reasons outside
the benchmark (other tenants); CPU time follows wall time, so the process is
not waiting but running slower. The reference kernel is a fixed piece of
pure-Python work that does not use the program. The worker times it between
jobs and reports its median, so a change in run_s that the kernel shares can
be traced to the host rather than to the program. Times are not rescaled by
it: single timings jitter by tens of percent, and on some workloads the
rescaled times spread more than the raw ones.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction


def reference_kernel() -> float:
    """Seconds for one run of the kernel, about 70 ms on a 2 vCPU Intel Xeon
    container: tuple lookups, small ints and Fractions, like the program's
    hot loops. The cyclic garbage collector is off while it runs, so the
    objects a job left alive do not change its time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, s, t = Fraction(0), 0, tuple(range(64))
        for i in range(20000):
            acc += Fraction(i % 7, 1 + i % 5)
            s += t[i % 64] * t[(i * 7) % 64]
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
