"""Host speed probe: a fixed piece of work timed between measured passes.

On a shared virtual machine the CPU speed a process gets drifts over tens of
seconds: identical work, interpreter-bound or numpy-bound alike, was seen to
take anywhere from 1.3 to 1.9 times its best time within a few minutes, and
the two kinds slowed together.  Raw wall times then spread by 15-30% from run
to run whatever the benchmark does.  Timing this probe next to each pass
measures the drift, and dividing a pass's wall time by the probe's slowdown
(probe time / PROBE_REF_S) reports it in seconds of a host running at the
reference speed.  The probe is part of the benchmark, not of heavyroots, so
a change to the program never moves it.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

# about the probe's median time on a 2-vCPU x86 VM, Python 3.11, by the number
# of threads that run it at once
PROBE_REF_S = {1: 0.02, 2: 0.037}
_A = np.linspace(0.0, 1.0, 300 * 300).reshape(300, 300)


def _once() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(150_000):  # interpreter-bound half
        s += i * i % 7
    for _ in range(5):  # numpy half: transcendental ufuncs over a dense array
        float((np.exp(_A) * np.cos(_A)).sum())
    return time.perf_counter() - t0


def _parallel(threads: int) -> float:
    """Wall time of the probe run by ``threads`` threads at once."""
    if threads == 1:
        return _once()
    ts = [threading.Thread(target=_once) for _ in range(threads)]
    t0 = time.perf_counter()
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    return time.perf_counter() - t0


def slowdown(threads: int = 1) -> float:
    """Current host slowdown for work spread over ``threads`` threads, as the
    workload's pool spreads it: median of three probe times / reference."""
    return statistics.median(_parallel(threads) for _ in range(3)) / PROBE_REF_S[threads]
