"""Reference clock: wall time converted to a fixed CPU speed.

On a shared host the CPU this process runs on switches between speeds
within a second, because other tenants share the physical core.  A pass
of the same jobs takes 4 s in one stretch and 6.3 s in the next, while
the process's CPU time stays 0.98 of its wall time, and every kind of
job (interpreted Python or LAPACK) slows by the same factor.  Such a
slowdown can therefore be measured next to the jobs and divided out.

`RefClock.start()` pins the process to one CPU and starts a thread that
every INTERVAL_S of wall time times one run of a fixed pure-Python
kernel.  On the one CPU the kernel runs while the workload waits, in
Python code (for the interpreter lock) and in native code (which
releases the lock, as LAPACK calls do) alike.  `ref(t)` maps a
`time.perf_counter()` reading to reference seconds: the time before
each kernel run counts at the speed that run measured, and the kernel
runs themselves do not count.  A duration is `ref(t1) - ref(t0)`.

A run taking REF_KERNEL_S is speed 1.  The kernel slows somewhat more
than the workloads do: over passes slowed 1.1x to 1.9x, pass time went
as the kernel's slowdown to the power 0.88, on catalog_sweep and
large_modular alike.  The speed is therefore (REF_KERNEL_S / kernel
time) ** SPEED_EXPONENT; with 1 instead, the normalised pass times of
catalog_sweep spread twice as far.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from fractions import Fraction
from typing import List

INTERVAL_S = 0.02
# The kernel's time inside a workload in the fast phase of a 2-vCPU
# Intel Xeon host, so reference seconds read as seconds at that speed.
REF_KERNEL_S = 3.0e-4
SPEED_EXPONENT = 0.88


def kernel() -> Fraction:
    s = Fraction(0)
    d = {}
    for i in range(1, 120):
        s += Fraction(1, i)
        d[i % 17] = d.get(i % 17, 0) + i
    return s


class RefClock:
    def __init__(self) -> None:
        self.origin = 0.0
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._ref: List[float] = []  # reference time at each kernel start
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="refclock", daemon=True)

    def _run(self) -> None:
        # A sample is complete once its duration is appended; readers
        # look at the first len(durations) samples only.
        while not self._stop.wait(INTERVAL_S):
            t0 = time.perf_counter()
            kernel()
            self.starts.append(t0)
            self.durations.append(time.perf_counter() - t0)

    def start(self) -> None:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.origin = time.perf_counter()
        self._thread.start()

    def settle(self) -> None:
        """Wait for a sample that starts after this call, so that every
        earlier reading is timed at a measured speed."""
        t = time.perf_counter()
        while self._thread.is_alive():
            n = len(self.durations)
            if n and self.starts[n - 1] > t:
                break
            time.sleep(INTERVAL_S / 4)

    def stop(self) -> None:
        self.settle()
        self._stop.set()
        self._thread.join()

    def kernel_s(self) -> float:
        """Median kernel time of the samples taken so far."""
        d = sorted(self.durations)
        return d[len(d) // 2] if d else float("nan")

    @staticmethod
    def _speed(kernel_s: float) -> float:
        return (REF_KERNEL_S / kernel_s) ** SPEED_EXPONENT

    def ref(self, t: float) -> float:
        """Reference seconds from start() to perf_counter reading t."""
        starts, durs, refs = self.starts, self.durations, self._ref
        n = len(durs)
        if not n:
            raise RuntimeError("reference clock has no samples")
        while len(refs) < n:  # samples arrive in time order
            k = len(refs)
            prev_end = starts[k - 1] + durs[k - 1] if k else self.origin
            base = refs[k - 1] if k else 0.0
            refs.append(base + (starts[k] - prev_end) * self._speed(durs[k]))
        k = bisect.bisect_right(starts, t, 0, n)  # samples begun at or before t
        if k and t < starts[k - 1] + durs[k - 1]:
            return refs[k - 1]  # inside a kernel run: the clock stands still
        prev_end = starts[k - 1] + durs[k - 1] if k else self.origin
        speed = self._speed(durs[min(k, n - 1)])
        return (refs[k - 1] if k else 0.0) + (t - prev_end) * speed
