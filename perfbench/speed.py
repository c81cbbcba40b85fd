"""Sampling the machine's speed while the workload runs.

The benchmark runs on shared cores whose speed drifts by tens of percent
over seconds to minutes, in CPU time as much as in wall time: the same pass
took from 2.4 s to 3.4 s of CPU within one run of ``trace_long``. A pass
time alone therefore moves with the machine, not only with the program.

``SpeedProbe`` samples that speed evenly over the timed passes: after
every ``PERIOD_S`` of wall time a ``SIGALRM`` handler runs a fixed
pure-Python kernel and times it. A pass's time without those kernel runs,
divided by the kernel's slow-down against ``REF_KERNEL_S``, is the pass
time at reference speed. Set-up, too short to carry enough samples, is
rescaled by samples taken in the launching process between set-ups. The
kernel is the benchmark's own code, so a change to the library moves the
pass time and not the yardstick.
"""

from __future__ import annotations

import math
import signal
import time

KERNEL_ITERATIONS = 8000
PERIOD_S = 0.05
# Median time of one kernel run on the machine the benchmark was written on
# (2 shared vCPUs of an Intel Xeon, Python 3.11.7): the speed that
# norm_wall_s refers to.
REF_KERNEL_S = 0.0047

_SLOTS = [0.0] * 64


def _frac(x: float) -> float:
    return x - math.floor(x)


def kernel(n: int = KERNEL_ITERATIONS) -> float:
    """Float arithmetic, calls and list accesses, as the library's stepping
    loops do. It allocates nothing the garbage collector tracks, so no
    collection of the library's objects falls into it."""
    slots = _SLOTS
    s, x, y = 0.0, 0.1, 0.2
    for i in range(n):
        x = _frac(x + 0.6180339887498949)
        y = _frac(y + x * 0.4142135623730951)
        j = i & 63
        slots[j] = math.hypot(x - 0.5, y - 0.5)
        s += slots[j] - slots[j - 1]
    return s


class SpeedProbe:
    """While active, runs ``kernel`` after every ``PERIOD_S`` of the
    workload's wall time and keeps the number of runs and the seconds spent
    in them, handler included. The timer is re-armed when a run ends, so
    runs never overlap however slow the machine gets."""

    def __init__(self):
        self.runs = 0
        self.seconds = 0.0
        self.active = False

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        self.seconds += time.perf_counter() - t0
        self.runs += 1
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        self.active = True
        self._tick()  # so that even a run shorter than one period has a sample
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self, runs: int) -> None:
        """Take ``runs`` samples now, one after another."""
        for _ in range(runs):
            self._tick()

    def mark(self) -> tuple[int, float]:
        return self.runs, self.seconds

    @staticmethod
    def slowdown(runs: int, seconds: float) -> float | None:
        """Kernel time over its reference time; None without a sample."""
        return seconds / (runs * REF_KERNEL_S) if runs else None
