"""Machine-speed calibration.

On a shared machine the speed of a core drifts by up to a factor of two, in
phases from a fraction of a second to tens of seconds, as other tenants
load the host.  A fixed loop timed right before and right after a
measurement tells how fast the core ran meanwhile; scaling the measurement
by REFERENCE_S / (loop time) gives its time at a fixed reference speed.

The loop is a big-integer halving recurrence of the same kind as the
program's hot loops, but it is the benchmark's own code, so a change to the
program never changes the yardstick.  On a 2-vCPU Xeon virtual machine, the
medians of 54 ms work items over 10-25 s windows spread by 0.22-0.26
(interquartile range over median) raw and by 0.01-0.02 scaled; over ten
28-second runs per workload, the scaled wall_s spread by 0.03-0.05.
"""

from __future__ import annotations

import os
import time

REFERENCE_S = 0.008  # the loop's time on an unloaded core of that machine
_COEFFS = (1, 9, 36, 84, 126)
_LENGTH = 6000


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    t0 = time.perf_counter()
    v = [1]
    while len(v) < _LENGTH:
        i = len(v)
        h = i >> 1
        s = sum(c * v[h - j] for j, c in enumerate(_COEFFS) if h >= j)
        v.append(-s if i & 1 else s)
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, from the loop times around it."""
    return seconds * REFERENCE_S / ((before + after) / 2)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the calibration
    runs on the core that ran the measurement."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
