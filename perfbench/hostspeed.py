"""Wall times rescaled to a fixed host speed.

The benchmark runs on a shared host whose speed changes from one second to
the next and drifts in phases of minutes: the same cloudinst call takes up
to twice as long in a slow phase as in a fast one.  A run of half a minute
therefore reads fast or slow as a whole, and no median within a run
averages that out.

Each timed operation is bracketed by calibrations: fixed interpreter work
that does not touch the program.  The operation's wall time is scaled by
REFERENCE_S over the mean of the two calibration times: the result is the
time the operation would take on a host where the calibration takes
REFERENCE_S.  A change that makes the program slower reads slower by the
same share, because the calibration does not change with the program.

This module imports nothing outside the standard library, so it can time
the import of cloudinst (and numpy) too.
"""

from __future__ import annotations

import time
from statistics import median

# Time of one calibration chunk at the reference speed, close to the
# typical time on the 2-vCPU host the benchmark was tuned on.
REFERENCE_S = 0.015
CHUNKS = 9
LOOP_ITERATIONS = 100_000
# Text like the program's scene files; parsing it allocates as loading one does.
_rows = [(i * 7919 % 10007, i * 104729 % 10009, i * 1299709 % 10037) for i in range(2_000)]
TEXT = "\n".join(f"{a / 997:.6f} {b / 991:.6f} {c / 983:.6f} {a % 256} {b % 256} {c % 256} "
                  f"{a % 20} {b % 60}" for a, b, c in _rows)


def calibration_chunk() -> None:
    """Fixed interpreter work: an arithmetic loop, then parsing and sorting
    TEXT.  The first tracks the interpreter's speed, the second also the
    cache and allocator, which a slow phase of the host slows more."""
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i
    rows = []
    for line in TEXT.split("\n"):
        t = line.split()
        rows.append((float(t[0]), float(t[1]), float(t[2]), *map(int, t[3:])))
    rows.sort()


def calibrate() -> float:
    """Median time of CHUNKS calibration chunks."""
    times = []
    for _ in range(CHUNKS):
        t0 = time.perf_counter()
        calibration_chunk()
        times.append(time.perf_counter() - t0)
    return median(times)


class HostSpeed:
    """Times operations and rescales them to the reference speed.

    Consecutive operations share a calibration: the one after an operation
    is the one before the next.
    """

    def __init__(self):
        self.calibrations = [calibrate()]

    def timed(self, fn, *args):
        """Run ``fn(*args)``; return (its result, wall seconds, scaled seconds)."""
        before = self.calibrations[-1]
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
        after = calibrate()
        self.calibrations.append(after)
        return out, wall, wall * REFERENCE_S * 2.0 / (before + after)
