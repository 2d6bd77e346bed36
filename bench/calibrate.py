"""Host-speed calibration: a fixed piece of interpreter work, timed.

The hosts this benchmark runs on change speed for seconds at a time (a busy
sibling hardware thread, frequency steps): identical work measured in two
consecutive ten-second runs differed by up to 1.4x, which no estimator inside
one run can remove.  A fixed arithmetic loop run immediately before and after
a chunk of measured work sees the same host; dividing the chunk's wall time
by the loop's slowdown removed about half of the run-to-run spread (8-12 %
raw, 3-6 % calibrated, same code, same inputs).  An arithmetic loop tracked
the workloads better than kernels that chase pointers or allocate, which
were noisier than the work they were meant to calibrate.
"""

from __future__ import annotations

import statistics
import time

#: Iterations of one timing of the loop.
ITERATIONS = 80_000
#: What one timing takes on the defining host when it is undisturbed; a
#: factor of 1.0 means "as fast as that".
NOMINAL_S = 0.0037


def _loop() -> float:
    begin = time.perf_counter()
    total = 0
    for value in range(ITERATIONS):
        total += value * value
    return time.perf_counter() - begin


def host_factor() -> float:
    """How slow the host is right now (1.0 = nominal, 1.3 = 30 % slower).

    The median of three timings, so one preemption does not count.
    """
    return statistics.median(_loop() for _ in range(3)) / NOMINAL_S
