"""Machine-speed calibration: times in the end-to-end metrics are reference seconds.

The benchmark shares its CPUs with other tenants, whose load changes the
speed of the same Python code by up to 2x for seconds at a time: on a
2-CPU Xeon VM, oracle-sweep rounds ran at 9k to 26k ops/s within 100 s.
A fixed kernel that does not call genfrac is therefore timed before and
after each round, and the round's raw seconds are scaled by CAL_REF_S over
the mean of those two kernel times.  Over that 100 s the quartile spread
of 200-round medians fell from 0.49 raw to 0.02 scaled.  A change to
genfrac moves the raw and the scaled figures alike; only the machine's
speed drops out.  run.py prints the raw throughput beside the scaled one.
"""

import math
import time

import numpy as np

CAL_REF_S = 1.5e-3  # the kernel on an idle core of that VM, Python 3.11, numpy 2.4
_X = np.linspace(0.0, 1.0, 128)


def calibrate() -> float:
    """Seconds the kernel takes now: interpreted float arithmetic and
    small-array numpy calls, the mix genfrac's own time is made of."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(4500):
        acc += math.sqrt(i + acc * 1e-9)
    for i in range(450):
        acc += float(np.dot(np.exp(-_X * (i * 1e-3)), _X))
    return time.perf_counter() - start


def speed(cal_before: float, cal_after: float) -> float:
    """Reference seconds per raw second between two calibrations."""
    return CAL_REF_S / (0.5 * (cal_before + cal_after))
