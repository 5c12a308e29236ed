"""Frozen reference for the trajectory metrics: the plain sequential loops
that scales.d_T and scales.delta_T replaced with array arithmetic.

They add the terms one grid point at a time, in the same order as the array
versions, so both must agree bit for bit.  Kept as a test oracle; do not
optimize.
"""

from fireline.scales import delta_interval


def reference_delta_T(t1, t2):
    times = t1.times
    total = 0.0
    for k in range(len(times) - 1):
        total += delta_interval(t1.intervals[k], t2.intervals[k]) * (times[k + 1] - times[k])
    return total


def reference_d_T(t1, t2):
    times = t1.times
    total = 0.0
    for k in range(len(times) - 1):
        step = times[k + 1] - times[k]
        total += abs(t1.values[k] - t2.values[k]) * step
        total += delta_interval(t1.intervals[k], t2.intervals[k]) * step
    return total
