"""The fireline benchmark: four workloads timed end to end, and a traced run
that splits their time over the package's layers.  Run perfbench/run.py."""

import os
from time import perf_counter

WORKLOADS = ("propagation", "propagation_python", "coupled", "limit_tail")

# End-to-end times are reported at the speed of a host that runs the
# calibration loop in exactly this long (the 2-core reference box, quiet).
CALIBRATION_REF_S = 0.05


def rescale(seconds, calibration):
    """`seconds` measured while the calibration loop took `calibration`
    seconds (a median over the run), moved to the reference host.  The
    factor is the square root of the loop's slowdown: on the shared 2-core
    box the workloads' run medians followed the loop's with exponents from
    about 0.5 (the C-heavy propagation runs) to 1 (coupled), and over
    ten-seed sets of runs the square root kept the largest spread lowest."""
    return seconds * (CALIBRATION_REF_S / calibration) ** 0.5


def _loop():
    x, acc = 1, 0
    for _ in range(200_000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        acc ^= x >> 11


def calibration_seconds(processes=1):
    """Wall time of a fixed pure-Python integer loop, run at once in
    `processes` processes (this one and forked copies), the way the timed
    workload keeps that many processes busy.  Timing it around each
    operation measures how fast the shared host runs at that moment; its
    speed drifts by more than ten per cent over tens of seconds."""
    children = []
    for _ in range(processes - 1):
        pid = os.fork()
        if pid == 0:
            _loop()
            os._exit(0)
        children.append(pid)
    start = perf_counter()
    _loop()
    elapsed = perf_counter() - start
    for pid in children:
        os.waitpid(pid, 0)
    return elapsed
