"""Frozen scalar oracle for Poisson mark sampling.

This is poisson_rectangle as it stood before block draws: one next_unit
per Knuth uniform and one uniform per coordinate, each a scalar draw_u64,
and a stable list sort by time.  The package's block sampler must give the
same marks and leave the stream at the same position.  Do not edit it: it
is the reference.
"""

import math

from fireline.rng import Mark

_MAX_STRIP_AREA = 64.0


def _poisson_count(stream, mean: float) -> int:
    # Knuth inversion: count uniforms until their product drops below e^-mean.
    threshold = math.exp(-mean)
    count = 0
    prod = stream.next_unit()
    while prod > threshold:
        count += 1
        prod *= stream.next_unit()
    return count


def reference_poisson_rectangle(stream, x_lo, x_hi, t_lo, t_hi):
    """Unit-intensity Poisson marks on [x_lo, x_hi] x [t_lo, t_hi], time-ordered."""
    if not x_hi > x_lo or not t_hi > t_lo:
        raise ValueError(
            f"degenerate rectangle [{x_lo}, {x_hi}] x [{t_lo}, {t_hi}]"
        )
    area = (x_hi - x_lo) * (t_hi - t_lo)
    n_strips = max(1, math.ceil(area / _MAX_STRIP_AREA))
    dt = (t_hi - t_lo) / n_strips
    marks = []
    for j in range(n_strips):
        lo = t_lo + j * dt
        hi = t_lo + (j + 1) * dt
        count = _poisson_count(stream, (x_hi - x_lo) * (hi - lo))
        for _ in range(count):
            x = stream.uniform(x_lo, x_hi)
            t = stream.uniform(lo, hi)
            marks.append(Mark(x, t))
    marks.sort(key=lambda m: m.t)
    return marks
