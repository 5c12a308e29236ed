"""Counter-based random number streams for reproducible simulation.

Every random draw in this package is a pure function of a 128-bit key
(master_seed, stream_id) and a 256-bit counter, evaluated with the
Philox4x64-10 block cipher.  Streams therefore need no coordination: the
engines derive per-site clock draws from (purpose, site, index) counters,
experiments derive per-run streams from (seed, run_index), and replaying
any component in any order reproduces identical numbers.

There is no global generator; every consumer receives an RngStream.
"""

import math
from typing import List, NamedTuple

_MASK64 = (1 << 64) - 1
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_INV53 = 1.0 / 9007199254740992.0  # 2^-53

# Counter word 0 tags the draw family; the compiled kernel uses the same tags.
PURPOSE_STREAM = 0
PURPOSE_SEED = 1
PURPOSE_MATCH = 2
PURPOSE_PROPAGATE = 3

# Strips wider than this are split before Knuth inversion so the uniform
# product never underflows.
_MAX_STRIP_AREA = 64.0


def philox4x64(c0: int, c1: int, c2: int, c3: int, k0: int, k1: int):
    """One Philox4x64-10 block: four counter words, two key words, four outputs."""
    for _ in range(10):
        p0 = c0 * _M0
        p1 = c2 * _M1
        n0 = (p1 >> 64) ^ c1 ^ k0
        n1 = p1 & _MASK64
        n2 = (p0 >> 64) ^ c3 ^ k1
        n3 = p0 & _MASK64
        c0, c1, c2, c3 = n0, n1, n2, n3
        k0 = (k0 + _W0) & _MASK64
        k1 = (k1 + _W1) & _MASK64
    return c0, c1, c2, c3


def draw_u64(master_seed: int, stream_id: int, purpose: int, site: int, index: int) -> int:
    """The uint64 at a fixed counter position; order of evaluation is irrelevant."""
    return philox4x64(purpose, site, index, 0, master_seed, stream_id)[0]


def u64_to_unit(x: int) -> float:
    """Map a uint64 to (0, 1]; never returns 0.0 so log() is always finite."""
    return ((x >> 11) + 1) * _INV53


def u64_to_frac(x: int) -> float:
    """Map a uint64 to [0, 1)."""
    return (x >> 11) * _INV53


class Mark(NamedTuple):
    """A space-time ignition point; x is macroscopic position, t >= 0 macroscopic time."""

    x: float
    t: float


MarkSet = List[Mark]


class RngStream:
    """A value-like stream identified by (master_seed, stream_id).

    Draws advance an internal counter, so a single stream must not be
    sampled concurrently.  Two streams with different ids never share a
    prefix.  The discrete engines use the stream's key with their own
    per-site counters; do not share one (master_seed, stream_id) pair
    between an engine and direct sampling.
    """

    __slots__ = ("master_seed", "stream_id", "_index")

    def __init__(self, master_seed: int, stream_id: int):
        if not 0 <= master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 bits")
        if not 0 <= stream_id < 2**64:
            raise ValueError("stream_id must fit in 64 bits")
        self.master_seed = master_seed
        self.stream_id = stream_id
        self._index = 0

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_id={self.stream_id})"

    def next_u64(self) -> int:
        x = draw_u64(self.master_seed, self.stream_id, PURPOSE_STREAM, 0, self._index)
        self._index += 1
        return x

    def next_unit(self) -> float:
        """Uniform on (0, 1]."""
        return u64_to_unit(self.next_u64())

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform on [lo, hi)."""
        return lo + (hi - lo) * u64_to_frac(self.next_u64())


def exp_sample(stream, rate: float) -> float:
    """Exponential variate by inversion: -log(U)/rate with U uniform on (0, 1]."""
    if not rate > 0.0:
        raise ValueError(f"rate must be positive, got {rate}")
    return -math.log(stream.next_unit()) / rate


def _poisson_count(stream, mean: float) -> int:
    # Knuth inversion: count uniforms until their product drops below e^-mean.
    threshold = math.exp(-mean)
    count = 0
    prod = stream.next_unit()
    while prod > threshold:
        count += 1
        prod *= stream.next_unit()
    return count


def poisson_rectangle(stream, x_lo: float, x_hi: float, t_lo: float, t_hi: float) -> MarkSet:
    """Unit-intensity Poisson marks on [x_lo, x_hi] x [t_lo, t_hi], time-ordered.

    The rectangle is cut into time strips of area <= 64 and each strip is
    filled independently (superposition keeps the law exact while the
    count inversion stays in safe floating-point range).
    """
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
