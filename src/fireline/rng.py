"""Counter-based random number streams for reproducible simulation.

Every random draw in this package is a pure function of a 128-bit key
(master_seed, stream_id) and a 256-bit counter, evaluated with the
Philox4x64-10 block cipher.  Streams therefore need no coordination: the
engines derive per-site clock draws from (purpose, site, index) counters,
experiments derive per-run streams from (seed, run_index), and replaying
any component in any order reproduces identical numbers.

Draws may be taken in blocks.  draw_block gives the words of consecutive
counter indices in one call, through the compiled library's loop when it
loads and through draw_rows otherwise, and a block equals the scalar draws
word for word.  draw_rows gives many such blocks, for different sites and
first indices, in one numpy pass that never calls the compiled library;
the Python engine core's seed walks read their words from it.  The
samplers that draw in blocks (poisson_rectangle, exp_samples) return the
values, and leave the stream at the position, that drawing one word at a
time would.

There is no global generator; every consumer receives an RngStream.
"""

import math
from typing import List, NamedTuple

import numpy as np

from ._clib import MEMORY_CAP_SITES, ResourceLimitError
from ._clib import lib as _lib

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


def draw_block(master_seed: int, stream_id: int, purpose: int, site: int, first: int,
               count: int) -> np.ndarray:
    """The uint64 words draw_u64 gives at indices first, ..., first + count - 1."""
    if not 0 <= first <= first + count <= 2**64:
        raise ValueError(f"block [{first}, {first + count}) leaves the 64-bit counter range")
    if _lib is None:
        return draw_rows(master_seed, stream_id, purpose, [site], [first], count)[0]
    out = np.empty(count, dtype=np.uint64)
    _lib.fl_draw_block(master_seed, stream_id, purpose, site, first, count, out.ctypes.data)
    return out


_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(a, m):
    """The high and low words of the 128-bit products a * m, for a uint64
    array a and a constant m, from 32-bit halves whose products fit in 64
    bits.  Every scalar is an np.uint64, so numpy < 2 does not upcast."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _LO32, a >> _SHIFT32
    t = a_lo * m_lo
    u = a_hi * m_lo + (t >> _SHIFT32)
    v = a_lo * m_hi + (u & _LO32)
    return a_hi * m_hi + (u >> _SHIFT32) + (v >> _SHIFT32), a * np.uint64(m)


def draw_rows(master_seed: int, stream_id: int, purpose: int, sites, firsts,
              count: int) -> np.ndarray:
    """The words draw_u64 gives at (site, first + j) for j < count, a row
    per pair of the int sequences sites and firsts: philox4x64 on numpy
    arrays, all rows in one pass.  A pass costs about the same whatever its
    width up to some thousands of words, so it pays only when it draws many
    rows at once."""
    if len(firsts) and not 0 <= min(firsts) <= max(firsts) <= 2**64 - count:
        raise ValueError(f"rows of {count} words from {min(firsts)} to {max(firsts)} "
                         "leave the 64-bit counter range")
    firsts = np.asarray(firsts, dtype=np.uint64)
    sites = np.asarray(sites, dtype=np.uint64)
    shape = (len(firsts), count)
    c0 = np.full(shape, purpose, dtype=np.uint64)
    c1 = sites[:, None]
    c2 = firsts[:, None] + np.arange(count, dtype=np.uint64)
    c3 = np.zeros(shape, dtype=np.uint64)
    k0, k1 = master_seed, stream_id
    for _ in range(9):
        hi0, lo0 = _mulhilo(c0, _M0)
        hi1, lo1 = _mulhilo(c2, _M1)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        k0 = (k0 + _W0) & _MASK64
        k1 = (k1 + _W1) & _MASK64
    # the tenth round's word 0 reads only c1, c2 and k0
    return _mulhilo(c2, _M1)[0] ^ c1 ^ np.uint64(k0)


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

    def words(self, count: int, offset: int = 0) -> np.ndarray:
        """The count words from offset past the current position, without
        advancing the stream."""
        return draw_block(self.master_seed, self.stream_id, PURPOSE_STREAM, 0,
                          self._index + offset, count)

    def next_units(self, count: int) -> np.ndarray:
        """The next count uniforms on (0, 1], as count next_unit calls give them."""
        units = _units(self.words(count))
        self._index += count
        return units


def _units(words):
    """u64_to_unit of each word: exact, since (x >> 11) + 1 <= 2^53."""
    return ((words >> 11) + 1) * _INV53


def exp_sample(stream, rate: float) -> float:
    """Exponential variate by inversion: -log(U)/rate with U uniform on (0, 1]."""
    if not 0.0 < rate < math.inf:
        raise ValueError(f"rate must be positive and finite, got {rate}")
    return -math.log(stream.next_unit()) / rate


def exp_samples(stream, rate: float, count: int) -> List[float]:
    """count exp_sample draws in sequence, their uniforms drawn as one block."""
    if not 0.0 < rate < math.inf:
        raise ValueError(f"rate must be positive and finite, got {rate}")
    # math.log, as in exp_sample: np.log differs from it in the last bit on
    # some draws
    return [-math.log(u) / rate for u in stream.next_units(count).tolist()]


def _strip_marks(stream, x_lo, x_hi, lo, hi):
    """The x and t arrays of one strip's marks, in draw order.

    The draws are those of the scalar loop: Knuth uniforms until their
    product drops to e^-mean (the count is the number of products above
    it), then x and t for each mark.
    """
    mean = (x_hi - x_lo) * (hi - lo)
    threshold = math.exp(-mean)
    # about two standard deviations past the mean count: one block is
    # usually enough, and few drawn words go unused on the scalar fallback
    size = int(mean + 2.0 * math.sqrt(mean)) + 8
    while True:
        words = stream.words(size)
        # cumprod multiplies in sequence, so these are the scalar products
        below = np.cumprod(_units(words)) <= threshold
        if below[-1]:
            break
        size *= 2
    count = int(below.argmax())
    # the 2 * count coordinate words follow the count + 1 uniforms; the
    # block already holds the first of them
    coords = words[count + 1 : 3 * count + 1]
    if len(coords) < 2 * count:
        coords = np.concatenate((coords, stream.words(3 * count + 1 - size, size)))
    stream._index += 3 * count + 1
    frac = (coords >> 11) * _INV53
    return x_lo + (x_hi - x_lo) * frac[0::2], lo + (hi - lo) * frac[1::2]


def poisson_rectangle(stream, x_lo: float, x_hi: float, t_lo: float, t_hi: float) -> MarkSet:
    """Unit-intensity Poisson marks on [x_lo, x_hi] x [t_lo, t_hi], time-ordered.

    The rectangle is cut into time strips of area <= 64 and each strip is
    filled independently (superposition keeps the law exact while the
    count inversion stays in safe floating-point range).  The draws come in
    blocks but equal, with the stream's final position, those of drawing
    each uniform in turn.  Raises ValueError for a degenerate or non-finite
    rectangle, and ResourceLimitError, before any draw, when the expected
    mark count (the area) exceeds MEMORY_CAP_SITES.
    """
    if not all(map(math.isfinite, (x_lo, x_hi, t_lo, t_hi))):
        raise ValueError(f"non-finite rectangle [{x_lo}, {x_hi}] x [{t_lo}, {t_hi}]")
    if not x_hi > x_lo or not t_hi > t_lo:
        raise ValueError(
            f"degenerate rectangle [{x_lo}, {x_hi}] x [{t_lo}, {t_hi}]"
        )
    area = (x_hi - x_lo) * (t_hi - t_lo)
    if area > MEMORY_CAP_SITES:
        raise ResourceLimitError(
            f"rectangle of area {area:g} expects more marks than the cap of {MEMORY_CAP_SITES}"
        )
    n_strips = max(1, math.ceil(area / _MAX_STRIP_AREA))
    dt = (t_hi - t_lo) / n_strips
    xs, ts = [], []
    for j in range(n_strips):
        lo = t_lo + j * dt
        hi = t_lo + (j + 1) * dt
        x, t = _strip_marks(stream, x_lo, x_hi, lo, hi)
        xs.append(x)
        ts.append(t)
    x = np.concatenate(xs)
    t = np.concatenate(ts)
    # stable, as the scalar path's list sort by t
    order = np.argsort(t, kind="stable")
    return list(map(Mark, x[order].tolist(), t[order].tolist()))
