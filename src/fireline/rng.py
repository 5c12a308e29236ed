"""Counter-based random number streams for reproducible simulation.

Every random draw in this package is a pure function of a 128-bit key
(master_seed, stream_id) and a 256-bit counter, evaluated with the
Philox4x64-10 block cipher.  Streams therefore need no coordination: the
engines derive per-site clock draws from (purpose, site, index) counters,
experiments derive per-run streams from (seed, run_index), and replaying
any component in any order reproduces identical numbers.

Draws may be taken in blocks.  draw_rows gives the words of consecutive
counter indices, a row for each of many sites and first indices, in one
numpy pass that never calls the compiled library; a row equals the scalar
draws word for word.  It is the one block source on either core: the
Python engine core's seed walks read their words from it, and
RngStream.words takes a block of a stream as one row.  The samplers that
draw in blocks (poisson_rectangle, exp_samples) return the values, and
leave the stream at the position, that drawing one word at a time would.

poisson_rectangle draws a whole rectangle in one call of the compiled
library (fl_poisson_rectangle), or in numpy blocks without it, and returns
a MarkSet: the marks as one read-only (n, 2) float64 array of (x, t) rows,
16 bytes a mark, read as a sequence of Mark tuples.  The limit engines take
that array as it is.

There is no global generator; every consumer receives an RngStream.
"""

import math
import operator
from collections.abc import Sequence
from ctypes import byref, c_uint64
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

# The compiled sampler's first buffer holds this many standard deviations
# and rows past the mean count; a larger count is drawn again at its size.
_SPARE_SIGMAS = 6.0
_SPARE_ROWS = 16


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
    arrays, all rows in one pass.  It never calls the compiled library, so
    both cores draw their blocks from it.  A pass costs about the same
    whatever its width up to some thousands of words.  Every first index,
    that of an empty row included, must be a counter index below 2^64."""
    if len(firsts) and not 0 <= min(firsts) <= max(firsts) <= 2**64 - max(count, 1):
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


class MarkSet(Sequence[Mark]):
    """An immutable sequence of Marks held as one read-only, C-contiguous
    (n, 2) float64 array of (x, t) rows, 16 bytes a mark.

    Indexing and iteration give Marks of Python floats, a slice gives a
    MarkSet, and a MarkSet equals a list of equal Marks from either side.
    MarkSet(rows) copies any (n, 2) array or sequence of (x, t) pairs.
    """

    __slots__ = ("_array",)

    def __init__(self, rows=()):
        array = np.array(rows, dtype=np.float64, order="C")
        if array.size == 0:
            array = array.reshape(0, 2)
        if array.ndim != 2 or array.shape[1] != 2:
            raise ValueError(f"marks must be (x, t) rows, got shape {array.shape}")
        array.flags.writeable = False
        self._array = array

    @classmethod
    def _own(cls, array: np.ndarray) -> "MarkSet":
        """A MarkSet on array, an (n, 2) C-contiguous float64 array that no
        one else writes, without a copy."""
        marks = cls.__new__(cls)
        array.flags.writeable = False
        marks._array = array
        return marks

    @property
    def array(self) -> np.ndarray:
        """The read-only (n, 2) array of (x, t) rows."""
        return self._array

    def __len__(self) -> int:
        return len(self._array)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return MarkSet._own(np.ascontiguousarray(self._array[i]))
        x, t = self._array[operator.index(i)].tolist()
        return Mark(x, t)

    def __iter__(self):
        return map(Mark._make, self._array.tolist())

    def __eq__(self, other):
        if isinstance(other, MarkSet):
            return np.array_equal(self._array, other._array)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None  # equal to a list, so unhashable as a list is

    def __reduce__(self):
        return MarkSet, (self._array,)

    def __repr__(self):
        return f"MarkSet({list(self)!r})"


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
        return draw_rows(self.master_seed, self.stream_id, PURPOSE_STREAM, [0],
                         [self._index + offset], count)[0]

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
    # usually enough
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


def _c_rectangle(stream, x_lo, x_hi, t_lo, t_hi, n_strips, area):
    """The rows of poisson_rectangle from one fl_poisson_rectangle call, and
    a second one with the exact size when the count outgrows the buffer
    (the draws are counter-based, so it gives the same marks)."""
    cap = int(area + _SPARE_SIGMAS * math.sqrt(area)) + _SPARE_ROWS
    used = c_uint64()
    while True:
        rows = np.empty((cap, 2))
        n = _lib.fl_poisson_rectangle(stream.master_seed, stream.stream_id, stream._index,
                                      x_lo, x_hi, t_lo, t_hi, n_strips, cap,
                                      rows.ctypes.data, byref(used))
        if n < 0:
            raise MemoryError("poisson_rectangle could not allocate its sort buffer")
        if n <= cap:
            break
        cap = n
    if stream._index + used.value > 2**64:
        raise ValueError(f"block [{stream._index}, {stream._index + used.value}) leaves "
                         "the 64-bit counter range")
    stream._index += used.value
    # shrink the buffer to its n rows (no view of it exists), so that the
    # marks hold 16 bytes each without a second copy at their peak
    rows.resize((n, 2), refcheck=False)
    return rows


def _numpy_rectangle(stream, x_lo, x_hi, t_lo, t_hi, n_strips):
    """The rows of poisson_rectangle from block draws in numpy, strip by
    strip, then a stable sort by t."""
    dt = (t_hi - t_lo) / n_strips
    xs, ts = [], []
    for j in range(n_strips):
        lo = t_lo + j * dt
        hi = t_lo + (j + 1) * dt
        x, t = _strip_marks(stream, x_lo, x_hi, lo, hi)
        xs.append(x)
        ts.append(t)
    rows = np.column_stack((np.concatenate(xs), np.concatenate(ts)))
    # stable, as the scalar path's list sort by t
    return rows[np.argsort(rows[:, 1], kind="stable")]


def rectangle_area(x_lo: float, x_hi: float, t_lo: float, t_hi: float) -> float:
    """The area of [x_lo, x_hi] x [t_lo, t_hi], after poisson_rectangle's
    refusals: ValueError for a degenerate or non-finite rectangle, and
    ResourceLimitError when the expected mark count (the area) exceeds
    MEMORY_CAP_SITES."""
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
    return area


def poisson_rectangle(stream, x_lo: float, x_hi: float, t_lo: float, t_hi: float) -> MarkSet:
    """Unit-intensity Poisson marks on [x_lo, x_hi] x [t_lo, t_hi], as a
    MarkSet sorted stably by time.

    The rectangle is cut into time strips of area <= 64 and each strip is
    filled independently (superposition keeps the law exact while the
    count inversion stays in safe floating-point range).  The compiled
    library draws every strip and sorts in one call; without it the strips
    are drawn in numpy blocks.  Both give, with the stream's final
    position, the marks of drawing each uniform in turn.  Raises ValueError
    for a degenerate or non-finite rectangle, and ResourceLimitError, before
    any draw, when the expected mark count (the area) exceeds
    MEMORY_CAP_SITES.
    """
    area = rectangle_area(x_lo, x_hi, t_lo, t_hi)
    n_strips = max(1, math.ceil(area / _MAX_STRIP_AREA))
    if _lib is None:
        return MarkSet._own(_numpy_rectangle(stream, x_lo, x_hi, t_lo, t_hi, n_strips))
    return MarkSet._own(_c_rectangle(stream, x_lo, x_hi, t_lo, t_hi, n_strips, area))
