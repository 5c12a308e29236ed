"""Block draws equal scalar draws: the numpy rows of draw_rows, and a
stream's blocks (one row each) with the C core loaded and without it,
against draw_u64; and the block samplers, the C Poisson sampler included,
against their scalar oracles."""

import os
import random
import shlex
import shutil
from ctypes import byref, c_uint64

import numpy as np
import pytest
from _rng_reference import reference_poisson_rectangle

from fireline import rng
from fireline.engine import FALLBACK_REASON
from fireline.limits import sample_cluster_lengths_inf
from fireline.rng import (
    PURPOSE_MATCH,
    PURPOSE_PROPAGATE,
    PURPOSE_SEED,
    PURPOSE_STREAM,
    RngStream,
    draw_rows,
    draw_u64,
    exp_sample,
    exp_samples,
    MarkSet,
    poisson_rectangle,
)

_CC = os.environ.get("CC", "cc")
needs_compiler = pytest.mark.skipif(
    not shlex.split(_CC) or shutil.which(shlex.split(_CC)[0]) is None,
    reason=f"no C compiler {_CC!r} (set CC)",
)

_TOP = 2**64 - 1
# (seed, stream, purpose, site, first): small counters, and sites and
# indices near 2^63 and near the top of the 64-bit range
COUNTERS = [
    (0, 0, PURPOSE_STREAM, 0, 0),
    (19, 3, PURPOSE_SEED, 41, 7),
    (2024, 5, PURPOSE_MATCH, 2**63 - 1, 2**63 - 4),
    (_TOP, _TOP, PURPOSE_PROPAGATE, 2**63, 2**63 + 1),
    (12345, 67890, PURPOSE_STREAM, _TOP, _TOP - 9),
]


def _scalar(seed, stream, purpose, site, first, count):
    return [draw_u64(seed, stream, purpose, site, first + i) for i in range(count)]


def _stream_block(counter, count):
    """RngStream.words of count words at the counter's seed, stream and
    first index, and the scalar draws of a stream (purpose 0, site 0) there.
    The counters' first indices run from 0 to 2^64 - 10, the top of the
    counter range for 10 words."""
    seed, stream_id, _, _, first = counter
    stream = RngStream(seed, stream_id)
    stream._index = first
    block = stream.words(count)
    assert block.dtype == np.uint64
    assert stream._index == first
    return block.tolist(), _scalar(seed, stream_id, PURPOSE_STREAM, 0, first, count)


@needs_compiler
@pytest.mark.parametrize("counter", COUNTERS)
def test_c_block_equals_scalar_draws(counter):
    assert rng._lib is not None, FALLBACK_REASON  # the C core loaded
    block, scalar = _stream_block(counter, 10)
    assert block == scalar


@pytest.mark.parametrize("counter", COUNTERS)
def test_python_block_equals_scalar_draws(counter, monkeypatch):
    monkeypatch.setattr(rng, "_lib", None)  # the path without a compiler
    block, scalar = _stream_block(counter, 10)
    assert block == scalar


@pytest.mark.parametrize("count", [40, 41])
@pytest.mark.parametrize("counter", COUNTERS)
def test_python_blocks_either_side_of_the_scalar_cut(counter, count, monkeypatch):
    # blocks of 40 and 41 words, ending at the counter's top at the latest
    seed, stream, purpose, site, first = counter
    monkeypatch.setattr(rng, "_lib", None)
    block, scalar = _stream_block((seed, stream, purpose, site, min(first, 2**64 - count)),
                                  count)
    assert block == scalar


def test_numpy_rows_equal_scalar_draws():
    r = random.Random(6)
    for purpose in (PURPOSE_STREAM, PURPOSE_SEED, PURPOSE_MATCH, PURPOSE_PROPAGATE):
        seed, stream = r.getrandbits(64), r.getrandbits(64)
        # rows with different sites and first indices in one call
        sites = [r.getrandbits(64) for _ in range(4)] + [3, 3]
        firsts = [r.randrange(2**64 - 8) for _ in range(4)] + [0, 5]
        rows = draw_rows(seed, stream, purpose, sites, firsts, 9)
        assert rows.dtype == np.uint64
        assert rows.tolist() == [
            _scalar(seed, stream, purpose, site, first, 9) for site, first in zip(sites, firsts)
        ]


@pytest.mark.parametrize("counter", COUNTERS)
def test_numpy_rows_at_the_counter_edges(counter):
    seed, stream, purpose, site, first = counter
    rows = draw_rows(seed, stream, purpose, [site, _TOP, site], [first, first, _TOP - 9], 10)
    assert rows.tolist() == [
        _scalar(seed, stream, purpose, site, first, 10),
        _scalar(seed, stream, purpose, _TOP, first, 10),
        _scalar(seed, stream, purpose, site, _TOP - 9, 10),
    ]
    top = draw_rows(_TOP, _TOP, purpose, [_TOP], [2**64 - 10], 10)
    assert top.tolist() == [_scalar(_TOP, _TOP, purpose, _TOP, 2**64 - 10, 10)]


def test_numpy_rows_bounds():
    assert draw_rows(1, 2, PURPOSE_SEED, [], [], 64).shape == (0, 64)
    with pytest.raises(ValueError):
        draw_rows(1, 2, PURPOSE_SEED, [0, 1], [0, 2**64 - 9], 10)
    with pytest.raises(ValueError):
        draw_rows(1, 2, PURPOSE_SEED, [0], [-1], 10)


def test_block_bounds(monkeypatch):
    # with the C core loaded (when it is) and without it
    for lib in (rng._lib, None):
        monkeypatch.setattr(rng, "_lib", lib)
        stream = RngStream(1, 2)
        stream._index = 5
        empty = stream.words(0)
        assert empty.shape == (0,) and empty.dtype == np.uint64
        with pytest.raises(ValueError):
            stream.words(4, offset=-6)  # from index -1
        stream._index = _TOP - 2
        assert stream.words(3).tolist() == _scalar(1, 2, PURPOSE_STREAM, 0, _TOP - 2, 3)
        with pytest.raises(ValueError):
            stream.words(4)  # one word past the top
        assert stream._index == _TOP - 2
        stream._index = _TOP
        assert stream.words(0).shape == (0,)
        assert stream.words(1).tolist() == _scalar(1, 2, PURPOSE_STREAM, 0, _TOP, 1)
        stream._index = _TOP + 1  # every word drawn: no first index left
        with pytest.raises(ValueError, match="leave the 64-bit counter range"):
            stream.words(0)


def test_stream_units_match_next_unit():
    a, b = RngStream(8, 2), RngStream(8, 2)
    a.next_u64()
    b.next_u64()
    assert a.next_units(50).tolist() == [b.next_unit() for _ in range(50)]
    assert a._index == b._index == 51
    assert a.words(3, offset=2).tolist() == [b.next_u64() for _ in range(5)][2:]
    assert a._index == 51


@pytest.mark.parametrize("A, T", [(6.0, 3.0), (2.0, 2.0), (0.5, 0.3), (20.0, 4.0)])
def test_poisson_rectangle_matches_scalar_oracle(A, T):
    # (20, 4) has area 160: three strips of area <= 64
    for seed in range(200):
        block, scalar = RngStream(seed, 3), RngStream(seed, 3)
        marks = poisson_rectangle(block, -A, A, 0.0, T)
        assert marks == reference_poisson_rectangle(scalar, -A, A, 0.0, T), seed
        assert block._index == scalar._index, seed
        assert all(type(v) is float for mark in marks for v in mark)


def test_poisson_rectangle_python_blocks_match_oracle(monkeypatch):
    monkeypatch.setattr(rng, "_lib", None)
    for seed in range(20):
        block, scalar = RngStream(seed, 1), RngStream(seed, 1)
        marks = poisson_rectangle(block, -20.0, 20.0, 0.0, 4.0)
        assert marks == reference_poisson_rectangle(scalar, -20.0, 20.0, 0.0, 4.0)
        assert block._index == scalar._index


@pytest.mark.parametrize("seed", [90, 737])
def test_poisson_rectangle_long_knuth_run_redraws_block(seed):
    # one strip of mean 64 draws a first block of 64 + 16 + 8 = 88 uniforms;
    # these seeds have 89 and 95 marks, so the block is redrawn bigger
    block, scalar = RngStream(seed, 9), RngStream(seed, 9)
    marks = poisson_rectangle(block, 0.0, 8.0, 0.0, 8.0)
    assert len(marks) >= 88
    assert marks == reference_poisson_rectangle(scalar, 0.0, 8.0, 0.0, 8.0)
    assert block._index == scalar._index


def test_exp_samples_match_scalar_draws():
    a, b = RngStream(4, 4), RngStream(4, 4)
    assert exp_samples(a, 2.5, 101) == [exp_sample(b, 2.5) for _ in range(101)]
    assert a._index == b._index
    with pytest.raises(ValueError):
        exp_samples(a, 0.0, 3)


def test_cluster_lengths_match_one_at_a_time():
    a, b = RngStream(7, 0), RngStream(7, 0)
    lengths = sample_cluster_lengths_inf(0.5, 2.0, a, 300)
    assert lengths == [exp_sample(b, 1.5) + exp_sample(b, 1.5) for _ in range(300)]
    assert a._index == b._index == 600
    assert sample_cluster_lengths_inf(0.5, 2.0, a, 1)[0] == exp_sample(b, 1.5) + exp_sample(b, 1.5)


# (x_lo, x_hi, t_lo, t_hi, seeds): one strip; two and three strips of area
# <= 64 (areas 160 and 64 + 1e-9); one strip of mean 64, where these seeds
# have Knuth runs of 89 and 95 marks; and a thin box of mean 0.15
RECTANGLES = [
    (-6.0, 6.0, 0.0, 3.0, range(300)),
    (-20.0, 20.0, 0.0, 4.0, range(60)),
    (0.0, 8.0, 0.0, 8.0 + 1.25e-10, range(60)),
    (0.0, 8.0, 0.0, 8.0, [90, 737]),
    (-0.25, 0.25, 1.0, 1.3, range(100)),
]


def _draw(rectangle, seed, path, monkeypatch):
    """The marks and final stream position of one rectangle on the C path,
    the numpy path (no compiled library) or the scalar oracle."""
    x_lo, x_hi, t_lo, t_hi = rectangle
    stream = RngStream(seed, 7)
    stream._index = 3 * seed  # a stream already drawn from
    if path == "oracle":
        return reference_poisson_rectangle(stream, x_lo, x_hi, t_lo, t_hi), stream._index
    with monkeypatch.context() as m:
        if path == "numpy":
            m.setattr(rng, "_lib", None)
        marks = poisson_rectangle(stream, x_lo, x_hi, t_lo, t_hi)
    assert type(marks) is MarkSet
    return marks, stream._index


@needs_compiler
@pytest.mark.parametrize("x_lo, x_hi, t_lo, t_hi, seeds", RECTANGLES)
def test_c_sampler_equals_the_oracle_and_the_numpy_path(x_lo, x_hi, t_lo, t_hi, seeds,
                                                        monkeypatch):
    assert rng._lib is not None, FALLBACK_REASON
    for seed in seeds:
        c, c_index = _draw((x_lo, x_hi, t_lo, t_hi), seed, "c", monkeypatch)
        oracle, oracle_index = _draw((x_lo, x_hi, t_lo, t_hi), seed, "oracle", monkeypatch)
        numpy_marks, numpy_index = _draw((x_lo, x_hi, t_lo, t_hi), seed, "numpy", monkeypatch)
        assert c == oracle and oracle == c, seed
        assert c.array.tobytes() == numpy_marks.array.tobytes(), seed
        assert c_index == oracle_index == numpy_index, seed


@needs_compiler
def test_c_sampler_never_writes_past_its_cap():
    assert rng._lib is not None, FALLBACK_REASON
    seed, stream_id, first = 19, 3, 5
    used = c_uint64()
    full = np.full((200, 2), -7.0)
    n = rng._lib.fl_poisson_rectangle(seed, stream_id, first, -6.0, 6.0, 0.0, 3.0, 1, 200,
                                      full.ctypes.data, byref(used))
    assert 10 < n < 200 and used.value == 3 * n + 1
    for cap in (0, 1, n // 2, n - 1):
        out = np.full((cap + 4, 2), -7.0)  # four sentinel rows past the cap
        short = c_uint64()
        got = rng._lib.fl_poisson_rectangle(seed, stream_id, first, -6.0, 6.0, 0.0, 3.0, 1,
                                            cap, out.ctypes.data, byref(short))
        assert got == n and short.value == used.value, cap
        assert (out[cap:] == -7.0).all(), cap
    # the sampler's own retry draws the same marks again at the exact size
    stream = RngStream(seed, stream_id)
    stream._index = first
    assert poisson_rectangle(stream, -6.0, 6.0, 0.0, 3.0).array.tobytes() == full[:n].tobytes()


@needs_compiler
def test_poisson_rectangle_retries_a_count_past_its_first_buffer(monkeypatch):
    # no spare rows: about half the counts outgrow the first buffer
    assert rng._lib is not None, FALLBACK_REASON
    monkeypatch.setattr(rng, "_SPARE_SIGMAS", 0.0)
    monkeypatch.setattr(rng, "_SPARE_ROWS", 0)
    retried = 0
    for seed in range(40):
        block, scalar = RngStream(seed, 2), RngStream(seed, 2)
        marks = poisson_rectangle(block, -6.0, 6.0, 0.0, 3.0)
        retried += len(marks) > 36
        assert marks == reference_poisson_rectangle(scalar, -6.0, 6.0, 0.0, 3.0), seed
        assert block._index == scalar._index, seed
        assert marks.array.nbytes == 16 * len(marks)
    assert retried > 5
