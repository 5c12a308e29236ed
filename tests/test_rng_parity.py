"""Block draws equal scalar draws: the C block loop and the numpy rows of
the no-compiler path against draw_u64, and the block samplers against
their scalar oracles."""

import os
import random
import shlex
import shutil

import numpy as np
import pytest
from _rng_reference import reference_poisson_rectangle

from fireline import rng
from fireline.engine import FALLBACK_REASON
from fireline.limits import sample_cluster_length_inf, sample_cluster_lengths_inf
from fireline.rng import (
    PURPOSE_MATCH,
    PURPOSE_PROPAGATE,
    PURPOSE_SEED,
    PURPOSE_STREAM,
    RngStream,
    draw_block,
    draw_rows,
    draw_u64,
    exp_sample,
    exp_samples,
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


@needs_compiler
@pytest.mark.parametrize("counter", COUNTERS)
def test_c_block_equals_scalar_draws(counter):
    assert rng._lib is not None, FALLBACK_REASON
    block = draw_block(*counter, 10)
    assert block.dtype == np.uint64
    assert block.tolist() == _scalar(*counter, 10)


@pytest.mark.parametrize("counter", COUNTERS)
def test_python_block_equals_scalar_draws(counter, monkeypatch):
    monkeypatch.setattr(rng, "_lib", None)  # the path without a compiler
    block = draw_block(*counter, 10)
    assert block.dtype == np.uint64
    assert block.tolist() == _scalar(*counter, 10)


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
    assert draw_block(1, 2, PURPOSE_STREAM, 0, 5, 0).shape == (0,)
    with monkeypatch.context() as m:
        m.setattr(rng, "_lib", None)
        empty = draw_block(1, 2, PURPOSE_STREAM, 0, 5, 0)
        assert empty.shape == (0,) and empty.dtype == np.uint64
    with pytest.raises(ValueError):
        draw_block(1, 2, PURPOSE_STREAM, 0, _TOP - 2, 4)
    with pytest.raises(ValueError):
        draw_block(1, 2, PURPOSE_STREAM, 0, -1, 4)


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
    assert sample_cluster_length_inf(0.5, 2.0, a) == exp_sample(b, 1.5) + exp_sample(b, 1.5)
