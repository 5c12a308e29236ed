"""Tests for the counter-based RNG streams and mark sampling."""

import math
import pickle

import numpy as np
import pytest

from fireline.limits import simulate_alffp_p
from fireline.rng import (
    Mark,
    MarkSet,
    RngStream,
    draw_u64,
    exp_sample,
    philox4x64,
    poisson_rectangle,
    u64_to_unit,
)

# Frozen outputs of Philox4x64-10; independently confirmed against
# numpy.random.Philox (which pre-increments its counter by one block).
KNOWN_BLOCKS = [
    (
        (1, 0, 0, 0, 0, 0),
        (0x02F4BA6408E4D89B, 0x3DD62B0B9CA8C5B2, 0x1C8667A55D902E79, 0x907D7A052FD5B4DC),
    ),
    (
        (0xDEADBEEF, 1, 2, 3, 12345, 67890),
        (0xF5E84C1C9BAF8540, 0x4E1B6FC1AFA7BAC6, 0x5CE728DD444B5D3B, 0x629023CF1CAB50DF),
    ),
]


class StubStream:
    """Feeds preset uniforms to exp_sample."""

    def __init__(self, units):
        self.units = list(units)

    def next_unit(self):
        return self.units.pop(0)


def test_philox_known_answer():
    for args, expected in KNOWN_BLOCKS:
        assert philox4x64(*args) == expected


def test_philox_matches_numpy_philox():
    for key in [(0, 0), (12345, 67890), (2**64 - 1, 7)]:
        bg = np.random.Philox(counter=np.zeros(4, dtype=np.uint64), key=np.array(key, dtype=np.uint64))
        raw = [int(v) for v in bg.random_raw(8)]
        mine = list(philox4x64(1, 0, 0, 0, *key)) + list(philox4x64(2, 0, 0, 0, *key))
        assert raw == mine


def test_stream_reproducible_and_disjoint():
    a1 = RngStream(2024, 5)
    a2 = RngStream(2024, 5)
    b = RngStream(2024, 6)
    seq1 = [a1.next_u64() for _ in range(100)]
    seq2 = [a2.next_u64() for _ in range(100)]
    seqb = [b.next_u64() for _ in range(100)]
    assert seq1 == seq2
    assert all(x != y for x, y in zip(seq1, seqb))


def test_draw_u64_is_stateless():
    x = draw_u64(99, 3, 1, 42, 7)
    assert x == draw_u64(99, 3, 1, 42, 7)
    assert x != draw_u64(99, 3, 1, 42, 8)


def test_unit_mapping_range():
    assert u64_to_unit(0) > 0.0
    assert u64_to_unit(2**64 - 1) == 1.0


def test_exp_sample_inversion_examples():
    s = StubStream([math.exp(-2.0), math.exp(-2.0)])
    assert exp_sample(s, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert exp_sample(s, 4.0) == pytest.approx(0.5, abs=1e-12)


def test_exp_sample_rejects_bad_rate():
    s = RngStream(0, 0)
    with pytest.raises(ValueError):
        exp_sample(s, 0.0)
    with pytest.raises(ValueError):
        exp_sample(s, -1.0)


def test_exp_sample_moments():
    s = RngStream(7, 1)
    n = 100_000
    draws = np.array([exp_sample(s, 2.0) for _ in range(n)])
    assert abs(draws.mean() - 0.5) < 0.01
    # 3 sigma for the variance of Exp(2): Var(S^2) ~ (mu4 - sigma^4)/n = 0.5/n
    assert abs(draws.var() - 0.25) < 3.0 * math.sqrt(0.5 / n)


def test_poisson_rectangle_rejects_degenerate():
    s = RngStream(0, 0)
    with pytest.raises(ValueError):
        poisson_rectangle(s, 1.0, 1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        poisson_rectangle(s, 0.0, 1.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        poisson_rectangle(s, 0.0, 1.0, 3.0, 2.0)


def test_poisson_rectangle_marks_well_formed():
    s = RngStream(11, 0)
    marks = poisson_rectangle(s, -2.0, 2.0, 0.0, 3.0)
    for mark in marks:
        assert isinstance(mark, Mark)
        assert -2.0 <= mark.x <= 2.0
        assert 0.0 <= mark.t <= 3.0
    assert all(m1.t <= m2.t for m1, m2 in zip(marks, marks[1:]))


def test_poisson_rectangle_count_moment():
    # Spec example: area 12 box, mean count within 12 +/- 0.35 over 1e4 reps.
    reps = 10_000
    counts = np.empty(reps)
    for rep in range(reps):
        s = RngStream(123, rep)
        counts[rep] = len(poisson_rectangle(s, -2.0, 2.0, 0.0, 3.0))
    assert abs(counts.mean() - 12.0) < 0.35


def test_poisson_rectangle_disjoint_counts_uncorrelated():
    reps = 2_000
    left = np.empty(reps)
    right = np.empty(reps)
    for rep in range(reps):
        s = RngStream(321, rep)
        marks = poisson_rectangle(s, -2.0, 2.0, 0.0, 3.0)
        left[rep] = sum(1 for m in marks if m.x < 0.0)
        right[rep] = sum(1 for m in marks if m.x >= 0.0)
    corr = np.corrcoef(left, right)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(reps)


# -- MarkSet ----------------------------------------------------------------------


def test_markset_is_a_sequence_of_float_marks():
    marks = poisson_rectangle(RngStream(5, 1), -2.0, 2.0, 0.0, 3.0)
    assert isinstance(marks, MarkSet) and len(marks) > 3
    listed = list(marks)
    assert all(type(m) is Mark and type(m.x) is float and type(m.t) is float for m in listed)
    assert [marks[k] for k in range(len(marks))] == listed
    assert marks[-1] == listed[-1] and marks[-len(marks)] == listed[0]
    assert marks[np.int64(1)] == listed[1]
    with pytest.raises(IndexError):
        marks[len(marks)]
    part = marks[1:4]
    assert type(part) is MarkSet and list(part) == listed[1:4]
    stepped = marks[::-2]
    assert type(stepped) is MarkSet and stepped == listed[::-2]
    assert stepped.array.flags.c_contiguous and not stepped.array.flags.writeable
    assert marks.index(listed[2]) == 2 and listed[3] in marks
    assert list(reversed(marks)) == listed[::-1]


def test_markset_equals_a_list_of_equal_marks_from_either_side():
    marks = poisson_rectangle(RngStream(5, 2), -2.0, 2.0, 0.0, 3.0)
    listed = list(marks)
    assert marks == listed and listed == marks
    assert not marks != listed and not listed != marks
    assert marks == MarkSet(listed) and MarkSet(listed) == marks
    other = listed[:-1] + [Mark(listed[-1].x, listed[-1].t + 1.0)]
    assert marks != other and other != marks
    assert marks != listed[:-1] and listed[:-1] != marks
    assert marks != tuple(listed) and marks != "marks"
    assert MarkSet() == [] and [] == MarkSet()
    with pytest.raises(TypeError):
        hash(marks)


def test_markset_is_read_only():
    marks = poisson_rectangle(RngStream(5, 3), -2.0, 2.0, 0.0, 3.0)
    first = marks[0]
    with pytest.raises(ValueError):
        marks.array[0, 0] = 1.0
    with pytest.raises(AttributeError):
        marks.array = np.zeros((1, 2))
    with pytest.raises(TypeError):
        marks[0] = Mark(0.0, 0.0)
    assert marks[0] == first
    # the constructor copies: writing to its argument changes nothing
    rows = np.array([[0.5, 1.0], [-0.5, 2.0]])
    copied = MarkSet(rows)
    rows[0, 0] = 9.0
    assert copied == [Mark(0.5, 1.0), Mark(-0.5, 2.0)]
    assert not copied.array.flags.writeable


def test_markset_pickle_round_trip_stays_equal_and_read_only():
    marks = poisson_rectangle(RngStream(5, 4), -6.0, 6.0, 0.0, 3.0)
    back = pickle.loads(pickle.dumps(marks))
    assert type(back) is MarkSet and back == marks and back.array.tobytes() == marks.array.tobytes()
    assert not back.array.flags.writeable
    with pytest.raises(ValueError):
        back.array[0, 1] = 0.0


def test_markset_refuses_rows_that_are_not_pairs():
    assert MarkSet().array.shape == (0, 2)
    assert MarkSet([Mark(1, 2)]).array.dtype == np.float64
    for bad in ([1.0, 2.0], [[1.0, 2.0, 3.0]], np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="rows"):
            MarkSet(bad)


def test_drawn_marks_hold_sixteen_bytes_each():
    for A, T in ((6.0, 3.0), (20.0, 4.0), (0.5, 0.5)):
        marks = poisson_rectangle(RngStream(8, 1), -A, A, 0.0, T)
        # the marks own one array of exactly their rows, no spare buffer
        assert marks.array.base is None and marks.array.nbytes == 16 * len(marks)


def test_markset_for_a_larger_box_is_refused_as_a_list_is():
    marks = poisson_rectangle(RngStream(3, 0), -6.0, 6.0, 0.0, 4.0)
    for A, T in ((2.0, 4.0), (6.0, 2.0)):
        with pytest.raises(ValueError) as as_list:
            simulate_alffp_p(1.0, A, T, marks=list(marks))
        with pytest.raises(ValueError) as as_set:
            simulate_alffp_p(1.0, A, T, marks=marks)
        assert str(as_set.value) == str(as_list.value)
        assert "outside the" in str(as_set.value)
