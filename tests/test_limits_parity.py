"""The two LFFP(p) event loops must give the same realization bit for bit:
the C twin (fl_limit_run in _ccore.c, called by limits._run_alffp_c) and the
Python loop (limits._run_alffp_py), each run on a fresh state.  The oracle
tests of test_limits.py run the loop that simulate_alffp_p picks, the C one
whenever the library loads; this file holds the Python loop to it, a C
state's queries (fl_limit_query over its rows) to the Python scans, and the
batched tail runs (fl_tail_runs) to the per-run path."""

import copy
import ctypes
import pickle
import random

import numpy as np
import pytest

from fireline import limits
from fireline.harness import _tail_worker
from fireline.engine import COMPILED, FALLBACK_REASON
from fireline.limits import LimitStateP, _run_alffp_c, _run_alffp_py, _validate_marks
from fireline.rng import Mark, RngStream, poisson_rectangle
from fireline.scales import uniform_grid
from test_limits import (
    GOLDEN_STATS,
    HAND_MADE,
    _edge_grid,
    _lattice_sets,
    _signed_zero_sets,
    outcome,
)

pytestmark = pytest.mark.skipif(
    not COMPILED, reason=f"C core unavailable: {FALLBACK_REASON}"
)


def _run(loop, p, A, T, marks):
    state = LimitStateP(p, A, T, _validate_marks(marks, A, T))
    loop(state)
    return state


def _everything(state):
    """What the scheduling decides, the counters, and every object's repr
    (which shows its field types as well as its values)."""
    return (
        outcome(state),
        state.stats(),
        [repr(f) for f in state.fronts],
        [repr(b) for b in state.barriers],
        [repr(s) for s in state.sweeps],
    )


def assert_loops_agree(p, A, T, marks):
    c = _run(_run_alffp_c, p, A, T, marks)
    py = _run(_run_alffp_py, p, A, T, marks)
    assert _everything(c) == _everything(py)
    return c


def _poisson(A, T, seed, stream_id=0):
    return poisson_rectangle(RngStream(seed, stream_id), -A, A, 0.0, T)


@pytest.mark.parametrize("p", [0.0, 1e-3, 0.1, 1.0, 5.0, 1e3, 1e308])
@pytest.mark.parametrize("A", [2.0, 6.0, 10.0, 20.0])
def test_poisson_realizations(p, A):
    for seed in range(2):
        assert_loops_agree(p, A, 4.0, _poisson(A, 4.0, seed, int(A)))


@pytest.mark.parametrize("p, A, T, marks", HAND_MADE)
def test_hand_made_sets(p, A, T, marks):
    assert_loops_agree(p, A, T, [Mark(x, t) for x, t in marks])


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0])
def test_lattice_ties(p):
    # the mark sets of test_limits.test_lattice_ties_match_oracle: equal
    # event keys are common; half of the boxes have an int A, which a state
    # holds as a float, so fronts and sweeps end at the same float edge
    for k, (A, marks) in enumerate(_lattice_sets(p)):
        assert_loops_agree(p, A if k % 2 else int(A), 4.0, marks)


@pytest.mark.parametrize("p, A, T, seed", [
    *(pytest.param(1.0, A, 4.0, seed, id=f"{A}-{seed}")
      for A, seed in [(40.0, 3), (48.0, 0), (48.0, 1), (48.0, 2)]),
    # long runs, whose scans pass many expired barriers and fronts dead for
    # over a time unit
    *((p, 6.0, 12.0, seed) for p in (0.0, 0.5, 1.0) for seed in (0, 1)),
    (1.0, 48.0, 12.0, 5),
])
def test_large_boxes(p, A, T, seed):
    assert_loops_agree(p, A, T, _poisson(A, T, seed))


@pytest.mark.parametrize("p, seed", [(0.0, 3), (1.0, 0)])
def test_a_large_box_read_by_full_scans(p, seed):
    # about 580 marks on [-96, 96] x [0, 3], where each mark's Z, H and D
    # scan every blocker so far and most of them lie far from its point;
    # D(0, T) is macroscopic at these seeds
    marks = _poisson(96.0, 3.0, seed)
    c = _run(_run_alffp_c, p, 96.0, 3.0, marks)
    py = _run(_run_alffp_py, p, 96.0, 3.0, marks)
    assert _everything(c) == _everything(py)
    assert repr(c.D(0.0, 3.0)) == repr(py.D(0.0, 3.0)) and c.D(0.0, 3.0)[0] < 0.0
    grid = uniform_grid(3.0, 512)
    assert _trajectory_repr(c.trajectory(grid)) == _trajectory_repr(py.trajectory(grid))


@pytest.mark.parametrize("case", GOLDEN_STATS, ids=lambda c: f"p{c['p']}-A{c['A']}-s{c['seed']}")
def test_golden_stats_cases(case):
    state = assert_loops_agree(case["p"], case["A"], 4.0, _poisson(case["A"], 4.0, case["seed"]))
    stats = state.stats()
    assert {key: stats[key] for key in case["stats"]} == case["stats"]


# -- edge cases ---------------------------------------------------------------------

EDGE_SETS = {
    "empty": [],
    "box edges": [(-2.0, 0.0), (2.0, 0.0), (-2.0, 1.5), (2.0, 1.5), (0.0, 3.0), (-2.0, 3.0),
                  (2.0, 3.0)],
    "same point": [(0.5, 0.5), (0.5, 0.5), (0.5, 1.25), (0.5, 1.25), (0.5, 1.25),
                   (-1.0, 2.0), (-1.0, 2.0)],
    "signed zeros": [(-0.0, 1.0), (0.0, 1.0), (-0.0, 2.0), (1.0, 2.0), (-1.0, 2.5),
                     (0.0, 2.5)],
}


def _everything_or_error(loop, p, A, T, marks):
    try:
        return _everything(_run(loop, p, A, T, marks))
    except (ArithmeticError, LookupError, ValueError) as exc:
        return type(exc)


def assert_loops_agree_or_fail_alike(p, A, T, marks):
    assert (_everything_or_error(_run_alffp_c, p, A, T, marks)
            == _everything_or_error(_run_alffp_py, p, A, T, marks))


@pytest.mark.parametrize("p", [0.0, 1e-3, 0.5, 1.0])
@pytest.mark.parametrize("name", sorted(EDGE_SETS))
def test_edge_sets(p, name):
    assert_loops_agree_or_fail_alike(p, 2.0, 3.0, [Mark(x, t) for x, t in EDGE_SETS[name]])


@pytest.mark.parametrize("p", [1e-300, 5e-324])
def test_vanishing_p(p):
    # (T + 2) / p and the front keys reach 1e300, and at 5e-324 1/p
    # overflows: windows get infinite and NaN bounds, which both loops'
    # bisections read the same way
    for marks in [_poisson(2.0, 3.0, 5), _poisson(6.0, 3.0, 6),
                  [Mark(x, t) for x, t in EDGE_SETS["same point"]]]:
        assert_loops_agree_or_fail_alike(p, 6.0, 3.0, marks)


# -- the wrapper ---------------------------------------------------------------------


class _FakeLib:
    """Stands in for the library: fl_limit_run writes the given counts and
    returns the given status."""

    def __init__(self, status, counts):
        self.status = status
        self.counts = counts

    def fl_limit_run(self, *args):
        (ctypes.c_int64 * len(self.counts)).from_address(args[-1])[:] = self.counts
        return self.status


def test_an_allocation_failure_raises_memory_error(monkeypatch):
    monkeypatch.setattr(limits, "_lib", _FakeLib(-1, [0] * limits._N_COUNTS))
    with pytest.raises(MemoryError):
        _run(_run_alffp_c, 1.0, 2.0, 3.0, [Mark(0.0, 1.0)])


@pytest.mark.parametrize("which, bound", [(0, 4), (1, 2), (2, 1), (3, 1)])
def test_row_counts_are_checked_against_their_buffers(monkeypatch, which, bound):
    marks = [Mark(0.0, 1.0)]  # buffers of 4, 2, 1 and 1 rows
    for count in (bound + 1, -1):
        counts = [0] * limits._N_COUNTS
        counts[which] = count
        monkeypatch.setattr(limits, "_lib", _FakeLib(0, counts))
        with pytest.raises(RuntimeError, match=f"returned {count} rows for a buffer of {bound}"):
            _run(_run_alffp_c, 1.0, 2.0, 3.0, marks)


def test_simulate_uses_the_c_loop():
    assert limits._run_alffp is _run_alffp_c
    state = limits.simulate_alffp_p(1.0, 6.0, 3.0, seed=19)
    assert _everything(state) == _everything(_run(_run_alffp_py, 1.0, 6.0, 3.0,
                                                  _poisson(6.0, 3.0, 19)))


# -- lists built in the run ---------------------------------------------------------

_READ_ORDER_RUNS = (
    [(p, A, seed, int(A)) for p in (0.0, 1.0) for A in (2.0, 6.0, 10.0, 20.0) for seed in range(2)]
    + [(c["p"], c["A"], c["seed"], 0) for c in GOLDEN_STATS if c["p"] in (0.0, 1.0)]
)


@pytest.mark.parametrize("p, A, seed, stream", _READ_ORDER_RUNS)
def test_a_c_state_read_in_any_order_equals_the_python_loop(p, A, seed, stream):
    # the run builds every list, so no read order can change what a read sees
    marks = _poisson(A, 4.0, seed, stream)
    state = _run(_run_alffp_c, p, A, 4.0, marks)
    assert _everything(state) == _everything(_run(_run_alffp_py, p, A, 4.0, marks))


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_a_c_run_holds_its_lists_before_any_read(p):
    state = limits.simulate_alffp_p(p, 6.0, 3.0, seed=19)
    held = vars(state)  # the instance's own attributes, without a read
    python = _run(_run_alffp_py, p, 6.0, 3.0, _poisson(6.0, 3.0, 19))
    assert held["events"] and (held["fronts"] if p else held["sweeps"])
    for name in ("events", "fronts", "barriers", "sweeps"):
        assert repr(held[name]) == repr(getattr(python, name)), name


def test_a_built_list_is_kept():
    state = limits.simulate_alffp_p(1.0, 6.0, 3.0, seed=19)
    for name in ("events", "fronts", "barriers", "sweeps"):
        assert getattr(state, name) is getattr(state, name)
    extra = limits.LimitEvent(3.0, limits.EVENT_MARK, 0.0, "absorbed")
    state.events.append(extra)
    assert state.events[-1] is extra
    assert not hasattr(state, "wakes")


def test_edited_lists_do_not_change_the_answers():
    state = limits.simulate_alffp_p(1.0, 6.0, 3.0, seed=19)
    grid = [0.25 * k for k in range(13)]
    before = (repr(state.query(0.0, 3.0)), repr(state.trajectory(grid)), state.stats())
    for name in ("events", "fronts", "barriers", "sweeps"):
        getattr(state, name).clear()
    assert (repr(state.query(0.0, 3.0)), repr(state.trajectory(grid)), state.stats()) == before


@pytest.mark.parametrize("copy_state", [
    lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy, copy.copy,
], ids=["pickle", "deepcopy", "copy"])
def test_a_copied_c_state_answers_from_its_own_buffer(copy_state):
    state = limits.simulate_alffp_p(1.0, 6.0, 3.0, seed=19)
    # the run built all four lists, so the copy carries them with the rows
    copied = copy_state(state)
    rows, counts = copied._buffer
    assert list(counts) == list(state._buffer[1])
    grid = [0.25 * k for k in range(13)]
    assert repr(copied.trajectory(grid)) == repr(state.trajectory(grid))
    assert repr(copied.query(1.5, 2.0)) == repr(state.query(1.5, 2.0))
    assert _everything(copied) == _everything(state)


# -- the C queries against the Python scans -----------------------------------------


def _query_runs(p):
    """(A, T, marks) of the oracle sweeps, the hand-made sets, the lattice
    ties (half of them with an int A, which a state holds as a float) and
    the signed zeros, at slope p."""
    runs = [(A, 4.0, _poisson(A, 4.0, seed, int(A))) for A in (2.0, 6.0, 10.0, 20.0)
            for seed in range(2)]
    runs += [(A, T, [Mark(x, t) for x, t in marks]) for q, A, T, marks in HAND_MADE if q == p]
    runs += [(A if k % 2 else int(A), 4.0, marks)
             for k, (A, marks) in enumerate(_lattice_sets(p, 40))]
    runs += [(2.0, 4.0, marks) for marks in _signed_zero_sets(p)]
    return runs


def _answers(state, queries):
    return [repr((state.Z(x, t), state.H(x, t), state.reset_time(x, t), state.query(x, t)))
            for x, t in queries]


def _trajectory_repr(traj):
    # whole lists: numpy's own repr elides the middle of a long array
    return repr((traj.times.tolist(), traj.values.tolist(), traj.intervals))


@pytest.mark.parametrize("p", [0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0])
def test_c_queries_equal_the_python_scans(p):
    # a C state's Z, H, reset_time, query and trajectory against the Python
    # scans of the Python loop's state of the same realization
    rng = random.Random(int(p * 1000) + 31)
    points = 0
    for A, T, marks in _query_runs(p):
        c = _run(_run_alffp_c, p, A, T, marks)
        py = _run(_run_alffp_py, p, A, T, marks)
        assert c._buffer is not None and py._buffer is None
        grid = _edge_grid(py)
        queries = [(rng.uniform(-A, A), rng.uniform(0.0, T)) for _ in range(20)]
        queries += [(m.x, m.t) for m in py.marks] + [(0.0, t) for t in grid]
        assert _answers(c, queries) == _answers(py, queries)
        assert repr(c.reset_time(0.0)) == repr(py.reset_time(0.0))
        assert _trajectory_repr(c.trajectory(grid)) == _trajectory_repr(py.trajectory(grid))
        points += len(queries)
    assert points > 1000


# -- the batch of tail runs ----------------------------------------------------------


@pytest.mark.parametrize("A", [6.0, 48.0])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_tail_runs_equal_the_per_run_path(p, A):
    # the whole range in one call, and a chunk from stream 137 on; the
    # buffers start at int(2AT) + 1 marks, the mean count rounded up, so a
    # call grows them (and draws that run again) at the first larger run
    T, seed, runs = 3.0, 19, 200
    expected = np.array([_tail_worker((p, A, T, seed, k)) for k in range(runs)])
    assert np.count_nonzero(expected) > 10
    for first in (0, 137):
        out = np.empty(runs - first)
        assert limits._lib.fl_tail_runs(p, A, T, seed, first, runs - first, out.ctypes.data) == 0
        assert out.tobytes() == expected[first:].tobytes()
    assert max(len(_poisson(A, T, seed, k)) for k in range(137, runs)) > int(2 * A * T) + 1
