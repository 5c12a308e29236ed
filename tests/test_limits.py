"""Limit-process engines: exact event geometry and the slow-regime barriers."""

import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from _limits_reference import (
    _D,
    reference_alffp,
    reference_inf_D,
    reference_inf_events,
    reference_inf_features,
    reference_inf_Y,
)
from fireline import limits
from fireline.engine import COMPILED, FALLBACK_REASON
from fireline.limits import (
    EVENT_BARRIER_EXPIRY,
    EVENT_FRONT_MEET,
    EVENT_FRONT_STOP,
    EVENT_MARK,
    LimitEvent,
    LimitObservables,
    LimitStateP,
    _run_alffp_c,
    _run_alffp_py,
    _validate_marks,
    sample_cluster_lengths_inf,
    simulate_alffp_p,
    simulate_lffp_0,
    simulate_lffp_inf,
)
from fireline.rng import Mark, MarkSet, RngStream, exp_sample, poisson_rectangle


def kinds(state):
    return [(e.t, e.kind, e.x, e.cause) for e in state.events]


# -- LFFP(p), p > 0 ------------------------------------------------------------


def test_empty_mark_set_field():
    s = simulate_alffp_p(1.0, 2.0, 3.0, marks=[])
    for x in (-2.0, -0.7, 0.0, 1.3):
        for t in (0.0, 0.4, 1.0, 2.9):
            assert s.Z(x, t) == min(t, 1.0)
            assert s.H(x, t) == 0.0
    assert s.D(0.5, 0.9) == (0.5, 0.5)
    assert s.D(0.5, 1.0) == (-2.0, 2.0)
    assert s.D(-1.2, 3.0) == (-2.0, 2.0)
    assert s.events == []


def test_single_microscopic_mark():
    # Z at the mark is 0.7, so the barrier lives on [0.7, 1.4)
    s = simulate_alffp_p(1.0, 2.0, 3.0, marks=[Mark(0.5, 0.7)])
    assert s.H(0.5, 0.7) == pytest.approx(0.7)
    assert s.H(0.5, 1.0) == pytest.approx(0.4)
    assert s.H(0.5, 1.4) == 0.0
    assert s.H(0.4, 1.0) == 0.0
    assert s.Z(0.5, 1.0) == 1.0  # barriers do not reset the regrowth field
    assert s.D(0.5, 1.2) == (0.5, 0.5)
    assert s.D(0.0, 1.2) == (-2.0, 0.5)
    assert s.D(1.0, 1.2) == (0.5, 2.0)
    assert s.D(0.0, 1.5) == (-2.0, 2.0)
    assert kinds(s) == [
        (0.7, EVENT_MARK, 0.5, "micro"),
        (1.4, EVENT_BARRIER_EXPIRY, 0.5, "expiry"),
    ]


def test_macroscopic_mark_spawns_front_pair():
    s = simulate_alffp_p(0.5, 2.0, 3.0, marks=[Mark(0.0, 1.5)])
    assert len(s.fronts) == 2
    assert sorted(f.direction for f in s.fronts) == [-1, 1]
    # crossing x=1 happens at 1.5 + 0.5*1 = 2.0
    assert s.Z(1.0, 1.9) == 1.0
    assert s.Z(1.0, 2.0) == 0.0
    assert s.Z(1.0, 2.1) == pytest.approx(0.1)
    assert s.Z(0.0, 1.6) == pytest.approx(0.1)
    assert s.D(0.0, 1.6) == (0.0, 0.0)
    # both fronts die crossing the box edge at 1.5 + 0.5*2 = 2.5
    assert kinds(s) == [
        (1.5, EVENT_MARK, 0.0, "macro"),
        (2.5, EVENT_FRONT_STOP, -2.0, "edge"),
        (2.5, EVENT_FRONT_STOP, 2.0, "edge"),
    ]
    for f in s.fronts:
        assert not f.alive and not f.blocked and f.cause == "edge"


def test_opposing_fronts_meet():
    s = simulate_alffp_p(0.5, 4.0, 3.0, marks=[Mark(-1.0, 1.0), Mark(1.0, 1.0)])
    assert kinds(s) == [
        (1.0, EVENT_MARK, -1.0, "macro"),
        (1.0, EVENT_MARK, 1.0, "macro"),
        (1.5, EVENT_FRONT_MEET, 0.0, "meet"),
        (2.5, EVENT_FRONT_STOP, -4.0, "edge"),
        (2.5, EVENT_FRONT_STOP, 4.0, "edge"),
    ]
    # the meeting point is crossed by both fronts
    assert s.Z(0.0, 2.0) == pytest.approx(0.5)
    assert s.D(0.0, 2.2) == (0.0, 0.0)
    # at t=2.7 only the outward wakes are still unhealed
    lo, hi = s.D(0.5, 2.7)
    assert lo == pytest.approx(-2.4)
    assert hi == pytest.approx(2.4)


def test_front_blocked_by_barrier():
    s = simulate_alffp_p(
        0.5, 2.0, 3.0, marks=[Mark(1.0, 0.9), Mark(0.0, 1.2)]
    )
    # barrier [0.9, 1.8) at x=1; the right front arrives at 1.7, inside it
    stop = [e for e in s.events if e.kind == EVENT_FRONT_STOP and e.cause == "barrier"]
    assert len(stop) == 1 and stop[0].t == pytest.approx(1.7) and stop[0].x == 1.0
    f = next(f for f in s.fronts if f.direction > 0)
    assert f.blocked and f.x_end == 1.0
    # the death point is not crossed
    assert s.Z(1.0, 1.75) == 1.0
    assert s.H(1.0, 1.75) == pytest.approx(0.05)
    assert s.D(1.0, 1.75) == (1.0, 1.0)
    assert s.reset_time(0.9) == pytest.approx(1.2 + 0.5 * 0.9)


def test_front_passes_barrier_expiring_on_arrival():
    # barrier [0.8, 1.6); the right front arrives exactly at 1.6 and passes
    s = simulate_alffp_p(
        0.5, 2.0, 3.0, marks=[Mark(1.0, 0.8), Mark(0.0, 1.1)]
    )
    assert kinds(s) == [
        (0.8, EVENT_MARK, 1.0, "micro"),
        (1.1, EVENT_MARK, 0.0, "macro"),
        (1.6, EVENT_BARRIER_EXPIRY, 1.0, "expiry"),
        (2.1, EVENT_FRONT_STOP, -2.0, "edge"),
        (2.1, EVENT_FRONT_STOP, 2.0, "edge"),
    ]
    assert s.Z(1.0, 2.0) == pytest.approx(0.4)


def test_front_blocked_by_dead_opposing_wake():
    # the left front of the pair born at (1, 1) dies on the barrier at x=0;
    # the right front born at (-0.5, 2) then stops at that death edge,
    # whose interior resets are under one time unit old on arrival
    s = simulate_alffp_p(
        0.5,
        2.0,
        3.0,
        marks=[Mark(0.0, 0.9), Mark(1.0, 1.0), Mark(-0.5, 2.0)],
    )
    assert kinds(s) == [
        (0.9, EVENT_MARK, 0.0, "micro"),
        (1.0, EVENT_MARK, 1.0, "macro"),
        (1.5, EVENT_FRONT_STOP, 0.0, "barrier"),
        (1.5, EVENT_FRONT_STOP, 2.0, "edge"),
        (1.8, EVENT_BARRIER_EXPIRY, 0.0, "expiry"),
        (2.0, EVENT_MARK, -0.5, "macro"),
        (2.25, EVENT_FRONT_STOP, 0.0, "wake"),
        (2.75, EVENT_FRONT_STOP, -2.0, "edge"),
    ]
    f3r = next(f for f in s.fronts if f.x0 == -0.5 and f.direction > 0)
    assert f3r.blocked and f3r.cause == "wake" and f3r.x_end == 0.0
    # x=0 was never crossed: both arrivals there were blocked
    assert s.Z(0.0, 2.9) == 1.0
    assert s.Z(-0.25, 2.9) == pytest.approx(0.775)
    assert s.D(0.3, 2.9) == (0.0, 2.0)


def test_absorbed_mark():
    # barrier [0.9, 1.8) at a point whose Z is already 1: second mark at the
    # same spot finds Z=1 under an active barrier and is absorbed
    s = simulate_alffp_p(
        1.0, 2.0, 3.0, marks=[Mark(0.5, 0.9), Mark(0.5, 1.5)]
    )
    assert [e.cause for e in s.events if e.kind == EVENT_MARK] == ["micro", "absorbed"]
    assert len(s.fronts) == 0
    assert len(s.barriers) == 1


def test_barrier_stacking_keeps_history():
    s = simulate_alffp_p(
        1.0, 2.0, 3.0, marks=[Mark(0.5, 0.3), Mark(0.5, 0.5)]
    )
    # first mark: barrier [0.3, 0.6); second stacks 0.5 on top: [0.5, 1.1)
    assert s.H(0.5, 0.4) == pytest.approx(0.2)
    assert s.H(0.5, 0.55) == pytest.approx(0.55)
    assert s.H(0.5, 0.9) == pytest.approx(0.2)
    assert s.H(0.5, 1.1) == 0.0
    expiries = [e for e in s.events if e.kind == EVENT_BARRIER_EXPIRY]
    assert len(expiries) == 1 and expiries[0].t == pytest.approx(1.1)
    assert [e.cause for e in s.events if e.kind == EVENT_MARK] == ["micro", "extended"]


def test_mark_in_wake_leaves_barrier():
    s = simulate_lffp_0(1.0, 2.0, marks=[Mark(0.0, 1.5), Mark(0.3, 1.8)])
    # the sweep at 1.5 reset x=0.3, so the second mark finds Z=0.3
    assert [e.cause for e in s.events if e.kind == EVENT_MARK] == ["macro", "micro"]
    assert s.H(0.3, 1.9) == pytest.approx(0.2)


# -- LFFP(0) --------------------------------------------------------------------


def test_instant_sweep_resets_whole_cluster():
    s = simulate_lffp_0(1.0, 2.0, marks=[Mark(0.0, 1.5)])
    assert s.D(0.0, 1.4) == (-1.0, 1.0)
    for x in (-0.9, -0.3, 0.4, 0.99):
        assert s.reset_time(x, 2.0) == 1.5
    assert s.Z(0.5, 1.4) == 1.0
    assert s.Z(0.5, 1.6) == pytest.approx(0.1)
    assert s.D(0.0, 1.7) == (0.0, 0.0)
    ev = s.events[0]
    assert ev.cause == "macro" and ev.data == (-1.0, 1.0)


def test_sweep_bounded_by_active_barrier():
    s = simulate_lffp_0(1.0, 2.0, marks=[Mark(0.5, 0.8), Mark(0.0, 1.2)])
    macro = next(e for e in s.events if e.cause == "macro")
    assert macro.data == (-1.0, 0.5)
    assert s.reset_time(0.2, 2.0) == 1.2
    assert s.reset_time(0.7, 2.0) == 0.0
    assert len(s.fronts) == 0


# -- invariants on random realizations -------------------------------------------


def stopped_front(state, ev):
    return next(
        f
        for f in state.fronts
        if not f.alive and f.t_end == ev.t and f.x_end == ev.x and f.cause == ev.cause
    )


def check_event_log(state):
    times = [e.t for e in state.events]
    assert times == sorted(times)
    for e in state.events:
        assert 0.0 <= e.t <= state.T
        assert e.kind in (
            EVENT_BARRIER_EXPIRY,
            EVENT_FRONT_MEET,
            EVENT_FRONT_STOP,
            EVENT_MARK,
        )
        if e.kind != EVENT_FRONT_STOP:
            continue
        if e.cause == "edge":
            assert abs(e.x) == state.A
        elif e.cause == "barrier":
            assert any(
                b.x == e.x and b.create < e.t < b.expiry for b in state.barriers
            )
        else:
            f = stopped_front(state, e)
            ok = False
            for g in state.fronts:
                if g is f:
                    continue
                if g.direction == f.direction:
                    ok = ok or (g.x0 == e.x and e.t - 1.0 < g.t0 < e.t)
                elif not g.alive or g.t_end <= e.t:
                    ok = ok or (g.x_end == e.x and g.t_end > e.t - 1.0)
            assert ok, f"unjustified wake stop at ({e.x}, {e.t})"


@pytest.mark.parametrize("seed", range(20))
def test_random_realizations_p_positive(seed):
    s = simulate_alffp_p(1.0, 2.0, 2.0, seed=seed)
    check_event_log(s)
    for i in range(9):
        x = -2.0 + 0.5 * i
        for t in (0.5, 1.0, 1.7, 2.0):
            z = s.Z(x, t)
            assert 0.0 <= z <= 1.0
            lo, hi = s.D(x, t)
            assert -2.0 <= lo <= x <= hi <= 2.0
    # meet events kill exactly two fronts each
    for e in s.events:
        if e.kind == EVENT_FRONT_MEET:
            pair = [f for f in s.fronts if f.t_end == e.t and f.cause == "meet"]
            assert len(pair) == 2
            assert {f.direction for f in pair} == {-1, 1}


@pytest.mark.parametrize("seed", range(10))
def test_random_realizations_p_zero(seed):
    s = simulate_lffp_0(2.0, 2.0, seed=seed + 100)
    assert len(s.fronts) == 0
    check_event_log(s)
    for sw in s.sweeps:
        assert -2.0 <= sw.lo < sw.hi <= 2.0
    for x in (-1.5, 0.0, 0.8):
        for t in (0.9, 1.5, 2.0):
            assert 0.0 <= s.Z(x, t) <= 1.0


@pytest.mark.parametrize("seed", range(10))
def test_regrowth_has_unit_slope(seed):
    s = simulate_alffp_p(1.0, 2.0, 2.0, seed=seed + 40)
    stream = RngStream(seed, 991)
    for _ in range(50):
        x = -2.0 + 4.0 * stream.next_unit()
        t = 1.9 * stream.next_unit()
        dt = 0.05
        if s.reset_time(x, t) != s.reset_time(x, t + dt):
            continue  # a reset lands inside the increment
        za, zb = s.Z(x, t), s.Z(x, t + dt)
        if zb < 1.0:
            assert zb - za == pytest.approx(dt, abs=1e-9)
        else:
            assert zb >= za


@pytest.mark.parametrize("seed", range(10))
def test_barrier_height_equals_z_at_creation(seed):
    s = simulate_alffp_p(1.0, 2.0, 2.0, seed=seed + 70)
    for e in s.events:
        if e.kind == EVENT_MARK and e.cause == "micro":
            (z,) = e.data
            assert s.H(e.x, e.t) == pytest.approx(z)
            assert any(
                b.x == e.x and b.create == e.t and b.expiry == pytest.approx(e.t + z)
                for b in s.barriers
            )


def test_determinism_from_seed():
    a = simulate_alffp_p(0.7, 2.0, 2.0, seed=1234, stream_id=5)
    b = simulate_alffp_p(0.7, 2.0, 2.0, seed=1234, stream_id=5)
    assert a.marks == b.marks
    assert kinds(a) == kinds(b)


def test_small_p_approaches_instant_sweeps():
    marks = [Mark(0.6, 1.2), Mark(0.0, 1.5)]
    s0 = simulate_lffp_0(2.0, 3.0, marks=marks)
    for p in (0.1, 0.01):
        sp = simulate_alffp_p(p, 2.0, 3.0, marks=marks)
        for x in (-1.0, -0.3, 0.4, 1.1):
            for t in (1.0, 1.8, 2.5):
                # fronts lag the sweep by at most p * |box|
                assert abs(sp.Z(x, t) - s0.Z(x, t)) <= 4.0 * p + 1e-12


def test_query_limit_bundle():
    s = simulate_alffp_p(1.0, 2.0, 3.0, marks=[Mark(0.5, 0.7)])
    obs = s.query(0.5, 1.0)
    assert isinstance(obs, LimitObservables)
    assert obs.Z == 1.0
    assert obs.H == pytest.approx(0.4)
    assert obs.D == (0.5, 0.5)


def _edge_grid(s):
    """A grid through every time at which Z(0, .) or D(0, .) can change: the
    marks, front launches, deaths and crossings of 0, sweeps and barrier
    windows, each also one time unit later, when its reset heals."""
    times = {0.0, s.T, 0.4, 1.0 + 1e-12}
    times.update(m.t for m in s.marks)
    for f in s.fronts:
        times.update((f.t0, f.t_end))
        crossing = s._crossing(f, 0.0, math.inf)
        if crossing is not None:
            times.add(crossing)
    times.update(w.t for w in s.sweeps)
    for b in s.barriers:
        times.update((b.create, b.expiry))
    times |= {t + 1.0 for t in times}
    return sorted(t for t in times if 0.0 <= t <= s.T)


def assert_trajectory_equals_queries(s):
    grid = _edge_grid(s)
    traj = s.trajectory(grid)
    assert traj.times.tolist() == grid
    assert repr(traj.values.tolist()) == repr([s.Z(0.0, t) for t in grid])
    assert repr(traj.intervals) == repr([s.D(0.0, t) for t in grid])
    return traj


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0])
def test_trajectory_equals_state_queries(p):
    for A in (2.0, 40.0):
        distinct = set()
        for seed in range(10):
            traj = assert_trajectory_equals_queries(simulate_alffp_p(p, A, 3.0, seed=13 + seed))
            # every trajectory has a cluster; a few have just one interval
            assert len(set(traj.intervals)) > (2 if seed == 0 else 1)
            distinct.update(traj.intervals)
        assert len(distinct) > 20


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_trajectory_equals_state_queries_on_lattice_ties(p):
    # marks on half-integers, 0 included, at quarter-integer times: fronts
    # reach 0, barriers sit on it and resets heal exactly at grid points
    # (half of the boxes have an int A, which a state holds as a float)
    rng = random.Random(int(p * 4) + 1)
    for k in range(40):
        cells = sorted(
            (0.25 * rng.randint(0, 16), 0.5 * rng.randint(-4, 4))
            for _ in range(rng.randint(1, 24))
        )
        assert_trajectory_equals_queries(
            simulate_alffp_p(p, (2.0, 2)[k % 2], 4.0, marks=[Mark(x, t) for t, x in cells])
        )


def _signed_zero_sets(p):
    """40 lattice mark sets on [-2, 2] x [0, 4] whose x = 0 is 0.0 or -0.0
    at random: a wake edge or a sweep bound then sits at -0.0, and the
    reprs tell it from 0.0."""
    rng = random.Random(int(p * 4) + 11)
    for _ in range(40):
        cells = sorted(
            (0.25 * rng.randint(0, 16), 0.5 * rng.randint(-4, 4))
            for _ in range(rng.randint(1, 24))
        )
        yield [Mark(x or rng.choice((0.0, -0.0)), t) for t, x in cells]


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0])
def test_trajectory_keeps_the_sign_of_zero_bounds(p):
    signed = 0
    for marks in _signed_zero_sets(p):
        traj = assert_trajectory_equals_queries(simulate_alffp_p(p, 2.0, 4.0, marks=marks))
        signed += sum(
            math.copysign(1.0, bound) < 0.0
            for z, interval in zip(traj.values, traj.intervals) if z == 1.0
            for bound in interval if bound == 0.0
        )
    assert signed > 0


@pytest.mark.parametrize("loop", ["c", "python"])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0])
def test_cluster_equals_the_frozen_scans(p, loop):
    # D and trajectory read one cluster scan, so each is held to the frozen
    # oracle's own scans: at random points, at every mark and along the
    # edge grid at 0, on Poisson, lattice-tie and signed-zero runs
    if loop == "c" and not COMPILED:
        pytest.skip(f"C core unavailable: {FALLBACK_REASON}")
    run = _run_alffp_c if loop == "c" else _run_alffp_py
    rng = random.Random(int(p * 4) + 21)
    runs = [(A, poisson_rectangle(RngStream(seed, int(A)), -A, A, 0.0, 4.0))
            for A in (2.0, 6.0) for seed in range(4)]
    # half of the lattice boxes have an int A, which a state holds as a float
    runs += [(A if k % 2 else int(A), marks)
             for k, (A, marks) in enumerate(_lattice_sets(p, 40))]
    runs += [(2.0, marks) for marks in _signed_zero_sets(p)]
    points = signed = 0
    for A, marks in runs:
        state = LimitStateP(p, A, 4.0, _validate_marks(marks, A, 4.0))
        run(state)
        grid = _edge_grid(state)
        queries = [(rng.uniform(-A, A), rng.uniform(0.0, 4.0)) for _ in range(40)]
        queries += [(m.x, m.t) for m in state.marks] + [(0.0, t) for t in grid]
        want = [_D(state, x, t) for x, t in queries]
        assert [repr(state.D(x, t)) for x, t in queries] == [repr(d) for d in want]
        assert repr(state.trajectory(grid).intervals) == repr(want[-len(grid):])
        points += len(queries)
        signed += sum(repr(bound) == "-0.0" for d in want for bound in d)
    assert points > 5000 and signed > 0


def test_inf_trajectory_has_intervals_and_nan_values():
    s = simulate_lffp_inf(0.5, 2.0, 3.0, seed=11)
    grid = [0.0, 0.9, 1.0, 1.6, 3.0]
    traj = s.trajectory(grid)
    assert traj.times.tolist() == grid
    assert traj.intervals == [s.D(0.0, t) for t in grid]
    assert len(set(traj.intervals)) > 2
    assert all(math.isnan(v) for v in traj.values)


def test_inf_trajectory_equals_state_queries():
    # lattice marks, x = 0 as 0.0 or -0.0 at random and some on the box
    # edges, queried at every tau and 2 tau and between them; half of the
    # boxes have an int A, which a state holds as a float.  A barrier active
    # at -0.0 stands at the origin, so the cluster there is (0.0, 0.0)
    rng = random.Random(23)
    signed = 0
    for k in range(60):
        cells = sorted(
            (0.25 * rng.randint(0, 12), 0.5 * rng.randint(-4, 4))
            for _ in range(rng.randint(0, 20))
        )
        marks = [Mark(x or rng.choice((0.0, -0.0)), t) for t, x in cells]
        s = simulate_lffp_inf(rng.choice((0.0, 0.5, 0.75, 1.0)), (2.0, 2)[k % 2], 4.0,
                              marks=marks)
        grid = sorted(
            {0.125 * i for i in range(33)}
            | {m.t for m in s.marks}
            | {2.0 * m.t for m in s.marks if 2.0 * m.t <= 4.0}
        )
        traj = s.trajectory(grid)
        assert traj.times.tolist() == grid
        assert repr(traj.intervals) == repr([s.D(0.0, t) for t in grid])
        for t, interval in zip(grid, traj.intervals):
            if any(repr(b.x) == "-0.0" and b.create <= t < b.expiry for b in s.barriers):
                assert repr(interval) == "(0.0, 0.0)"
                signed += 1
    assert signed > 0
    with pytest.raises(ValueError):
        s.trajectory([1.0, 4.5])


def test_mark_validation_keeps_float_marks_and_rebuilds_the_rest():
    class Point:
        x = 0.25
        t = 2.5

    kept = Mark(0.5, 1.0)
    given = [kept, Mark(np.float64(-0.5), 1.5), Mark(1, 2), Point()]
    out = _validate_marks(given, 1.0, 3.0)
    assert out is not given
    assert out == [Mark(0.5, 1.0), Mark(-0.5, 1.5), Mark(1.0, 2.0), Mark(0.25, 2.5)]
    assert all(type(m) is Mark and type(m.x) is float and type(m.t) is float for m in out)
    assert len(given) == 4 and type(given[2].x) is int


@pytest.mark.parametrize("rows", [
    [(0.0, 1.0), (0.1, 0.5)],
    [(0.0, 1.0), (2.5, 1.5)],
    [(0.0, -0.5), (0.0, 1.0)],
    [(0.0, 1.0), (0.0, 3.5)],
    [(0.0, 2.0), (2.5, 1.0)],  # unsorted, and outside the box, at one mark
    [(0.0, 1.0), (math.nan, 1.5)],
    [(0.0, math.nan), (0.0, 1.0)],
    [(0.0, 1.0), (0.0, math.nan), (0.0, 0.5)],
    [(-math.inf, 1.0)],
])
def test_markset_validation_raises_the_list_path_error(rows):
    marks = MarkSet(rows)
    with pytest.raises(ValueError) as as_list:
        _validate_marks([Mark(x, t) for x, t in rows], 2.0, 3.0)
    with pytest.raises(ValueError) as as_set:
        _validate_marks(marks, 2.0, 3.0)
    assert str(as_set.value) == str(as_list.value)


def test_markset_validation_returns_the_markset_itself():
    marks = MarkSet([(-2.0, 0.0), (2.0, 0.0), (-0.0, 1.5), (0.5, 3.0)])
    assert _validate_marks(marks, 2.0, 3.0) is marks
    empty = MarkSet()
    assert _validate_marks(empty, 2.0, 3.0) is empty
    state = simulate_alffp_p(1.0, 2.0, 3.0, marks=marks)
    assert state.marks is marks
    assert state.events == simulate_alffp_p(1.0, 2.0, 3.0, marks=list(marks)).events


def _mixed_marks():
    """A sorted list of Marks whose fields are Python floats, np.float64 or
    ints, on [-6, 6] x [0, 3]."""
    drawn = poisson_rectangle(RngStream(19, 0), -6.0, 6.0, 0.0, 3.0)
    marks = [Mark(np.float64(m.x), np.float64(m.t)) if k % 2 else m for k, m in enumerate(drawn)]
    return sorted(marks + [Mark(-1, 1), Mark(3, 2), Mark(0, 3)], key=lambda m: m.t)


@pytest.mark.parametrize("loop", ["c", "python"])
def test_a_list_of_marks_runs_as_its_markset(loop, monkeypatch):
    if loop == "c" and not COMPILED:
        pytest.skip(f"C core unavailable: {FALLBACK_REASON}")
    monkeypatch.setattr(limits, "_run_alffp", _run_alffp_c if loop == "c" else _run_alffp_py)
    given = _mixed_marks()
    as_set = MarkSet([(m.x, m.t) for m in given])
    grid = [0.25 * k for k in range(13)]
    for simulate in (lambda marks: simulate_alffp_p(1.0, 6.0, 3.0, marks=marks),
                     lambda marks: simulate_alffp_p(0.5, 6, 3, marks=marks),
                     lambda marks: simulate_lffp_0(6.0, 3.0, marks=marks)):
        state, want = simulate(given), simulate(as_set)
        assert type(state.marks) is MarkSet and state.marks == given
        assert len(state.events) > len(given)
        assert (outcome(state), state.stats()) == (outcome(want), want.stats())
        assert repr(state.trajectory(grid)) == repr(want.trajectory(grid))
    state, want = (simulate_lffp_inf(0.5, 6.0, 3.0, marks=marks) for marks in (given, as_set))
    assert type(state.marks) is MarkSet and state.marks == given
    assert (repr(state.events), state.barriers) == (repr(want.events), want.barriers)
    assert repr(state.trajectory(grid)) == repr(want.trajectory(grid))
    assert type(given[-1].x) is int and type(given[1].x) is np.float64


# each case's first offending mark, with the message it is refused with
_BAD_MARKS = [
    ([(0.0, 1.0), (0.5, 2.0), (0.1, 1.5), (3.0, 2.5)], "mark set must be sorted by time"),
    ([(0.0, 1.0), (2.5, 1.5), (-3.0, 2.0)], "mark at x=2.5 outside the box [-2.0, 2.0]"),
    ([(-2.0, 0.0), (-2.25, 0.5)], "mark at x=-2.25 outside the box [-2.0, 2.0]"),
    ([(0.0, -0.5), (0.0, 1.0)], "mark at t=-0.5 outside the time window [0, 3.0]"),
    ([(0.0, 1.0), (0.0, 3.5), (0.0, 4.0)], "mark at t=3.5 outside the time window [0, 3.0]"),
    ([(0.0, 1.0), (math.nan, 1.5), (0.0, 1.0)], "mark at x=nan outside the box [-2.0, 2.0]"),
    ([(0.0, math.nan), (5.0, 1.0)], "mark at t=nan outside the time window [0, 3.0]"),
]


@pytest.mark.parametrize("rows, message", _BAD_MARKS)
def test_bad_marks_name_their_first_offending_mark(rows, message):
    for simulate in (lambda marks: simulate_alffp_p(1.0, 2.0, 3.0, marks=marks),
                     lambda marks: simulate_lffp_0(2.0, 3.0, marks=marks),
                     lambda marks: simulate_lffp_inf(0.5, 2.0, 3.0, marks=marks)):
        for marks in ([Mark(x, t) for x, t in rows], MarkSet(rows)):
            with pytest.raises(ValueError) as refused:
                simulate(marks)
            assert str(refused.value) == message


def test_limit_event_fields_and_defaults():
    e = LimitEvent(1.5, EVENT_MARK, -0.25, "micro")
    assert (e.t, e.kind, e.x, e.cause, e.data) == (1.5, EVENT_MARK, -0.25, "micro", ())
    assert e == LimitEvent(t=1.5, kind=EVENT_MARK, x=-0.25, cause="micro", data=())
    assert repr(e) == "LimitEvent(t=1.5, kind=3, x=-0.25, cause='micro', data=())"


def test_mark_validation():
    with pytest.raises(ValueError, match="sorted"):
        simulate_alffp_p(1.0, 2.0, 3.0, marks=[Mark(0.0, 1.0), Mark(0.1, 0.5)])
    with pytest.raises(ValueError, match="outside the box"):
        simulate_alffp_p(1.0, 2.0, 3.0, marks=[Mark(2.5, 1.0)])
    with pytest.raises(ValueError, match="time window"):
        simulate_alffp_p(1.0, 2.0, 3.0, marks=[Mark(0.0, 3.5)])
    with pytest.raises(ValueError, match="nonnegative"):
        simulate_alffp_p(-0.1, 2.0, 3.0, marks=[])
    with pytest.raises(ValueError, match="positive"):
        simulate_alffp_p(1.0, 0.0, 3.0, marks=[])
    with pytest.raises(ValueError, match="marks or a seed"):
        simulate_alffp_p(1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="outside the box"):
        s = simulate_alffp_p(1.0, 2.0, 3.0, marks=[])
        s.Z(2.1, 1.0)
    with pytest.raises(ValueError, match="simulated window"):
        s = simulate_alffp_p(1.0, 2.0, 3.0, marks=[])
        s.Z(0.0, 3.1)


@pytest.mark.parametrize("A, T", [(math.nan, 3.0), (math.inf, 3.0), (2.0, math.nan),
                                  (2.0, math.inf)])
def test_simulators_refuse_a_window_that_is_not_finite(A, T):
    for simulate in (lambda: simulate_alffp_p(1.0, A, T, marks=[]),
                     lambda: simulate_lffp_0(A, T, seed=1),
                     lambda: simulate_lffp_inf(0.5, A, T, marks=[])):
        with pytest.raises(ValueError, match="non-finite rectangle"):
            simulate()


# -- the event queue against the frozen rescan oracle ------------------------------


def outcome(state):
    """Everything the scheduling decides, as exact reprs."""
    fronts = [(f.t_end, f.x_end, f.blocked, f.cause) for f in state.fronts]
    return (
        repr(state.events),
        repr(fronts),
        repr(state.barriers),
        repr(state.sweeps),
        repr(state.D(0.0, state.T)),
    )


def assert_matches_oracle(p, A, T, marks=None, seed=None, stream_id=0):
    state = simulate_alffp_p(p, A, T, marks=marks, seed=seed, stream_id=stream_id)
    oracle = reference_alffp(p, A, T, marks=marks, seed=seed, stream_id=stream_id)
    assert outcome(state) == outcome(oracle)
    return state


# a front meets an active barrier at the instant of another, earlier-keyed event
PASS_THROUGH = [(-0.5, 1.25), (0.0, 2.0), (-1.0, 2.0), (0.0, 2.25), (-0.5, 2.5),
                (0.5, 3.0), (0.0, 3.5), (-1.0, 3.5), (0.0, 4.0)]

HAND_MADE = [
    (1.0, 2.0, 3.0, []),
    (1.0, 2.0, 3.0, [(0.5, 0.7)]),
    (0.5, 2.0, 3.0, [(0.0, 1.5)]),
    (0.5, 4.0, 3.0, [(-1.0, 1.0), (1.0, 1.0)]),
    (0.5, 2.0, 3.0, [(1.0, 0.9), (0.0, 1.2)]),
    (0.5, 2.0, 3.0, [(1.0, 0.8), (0.0, 1.1)]),
    (0.5, 2.0, 3.0, [(0.0, 0.9), (1.0, 1.0), (-0.5, 2.0)]),
    (1.0, 2.0, 3.0, [(0.5, 0.9), (0.5, 1.5)]),
    (1.0, 2.0, 3.0, [(0.5, 0.3), (0.5, 0.5)]),
    (0.0, 1.0, 2.0, [(0.0, 1.5), (0.3, 1.8)]),
    (0.0, 1.0, 2.0, [(0.0, 1.5)]),
    (0.0, 1.0, 2.0, [(0.5, 0.8), (0.0, 1.2)]),
    (0.0, 2.0, 3.0, [(0.6, 1.2), (0.0, 1.5)]),
    (0.1, 2.0, 3.0, [(0.6, 1.2), (0.0, 1.5)]),
    (0.01, 2.0, 3.0, [(0.6, 1.2), (0.0, 1.5)]),
    (0.5, 1.0, 4.0, PASS_THROUGH),
]


@pytest.mark.parametrize("p, A, T, marks", HAND_MADE)
def test_hand_made_sets_match_oracle(p, A, T, marks):
    assert_matches_oracle(p, A, T, marks=[Mark(x, t) for x, t in marks])


@pytest.mark.parametrize("p", [0.0, 1e-3, 0.1, 1.0, 5.0, 1e3, 1e308])
@pytest.mark.parametrize("A", [2.0, 6.0, 10.0, 20.0])
def test_poisson_realizations_match_oracle(p, A):
    for seed in range(2):
        assert_matches_oracle(p, A, 4.0, seed=seed, stream_id=int(A))


def _lattice_sets(p, count=100):
    """(A, marks) on [-A, A] x [0, 4] with x on half-integers and t on
    quarter-integers, which make equal event keys common: fronts reach
    barriers, wakes and the edge at the same instants."""
    rng = random.Random(int(p * 4))
    for _ in range(count):
        A = float(rng.choice([1, 2, 3]))
        cells = sorted(
            (0.25 * rng.randint(0, 16), 0.5 * rng.randint(-2 * int(A), 2 * int(A)))
            for _ in range(rng.randint(1, 16 * int(A)))
        )
        yield A, [Mark(x, t) for t, x in cells]


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0])
def test_lattice_ties_match_oracle(p):
    for A, marks in _lattice_sets(p):
        assert_matches_oracle(p, A, 4.0, marks=marks)


def test_large_box_matches_oracle():
    assert_matches_oracle(1.0, 40.0, 4.0, seed=3)


@pytest.mark.parametrize("p, A, T, seed", [
    *(pytest.param(1.0, 48.0, 4.0, seed, id=str(seed)) for seed in (0, 1, 2)),
    # long runs, whose scans pass many expired barriers and fronts dead for
    # over a time unit
    (0.5, 6.0, 12.0, 19),
    (1.0, 6.0, 12.0, 19),
])
def test_larger_box_matches_oracle(p, A, T, seed):
    assert_matches_oracle(p, A, T, seed=seed)


@pytest.mark.parametrize("loop", ["c", "python"])
@pytest.mark.parametrize("p, A, T", [(0.25, 9.0, 2.0), (0.5, 5.0, 2.0), (1.0, 4.0, 3.0)])
def test_the_box_is_invisible_inside_the_light_cone(p, A, T, loop):
    # no site is occupied before t = 1 and fronts move at speed 1/p, so
    # nothing outside [-A, A] reaches |x| <= r(t) = A - max(t - 1, 0)/p by
    # time t: on the marks of [-2A, 2A] and on those of [-A, A] alone, Z,
    # reset_time and D clipped to [-r(t), r(t)] are the same bits in the
    # cone, which holds [-1, 1] at every t <= T
    if loop == "c" and not COMPILED:
        pytest.skip(f"C core unavailable: {FALLBACK_REASON}")
    run = _run_alffp_c if loop == "c" else _run_alffp_py
    assert A - T / p >= 1.0

    def answers(state, points):
        return [repr((state.Z(x, t), state.reset_time(x, t),
                      tuple(min(max(v, -r), r) for v in state.D(x, t))))
                for x, t, r in points]

    grid = np.linspace(0.0, T, 65).tolist()
    cone = [(f * r, t, r) for t in grid for r in [A - max(t - 1.0, 0.0) / p]
            for f in (-1.0, -0.5, 0.0, 0.4, 1.0)]
    edges = [(x, t, A) for t in grid for x in (-A, A)]
    clustered = edge_differs = 0
    for stream in range(12):
        rows = poisson_rectangle(RngStream(5, stream), -2 * A, 2 * A, 0.0, T).array
        states = []
        for box, marks in ((A, MarkSet(rows[np.abs(rows[:, 0]) <= A])), (2 * A, MarkSet(rows))):
            states.append(LimitStateP(p, box, T, _validate_marks(marks, box, T)))
            run(states[-1])
        small, big = states
        assert answers(small, cone) == answers(big, cone), stream
        clustered += sum(lo < hi for lo, hi in (small.D(x, t) for x, t, _ in cone))
        edge_differs += answers(small, edges) != answers(big, edges)
    # the cone holds clusters, and the box does show at its own edges
    assert clustered > 500 and edge_differs >= 6


GOLDEN_STATS = json.loads((Path(__file__).parent / "limit_stats_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_STATS, ids=lambda c: f"p{c['p']}-A{c['A']}-s{c['seed']}")
def test_stats_equal_the_recorded_runs(case):
    # the counters of the queue and of the event log, recorded at T=4 from
    # the engine that tested every open barrier and recent front: equal
    # counts mean the same candidates were queued
    stats = simulate_alffp_p(case["p"], case["A"], 4.0, seed=case["seed"]).stats()
    assert {key: stats[key] for key in case["stats"]} == case["stats"]


def test_front_stops_at_barrier_despite_simultaneous_event():
    # the right front launched at (-0.5, 2.5) reaches the barrier at x=0,
    # active on [2.25, 3.25), at t=2.75; its twin's edge stop has the same
    # time and a smaller key, and after it the front sits exactly on x=0,
    # which still counts as ahead of the barrier, so it stops there
    s = simulate_alffp_p(0.5, 1.0, 4.0, marks=[Mark(x, t) for x, t in PASS_THROUGH])
    f = next(f for f in s.fronts if f.t0 == 2.5 and f.direction > 0)
    assert (f.t_end, f.x_end, f.cause) == (2.75, 0.0, "barrier")


def test_stats_are_deterministic_and_count_every_event():
    a = simulate_alffp_p(1.0, 6.0, 3.0, seed=11)
    b = simulate_alffp_p(1.0, 6.0, 3.0, seed=11)
    assert a.stats() == b.stats()
    stats = a.stats()
    assert sum(stats["events_by_cause"].values()) == len(a.events)
    assert set(stats["events_by_cause"]) <= {
        "macro", "micro", "extended", "absorbed", "expiry", "meet", "barrier", "wake", "edge"
    }
    assert stats["candidates_queued"] >= len(a.events)
    assert stats["queue_peak"] <= stats["candidates_queued"]
    s0 = simulate_lffp_0(6.0, 3.0, seed=11)
    assert sum(s0.stats()["events_by_cause"].values()) == len(s0.events)


@pytest.mark.parametrize("loop", ["c", "python"])
def test_candidate_tests_count_every_scanned_entry(loop):
    # fronts 0 (+1) and 1 (-1) launch at (-8, 1.0), 2 (+1) and 3 (-1) at
    # (8, 1.5).  Front 0 has nothing before it, and front 1 only its twin:
    # 0 tests.  Front 2 tests front 0's wake both ways (launched under a
    # time unit ago, alive) and a meet with front 1: 3.  Front 3 tests a
    # meet with front 0 and front 1's wake both ways, and skips its twin:
    # 3.  Front 1's edge stop at t=3 tests the live rightward fronts 0 and
    # 2: 2.  Front 2's at t=3.5 tests the live leftward front 3: 1.  Fronts
    # 0 and 3 would meet at t=9.25, past T.  9 in all.
    if loop == "c" and not COMPILED:
        pytest.skip(f"C core unavailable: {FALLBACK_REASON}")
    marks = [Mark(-8.0, 1.0), Mark(8.0, 1.5)]
    state = LimitStateP(1.0, 10.0, 4.0, _validate_marks(marks, 10.0, 4.0))
    (_run_alffp_c if loop == "c" else _run_alffp_py)(state)
    assert outcome(state) == outcome(reference_alffp(1.0, 10.0, 4.0, marks=marks))
    assert state.stats()["candidate_tests"] == 9


def test_queue_work_grows_near_linearly_in_the_box():
    # a rescan of every front pair after every event grew about 8x per
    # doubling of A; candidates derived once grow about 2x
    queued = [
        simulate_alffp_p(1.0, A, 4.0, seed=0).stats()["candidates_queued"]
        for A in (20.0, 40.0)
    ]
    assert queued[1] < 5 * queued[0]


# -- slow-regime limit ------------------------------------------------------------


def test_temporary_feature_window():
    s = simulate_lffp_inf(0.6, 1.0, 2.0, marks=[Mark(0.3, 0.4)])
    assert s.Y(0.3, 0.4) == pytest.approx(0.4)
    assert s.Y(0.3, 0.5) == pytest.approx(0.3)
    assert s.Y(0.3, 0.8) == 0.0  # active window is [0.4, 0.8)
    assert s.Y(0.3, 0.3) == 0.0
    assert s.Y(0.0, 0.5) == 0.0


def test_permanent_feature():
    s = simulate_lffp_inf(0.6, 1.0, 2.0, marks=[Mark(0.3, 0.7)])
    assert s.Y(0.3, 0.7) == 1.0
    assert s.Y(0.3, 1.9) == 1.0
    assert s.Y(0.3, 0.65) == 0.0


def test_cluster_bounded_by_features():
    s = simulate_lffp_inf(
        0.5, 2.0, 3.0, marks=[Mark(-0.4, 1.0), Mark(0.9, 1.1)]
    )
    assert s.D(0.0, 2.0) == (-0.4, 0.9)
    lo, hi = s.D(0.0, 2.0)
    assert hi - lo == pytest.approx(1.3)
    assert s.D(0.0, 0.9) == (0.0, 0.0)  # singleton before time 1
    assert s.D(0.9, 2.0) == (0.9, 0.9)  # a feature point is its own cluster
    assert s.D(1.5, 2.0) == (0.9, 2.0)  # clipped at the box edge
    assert s.D(-1.0, 2.0) == (-2.0, -0.4)


def test_temporary_feature_blocks_then_expires():
    s = simulate_lffp_inf(0.8, 2.0, 3.0, marks=[Mark(0.5, 0.7)])
    assert s.D(0.0, 1.2) == (-2.0, 0.5)  # active until 1.4
    assert s.D(0.0, 1.5) == (-2.0, 2.0)


def test_inf_event_log_and_validation():
    s = simulate_lffp_inf(
        0.5, 2.0, 3.0, marks=[Mark(0.3, 0.2), Mark(-1.0, 0.9)]
    )
    assert [(e.t, e.cause) for e in s.events] == [
        (0.2, "temporary"),
        (0.4, "expiry"),
        (0.9, "permanent"),
    ]
    with pytest.raises(ValueError, match="z0"):
        simulate_lffp_inf(1.2, 2.0, 3.0, marks=[])
    with pytest.raises(ValueError, match="marks or a seed"):
        simulate_lffp_inf(0.5, 2.0, 3.0)


def test_cluster_length_sampler_matches_gamma_law():
    # at t > 2*z0 active features are Poisson with intensity t - z0, so the
    # cluster length is a sum of two exponential gaps: Gamma(2, rate t - z0)
    z0, t = 0.5, 2.0
    rate = t - z0
    stream = RngStream(777, 0)
    n = 20000
    draws = sample_cluster_lengths_inf(z0, t, stream, n)
    mean = sum(draws) / n
    # E = 2/rate = 4/3, Var = 2/rate^2; allow 4 standard errors
    se = math.sqrt(2.0 / rate**2 / n)
    assert abs(mean - 4.0 / 3.0) < 4.0 * se
    # crude distribution check: exact sup-distance to the Gamma(2, rate) cdf
    draws.sort()
    ks = 0.0
    for k, v in enumerate(draws):
        cdf = 1.0 - math.exp(-rate * v) * (1.0 + rate * v)
        ks = max(ks, abs((k + 1) / n - cdf), abs(k / n - cdf))
    assert ks < 1.63 / math.sqrt(n)  # alpha = 0.01 asymptotic band
    with pytest.raises(ValueError, match="t > 2"):
        sample_cluster_lengths_inf(0.5, 1.0, stream, 1)


@pytest.mark.parametrize("z0", [-1.0, 1.5, math.nan])
def test_cluster_lengths_refuse_a_z0_outside_the_unit_interval(z0):
    # simulate_lffp_inf's refusal, before the t > 2*z0 check and any draw
    stream = RngStream(777, 0)
    for t in (1.0, 4.0):
        with pytest.raises(ValueError) as refused:
            sample_cluster_lengths_inf(z0, t, stream, 10)
        assert str(refused.value) == "z0 must lie in [0, 1]"
        with pytest.raises(ValueError) as refused:
            simulate_lffp_inf(z0, 2.0, t, marks=[])
        assert str(refused.value) == "z0 must lie in [0, 1]"
    assert stream._index == 0


@pytest.mark.parametrize("z0", [0.0, 1.0])
def test_cluster_lengths_run_at_the_ends_of_the_unit_interval(z0):
    a, b = RngStream(7, 0), RngStream(7, 0)
    rate = 2.5 - z0
    lengths = sample_cluster_lengths_inf(z0, 2.5, a, 50)
    assert lengths == [exp_sample(b, rate) + exp_sample(b, rate) for _ in range(50)]


def test_inf_determinism_and_random_draws():
    a = simulate_lffp_inf(0.5, 2.0, 2.0, seed=9, stream_id=3)
    b = simulate_lffp_inf(0.5, 2.0, 2.0, seed=9, stream_id=3)
    assert a.marks == b.marks
    for m in a.marks:
        assert -2.0 <= m.x <= 2.0 and 0.0 <= m.t <= 2.0


def _inf_state(core, z0, A, T, marks):
    """simulate_lffp_inf's state, answering from fl_limit_query's rows on
    the C core, or from the Python scans with its rows dropped."""
    if core == "c" and not COMPILED:
        pytest.skip(f"C core unavailable: {FALLBACK_REASON}")
    state = simulate_lffp_inf(z0, A, T, marks=marks)
    assert (state._lffp._buffer is not None) == COMPILED
    if core == "python":
        state._lffp._buffer = None
    return state


@pytest.mark.parametrize("core", ["c", "python"])
def test_slow_limit_equals_the_frozen_feature_rule(core):
    # drawn marks: the event log, D and Y have the feature rule's bits at
    # random points, at every mark and both box edges, at every tau and
    # 2 tau and at random times, and so has the trajectory at the origin
    rng = random.Random(29)
    points = 0
    for seed in range(200):
        for A in (2, 2.0):
            marks = poisson_rectangle(RngStream(seed, 0), -A, A, 0.0, 3.0)
            for z0 in (0.0, 0.25, 0.5, 1.0):
                state = _inf_state(core, z0, A, 3.0, marks)
                features = reference_inf_features(z0, marks)
                assert repr(state.events) == repr(reference_inf_events(features, 3.0))
                times = sorted({f.tau for f in features}
                               | {2.0 * f.tau for f in features if 2.0 * f.tau <= 3.0}
                               | {0.0, rng.uniform(0.0, 3.0), rng.uniform(1.0, 3.0), 3.0})
                xs = [-2.0, 2.0, rng.uniform(-2.0, 2.0)]
                queries = [(x, t) for x in xs for t in times]
                queries += [(f.x, t) for f in features for t in (f.tau, 2.0 * f.tau) if t <= 3.0]
                for x, t in queries:
                    assert repr(state.D(x, t)) == repr(reference_inf_D(features, 2.0, x, t))
                    assert repr(state.Y(x, t)) == repr(reference_inf_Y(features, x, t))
                traj = state.trajectory(times)
                assert repr(traj.intervals) == repr([reference_inf_D(features, 2.0, 0.0, t)
                                                     for t in times])
                assert np.isnan(traj.values).all()
                points += len(queries) + len(times)
    assert points > 100_000


@pytest.mark.parametrize("core", ["c", "python"])
def test_slow_limit_differs_from_the_frozen_rule_only_at_a_signed_zero_barrier(core):
    # lattice marks with x = 0 as 0.0 or -0.0 at random, queried at every
    # quarter point (both zeros) at every eighth time, so at every tau and
    # 2 tau.  The one allowed difference: where a barrier is active at x the
    # cluster is (x, x), and the feature rule gave the barrier's own point,
    # a zero of the other sign
    rng = random.Random(31)
    signed = 0
    for k in range(60):
        cells = sorted(
            (0.25 * rng.randint(0, 12), 0.5 * rng.randint(-4, 4))
            for _ in range(rng.randint(0, 20))
        )
        marks = [Mark(x or rng.choice((0.0, -0.0)), t) for t, x in cells]
        z0 = rng.choice((0.0, 0.25, 0.5, 0.75, 1.0))
        state = _inf_state(core, z0, (2.0, 2)[k % 2], 4.0, marks)
        features = reference_inf_features(z0, marks)
        assert repr(state.events) == repr(reference_inf_events(features, 4.0))
        times = [0.125 * i for i in range(33)]
        for x in [0.25 * i for i in range(-8, 9)] + [-0.0]:
            for t in times:
                got, want = state.D(x, t), reference_inf_D(features, 2.0, x, t)
                assert repr(state.Y(x, t)) == repr(reference_inf_Y(features, x, t))
                if repr(got) != repr(want):
                    assert got == want and repr(got) == repr((x, x))
                    assert any(b.x == x and b.create <= t < b.expiry for b in state.barriers)
                    signed += 1
        assert repr(state.trajectory(times).intervals) == repr([state.D(0.0, t) for t in times])
    assert signed > 0
