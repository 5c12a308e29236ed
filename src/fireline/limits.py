"""Scaling-limit fire processes on the box [-A, A].

LFFP(p), p > 0: the regrowth field Z_t(x) rises at rate 1 from the last
reset at x, capped at 1.  A mark at (x, tau) acts by the state it finds:
Z < 1 leaves a point barrier at x lasting the current height (stacking on
any active barrier there), Z = 1 with no active barrier launches a pair of
fronts traveling at speed 1/p that reset every point they cross, and Z = 1
over an active barrier is absorbed.  A front dies when it meets an
opposing front (the meeting point is crossed), reaches the box edge (the
edge point is crossed), or arrives at a blocked point: an active barrier,
or a point last reset less than one time unit before arrival (the wake of
another front).  A blocked front does not cross its death point.

LFFP(0): the same mark rules, but a macroscopic mark burns its cluster
D_{t-}(x) instantly, resetting the open interval between the nearest
blockers.  No fronts exist.

The slow-regime limit is the barrier-only case of the same rules: a mark at
(x, tau) leaves a barrier at x, active on [tau, 2*tau) when tau < z0 and
from tau on otherwise, and nothing else.  No fronts or sweeps exist, so the
LFFP(p) queries read its clusters off the nearest active barriers.

Everything is exact event geometry; no time discretization anywhere.

Scheduling.  LFFP(p) runs off a lazy priority queue of candidate events,
keyed (t, kind, x, cause-rank).  Each candidate is derived once, when its
later participant appears: a new front against the box edge, the barriers
not yet expired and the earlier fronts, alive or dead for under a time
unit; a new barrier against the live fronts (plus its own expiry); a
front's death against the live opposing fronts, for its dead wake; the
next mark when the last one is taken.  Each derivation scans the run's
own lists, as a mark's Z, H and at p = 0 D scans do (below), and as the
frozen oracle's rescan does: O(n) for one copy of each rule.  A key never
moves: it is pushed no earlier than the current time (a late candidate
fires at max(v, now)), and v reads only what is fixed by then (a front's
origin, a barrier's point, a dead front's end), so the same tests made at
any current time up to the key derive the key again.  A candidate that
lapses never returns (a front that passes its target is no longer ahead
of it, a dead front stays dead), so the popped head is tested again at
the current time: dropped when it no longer applies, and fired at its key
otherwise.  Equal keys fall back to a fixed list order: the mark;
expiries by barrier index; then per front, by index, its edge, its
barriers by index and its wakes by front index; then meets by front
indices.  Keys are unique, so the order of the pushes does not matter,
and this gives, bit for bit, the log of a full rescan of every candidate
after every event (kept frozen as the test oracle).

The loop exists twice.  _run_alffp_c makes one call of its C twin,
fl_limit_run in _ccore.c, which runs the same queue, scans, tests and
counters with Python's float semantics and writes its events, fronts,
barriers and sweeps as rows; the run builds the state's four lists from
them and keeps the rows.  _run_alffp_py is the Python loop, the fallback
when the compiled library does not load, and fills the lists as it runs.
Either way a state holds its marks as a MarkSet and its four lists.
_run_alffp is chosen at import; the two give the same realization bit for
bit.

Queries.  Z, H, D and reset_time at (x, t) each read one answer: the last
reset at x, H, a macroscopic flag (Z = 1 and no active barrier) and the
cluster bounds.  A state that _run_alffp_c made keeps its whole row
buffer and gets the answer from one call of fl_limit_query; any other
state (the Python loop's, a hand-built one, the frozen oracle's) from
_query, its Python twin, which reads three scans of the state's lists:
_last_reset (the last front crossing or sweep over x), _active_barrier
and, where the cluster is macroscopic, _cluster (the nearest blockers).
The Python loop's marks call the same three scans at (x, now), and
fl_limit_run's marks the C scans of fl_limit_query, so each rule is
written once per core.  fl_limit_query makes the same scans over the rows
in the same order and float expressions, and builds no list; the two give
the same answers bit for bit.  A trajectory reads the answer at each grid
time, a C state's whole grid in one fl_limit_query call.  A state holds
A and T as floats, so a bound at the box edge is the float -A or A
either way.  The slow limit holds a barrier-only LimitStateP, whose row
buffer on C is zeros but for the barrier block, and asks it.
"""

import math
from collections import Counter
from ctypes import byref, c_double
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._clib import lib as _lib
from .rng import Mark, MarkSet, RngStream, exp_samples, poisson_rectangle
from .scales import Trajectory

EVENT_BARRIER_EXPIRY = 0
EVENT_FRONT_MEET = 1
EVENT_FRONT_STOP = 2
EVENT_MARK = 3

# a front stop's cause by its cause-rank, the last key before list order;
# marks, expiries and meets rank 0
_STOP_CAUSES = ("barrier", "wake", "edge")


@dataclass(slots=True)
class LimitEvent:
    """One entry of the event log: what happened, when, where.  A slotted,
    mutable dataclass built positionally: a frozen one costs about four
    times as much to build, and a run logs one per event."""

    t: float
    kind: int
    x: float
    cause: str
    data: Tuple[float, ...] = ()


@dataclass(slots=True)
class _Front:
    x0: float
    t0: float
    direction: int  # +1 rightward, -1 leftward
    alive: bool = True
    t_end: float = math.inf
    x_end: float = math.nan
    blocked: bool = False
    cause: str = ""


@dataclass(slots=True)
class _Barrier:
    x: float
    create: float
    expiry: float
    logged: bool = False


@dataclass(slots=True)
class _Sweep:
    t: float
    lo: float
    hi: float


@dataclass(frozen=True)
class LimitObservables:
    Z: float
    H: float
    D: Tuple[float, float]


def _check_window(A: float, T: float) -> None:
    """The simulators' check of the box and the window.  A non-finite one is
    refused in poisson_rectangle's words, whether or not marks are drawn."""
    if not (math.isfinite(A) and math.isfinite(T)):
        raise ValueError(f"non-finite rectangle [{-A}, {A}] x [0.0, {T}]")
    if not (A > 0.0 and T > 0.0):
        raise ValueError("A and T must be positive")


def check_alffp_p(p: float, A: float, T: float) -> None:
    """Refuse the p, A and T that simulate_alffp_p refuses, with its errors
    and in its order, without running anything: a batch of runs checks them
    once, before it starts any."""
    if not 0.0 <= p < math.inf:
        raise ValueError(f"p must be nonnegative and finite, got {p}")
    _check_window(A, T)


def _window_marks(A: float, T: float, marks, seed, stream_id: int) -> MarkSet:
    """The simulators' validated marks, given or drawn from (seed,
    stream_id), for a box and window the caller has checked."""
    if marks is None:
        if seed is None:
            raise ValueError("either marks or a seed is required")
        marks = poisson_rectangle(RngStream(seed, stream_id), -A, A, 0.0, T)
    return _validate_marks(marks, A, T)


def _validate_marks(marks: Sequence[Mark], A: float, T: float) -> MarkSet:
    """The marks as a MarkSet, checked in one pass over its array: sorted by
    time, inside the box and the window.  A MarkSet is returned as it is;
    any other sequence of marks (anything with x and t) is copied into
    one."""
    if type(marks) is not MarkSet:
        marks = MarkSet([(m.x, m.t) for m in marks])
    rows = marks.array
    x = rows[:, 0]
    t = rows[:, 1]
    # once t is sorted its ends bound it; NaN fails every comparison, so it
    # is refused here too
    if len(rows) and not ((t[1:] >= t[:-1]).all() and 0.0 <= t[0] and t[-1] <= T
                          and -A <= x.min() and x.max() <= A):
        # name the first offending mark
        prev = -math.inf
        for x, t in rows.tolist():
            if t < prev:
                raise ValueError("mark set must be sorted by time")
            prev = t
            if not -A <= x <= A:
                raise ValueError(f"mark at x={x} outside the box [-{A}, {A}]")
            if not 0.0 <= t <= T:
                raise ValueError(f"mark at t={t} outside the time window [0, {T}]")
    return marks


class LimitStateP:
    """A simulated LFFP(p) realization (p = 0 included) with exact queries.

    Built by simulate_alffp_p / simulate_lffp_0.  Fronts, barriers,
    sweeps, and the event log are exposed for inspection; Z, H, D, and
    reset_time answer any (x, t) in the simulated window.

    A C state also keeps fl_limit_run's rows and answers its queries and
    stats() from them, never from the lists: they are for inspection, and
    editing them does not change its answers.
    """

    def __init__(self, p: float, A: float, T: float, marks: MarkSet):
        self.p = p
        self.A = float(A)
        self.T = float(T)
        self.marks = marks
        self.fronts: List[_Front] = []
        self.barriers: List[_Barrier] = []
        self.sweeps: List[_Sweep] = []
        self.events: List[LimitEvent] = []
        # set by _run_alffp_c: (row buffer, its counts), two numpy arrays
        self._buffer: Optional[tuple] = None
        self._queue_counts: dict = {}  # set by the Python loop

    def stats(self) -> dict:
        """Deterministic counters of the run: events by cause; the event
        queue's candidates queued and dropped as stale, and its high-water
        mark (a queued candidate keeps its key); and candidate_tests, the
        stop and meet tests made to derive candidates for new fronts,
        barriers and deaths (every entry of their scans that passes the
        skips: an expired barrier, a dead front for a barrier or a death, a
        front dead over a time unit or a twin for a new front).  A C state
        counts its events by the cause codes of its event rows, without
        building the log."""
        if self._buffer is None:
            causes = Counter(e.cause for e in self.events)
            queue_counts = self._queue_counts
        else:
            rows, counts = self._buffer
            causes = Counter(_EVENT_CODES[code][1] for code in rows[1:5 * counts[0]:5].tolist())
            queue_counts = dict(zip(_QUEUE_COUNTERS, counts[len(_ROW_BLOCKS):].tolist()))
        return {"events_by_cause": dict(sorted(causes.items())), **queue_counts}

    # -- geometry helpers ----------------------------------------------------

    def _crossing(self, f: _Front, x: float, t: float) -> Optional[float]:
        """When front f crossed x, if it did so by time t."""
        if f.direction > 0:
            if x < f.x0:
                return None
            ct = f.t0 + self.p * (x - f.x0)
        else:
            if x > f.x0:
                return None
            ct = f.t0 + self.p * (f.x0 - x)
        if ct > t:
            return None
        if not f.alive:
            if f.blocked:
                # the death point itself is not crossed
                if (f.direction > 0 and x >= f.x_end) or (
                    f.direction < 0 and x <= f.x_end
                ):
                    return None
            elif (f.direction > 0 and x > f.x_end) or (
                f.direction < 0 and x < f.x_end
            ):
                return None
        return ct

    def _last_reset(self, x: float, t: float) -> float:
        """The last reset at x by time t: the latest front crossing of x,
        then the latest sweep over x, or 0.0."""
        crossing = self._crossing
        r = 0.0
        for f in self.fronts:
            ct = crossing(f, x, t)
            if ct is not None and ct > r:
                r = ct
        for s in self.sweeps:
            if s.lo < x < s.hi and r < s.t <= t:
                r = s.t
        return r

    def _active_barrier(self, x: float, t: float) -> Optional[_Barrier]:
        """The barrier active at x at time t with the largest expiry (the
        first in list order on a tie), or None."""
        out = None
        for b in self.barriers:
            if b.x == x and b.create <= t < b.expiry:
                if out is None or b.expiry > out.expiry:
                    out = b
        return out

    def _check_point(self, x: float, t: float) -> None:
        if not -self.A <= x <= self.A:
            raise ValueError(f"x={x} outside the box [-{self.A}, {self.A}]")
        if not 0.0 <= t <= self.T:
            raise ValueError(f"t={t} outside the simulated window [0, {self.T}]")

    def _ask(self, x: float, m: int, times, out) -> None:
        """One fl_limit_query call on a C state: the answers at (x, t) for
        the m times at the pointer times, written to out as rows of five
        doubles (the last reset, H, the macroscopic flag and the cluster
        bounds)."""
        rows, counts = self._buffer
        _lib.fl_limit_query(self.p, self.A, len(rows) // _ROW_WIDTH, rows.ctypes.data,
                            counts.ctypes.data, x, m, times, out)

    def _query(self, x: float, t: float):
        """fl_limit_query's answer at (x, t) from the Python scans: the last
        reset, H, the macroscopic flag (Z = 1 and no active barrier) and the
        cluster bounds, (x, x) when the flag is off."""
        r = self._last_reset(x, t)
        b = self._active_barrier(x, t)
        h = 0.0 if b is None else b.expiry - t
        if t - r < 1.0 or h > 0.0:
            return (r, h, False, x, x)
        return (r, h, True) + self._cluster(x, t)

    def _answer(self, x: float, t: float):
        """The answer at a checked (x, t): one fl_limit_query call on a C
        state, else _query."""
        self._check_point(x, t)
        if self._buffer is None:
            return self._query(x, t)
        out = (c_double * 5)()
        self._ask(x, 1, byref(c_double(t)), out)
        return out

    # -- public queries --------------------------------------------------------

    def reset_time(self, x: float, t: Optional[float] = None) -> float:
        """Time of the last reset at x by time t (default: the horizon)."""
        return self._answer(x, self.T if t is None else t)[0]

    def Z(self, x: float, t: float) -> float:
        return min(t - self._answer(x, t)[0], 1.0)

    def H(self, x: float, t: float) -> float:
        return self._answer(x, t)[1]

    def D(self, x: float, t: float) -> Tuple[float, float]:
        """The macroscopic cluster interval through x at time t."""
        out = self._answer(x, t)  # indexed: unpacking a ctypes array is slow
        return (out[3], out[4]) if out[2] else (x, x)

    def _cluster(self, x: float, t: float) -> Tuple[float, float]:
        """The interval between the nearest blockers around x at time t, inside
        the box: the active barrier points, then the fronts' unhealed wakes
        (where Z_t < 1), then the sweeps of the last time unit, each in list
        order.  A blocker (lo, hi) bounds the interval from the left when
        hi <= x, else from the right when lo >= x; on a tie the first nearest
        blocker in that order is kept (it decides the sign of a zero bound)."""
        p = self.p
        unit_ago = t - 1.0
        lo = -self.A
        hi = self.A
        for b in self.barriers:
            if b.create <= t < b.expiry:
                if b.x <= x:
                    if b.x > lo:
                        lo = b.x
                elif b.x < hi:
                    hi = b.x
        for f in self.fronts:
            t0 = f.t0
            if t0 > t:
                continue
            x0 = f.x0
            # the farthest point f has reached by t, and the travel budget
            # whose crossings have healed; min and max written out, so that
            # a tie keeps the same operand (and the sign of a zero)
            cap = x0 + f.direction * ((f.t_end if f.t_end < t else t) - t0) / p
            healed = unit_ago - t0
            if f.direction > 0:
                if healed >= p * (cap - x0):
                    continue  # entire wake healed
                wlo = x0 + (healed if healed > 0.0 else 0.0) / p
                whi = cap
            else:
                if healed >= p * (x0 - cap):
                    continue
                wlo = cap
                whi = x0 - (healed if healed > 0.0 else 0.0) / p
            if whi <= x:
                if whi > lo:
                    lo = whi
            elif wlo >= x and wlo < hi:
                hi = wlo
        for s in self.sweeps:
            if unit_ago < s.t <= t:
                if s.hi <= x:
                    if s.hi > lo:
                        lo = s.hi
                elif s.lo >= x and s.lo < hi:
                    hi = s.lo
        return (lo, hi)

    def query(self, x: float, t: float) -> LimitObservables:
        return LimitObservables(Z=self.Z(x, t), H=self.H(x, t), D=self.D(x, t))

    def trajectory(self, grid: Sequence[float]) -> Trajectory:
        """Z and D at the origin over a time grid: the values of Z(0, t) and
        D(0, t) at each grid time, from one fl_limit_query call for the
        whole grid on a C state, else from _query at each grid time."""
        times = np.ascontiguousarray(grid, dtype=float)
        if times.size:
            self._check_point(0.0, float(times.min()))
            self._check_point(0.0, float(times.max()))
        out = np.empty((len(times), 5))
        if self._buffer is None:
            for i, t in enumerate(times.tolist()):
                out[i] = self._query(0.0, t)
        else:
            self._ask(0.0, len(times), times.ctypes.data, out.ctypes.data)
        return Trajectory(times, np.minimum(times - out[:, 0], 1.0),
                          list(map(tuple, out[:, 3:].tolist())))


def simulate_alffp_p(
    p: float,
    A: float,
    T: float,
    marks: Optional[Sequence[Mark]] = None,
    seed: Optional[int] = None,
    stream_id: int = 0,
) -> LimitStateP:
    """Run LFFP(p) on [-A, A] x [0, T]; p = 0 selects the instant-sweep rules.

    Marks may be supplied (sorted by time) or drawn as a unit-rate Poisson
    set from (seed, stream_id).
    """
    check_alffp_p(p, A, T)
    state = LimitStateP(p, A, T, _window_marks(A, T, marks, seed, stream_id))
    _run_alffp(state)
    return state


def simulate_lffp_0(
    A: float,
    T: float,
    marks: Optional[Sequence[Mark]] = None,
    seed: Optional[int] = None,
    stream_id: int = 0,
) -> LimitStateP:
    """The p = 0 process: macroscopic marks sweep their cluster instantly."""
    return simulate_alffp_p(0.0, A, T, marks=marks, seed=seed, stream_id=stream_id)


def _run_alffp_py(state: LimitStateP) -> None:
    p = state.p
    A = state.A
    T = state.T
    marks = list(state.marks)  # a MarkSet's Marks, built once
    fronts = state.fronts
    barriers = state.barriers
    sweeps = state.sweeps
    events = state.events
    heap: list = []
    queued = stale = peak = tests = 0
    now = 0.0

    # The rescan's tests for one candidate at the current time: the time
    # it would fire, or None when it is not (and never again will be) one.

    def barrier_time(f, b):
        # a front standing on the barrier point has not passed it: another
        # event at the instant it arrives must not let it through
        pos_now = f.x0 + f.direction * (now - f.t0) / p
        if not (b.x >= pos_now if f.direction > 0 else b.x <= pos_now):
            return None
        v = f.t0 + p * abs(b.x - f.x0)
        if b.create < v < b.expiry:
            return max(v, now)
        return None

    def wake_time(f, g):
        pos_now = f.x0 + f.direction * (now - f.t0) / p
        if g.direction == f.direction:
            # entering the wake of a same-direction front at its origin
            # edge: constant lag decides once and for all
            if not (g.x0 > pos_now if f.direction > 0 else g.x0 < pos_now):
                return None
            v = f.t0 + p * abs(g.x0 - f.x0)
            if v - 1.0 < g.t0 < v:
                return max(v, now)
            return None
        # a dead opposing wake is entered through its death edge, where the
        # resets are the freshest; one that swept only its origin is its
        # twin's to cover
        if g.alive or g.x_end == g.x0:
            return None
        xd = g.x_end
        if not (xd >= pos_now if f.direction > 0 else xd <= pos_now):
            return None
        v = f.t0 + p * abs(xd - f.x0)
        if g.t_end > v - 1.0:
            return max(v, now)
        return None

    def meet_time(f, g):
        # f moves right, g left, and they are not twins
        if g.x0 + g.direction * (now - g.t0) / p < f.x0 + f.direction * (now - f.t0) / p:
            return None
        return max((p * (g.x0 - f.x0) + f.t0 + g.t0) / 2.0, now)

    # Queue entries are (t, kind, x, cause-rank, i, j, k, a, b).  The three
    # integers give the rescan's list order for equal keys and are unique
    # per candidate, so a comparison never reaches the payload (a, b):
    #   mark       (mark index, 0, 0)
    #   expiry     (barrier index, 0, 0)
    #   stop       (front index, 0 edge | 1 barrier | 2 wake, barrier or wake index)
    #   meet       (rightward front index, leftward front index, 0)

    def push(entry):
        # a key never moves, so a candidate past the horizon never fires
        nonlocal queued
        if entry[0] <= T:
            heappush(heap, entry)
            queued += 1

    def add_barrier_stop(i, f, bi, b):
        t = barrier_time(f, b)
        if t is not None:
            push((t, EVENT_FRONT_STOP, b.x, 0, i, 1, bi, f, b))

    def add_wake_stop(i, f, gi, g):
        t = wake_time(f, g)
        if t is not None:
            x = g.x0 if g.direction == f.direction else g.x_end
            push((t, EVENT_FRONT_STOP, x, 1, i, 2, gi, f, g))

    def add_front(i, f):
        # f's edge; every barrier not yet expired; and every front before f
        # in the list, so the first front of a pair does not see its twin
        nonlocal tests
        d = f.direction
        x0 = f.x0
        if d > 0:
            push((f.t0 + p * (A - x0), EVENT_FRONT_STOP, A, 2, i, 0, 0, f, None))
        else:
            push((f.t0 + p * (x0 + A), EVENT_FRONT_STOP, -A, 2, i, 0, 0, f, None))
        for bi, b in enumerate(barriers):
            if b.expiry > now:  # an expired barrier stops nothing
                tests += 1
                add_barrier_stop(i, f, bi, b)
        for gi in range(i):
            g = fronts[gi]
            if g.direction == d:
                # f may enter the wake of one launched under a time unit
                # ago, and a live one may enter f's
                if g.t0 > now - 1.0:
                    tests += 1
                    add_wake_stop(i, f, gi, g)
                if g.alive:
                    tests += 1
                    add_wake_stop(gi, g, i, f)
            elif not g.alive:
                if g.t_end > now - 1.0:
                    tests += 1
                    add_wake_stop(i, f, gi, g)
            elif g.x0 != x0 or g.t0 != f.t0:  # twins diverge, they never meet
                tests += 1
                r, ri, l, li = (f, i, g, gi) if d > 0 else (g, gi, f, i)
                t = meet_time(r, l)
                if t is not None:
                    tstar = (p * (l.x0 - r.x0) + r.t0 + l.t0) / 2.0
                    xm = r.x0 + (tstar - r.t0) / p
                    push((t, EVENT_FRONT_MEET, xm, 0, ri, li, 0, r, l))

    def add_deaths(dead):
        # a live opposing front may enter the wake of a front that died now
        nonlocal tests
        for gi, g in dead:
            for i, f in enumerate(fronts):
                if f.alive and f.direction != g.direction:
                    tests += 1
                    add_wake_stop(i, f, gi, g)

    def add_barrier(bi, b):
        # its expiry, and every live front, which may reach it before then
        nonlocal tests
        if b.expiry <= b.create:
            return  # it is never active
        push((b.expiry, EVENT_BARRIER_EXPIRY, b.x, 0, bi, 0, 0, b, None))
        for i, f in enumerate(fronts):
            if f.alive:
                tests += 1
                add_barrier_stop(i, f, bi, b)

    if marks:
        push((marks[0].t, EVENT_MARK, marks[0].x, 0, 0, 0, 0, None, None))
    peak = len(heap)
    while heap:
        t, kind, x, rank, i, j, _, a, b = heappop(heap)
        # test the head again at the current time: drop it if it is no
        # longer a candidate, else fire it at its key
        if kind == EVENT_FRONT_STOP:
            dropped = (not a.alive or (j == 1 and barrier_time(a, b) is None)
                       or (j == 2 and wake_time(a, b) is None))
        elif kind == EVENT_FRONT_MEET:
            dropped = not (a.alive and b.alive) or meet_time(a, b) is None
        else:
            dropped = kind == EVENT_BARRIER_EXPIRY and a.logged
        if dropped:
            stale += 1
            continue
        now = t

        if kind == EVENT_MARK:
            m = marks[i]
            if i + 1 < len(marks):
                nxt = marks[i + 1]
                push((nxt.t, EVENT_MARK, nxt.x, 0, i + 1, 0, 0, None, None))
            # Z, H and at p = 0 D from the state's own scans
            z = min(m.t - state._last_reset(m.x, now), 1.0)
            b_active = state._active_barrier(m.x, now)
            if z >= 1.0 and b_active is None:
                if p > 0.0:
                    fronts.append(_Front(m.x, m.t, +1))
                    fronts.append(_Front(m.x, m.t, -1))
                    events.append(LimitEvent(m.t, EVENT_MARK, m.x, "macro"))
                    add_front(len(fronts) - 2, fronts[-2])
                    add_front(len(fronts) - 1, fronts[-1])
                else:
                    lo, hi = state._cluster(m.x, now)
                    sweeps.append(_Sweep(m.t, lo, hi))
                    events.append(LimitEvent(m.t, EVENT_MARK, m.x, "macro", (lo, hi)))
            elif z < 1.0:
                if b_active is not None:
                    # stack on the active barrier: a new segment carries the
                    # combined height, the old one keeps history but loses
                    # its own expiry event
                    b_active.logged = True
                    barriers.append(_Barrier(m.x, m.t, b_active.expiry + z))
                    events.append(LimitEvent(m.t, EVENT_MARK, m.x, "extended", (z,)))
                else:
                    barriers.append(_Barrier(m.x, m.t, m.t + z))
                    events.append(LimitEvent(m.t, EVENT_MARK, m.x, "micro", (z,)))
                add_barrier(len(barriers) - 1, barriers[-1])
            else:
                events.append(LimitEvent(m.t, EVENT_MARK, m.x, "absorbed"))
        elif kind == EVENT_BARRIER_EXPIRY:
            a.logged = True
            events.append(LimitEvent(t, kind, x, "expiry"))
        elif kind == EVENT_FRONT_MEET:
            for h in (a, b):
                h.alive = False
                h.t_end = t
                h.x_end = x
                h.blocked = False
                h.cause = "meet"
            events.append(LimitEvent(t, kind, x, "meet"))
            add_deaths(((i, a), (j, b)))
        else:  # EVENT_FRONT_STOP
            cause = _STOP_CAUSES[rank]
            a.alive = False
            a.t_end = t
            a.x_end = x
            a.blocked = cause != "edge"
            a.cause = cause
            events.append(LimitEvent(t, kind, x, cause))
            add_deaths(((i, a),))
        if len(heap) > peak:
            peak = len(heap)

    state._queue_counts = {
        "candidates_queued": queued,
        "candidates_stale": stale,
        "queue_peak": peak,
        "candidate_tests": tests,
    }


# fl_limit_run's cause codes (LC_* in _ccore.c): an event's kind, cause and
# data width, and a front's alive, blocked and cause
_EVENT_CODES = {
    1.0: (EVENT_MARK, "macro", 0),
    2.0: (EVENT_MARK, "macro", 2),
    3.0: (EVENT_MARK, "micro", 1),
    4.0: (EVENT_MARK, "extended", 1),
    5.0: (EVENT_MARK, "absorbed", 0),
    6.0: (EVENT_BARRIER_EXPIRY, "expiry", 0),
    7.0: (EVENT_FRONT_MEET, "meet", 0),
    8.0: (EVENT_FRONT_STOP, "barrier", 0),
    9.0: (EVENT_FRONT_STOP, "wake", 0),
    10.0: (EVENT_FRONT_STOP, "edge", 0),
}
_FRONT_CODES = {
    0.0: (True, False, ""),
    7.0: (False, False, "meet"),
    8.0: (False, True, "barrier"),
    9.0: (False, True, "wake"),
    10.0: (False, False, "edge"),
}
_QUEUE_COUNTERS = ("candidates_queued", "candidates_stale", "queue_peak", "candidate_tests")
# fl_limit_run's row buffer: blocks of 4n events, 2n fronts, n barriers and
# n sweeps for n marks, as (state list, rows per mark, row width), so 39n
# doubles in all
_ROW_BLOCKS = (("events", 4, 5), ("fronts", 2, 6), ("barriers", 1, 4), ("sweeps", 1, 3))
_ROW_WIDTH = sum(per_mark * width for _, per_mark, width in _ROW_BLOCKS)
# fl_limit_run's counts: the four row counts, then the queue counters
_N_COUNTS = len(_ROW_BLOCKS) + len(_QUEUE_COUNTERS)


def _block(rows: np.ndarray, n: int, name: str, size: int) -> np.ndarray:
    """The first size rows of the block called name in a row buffer for n
    marks, as a (size, width) view."""
    start = 0
    for block, per_mark, width in _ROW_BLOCKS:
        if block == name:
            return rows[start:start + size * width].reshape(size, width)
        start += per_mark * n * width


def _built(name: str, rows: list) -> list:
    """The state list called name, built from its block of fl_limit_run's
    rows (as Python lists of floats)."""
    if name == "events":
        codes = _EVENT_CODES
        return [LimitEvent(t, kind, x, cause, (a, b)[:width])
                for t, code, x, a, b in rows
                for kind, cause, width in (codes[code],)]
    if name == "fronts":
        codes = _FRONT_CODES
        return [_Front(x0, t0, int(direction), alive, t_end, x_end, blocked, cause)
                for x0, t0, direction, t_end, x_end, code in rows
                for alive, blocked, cause in (codes[code],)]
    if name == "barriers":
        return [_Barrier(x, create, expiry, logged != 0.0)
                for x, create, expiry, logged in rows]
    return [_Sweep(t, lo, hi) for t, lo, hi in rows]


def _run_alffp_c(state: LimitStateP) -> None:
    """_run_alffp_py as one call of its C twin, fl_limit_run: the marks go in
    as their MarkSet's (x, t) rows.  The run builds the state's events,
    fronts, barriers and sweeps from their blocks of the rows, and the
    state keeps the rows and their counts for its queries and stats."""
    marks = state.marks.array
    n = len(marks)
    rows = np.empty(_ROW_WIDTH * n)
    counts = np.zeros(_N_COUNTS, dtype=np.int64)
    status = _lib.fl_limit_run(state.p, state.A, state.T, n, marks.ctypes.data, rows.ctypes.data,
                               counts.ctypes.data)
    if status != 0:  # -1, the one failure
        raise MemoryError("the limit engine could not allocate its event queue")
    for (name, per_mark, _), size in zip(_ROW_BLOCKS, counts.tolist()):
        if not 0 <= size <= per_mark * n:
            raise RuntimeError(f"fl_limit_run returned {size} rows for a buffer of {per_mark * n}")
        setattr(state, name, _built(name, _block(rows, n, name, size).tolist()))
    state._buffer = (rows, counts)


# the C twin when the compiled library loads, else the Python loop
_run_alffp = _run_alffp_py if _lib is None else _run_alffp_c


# -- slow-regime limit ----------------------------------------------------------


class LimitStateInf:
    """A simulated slow-regime limit realization.

    Built by simulate_lffp_inf.  A mark at (x, tau) leaves the barrier
    (x, tau, 2 tau) when tau < z0, else the permanent (x, tau, inf).  A
    private LimitStateP holding only these barriers answers Y and D with
    the LFFP(p) queries: D is (x, x) before time 1 and at an active barrier,
    else the interval between the nearest active barriers.  The barriers
    and the event log are exposed for inspection.
    """

    def __init__(self, z0: float, A: float, T: float, marks: MarkSet):
        self.z0 = z0
        self.A = float(A)
        self.T = float(T)
        self.marks = marks
        x, tau = marks.array.T
        expiry = np.where(tau < z0, 2.0 * tau, math.inf)
        self._lffp = LimitStateP(0.0, A, T, marks)
        self.barriers = self._lffp.barriers = list(
            map(_Barrier, x.tolist(), tau.tolist(), expiry.tolist()))
        if _lib is not None:
            # fl_limit_query reads only the barrier block of the rows
            n = len(marks)
            rows = np.zeros(_ROW_WIDTH * n)
            block = _block(rows, n, "barriers", n)
            block[:, :2] = marks.array
            block[:, 2] = expiry
            counts = np.zeros(_N_COUNTS, dtype=np.int64)
            counts[2] = n
            self._lffp._buffer = (rows, counts)
        events = []
        for b in self.barriers:
            cause = "permanent" if b.expiry == math.inf else "temporary"
            events.append(LimitEvent(b.create, EVENT_MARK, b.x, cause))
            if b.expiry <= self.T:
                events.append(LimitEvent(b.expiry, EVENT_BARRIER_EXPIRY, b.x, "expiry"))
        events.sort(key=lambda e: (e.t, e.kind, e.x))
        self.events = events

    def Y(self, x: float, t: float) -> float:
        """The height of the barrier active at exactly x (1 for a permanent
        one, 0 where none is)."""
        return min(self._lffp.H(x, t), 1.0)

    def D(self, x: float, t: float) -> Tuple[float, float]:
        """The cluster interval through x at time t."""
        return self._lffp.D(x, t)

    def trajectory(self, grid: Sequence[float]) -> Trajectory:
        """D at the origin over a time grid, D(0, t) at each grid time; the
        values are NaN, since the slow limit has no regrowth observable."""
        traj = self._lffp.trajectory(grid)
        traj.values = np.full(len(traj.times), math.nan)
        return traj


def simulate_lffp_inf(
    z0: float,
    A: float,
    T: float,
    marks: Optional[Sequence[Mark]] = None,
    seed: Optional[int] = None,
    stream_id: int = 0,
) -> LimitStateInf:
    """Slow-regime limit on [-A, A] x [0, T] with threshold z0 in [0, 1]."""
    if not 0.0 <= z0 <= 1.0:
        raise ValueError("z0 must lie in [0, 1]")
    _check_window(A, T)
    return LimitStateInf(z0, A, T, _window_marks(A, T, marks, seed, stream_id))


def sample_cluster_lengths_inf(z0: float, t: float, stream, count: int) -> List[float]:
    """count exact cluster length draws for the slow limit at time t > 2*z0.

    Active barriers then form a Poisson process of intensity t - z0, so the
    cluster at the origin is the sum of two independent exponential gaps.
    The 2 * count gaps are drawn as one block, in stream order.
    """
    if not 0.0 <= z0 <= 1.0:
        raise ValueError("z0 must lie in [0, 1]")
    if not t > 2.0 * z0:
        raise ValueError(f"the stationary cluster law needs t > 2*z0, got t={t}")
    gaps = exp_samples(stream, t - z0, 2 * count)
    return [a + b for a, b in zip(gaps[0::2], gaps[1::2])]
