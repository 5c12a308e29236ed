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

The slow-regime limit: a mark at (x, tau) with tau < z0 leaves a temporary
feature active on [tau, 2*tau); with tau >= z0 a permanent one.  Clusters
are bounded by the nearest active features.

Everything is exact event geometry; no time discretization anywhere.

Scheduling.  LFFP(p) runs off a lazy priority queue of candidate events,
keyed (t, kind, x, cause-rank).  Each candidate is derived once, when its
later participant appears: a new front against the box edge, the open
barriers and the fronts alive or dead for under a time unit; a new
barrier against the live fronts (plus its own expiry); a front's death
against the live opposing fronts, for its dead wake; the next mark when
the last one is taken.  A key can only grow (a late candidate fires at
max(v, now)) and a candidate that lapses never returns (a front that
passes its target is no longer ahead of it, a dead front stays dead), so
the head of the queue is re-derived at the current time with the same
tests: dropped when it no longer applies, pushed back when its key moved,
and fired otherwise.  Equal keys fall back to a fixed list order: the
mark; expiries by barrier index; then per front, by index, its edge, its
barriers by index and its wakes by front index; then meets by front
indices.  This gives, bit for bit, the log of a full rescan of every
candidate after every event (kept frozen as the test oracle).  An event
costs O(log Q) for the queue plus what it derives: O(live fronts) for a
barrier or a death, O(open barriers + recent fronts) for a front pair.
"""

import math
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .rng import Mark, RngStream, exp_samples, poisson_rectangle
from .scales import Trajectory

EVENT_BARRIER_EXPIRY = 0
EVENT_FRONT_MEET = 1
EVENT_FRONT_STOP = 2
EVENT_MARK = 3

# a front stop's cause by its cause-rank, the last key before list order;
# marks, expiries and meets rank 0
_STOP_CAUSES = ("barrier", "wake", "edge")


@dataclass(frozen=True)
class LimitEvent:
    """One entry of the event log: what happened, when, where."""

    t: float
    kind: int
    x: float
    cause: str
    data: Tuple[float, ...] = ()


@dataclass
class _Front:
    x0: float
    t0: float
    direction: int  # +1 rightward, -1 leftward
    alive: bool = True
    t_end: float = math.inf
    x_end: float = math.nan
    blocked: bool = False
    cause: str = ""


@dataclass
class _Barrier:
    x: float
    create: float
    expiry: float
    logged: bool = False


@dataclass
class _Sweep:
    t: float
    lo: float
    hi: float


@dataclass(frozen=True)
class LimitObservables:
    Z: float
    H: float
    D: Tuple[float, float]


def _validate_marks(marks: Sequence[Mark], A: float, T: float) -> List[Mark]:
    out = []
    prev = -math.inf
    for m in marks:
        if m.t < prev:
            raise ValueError("mark set must be sorted by time")
        prev = m.t
        if not -A <= m.x <= A:
            raise ValueError(f"mark at x={m.x} outside the box [-{A}, {A}]")
        if not 0.0 <= m.t <= T:
            raise ValueError(f"mark at t={m.t} outside the time window [0, {T}]")
        out.append(Mark(float(m.x), float(m.t)))
    return out


class LimitStateP:
    """A simulated LFFP(p) realization (p = 0 included) with exact queries.

    Built by simulate_alffp_p / simulate_lffp_0.  Fronts, barriers,
    sweeps, and the event log are exposed for inspection; Z, H, D, and
    reset_time answer any (x, t) in the simulated window.
    """

    def __init__(self, p: float, A: float, T: float, marks: List[Mark]):
        self.p = p
        self.A = A
        self.T = T
        self.marks = marks
        self.fronts: List[_Front] = []
        self.barriers: List[_Barrier] = []
        self.sweeps: List[_Sweep] = []
        self.events: List[LimitEvent] = []
        self._queue_counts: dict = {}  # set by the LFFP(p) engine

    def stats(self) -> dict:
        """Deterministic counters of the run: events by cause, and the event
        queue's candidates queued, dropped as stale, re-keyed, and its
        high-water mark."""
        causes = Counter(e.cause for e in self.events)
        return {"events_by_cause": dict(sorted(causes.items())), **self._queue_counts}

    # -- geometry helpers ----------------------------------------------------

    def _pos(self, f: _Front, t: float) -> float:
        return f.x0 + f.direction * (t - f.t0) / self.p

    def _cap(self, f: _Front, t: float) -> float:
        """Farthest point f has reached by time t."""
        return self._pos(f, min(t, f.t_end))

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
        r = 0.0
        for f in self.fronts:
            ct = self._crossing(f, x, t)
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

    # -- public queries --------------------------------------------------------

    def reset_time(self, x: float, t: Optional[float] = None) -> float:
        """Time of the last reset at x by time t (default: the horizon)."""
        if t is None:
            t = self.T
        self._check_point(x, t)
        return self._last_reset(x, t)

    def Z(self, x: float, t: float) -> float:
        self._check_point(x, t)
        return min(t - self._last_reset(x, t), 1.0)

    def H(self, x: float, t: float) -> float:
        self._check_point(x, t)
        b = self._active_barrier(x, t)
        return 0.0 if b is None else b.expiry - t

    def D(self, x: float, t: float) -> Tuple[float, float]:
        """The macroscopic cluster interval through x at time t."""
        self._check_point(x, t)
        if t - self._last_reset(x, t) < 1.0 or self.H(x, t) > 0.0:
            return (x, x)
        lo = -self.A
        hi = self.A
        for blo, bhi in self._blockers(t):
            if bhi <= x:
                if bhi > lo:
                    lo = bhi
            elif blo >= x:
                if blo < hi:
                    hi = blo
        return (lo, hi)

    def query(self, x: float, t: float) -> LimitObservables:
        return LimitObservables(Z=self.Z(x, t), H=self.H(x, t), D=self.D(x, t))

    def trajectory(self, grid: Sequence[float]) -> Trajectory:
        """Z and D at the origin over a time grid."""
        values = np.array([self.Z(0.0, float(t)) for t in grid])
        intervals = [self.D(0.0, float(t)) for t in grid]
        return Trajectory(np.asarray(grid, dtype=float), values, intervals)

    def _blockers(self, t: float) -> List[Tuple[float, float]]:
        """Intervals where Z_t < 1 plus active barrier points."""
        out: List[Tuple[float, float]] = []
        for b in self.barriers:
            if b.create <= t < b.expiry:
                out.append((b.x, b.x))
        for f in self.fronts:
            if f.t0 > t:
                continue
            cap = self._cap(f, t)
            healed = t - 1.0 - f.t0  # travel budget whose crossings have healed
            if f.direction > 0:
                if healed >= self.p * (cap - f.x0):
                    continue  # entire wake healed
                flo = f.x0 + max(0.0, healed) / self.p
                out.append((flo, cap))
            else:
                if healed >= self.p * (f.x0 - cap):
                    continue
                fhi = f.x0 - max(0.0, healed) / self.p
                out.append((cap, fhi))
        for s in self.sweeps:
            if t - 1.0 < s.t <= t:
                out.append((s.lo, s.hi))
        return out


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
    if not 0.0 <= p < math.inf:
        raise ValueError(f"p must be nonnegative and finite, got {p}")
    if A <= 0.0 or T <= 0.0:
        raise ValueError("A and T must be positive")
    if marks is None:
        if seed is None:
            raise ValueError("either marks or a seed is required")
        marks = poisson_rectangle(RngStream(seed, stream_id), -A, A, 0.0, T)
    state = LimitStateP(p, A, T, _validate_marks(marks, A, T))
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


def _run_alffp(state: LimitStateP) -> None:
    p = state.p
    A = state.A
    T = state.T
    marks = state.marks
    fronts = state.fronts
    barriers = state.barriers
    events = state.events
    live = {}  # front index -> alive front, in index order
    recent = []  # (index, front) alive or dead for under a time unit
    open_barriers = []  # (index, barrier) not yet expired
    heap: list = []
    queued = stale = rekeyed = peak = 0
    now = 0.0

    # The rescan's tests for one candidate at the current time: the time
    # it would fire, or None when it is not (and never again will be) one.

    def barrier_time(f, b):
        pos_now = f.x0 + f.direction * (now - f.t0) / p
        if not (b.x > pos_now if f.direction > 0 else b.x < pos_now):
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
        # keys only grow, so a candidate past the horizon never fires
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
        if f.direction > 0:
            push((f.t0 + p * (A - f.x0), EVENT_FRONT_STOP, A, 2, i, 0, 0, f, None))
        else:
            push((f.t0 + p * (f.x0 + A), EVENT_FRONT_STOP, -A, 2, i, 0, 0, f, None))
        for bi, b in open_barriers:
            add_barrier_stop(i, f, bi, b)
        for gi, g in recent:
            if g.direction == f.direction:
                # f arrives no earlier than now, so it can enter only a wake
                # begun less than a time unit before now
                if g.t0 > now - 1.0:
                    add_wake_stop(i, f, gi, g)
                if g.alive:
                    add_wake_stop(gi, g, i, f)
            elif not g.alive:
                add_wake_stop(i, f, gi, g)
            elif g.x0 != f.x0 or g.t0 != f.t0:  # twins diverge, they never meet
                r, ri, l, li = (f, i, g, gi) if f.direction > 0 else (g, gi, f, i)
                t = meet_time(r, l)
                if t is not None:
                    tstar = (p * (l.x0 - r.x0) + r.t0 + l.t0) / 2.0
                    xm = r.x0 + (tstar - r.t0) / p
                    push((t, EVENT_FRONT_MEET, xm, 0, ri, li, 0, r, l))

    def add_pair():
        # A barrier expired by now, or a front dead for a time unit, can
        # never stop a front launched now: the front arrives no earlier
        # than now, after the barrier's window or the wake's healing.
        nonlocal open_barriers, recent
        open_barriers = [(bi, b) for bi, b in open_barriers if b.expiry > now]
        recent = [(gi, g) for gi, g in recent if g.t_end > now - 1.0]
        for i in (len(fronts) - 2, len(fronts) - 1):
            live[i] = fronts[i]
            add_front(i, fronts[i])
            recent.append((i, fronts[i]))

    def add_deaths(dead):
        for gi, _ in dead:
            del live[gi]
        for gi, g in dead:
            for i, f in live.items():
                if f.direction != g.direction:
                    add_wake_stop(i, f, gi, g)

    def add_barrier(bi, b):
        if b.expiry > b.create:
            push((b.expiry, EVENT_BARRIER_EXPIRY, b.x, 0, bi, 0, 0, b, None))
        for i, f in live.items():
            add_barrier_stop(i, f, bi, b)
        open_barriers.append((bi, b))

    if marks:
        push((marks[0].t, EVENT_MARK, marks[0].x, 0, 0, 0, 0, None, None))
    peak = len(heap)
    while heap:
        entry = heap[0]
        t, kind, x, rank, i, j, _, a, b = entry
        # re-derive the head at the current time: drop it if it is no longer
        # a candidate, put it back if its key moved
        if kind == EVENT_FRONT_STOP:
            if not a.alive:
                t = None
            elif j == 1:
                t = barrier_time(a, b)
            elif j == 2:
                t = wake_time(a, b)
        elif kind == EVENT_FRONT_MEET:
            t = meet_time(a, b) if a.alive and b.alive else None
        elif kind == EVENT_BARRIER_EXPIRY and a.logged:
            t = None
        if t is None:
            heappop(heap)
            stale += 1
            continue
        if t != entry[0]:
            heapreplace(heap, (t,) + entry[1:])
            rekeyed += 1
            continue
        if t > T:
            break
        heappop(heap)
        now = t

        if kind == EVENT_MARK:
            m = marks[i]
            if i + 1 < len(marks):
                nxt = marks[i + 1]
                push((nxt.t, EVENT_MARK, nxt.x, 0, i + 1, 0, 0, None, None))
            z = min(m.t - state._last_reset(m.x, m.t), 1.0)
            b_active = state._active_barrier(m.x, m.t)
            if z >= 1.0 and b_active is None:
                if p > 0.0:
                    fronts.append(_Front(m.x, m.t, +1))
                    fronts.append(_Front(m.x, m.t, -1))
                    events.append(LimitEvent(m.t, EVENT_MARK, m.x, "macro"))
                    add_pair()
                else:
                    lo, hi = state.D(m.x, m.t)
                    state.sweeps.append(_Sweep(m.t, lo, hi))
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
        peak = max(peak, len(heap))

    state._queue_counts = {
        "candidates_queued": queued,
        "candidates_stale": stale,
        "candidates_rekeyed": rekeyed,
        "queue_peak": peak,
    }


# -- slow-regime limit ----------------------------------------------------------


@dataclass(frozen=True)
class _Feature:
    x: float
    tau: float
    permanent: bool

    def active(self, t: float) -> bool:
        if self.permanent:
            return t >= self.tau
        return self.tau <= t < 2.0 * self.tau

    def height(self, t: float) -> float:
        if not self.active(t):
            return 0.0
        return 1.0 if self.permanent else 2.0 * self.tau - t


class LimitStateInf:
    """Slow-regime limit realization: marks become temporary or permanent
    features at points; clusters are bounded by the nearest active ones."""

    def __init__(self, z0: float, A: float, T: float, marks: List[Mark]):
        self.z0 = z0
        self.A = A
        self.T = T
        self.marks = marks
        self.features = [_Feature(m.x, m.t, m.t >= z0) for m in marks]
        events = []
        for f in self.features:
            events.append(
                LimitEvent(
                    f.tau, EVENT_MARK, f.x, "permanent" if f.permanent else "temporary"
                )
            )
            if not f.permanent and 2.0 * f.tau <= T:
                events.append(
                    LimitEvent(2.0 * f.tau, EVENT_BARRIER_EXPIRY, f.x, "expiry")
                )
        events.sort(key=lambda e: (e.t, e.kind, e.x))
        self.events = events

    def _check_point(self, x: float, t: float) -> None:
        if not -self.A <= x <= self.A:
            raise ValueError(f"x={x} outside the box [-{self.A}, {self.A}]")
        if not 0.0 <= t <= self.T:
            raise ValueError(f"t={t} outside the simulated window [0, {self.T}]")

    def Y(self, x: float, t: float) -> float:
        """Feature height at exactly x (0 where no feature sits)."""
        self._check_point(x, t)
        y = 0.0
        for f in self.features:
            if f.x == x:
                y = max(y, f.height(t))
        return y

    def D(self, x: float, t: float) -> Tuple[float, float]:
        """Cluster interval at x: bounded by the nearest active features."""
        self._check_point(x, t)
        if t < 1.0:
            return (x, x)
        lo = -self.A
        hi = self.A
        for f in self.features:
            if not f.active(t):
                continue
            if f.x <= x and f.x > lo:
                lo = f.x
            if f.x >= x and f.x < hi:
                hi = f.x
        return (lo, hi)

    def trajectory(self, grid: Sequence[float]) -> Trajectory:
        """D at the origin over a time grid; the values are NaN, since the
        slow limit has no regrowth observable."""
        intervals = [self.D(0.0, float(t)) for t in grid]
        values = np.full(len(intervals), math.nan)
        return Trajectory(np.asarray(grid, dtype=float), values, intervals)


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
    if A <= 0.0 or T <= 0.0:
        raise ValueError("A and T must be positive")
    if marks is None:
        if seed is None:
            raise ValueError("either marks or a seed is required")
        marks = poisson_rectangle(RngStream(seed, stream_id), -A, A, 0.0, T)
    return LimitStateInf(z0, A, T, _validate_marks(marks, A, T))


def sample_cluster_lengths_inf(z0: float, t: float, stream, count: int) -> List[float]:
    """count exact cluster length draws for the slow limit at time t > 2*z0.

    Active features then form a Poisson process of intensity t - z0, so the
    cluster at the origin is the sum of two independent exponential gaps.
    The 2 * count gaps are drawn as one block, in stream order.
    """
    if not t > 2.0 * z0:
        raise ValueError(f"the stationary cluster law needs t > 2*z0, got t={t}")
    gaps = exp_samples(stream, t - z0, 2 * count)
    return [a + b for a, b in zip(gaps[0::2], gaps[1::2])]


def sample_cluster_length_inf(z0: float, t: float, stream) -> float:
    """One draw of sample_cluster_lengths_inf."""
    return sample_cluster_lengths_inf(z0, t, stream, 1)[0]
