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
candidate after every event (kept frozen as the test oracle).

Lookups.  The open barriers are kept in x order and the fronts alive or
dead for under two time units in position order, one list per direction
(the fronts of a direction all move at speed 1/p, so their order never
changes).  A derivation bisects these lists and tests only the entries
within reach, in a window widened past the float rounding of its bounds:
for a new front, the barriers it reaches before they expire, the wakes
within 1/p (ahead, begun or ended under a time unit ago, or of the live
fronts within 1/p behind it) and the opposing fronts it reaches by the
horizon; for a new barrier or a death, the live fronts within reach of it.
A mark reads Z from the fronts that can have crossed its point in the
last two time units (an older reset leaves Z = 1; the second unit is a
margin for rounding), its active barrier by exact x, and at p = 0 D from
the active barriers and the sweeps of the last time unit.  An event costs
O(log Q) for the queue plus O(log n) and the entries within reach for
each lookup, so a new front's tests stay flat as the box grows.
"""

import math
from bisect import bisect_left, bisect_right
from collections import Counter, deque
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

# blocker x grid time cells per array pass of a limit state's trajectory
_CLUSTER_CELLS = 1 << 17

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


def _window_marks(A: float, T: float, marks, seed, stream_id: int) -> List[Mark]:
    """The simulators' argument check, then their validated marks: given,
    or drawn from (seed, stream_id).  A non-finite window is refused in
    poisson_rectangle's words, whether or not the marks are drawn."""
    if not (math.isfinite(A) and math.isfinite(T)):
        raise ValueError(f"non-finite rectangle [{-A}, {A}] x [0.0, {T}]")
    if not (A > 0.0 and T > 0.0):
        raise ValueError("A and T must be positive")
    if marks is None:
        if seed is None:
            raise ValueError("either marks or a seed is required")
        marks = poisson_rectangle(RngStream(seed, stream_id), -A, A, 0.0, T)
    return _validate_marks(marks, A, T)


def _validate_marks(marks: Sequence[Mark], A: float, T: float) -> List[Mark]:
    """The marks as a new list, checked in one pass: sorted by time, inside
    the box and the window.  A Mark with float fields is kept as it is;
    anything else is rebuilt as a Mark of floats."""
    out = list(marks)
    prev = -math.inf
    for k, m in enumerate(out):
        x = m.x
        t = m.t
        if t < prev:
            raise ValueError("mark set must be sorted by time")
        prev = t
        if not -A <= x <= A:
            raise ValueError(f"mark at x={x} outside the box [-{A}, {A}]")
        if not 0.0 <= t <= T:
            raise ValueError(f"mark at t={t} outside the time window [0, {T}]")
        if type(m) is not Mark or type(x) is not float or type(t) is not float:
            out[k] = Mark(float(x), float(t))
    return out


def _between(x: float, blockers, lo: float, hi: float) -> Tuple[float, float]:
    """The interval between the nearest blockers around x, inside (lo, hi).
    On a tie the first nearest blocker in the given order is kept (it
    decides the sign of a zero bound)."""
    for blo, bhi in blockers:
        if bhi <= x:
            if bhi > lo:
                lo = bhi
        elif blo >= x:
            if blo < hi:
                hi = blo
    return (lo, hi)


class _Ordered:
    """(index, object) items in key order, for range lookups by bisection.
    Items of equal keys stay in the order they were added."""

    __slots__ = ("keys", "items")

    def __init__(self):
        self.keys: List[float] = []
        self.items: list = []

    def add(self, key: float, item) -> None:
        j = bisect_right(self.keys, key)
        self.keys.insert(j, key)
        self.items.insert(j, item)

    def remove(self, key: float, obj) -> None:
        j = bisect_left(self.keys, key)
        while self.items[j][1] is not obj:
            j += 1
        del self.keys[j], self.items[j]

    def within(self, lo: float, hi: float) -> list:
        """The items keyed in [lo, hi], in key order.  A NaN bound (an
        overflowed window) bounds nothing: bisect_left puts NaN before every
        key and bisect_right after every key."""
        keys = self.keys
        return self.items[bisect_left(keys, lo):bisect_right(keys, hi)]


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
        """Deterministic counters of the run: events by cause; the event
        queue's candidates queued, dropped as stale, re-keyed, and its
        high-water mark; and candidate_tests, the stop and meet tests made to
        derive candidates for new fronts, barriers and deaths (the entries
        their lookups find within reach)."""
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
        return self._cluster(x, t)

    def _cluster(self, x: float, t: float) -> Tuple[float, float]:
        """The interval between the nearest blockers around x at time t."""
        return _between(x, self._blockers(t), -self.A, self.A)

    def query(self, x: float, t: float) -> LimitObservables:
        return LimitObservables(Z=self.Z(x, t), H=self.H(x, t), D=self.D(x, t))

    def trajectory(self, grid: Sequence[float]) -> Trajectory:
        """Z and D at the origin over a time grid: the values of Z(0, t) and
        D(0, t) at each grid time, from one sweep of the resets at 0 and
        one array pass over the blockers."""
        times = np.asarray(grid, dtype=float)
        if times.size:
            self._check_point(0.0, float(times.min()))
            self._check_point(0.0, float(times.max()))
        # every reset at 0 in time order, after the 0.0 that _last_reset
        # starts from: the last one by t is _last_reset(0, t)
        crossings = [self._crossing(f, 0.0, math.inf) for f in self.fronts]
        resets = np.array([0.0] + sorted(
            [r for r in crossings if r is not None and r > 0.0]
            + [s.t for s in self.sweeps if s.lo < 0.0 < s.hi and s.t > 0.0]
        ))
        ages = times - resets[np.searchsorted(resets, times, side="right") - 1]
        at_zero = np.array(
            [(b.create, b.expiry) for b in self.barriers if b.x == 0.0], dtype=float
        ).reshape(-1, 2)
        barred = ((at_zero[:, :1] <= times) & (times < at_zero[:, 1:])).any(axis=0)
        # D(0, t) is (0, 0) where Z < 1 or a barrier sits at 0, else the cluster
        clustered = np.flatnonzero((ages >= 1.0) & ~barred)
        intervals = [(0.0, 0.0)] * len(times)
        blockers = self._blocker_arrays()
        step = max(1, _CLUSTER_CELLS // (1 + sum(group.shape[2] for group in blockers)))
        for start in range(0, len(clustered), step):
            cols = clustered[start:start + step]
            for i, bounds in zip(cols.tolist(), self._clusters_at_zero(times[cols], blockers)):
                intervals[i] = bounds
        return Trajectory(times, np.minimum(ages, 1.0), intervals)

    def _blocker_arrays(self):
        """The barriers, fronts and sweeps that _blockers reads, each field
        as one row of a (1, count) array."""
        def fields(rows, width):
            return np.array(rows, dtype=float).reshape(-1, width).T[:, None, :]

        return (
            fields([(b.x, b.create, b.expiry) for b in self.barriers], 3),
            fields([(f.x0, f.t0, f.direction, f.t_end) for f in self.fronts], 4),
            fields([(s.t, s.lo, s.hi) for s in self.sweeps], 3),
        )

    def _clusters_at_zero(self, t: np.ndarray, blockers) -> List[Tuple[float, float]]:
        """_cluster(0.0, t) at each time of t, with _blockers(t) as arrays:
        the same float expressions, and on a tie the first nearest blocker
        in list order, the one _cluster's strict comparisons keep (it
        decides the sign of a zero bound), with the box edge before all."""
        (bx, bc, be), (x0, t0, direction, t_end), (st, slo, shi) = blockers
        n = len(t)
        t = t[:, None]  # a row per time, a column per blocker
        p = self.p
        cap = x0 + direction * (np.where(t_end < t, t_end, t) - t0) / p
        healed = t - 1.0 - t0
        rightward = direction > 0
        reach = p * np.where(rightward, cap - x0, x0 - cap)
        back = np.where(healed > 0.0, healed, 0.0) / p

        def columns(*groups):
            return np.concatenate([np.broadcast_to(g, (n, g.shape[1])) for g in groups], axis=1)

        edge = np.zeros((n, 1))  # column 0 stands for the box edges
        lo = columns(edge, bx, np.where(rightward, x0 + back, cap), slo)
        hi = columns(edge, bx, np.where(rightward, cap, x0 - back), shi)
        active = columns(edge > 0.0, (bc <= t) & (t < be), (t0 <= t) & ~(healed >= reach),
                         (t - 1.0 < st) & (st <= t))
        left = active & (hi <= 0.0)
        below = np.where(left, hi, -np.inf)
        below[:, 0] = -self.A
        above = np.where(active & ~left & (lo >= 0.0), lo, np.inf)
        above[:, 0] = self.A
        # argmax and argmin return the first of equal extremes
        rows = np.arange(n)
        bounds = []
        for side, j, edge_value in ((below, below.argmax(axis=1), -self.A),
                                    (above, above.argmin(axis=1), self.A)):
            values = side[rows, j].tolist()
            for i in np.flatnonzero(j == 0).tolist():
                values[i] = edge_value  # the box edge as _cluster returns it
            bounds.append(values)
        return list(zip(*bounds))

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


def _run_alffp(state: LimitStateP) -> None:
    p = state.p
    A = state.A
    T = state.T
    marks = state.marks
    fronts = state.fronts
    barriers = state.barriers
    sweeps = state.sweeps
    events = state.events
    crossing = state._crossing
    heap: list = []
    queued = stale = rekeyed = peak = tests = 0
    now = 0.0

    # Ordered lookups of (index, object) items.  The fronts of one direction
    # all move at speed 1/p, so their order by position never changes: a
    # front of direction d is keyed d * x0 - t0 / p, its way along d as of
    # time 0, and a front of direction d at x now would have the key
    # d * x - now / p, so a stretch of positions is a stretch of keys.  A
    # dead front keeps its key for two time units.
    open_barriers = _Ordered()  # by x; an expired segment of a stack lingers
    recent = {+1: _Ordered(), -1: _Ordered()}  # fronts alive or dead under two time units
    buried: deque = deque()  # dead fronts in death order
    first_sweep = 0  # the sweeps before it are two time units old
    max_expiry = -math.inf  # of every barrier so far
    if p > 0.0:
        reach = 1.0 / p  # the way a front travels in a time unit
        # widens every window well past the float rounding of its bounds
        slack = 1e-9 * (1.0 + A + (T + 2.0) / p)

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
        # Only what lies within reach of a front launched now at x0 is
        # tested: a barrier within (expiry - now) / p ahead; the origin of a
        # front launched under a time unit ago, within 1/p ahead, and a live
        # front within 1/p behind, for the wakes of one direction; the death
        # point of an opposing front dead under a time unit, within 1/p
        # ahead, and a live opposing front it reaches by the horizon.
        nonlocal tests
        d = f.direction
        x0 = f.x0
        if d > 0:
            push((f.t0 + p * (A - x0), EVENT_FRONT_STOP, A, 2, i, 0, 0, f, None))
        else:
            push((f.t0 + p * (x0 + A), EVENT_FRONT_STOP, -A, 2, i, 0, 0, f, None))
        ahead = (max_expiry - now) / p
        lo, hi = (x0, x0 + ahead) if d > 0 else (x0 - ahead, x0)
        for bi, b in open_barriers.within(lo - slack, hi + slack):
            if b.expiry > now:  # an expired segment of a stack stops nothing
                tests += 1
                add_barrier_stop(i, f, bi, b)
        # fronts of f's direction: one launched under a time unit ago with
        # its origin within 1/p ahead (f may enter its wake) is now under
        # 2/p ahead; a live one within 1/p behind may enter f's wake
        key = d * x0 - now / p
        for gi, g in recent[d].within(key - reach - slack, key + 2.0 * reach + slack):
            if g.t0 > now - 1.0:
                tests += 1
                add_wake_stop(i, f, gi, g)
            if g.alive:
                tests += 1
                add_wake_stop(gi, g, i, f)
        # opposing fronts, whose keys fall the farther ahead of f they are:
        # one dead under a time unit with its death point within 1/p ahead
        # would now be within 1/p of x0; a live one that f meets by the
        # horizon is ahead by at most the way both cover by then
        key = -d * x0 - now / p
        horizon = max(reach, 2.0 * (T - now) / p)
        for gi, g in recent[-d].within(key - horizon - slack, key + reach + slack):
            if not g.alive:
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

    def add_pair():
        for i in (len(fronts) - 2, len(fronts) - 1):
            f = fronts[i]
            add_front(i, f)
            recent[f.direction].add(f.direction * f.x0 - f.t0 / p, (i, f))

    def add_deaths(dead):
        # a live opposing front can enter a wake that died now only within
        # 1/p of its death point
        nonlocal tests
        for gi, g in dead:
            buried.append(g)
            d = -g.direction
            key = d * g.x_end - now / p
            for i, f in recent[d].within(key - reach - slack, key + slack):
                if f.alive:
                    tests += 1
                    add_wake_stop(i, f, gi, g)

    def add_barrier(bi, b):
        # a live front can reach a barrier created now only within
        # (expiry - now) / p of it
        nonlocal max_expiry, tests
        if b.expiry <= b.create:
            return  # it is never active
        push((b.expiry, EVENT_BARRIER_EXPIRY, b.x, 0, bi, 0, 0, b, None))
        open_barriers.add(b.x, (bi, b))
        max_expiry = max(max_expiry, b.expiry)
        if p > 0.0:
            for d in (+1, -1):
                key = d * b.x - now / p
                for i, f in recent[d].within(key - (b.expiry - now) / p - slack, key + slack):
                    if f.alive:
                        tests += 1
                        add_barrier_stop(i, f, bi, b)

    def last_reset(x):
        # _last_reset(x, now) over the fronts and sweeps that can have reset
        # x in the last two time units: the others leave Z = 1 either way
        r = 0.0
        if p > 0.0:
            for d in (+1, -1):
                # a front that crossed x within two time units is now (or
                # would be, had it lived) under 2/p past x
                key = d * x - now / p
                for _, g in recent[d].within(key - slack, key + 2.0 * reach + slack):
                    ct = crossing(g, x, now)
                    if ct is not None and ct > r:
                        r = ct
        else:
            for s in sweeps[first_sweep:]:
                if s.lo < x < s.hi and r < s.t <= now:
                    r = s.t
        return r

    def active_barrier(x):
        # _active_barrier(x, now): equal keys keep the barriers' list order
        out = None
        for _, b in open_barriers.within(x, x):
            if b.create <= now < b.expiry and (out is None or b.expiry > out.expiry):
                out = b
        return out

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
            # forget what can no longer stop a front launched now or reset
            # x within two time units
            while buried and buried[0].t_end <= now - 2.0:
                g = buried.popleft()
                recent[g.direction].remove(g.direction * g.x0 - g.t0 / p, g)
            while first_sweep < len(sweeps) and sweeps[first_sweep].t <= now - 2.0:
                first_sweep += 1
            z = min(m.t - last_reset(m.x), 1.0)
            b_active = active_barrier(m.x)
            if z >= 1.0 and b_active is None:
                if p > 0.0:
                    fronts.append(_Front(m.x, m.t, +1))
                    fronts.append(_Front(m.x, m.t, -1))
                    events.append(LimitEvent(m.t, EVENT_MARK, m.x, "macro"))
                    add_pair()
                else:
                    # D(m.x, m.t): the active barriers in x order, then the
                    # sweeps of the last time unit, in _cluster's list order
                    # on ties
                    lo, hi = _between(
                        m.x,
                        [(bb.x, bb.x) for _, bb in open_barriers.items
                         if bb.create <= now < bb.expiry]
                        + [(s.lo, s.hi) for s in sweeps[first_sweep:] if now - 1.0 < s.t],
                        -A,
                        A,
                    )
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
            # this segment and the older ones of its stack stop nothing more
            for _, bb in open_barriers.within(x, x):
                if bb.expiry <= now:
                    open_barriers.remove(x, bb)
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
        "candidates_rekeyed": rekeyed,
        "queue_peak": peak,
        "candidate_tests": tests,
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

    _check_point = LimitStateP._check_point  # the same box and window

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
        """D at the origin over a time grid, from array passes over the
        features' activity windows; the values are NaN, since the slow
        limit has no regrowth observable."""
        times = np.asarray(grid, dtype=float)
        if times.size:
            self._check_point(0.0, float(times.min()))
            self._check_point(0.0, float(times.max()))
        x = np.array([f.x for f in self.features], dtype=float)
        start = np.array([f.tau for f in self.features], dtype=float)
        stop = np.array([math.inf if f.permanent else 2.0 * f.tau for f in self.features])
        # D keeps on each side the nearest active feature strictly inside the
        # box, the first in list order among equals (it decides the sign of
        # a zero bound), else the box edge: order each side's features so,
        # append the edge as an always active column, take the first active
        sides = []
        for inside, nearness, edge in (
            ((x <= 0.0) & (x > -self.A), -x, -self.A),
            ((x >= 0.0) & (x < self.A), x, self.A),
        ):
            idx = np.flatnonzero(inside)
            idx = idx[np.argsort(nearness[idx], kind="stable")]
            sides.append((np.append(start[idx], -math.inf), np.append(stop[idx], math.inf),
                          x[idx].tolist() + [edge]))
        intervals = [(0.0, 0.0)] * len(times)  # D(0, t) for t < 1
        late = np.flatnonzero(times >= 1.0)
        step = max(1, _CLUSTER_CELLS // (2 + len(x)))
        for first in range(0, len(late), step):
            rows = late[first:first + step]
            t = times[rows, None]
            lo, hi = (
                [bounds[j] for j in ((on <= t) & (t < off)).argmax(axis=1).tolist()]
                for on, off, bounds in sides
            )
            for i, bound in zip(rows.tolist(), zip(lo, hi)):
                intervals[i] = bound
        return Trajectory(times, np.full(len(times), math.nan), intervals)


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
    return LimitStateInf(z0, A, T, _window_marks(A, T, marks, seed, stream_id))


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
