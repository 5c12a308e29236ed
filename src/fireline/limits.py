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
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .rng import Mark, RngStream, exp_sample, poisson_rectangle

EVENT_BARRIER_EXPIRY = 0
EVENT_FRONT_MEET = 1
EVENT_FRONT_STOP = 2
EVENT_MARK = 3

_CAUSE_RANK = {
    "expiry": 0,
    "meet": 0,
    "barrier": 0,
    "wake": 1,
    "edge": 2,
    "mark": 0,
}


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

    # -- geometry helpers ----------------------------------------------------

    def _pos(self, f: _Front, t: float) -> float:
        return f.x0 + f.direction * (t - f.t0) / self.p

    def _cap(self, f: _Front, t: float) -> float:
        """Farthest point f has reached by time t."""
        return self._pos(f, min(t, f.t_end))

    def _crossing(self, f: _Front, x: float, t: float, strict: bool) -> Optional[float]:
        """When front f crossed x, if it did so by time t."""
        if f.direction > 0:
            if x < f.x0:
                return None
            ct = f.t0 + self.p * (x - f.x0)
        else:
            if x > f.x0:
                return None
            ct = f.t0 + self.p * (f.x0 - x)
        if strict:
            if ct >= t:
                return None
        elif ct > t:
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

    def _last_reset(self, x: float, t: float, strict: bool = False) -> float:
        r = 0.0
        for f in self.fronts:
            ct = self._crossing(f, x, t, strict)
            if ct is not None and ct > r:
                r = ct
        for s in self.sweeps:
            if s.lo < x < s.hi:
                if (s.t < t or (not strict and s.t == t)) and s.t > r:
                    r = s.t
        return r

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
        h = 0.0
        for b in self.barriers:
            if b.x == x and b.create <= t < b.expiry:
                h = max(h, b.expiry - t)
        return h

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
                flo = f.x0 + max(0.0, healed) / self.p if self.p > 0 else f.x0
                out.append((flo, cap))
            else:
                if healed >= self.p * (f.x0 - cap):
                    continue
                fhi = f.x0 - max(0.0, healed) / self.p if self.p > 0 else f.x0
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
    if p < 0.0:
        raise ValueError("p must be nonnegative")
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
    mi = 0
    now = 0.0

    def cand_key(c):
        t, kind, x, payload = c
        cause = payload[1] if kind == EVENT_FRONT_STOP else "mark"
        return (t, kind, x, _CAUSE_RANK.get(cause, 3))

    while True:
        cands = []
        if mi < len(marks):
            m = marks[mi]
            cands.append((m.t, EVENT_MARK, m.x, None))
        for b in barriers:
            if not b.logged and b.expiry > b.create:
                cands.append((b.expiry, EVENT_BARRIER_EXPIRY, b.x, b))
        if p > 0.0:
            live = [f for f in fronts if f.alive]
            for f in live:
                pos_now = state._pos(f, now)
                if f.direction > 0:
                    cands.append(
                        (f.t0 + p * (A - f.x0), EVENT_FRONT_STOP, A, (f, "edge", A))
                    )
                else:
                    cands.append(
                        (f.t0 + p * (f.x0 + A), EVENT_FRONT_STOP, -A, (f, "edge", -A))
                    )
                for b in barriers:
                    ahead = b.x > pos_now if f.direction > 0 else b.x < pos_now
                    if not ahead:
                        continue
                    v = f.t0 + p * abs(b.x - f.x0)
                    if b.create < v < b.expiry:
                        cands.append(
                            (max(v, now), EVENT_FRONT_STOP, b.x, (f, "barrier", b.x))
                        )
                for g in fronts:
                    if g is f:
                        continue
                    if g.direction == f.direction:
                        # entering the wake of a same-direction front at its
                        # origin edge: constant lag decides once and for all
                        ahead = g.x0 > pos_now if f.direction > 0 else g.x0 < pos_now
                        if not ahead:
                            continue
                        v = f.t0 + p * abs(g.x0 - f.x0)
                        if v - 1.0 < g.t0 < v:
                            cands.append(
                                (max(v, now), EVENT_FRONT_STOP, g.x0, (f, "wake", g.x0))
                            )
                    elif not g.alive:
                        # a dead opposing wake is entered through its death
                        # edge, where the resets are the freshest
                        if g.x_end == g.x0:
                            continue  # swept only its origin; twin covers it
                        xd = g.x_end
                        ahead = xd >= pos_now if f.direction > 0 else xd <= pos_now
                        if not ahead:
                            continue
                        v = f.t0 + p * abs(xd - f.x0)
                        if g.t_end > v - 1.0:
                            cands.append(
                                (max(v, now), EVENT_FRONT_STOP, xd, (f, "wake", xd))
                            )
            for f in live:
                if f.direction < 0:
                    continue
                for g in live:
                    if g.direction > 0:
                        continue
                    if g.x0 == f.x0 and g.t0 == f.t0:
                        continue  # twins diverge, they never meet
                    if state._pos(g, now) < state._pos(f, now):
                        continue
                    tstar = (p * (g.x0 - f.x0) + f.t0 + g.t0) / 2.0
                    xm = f.x0 + (tstar - f.t0) / p
                    cands.append((max(tstar, now), EVENT_FRONT_MEET, xm, (f, g)))
        if not cands:
            break
        t_ev, kind, x_ev, payload = min(cands, key=cand_key)
        if t_ev > T:
            break
        now = t_ev

        if kind == EVENT_MARK:
            m = marks[mi]
            mi += 1
            z = min(m.t - state._last_reset(m.x, m.t), 1.0)
            b_active = None
            for b in barriers:
                if b.x == m.x and b.create <= m.t < b.expiry:
                    if b_active is None or b.expiry > b_active.expiry:
                        b_active = b
            if z >= 1.0 and b_active is None:
                if p > 0.0:
                    fronts.append(_Front(m.x, m.t, +1))
                    fronts.append(_Front(m.x, m.t, -1))
                    state.events.append(LimitEvent(m.t, EVENT_MARK, m.x, "macro"))
                else:
                    lo, hi = state.D(m.x, m.t)
                    state.sweeps.append(_Sweep(m.t, lo, hi))
                    state.events.append(
                        LimitEvent(m.t, EVENT_MARK, m.x, "macro", (lo, hi))
                    )
            elif z < 1.0:
                if b_active is not None:
                    # stack on the active barrier: a new segment carries the
                    # combined height, the old one keeps history but loses
                    # its own expiry event
                    b_active.logged = True
                    barriers.append(_Barrier(m.x, m.t, b_active.expiry + z))
                    state.events.append(
                        LimitEvent(m.t, EVENT_MARK, m.x, "extended", (z,))
                    )
                else:
                    barriers.append(_Barrier(m.x, m.t, m.t + z))
                    state.events.append(LimitEvent(m.t, EVENT_MARK, m.x, "micro", (z,)))
            else:
                state.events.append(LimitEvent(m.t, EVENT_MARK, m.x, "absorbed"))
        elif kind == EVENT_BARRIER_EXPIRY:
            payload.logged = True
            state.events.append(LimitEvent(t_ev, kind, x_ev, "expiry"))
        elif kind == EVENT_FRONT_MEET:
            f, g = payload
            for h in (f, g):
                h.alive = False
                h.t_end = t_ev
                h.x_end = x_ev
                h.blocked = False
                h.cause = "meet"
            state.events.append(LimitEvent(t_ev, kind, x_ev, "meet"))
        else:  # EVENT_FRONT_STOP
            f, cause, xs = payload
            f.alive = False
            f.t_end = t_ev
            f.x_end = xs
            f.blocked = cause != "edge"
            f.cause = cause
            state.events.append(LimitEvent(t_ev, kind, xs, cause))


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

    def cluster_length(self, t: float) -> float:
        lo, hi = self.D(0.0, t)
        return hi - lo


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


def sample_cluster_length_inf(z0: float, t: float, stream) -> float:
    """Exact cluster length draw for the slow limit at time t > 2*z0.

    Active features then form a Poisson process of intensity t - z0, so the
    cluster at the origin is the sum of two independent exponential gaps.
    """
    if not t > 2.0 * z0:
        raise ValueError(f"the stationary cluster law needs t > 2*z0, got t={t}")
    rate = t - z0
    return exp_sample(stream, rate) + exp_sample(stream, rate)
