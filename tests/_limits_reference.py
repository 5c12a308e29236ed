"""Frozen rescan oracle for the LFFP(p) limit engine.

This is the limit engine as it stood before the event queue: after every
event it rebuilds every candidate (the next mark, barrier expiries, each
live front's edge, barrier and wake stops, opposing-front meets) and takes
the smallest by (t, kind, x, cause-rank), earlier list entries winning
ties.  It shares the state class with the package, but reads a state
only through its own frozen copies of the package's scalar scans (below),
so a bug in those scans cannot reach the engine and its oracle alike.  Do
not edit run_alffp_rescan or the scans: they are the reference.  Its one
rule change since it was frozen: a front standing exactly on an active
barrier's point counts as ahead of it (the barrier test's `>=`), so an
event at the instant it arrives no longer lets it through.

It also keeps the slow limit's feature rule as it stood before the slow
limit's marks became LFFP(p) barriers (reference_inf_*, at the end).  Do not
edit it either.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from fireline.limits import (
    EVENT_BARRIER_EXPIRY,
    EVENT_FRONT_MEET,
    EVENT_FRONT_STOP,
    EVENT_MARK,
    LimitEvent,
    LimitStateP,
    _Barrier,
    _Front,
    _Sweep,
    _validate_marks,
)
from fireline.rng import Mark, RngStream, poisson_rectangle

_CAUSE_RANK = {
    "expiry": 0,
    "meet": 0,
    "barrier": 0,
    "wake": 1,
    "edge": 2,
    "mark": 0,
}


def reference_alffp(
    p: float,
    A: float,
    T: float,
    marks: Optional[Sequence[Mark]] = None,
    seed: Optional[int] = None,
    stream_id: int = 0,
) -> LimitStateP:
    """LFFP(p) on [-A, A] x [0, T] by the rescan, from marks or (seed, stream)."""
    if marks is None:
        marks = poisson_rectangle(RngStream(seed, stream_id), -A, A, 0.0, T)
    state = LimitStateP(p, A, T, _validate_marks(marks, A, T))
    run_alffp_rescan(state)
    return state


# -- the scalar scans, frozen ------------------------------------------------------


def _pos(state: LimitStateP, f: _Front, t: float) -> float:
    return f.x0 + f.direction * (t - f.t0) / state.p


def _cap(state: LimitStateP, f: _Front, t: float) -> float:
    """Farthest point f has reached by time t."""
    return _pos(state, f, min(t, f.t_end))


def _crossing(state: LimitStateP, f: _Front, x: float, t: float) -> Optional[float]:
    """When front f crossed x, if it did so by time t."""
    if f.direction > 0:
        if x < f.x0:
            return None
        ct = f.t0 + state.p * (x - f.x0)
    else:
        if x > f.x0:
            return None
        ct = f.t0 + state.p * (f.x0 - x)
    if ct > t:
        return None
    if not f.alive:
        if f.blocked:
            # the death point itself is not crossed
            if (f.direction > 0 and x >= f.x_end) or (f.direction < 0 and x <= f.x_end):
                return None
        elif (f.direction > 0 and x > f.x_end) or (f.direction < 0 and x < f.x_end):
            return None
    return ct


def _last_reset(state: LimitStateP, x: float, t: float) -> float:
    r = 0.0
    for f in state.fronts:
        ct = _crossing(state, f, x, t)
        if ct is not None and ct > r:
            r = ct
    for s in state.sweeps:
        if s.lo < x < s.hi and r < s.t <= t:
            r = s.t
    return r


def _active_barrier(state: LimitStateP, x: float, t: float) -> Optional[_Barrier]:
    """The barrier active at x at time t with the largest expiry (the first
    in list order on a tie), or None."""
    out = None
    for b in state.barriers:
        if b.x == x and b.create <= t < b.expiry:
            if out is None or b.expiry > out.expiry:
                out = b
    return out


def _blockers(state: LimitStateP, t: float) -> List[Tuple[float, float]]:
    """Intervals where Z_t < 1 plus active barrier points."""
    out: List[Tuple[float, float]] = []
    for b in state.barriers:
        if b.create <= t < b.expiry:
            out.append((b.x, b.x))
    for f in state.fronts:
        if f.t0 > t:
            continue
        cap = _cap(state, f, t)
        healed = t - 1.0 - f.t0  # travel budget whose crossings have healed
        if f.direction > 0:
            if healed >= state.p * (cap - f.x0):
                continue  # entire wake healed
            flo = f.x0 + max(0.0, healed) / state.p
            out.append((flo, cap))
        else:
            if healed >= state.p * (f.x0 - cap):
                continue
            fhi = f.x0 - max(0.0, healed) / state.p
            out.append((cap, fhi))
    for s in state.sweeps:
        if t - 1.0 < s.t <= t:
            out.append((s.lo, s.hi))
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


def _D(state: LimitStateP, x: float, t: float) -> Tuple[float, float]:
    """The cluster interval through x at time t: (x, x) while Z < 1 or a
    barrier stands at x, else the interval between the nearest blockers."""
    barrier = _active_barrier(state, x, t)
    height = 0.0 if barrier is None else barrier.expiry - t  # H(x, t)
    if t - _last_reset(state, x, t) < 1.0 or height > 0.0:
        return (x, x)
    return _between(x, _blockers(state, t), -state.A, state.A)


# -- the rescan ------------------------------------------------------------------


def run_alffp_rescan(state: LimitStateP) -> None:
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
                pos_now = _pos(state, f, now)
                if f.direction > 0:
                    cands.append(
                        (f.t0 + p * (A - f.x0), EVENT_FRONT_STOP, A, (f, "edge", A))
                    )
                else:
                    cands.append(
                        (f.t0 + p * (f.x0 + A), EVENT_FRONT_STOP, -A, (f, "edge", -A))
                    )
                for b in barriers:
                    ahead = b.x >= pos_now if f.direction > 0 else b.x <= pos_now
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
                    if _pos(state, g, now) < _pos(state, f, now):
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
            z = min(m.t - _last_reset(state, m.x, m.t), 1.0)
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
                    lo, hi = _D(state, m.x, m.t)
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


# -- the slow limit's feature rule, frozen ------------------------------------------


@dataclass(frozen=True)
class Feature:
    """A slow-limit mark at (x, tau): temporary, active on [tau, 2 tau), when
    tau < z0, else permanent, active from tau on."""

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


def reference_inf_features(z0: float, marks: Sequence[Mark]) -> List[Feature]:
    return [Feature(m.x, m.t, m.t >= z0) for m in marks]


def reference_inf_events(features: Sequence[Feature], T: float) -> List[LimitEvent]:
    """Each feature's mark, and a temporary one's expiry at 2 tau <= T, in
    (t, kind, x) order."""
    events = []
    for f in features:
        events.append(
            LimitEvent(f.tau, EVENT_MARK, f.x, "permanent" if f.permanent else "temporary")
        )
        if not f.permanent and 2.0 * f.tau <= T:
            events.append(LimitEvent(2.0 * f.tau, EVENT_BARRIER_EXPIRY, f.x, "expiry"))
    events.sort(key=lambda e: (e.t, e.kind, e.x))
    return events


def reference_inf_Y(features: Sequence[Feature], x: float, t: float) -> float:
    """The feature height at exactly x (0 where no feature sits)."""
    y = 0.0
    for f in features:
        if f.x == x:
            y = max(y, f.height(t))
    return y


def reference_inf_D(features: Sequence[Feature], A: float, x: float, t: float
                    ) -> Tuple[float, float]:
    """The cluster at x: (x, x) before time 1, else bounded by the nearest
    active features inside [-A, A], a feature at x bounding it on both
    sides."""
    if t < 1.0:
        return (x, x)
    lo = -A
    hi = A
    for f in features:
        if not f.active(t):
            continue
        if f.x <= x and f.x > lo:
            lo = f.x
        if f.x >= x and f.x < hi:
            hi = f.x
    return (lo, hi)
