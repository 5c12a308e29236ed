"""Frozen rescan oracle for the LFFP(p) limit engine.

This is the limit engine as it stood before the event queue: after every
event it rebuilds every candidate (the next mark, barrier expiries, each
live front's edge, barrier and wake stops, opposing-front meets) and takes
the smallest by (t, kind, x, cause-rank), earlier list entries winning
ties.  It shares the state class and its queries (the regrowth field at a
mark, D for the p = 0 sweeps) with the package, so a comparison isolates
the event scheduling.  Do not edit run_alffp_rescan: it is the reference.
Its one rule change since it was frozen: a front standing exactly on an
active barrier's point counts as ahead of it (the barrier test's `>=`), so
an event at the instant it arrives no longer lets it through.
"""

from typing import Optional, Sequence

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
