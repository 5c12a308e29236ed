"""Independent replay oracle for the event engine.

The engine resamples match clocks on a live heap and queues a seed clock
only while its site is vacant, walking the site's seed chain when it turns
vacant.  Instead, this pre-generates every seed and match clock tick up to
the horizon directly from the counter-based draws, heapifies the full list
once, and replays it chronologically with the same (time, site, kind) tie
order.  Propagation clocks are drawn on
demand at each ignition from the same per-site counters.  Because every
draw is a pure function of (purpose, site, index), the replay reproduces
the engine realization exactly, bit for bit, despite the different code
path.  reference_run also reports each site's first ignition time.
"""

import heapq
import math

from fireline.rng import PURPOSE_MATCH, PURPOSE_PROPAGATE, PURPOSE_SEED, draw_u64

VACANT, OCCUPIED, BURNING = 0, 1, 2
KIND_PROPAGATE, KIND_MATCH, KIND_SEED = 0, 1, 2

_INV53 = 1.0 / 9007199254740992.0


def _unit(x):
    return ((x >> 11) + 1) * _INV53


def reference_states(*args, **kwargs):
    """States at each query time (sorted ascending), as a list of bytes."""
    return reference_run(*args, **kwargs)[0]


def reference_run(
    n_sites,
    pi,
    match_rate,
    master_seed,
    stream_id,
    query_times,
    initial_occupied=False,
    ignite_site=-1,
    injected=(),
):
    """(states at each query time, {site: first ignition time}) up to the
    last query time; the dict holds exactly the sites that ever burned."""
    queries = sorted(query_times)
    horizon = queries[-1]

    events = []
    for i in range(n_sites):
        t = 0.0
        k = 0
        while True:
            x = draw_u64(master_seed, stream_id, PURPOSE_SEED, i, k)
            t = t + -math.log(_unit(x))
            k += 1
            if t > horizon:
                break
            events.append((t, i, KIND_SEED))
    if match_rate > 0.0:
        for i in range(n_sites):
            t = 0.0
            k = 0
            while True:
                x = draw_u64(master_seed, stream_id, PURPOSE_MATCH, i, k)
                t = t + -math.log(_unit(x)) / match_rate
                k += 1
                if t > horizon:
                    break
                events.append((t, i, KIND_MATCH))
    for t, i in injected:
        events.append((float(t), int(i), KIND_MATCH))
    heapq.heapify(events)

    states = bytearray([OCCUPIED if initial_occupied else VACANT] * n_sites)
    k_prop = [0] * n_sites
    first_ignition = {}

    def ignite(site, t):
        states[site] = BURNING
        first_ignition.setdefault(site, t)
        x = draw_u64(master_seed, stream_id, PURPOSE_PROPAGATE, site, k_prop[site])
        k_prop[site] += 1
        heapq.heappush(events, (t + -math.log(_unit(x)) / pi, site, KIND_PROPAGATE))

    if ignite_site >= 0:
        ignite(ignite_site, 0.0)

    out = []
    for q in queries:
        while events and events[0][0] <= q:
            t, site, kind = heapq.heappop(events)
            if kind == KIND_SEED:
                if states[site] == VACANT:
                    states[site] = OCCUPIED
            elif kind == KIND_MATCH:
                if states[site] == OCCUPIED:
                    ignite(site, t)
            else:
                states[site] = VACANT
                if site - 1 >= 0 and states[site - 1] == OCCUPIED:
                    ignite(site - 1, t)
                if site + 1 < n_sites and states[site + 1] == OCCUPIED:
                    ignite(site + 1, t)
        out.append(bytes(states))
    return out, first_ignition
