"""Pure-Python event-driven engine for the finite-box forest-fire chain.

This is the readable reference twin of the C core in _ccore.c, and the
fallback when that core cannot be built.  The two must stay bit-identical:
every clock draw is the counter-based exponential
draw_u64(master_seed, stream_id, purpose, site, index), so a trajectory is
a pure function of the constructor arguments, independent of event
interleaving or which implementation runs it.

Sites are internal indices 0..n_sites-1; the public wrapper maps lattice
coordinates.  States: 0 vacant, 1 occupied, 2 burning.  Transitions:
seed clocks (rate 1) turn vacant sites occupied, match clocks (rate
match_rate, or an injected schedule) turn occupied sites burning, and a
burning site's propagation clock (rate pi) turns it vacant while igniting
any occupied neighbors.  Match clocks are always live; a match on a site
that is not occupied is consumed and the clock resampled (exact by
memorylessness).  Seed clocks are lazy: each site's seed chain
s_{k+1} = s_k + E_k (s_0 = 0, E_k its k-th seed draw) does not depend on
the state, and a ring changes the state only on a vacant site, so only
vacant sites keep a seed clock in the queue.  The ring that occupies a
site records its time as the site's last chain point and queues nothing;
when the site's extinguish makes it vacant at time t, the chain is walked
with the same draws and additions to its first point at or after t, and
that point is queued (a point tied at t pops after the extinguish, by
the kind order below).  Sites that start occupied have last chain point
0.0.  Every effective event, every log and every state is what keeping
every seed clock live would give; only the per-site seed draw counters
stop one point short for non-vacant sites.  event_count counts the
events the queue processed, so the rings on non-vacant sites are not
events; seed_rings_skipped counts the chain points the walks stepped
over.  The event queue is keyed by (time, site, kind) with kind priority
propagate < match < seed.

Walks read block-drawn words.  One rng.draw_rows pass fills the buffers
of a chunk of neighbouring sites with the words draw_u64 gives at the
same indices, so a walk makes the same draws, the same additions and the
same counter steps as one scalar draw per point.  Construction, match and
propagate draws stay scalar.

advance_to is the one driving method: it processes every event up to a
time.  Anything a caller measures (a burned stretch, when it regrew) is
read afterwards from what the engine keeps: burning_count, burn_lo/burn_hi,
state_view, the logs, and seed_last_view, each site's latest occupation
time (the last chain points above).  observe reads the cluster and window
counts of one site in place, without copying the states.

Every processed match is logged.  A core that starts with a fire
(ignite_site >= 0, the propagation process) also logs the facts of that
run that cannot be derived from other records: front advance times (the
k-th advance reaches ignite_site +- k), sparks, and the clean/dirty flag
of each closed vacancy window; without a fire these logs stay empty.
Logs here are Python lists; the C core returns the same rows as numpy
arrays.
"""

import math
from array import array
from heapq import heappop, heappush

from .rng import (
    PURPOSE_MATCH,
    PURPOSE_PROPAGATE,
    PURPOSE_SEED,
    _units,
    draw_rows,
    draw_u64,
    u64_to_unit,
)

VACANT, OCCUPIED, BURNING = 0, 1, 2
_VACANT_BYTE, _OCCUPIED_BYTE, _BURNING_BYTE = (bytes([s]) for s in (VACANT, OCCUPIED, BURNING))
KIND_PROPAGATE, KIND_MATCH, KIND_SEED = 0, 1, 2

# Walks read their seed uniforms from per-site buffers.  When a walk empties
# its buffer, one draw_rows pass appends _REFILL words to the buffer of
# every site in its _CHUNK-site chunk.  A pass costs about the same from 64
# words to some thousands, so a 64 x 64 pass brings a word to about 0.2 us
# against the 6 us of a scalar draw_u64; and a fire extinguishes
# neighbouring sites at nearly the same time after nearly the same growth,
# so their walks soon read what was drawn with the first.  Wider passes
# would hold more words that no walk reads yet.
_CHUNK = 64
_REFILL = 64


def check_engine_args(
    n_sites, pi, match_rate, master_seed, stream_id,
    initial_occupied, ignite_site, injected_t, injected_site,
):
    """Raise ValueError for constructor arguments that both cores reject."""
    if n_sites < 1:
        raise ValueError("n_sites must be at least 1")
    if not 0.0 < pi < math.inf:
        raise ValueError(f"pi must be positive and finite, got {pi}")
    if not 0.0 <= match_rate < math.inf:
        raise ValueError(f"match_rate must be nonnegative and finite, got {match_rate}")
    if len(injected_t) != len(injected_site):
        raise ValueError("injected match times and sites differ in length")
    if len(injected_t) > 0 and match_rate > 0.0:
        raise ValueError("injected matches require match_rate == 0")
    if ignite_site >= 0 and not initial_occupied:
        raise ValueError("igniting a site requires an occupied initial state")
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must fit in 64 bits")
    if not 0 <= stream_id < 2**64:
        raise ValueError("stream_id must fit in 64 bits")
    for i in injected_site:
        if not 0 <= i < n_sites:
            raise ValueError(f"injected match site {i} outside the box")
    if ignite_site >= n_sites:
        raise ValueError(f"ignite_site {ignite_site} outside the box")


def observe_refusal(n_sites, idx, m):
    """The ValueError both cores raise for a site outside the box or m < 0."""
    return ValueError(f"cannot observe site {idx} with window {m} in a box of {n_sites}")


class PyEngineCore:
    """Event loop core; see module docstring for the dynamics."""

    def __init__(
        self,
        n_sites,
        pi,
        match_rate,
        master_seed,
        stream_id,
        initial_occupied=False,
        ignite_site=-1,
        injected_t=(),
        injected_site=(),
    ):
        check_engine_args(
            n_sites, pi, match_rate, master_seed, stream_id,
            initial_occupied, ignite_site, injected_t, injected_site,
        )
        self.n_sites = n_sites
        self.pi = pi
        self.match_rate = match_rate
        self.master_seed = master_seed
        self.stream_id = stream_id
        self.now = 0.0
        self.event_count = 0
        self.seed_rings_skipped = 0
        self.burning_count = 0

        self._states = bytearray([OCCUPIED if initial_occupied else VACANT] * n_sites)
        # per-purpose, per-site draw counters
        self._draws = {
            p: [0] * n_sites for p in (PURPOSE_SEED, PURPOSE_MATCH, PURPOSE_PROPAGATE)
        }
        self._seed_last = [0.0] * n_sites  # latest occupation time of each site
        # seed uniforms drawn ahead for each walked chunk's sites, a site's
        # from its next seed index on
        self._walk_units = {}
        self._heap = []

        # burned-interval tracking (internal indices), reset by the caller
        self.burn_lo = n_sites
        self.burn_hi = -1

        # propagation-process recording, on exactly when the run starts with a fire
        self._track = ignite_site >= 0
        self._ignite_site = ignite_site
        self._right_front = ignite_site
        self._left_front = ignite_site
        # front advance raw times; the k-th advance reaches ignite_site +- k
        self.front_plus = []
        self.front_minus = []
        self.spark_log = []  # (internal site, ignite time, extinguish time)
        self._spark_open = {}
        self._rw_site = -1  # open vacancy window behind the right front
        self._rw_clean = True
        self._lw_site = -1
        self._lw_clean = True
        self.omega_right = []
        self.omega_left = []

        self.match_log = []  # (raw time, internal site, effective)

        for i in range(0 if initial_occupied else n_sites):
            heappush(self._heap, (self._exp(PURPOSE_SEED, i, 1.0), i, KIND_SEED))
        if match_rate > 0.0:
            for i in range(n_sites):
                heappush(self._heap, (self._exp(PURPOSE_MATCH, i, match_rate), i, KIND_MATCH))
        for t, i in zip(injected_t, injected_site):
            heappush(self._heap, (float(t), int(i), KIND_MATCH))
        if ignite_site >= 0:
            self._ignite(ignite_site, 0.0, -1)

    # -- clock draws --------------------------------------------------------

    def _exp(self, purpose, site, rate):
        """The next exponential clock of one site and purpose; rate 1.0
        divides exactly, so seed clocks are the undivided draw."""
        counts = self._draws[purpose]
        k = counts[site]
        counts[site] = k + 1
        x = draw_u64(self.master_seed, self.stream_id, purpose, site, k)
        return -math.log(u64_to_unit(x)) / rate

    def _walk(self, site, t):
        """The site's first seed chain point at or after t, stepping on from
        its last one: the draws and additions of one _exp(PURPOSE_SEED,
        site, 1.0) per point, whose division by 1.0 is exact, with the
        uniforms read from the front of the site's buffer."""
        counts = self._draws[PURPOSE_SEED]
        start = counts[site]
        s = self._seed_last[site]
        log = math.log
        units = self._walk_units.get(site)
        while True:
            if not units:
                units = self._refill(site)
            n = 0
            for u in units:
                n += 1
                s = s + -log(u)
                if s >= t:
                    break
            del units[:n]
            counts[site] += n
            if s >= t:
                self.seed_rings_skipped += counts[site] - start - 1
                return s

    def _refill(self, site):
        """Append _REFILL seed uniforms to the buffer of every site in site's
        chunk, in one pass; return site's buffer."""
        lo = site - site % _CHUNK
        sites = range(lo, min(lo + _CHUNK, self.n_sites))
        counts = self._draws[PURPOSE_SEED]
        bufs = self._walk_units
        firsts = [counts[j] + len(bufs.get(j, ())) for j in sites]
        words = draw_rows(self.master_seed, self.stream_id, PURPOSE_SEED, sites, firsts,
                          _REFILL)
        for j, row in zip(sites, _units(words)):
            bufs.setdefault(j, array("d")).frombytes(row.tobytes())
        return bufs[site]

    # -- state transitions --------------------------------------------------

    def _ignite(self, site, t, source):
        # occupied -> burning, schedule the site's propagation clock
        self._states[site] = BURNING
        self.burning_count += 1
        if site < self.burn_lo:
            self.burn_lo = site
        if site > self.burn_hi:
            self.burn_hi = site
        t_out = t + self._exp(PURPOSE_PROPAGATE, site, self.pi)
        heappush(self._heap, (t_out, site, KIND_PROPAGATE))
        if self._track:
            if source == self._right_front and site == source + 1:
                self._right_front = site
                self.front_plus.append(t)
            elif source == self._left_front and site == source - 1:
                self._left_front = site
                self.front_minus.append(t)
            elif source >= 0:
                self._spark_open[site] = t

    def _step(self):
        t, site, kind = heappop(self._heap)
        self.now = t
        self.event_count += 1
        states = self._states
        if kind == KIND_SEED:  # only a vacant site has a queued seed clock
            states[site] = OCCUPIED
            self._seed_last[site] = t
            if self._track:
                if site == self._rw_site:
                    self._rw_clean = False
                if site == self._lw_site:
                    self._lw_clean = False
        elif kind == KIND_MATCH:
            effective = states[site] == OCCUPIED
            if effective:
                self._ignite(site, t, -1)
            if self.match_rate > 0.0:
                t_next = t + self._exp(PURPOSE_MATCH, site, self.match_rate)
                heappush(self._heap, (t_next, site, KIND_MATCH))
            self.match_log.append((t, site, effective))
        else:  # KIND_PROPAGATE: a burning site's own clock, always effective
            if self._track:
                if site in self._spark_open:
                    self.spark_log.append((site, self._spark_open.pop(site), t))
                # a front site's extinguish closes the vacancy window of the
                # site behind it and opens its own
                if site == self._right_front:
                    if self._rw_site >= 0:
                        self.omega_right.append(self._rw_clean)
                    self._rw_site = site
                    self._rw_clean = True
                if site == self._left_front:
                    # the origin's window is counted once, on the right side
                    if self._lw_site >= 0 and self._lw_site != self._ignite_site:
                        self.omega_left.append(self._lw_clean)
                    self._lw_site = site
                    self._lw_clean = True
            states[site] = VACANT
            self.burning_count -= 1
            heappush(self._heap, (self._walk(site, t), site, KIND_SEED))
            left = site - 1
            if left >= 0 and states[left] == OCCUPIED:
                self._ignite(left, t, site)
            right = site + 1
            if right < self.n_sites and states[right] == OCCUPIED:
                self._ignite(right, t, site)

    # -- public driving method ----------------------------------------------

    def advance_to(self, t_raw):
        """Process every event up to and including raw time t_raw."""
        if not self.now <= t_raw < math.inf:
            raise ValueError(f"cannot advance to {t_raw}: need now={self.now} <= target < inf")
        heap = self._heap
        while heap and heap[0][0] <= t_raw:
            self._step()
        self.now = t_raw

    def observe(self, idx, m):
        """(lo, hi, count): the occupied run through site idx, or (-1, -1)
        when idx is not occupied, and the occupied count of the window of
        half-width m around idx, clipped to the box; read in place."""
        if not (0 <= idx < self.n_sites and m >= 0):
            raise observe_refusal(self.n_sites, idx, m)
        st = self._states
        lo = hi = -1
        if st[idx] == OCCUPIED:
            # the run ends at the nearest vacant or burning site on each side
            lo = st.rfind(_VACANT_BYTE, 0, idx)
            lo = max(lo, st.rfind(_BURNING_BYTE, lo + 1, idx)) + 1
            hi = st.find(_VACANT_BYTE, idx + 1)
            if hi < 0:
                hi = self.n_sites
            burning = st.find(_BURNING_BYTE, idx + 1, hi)
            hi = (hi if burning < 0 else burning) - 1
        count = st.count(_OCCUPIED_BYTE, max(idx - m, 0), min(idx + m + 1, self.n_sites))
        return lo, hi, count

    def reset_burn_bounds(self):
        self.burn_lo = self.n_sites
        self.burn_hi = -1

    def state_view(self):
        """The raw state bytes (internal indices)."""
        return bytes(self._states)

    def seed_last_view(self):
        """Each site's latest occupation time (the seed ring that last turned
        it occupied; 0.0 for a site occupied from the start), as a list."""
        return list(self._seed_last)
