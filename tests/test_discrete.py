"""Tests for the discrete chain: engine semantics, wrapper observables,
the replay oracle, and the propagation process."""

import ctypes
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from _reference import reference_run, reference_states
from fireline import _engine_py
from fireline._engine_py import (
    BURNING,
    KIND_MATCH,
    KIND_PROPAGATE,
    KIND_SEED,
    OCCUPIED,
    VACANT,
    PyEngineCore,
)
from fireline.discrete import (
    MEMORY_CAP_SITES,
    DiscreteFFP,
    ResourceLimitError,
    run_propagation,
    suggested_radius,
)
from fireline.engine import COMPILED, FALLBACK_REASON, make_engine
from fireline.engine import _lib as clib
from fireline.rng import PURPOSE_MATCH, PURPOSE_PROPAGATE, PURPOSE_SEED

# -- engine semantics ---------------------------------------------------------


class LegalityCheckedEngine(PyEngineCore):
    """Engine that asserts every event makes only the legal transitions."""

    def _step(self):
        t, site, kind = self._heap[0]
        before = bytes(self._states)
        super()._step()
        after = bytes(self._states)
        n = self.n_sites
        for j in range(n):
            if j == site:
                continue
            if kind == KIND_PROPAGATE and abs(j - site) == 1:
                if before[j] == OCCUPIED:
                    assert after[j] == BURNING
                else:
                    assert after[j] == before[j]
            else:
                assert after[j] == before[j], f"event {kind} at {site} touched {j}"
        if kind == KIND_SEED:
            expect = OCCUPIED if before[site] == VACANT else before[site]
            assert after[site] == expect
        elif kind == KIND_MATCH:
            expect = BURNING if before[site] == OCCUPIED else before[site]
            assert after[site] == expect
        else:
            assert before[site] == BURNING
            assert after[site] == VACANT


def test_every_transition_is_legal():
    eng = LegalityCheckedEngine(
        151, 3.0, 0.25, master_seed=2024, stream_id=0, initial_occupied=False
    )
    eng.advance_to(25.0)
    assert eng.event_count > 3000


def test_engine_argument_validation():
    with pytest.raises(ValueError):
        PyEngineCore(0, 1.0, 0.0, 1, 0)
    with pytest.raises(ValueError):
        PyEngineCore(10, 0.0, 0.0, 1, 0)
    with pytest.raises(ValueError):
        PyEngineCore(10, 1.0, -0.1, 1, 0)
    with pytest.raises(ValueError):
        # injected schedule and clocked matches are mutually exclusive
        PyEngineCore(10, 1.0, 0.5, 1, 0, injected_t=[1.0], injected_site=[3])
    with pytest.raises(ValueError):
        PyEngineCore(10, 1.0, 0.0, 1, 0, injected_t=[1.0], injected_site=[99])
    with pytest.raises(ValueError):
        # igniting requires an occupied initial state
        PyEngineCore(10, 1.0, 0.0, 1, 0, initial_occupied=False, ignite_site=5)
    for pi, rate in [(math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf), (1.0, math.nan)]:
        with pytest.raises(ValueError):
            PyEngineCore(10, pi, rate, 1, 0)
    eng = PyEngineCore(10, 1.0, 0.1, 1, 0)
    eng.advance_to(2.0)
    for target in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            eng.advance_to(target)


def test_engine_matches_replay_oracle():
    queries = [0.5 * k for k in range(1, 31)]
    for seed in range(5):
        eng = PyEngineCore(25, 2.0, 0.3, master_seed=seed, stream_id=7)
        expected = reference_states(
            25, 2.0, 0.3, seed, 7, queries, initial_occupied=False
        )
        for q, exp_states in zip(queries, expected):
            eng.advance_to(q)
            assert eng.state_view() == exp_states


def test_engine_matches_replay_oracle_with_injection_and_fire():
    queries = [0.25 * k for k in range(1, 41)]
    injected = [(0.8, 12), (3.1, 4), (3.1, 20)]
    eng = PyEngineCore(
        33,
        5.0,
        0.0,
        master_seed=99,
        stream_id=3,
        initial_occupied=True,
        ignite_site=16,
        injected_t=[t for t, _ in injected],
        injected_site=[s for _, s in injected],
    )
    expected = reference_states(
        33, 5.0, 0.0, 99, 3, queries, initial_occupied=True,
        ignite_site=16, injected=injected,
    )
    for q, exp_states in zip(queries, expected):
        eng.advance_to(q)
        assert eng.state_view() == exp_states


def test_engine_determinism():
    a = PyEngineCore(40, 2.0, 0.2, master_seed=5, stream_id=1)
    b = PyEngineCore(40, 2.0, 0.2, master_seed=5, stream_id=1)
    a.advance_to(20.0)
    b.advance_to(20.0)
    assert a.state_view() == b.state_view()
    assert a.event_count == b.event_count
    c = PyEngineCore(40, 2.0, 0.2, master_seed=5, stream_id=2)
    c.advance_to(20.0)
    assert c.state_view() != a.state_view()


def test_seed_only_occupancy_law():
    # with no matches a site is occupied at raw time t with prob 1 - e^{-t}
    eng = PyEngineCore(2000, 1.0, 0.0, master_seed=11, stream_id=0)
    eng.advance_to(0.7)
    frac = sum(1 for b in eng.state_view() if b == OCCUPIED) / 2000
    p = 0.5034146962085905
    assert abs(frac - p) < 3.0 * math.sqrt(p * (1 - p) / 2000)


def test_match_cascade_crossing_time():
    # all occupied, the fire lit at the left end: the front crosses the
    # segment in n - 1 propagation steps, so it reaches the far end
    # Gamma(n - 1, pi) after the start
    n, pi, runs = 60, 50.0, 200
    total = 0.0
    for r in range(runs):
        eng = PyEngineCore(
            n, pi, 0.0, master_seed=31, stream_id=r,
            initial_occupied=True, ignite_site=0,
        )
        assert eng.burning_count == 1
        eng.advance_to(5.0)
        assert eng.burning_count == 0
        # the k-th advance reaches site k, so the far end is the last
        assert len(eng.front_plus) == n - 1
        total += eng.front_plus[-1]
    mean = total / runs
    se = math.sqrt(n - 1) / pi / math.sqrt(runs)
    assert abs(mean - (n - 1) / pi) < 3.0 * se


def test_burn_bounds_and_watch():
    eng = PyEngineCore(
        41, 10.0, 0.0, master_seed=8, stream_id=0,
        initial_occupied=True, injected_t=[0.5], injected_site=[20],
    )
    assert eng.burn_hi < eng.burn_lo  # nothing burned yet
    eng.advance_to(0.5)
    eng.advance_to(30.0)
    assert eng.burning_count == 0
    lo, hi = eng.burn_lo, eng.burn_hi
    assert 0 <= lo <= 20 <= hi <= 40
    # afterwards the burned stretch refills; every site must recur occupied
    eng.advance_to(70.0)
    st = eng.state_view()
    assert all(st[i] == OCCUPIED for i in range(lo, hi + 1))
    assert all(t > 0.5 for t in eng.seed_last_view()[lo : hi + 1])
    eng.reset_burn_bounds()
    assert eng.burn_hi < eng.burn_lo


# -- lazy seed clocks: only vacant sites queue one ---------------------------

_CORES = [
    "python",
    pytest.param("compiled", marks=pytest.mark.skipif(
        not COMPILED, reason=f"C core unavailable: {FALLBACK_REASON}")),
]


@pytest.mark.parametrize("engine", _CORES)
def test_advance_to_refuses_a_bad_target_and_changes_nothing(engine):
    # two fires and no match clocks: the queue empties, so a target of inf
    # let through would return rather than run forever
    eng = make_engine(40, 2.0, 0.0, 5, 1, injected_t=[1.0, 2.0], injected_site=[10, 30],
                      force=engine)
    eng.advance_to(3.0)
    before = (eng.now, eng.event_count, eng.state_view())
    assert before[1] > 0
    for target in (2.5, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"cannot advance to {target}: need now=3.0"):
            eng.advance_to(target)
        assert (eng.now, eng.event_count, eng.state_view()) == before
    eng.advance_to(3.0)  # the current time itself is accepted
    assert (eng.now, eng.event_count, eng.state_view()) == before


def _random_states(rng, n):
    """Runs of random states and lengths; about one box in four starts and
    ends with an occupied run, so runs touch both edges."""
    out = bytearray()
    while len(out) < n:
        state = rng.choice([VACANT, OCCUPIED, BURNING], p=[0.3, 0.5, 0.2])
        out += bytes([state]) * int(rng.integers(1, 25))
    out = out[:n]
    if rng.integers(4) == 0:
        edge = min(n, int(rng.integers(1, 20)))
        out[:edge] = bytes([OCCUPIED]) * edge
        out[n - edge:] = bytes([OCCUPIED]) * edge
    return bytes(out)


def _scan(states, idx, m):
    """(lo, hi, count) of PyEngineCore.observe, by a numpy scan."""
    occ = np.frombuffer(states, dtype=np.uint8) == OCCUPIED
    lo = hi = -1
    if occ[idx]:
        left = np.flatnonzero(~occ[:idx])
        right = np.flatnonzero(~occ[idx:])
        lo = int(left[-1]) + 1 if len(left) else 0
        hi = idx + int(right[0]) - 1 if len(right) else len(occ) - 1
    return lo, hi, int(occ[max(idx - m, 0):idx + m + 1].sum())


@pytest.mark.skipif(not COMPILED, reason=f"C core unavailable: {FALLBACK_REASON}")
def test_observe_parity_on_random_states():
    # the C word scan, the Python byte searches and a numpy scan agree on
    # every site, with windows clipped at both edges
    rng = np.random.default_rng(7)
    for n in (1, 2, 7, 8, 9, 15, 16, 17, 64, 203):
        py = make_engine(n, 1.0, 0.0, 1, 0, force="python")
        cy = make_engine(n, 1.0, 0.0, 1, 0, force="compiled")
        for _ in range(12):
            states = _random_states(rng, n)
            py._states[:] = states
            ctypes.memmove(clib.fl_states(cy._handle), states, n)
            assert py.state_view() == cy.state_view() == states
            for idx in range(n):
                for m in (0, 1, 3, 8, 9, n):
                    want = _scan(states, idx, m)
                    assert py.observe(idx, m) == cy.observe(idx, m) == want, (states, idx, m)
    full = make_engine(50, 1.0, 0.0, 1, 0, initial_occupied=True, force="compiled")
    assert full.observe(0, 3) == (0, 49, 4)
    assert full.observe(49, 60) == (0, 49, 50)
    # both cores refuse with the same message, integers beyond 64 bits
    # included, and read a window wider than any integer the same
    twin = make_engine(50, 1.0, 0.0, 1, 0, initial_occupied=True, force="python")
    for idx, m in ((-1, 3), (50, 3), (0, -1), (2**64 + 5, 3), (0, -(2**64))):
        for eng in (twin, full):
            with pytest.raises(ValueError) as refused:
                eng.observe(idx, m)
            assert str(refused.value) == f"cannot observe site {idx} with window {m} in a box of 50"
    for m in (2**63, 2**64):
        assert twin.observe(49, m) == full.observe(49, m) == (0, 49, 50)
    # the C entry point refuses on its own, leaving out untouched
    out = (ctypes.c_int64 * 3)(7, 7, 7)
    for idx, m in ((-1, 3), (50, 3), (0, -1)):
        assert clib.fl_observe(full._handle, idx, m, out) == -2
        assert list(out) == [7, 7, 7]


@pytest.mark.parametrize("engine", _CORES)
@pytest.mark.parametrize("box", ["occupied", "vacant"])
def test_lazy_seed_clocks_match_oracle(engine, box):
    # the oracle keeps every seed chain live; the cores queue a site's next
    # chain point only when its extinguish makes it vacant
    if box == "occupied":
        n, pi, rate, seed, stream = 61, 4.0, 0.0, 31, 2
        injected = [(0.7, 5), (2.4, 50), (2.4, 51), (6.0, 30), (9.5, 12), (13.0, 44)]
        kwargs = dict(initial_occupied=True, ignite_site=30)
    else:
        n, pi, rate, seed, stream = 61, 3.0, 0.2, 17, 5
        injected = []
        kwargs = {}
    queries = [0.75 * k for k in range(1, 25)]
    expected = reference_states(
        n, pi, rate, seed, stream, queries, injected=injected, **kwargs
    )
    eng = make_engine(
        n, pi, rate, seed, stream, force=engine,
        injected_t=[t for t, _ in injected], injected_site=[i for _, i in injected],
        **kwargs,
    )
    for q, want in zip(queries, expected):
        eng.advance_to(q)
        assert eng.state_view() == want, q


@pytest.mark.skipif(not COMPILED, reason=f"C core unavailable: {FALLBACK_REASON}")
def test_lazy_seed_clocks_driving_methods_match_oracle():
    # two fires on the same stretch: the second one's walks start from the
    # regrowth rings of the first, not from the chain origin
    injected = [(0.5, 40), (60.0, 45)]
    args = (81, 10.0, 0.0, 6, 1)
    ends = [t_match + 50.0 for t_match in (0.5, 60.0)]
    regrown, states = {}, {}
    for engine in ("python", "compiled"):
        eng = make_engine(
            *args, force=engine, initial_occupied=True,
            injected_t=[t for t, _ in injected], injected_site=[i for _, i in injected],
        )
        regrown[engine], states[engine] = [], []
        for t_match, end in zip((0.5, 60.0), ends):
            eng.advance_to(t_match)
            eng.reset_burn_bounds()
            eng.advance_to(end)
            assert eng.burning_count == 0
            states[engine].append(eng.state_view())
            lo, hi = eng.burn_lo, eng.burn_hi
            t_occ = max(eng.seed_last_view()[lo : hi + 1])
            assert lo < hi and t_match < t_occ < end
            regrown[engine].append((lo, hi, t_occ))
    assert regrown["python"] == regrown["compiled"]
    want = reference_states(*args, ends, initial_occupied=True, injected=injected)
    assert states["python"] == states["compiled"] == want
    # t_occ is the first time the burned stretch is wholly occupied again
    for lo, hi, t_occ in regrown["python"]:
        before, at = reference_states(
            *args, [math.nextafter(t_occ, 0.0), t_occ],
            initial_occupied=True, injected=injected,
        )
        assert all(at[i] == OCCUPIED for i in range(lo, hi + 1))
        assert any(before[i] != OCCUPIED for i in range(lo, hi + 1))


@pytest.mark.parametrize("engine", _CORES)
def test_lazy_seed_clocks_skip_rings_on_occupied_sites(engine):
    # 244,636 events with every seed clock live; lazily about 4,300
    run = run_propagation(9.0, 100.0, seed=7, engine=engine)
    assert len(run.times_plus) == 935 and len(run.spark_log) == 321
    assert run.event_count < 10_000, run.event_count


def test_python_walks_draw_no_scalar_seed_words(monkeypatch):
    # the Python core's walks read block-drawn words; after construction no
    # seed word may come from the scalar draw_u64
    calls = {PURPOSE_SEED: 0, PURPOSE_MATCH: 0, PURPOSE_PROPAGATE: 0}
    scalar = _engine_py.draw_u64

    def counted(master_seed, stream_id, purpose, site, index):
        calls[purpose] += 1
        return scalar(master_seed, stream_id, purpose, site, index)

    monkeypatch.setattr(_engine_py, "draw_u64", counted)
    run = run_propagation(9.0, 10.0, seed=7, engine="python")
    assert run.seed_rings_skipped > 500
    assert calls[PURPOSE_SEED] == calls[PURPOSE_MATCH] == 0
    assert calls[PURPOSE_PROPAGATE] > 100  # one per ignition, still scalar
    # a vacant box draws each site's first seed word at construction only
    eng = make_engine(200, 2.0, 0.05, 3, 1, force="python")
    assert calls[PURPOSE_SEED] == 200
    eng.advance_to(30.0)
    assert eng.seed_rings_skipped > 1000
    assert calls[PURPOSE_SEED] == 200


# -- wrapper ------------------------------------------------------------------


_FRONT_LOGS = ("front_plus", "front_minus", "spark_log", "omega_right", "omega_left")


@pytest.mark.parametrize("engine", _CORES)
def test_front_logs_fill_only_in_a_run_that_starts_with_a_fire(engine):
    # no fire at the start: a match at site 0 burns an occupied box, and
    # clocked matches burn a vacant one, yet no front log fills
    struck = make_engine(
        31, 9.0, 0.0, 4, 0, initial_occupied=True,
        injected_t=[0.5], injected_site=[0], force=engine,
    )
    clocked = make_engine(31, 9.0, 0.5, 4, 0, force=engine)
    for eng in (struck, clocked):
        eng.advance_to(20.0)
        assert eng.burn_lo <= eng.burn_hi
        assert [len(getattr(eng, name)) for name in _FRONT_LOGS] == [0] * 5
    assert len(struck.match_log) == 1 and struck.match_log[0][2]
    # the same box lit at its center logs both fronts to the edges
    lit = make_engine(31, 9.0, 0.0, 4, 0, initial_occupied=True, ignite_site=15, force=engine)
    lit.advance_to(20.0)
    assert len(lit.front_plus) == len(lit.front_minus) == 15
    assert len(lit.omega_right) > 0


def test_box_dimensions():
    d = DiscreteFFP(0.01, 2.0, 1.0, seed=1)
    assert d.a_sites == 21
    assert d.n_sites == 43


def test_memory_cap():
    with pytest.raises(ResourceLimitError):
        DiscreteFFP(1e-6, 2.0, 3.0e4, seed=1)
    assert MEMORY_CAP_SITES == 2**30


def test_wrapper_argument_validation():
    with pytest.raises(ValueError):
        DiscreteFFP(0.01, 2.0, -1.0, seed=1)
    with pytest.raises(ValueError):
        DiscreteFFP(0.01, 2.0, 1.0, seed=1, injected_matches=[(0.5, 99)])
    with pytest.raises(ValueError):
        DiscreteFFP(0.01, 2.0, 1.0, seed=1, initial="smoldering")


def test_empty_schedule_means_no_matches():
    # injected_matches=() is the chain without matches: the bare engine with
    # match rate 0 on the same box, at the same raw time
    d = DiscreteFFP(0.02, 5.0, 2.0, seed=3, injected_matches=())
    d.advance_to(1.5)
    eng = make_engine(d.n_sites, 5.0, 0.0, 3, 0)
    eng.advance_to(d.scales.a * 1.5)
    assert d.states() == eng.state_view()
    assert d.matches() == []
    clocked = DiscreteFFP(0.02, 5.0, 2.0, seed=3)
    clocked.advance_to(1.5)
    assert clocked.matches() and clocked.states() != d.states()


@pytest.mark.parametrize("engine", _CORES)
def test_sample_equals_per_point_calls(engine):
    grid = [0.0, 0.2, 0.2 + 1e-9, 0.75, 1.3, 2.0]
    sampled = DiscreteFFP(0.02, 5.0, 2.0, seed=3, engine=engine)
    stepped = DiscreteFFP(0.02, 5.0, 2.0, seed=3, engine=engine)
    rows = sampled.sample(grid)
    want = []
    for t in grid:
        stepped.advance_to(t)
        want.append(stepped.observables(0.0))
    assert repr(rows) == repr(want)
    assert any(o.cluster is not None for o in rows)
    assert sampled.states() == stepped.states()
    assert sampled.matches() == stepped.matches()


@pytest.mark.parametrize("engine", _CORES)
def test_sample_refuses_a_bad_grid_before_advancing(engine):
    d = DiscreteFFP(0.02, 5.0, 2.0, seed=3, engine=engine)
    d.advance_to(0.387)  # now exceeds 0.387 by an ulp in macroscopic time
    before = (d.now, d.event_count, d.states(), d.matches())
    for grid in ([1.0, 0.5], [0.5, 1.0, 0.9, 1.5], [0.3, 1.0], [-1.0],
                 [0.5, math.nan], [0.5, math.inf], [1.0, -math.inf], [1e308, 1e308]):
        with pytest.raises(ValueError, match="cannot sample the grid"):
            d.sample(grid)
        assert (d.now, d.event_count, d.states(), d.matches()) == before, grid
    # the current time, compared in raw time as advance_to compares it, and
    # repeated times are accepted
    assert len(d.sample([0.387, 0.387, 1.0])) == 3
    assert d.sample([]) == []


def test_cluster_observables_compare_and_replace():
    d = DiscreteFFP(0.02, 5.0, 2.0, seed=3, initial="occupied", injected_matches=())
    obs = d.observables(0.0)
    assert obs == d.observables(0.0)
    assert obs.cluster == (-d.a_sites, d.a_sites) and obs.K == 1.0
    changed = dataclasses.replace(obs, K=0.5)
    assert changed != obs and (changed.K, changed.cluster) == (0.5, obs.cluster)
    assert not hasattr(obs, "__dict__")  # slotted


def test_advance_to_checks_the_macroscopic_target():
    d = DiscreteFFP(0.02, 5.0, 1.0, seed=3)
    # a * 0.387 / a rounds up: now exceeds the target by an ulp, and the
    # same target must still be accepted
    d.advance_to(0.387)
    assert d.now > 0.387
    before = (d.states(), d.event_count)
    d.advance_to(0.387)
    assert (d.states(), d.event_count) == before
    for t in (0.3, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"cannot advance to t={t}: need now="):
            d.advance_to(t)


def test_macro_time_and_occupancy():
    # P[site occupied at macro time t] = 1 - lambda^t without matches
    d = DiscreteFFP(0.01, 2.0, 20.0, seed=3, injected_matches=())
    d.advance_to(0.15)
    assert abs(d.now - 0.15) < 1e-12
    assert abs(d.now_raw - 0.15 * d.scales.a) < 1e-12
    st = d.states()
    frac = sum(1 for b in st if b == OCCUPIED) / len(st)
    p = 0.4988127663727277
    assert abs(frac - p) < 3.0 * math.sqrt(p * (1 - p) / len(st))


def test_observables_on_constructed_state():
    d = DiscreteFFP(0.01, 2.0, 1.0, seed=1, injected_matches=(), engine="python")
    assert d.scales.m == 4
    st = d._eng._states
    center = d.a_sites
    for off in (-4, -3, -2, -1, 0, 1, 2, 4):
        st[center + off] = OCCUPIED
    obs = d.observables(0.0)
    assert obs.cluster == (-4, 2)
    assert obs.size == 7
    assert obs.D == pytest.approx((-4 / 21, 2 / 21), abs=1e-15)
    assert obs.K == pytest.approx(8 / 9, abs=1e-15)
    assert obs.Z == pytest.approx(0.4771212547196624, abs=1e-12)
    assert obs.W == pytest.approx(0.4225490200071284, abs=1e-12)
    # the queried site itself vacant: empty cluster, W = 0, K unchanged
    obs3 = d.observables(3 / 21)
    assert obs3.cluster is None and obs3.size == 0 and obs3.W == 0.0
    # burning site also yields an empty cluster
    st[center] = BURNING
    obs_b = d.observables(0.0)
    assert obs_b.cluster is None and obs_b.W == 0.0


def test_z_saturates_only_at_full_window():
    d = DiscreteFFP(0.01, 2.0, 1.0, seed=1, injected_matches=(), engine="python")
    st = d._eng._states
    center = d.a_sites
    m = d.scales.m
    assert 2 * m + 1 < 1.0 / d.lam  # the regime where Z = 1 iff K = 1
    for off in range(-m, m + 1):
        st[center + off] = OCCUPIED
    obs = d.observables(0.0)
    assert obs.K == 1.0 and obs.Z == 1.0
    st[center + m] = VACANT
    obs = d.observables(0.0)
    assert obs.K < 1.0 and obs.Z < 1.0


def test_observables_out_of_box():
    d = DiscreteFFP(0.01, 2.0, 1.0, seed=1)
    with pytest.raises(ValueError):
        d.observables(1.5)
    with pytest.raises(ValueError):
        d.observables(-1.2)


def test_window_clipping_at_box_edge():
    # querying next to the edge clips the window and its denominator
    d = DiscreteFFP(0.01, 2.0, 0.2, seed=1, injected_matches=(), engine="python")
    assert d.a_sites == 4
    st = d._eng._states
    for i in range(len(st)):
        st[i] = OCCUPIED
    obs = d.observables(4 / 21)  # site 4, window clipped to sites 0..4
    assert obs.K == 1.0
    assert obs.cluster == (-4, 4)


def test_injected_matches_and_match_log():
    d = DiscreteFFP(
        0.02, 5.0, 1.0, seed=9,
        injected_matches=[(0.3, 0), (0.6, 2)], initial="occupied",
    )
    d.advance_to(1.0)
    log = d.matches()
    assert len(log) == 2
    (t0, s0, e0), (t1, s1, e1) = log
    assert (s0, s1) == (0, 2)
    assert t0 == pytest.approx(0.3, abs=1e-12)
    assert t1 == pytest.approx(0.6, abs=1e-12)
    assert e0  # site 0 was occupied at the first match


def test_cluster_size_at_origin_and_snapshot():
    d = DiscreteFFP(0.05, 4.0, 2.0, seed=12)
    d.advance_to(1.5)
    size = d.observables(0.0).size
    assert size >= 0
    snap = d.snapshot()
    assert snap["schema"] == "ffp-snapshot/1"
    assert snap["encoding"] == "rle"
    assert snap["lambda"] == 0.05 and snap["pi"] == 4.0 and snap["A"] == 2.0
    assert snap["t_macro"] == pytest.approx(1.5, abs=1e-12)
    assert sum(c for c, _ in snap["states"]) == d.n_sites
    assert all(s in (0, 1, 2) for _, s in snap["states"])
    # consecutive runs encode distinct states
    vals = [s for _, s in snap["states"]]
    assert all(x != y for x, y in zip(vals, vals[1:]))


def test_wrapper_determinism():
    a = DiscreteFFP(0.05, 4.0, 2.0, seed=12)
    b = DiscreteFFP(0.05, 4.0, 2.0, seed=12)
    a.advance_to(2.0)
    b.advance_to(2.0)
    assert a.states() == b.states()
    c = DiscreteFFP(0.05, 4.0, 2.0, seed=12, stream_id=5)
    c.advance_to(2.0)
    assert c.states() != a.states()


# -- propagation process -------------------------------------------------------


def test_propagation_front_series():
    run = run_propagation(5.0, 3.0, seed=7)
    assert not run.truncated
    tp = run.times_plus
    assert len(tp) > 0
    assert all(tp[i] < tp[i + 1] for i in range(len(tp) - 1))
    assert run.front_position(0.0) == 0
    assert run.front_position(3.0, "right") == len(tp)
    assert run.front_position(3.0, "left") == len(run.times_minus)
    with pytest.raises(ValueError):
        run.front_position(1.0, "up")


def test_propagation_sparks_and_windows():
    run = run_propagation(9.0, 80.0, seed=21)
    frac, total = run.omega1_fraction()
    assert total > 1200
    p = 9.0 / 10.0
    assert abs(frac - p) < 3.0 * math.sqrt(p * (1 - p) / total)
    rmax = len(run.times_plus)
    lmax = len(run.times_minus)
    for off, t0, t1 in run.spark_log:
        assert -lmax <= off <= rmax
        assert 0.0 < t0 < t1 <= 80.0


@pytest.mark.parametrize("engine", [
    "python",
    pytest.param("compiled", marks=pytest.mark.skipif(
        not COMPILED, reason=f"C core unavailable: {FALLBACK_REASON}")),
])
@pytest.mark.parametrize("pi, horizon, radius, seed, truncated", [
    (9.0, 20.0, None, 21, False),
    (5.0, 10.0, 3, 1, True),
])
def test_propagation_fronts_match_oracle(engine, pi, horizon, radius, seed, truncated):
    # the front logs hold times only; the oracle's first ignitions say which
    # sites they stand for
    run = run_propagation(pi, horizon, radius=radius, seed=seed, engine=engine)
    r = run.radius
    _, first = reference_run(
        2 * r + 1, pi, 0.0, seed, 0, [horizon], initial_occupied=True, ignite_site=r
    )
    burned = sorted(site - r for site in first)
    assert burned == list(range(-len(run.times_minus), len(run.times_plus) + 1))
    assert first[r] == 0.0
    for k, t in enumerate(run.times_plus, 1):
        assert first[r + k] == t
    for k, t in enumerate(run.times_minus, 1):
        assert first[r - k] == t
    assert run.truncated == (burned[0] == -r or burned[-1] == r) == truncated


# sha256 of the raw bytes of each record of run_propagation(9, 600, seed=7),
# the criterion-2 run, on the C core (spark_log as float64 rows): pinned so
# that a faster draw or walk keeps the realization bit for bit
_GOLDEN_CRITERION_2 = {
    "times_plus": "452f5a5d5c023275c9a5e82453be2a63f493f6667ef1cb01e9bd277dd2513109",
    "times_minus": "5375531315da93ac783cd81957aadbe1a33bb9be5cb68ff7c32a5901503d784f",
    "spark_log": "d15bcc2562c18b5e3c641d2433c2943da165aa56fae1e06d4f137ae6e4eeff1c",
    "omega_right": "b0f5f5948c95424138e6b370383f7fdf1f807da4e661dd3a67df461c8b46c3fc",
    "omega_left": "300fbdfa17b6b4654e490812989f66f8b65fc03c6331e45523bf4ea0544de471",
}


@pytest.mark.skipif(not COMPILED, reason=f"C core unavailable: {FALLBACK_REASON}")
def test_criterion_2_run_golden_realization():
    run = run_propagation(9.0, 600.0, seed=7, engine="compiled")
    assert (run.event_count, run.seed_rings_skipped) == (88_997, 5_469_018)
    records = {
        "times_plus": run.times_plus,
        "times_minus": run.times_minus,
        "spark_log": np.asarray(run.spark_log, dtype=np.float64),
        "omega_right": run.omega_right,
        "omega_left": run.omega_left,
    }
    got = {name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
           for name, a in records.items()}
    assert got == _GOLDEN_CRITERION_2


def test_propagation_truncation_flag():
    run = run_propagation(5.0, 10.0, radius=3, seed=1)
    assert run.truncated


def test_propagation_determinism_and_validation():
    a = run_propagation(5.0, 2.0, seed=3)
    b = run_propagation(5.0, 2.0, seed=3)
    assert a.times_plus.tolist() == b.times_plus.tolist()
    assert a.event_count == b.event_count
    assert suggested_radius(5.0, 2.0) >= 10
    with pytest.raises(ValueError):
        run_propagation(5.0, 0.0)
    with pytest.raises(ValueError):
        run_propagation(0.0, 1.0)
    with pytest.raises(ValueError):
        run_propagation(5.0, 1.0, radius=0)
