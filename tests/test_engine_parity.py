"""The C core and the pure-Python engine must be bit-identical: same
states, same event counts, same logs, same returned times."""

import math

import numpy as np
import pytest

from fireline._engine_py import _CHUNK, _REFILL, PyEngineCore
from fireline.discrete import run_propagation
from fireline.engine import COMPILED, FALLBACK_REASON, make_engine
from fireline.rng import PURPOSE_PROPAGATE, PURPOSE_SEED, draw_u64

pytestmark = pytest.mark.skipif(
    not COMPILED, reason=f"C core unavailable: {FALLBACK_REASON}"
)


def _pair(*args, **kwargs):
    return (
        make_engine(*args, force="python", **kwargs),
        make_engine(*args, force="compiled", **kwargs),
    )


def _same_log(py_log, c_log, width):
    """A Python-core log (a list) and a C-core log (an array) hold the same rows."""
    def rows(log):
        return np.asarray(log, dtype=np.float64).reshape(-1, width)

    return np.array_equal(rows(py_log), rows(c_log))


def test_make_engine_selects():
    eng = make_engine(10, 1.0, 0.0, 1, 0)
    assert not isinstance(eng, PyEngineCore)
    assert isinstance(make_engine(10, 1.0, 0.0, 1, 0, force="python"), PyEngineCore)
    with pytest.raises(ValueError):
        make_engine(10, 1.0, 0.0, 1, 0, force="fortran")


def test_parity_clocked_matches():
    py, cy = _pair(80, 4.0, 0.3, 2025, 11)
    for t in [0.5, 1.7, 8.0, 20.0, 45.0]:
        py.advance_to(t)
        cy.advance_to(t)
        assert py.state_view() == cy.state_view(), f"diverged at t={t}"
        assert py.event_count == cy.event_count
        assert py.now == cy.now
    assert _same_log(py.match_log, cy.match_log, 3)
    assert (py.burn_lo, py.burn_hi) == (cy.burn_lo, cy.burn_hi)


def test_parity_injected_and_fire():
    kwargs = dict(
        initial_occupied=True,
        ignite_site=25,
        injected_t=[1.5, 6.0],
        injected_site=[10, 40],
    )
    py, cy = _pair(51, 6.0, 0.0, 7, 3, **kwargs)
    for t in [1.0, 2.0, 5.0, 10.0, 30.0]:
        py.advance_to(t)
        cy.advance_to(t)
        assert py.state_view() == cy.state_view(), f"diverged at t={t}"
    assert _same_log(py.match_log, cy.match_log, 3)
    assert py.event_count == cy.event_count


def test_parity_propagation_tracking():
    kwargs = dict(initial_occupied=True, ignite_site=300)
    py, cy = _pair(601, 9.0, 0.0, 123, 0, **kwargs)
    py.advance_to(25.0)
    cy.advance_to(25.0)
    assert _same_log(py.front_plus, cy.front_plus, 1)
    assert _same_log(py.front_minus, cy.front_minus, 1)
    assert _same_log(py.spark_log, cy.spark_log, 3)
    assert _same_log(py.omega_right, cy.omega_right, 1)
    assert _same_log(py.omega_left, cy.omega_left, 1)
    assert min(len(py.front_plus), len(py.spark_log), len(py.omega_left)) > 0
    assert py.state_view() == cy.state_view()


def test_parity_driving_methods():
    kwargs = dict(initial_occupied=True, injected_t=[0.25], injected_site=[30])
    py, cy = _pair(61, 12.0, 0.0, 42, 9, **kwargs)
    for eng in (py, cy):
        eng.advance_to(0.25)
        eng.advance_to(50.0)
    assert py.burning_count == cy.burning_count == 0
    lo, hi = py.burn_lo, py.burn_hi
    assert (lo, hi) == (cy.burn_lo, cy.burn_hi) and lo < 30 < hi
    # the latest occupation times, regrowth rings included, agree bit for bit
    seed_last = np.asarray(py.seed_last_view(), dtype=np.float64)
    assert seed_last.tobytes() == cy.seed_last_view().tobytes()
    assert seed_last[lo : hi + 1].min() > 0.25
    assert py.state_view() == cy.state_view()


def _assert_same_run(py, cy):
    assert py.state_view() == cy.state_view()
    assert (py.now, py.event_count, py.seed_rings_skipped, py.burning_count) == (
        cy.now, cy.event_count, cy.seed_rings_skipped, cy.burning_count
    )
    for name, width in (("match_log", 3), ("front_plus", 1), ("front_minus", 1),
                        ("spark_log", 3), ("omega_right", 1), ("omega_left", 1)):
        assert _same_log(getattr(py, name), getattr(cy, name), width), name
    seed_last = np.asarray(py.seed_last_view(), dtype=np.float64)
    assert seed_last.tobytes() == cy.seed_last_view().tobytes()


@pytest.mark.parametrize("start", ["fire", "vacant"])
def test_parity_block_drawn_walks(start):
    """The Python core's walks read block-drawn seed words, a chunk of sites
    at a time; they must step over the chain points the C core's scalar
    draws give, across chunk boundaries, refills and the last, partial
    chunk."""
    n_sites = 3 * _CHUNK + 21
    if start == "fire":
        py, cy = _pair(n_sites, 1.0, 0.0, 31, 2, initial_occupied=True,
                       ignite_site=n_sites // 2)
        horizon = 150.0
    else:
        py, cy = _pair(n_sites, 1.0, 0.02, 31, 2)
        horizon = 200.0
    for t in (horizon / 3, 2 * horizon / 3, horizon):
        py.advance_to(t)
        cy.advance_to(t)
        _assert_same_run(py, cy)
    assert py.seed_rings_skipped > 10 * n_sites
    assert len(py.spark_log if start == "fire" else py.match_log) > 100
    # every site, the last chunk's too, read past its first refill
    assert min(py._draws[PURPOSE_SEED]) > _REFILL


def _exp(seed, purpose, k):
    return -math.log(((draw_u64(seed, 0, purpose, 0, k) >> 11) + 1) * 2.0**-53)


def test_parity_seed_rings_skipped():
    """seed_rings_skipped counts the seed chain points a site's walk steps
    over when its extinguish makes it vacant; rings still ahead of occupied
    sites are not counted."""
    py = run_propagation(9.0, 25.0, seed=123, engine="python")
    cy = run_propagation(9.0, 25.0, seed=123, engine="compiled")
    assert py.seed_rings_skipped == cy.seed_rings_skipped > 0
    assert py.event_count == cy.event_count
    # one site burning from time 0 until a slow extinguish at tau: the walk
    # steps over exactly its chain points before tau and queues the next one
    pi, seed = 0.05, 3
    tau = _exp(seed, PURPOSE_PROPAGATE, 0) / pi
    s, skipped = _exp(seed, PURPOSE_SEED, 0), 0
    while s < tau:
        skipped += 1
        s = s + _exp(seed, PURPOSE_SEED, skipped)
    assert skipped > 0
    for engine in ("python", "compiled"):
        eng = make_engine(1, pi, 0.0, seed, 0, initial_occupied=True, ignite_site=0,
                          force=engine)
        eng.advance_to(s)
        assert eng.seed_rings_skipped == skipped
        assert eng.event_count == 2  # the extinguish and the ring at s
        assert eng.state_view() == b"\x01"


def test_parity_long_walks_resume_from_their_counters():
    """Slow extinguishes (pi = 0.05) leave gaps of tens of rings, and
    injected matches re-ignite the regrown sites, so a site walks its seed
    chain again from where its counter stopped, possibly inside the Python
    core's buffered words.  Both cores must agree after every round."""
    n_sites, seed = 12, 51
    injected = [(30.0 * k + 0.5 * i / n_sites, i) for k in range(1, 8) for i in range(n_sites)]
    py, cy = _pair(n_sites, 0.05, 0.0, seed, 0, initial_occupied=True,
                   ignite_site=n_sites // 2, injected_t=[t for t, _ in injected],
                   injected_site=[i for _, i in injected])
    walks = []  # (site, last chain point, target)
    walk = py._walk

    def recorded(site, t):
        walks.append((site, py._seed_last[site], t))
        return walk(site, t)

    py._walk = recorded
    for t in (90.0, 180.0, 260.0):
        py.advance_to(t)
        cy.advance_to(t)
        _assert_same_run(py, cy)
    long_walks = [w for w in walks if w[2] - w[1] > 16]
    assert len(long_walks) > 50
    # every site walks a long gap more than once, resuming from its counter
    assert all(sum(w[0] == site for w in long_walks) >= 2 for site in range(n_sites))
    assert sum(effective for _, _, effective in py.match_log) > 2 * n_sites


def test_parity_validation_errors():
    for bad, match in (
        (dict(n_sites=0), "n_sites must be at least 1"),
        (dict(pi=0.0), "pi must be positive"),
        (dict(match_rate=-1.0), "match_rate must be nonnegative"),
        (dict(master_seed=2**64), "master_seed must fit"),
        (dict(stream_id=-1), "stream_id must fit"),
        (dict(match_rate=0.5, injected_t=[1.0], injected_site=[2]), "require match_rate == 0"),
        (dict(ignite_site=3), "requires an occupied initial state"),
        (dict(injected_t=[1.0, 2.0], injected_site=[2]), "times and sites differ in length"),
        # past the box the C core would write its fire outside its states
        (dict(ignite_site=10, initial_occupied=True), "ignite_site 10 outside the box"),
    ):
        args = dict(n_sites=10, pi=1.0, match_rate=0.0, master_seed=1, stream_id=0)
        args.update(bad)
        with pytest.raises(ValueError, match=match):
            make_engine(force="python", **args)
        with pytest.raises(ValueError, match=match):
            make_engine(force="compiled", **args)
