"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test is deterministic (fixed seeds) and asserts both the statistical
band and the runtime budget of its criterion, so `pytest -v` prints one
pass/fail line per criterion.
"""

import math
import sys
import time

import numpy as np
import pytest

from fireline.discrete import DiscreteFFP
from fireline.engine import make_engine
from fireline.harness import (
    barrier_height_experiment,
    cluster_dist_experiment,
    coupled_distances,
    front_speed_experiment,
    gamma_test,
    limit_tail_experiment,
    spark_fraction_experiment,
)
from fireline.limits import simulate_alffp_p, simulate_lffp_0
from fireline.rng import RngStream, poisson_rectangle
from fireline.scales import (
    Regime,
    Trajectory,
    compute_scales,
    d_T,
    pi_for_regime,
    uniform_grid,
)

from _reference import reference_states
from test_discrete import LegalityCheckedEngine
from test_limits import check_event_log
from test_metrics import test_delta_interval_metric_axioms as _delta_metric_axioms


def test_criterion_1_front_speed():
    """Mean and variance of the right front count match Poisson(100)."""
    start = time.monotonic()
    res = front_speed_experiment(50.0, 2.0, 1000, seed=101)
    elapsed = time.monotonic() - start
    assert abs(res.mean_plus - 100.0) <= 0.95, res.mean_plus
    assert abs(res.var_plus - 100.0) <= 15.0, res.var_plus
    assert elapsed < 10.0, elapsed


def test_criterion_2_spark_fraction():
    """Fraction of clean inter-front windows matches pi/(1+pi) = 0.9."""
    start = time.monotonic()
    res = spark_fraction_experiment(9.0, 600.0, 1, seed=7)
    elapsed = time.monotonic() - start
    assert res.windows >= 10_000, res.windows
    assert abs(res.fraction - 0.9) <= 0.01, res.fraction
    assert elapsed < 30.0, elapsed


def test_criterion_3_gamma_cluster_law():
    """Slow-limit cluster lengths follow Gamma(2, t - z0).

    Exact limit samples must pass a 1% Kolmogorov test.  The discrete run
    at lam = e^-6, pi = lam^-0.5 checks the matching trend: the mean of
    |C|/n over runs whose origin lies in a cluster falls within 25% of the
    limit mean 4/3.  The law has no mass at zero, and the vacant-origin
    probability (about 0.15 at this lam, vanishing in the limit) is a
    finite-lam artifact, so empty runs do not enter the mean.
    """
    start = time.monotonic()
    res = gamma_test(0.5, 2.0, 10_000, seed=7)
    elapsed = time.monotonic() - start
    assert res.ks < 0.0163, res.ks
    assert elapsed < 5.0, elapsed

    lam = math.exp(-6.0)
    pi = lam**-0.5
    n = compute_scales(lam, pi).n
    start = time.monotonic()
    disc = cluster_dist_experiment(lam, pi, 2.0, 500, seed=2, A=8.0)
    elapsed = time.monotonic() - start
    occupied = disc.sizes[disc.sizes > 0] / n
    mean = float(occupied.mean())
    assert 4.0 / 3.0 * 0.75 <= mean <= 4.0 / 3.0 * 1.25, mean
    assert elapsed < 300.0, elapsed


def test_criterion_4_exponential_tail():
    """P[|D_3(0)| >= B] stays under 2 exp(-B/8) plus three Wilson half-widths."""
    start = time.monotonic()
    res = limit_tail_experiment(6.0, 3.0, 10_000, seed=19)
    elapsed = time.monotonic() - start
    for b, frac, half, env in zip(
        res.thresholds, res.fractions, res.wilson_halves, res.envelope
    ):
        assert frac <= env + 3.0 * half, (b, frac, env, half)
    assert elapsed < 60.0, elapsed


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_exponential_tail_below_envelope_one(p):
    """The tail law where it can fail: at B = 6..12 the envelope 2 exp(-B/8)
    is below 1 (criterion 4's thresholds B = 1, 2, 4 all have it above 1)."""
    thresholds = (6.0, 8.0, 10.0, 12.0)
    res = limit_tail_experiment(6.0, 3.0, 400, seed=19, p=p, thresholds=thresholds)
    for b, frac, half, env in zip(
        res.thresholds, res.fractions, res.wilson_halves, res.envelope
    ):
        assert env < 1.0
        assert frac <= env + 3.0 * half, (b, frac, env, half)


def test_criterion_5_barrier_height():
    """Regrowth delay after a match at t1 = 0.5 averages near 0.5 and grows with t1."""
    lam = math.exp(-8.0)
    pi = pi_for_regime(lam, Regime.fast())
    start = time.monotonic()
    main = barrier_height_experiment(lam, pi, 0.0, 0.5, 300, seed=11)
    assert abs(main.mean_theta - 0.5) <= 0.15, main.mean_theta
    means = [
        barrier_height_experiment(lam, pi, 0.0, t1, 300, seed=11).mean_theta
        for t1 in (0.2, 0.4, 0.6)
    ]
    elapsed = time.monotonic() - start
    assert means[0] < means[1] < means[2], means
    assert elapsed < 300.0, elapsed


def test_criterion_6_coupled_convergence_trend():
    """Median coupled distance decreases along the lam ladder at p = 1.

    The strict fall holds at the pinned seed 42 and for about 93 % of seeds
    (4000 resampled 50-run sets per rung)."""
    start = time.monotonic()
    medians = []
    for k in (4, 6, 8):
        lam = math.exp(-float(k))
        pi = pi_for_regime(lam, Regime.intermediate(1.0))
        dists = coupled_distances(lam, pi, 2.0, 2.0, 50, seed=42)
        medians.append(float(np.median(dists)))
    elapsed = time.monotonic() - start
    assert medians[0] > medians[1] > medians[2], medians
    assert elapsed < 900.0, elapsed


def test_criterion_7_oracle_equivalence():
    """The live engine reproduces the pre-generated replay state for state."""
    start = time.monotonic()
    for s in range(100):
        n_sites = 2 + s % 31
        pi = 0.5 + (s * 37 % 100) / 10.0
        match_rate = 0.0 if s % 3 == 0 else 0.05 * (1 + s % 4)
        occupied = s % 2 == 1
        ignite = n_sites // 2 if (occupied and s % 5 == 0) else -1
        horizon = 3.0 + (s % 5)
        queries = [horizon * (k + 1) / 100.0 for k in range(100)]
        want = reference_states(
            n_sites, pi, match_rate, s, 0, queries,
            initial_occupied=occupied, ignite_site=ignite,
        )
        eng = make_engine(
            n_sites, pi, match_rate, s, 0,
            initial_occupied=occupied, ignite_site=ignite,
        )
        for t, ref in zip(queries, want):
            eng.advance_to(t)
            assert eng.state_view() == ref, (s, t)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, elapsed


def test_criterion_8_limit_engine_p_to_zero():
    """A-LFFP(p) cluster trajectories converge to the p = 0 engine."""
    start = time.monotonic()
    grid = uniform_grid(2.0, 256)
    zeros = np.zeros(len(grid))

    def d_traj(state):
        return Trajectory(grid, zeros, [state.D(0.0, float(t)) for t in grid])

    ps = (1e-1, 1e-2, 1e-3)
    gaps = {p: [] for p in ps}
    for i in range(20):
        marks = poisson_rectangle(RngStream(77, i), -2.0, 2.0, 0.0, 2.0)
        base = d_traj(simulate_lffp_0(2.0, 2.0, marks=marks))
        for p in ps:
            state = simulate_alffp_p(p, 2.0, 2.0, marks=marks)
            gaps[p].append(d_T(d_traj(state), base))
    means = [float(np.mean(gaps[p])) for p in ps]
    elapsed = time.monotonic() - start
    assert means[0] > means[1] > means[2], means
    assert means[2] < 10.0 * means[0], means
    assert elapsed < 60.0, elapsed


def test_criterion_9_invariant_suites():
    """Transition legality, metric axioms, Z/K consistency, event-log
    predicates, and byte-identical determinism hold with zero violations."""
    # every transition an event makes is legal, on a long mixed run
    eng = LegalityCheckedEngine(
        151, 3.0, 0.25, master_seed=2024, stream_id=0, initial_occupied=False
    )
    eng.advance_to(25.0)
    assert eng.event_count > 3000

    # the interval distance is a metric on nonempty intervals (1e4 triples)
    _delta_metric_axioms()

    # Z is always in [0, 1] and saturates exactly when the window is full,
    # under the window condition 2m + 1 < 1/lam
    lam = math.exp(-5.0)
    s = compute_scales(lam, 20.0)
    assert 2 * s.m + 1 < 1.0 / lam
    sim = DiscreteFFP(lam, 20.0, 3.0, seed=77)
    for t in (0.4, 0.9, 1.3, 1.8):
        sim.advance_to(t)
        for x in np.linspace(-2.5, 2.5, 41):
            obs = sim.observables(float(x))
            assert 0.0 <= obs.Z <= 1.0
            assert (obs.Z == 1.0) == (obs.K == 1.0)

    # limit event logs are time-ordered and every FrontStopped event is
    # justified by the blocking predicate
    for seed in range(10):
        check_event_log(simulate_alffp_p(1.0, 2.0, 2.0, seed=seed))

    # determinism: byte-identical states and identical event logs on reruns
    d1 = DiscreteFFP(lam, 20.0, 2.0, seed=5)
    d2 = DiscreteFFP(lam, 20.0, 2.0, seed=5)
    d1.advance_to(1.5)
    d2.advance_to(1.5)
    assert d1.states() == d2.states()
    s1 = simulate_alffp_p(0.5, 2.0, 2.0, seed=6)
    s2 = simulate_alffp_p(0.5, 2.0, 2.0, seed=6)
    assert s1.events == s2.events
