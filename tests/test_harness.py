"""Experiment-harness tests: statistics helpers, coupling, batch drivers."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from fireline import harness
from fireline.discrete import DiscreteFFP, match_schedule_from_marks, run_propagation
from fireline.harness import (
    barrier_height_experiment,
    cluster_dist_experiment,
    coupled_distances,
    coupled_run,
    front_speed_experiment,
    front_statistics,
    fronts_experiment,
    gamma_test,
    ks_statistic,
    limit_tail_experiment,
    spark_fraction_experiment,
    wilson_interval,
)
from fireline.limits import simulate_alffp_p, simulate_lffp_inf
from fireline.rng import Mark
from fireline.scales import Regime, compute_scales, pi_for_regime


# -- statistics helpers ------------------------------------------------------------


def test_wilson_interval_values():
    # k=90, n=100, z=1: center 90.5/101, half sqrt(9.25)/101
    lo, hi = wilson_interval(90, 100)
    assert abs(lo - (90.5 - math.sqrt(9.25)) / 101.0) < 1e-12
    assert abs(hi - (90.5 + math.sqrt(9.25)) / 101.0) < 1e-12

    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and 0.0 < hi < 1.0
    lo, hi = wilson_interval(10, 10)
    assert hi == 1.0 and 0.0 < lo < 1.0

    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


def test_ks_statistic_exact():
    uniform = lambda v: v
    assert abs(ks_statistic([0.1, 0.5, 0.9], uniform) - 7.0 / 30.0) < 1e-12
    assert abs(ks_statistic([0.25, 0.75], uniform) - 0.25) < 1e-12
    with pytest.raises(ValueError):
        ks_statistic([], uniform)


# -- coupled runs ------------------------------------------------------------------


def _intermediate_point(k):
    lam = math.exp(-float(k))
    return lam, pi_for_regime(lam, Regime.intermediate(1.0))


def test_coupled_run_match_log_matches_marks():
    lam, pi = _intermediate_point(4)
    run = coupled_run(lam, pi, 1.5, 1.5, seed=5, grid_points=32)
    n = compute_scales(lam, pi).n
    a_sites = math.floor(1.5 * n)
    expected = [
        (m.t, math.floor(n * m.x))
        for m in run.marks
        if -a_sites <= math.floor(n * m.x) <= a_sites
    ]
    got = [(t, site) for (t, site, _) in run.match_log]
    assert len(got) == len(expected)
    for (t_want, s_want), (t_got, s_got) in zip(expected, got):
        assert s_got == s_want
        assert abs(t_got - t_want) < 1e-9


def test_match_schedule_drops_left_sliver_marks():
    lam, pi = _intermediate_point(4)
    scales = compute_scales(lam, pi)
    A = 1.5
    a_sites = math.floor(A * scales.n)
    assert a_sites < A * scales.n  # x = -A lies left of site -a_sites
    marks = [Mark(-A, 0.1), Mark(0.0, 0.2)]
    assert match_schedule_from_marks(marks, scales, a_sites) == [(0.2, 0)]
    with pytest.raises(ValueError, match="outside the box"):
        match_schedule_from_marks([Mark(A + 1.0, 0.3)], scales, a_sites)

    run = coupled_run(lam, pi, A, 1.5, seed=27, grid_points=32)
    assert any(math.floor(scales.n * m.x) == -a_sites - 1 for m in run.marks)
    schedule = match_schedule_from_marks(run.marks, scales, a_sites)
    assert len(schedule) < len(run.marks)
    assert [site for _, site, _ in run.match_log] == [site for _, site in schedule]


def test_coupled_run_determinism():
    lam, pi = _intermediate_point(4)
    r1 = coupled_run(lam, pi, 1.0, 1.0, seed=9, grid_points=32)
    r2 = coupled_run(lam, pi, 1.0, 1.0, seed=9, grid_points=32)
    assert r1.distance == r2.distance
    assert r1.marks == r2.marks
    assert np.array_equal(r1.discrete.values, r2.discrete.values)
    assert r1.discrete.intervals == r2.discrete.intervals
    assert np.array_equal(r1.limit.values, r2.limit.values)
    assert r1.limit.intervals == r2.limit.intervals


def test_coupled_run_slow_regime_compares_clusters_only():
    lam = math.exp(-4.0)
    run = coupled_run(lam, 0.1, 1.0, 1.0, seed=2, grid_points=16)
    assert run.regime.kind == "slow"
    # the slow limit has no regrowth observable: the value channel is neutral
    assert np.array_equal(run.limit.values, run.discrete.values)
    assert run.distance >= 0.0


def test_coupled_distances_parallel_matches_serial():
    lam, pi = _intermediate_point(4)
    serial = coupled_distances(lam, pi, 1.0, 1.0, 4, seed=7, grid_points=16)
    parallel = coupled_distances(lam, pi, 1.0, 1.0, 4, seed=7, grid_points=16, jobs=2)
    assert serial == parallel
    assert len(serial) == 4


def test_limit_trajectory_matches_state_queries():
    marks = [Mark(0.0, 0.4), Mark(0.5, 1.2)]
    state = simulate_alffp_p(1.0, 2.0, 2.0, marks=marks)
    grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    traj = state.trajectory(grid)
    assert np.array_equal(traj.times, grid)
    for i, t in enumerate(grid):
        assert traj.values[i] == state.Z(0.0, float(t))
        assert traj.intervals[i] == state.D(0.0, float(t))


@pytest.mark.parametrize("pi, kind", [(500.0, "fast"), (3.4, "intermediate"), (0.1, "slow")])
def test_coupled_run_equals_per_point_calls(pi, kind):
    lam, A, T = 0.0183, 1.0, 1.0
    run = coupled_run(lam, pi, A, T, seed=2, grid_points=16)
    assert run.regime.kind == kind
    scales = compute_scales(lam, pi)
    schedule = match_schedule_from_marks(run.marks, scales, math.floor(A * scales.n))
    disc = DiscreteFFP(lam, pi, A, 2, injected_matches=schedule)
    obs = []
    for t in run.times:
        disc.advance_to(float(t))
        obs.append(disc.observables(0.0))
    assert run.discrete.values.tolist() == [o.Z for o in obs]
    assert run.discrete.intervals == [o.D for o in obs]
    if kind == "slow":
        state = simulate_lffp_inf(run.regime.z0, A, T, marks=run.marks)
        zl = run.discrete.values.tolist()  # the neutral value channel
    else:
        p = 0.0 if kind == "fast" else run.regime.p
        state = simulate_alffp_p(p, A, T, marks=run.marks)
        zl = [state.Z(0.0, float(t)) for t in run.times]
    assert run.limit.values.tolist() == zl
    assert run.limit.intervals == [state.D(0.0, float(t)) for t in run.times]


# d_T as .hex() and sha256 of repr(limit.intervals), repr(discrete.intervals) and
# repr(match_log), for coupled_run(lam, pi, 2.0, 2.0, 42, stream_id=stream) on the
# criterion-6 ladder: pinned so that a faster implementation keeps every
# realization bit for bit
_GOLDEN_COUPLED = {
    (4, 0): ("0x1.676309cffcf16p+1",
             "49be7beba342d2ca860fc9c37e1ff9627bc7e5baad430fce2b93d936a458701b",
             "cb06a63c87862a0c6ec7c5dfbe2d28b565ca201674e23dcfb8818f2dd87d465e",
             "076025fe93ef33caa9dcbef0c90d400b506aaee9960a46f62352a055964ee120"),
    (4, 7): ("0x1.46d102eb2b89bp+0",
             "54377d5018ec4e7feef2a28a39db3b3146a3053d4c8f2cc161ccbf4dc8396912",
             "feb090e3cb7460fea6fe3741e1a3e55b85d3da7eb8b5445830bf68c375300ff0",
             "467907e6dee086b5c2a85eb499af82cd8b3be2f9a666ef3c67394211aec19bbe"),
    (6, 0): ("0x1.c2afed20107e6p+0",
             "49be7beba342d2ca860fc9c37e1ff9627bc7e5baad430fce2b93d936a458701b",
             "e187d3831f0a419b6c9a91f4513630f5968749d7831db090562718dca85e2750",
             "5bbe500938de60e9a81eff16be9bec12029ce3e6cc3790ae52dedf514816eef7"),
    (6, 7): ("0x1.fbede330f93bep-1",
             "54377d5018ec4e7feef2a28a39db3b3146a3053d4c8f2cc161ccbf4dc8396912",
             "5cdb1c96d7a8dd900db39034c7f0b2324f6eee4ed020ff1ec7b455f9b0cf3898",
             "2ebdceba6adc4d1a548220370e901a27643d841af596e79d992f107940fd60fe"),
    (8, 0): ("0x1.f1a28ae911163p+0",
             "49be7beba342d2ca860fc9c37e1ff9627bc7e5baad430fce2b93d936a458701b",
             "c95942fda1720130ab3399cf051aa6a6b4247d15a55e468091b5e53ab56d5c1a",
             "8ff2dfccc8eb876b55562675bef0d2366b474a14d34fda4d8928a249b231c635"),
    (8, 7): ("0x1.4193bebe96d8fp+0",
             "54377d5018ec4e7feef2a28a39db3b3146a3053d4c8f2cc161ccbf4dc8396912",
             "088846a460d7384be24b3677d13e751cf3cc162ccca0a5a36858bf370beaa598",
             "9b8cba7b6dd542989b4961eb8df55cde158f57af30a1298ab1eba2f27685d06b"),
}


@pytest.mark.parametrize("k, stream", sorted(_GOLDEN_COUPLED))
def test_coupled_run_golden_realizations(k, stream):
    lam, pi = _intermediate_point(k)
    run = coupled_run(lam, pi, 2.0, 2.0, 42, stream_id=stream)

    def digest(value):
        return hashlib.sha256(repr(value).encode()).hexdigest()

    got = (run.distance.hex(), digest(run.limit.intervals), digest(run.discrete.intervals),
           digest(run.match_log))
    assert got == _GOLDEN_COUPLED[k, stream]


# -- cluster experiments -----------------------------------------------------------


def test_cluster_dist_experiment_basic():
    lam = math.exp(-4.0)
    res = cluster_dist_experiment(lam, 10.0, 1.0, 8, seed=21, A=4.0)
    assert res.sizes.shape == (8,)
    assert np.all(res.sizes >= 0)
    assert np.all((res.z_values >= 0.0) & (res.z_values <= 1.0))
    assert np.all((res.w_values >= 0.0) & (res.w_values <= 1.0))
    assert res.mean_size == pytest.approx(res.sizes.mean())
    rerun = cluster_dist_experiment(lam, 10.0, 1.0, 8, seed=21, A=4.0, jobs=2)
    assert np.array_equal(res.sizes, rerun.sizes)
    assert np.array_equal(res.w_values, rerun.w_values)


def test_limit_tail_experiment_monotone_fractions():
    res = limit_tail_experiment(3.0, 2.0, 100, seed=5)
    assert np.all(res.lengths >= 0.0) and np.all(res.lengths <= 6.0)
    assert np.all(np.diff(res.fractions) <= 0.0)  # larger threshold, smaller tail
    assert np.all(res.wilson_halves > 0.0)
    assert res.envelope == pytest.approx([2 * math.exp(-b / 8) for b in (1, 2, 4)])


def test_gamma_test_close_to_law():
    res = gamma_test(0.5, 2.0, 2000, seed=3)
    assert res.ks < 1.63 / math.sqrt(2000)  # 1% critical band
    se = math.sqrt(2.0 / 1.5**2 / 2000)
    assert abs(res.mean - 4.0 / 3.0) < 5 * se


def test_gamma_test_validation():
    with pytest.raises(ValueError):
        gamma_test(0.5, 0.9, 10, seed=0)  # needs t > 2*z0
    with pytest.raises(ValueError):
        gamma_test(0.5, 2.0, 0, seed=0)


# -- propagation experiments ---------------------------------------------------------


def test_front_speed_experiment_mean_and_determinism():
    res = front_speed_experiment(20.0, 1.0, 50, seed=1)
    assert abs(res.mean_plus - 20.0) < 3.0 * math.sqrt(20.0 / 50)
    assert 10.0 < res.var_plus < 35.0
    assert np.all(res.counts_plus >= 0) and np.all(res.counts_minus >= 0)
    rerun = front_speed_experiment(20.0, 1.0, 50, seed=1, jobs=2)
    assert np.array_equal(res.counts_plus, rerun.counts_plus)


def test_spark_fraction_close_to_limit():
    res = spark_fraction_experiment(9.0, 30.0, 2, seed=2)
    assert res.windows > 500
    assert abs(res.fraction - 0.9) < 4.0 * math.sqrt(0.9 * 0.1 / res.windows)
    lo, hi = res.wilson
    assert lo < res.fraction < hi


def test_spark_fraction_no_windows_raises():
    with pytest.raises(ValueError, match="windows"):
        spark_fraction_experiment(9.0, 0.001, 1, seed=2)
    # the front counts need no windows
    assert front_speed_experiment(9.0, 0.001, 1, seed=2).counts_plus.tolist() == [0]


def _assert_same_fields(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("pi, horizon, runs, seed", [
    (50.0, 2.0, 20, 101),
    (9.0, 30.0, 1, 7),
    (3.0, 4.0, 5, 0),
])
def test_fronts_experiment_equals_the_two_experiments(pi, horizon, runs, seed, jobs):
    speed, spark = fronts_experiment(pi, horizon, runs, seed, jobs=jobs)
    _assert_same_fields(speed, front_speed_experiment(pi, horizon, runs, seed))
    _assert_same_fields(spark, spark_fraction_experiment(pi, horizon, runs, seed))


def test_fronts_experiment_simulates_each_realization_once(monkeypatch):
    calls = []

    def counting(pi, horizon, **kwargs):
        calls.append(kwargs["stream_id"])
        return run_propagation(pi, horizon, **kwargs)

    monkeypatch.setattr(harness, "run_propagation", counting)
    fronts_experiment(20.0, 1.0, 7, seed=3)
    assert calls == list(range(7))


def test_fronts_experiment_no_windows_raises():
    with pytest.raises(ValueError, match="no complete windows"):
        fronts_experiment(9.0, 0.001, 1, seed=2)


def test_front_statistics_fit_and_validation():
    run = run_propagation(20.0, 20.0, seed=4)
    gof = front_statistics(run, 0.5)
    assert gof.windows == 80
    assert gof.pvalue > 1e-4
    assert gof.dof >= 2
    with pytest.raises(ValueError):
        front_statistics(run, 0.0)
    with pytest.raises(ValueError):
        front_statistics(run, 30.0)
    with pytest.raises(ValueError):
        front_statistics(run, 15.0)
    with pytest.raises(ValueError, match="0 < dt"):
        front_statistics(run, math.nan)


# -- barrier experiment -------------------------------------------------------------


def test_barrier_validation():
    lam = math.exp(-6.0)
    with pytest.raises(ValueError, match="t0"):
        barrier_height_experiment(lam, 25.0, 0.5, 0.7, 2, seed=0)
    with pytest.raises(ValueError, match="t0 < t1"):
        barrier_height_experiment(lam, 25.0, 0.0, 1.2, 2, seed=0)
    with pytest.raises(ValueError, match="t0 < t1"):
        barrier_height_experiment(lam, 25.0, 2.0, 1.5, 2, seed=0)
    with pytest.raises(ValueError, match="at least one run"):
        barrier_height_experiment(lam, 25.0, 0.0, 0.5, 0, seed=0)
    # a slow fire cannot sweep the warm-up box between t0 and t1
    with pytest.raises(ValueError, match="sweep"):
        barrier_height_experiment(lam, 25.0, 1.5, 2.0, 2, seed=0)


def test_limit_tail_zero_runs_raises():
    with pytest.raises(ValueError, match="at least one run"):
        limit_tail_experiment(1.0, 1.0, 0, seed=0)


def test_barrier_t0_zero_runs_and_determinism():
    lam = math.exp(-6.0)
    res = barrier_height_experiment(lam, 25.0, 0.0, 0.5, 6, seed=11)
    assert res.thetas.shape == (6,)
    assert np.all(res.thetas >= 0.0)
    # a match on a vacant origin gives the empty cluster and zero delay
    assert np.array_equal(res.thetas == 0.0, res.cluster_sizes == 0)
    rerun = barrier_height_experiment(lam, 25.0, 0.0, 0.5, 6, seed=11, jobs=2)
    assert np.array_equal(res.thetas, rerun.thetas)
    assert np.array_equal(res.cluster_sizes, rerun.cluster_sizes)


def test_barrier_staged_start_after_one():
    res = barrier_height_experiment(math.exp(-5.0), 500.0, 1.5, 1.9, 5, seed=11)
    assert np.all(res.thetas >= 0.0)
    assert res.mean_theta > 0.0
    assert np.all(res.cluster_sizes >= 0)
