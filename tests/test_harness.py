"""Experiment-harness tests: statistics helpers, coupling, batch drivers."""

import ctypes
import dataclasses
import hashlib
import math
import re
import sys

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


def _no_pool(*args):
    raise AssertionError("a run reached _map_runs")


def _no_threads(*args, **kwargs):
    raise AssertionError("a run reached a ThreadPoolExecutor")


def _forbid_workers(monkeypatch):
    """Fail any run that reaches the process pool or the thread pool."""
    monkeypatch.setattr(harness, "_map_runs", _no_pool)
    monkeypatch.setattr(harness, "ThreadPoolExecutor", _no_threads)


@pytest.mark.parametrize("change", [
    dict(p=-1.0), dict(p=math.inf), dict(p=math.nan), dict(A=math.inf), dict(T=0.0),
    dict(seed=-1), dict(seed=2**64), dict(A=5000.0, T=200000.0),
], ids=lambda change: ",".join(f"{k}={v}" for k, v in change.items()))
def test_limit_tail_refuses_before_any_worker(monkeypatch, change):
    # the per-run path's error, raised once in the calling process, the
    # same with the C library and without it; ctypes would wrap seed -1
    args = {"p": 0.0, "A": 6.0, "T": 3.0, "seed": 1, **change}
    with pytest.raises((ValueError, harness.ResourceLimitError)) as per_run:
        harness._tail_worker((args["p"], args["A"], args["T"], args["seed"], 0))
    _forbid_workers(monkeypatch)
    for lib in (harness._lib, None):
        monkeypatch.setattr(harness, "_lib", lib)
        with pytest.raises(per_run.type) as batch:
            limit_tail_experiment(args["A"], args["T"], 4, args["seed"], p=args["p"], jobs=2)
        assert str(batch.value) == str(per_run.value)


_EXPERIMENTS = {
    "coupled": lambda runs, seed: coupled_distances(0.1, 5.0, 2.0, 0.5, runs, seed, jobs=2),
    "cluster": lambda runs, seed: cluster_dist_experiment(0.1, 5.0, 0.5, runs, seed, A=2.0,
                                                          jobs=2),
    "barrier": lambda runs, seed: barrier_height_experiment(math.exp(-6.0), 25.0, 0.0, 0.5, runs,
                                                            seed, jobs=2),
    "fronts": lambda runs, seed: fronts_experiment(5.0, 2.0, runs, seed, jobs=2),
    "front_speed": lambda runs, seed: front_speed_experiment(5.0, 2.0, runs, seed, jobs=2),
    "spark_fraction": lambda runs, seed: spark_fraction_experiment(5.0, 2.0, runs, seed, jobs=2),
    "limit_tail": lambda runs, seed: limit_tail_experiment(6.0, 3.0, runs, seed, jobs=2),
}


@pytest.mark.parametrize("name", list(_EXPERIMENTS))
@pytest.mark.parametrize("runs, seed, message", [
    (4, -1, "master_seed must fit in 64 bits"),
    (4, 2**64, "master_seed must fit in 64 bits"),
    (0, 1, "need at least one run"),
    # a list of this many runs' arguments would grow until memory ran out
    (2**64 + 1, 1, "stream_id must fit in 64 bits"),
], ids=["seed=-1", "seed=2**64", "runs=0", "runs=2**64+1"])
def test_experiments_refuse_runs_and_seeds_before_any_worker(monkeypatch, name, runs, seed,
                                                             message):
    _forbid_workers(monkeypatch)
    with pytest.raises(ValueError, match=message):
        _EXPERIMENTS[name](runs, seed)


# each experiment's refusal of a parameter, and the same refusal from one
# run of its per-run path
_REFUSALS = {
    "coupled,lam=1": (lambda: coupled_distances(1.0, 5.0, 2.0, 0.5, 2, 1, jobs=2),
                      lambda: coupled_run(1.0, 5.0, 2.0, 0.5, 1)),
    "coupled,pi=0": (lambda: coupled_distances(0.1, 0.0, 2.0, 0.5, 2, 1, jobs=2),
                     lambda: coupled_run(0.1, 0.0, 2.0, 0.5, 1)),
    "coupled,T=-1": (lambda: coupled_distances(0.1, 5.0, 2.0, -1.0, 2, 1, jobs=2),
                     lambda: coupled_run(0.1, 5.0, 2.0, -1.0, 1)),
    "coupled,A=inf": (lambda: coupled_distances(0.1, 5.0, math.inf, 0.5, 2, 1, jobs=2),
                      lambda: coupled_run(0.1, 5.0, math.inf, 0.5, 1)),
    "coupled,A=-1": (lambda: coupled_distances(0.1, 5.0, -1.0, 0.5, 2, 1, jobs=2),
                     lambda: coupled_run(0.1, 5.0, -1.0, 0.5, 1)),
    "coupled,grid=1": (lambda: coupled_distances(0.1, 5.0, 2.0, 0.5, 2, 1, grid_points=1, jobs=2),
                       lambda: coupled_run(0.1, 5.0, 2.0, 0.5, 1, grid_points=1)),
    # a few marks, but a box of 3.6e9 sites a side
    "coupled,box": (lambda: coupled_distances(1e-12, 5.0, 0.1, 0.5, 2, 1, jobs=2),
                    lambda: coupled_run(1e-12, 5.0, 0.1, 0.5, 1)),
    "cluster,lam=1": (lambda: cluster_dist_experiment(1.0, 5.0, 0.5, 2, 1, A=2.0, jobs=2),
                      lambda: harness._cluster_worker((1.0, 5.0, 0.5, 2.0, 1, 0))),
    "cluster,pi=nan": (lambda: cluster_dist_experiment(0.1, math.nan, 0.5, 2, 1, A=2.0, jobs=2),
                       lambda: harness._cluster_worker((0.1, math.nan, 0.5, 2.0, 1, 0))),
    "cluster,A=inf": (lambda: cluster_dist_experiment(0.1, 5.0, 0.5, 2, 1, A=math.inf, jobs=2),
                      lambda: harness._cluster_worker((0.1, 5.0, 0.5, math.inf, 1, 0))),
    "cluster,t=-1": (lambda: cluster_dist_experiment(0.1, 5.0, -1.0, 2, 1, A=2.0, jobs=2),
                     lambda: harness._cluster_worker((0.1, 5.0, -1.0, 2.0, 1, 0))),
    "cluster,t=inf": (lambda: cluster_dist_experiment(0.1, 5.0, math.inf, 2, 1, A=2.0, jobs=2),
                      lambda: harness._cluster_worker((0.1, 5.0, math.inf, 2.0, 1, 0))),
    # a half-width of 2^30 sites passes its own cap; the 2^31 + 1 sites do not
    "cluster,sites": (lambda: cluster_dist_experiment(0.1, 5.0, 0.5, 2, 1, A=2.0**28, jobs=2),
                      lambda: harness._cluster_worker((0.1, 5.0, 0.5, 2.0**28, 1, 0))),
    "fronts,pi=-1": (lambda: fronts_experiment(-1.0, 2.0, 2, 1, jobs=2),
                     lambda: harness._fronts_worker((-1.0, 2.0, 1, 0))),
    "fronts,horizon=0": (lambda: fronts_experiment(5.0, 0.0, 2, 1, jobs=2),
                         lambda: harness._fronts_worker((5.0, 0.0, 1, 0))),
    "front_speed,horizon=inf": (lambda: front_speed_experiment(5.0, math.inf, 2, 1, jobs=2),
                                lambda: harness._fronts_worker((5.0, math.inf, 1, 0))),
    "spark_fraction,reach": (lambda: spark_fraction_experiment(1e9, 2.0, 2, 1, jobs=2),
                             lambda: harness._fronts_worker((1e9, 2.0, 1, 0))),
    # a mean reach under the cap, and a box of 1.4e9 sites
    "fronts,sites": (lambda: fronts_experiment(7e8, 1.0, 2, 1, jobs=2),
                     lambda: harness._fronts_worker((7e8, 1.0, 1, 0))),
}


@pytest.mark.parametrize("name", list(_REFUSALS))
def test_experiments_refuse_parameters_before_any_worker(monkeypatch, name):
    call, per_run = _REFUSALS[name]
    with pytest.raises((ValueError, harness.ResourceLimitError)) as want:
        per_run()
    _forbid_workers(monkeypatch)
    with pytest.raises(want.type) as got:
        call()
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("lam, pi, t0, t1, radius, message", [
    (1.0, 25.0, 0.0, 0.5, 10, "lam must lie in (0, 1), got 1.0"),
    (math.exp(-6.0), 0.5, 1.5, 2.0, 10, "t0=1.5 leaves no room for the staged burn"),
    (math.exp(-6.0), 25.0, 1.5, 2.0, None, "staged warm start cannot sweep the box before t1"),
    (math.exp(-6.0), 25.0, 0.0, 0.5, 2**30, "box of 2147483649 sites exceeds the cap"),
])
def test_barrier_refuses_its_start_before_any_worker(monkeypatch, lam, pi, t0, t1, radius,
                                                     message):
    # the start is the same for every run, so it is built and checked once
    _forbid_workers(monkeypatch)
    with pytest.raises((ValueError, harness.ResourceLimitError), match=re.escape(message)):
        barrier_height_experiment(lam, pi, t0, t1, 2, seed=0, jobs=2, radius=radius)


class _TailLib:
    """Stands in for the library: fl_tail_runs fills out with NaN, as for
    runs whose marks end past T, and returns the given status."""

    def __init__(self, status):
        self.status = status

    def fl_tail_runs(self, p, A, T, seed, first, count, out):
        np.frombuffer((ctypes.c_double * count).from_address(out))[:] = math.nan
        return self.status


def test_tail_runs_left_as_nan_take_the_per_run_path(monkeypatch):
    monkeypatch.setattr(harness, "_lib", _TailLib(0))
    lengths = harness._tail_runs((1.0, 6.0, 3.0, 19, 5, 3))
    assert lengths.tolist() == [harness._tail_worker((1.0, 6.0, 3.0, 19, k)) for k in (5, 6, 7)]
    monkeypatch.setattr(harness, "_lib", _TailLib(-1))
    with pytest.raises(MemoryError):
        harness._tail_runs((1.0, 6.0, 3.0, 19, 5, 3))


@pytest.mark.skipif(harness._lib is None, reason="the thread pool runs the library's chunks")
@pytest.mark.parametrize("A", [6.0, 48.0])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_tail_chunks_on_threads_equal_the_per_run_path(p, A):
    # up to seven fl_tail_runs calls at once in this process, each with its
    # own buffers: the library keeps no state between them.  A short switch
    # interval hands the GIL between the threads as often as it can.
    T, seed, runs = 3.0, 19, 200
    expected = np.array([harness._tail_worker((p, A, T, seed, k)) for k in range(runs)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for jobs in (1, 2, 3, 7):
            got = limit_tail_experiment(A, T, runs, seed, p=p, jobs=jobs)
            assert got.lengths.tobytes() == expected.tobytes(), jobs
    finally:
        sys.setswitchinterval(interval)


def test_a_failed_chunk_raises_through_the_thread_pool(monkeypatch):
    monkeypatch.setattr(harness, "_lib", _TailLib(-1))
    with pytest.raises(MemoryError):
        limit_tail_experiment(6.0, 3.0, 4, 19, p=1.0, jobs=2)


class _RecordingExecutor:
    """Stands in for ThreadPoolExecutor and ProcessPoolExecutor: records
    its kind and max_workers and maps in this thread."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append((self.kind, max_workers))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


class _RecordingThreads(_RecordingExecutor):
    kind = "threads"


class _RecordingProcesses(_RecordingExecutor):
    kind = "processes"


@pytest.mark.parametrize("runs, jobs, workers", [(1, 5000, 1), (3, 8, 3), (5, 2, 2), (4, 4, 4)])
def test_the_pool_has_no_more_workers_than_runs(monkeypatch, runs, jobs, workers):
    monkeypatch.setattr(harness, "ThreadPoolExecutor", _RecordingThreads)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _RecordingProcesses)
    monkeypatch.setattr(_RecordingExecutor, "sizes", [])
    res = limit_tail_experiment(2.0, 1.5, runs, seed=3, p=1.0, jobs=jobs)
    # the library's chunks run on threads, and one chunk needs no pool;
    # without the library the runs go to processes
    if harness._lib is None:
        first = [("processes", workers)]
    else:
        first = [("threads", workers)] if workers > 1 else []
    assert _RecordingExecutor.sizes == first
    assert np.array_equal(res.lengths, limit_tail_experiment(2.0, 1.5, runs, seed=3, p=1.0).lengths)
    # the same bits as the per-run path, the fallback's, which maps runs
    # on processes
    monkeypatch.setattr(harness, "_lib", None)
    per_run = limit_tail_experiment(2.0, 1.5, runs, seed=3, p=1.0, jobs=jobs)
    assert res.lengths.tobytes() == per_run.lengths.tobytes()
    assert _RecordingExecutor.sizes == [*first, ("processes", workers)]


def test_barrier_t0_zero_runs_and_determinism():
    lam = math.exp(-8.0)
    pi = pi_for_regime(lam, Regime.fast())
    res = barrier_height_experiment(lam, pi, 0.0, 0.5, 6, seed=11)
    assert res.thetas.shape == (6,)
    assert np.all(res.thetas >= 0.0)
    # a match on a vacant origin gives the empty cluster and zero delay
    assert np.array_equal(res.thetas == 0.0, res.cluster_sizes == 0)
    rerun = barrier_height_experiment(lam, pi, 0.0, 0.5, 6, seed=11, jobs=2)
    assert np.array_equal(res.thetas, rerun.thetas)
    assert np.array_equal(res.cluster_sizes, rerun.cluster_sizes)


def test_barrier_refuses_a_cluster_cut_off_by_the_box_edge():
    # at e^-6 and pi = 25, run 5 burns sites [0, 263] of the default 527-site
    # box: the edge cuts its cluster off, so its regrowth time would be wrong
    with pytest.raises(RuntimeError) as exc:
        barrier_height_experiment(math.exp(-6.0), 25.0, 0.0, 0.5, 6, seed=11)
    assert str(exc.value) == ("run 5 burned sites [0, 263], reaching the edge of the 527-site "
                              "box (radius 263); use a larger --radius")


def test_barrier_staged_start_after_one():
    res = barrier_height_experiment(math.exp(-5.0), 500.0, 1.5, 1.9, 5, seed=11)
    assert np.all(res.thetas >= 0.0)
    assert res.mean_theta > 0.0
    assert np.all(res.cluster_sizes >= 0)
