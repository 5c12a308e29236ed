"""Experiment harness: coupled discrete/limit runs and batch experiments.

Every batch experiment derives run k from the stream pair (seed, k), so a
rerun with the same seed reproduces every run bit for bit regardless of
--jobs, and results are always aggregated in run-index order.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .discrete import (
    STATE_OCCUPIED,
    DiscreteFFP,
    PropagationRun,
    match_schedule_from_marks,
    run_propagation,
)
from .engine import make_engine
from .limits import (
    sample_cluster_lengths_inf,
    simulate_alffp_p,
    simulate_lffp_0,
    simulate_lffp_inf,
)
from .rng import Mark, RngStream, poisson_rectangle
from .scales import (
    DEFAULT_GRID_POINTS,
    Regime,
    Trajectory,
    classify_regime,
    compute_scales,
    d_T,
    # unused here, but perfbench's tracer patches harness.delta_interval by name
    delta_interval,
    kappa0,
    uniform_grid,
)


def _map_runs(worker: Callable, argses: Sequence[tuple], jobs: int) -> list:
    if not argses:
        raise ValueError("need at least one run")
    if jobs <= 1:
        return [worker(a) for a in argses]
    # batch short runs to save a round trip per run, in chunks small enough
    # (16 per worker) that uneven run times still balance across workers
    chunksize = max(1, len(argses) // (16 * jobs))
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(worker, argses, chunksize=chunksize))


# -- basic statistics --------------------------------------------------------------


def wilson_interval(successes: int, trials: int, z: float = 1.0) -> Tuple[float, float]:
    """Wilson score interval for a binomial fraction."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    denom = trials + z * z
    center = (successes + z * z / 2.0) / denom
    half = z * math.sqrt(successes * (trials - successes) / trials + z * z / 4.0) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def ks_statistic(samples: Sequence[float], cdf: Callable[[float], float]) -> float:
    """Exact one-sample Kolmogorov statistic against a continuous cdf."""
    n = len(samples)
    if n == 0:
        raise ValueError("cannot compute a Kolmogorov statistic of an empty sample")
    out = 0.0
    for k, v in enumerate(sorted(samples)):
        f = cdf(v)
        out = max(out, abs((k + 1) / n - f), abs(k / n - f))
    return out


# -- coupled discrete/limit runs -----------------------------------------------------


@dataclass
class CoupledRun:
    """One discrete run and its limit twin driven by the same mark set."""

    lam: float
    pi: float
    regime: Regime
    A: float
    T: float
    seed: int
    stream_id: int
    marks: List[Mark]
    times: np.ndarray
    discrete: Trajectory
    limit: Trajectory
    distance: float
    match_log: List[Tuple[float, int, bool]]


def coupled_run(
    lam: float,
    pi: float,
    A: float,
    T: float,
    seed: int,
    *,
    stream_id: int = 0,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> CoupledRun:
    """Drive the discrete process and its scaling limit from one mark set.

    Marks are drawn once from (seed, stream_id); the discrete side receives
    them as the injected schedule of match_schedule_from_marks, the limit
    side consumes them directly.  Z and D at x=0 are sampled on a uniform
    grid and compared with d_T.  classify_regime(lam, pi) picks the limit:
    LFFP(0) when fast, LFFP(p) when intermediate, the slow limit when slow.
    The slow limit has no regrowth observable, so there the value channel
    is neutralized and the distance reduces to the cluster term.
    """
    times = uniform_grid(T, grid_points)
    classified, _, _ = classify_regime(lam, pi)
    scales = compute_scales(lam, pi)
    marks = poisson_rectangle(RngStream(seed, stream_id), -A, A, 0.0, T)

    schedule = match_schedule_from_marks(marks, scales, math.floor(A * scales.n))
    disc = DiscreteFFP(
        lam,
        pi,
        A,
        seed,
        stream_id=stream_id,
        injected_matches=schedule,
    )

    obs = disc.sample(times)
    discrete = Trajectory(times, [o.Z for o in obs], [o.D for o in obs])

    if classified.kind == "fast":
        limit = simulate_lffp_0(A, T, marks=marks).trajectory(times)
    elif classified.kind == "intermediate":
        limit = simulate_alffp_p(classified.p, A, T, marks=marks).trajectory(times)
    else:
        limit = simulate_lffp_inf(classified.z0, A, T, marks=marks).trajectory(times)
        # no limit regrowth observable: neutral value channel
        limit.values = discrete.values.copy()

    return CoupledRun(
        lam=lam,
        pi=pi,
        regime=classified,
        A=A,
        T=T,
        seed=seed,
        stream_id=stream_id,
        marks=marks,
        times=times,
        discrete=discrete,
        limit=limit,
        distance=d_T(discrete, limit),
        match_log=disc.matches(),
    )


def _coupled_worker(args):
    lam, pi, A, T, seed, idx, grid_points = args
    run = coupled_run(lam, pi, A, T, seed, stream_id=idx, grid_points=grid_points)
    return run.distance


def coupled_distances(
    lam: float,
    pi: float,
    A: float,
    T: float,
    runs: int,
    seed: int,
    *,
    grid_points: int = DEFAULT_GRID_POINTS,
    jobs: int = 1,
) -> List[float]:
    """d_T over independent coupled runs, ordered by run index."""
    argses = [(lam, pi, A, T, seed, i, grid_points) for i in range(runs)]
    return _map_runs(_coupled_worker, argses, jobs)


# -- cluster-law experiments -----------------------------------------------------------


@dataclass
class ClusterDistResult:
    lam: float
    pi: float
    t: float
    A: float
    runs: int
    seed: int
    sizes: np.ndarray
    w_values: np.ndarray
    z_values: np.ndarray
    mean_size: float


def _cluster_worker(args):
    lam, pi, t, A, seed, idx = args
    d = DiscreteFFP(lam, pi, A, seed, stream_id=idx)
    d.advance_to(t)
    obs = d.observables(0.0)
    return (obs.size, obs.W, obs.Z)


def cluster_dist_experiment(
    lam: float,
    pi: float,
    t: float,
    runs: int,
    seed: int,
    *,
    A: float,
    jobs: int = 1,
) -> ClusterDistResult:
    """Cluster size, W, and Z at the origin at time t over independent runs."""
    argses = [(lam, pi, t, A, seed, i) for i in range(runs)]
    rows = _map_runs(_cluster_worker, argses, jobs)
    sizes = np.array([r[0] for r in rows], dtype=np.int64)
    return ClusterDistResult(
        lam=lam,
        pi=pi,
        t=t,
        A=A,
        runs=runs,
        seed=seed,
        sizes=sizes,
        w_values=np.array([r[1] for r in rows]),
        z_values=np.array([r[2] for r in rows]),
        mean_size=float(sizes.mean()),
    )


@dataclass
class TailResult:
    p: float
    A: float
    T: float
    runs: int
    seed: int
    lengths: np.ndarray
    thresholds: Tuple[float, ...]
    fractions: np.ndarray
    wilson_halves: np.ndarray
    envelope: np.ndarray


def _tail_worker(args):
    p, A, T, seed, idx = args
    s = simulate_alffp_p(p, A, T, seed=seed, stream_id=idx)
    lo, hi = s.D(0.0, T)
    return hi - lo


def limit_tail_experiment(
    A: float,
    T: float,
    runs: int,
    seed: int,
    *,
    p: float = 0.0,
    thresholds: Sequence[float] = (1.0, 2.0, 4.0),
    jobs: int = 1,
) -> TailResult:
    """Tail of |D_T(0)| under LFFP(p) against the 2*exp(-B/8) envelope."""
    argses = [(p, A, T, seed, i) for i in range(runs)]
    lengths = np.array(_map_runs(_tail_worker, argses, jobs))
    fracs = []
    halves = []
    for b in thresholds:
        k = int(np.sum(lengths >= b))
        lo, hi = wilson_interval(k, runs)
        fracs.append(k / runs)
        halves.append((hi - lo) / 2.0)
    return TailResult(
        p=p,
        A=A,
        T=T,
        runs=runs,
        seed=seed,
        lengths=lengths,
        thresholds=tuple(thresholds),
        fractions=np.array(fracs),
        wilson_halves=np.array(halves),
        envelope=np.array([2.0 * math.exp(-b / 8.0) for b in thresholds]),
    )


@dataclass
class GammaTestResult:
    z0: float
    t: float
    samples: int
    seed: int
    ks: float
    mean: float


def gamma_test(z0: float, t: float, samples: int, seed: int, stream_id: int = 0) -> GammaTestResult:
    """Kolmogorov distance of exact slow-limit cluster draws to their law.

    The stationary cluster length is Gamma(2, rate t - z0), with cdf
    1 - exp(-r*x)*(1 + r*x).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    stream = RngStream(seed, stream_id)
    draws = sample_cluster_lengths_inf(z0, t, stream, samples)
    rate = t - z0

    def cdf(v: float) -> float:
        return 1.0 - math.exp(-rate * v) * (1.0 + rate * v)

    return GammaTestResult(
        z0=z0,
        t=t,
        samples=samples,
        seed=seed,
        ks=ks_statistic(draws, cdf),
        mean=float(sum(draws) / samples),
    )


# -- propagation experiments -------------------------------------------------------------


@dataclass
class FrontSpeedResult:
    pi: float
    horizon: float
    runs: int
    seed: int
    counts_plus: np.ndarray
    counts_minus: np.ndarray
    mean_plus: float
    var_plus: float


@dataclass
class SparkFractionResult:
    pi: float
    horizon: float
    runs: int
    seed: int
    clean: int
    windows: int
    fraction: float
    wilson: Tuple[float, float]


def _fronts_worker(args):
    pi, horizon, seed, idx = args
    r = run_propagation(pi, horizon, seed=seed, stream_id=idx)
    clean = int(np.sum(r.omega_right)) + int(np.sum(r.omega_left))
    windows = len(r.omega_right) + len(r.omega_left)
    return (len(r.times_plus), len(r.times_minus), clean, windows)


def _fronts_rows(pi: float, horizon: float, runs: int, seed: int, jobs: int) -> list:
    argses = [(pi, horizon, seed, i) for i in range(runs)]
    return _map_runs(_fronts_worker, argses, jobs)


def _front_speed(pi, horizon, runs, seed, rows) -> FrontSpeedResult:
    plus = np.array([r[0] for r in rows], dtype=np.int64)
    minus = np.array([r[1] for r in rows], dtype=np.int64)
    return FrontSpeedResult(
        pi=pi,
        horizon=horizon,
        runs=runs,
        seed=seed,
        counts_plus=plus,
        counts_minus=minus,
        mean_plus=float(plus.mean()),
        var_plus=float(plus.var(ddof=1)) if runs > 1 else 0.0,
    )


def _spark_fraction(pi, horizon, runs, seed, rows) -> SparkFractionResult:
    clean = sum(r[2] for r in rows)
    windows = sum(r[3] for r in rows)
    if windows == 0:
        raise ValueError("no complete windows observed; increase the horizon")
    return SparkFractionResult(
        pi=pi,
        horizon=horizon,
        runs=runs,
        seed=seed,
        clean=clean,
        windows=windows,
        fraction=clean / windows,
        wilson=wilson_interval(clean, windows),
    )


def front_speed_experiment(
    pi: float,
    horizon: float,
    runs: int,
    seed: int,
    *,
    jobs: int = 1,
) -> FrontSpeedResult:
    """Right/left front counts at the horizon over independent runs."""
    rows = _fronts_rows(pi, horizon, runs, seed, jobs)
    return _front_speed(pi, horizon, runs, seed, rows)


def spark_fraction_experiment(
    pi: float,
    horizon: float,
    runs: int,
    seed: int,
    *,
    jobs: int = 1,
) -> SparkFractionResult:
    """Pooled fraction of clean inter-front windows; its limit is pi/(1+pi)."""
    rows = _fronts_rows(pi, horizon, runs, seed, jobs)
    return _spark_fraction(pi, horizon, runs, seed, rows)


def fronts_experiment(
    pi: float,
    horizon: float,
    runs: int,
    seed: int,
    *,
    jobs: int = 1,
) -> Tuple[FrontSpeedResult, SparkFractionResult]:
    """Both propagation statistics from one simulation per realization.

    Equal, field by field, to front_speed_experiment and
    spark_fraction_experiment on the same arguments, at half the cost.
    """
    rows = _fronts_rows(pi, horizon, runs, seed, jobs)
    return (
        _front_speed(pi, horizon, runs, seed, rows),
        _spark_fraction(pi, horizon, runs, seed, rows),
    )


@dataclass
class FrontGofResult:
    pi: float
    dt: float
    windows: int
    statistic: float
    pvalue: float
    dof: int


def front_statistics(run: PropagationRun, dt: float) -> FrontGofResult:
    """Chi-square fit of windowed front increments to Poisson(pi * dt).

    Both fronts advance as independent rate-pi Poisson processes, so counts
    in disjoint windows of width dt are i.i.d. Poisson(pi * dt).  Tail bins
    are merged until every expected count is at least 5.
    """
    from scipy import stats

    if not 0.0 < dt <= run.horizon:
        raise ValueError(f"need 0 < dt <= horizon, got dt={dt}")
    windows = int(run.horizon / dt)
    if windows < 2:
        raise ValueError("need at least two windows")
    edges = np.linspace(0.0, windows * dt, windows + 1)
    increments = np.concatenate(
        [
            np.histogram(np.asarray(run.times_plus), edges)[0],
            np.histogram(np.asarray(run.times_minus), edges)[0],
        ]
    )
    n = len(increments)
    mu = run.pi * dt
    kmax = int(stats.poisson.ppf(1.0 - 1e-12, mu)) + 1
    pmf = stats.poisson.pmf(np.arange(kmax + 1), mu)
    pmf[-1] = 1.0 - pmf[:-1].sum()
    observed = np.bincount(increments, minlength=kmax + 1).astype(float)
    observed[kmax] += observed[kmax + 1 :].sum()
    observed = observed[: kmax + 1]
    expected = pmf * n
    # merge from both ends until every expected bin has mass at least 5
    obs_bins: List[float] = []
    exp_bins: List[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0:
        if exp_bins:
            obs_bins[-1] += acc_o
            exp_bins[-1] += acc_e
        else:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
    if len(exp_bins) < 2:
        raise ValueError("not enough windows for a chi-square fit; lower dt")
    stat, pvalue = stats.chisquare(obs_bins, exp_bins)
    return FrontGofResult(
        pi=run.pi,
        dt=dt,
        windows=n,
        statistic=float(stat),
        pvalue=float(pvalue),
        dof=len(exp_bins) - 1,
    )


# -- barrier regrowth experiment ------------------------------------------------------------


@dataclass
class BarrierResult:
    lam: float
    pi: float
    t0: float
    t1: float
    runs: int
    seed: int
    thetas: np.ndarray
    cluster_sizes: np.ndarray
    mean_theta: float
    empty_fraction: float


def _barrier_radius(lam: float, pi: float, t0: float, t1: float) -> int:
    s = compute_scales(lam, pi)
    age = t1 if t0 == 0.0 else (t1 - t0) + 2.0 * kappa0(lam, pi)
    pad = 0 if t0 == 0.0 else math.ceil(s.a * pi * s.eps)
    return math.ceil(12.0 * lam ** (-age)) + s.m + pad + 10


def _barrier_single(
    lam: float,
    pi: float,
    t0: float,
    t1: float,
    seed: int,
    stream_id: int,
    radius: Optional[int],
) -> Tuple[float, int]:
    s = compute_scales(lam, pi)
    a = s.a
    if radius is None:
        radius = _barrier_radius(lam, pi, t0, t1)
    center = radius
    n_sites = 2 * radius + 1
    t1_raw = a * t1
    if t0 == 0.0:
        injected = [(t1_raw, center)]
        occupied = False
    else:
        # staged burn: a match just left of the density window, timed so the
        # fire crosses the window and regrowth restarts right around t0
        pad = math.ceil(a * pi * s.eps)
        v = kappa0(lam, pi) + pad / (a * pi)
        if t0 - v <= 0.0:
            raise ValueError(f"t0={t0} leaves no room for the staged burn")
        # the staged fire must sweep the whole box before t1 so that every
        # site restarts its age near t0; six standard deviations of margin
        dmax = radius + s.m + pad
        cross = (dmax + 6.0 * math.sqrt(dmax)) / pi
        if a * (t0 - v) + cross > t1_raw:
            raise ValueError(
                f"staged warm start cannot sweep the box before t1: crossing "
                f"takes about {cross / a:.3g} macro units but only "
                f"{t1 - t0 + v:.3g} are available; increase pi or t1 - t0"
            )
        injected = [(a * (t0 - v), center - (s.m + pad)), (t1_raw, center)]
        occupied = True
    eng = make_engine(
        n_sites,
        pi,
        0.0,
        seed,
        stream_id,
        initial_occupied=occupied,
        injected_t=[t for t, _ in injected],
        injected_site=[st for _, st in injected],
    )
    eng.advance_to(math.nextafter(t1_raw, 0.0))
    if eng.burning_count != 0:
        raise RuntimeError("staged burn still active at t1; enlarge the box")
    eng.reset_burn_bounds()
    eng.advance_to(t1_raw)
    if eng.burning_count == 0:
        return (0.0, 0)  # the match landed on a vacant origin: empty cluster
    cap = t1_raw + math.log(n_sites) + 30.0
    eng.advance_to(cap)
    if eng.burning_count != 0:
        raise RuntimeError("cascade still burning at the safety cap")
    lo, hi = eng.burn_lo, eng.burn_hi
    if eng.state_view().count(STATE_OCCUPIED, lo, hi + 1) != hi - lo + 1:
        raise RuntimeError("burned interval not regrown by the safety cap")
    # Every match has struck by t1 and no clocked match follows, so once the
    # fire is out no site burns again and an occupied site stays occupied.
    # The first time [lo, hi] is wholly occupied is therefore the latest
    # occupation time among its sites: its last regrowth ring.
    t_occ = float(np.max(eng.seed_last_view()[lo : hi + 1]))
    return (t_occ / a - t1, hi - lo + 1)


def _barrier_worker(args):
    lam, pi, t0, t1, seed, idx, radius = args
    return _barrier_single(lam, pi, t0, t1, seed, idx, radius)


def barrier_height_experiment(
    lam: float,
    pi: float,
    t0: float,
    t1: float,
    runs: int,
    seed: int,
    *,
    jobs: int = 1,
    radius: Optional[int] = None,
) -> BarrierResult:
    """Regrowth time Theta of the cluster burned by a match at time t1.

    The process starts empty at t0 = 0 (or warmed by a staged burn for
    t0 > 1), a single match hits the origin at t1, and Theta is the first
    time past t1 at which every site the cascade burned is simultaneously
    occupied again.  A match on a vacant origin contributes Theta = 0.
    """
    if not (t0 == 0.0 or t0 > 1.0):
        raise ValueError(f"t0 must be 0 or greater than 1, got {t0}")
    if not t0 < t1 < t0 + 1.0:
        raise ValueError(f"need t0 < t1 < t0 + 1, got t0={t0}, t1={t1}")
    argses = [(lam, pi, t0, t1, seed, i, radius) for i in range(runs)]
    rows = _map_runs(_barrier_worker, argses, jobs)
    thetas = np.array([r[0] for r in rows])
    sizes = np.array([r[1] for r in rows], dtype=np.int64)
    return BarrierResult(
        lam=lam,
        pi=pi,
        t0=t0,
        t1=t1,
        runs=runs,
        seed=seed,
        thetas=thetas,
        cluster_sizes=sizes,
        mean_theta=float(thetas.mean()),
        empty_fraction=float(np.mean(sizes == 0)),
    )
