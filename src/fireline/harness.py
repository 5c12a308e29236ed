"""Experiment harness: coupled discrete/limit runs and batch experiments.

Every batch experiment derives run k from the stream pair (seed, k), so a
rerun with the same seed reproduces every run bit for bit regardless of
--jobs, and results are always aggregated in run-index order.
"""

import math
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ._clib import lib as _lib
from .discrete import (
    STATE_OCCUPIED,
    DiscreteFFP,
    PropagationRun,
    advance_refusal,
    discrete_box,
    match_schedule_from_marks,
    propagation_radius,
    run_propagation,
)
from .engine import MEMORY_CAP_SITES, ResourceLimitError, check_box_sites, make_engine
from .limits import (
    check_alffp_p,
    sample_cluster_lengths_inf,
    simulate_alffp_p,
    simulate_lffp_0,
    simulate_lffp_inf,
)
from .rng import MarkSet, RngStream, poisson_rectangle, rectangle_area
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


def _check_runs(runs: int, seed: int) -> None:
    """Refuse a run count below one, and a seed or a last stream id that
    does not fit in 64 bits (RngStream's errors): an experiment calls it
    before it builds its runs' arguments or starts a worker."""
    if runs < 1:
        raise ValueError("need at least one run")
    RngStream(seed, runs - 1)


def _map_runs(worker: Callable, argses: Sequence[tuple], jobs: int) -> list:
    # no more workers than runs, since the pool forks all of them at the
    # first submit, and no pool at all for one worker
    workers = min(jobs, len(argses))
    if workers <= 1:
        return [worker(a) for a in argses]
    # batch short runs to save a round trip per run, in chunks small enough
    # (16 per worker) that uneven run times still balance across workers
    chunksize = max(1, len(argses) // (16 * workers))
    with ProcessPoolExecutor(max_workers=workers) as ex:
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
    marks: MarkSet
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
    """d_T over independent coupled runs, ordered by run index.  Every
    refusal of a run's parameters is raised here, once, with coupled_run's
    errors in its order, before any worker starts."""
    _check_runs(runs, seed)
    uniform_grid(T, grid_points)
    compute_scales(lam, pi)
    rectangle_area(-A, A, 0.0, T)
    discrete_box(lam, pi, A)
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
    """Cluster size, W, and Z at the origin at time t over independent runs.
    Every refusal of a run (the box, lam, pi and t) is raised here, once,
    before any worker starts."""
    _check_runs(runs, seed)
    scales, _ = discrete_box(lam, pi, A)
    if not 0.0 <= scales.a * t < math.inf:  # the engine's test, in raw time
        raise advance_refusal(t, 0.0)
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


def _tail_runs(args):
    """The lengths of runs first .. first + count - 1 from one fl_tail_runs
    call.  A run it leaves as NaN (its last mark past T) goes through
    _tail_worker, which refuses its marks as every run on that path would."""
    p, A, T, seed, first, count = args
    lengths = np.empty(count)
    if _lib.fl_tail_runs(p, A, T, seed, first, count, lengths.ctypes.data) != 0:
        raise MemoryError("fl_tail_runs could not allocate its buffers")
    for k in np.flatnonzero(np.isnan(lengths)).tolist():
        lengths[k] = _tail_worker((p, A, T, seed, first + k))
    return lengths


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
    """Tail of |D_T(0)| under LFFP(p) against the 2*exp(-B/8) envelope.

    Run k is simulate_alffp_p(p, A, T, seed=seed, stream_id=k) and its
    length the width of D(0, T).  Every refusal of a run (runs < 1, the
    seed, p, A and T, the rectangle's mark cap) is raised here, once,
    before any worker starts or any argument reaches the C library.  With
    the library, range(runs) is cut into min(jobs, runs) contiguous chunks,
    one fl_tail_runs call each, run on that many threads of this process:
    ctypes releases the GIL for each call and the library keeps no global
    state.  Without it, each run is a task of its own on _map_runs' worker
    processes, since a Python run holds the GIL.  Either way the lengths
    are the same bits at any jobs.
    """
    _check_runs(runs, seed)
    check_alffp_p(p, A, T)
    rectangle_area(-A, A, 0.0, T)
    if _lib is None:
        argses = [(p, A, T, seed, i) for i in range(runs)]
        lengths = np.array(_map_runs(_tail_worker, argses, jobs))
    else:
        chunks = min(max(jobs, 1), runs)
        bounds = [runs * j // chunks for j in range(chunks + 1)]
        argses = [(p, A, T, seed, lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]
        if chunks == 1:
            lengths = _tail_runs(argses[0])
        else:
            # a CDLL call releases the GIL, so the chunks run in parallel
            with ThreadPoolExecutor(max_workers=chunks) as ex:
                lengths = np.concatenate(list(ex.map(_tail_runs, argses)))
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
    _check_runs(runs, seed)
    propagation_radius(pi, horizon)
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
    if acc_e > 0.0 and exp_bins:
        obs_bins[-1] += acc_o
        exp_bins[-1] += acc_e
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
    """The default box half-width of a barrier run.  Raises
    ResourceLimitError when it exceeds MEMORY_CAP_SITES, sized before
    lam ** -age is taken: at a tiny lam that power overflows a float."""
    s = compute_scales(lam, pi)
    age = t1 if t0 == 0.0 else (t1 - t0) + 2.0 * kappa0(lam, pi)
    pad = 0 if t0 == 0.0 else math.ceil(s.a * pi * s.eps)
    exponent = age * s.a  # lam ** -age is e ** exponent
    reach = 12.0 * math.exp(exponent) if exponent < math.log(sys.float_info.max) else math.inf
    size = reach + s.m + pad + 10
    if not size <= MEMORY_CAP_SITES:
        raise ResourceLimitError(
            f"box of half-width {size:g} sites exceeds the cap of {MEMORY_CAP_SITES}"
        )
    return math.ceil(12.0 * lam ** (-age)) + s.m + pad + 10


def _barrier_start(
    lam: float, pi: float, t0: float, t1: float, radius: int
) -> Tuple[float, List[Tuple[float, int]], bool]:
    """The start every barrier run shares: the time scale a, the injected
    matches as (raw time, site) pairs and whether the box starts occupied.
    Raises for lam or pi, for a staged burn the box cannot hold and for a
    box over the cap, once, before any run."""
    s = compute_scales(lam, pi)
    a = s.a
    center = radius
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
    check_box_sites(2 * radius + 1)
    return a, injected, occupied


def _barrier_worker(args) -> Tuple[float, int]:
    pi, t1, (a, injected, occupied), seed, stream_id, radius = args
    n_sites = 2 * radius + 1
    t1_raw = a * t1
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
    if lo == 0 or hi == n_sites - 1:
        # the box edge cut the cluster off, so its regrowth time would be wrong
        raise RuntimeError(
            f"run {stream_id} burned sites [{lo}, {hi}], reaching the edge of the "
            f"{n_sites}-site box (radius {radius}); use a larger --radius"
        )
    if eng.state_view().count(STATE_OCCUPIED, lo, hi + 1) != hi - lo + 1:
        raise RuntimeError("burned interval not regrown by the safety cap")
    # Every match has struck by t1 and no clocked match follows, so once the
    # fire is out no site burns again and an occupied site stays occupied.
    # The first time [lo, hi] is wholly occupied is therefore the latest
    # occupation time among its sites: its last regrowth ring.
    t_occ = float(np.max(eng.seed_last_view()[lo : hi + 1]))
    return (t_occ / a - t1, hi - lo + 1)


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
    A run whose burned cluster reaches the edge of its box (2 * radius + 1
    sites) raises RuntimeError: the edge cut the cluster off, so its Theta
    would be wrong.  In the fast regime the default radius holds the
    cascade.  Outside it a fire can reach the edge at any radius, since
    the realization changes with the box: at lambda = e^-6, pi = 25 (the
    intermediate regime), seed 11, 18 of runs 0-39 reach the edge of the
    default box, and runs 0 and 1 still do at radius 600.
    """
    if not (t0 == 0.0 or t0 > 1.0):
        raise ValueError(f"t0 must be 0 or greater than 1, got {t0}")
    if not t0 < t1 < t0 + 1.0:
        raise ValueError(f"need t0 < t1 < t0 + 1, got t0={t0}, t1={t1}")
    if radius is None:
        # sized here, once: an over-cap box is refused before any worker starts
        radius = _barrier_radius(lam, pi, t0, t1)
    _check_runs(runs, seed)
    start = _barrier_start(lam, pi, t0, t1, radius)
    argses = [(pi, t1, start, seed, i, radius) for i in range(runs)]
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
