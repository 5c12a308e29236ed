"""Correctness checks run after each timed operation, outside its timing.

Every check compares the program's output with a property the method must
have (a Poisson law, a probability, an envelope, a bound) or with a result
the benchmark computes on its own (numpy cluster scans from the raw state,
a replay on the other engine core, a rerun of single realizations).  None
compares with a stored copy of earlier output.  Statistical bands are six
standard deviations wide, so a correct program fails one with a
probability of about 2e-9 per check, whatever the seed.

Each check returns a list of problems; an empty list is a pass.
"""

import math

import numpy as np

from fireline import harness, limits, rng
from fireline.discrete import DiscreteFFP, run_propagation

SIGMAS = 6.0
OCCUPIED = 1  # the documented state byte of an occupied site in DiscreteFFP.states()


def _band(problems, what, value, centre, half):
    if not abs(value - centre) <= half:
        problems.append(f"{what}={value!r} outside {centre!r} +- {half:.6g}")


def paper_scales(lam):
    """a = log(1/lam), n = floor(1/(lam a)), m = floor(1/(lam a^2))."""
    a = math.log(1.0 / lam)
    return a, math.floor(1.0 / (lam * a)), math.floor(1.0 / (lam * a * a))


def clean_fraction(problems, what, clean_frac, windows, pi):
    """Closed vacancy windows are i.i.d. Bernoulli: a window stays clean when
    no seed (rate 1) lands during an Exp(pi) front step, so with probability
    pi/(1+pi)."""
    q = pi / (1.0 + pi)
    _band(problems, what, clean_frac, q, SIGMAS * math.sqrt(q * (1.0 - q) / windows))


def fronts(results, pi, T, runs, min_windows, radius):
    """`fireline fronts`: the right-front count after T is Poisson(pi T)
    (every step lands on an occupied site), so its mean and sample variance
    fall in bands scaled to the run count; the clean-window fraction is
    pi/(1+pi); the run saw at least `min_windows` windows; and the right
    front stopped short of the box edge (the command reports no left count)."""
    problems = []
    lam = pi * T
    _band(problems, "mean_plus", results["mean_plus"], lam, SIGMAS * math.sqrt(lam / runs))
    if runs > 1:
        # variance of the sample variance of a Poisson(lam) sample
        var_s2 = (lam + 3.0 * lam * lam) / runs - lam * lam * (runs - 3) / (runs * (runs - 1))
        _band(problems, "var_plus", results["var_plus"], lam, SIGMAS * math.sqrt(var_s2))
    if results["windows"] < min_windows:
        problems.append(f"windows={results['windows']} < {min_windows}")
    else:
        clean_fraction(problems, "omega1", results["omega1"], results["windows"], pi)
    if runs == 1 and not results["mean_plus"] < radius:
        problems.append(f"right front reached the box edge at {radius} (truncated)")
    return problems


def wilson(successes, trials, z):
    """Wilson score interval."""
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return centre - half, centre + half


def python_propagation(results, pi, T, seed):
    """`fireline propagation --engine python`: the C core replays the same
    (seed, stream 0) to the same fronts, windows, sparks and event count,
    the run is not truncated, and pi/(1+pi) lies in the six-sigma Wilson
    interval of the clean windows."""
    problems = []
    replay = run_propagation(pi, T, seed=seed, stream_id=0, engine="compiled")
    clean = int(replay.omega_right.sum()) + int(replay.omega_left.sum())
    windows = len(replay.omega_right) + len(replay.omega_left)
    want = {
        "fronts_plus": len(replay.times_plus),
        "fronts_minus": len(replay.times_minus),
        "windows": windows,
        "omega1": clean / windows if windows else None,
        "sparks": len(replay.spark_log),
        "events": replay.event_count,
        "truncated": replay.truncated,
    }
    for key, value in want.items():
        if results[key] != value:
            problems.append(f"{key}: python core {results[key]!r}, C core {value!r}")
    if results["truncated"]:
        problems.append("run truncated at the box edge")
    if windows:
        lo, hi = wilson(clean, windows, SIGMAS)
        if not lo <= pi / (1.0 + pi) <= hi:
            problems.append(f"{clean} clean of {windows} windows excludes pi/(1+pi)")
    else:
        problems.append("no closed windows")
    return problems


def _delta(i, j):
    if i is None and j is None:
        return 0.0
    if i is None:
        return j[1] - j[0]
    if j is None:
        return i[1] - i[0]
    return abs(i[0] - j[0]) + abs(i[1] - j[1])


def coupled(results, lam, pi, A, T, runs, seed, grid, sample):
    """`fireline couple`: one distance per run, each within [0, T (1 + 4A)]
    (|Z gap| <= 1 and delta <= 4A); the reported median and mean agree with
    the distances; run `sample`, rerun in-process, has the same d_T bit for
    bit, and a numpy left-Riemann sum of its |Z gap| + delta matches it."""
    problems = []
    dists = np.asarray(results["distances"], dtype=float)
    if len(dists) != runs:
        return [f"{len(dists)} distances for {runs} runs"]
    if not np.all((dists >= 0.0) & (dists <= T * (1.0 + 4.0 * A))):
        problems.append(f"a distance outside [0, {T * (1.0 + 4.0 * A)}]")
    if results["median_dT"] != float(np.median(dists)):
        problems.append(f"median_dT={results['median_dT']!r}, distances give {np.median(dists)!r}")
    _band(problems, "mean_dT", results["mean_dT"], float(dists.mean()), 1e-12 * T * (1 + 4 * A))

    run = harness.coupled_run(lam, pi, A, T, seed, stream_id=sample, grid_points=grid)
    if run.distance != dists[sample]:
        problems.append(f"run {sample}: rerun d_T={run.distance!r}, couple gave {dists[sample]!r}")
    gaps = np.abs(run.discrete.values - run.limit.values) + np.array(
        [_delta(i, j) for i, j in zip(run.discrete.intervals, run.limit.intervals)]
    )
    riemann = float(np.sum(gaps[:-1] * np.diff(run.times)))
    _band(problems, f"run {sample} d_T", run.distance, riemann, 1e-9 * max(1.0, riemann))
    return problems


def observables(lam, pi, A, seed, stream_id, times, xs):
    """DiscreteFFP.observables against numpy scans of states(): the occupied
    cluster through floor(n x), its rescaled extent D, the occupied fraction
    K of the window of half-width m, Z = min(-log(1-K)/a, 1) and
    W = min(log|C|/a, 1), all from the paper's scale formulas."""
    problems = []
    a, n, m = paper_scales(lam)
    a_sites = math.floor(A * n)
    sim = DiscreteFFP(lam, pi, A, seed, stream_id=stream_id)
    for t in times:
        sim.advance_to(t)
        occ = np.frombuffer(sim.states(), dtype=np.uint8) == OCCUPIED
        for x in xs:
            idx = math.floor(n * x) + a_sites
            if occ[idx]:
                left = np.flatnonzero(~occ[:idx])
                right = np.flatnonzero(~occ[idx:])
                lo = int(left[-1]) + 1 if len(left) else 0
                hi = idx + int(right[0]) - 1 if len(right) else len(occ) - 1
                cluster = (lo - a_sites, hi - a_sites)
                size = hi - lo + 1
                d = (cluster[0] / n, cluster[1] / n)
                w = min(math.log(size) / a, 1.0)
            else:
                cluster, size, d, w = None, 0, None, 0.0
            wlo, whi = max(idx - m, 0), min(idx + m, len(occ) - 1)
            k = int(np.count_nonzero(occ[wlo : whi + 1])) / (whi - wlo + 1)
            z = 1.0 if k >= 1.0 else min(-math.log1p(-k) / a, 1.0)
            got = sim.observables(x)
            want = (cluster, d, size, k, z, w)
            have = (got.cluster, got.D, got.size, got.K, got.Z, got.W)
            if have != want:
                problems.append(f"t={t} x={x}: observables {have}, numpy {want}")
    return problems


def limit_tail(results, A, T, p, runs, seed, sample, mark_sample):
    """limit_tail_experiment: `runs` lengths, each in [0, 2A]; fractions
    recounted from the lengths; every fraction under 2 exp(-B/8) (all
    thresholds have that envelope below 1); the lengths of runs `sample`,
    rerun in-process, equal the --jobs 2 ones bit for bit; and the mark
    counts of `mark_sample` realizations average 2AT within six standard
    errors (the marks are unit-rate Poisson on [-A, A] x [0, T])."""
    problems = []
    lengths = np.asarray(results["lengths"], dtype=float)
    if len(lengths) != runs:
        return [f"{len(lengths)} lengths for {runs} runs"]
    if not np.all((lengths >= 0.0) & (lengths <= 2.0 * A)):
        problems.append(f"a cluster length outside [0, {2.0 * A}]")
    for b, frac in zip(results["thresholds"], results["fractions"]):
        envelope = 2.0 * math.exp(-b / 8.0)
        if not envelope < 1.0:
            problems.append(f"threshold {b}: envelope {envelope} >= 1 checks nothing")
        if frac != np.count_nonzero(lengths >= b) / runs:
            problems.append(f"threshold {b}: fraction {frac} does not match the lengths")
        if not frac <= envelope:
            problems.append(f"threshold {b}: tail {frac} above 2 exp(-B/8) = {envelope}")
    for i in sample:
        lo, hi = limits.simulate_alffp_p(p, A, T, seed=seed, stream_id=i).D(0.0, T)
        if hi - lo != lengths[i]:
            problems.append(f"run {i}: in-process length {hi - lo!r}, --jobs gave {lengths[i]!r}")
    counts = [
        len(rng.poisson_rectangle(rng.RngStream(seed, i), -A, A, 0.0, T)) for i in mark_sample
    ]
    mean = 2.0 * A * T
    _band(problems, "mean mark count", float(np.mean(counts)), mean,
          SIGMAS * math.sqrt(mean / len(counts)))
    return problems
