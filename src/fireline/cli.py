"""Command line interface.

Every subcommand prints a small block of key=value lines and optionally
writes CSV or JSON artifacts.  Output is deterministic for fixed arguments:
no timestamps, fixed float formats, parameters and seed embedded in every
structured artifact.  Relative output paths are resolved against the
FIRELINE_OUTPUT_DIR environment variable when it is set.

Exit codes: 0 on success, 2 for invalid parameters, 1 for runtime failures.
"""

import argparse
import csv
import json
import math
import os
import statistics
import sys

from . import __version__
from .discrete import DiscreteFFP, run_propagation
from .engine import core_description
from .harness import (
    barrier_height_experiment,
    cluster_dist_experiment,
    coupled_distances,
    # unused here, but perfbench's tracer patches cli.front_speed_experiment
    # and cli.spark_fraction_experiment by name
    front_speed_experiment,
    front_statistics,
    fronts_experiment,
    gamma_test,
    spark_fraction_experiment,
)
from .limits import simulate_alffp_p, simulate_lffp_inf
from .scales import classify_regime, compute_scales, uniform_grid


def _resolve(path):
    base = os.environ.get("FIRELINE_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write_csv(path, header, rows):
    with open(_resolve(path), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _json_default(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_json(path, command, params, results):
    doc = {
        "artifact": "fireline",
        "version": __version__,
        "command": command,
        "params": params,
        "results": results,
    }
    with open(_resolve(path), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _regime_label(regime):
    if regime.kind == "intermediate":
        return f"intermediate(p={regime.p:.6f})"
    if regime.kind == "slow":
        return f"slow(z0={regime.z0:.6f})"
    return "fast"


def _interval_label(iv):
    if iv is None:
        return "none"
    return f"[{iv[0]:.6f},{iv[1]:.6f}]"


# -- subcommand handlers -----------------------------------------------------------


def _cmd_scales(args):
    s = compute_scales(args.lam, args.pi if args.pi is not None else 1.0)
    print(f"a={s.a:.6f} n={s.n} m={s.m} eps={s.eps:.6f}")
    params = {"lambda": args.lam}
    results = {"a": s.a, "n": s.n, "m": s.m, "eps": s.eps}
    if args.pi is not None:
        regime, ratio, zeta = classify_regime(args.lam, args.pi)
        print(f"ratio={ratio:.6f} zeta={zeta:.6f} regime={_regime_label(regime)}")
        print(f"in_asymptotic_range={'true' if s.in_asymptotic_range else 'false'}")
        params["pi"] = args.pi
        results.update(
            {"ratio": ratio, "zeta": zeta, "regime": regime.kind,
             "p": regime.p, "z0": regime.z0,
             "in_asymptotic_range": s.in_asymptotic_range}
        )
    return params, results


def _cmd_simulate_discrete(args):
    s = compute_scales(args.lam, args.pi)
    t_macro = args.T / s.a if args.raw_time else args.T
    grid_n = args.grid
    if args.csv and grid_n == 0:
        grid_n = 64
    grid = uniform_grid(t_macro, grid_n) if grid_n > 0 else None
    sim = DiscreteFFP(
        args.lam, args.pi, args.A, args.seed,
        stream_id=args.stream, initial=args.initial,
        injected_matches=None if args.match_mode == "poisson" else (),
    )
    rows = []
    if grid is not None:
        for t, o in zip(grid.tolist(), sim.sample(grid)):
            d_lo, d_hi = ("", "") if o.D is None else o.D
            rows.append([t, o.Z, o.K, o.W, o.size, d_lo, d_hi])
    sim.advance_to(t_macro)
    o = sim.observables(0.0)
    log = sim.matches()
    effective = sum(1 for _, _, eff in log if eff)
    bounds = sim.burned_bounds()
    print(f"t={t_macro:.6f} raw={t_macro * s.a:.6f}")
    print(f"matches={len(log)} effective={effective}")
    print("burned=none" if bounds is None else f"burned={bounds[0]}..{bounds[1]}")
    print(f"Z={o.Z:.6f} K={o.K:.6f} W={o.W:.6f} size={o.size} D={_interval_label(o.D)}")
    if args.csv:
        _write_csv(args.csv, ["t", "Z", "K", "W", "size", "D_lo", "D_hi"], rows)
    if args.snapshot:
        with open(_resolve(args.snapshot), "w") as fh:
            json.dump(sim.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    params = {
        "lambda": args.lam, "pi": args.pi, "A": args.A, "T": t_macro,
        "seed": args.seed, "stream": args.stream,
        "match_mode": args.match_mode, "initial": args.initial,
    }
    results = {
        "matches": len(log), "effective": effective,
        "burned": None if bounds is None else list(bounds),
        "Z": o.Z, "K": o.K, "W": o.W, "size": o.size,
        "D": None if o.D is None else list(o.D),
    }
    return params, results


def _cmd_simulate_limit(args):
    grid = uniform_grid(args.T, args.grid) if args.csv else None
    if args.p is not None:
        state = simulate_alffp_p(
            args.p, args.A, args.T, seed=args.seed, stream_id=args.stream
        )
        z_final = state.Z(0.0, args.T)
    else:
        state = simulate_lffp_inf(
            args.z0, args.A, args.T, seed=args.seed, stream_id=args.stream
        )
        z_final = None
    d_final = state.D(0.0, args.T)
    print(f"marks={len(state.marks)} events={len(state.events)}")
    if z_final is None:
        print(f"D(0,T)={_interval_label(d_final)} length={d_final[1] - d_final[0]:.6f}")
    else:
        print(f"Z(0,T)={z_final:.6f} D(0,T)={_interval_label(d_final)}")
    if args.csv:
        traj = state.trajectory(grid)
        points = zip(traj.times.tolist(), traj.values.tolist(), traj.intervals)
        if z_final is None:
            header = ["t", "D_lo", "D_hi", "length"]
            rows = [[t, lo, hi, hi - lo] for t, _, (lo, hi) in points]
        else:
            header = ["t", "Z", "D_lo", "D_hi"]
            rows = [[t, z, lo, hi] for t, z, (lo, hi) in points]
        _write_csv(args.csv, header, rows)
    if args.events:
        _write_csv(
            args.events,
            ["t", "kind", "x", "cause"],
            [[e.t, e.kind, e.x, e.cause] for e in state.events],
        )
    params = {
        "A": args.A, "T": args.T, "seed": args.seed, "stream": args.stream,
        "p": args.p, "z0": args.z0,
    }
    results = {
        "marks": len(state.marks), "events": len(state.events),
        "Z": z_final, "D": list(d_final),
    }
    return params, results


def _cmd_propagation(args):
    run = run_propagation(
        args.pi, args.T, radius=args.radius, seed=args.seed,
        stream_id=args.stream, engine=args.engine,
    )
    frac, windows = run.omega1_fraction()
    print(
        f"fronts_plus={len(run.times_plus)} fronts_minus={len(run.times_minus)} "
        f"truncated={'true' if run.truncated else 'false'}"
    )
    print(f"omega1={frac:.6f} windows={windows}")
    print(f"sparks={len(run.spark_log)} events={run.event_count}")
    results = {
        "fronts_plus": len(run.times_plus), "fronts_minus": len(run.times_minus),
        "truncated": run.truncated, "omega1": frac, "windows": windows,
        "sparks": len(run.spark_log), "events": run.event_count,
    }
    if args.gof is not None:
        g = front_statistics(run, args.gof)
        print(f"gof: dt={g.dt:.6f} stat={g.statistic:.6f} pvalue={g.pvalue:.6f} dof={g.dof}")
        results["gof"] = {
            "dt": g.dt, "stat": g.statistic, "pvalue": g.pvalue, "dof": g.dof,
        }
    if args.csv:
        rows = [["plus", i, t] for i, t in enumerate(run.times_plus)]
        rows += [["minus", i, t] for i, t in enumerate(run.times_minus)]
        _write_csv(args.csv, ["side", "index", "time"], rows)
    params = {
        "pi": args.pi, "horizon": args.T, "radius": args.radius,
        "seed": args.seed, "stream": args.stream,
    }
    return params, results


def _cmd_couple(args):
    regime, ratio, _ = classify_regime(args.lam, args.pi)
    dists = coupled_distances(
        args.lam, args.pi, args.A, args.T, args.runs, args.seed,
        grid_points=args.grid, jobs=args.jobs,
    )
    median = statistics.median(dists)
    mean = sum(dists) / len(dists)
    print(f"regime={_regime_label(regime)} ratio={ratio:.6f}")
    print(f"runs={args.runs} median_dT={median:.6f} mean_dT={mean:.6f}")
    if args.csv:
        _write_csv(args.csv, ["run", "d_T"], list(enumerate(dists)))
    params = {
        "lambda": args.lam, "pi": args.pi, "A": args.A, "T": args.T,
        "runs": args.runs, "seed": args.seed, "grid": args.grid,
    }
    return params, {"median_dT": median, "mean_dT": mean, "distances": dists}


def _cmd_cluster_dist(args):
    res = cluster_dist_experiment(
        args.lam, args.pi, args.T, args.runs, args.seed,
        A=args.A, jobs=args.jobs,
    )
    n = compute_scales(args.lam, args.pi).n
    print(f"runs={res.runs} mean_size={res.mean_size:.6f} mean_size_over_n={res.mean_size / n:.6f}")
    print(f"W_mean={res.w_values.mean():.6f} Z_mean={res.z_values.mean():.6f}")
    if args.csv:
        rows = [
            [i, int(res.sizes[i]), float(res.w_values[i]), float(res.z_values[i])]
            for i in range(res.runs)
        ]
        _write_csv(args.csv, ["run", "size", "W", "Z"], rows)
    params = {
        "lambda": args.lam, "pi": args.pi, "t": args.T, "A": args.A,
        "runs": args.runs, "seed": args.seed,
    }
    results = {
        "mean_size": res.mean_size, "mean_size_over_n": res.mean_size / n,
        "W_mean": float(res.w_values.mean()), "Z_mean": float(res.z_values.mean()),
    }
    return params, results


def _cmd_gamma_test(args):
    res = gamma_test(args.z0, args.T, args.samples, args.seed, args.stream)
    critical = 1.63 / math.sqrt(args.samples)
    law_mean = 2.0 / (args.T - args.z0)
    print(
        f"samples={res.samples} ks={res.ks:.6f} critical_1pct={critical:.6f} "
        f"mean={res.mean:.6f} law_mean={law_mean:.6f}"
    )
    params = {
        "z0": args.z0, "t": args.T, "samples": args.samples,
        "seed": args.seed, "stream": args.stream,
    }
    results = {
        "ks": res.ks, "critical_1pct": critical,
        "mean": res.mean, "law_mean": law_mean,
    }
    return params, results


def _cmd_barrier(args):
    res = barrier_height_experiment(
        args.lam, args.pi, args.t0, args.t1, args.runs, args.seed,
        jobs=args.jobs, radius=args.radius,
    )
    print(
        f"runs={res.runs} mean_theta={res.mean_theta:.6f} "
        f"empty_fraction={res.empty_fraction:.6f} "
        f"mean_cluster={res.cluster_sizes.mean():.6f}"
    )
    if args.csv:
        rows = [
            [i, float(res.thetas[i]), int(res.cluster_sizes[i])]
            for i in range(res.runs)
        ]
        _write_csv(args.csv, ["run", "theta", "cluster_size"], rows)
    params = {
        "lambda": args.lam, "pi": args.pi, "t0": args.t0, "t1": args.t1,
        "runs": args.runs, "seed": args.seed,
    }
    results = {
        "mean_theta": res.mean_theta,
        "empty_fraction": res.empty_fraction,
        "mean_cluster": float(res.cluster_sizes.mean()),
    }
    return params, results


def _cmd_fronts(args):
    speed, spark = fronts_experiment(args.pi, args.T, args.runs, args.seed, jobs=args.jobs)
    expected = args.pi * args.T
    print(
        f"runs={speed.runs} mean_plus={speed.mean_plus:.6f} "
        f"var_plus={speed.var_plus:.6f} expected={expected:.6f}"
    )
    print(
        f"spark_windows={spark.windows} omega1={spark.fraction:.6f} "
        f"wilson=[{spark.wilson[0]:.6f},{spark.wilson[1]:.6f}]"
    )
    params = {
        "pi": args.pi, "horizon": args.T, "runs": args.runs, "seed": args.seed,
    }
    results = {
        "mean_plus": speed.mean_plus, "var_plus": speed.var_plus,
        "expected": expected, "windows": spark.windows,
        "omega1": spark.fraction, "wilson": list(spark.wilson),
    }
    return params, results


# -- parser ------------------------------------------------------------------------


def _add_common(p, *, seed=True, jobs=False, csv_out=False):
    if seed:
        p.add_argument("--seed", type=int, default=0, help="master seed")
    if seed and not jobs:  # a batch command runs run k on stream k
        p.add_argument("--stream", type=int, default=0, help="stream id")
    if jobs:
        p.add_argument("--jobs", type=int, default=1, help="worker processes")
    if csv_out:
        p.add_argument("--csv", metavar="FILE", help="write rows as CSV")
    p.add_argument("--json", metavar="FILE", help="write a JSON artifact")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fireline",
        description="Stochastic simulation of forest-fire processes with "
        "finite-rate propagation and their scaling limits.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"fireline {__version__} (core: {core_description()})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scales", help="characteristic scales and regime")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--pi", type=float, default=None)
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_scales)

    p = sub.add_parser("simulate-discrete", help="run the discrete process")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--pi", type=float, required=True)
    p.add_argument("-A", "--box", dest="A", type=float, required=True)
    p.add_argument("-T", "--time", dest="T", type=float, required=True)
    p.add_argument("--match-mode", choices=["poisson", "none"], default="poisson")
    p.add_argument("--initial", choices=["vacant", "occupied"], default="vacant")
    p.add_argument("--raw-time", action="store_true", help="interpret -T as raw time")
    p.add_argument("--grid", type=int, default=0, help="observable sample points")
    p.add_argument("--snapshot", metavar="FILE", help="write the final state")
    _add_common(p, csv_out=True)
    p.set_defaults(func=_cmd_simulate_discrete)

    p = sub.add_parser("simulate-limit", help="run a limit process")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--p", type=float, default=None, help="front slowness")
    mode.add_argument("--z0", type=float, default=None, help="slow-regime exponent")
    p.add_argument("-A", "--box", dest="A", type=float, required=True)
    p.add_argument("-T", "--time", dest="T", type=float, required=True)
    p.add_argument("--grid", type=int, default=64, help="CSV sample points")
    p.add_argument("--events", metavar="FILE", help="write the event log as CSV")
    _add_common(p, csv_out=True)
    p.set_defaults(func=_cmd_simulate_limit)

    p = sub.add_parser("propagation", help="single propagation-process run")
    p.add_argument("--pi", type=float, required=True)
    p.add_argument("-T", "--horizon", dest="T", type=float, required=True)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--gof", type=float, default=None, metavar="DT",
                   help="chi-square fit of front increments in windows of DT")
    p.add_argument(
        "--engine", choices=["auto", "python", "compiled"], default="auto",
        help="simulation core selection",
    )
    _add_common(p, csv_out=True)
    p.set_defaults(func=_cmd_propagation)

    p = sub.add_parser("couple", help="coupled discrete/limit distance runs")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--pi", type=float, required=True)
    p.add_argument("-A", "--box", dest="A", type=float, required=True)
    p.add_argument("-T", "--time", dest="T", type=float, required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--grid", type=int, default=512)
    _add_common(p, jobs=True, csv_out=True)
    p.set_defaults(func=_cmd_couple)

    p = sub.add_parser("cluster-dist", help="cluster statistics at a fixed time")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--pi", type=float, required=True)
    p.add_argument("-T", "--time", dest="T", type=float, required=True)
    p.add_argument("-A", "--box", dest="A", type=float, required=True)
    p.add_argument("--runs", type=int, required=True)
    _add_common(p, jobs=True, csv_out=True)
    p.set_defaults(func=_cmd_cluster_dist)

    p = sub.add_parser("gamma-test", help="slow-limit cluster law fit")
    p.add_argument("--z0", type=float, required=True)
    p.add_argument("-T", "--time", dest="T", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_gamma_test)

    p = sub.add_parser("barrier", help="regrowth delay after a single match")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--pi", type=float, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--radius", type=int, default=None)
    _add_common(p, jobs=True, csv_out=True)
    p.set_defaults(func=_cmd_barrier)

    p = sub.add_parser("fronts", help="front speed and spark statistics")
    p.add_argument("--pi", type=float, required=True)
    p.add_argument("-T", "--horizon", dest="T", type=float, required=True)
    p.add_argument("--runs", type=int, required=True)
    _add_common(p, jobs=True)
    p.set_defaults(func=_cmd_fronts)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        params, results = args.func(args)
        if getattr(args, "json", None):
            _write_json(args.json, args.command, params, results)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
