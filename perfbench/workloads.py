"""The four workloads, and the rounds that time them.

A workload is a fixed list of operations, each one call into fireline's
public entry points (fireline.cli.main in-process, or a harness experiment)
followed by its correctness check.  A round runs every operation once;
a run repeats whole rounds until its time is up, so every run attempts the
same operations, and it reports medians over rounds.  Round r gives each
operation the seed (its acceptance-gate pin, or --seed) + r * 2**32, so
rounds and runs with different seeds draw disjoint inputs.

The host this was built on drifts in speed by more than ten per cent over
tens of seconds, so the calibration loop runs before and after every
timed operation, and the run's median times are rescaled by the loop's
median (see perfbench.rescale).  The wall times are reported too.
"""

import io
import json
import math
import resource
import statistics
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Tuple

from fireline import cli, engine, harness
from fireline.discrete import suggested_radius

from . import calibration_seconds, checks, rescale
from .tracer import Tracer, installed, layer_numbers

ROUND_STRIDE = 1 << 32


@dataclass(frozen=True)
class Op:
    """One operation: a timed call and the check of its output."""

    name: str
    pin: int  # the acceptance-gate seed, used when no --seed is given
    runs: int  # realizations it requests
    run: Callable  # (seed, tracer or None) -> raw output
    read: Callable  # raw output -> results as plain data
    check: Callable  # (results, seed) -> list of problems
    batch: bool = True  # counted in runs_per_s
    long: bool = False  # its time is long_run_s


@dataclass(frozen=True)
class Workload:
    name: str
    needs_c: bool  # times the C core, or checks against it
    ops: Tuple[Op, ...]
    processes: int = 1  # processes it keeps busy, for the calibration loop


def _invoke(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def _cli_op(name, pin, runs, argv, check, out_dir, **flags):
    path = out_dir / f"{name}.json"

    def run(seed, tracer):
        args = [*argv, "--seed", str(seed), "--json", str(path)]
        with redirect_stdout(io.StringIO()):
            code = _invoke(tracer, "cli.main", cli.main, args)
        if code != 0:
            raise RuntimeError(f"fireline {' '.join(args)} exited with status {code}")
        return path

    def read(artifact):
        return json.loads(artifact.read_text())["results"]

    return Op(name, pin, runs, run, read, check, **flags)


def _propagation(small, out_dir):
    short_runs = 20 if small else 1000
    long_T = 30.0 if small else 600.0
    min_windows = 200 if small else 10_000
    return (
        _cli_op(
            "fronts_pi50_T2", 101, short_runs,
            ["fronts", "--pi", "50", "-T", "2", "--runs", str(short_runs), "--jobs", "1"],
            lambda res, seed: checks.fronts(res, 50.0, 2.0, short_runs, 1, None),
            out_dir,
        ),
        _cli_op(
            "fronts_pi9_long", 7, 1,
            ["fronts", "--pi", "9", "-T", repr(long_T), "--runs", "1", "--jobs", "1"],
            lambda res, seed: checks.fronts(
                res, 9.0, long_T, 1, min_windows, suggested_radius(9.0, long_T)
            ),
            out_dir, batch=False, long=True,
        ),
    )


def _propagation_python(small, out_dir):
    T = 10.0 if small else 100.0
    return (
        _cli_op(
            "propagation_python", 7, 1,
            ["propagation", "--pi", "9", "-T", repr(T), "--engine", "python"],
            lambda res, seed: checks.python_propagation(res, 9.0, T, seed),
            out_dir, long=True,
        ),
    )


def _coupled(small, out_dir):
    runs = 2 if small else 20
    A = T = 2.0
    grid = 512
    ops = []
    for k in (4, 6, 8):
        lam = math.exp(-k)
        a, n, _ = checks.paper_scales(lam)
        pi = n / a  # slope p = n / (a pi) = 1, the criterion-6 ladder

        def check(res, seed, lam=lam, pi=pi):
            return checks.coupled(
                res, lam, pi, A, T, runs, seed, grid, sample=seed % runs
            ) + checks.observables(
                lam, pi, A, seed, stream_id=runs, times=(0.5, 1.0, 2.0),
                xs=(0.0, -1.3, 0.7, 1.95),
            )

        ops.append(_cli_op(
            f"couple_lambda_e-{k}", 42, runs,
            ["couple", "--lambda", repr(lam), "--pi", repr(pi), "-A", "2", "-T", "2",
             "--runs", str(runs), "--grid", str(grid), "--jobs", "1"],
            check, out_dir, long=(k == 8),
        ))
    return tuple(ops)


TAIL_JOBS = 2


def _limit_tail(small, out_dir):
    runs = 40 if small else 1000
    A, T, jobs = 6.0, 3.0, TAIL_JOBS
    thresholds = (6.0, 8.0, 10.0, 12.0)
    mark_sample = range(16 if small else 64)
    ops = []
    for p in (0.0, 1.0):

        def run(seed, tracer, p=p):
            return _invoke(
                tracer, "harness.limit_tail_experiment", harness.limit_tail_experiment,
                A, T, runs, seed, p=p, thresholds=thresholds, jobs=jobs,
            )

        def check(results, seed, p=p):
            sample = sorted({(seed + 7919 * j) % runs for j in range(4)})
            return checks.limit_tail(results, A, T, p, runs, seed, sample, mark_sample)

        ops.append(Op(f"limit_tail_p{p:g}", 19, runs, run, _tail_results, check,
                      long=(p == 1.0)))
    return tuple(ops)


def _tail_results(result):
    return {
        "lengths": result.lengths.tolist(),
        "thresholds": list(result.thresholds),
        "fractions": result.fractions.tolist(),
    }


def build(name, small, out_dir):
    ops = {
        "propagation": _propagation,
        "propagation_python": _propagation_python,
        "coupled": _coupled,
        "limit_tail": _limit_tail,
    }[name](small, out_dir)
    if name == "limit_tail":
        return Workload(name, needs_c=False, ops=ops, processes=TAIL_JOBS)
    return Workload(name, needs_c=True, ops=ops)


# -- rounds --------------------------------------------------------------------------


def _round(workload, base_seed, r, tracer, expect=None):
    """Run every operation of round r once, then check the outputs.  An
    untraced round runs the calibration loop around each operation; a
    traced round must reproduce the outputs `expect` of its untraced twin."""
    wall, raw, outputs, errors, wrong = {}, {}, {}, [], {}
    seeds = {op.name: (op.pin if base_seed is None else base_seed) + r * ROUND_STRIDE
             for op in workload.ops}
    calibration = [calibration_seconds(workload.processes)] if tracer is None else []
    for op in workload.ops:
        seed = seeds[op.name]
        try:
            with installed(tracer) if tracer is not None else nullcontext():
                start = perf_counter()
                raw[op.name] = op.run(seed, tracer)
                wall[op.name] = perf_counter() - start
        except Exception as exc:  # the program failed: count it, keep measuring
            errors.append(f"{op.name} seed={seed}: {type(exc).__name__}: {exc}")
        if tracer is None:
            calibration.append(calibration_seconds(workload.processes))
    for op in workload.ops:
        if op.name not in raw:
            continue
        seed = seeds[op.name]
        try:
            outputs[op.name] = op.read(raw[op.name])
            problems = op.check(outputs[op.name], seed)
            if expect is not None and expect.get(op.name) != outputs[op.name]:
                problems.append("traced output differs from the untraced one")
        except Exception:  # a malformed output is a failed check
            problems = [traceback.format_exc(limit=3)]
        if problems:
            wrong[op.name] = [f"{op.name} seed={seed}: {p}" for p in problems[:3]]
    return {"wall": wall, "calibration": calibration, "outputs": outputs,
            "errors": errors, "wrong": wrong}


def _end_to_end(workload, times):
    """runs_per_s and long_run_s of one round, or None if an operation raised."""
    if len(times) != len(workload.ops):
        return None
    batch = [op for op in workload.ops if op.batch]
    long_op = next(op for op in workload.ops if op.long)
    return {
        "runs_per_s": sum(op.runs for op in batch) / sum(times[op.name] for op in batch),
        "long_run_s": times[long_op.name],
    }


def measure(name, base_seed, seconds, trace, small, out_dir):
    """Run whole rounds of one workload for `seconds`.  With trace, each
    untraced round is followed by the same round traced, and the metrics are
    the per-layer numbers averaged over the traced rounds."""
    workload = build(name, small, out_dir)
    n_ops = len(workload.ops)
    if workload.needs_c and not engine.COMPILED:
        reason = f"FALLBACK_REASON: {engine.FALLBACK_REASON}"
        return {"attempted": n_ops, "failed": n_ops, "correct": True, "rounds": 0,
                "problems": [f"not timed on the Python fallback; {reason}"], "metrics": {},
                "wall_metrics": {}, "round_times": [], "spans": None}

    requested = sum(op.runs for op in workload.ops)
    records, layered, overheads, spans_out = [], [], [], None
    started = perf_counter()
    r = 0
    while r == 0 or perf_counter() - started < seconds:
        plain = _round(workload, base_seed, r, None)
        records.append(plain)
        outputs = plain.pop("outputs")
        if trace:
            tracer = Tracer()
            traced = _round(workload, base_seed, r, tracer, expect=outputs)
            traced.pop("outputs")
            records.append(traced)
            numbers, layer_self = layer_numbers(
                tracer.spans, tracer.counts, tracer.totals, tracer.jobs, requested
            )
            layered.append(numbers)
            overheads.append(sum(traced["wall"].values()) - sum(plain["wall"].values()))
            if spans_out is None:
                spans_out = {"round": r, "layer_self_s": layer_self,
                             "overhead_s": overheads[-1], "spans": tracer.spans}
        r += 1

    metrics, walls = {}, {}
    if trace:
        for key, (_, unit) in layered[0].items():
            metrics[key] = (statistics.fmean(numbers[key][0] for numbers in layered), unit)
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    else:
        per_round = [e for e in (_end_to_end(workload, rec["wall"]) for rec in records) if e]
        if per_round:
            runs_per_s = statistics.median(e["runs_per_s"] for e in per_round)
            long_run_s = statistics.median(e["long_run_s"] for e in per_round)
            walls = {"runs_per_s": (runs_per_s, "1/s"), "long_run_s": (long_run_s, "s")}
            calibration = statistics.median(c for rec in records for c in rec["calibration"])
            metrics["runs_per_s"] = (1.0 / rescale(1.0 / runs_per_s, calibration), "1/s")
            metrics["long_run_s"] = (rescale(long_run_s, calibration), "s")
        peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    wrong = sum(len(rec["wrong"]) for rec in records)
    return {
        "attempted": n_ops * len(records),
        "failed": wrong + sum(len(rec["errors"]) for rec in records),
        "correct": wrong == 0,
        "rounds": r,
        "problems": [p for rec in records
                     for p in rec["errors"] + sum(rec["wrong"].values(), [])][:20],
        "metrics": metrics,
        "wall_metrics": walls,
        "round_times": [{"wall": rec["wall"], "calibration": rec["calibration"]}
                        for rec in records],
        "spans": spans_out,
    }
