"""Tests of the benchmark itself, on its small sizes.

Run with:  PYTHONPATH=src python3 -m pytest perfbench
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest

from fireline import harness, scales
from fireline.discrete import run_propagation

from perfbench import WORKLOADS, checks, run, tracer, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _results(stdout):
    lines = [json.loads(ln) for ln in stdout.splitlines() if ln.startswith("{")]
    assert len(lines) == len(SPEC["workloads"]) + 1  # one per workload, then the sum
    return lines[:-1]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_small_run_passes_every_check_and_prints_every_metric(trace, section):
    proc = _run("--small", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    names = {m["name"]: m["unit"] for m in SPEC[section]}
    for result in _results(proc.stdout):
        assert result["correct"] and result["failed"] == 0, proc.stdout
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_without_the_source_tree_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "coupled", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())


def test_python_fallback_is_reported_as_failed_not_timed(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.engine, "COMPILED", False)
    monkeypatch.setattr(workloads.engine, "FALLBACK_REASON", "no C compiler found (CC='none')")
    out = workloads.measure("coupled", None, 0.0, False, True, tmp_path)
    assert out["attempted"] == out["failed"] == 3
    assert out["metrics"] == {}
    assert "FALLBACK_REASON: no C compiler found" in out["problems"][0]
    facts = {"nproc": 2, "core": "python", "compiled": False, "python": "3", "numpy": "2",
             "fallback_reason": "no C compiler found (CC='none')"}
    result = run.report("coupled", None, facts, out)
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 3, True)


def test_traced_round_counts_layers_and_restores_the_call_sites(tmp_path):
    before = (harness.d_T, harness._map_runs, harness.DiscreteFFP)
    out = workloads.measure("coupled", None, 0.0, True, True, tmp_path)
    assert (harness.d_T, harness._map_runs, harness.DiscreteFFP) == before
    assert harness.d_T is scales.d_T
    metrics = {k: v for k, (v, _) in out["metrics"].items()}
    runs = 3 * 2  # three rungs of two runs
    assert metrics["harness.tasks"] == runs
    assert metrics["scales.d_T_calls"] == runs
    assert metrics["limits.simulations"] == runs
    assert metrics["discrete.observables_calls"] == metrics["discrete.advance_calls"] == runs * 512
    assert metrics["engine.events"] > 0 and metrics["engine.events_per_s"] > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 3.0, 6.0, 0],  # overlaps b: a parallel worker
        ["d", 5.0, 5.5, 2],
    ]
    assert tracer.self_times(spans) == pytest.approx([5.0, 3.0, 2.5, 0.5])


def test_traced_worker_returns_spans_from_a_fresh_interpreter():
    work = tracer.TracedWorker(harness._tail_worker)
    ctx = get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        value, (spans, counts, _) = pool.submit(work, (1.0, 2.0, 2.0, 5, 0)).result(timeout=120)
    assert value == harness._tail_worker((1.0, 2.0, 2.0, 5, 0))
    names = [s[0] for s in spans]
    assert names[0] == "harness.task" and "limits.simulate" in names
    assert counts["rng.marks"] > 0


def test_checks_flag_wrong_outputs():
    good = {"mean_plus": 100.0, "var_plus": 100.0, "windows": 196_000, "omega1": 50 / 51}
    assert checks.fronts(good, 50.0, 2.0, 1000, 1, None) == []
    assert checks.fronts({**good, "mean_plus": 102.0}, 50.0, 2.0, 1000, 1, None)
    assert checks.fronts({**good, "omega1": 0.97}, 50.0, 2.0, 1000, 1, None)
    assert checks.fronts({**good, "mean_plus": 18.0}, 9.0, 2.0, 1, 1, 18)  # truncated

    tail = {"lengths": [0.0, 1.0, 7.0, 12.0], "thresholds": [6.0], "fractions": [0.5]}
    assert checks.limit_tail(tail, 6.0, 3.0, 0.0, 4, 19, [], range(64)) == []
    assert checks.limit_tail({**tail, "lengths": [0.0, 1.0, 13.0, 12.0]},
                             6.0, 3.0, 0.0, 4, 19, [], range(64))
    assert checks.limit_tail({**tail, "thresholds": [4.0]}, 6.0, 3.0, 0.0, 4, 19, [], range(64))


def test_engine_and_coupling_checks_flag_wrong_outputs(monkeypatch):
    run = run_propagation(9.0, 10.0, seed=3, engine="compiled")
    frac, windows = run.omega1_fraction()
    results = {"fronts_plus": len(run.times_plus), "fronts_minus": len(run.times_minus),
               "windows": windows, "omega1": frac, "sparks": len(run.spark_log),
               "events": run.event_count, "truncated": False}
    assert checks.python_propagation(results, 9.0, 10.0, 3) == []
    assert checks.python_propagation({**results, "events": run.event_count + 1}, 9.0, 10.0, 3)

    lam = math.exp(-4.0)
    a, n, _ = checks.paper_scales(lam)
    pi = n / a
    dists = harness.coupled_distances(lam, pi, 2.0, 2.0, 2, seed=5)
    results = {"distances": dists, "median_dT": float(np.median(dists)),
               "mean_dT": sum(dists) / 2}
    assert checks.coupled(results, lam, pi, 2.0, 2.0, 2, 5, 512, sample=1) == []
    results["distances"] = [dists[0], dists[1] + 1e-9]
    assert checks.coupled(results, lam, pi, 2.0, 2.0, 2, 5, 512, sample=1)

    assert checks.observables(lam, pi, 2.0, 3, 0, (1.0,), (0.0, 0.5)) == []

    class OffByOneUlp(checks.DiscreteFFP):
        def observables(self, x):
            obs = super().observables(x)
            return dataclasses.replace(obs, K=math.nextafter(obs.K, 0.0))

    monkeypatch.setattr(checks, "DiscreteFFP", OffByOneUlp)
    assert len(checks.observables(lam, pi, 2.0, 3, 0, (1.0,), (0.0, 0.5))) == 2
