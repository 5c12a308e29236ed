"""Run the fireline benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--small]

Run it from anywhere; it uses the source tree next to it (src/fireline)
and keeps everything it writes inside that checkout: the C core compiled
into .bench_build/, and result and span files in perfbench/out/.

Without --seed every operation uses its acceptance-gate seed.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run; --small shrinks every workload so that all of
them, with every check, run in seconds.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BUILD = ROOT / ".bench_build"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import WORKLOADS, calibration_seconds, rescale  # noqa: E402

SETUP_PROBES = 5
FACTS = """
import json, os, platform, numpy
from fireline import engine
print(json.dumps({"nproc": len(os.sched_getaffinity(0)), "core": engine.core_description(),
                  "compiled": engine.COMPILED, "fallback_reason": engine.FALLBACK_REASON,
                  "python": platform.python_version(), "numpy": numpy.__version__}))
"""


def _python(code):
    return subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=600
    )


def setup_seconds(probes):
    """Median time from a fresh interpreter to `import fireline` with a warm
    core cache, rescaled like every end-to-end time by the calibration loops
    around the probes; and the median wall time."""
    times, calibration = [], [calibration_seconds()]
    for _ in range(probes):
        start = time.perf_counter()
        proc = _python("import fireline")
        times.append(time.perf_counter() - start)
        calibration.append(calibration_seconds())
        if proc.returncode != 0:
            raise RuntimeError(f"import fireline failed:\n{proc.stderr}")
    wall = statistics.median(times)
    return rescale(wall, statistics.median(calibration)), wall


def child(name, seed, seconds, trace, small):
    """Measure one workload in this process; print the outcome as JSON."""
    from perfbench import workloads

    out = workloads.measure(name, seed, seconds, trace, small, OUT)
    spans = out.pop("spans", None)
    if spans is not None:
        t0 = spans["spans"][0][1] if spans["spans"] else 0.0
        doc = {
            "workload": name, "seed": seed, "round": spans["round"],
            "overhead_s": spans["overhead_s"], "layer_self_s": spans["layer_self_s"],
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, round(s - t0, 7), round(e - t0, 7), p] for n, s, e, p in spans["spans"]],
        }
        (OUT / f"{name}.spans.json").write_text(json.dumps(doc))
    print(json.dumps(out))


def run_workload(name, seed, seconds, trace, small):
    """Measure one workload in a fresh interpreter, so that its peak memory
    counts only it and its workers, and its worker processes start the way
    they do under the fireline command."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", name,
            "--seconds", repr(seconds), "--trace", str(int(trace))]
    argv += ["--seed", str(seed)] if seed is not None else []
    argv += ["--small"] if small else []
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, timeout=seconds + 120)
    if proc.returncode != 0:
        raise RuntimeError(f"workload {name} ended with exit code {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def report(name, seed, facts, out):
    print(f"workload {name} seed={'pins' if seed is None else seed} rounds={out['rounds']} "
          f"attempted={out['attempted']} failed={out['failed']}")
    print(f"  nproc={facts['nproc']} core={facts['core']} python={facts['python']} "
          f"numpy={facts['numpy']}")
    if not facts["compiled"]:
        print(f"  FALLBACK_REASON: {facts['fallback_reason']}")
    for problem in out["problems"]:
        print(f"  problem: {problem}")
    walls = out["wall_metrics"]
    for key, (value, unit) in out["metrics"].items():
        wall = f"  (wall {walls[key][0]:.6g} {unit})" if key in walls else ""
        print(f"  {key} = {value!r} {unit}{wall}")
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    (OUT / f"{name}.result.json").write_text(json.dumps(
        {**result, "workload": name, "seed": seed, "facts": facts, "rounds": out["rounds"],
         "wall_metrics": walls, "round_times": out["round_times"],
         "problems": out["problems"]}, indent=1))
    print(json.dumps(result))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: each operation's acceptance-gate seed)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="time to spend on whole rounds of each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny sizes: every workload and check in seconds")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
        return 0
    if args.seed is not None and not 0 <= args.seed < 2**32:
        parser.error("--seed must lie in [0, 2**32)")
    if not (SRC / "fireline" / "__init__.py").is_file():
        print(f"error: no fireline source tree at {SRC}", file=sys.stderr)
        return 2

    for directory in (OUT, BUILD / "cache", BUILD / "tmp"):
        directory.mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(BUILD / "cache")  # the C core's build cache
    os.environ["TMPDIR"] = str(BUILD / "tmp")  # the compiler's scratch files
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    warm = _python(FACTS)  # compiles the C core into the cache on a first run
    if warm.returncode != 0:
        print(f"error: cannot import fireline:\n{warm.stderr}", file=sys.stderr)
        return 2
    facts = json.loads(warm.stdout.splitlines()[-1])

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace), args.small)
        if not args.trace:
            setup, wall = setup_seconds(1 if args.small else SETUP_PROBES)
            out["metrics"]["setup_s"] = (setup, "s")
            out["wall_metrics"]["setup_s"] = (wall, "s")
        results[name] = report(name, args.seed, facts, out)
    if len(names) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
