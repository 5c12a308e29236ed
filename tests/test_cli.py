"""CLI behavior: output format, artifacts, determinism, exit codes."""

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fireline
from fireline import rng
from fireline.cli import build_parser, main
from fireline.discrete import DiscreteFFP
from fireline.engine import FALLBACK_REASON
from fireline.limits import simulate_alffp_p, simulate_lffp_inf
from fireline.scales import uniform_grid

# a child `python -m fireline` imports the package these tests import: the
# pythonpath of pyproject.toml reaches only the pytest process
_CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(fireline.__file__).resolve().parents[1]),
                      os.environ.get("PYTHONPATH")])
    ),
}


def test_scales_line(capsys):
    assert main(["scales", "--lambda", "0.01"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "a=4.605170 n=21 m=4 eps=0.010239"


def test_scales_prints_extreme_values_in_exponent_form(tmp_path, capsys):
    doc = tmp_path / "scales.json"
    assert main(["scales", "--lambda", "1e-40", "--pi", "2", "--json", str(doc)]) == 0
    lines = capsys.readouterr().out.splitlines()
    results = json.loads(doc.read_text())["results"]
    assert all(len(line) < 100 for line in lines), lines
    printed = dict(re.findall(r"(\w+)=([-+.\de]+)\b", " ".join(lines)))
    assert printed.keys() == {"a", "n", "m", "eps", "ratio", "zeta", "z0"}
    for name, text in printed.items():
        assert float(text) == pytest.approx(results[name], rel=1e-6, abs=0.0), name


def test_scales_with_pi_prints_regime(capsys):
    assert main(["scales", "--lambda", "0.01", "--pi", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "regime=intermediate(p=2.280046)" in out
    assert "in_asymptotic_range=true" in out


def test_missing_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["scales"])
    assert exc.value.code == 2


def test_engine_flag_only_on_propagation():
    parser = build_parser()
    args = parser.parse_args(["propagation", "--pi", "9", "-T", "1", "--engine", "python"])
    assert args.engine == "python"
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(
            ["couple", "--lambda", "0.01", "--pi", "2", "-A", "1", "-T", "1",
             "--runs", "1", "--engine", "python"]
        )
    assert exc.value.code == 2


def test_parameter_error_exits_2(capsys):
    rc = main(
        ["barrier", "--lambda", "0.0025", "--pi", "25", "--t0", "0.5",
         "--t1", "0.7", "--runs", "1"]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_barrier_box_over_cap_exits_1(capsys):
    # the cap is checked before the engine allocates 4,000,000,001 sites
    rc = main(
        ["barrier", "--lambda", "0.01", "--pi", "10", "--t0", "0", "--t1", "0.5",
         "--runs", "1", "--radius", "2000000000"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: box of 4000000001 sites exceeds the cap of 1073741824\n"


@pytest.mark.parametrize("lam, t0, t1, size", [
    ("1e-300", "2", "2.5", "inf"), ("1e-200", "0", "0.5", "4.71529e+194"),
])
def test_barrier_default_box_over_cap_exits_1(lam, t0, t1, size, capsys):
    # refused before lam ** -age, which overflows a float at lam = 1e-300
    rc = main(["barrier", "--lambda", lam, "--pi", "5", "--t0", t0, "--t1", t1, "--runs", "1"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: box of half-width {size} sites exceeds the cap of 1073741824\n"


@pytest.mark.parametrize("argv", [
    ["scales", "--lambda", "1e-310", "--pi", "2"],
    ["couple", "--lambda", "1e-310", "--pi", "5", "-A", "1", "-T", "1", "--runs", "1"],
    ["simulate-discrete", "--lambda", "1e-310", "--pi", "5", "-A", "1", "-T", "1"],
], ids=lambda argv: argv[0])
def test_a_lambda_whose_inverse_overflows_exits_2(argv, capsys):
    # a = log(1/lam) would be inf
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: lam=1e-310 is too small: 1/lam overflows a float\n"


def test_barrier_default_box_over_cap_exits_1_before_any_worker(monkeypatch, capsys):
    argv = ["barrier", "--lambda", "1e-300", "--pi", "5", "--t0", "2", "--t1", "2.5",
            "--runs", "4"]
    assert main([*argv, "--jobs", "1"]) == 1
    serial = capsys.readouterr()

    def no_runs(*args):
        raise AssertionError("runs mapped for a box over the cap")

    monkeypatch.setattr("fireline.harness._map_runs", no_runs)
    assert main([*argv, "--jobs", "2"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == serial
    assert err == "error: box of half-width inf sites exceeds the cap of 1073741824\n"


def test_barrier_safety_cap_exits_1(capsys):
    # at pi = 0.01 the cascade outlives the cap of log(n_sites) + 30 raw units
    rc = main(
        ["barrier", "--lambda", "0.01", "--pi", "0.01", "--t0", "0", "--t1", "0.5",
         "--runs", "3", "--seed", "0"]
    )
    assert rc == 1
    assert capsys.readouterr().err == "error: cascade still burning at the safety cap\n"


@pytest.mark.parametrize("exc, message", [
    (MemoryError("the limit engine could not allocate its event queue"),
     "the limit engine could not allocate its event queue"),
    (MemoryError(), "out of memory"),
], ids=["engine", "bare"])
def test_failed_allocation_exits_1(exc, message, monkeypatch, capsys):
    # no allocation is attempted: the simulator raises as a failed one would
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr("fireline.cli.simulate_alffp_p", fail)
    assert main(["simulate-limit", "--p", "1", "-A", "2", "-T", "1", "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("mode", [["--p", "1"], ["--z0", "0.5"]])
def test_simulate_limit_non_finite_box_exits_2(mode, capsys):
    rc = main(["simulate-limit", *mode, "-A", "inf", "-T", "1", "--seed", "1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: non-finite rectangle [-inf, inf] x [0.0, 1.0]\n"


@pytest.mark.parametrize(
    "A, T, area", [("1e6", "1e4", "2e+10"), ("1e300", "1e300", "inf")]
)
def test_simulate_limit_mark_count_over_cap_exits_1(A, T, area, capsys):
    # refused before any draw: the expected mark count is the area
    rc = main(["simulate-limit", "--p", "1", "-A", A, "-T", T, "--seed", "1"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: rectangle of area {area} expects more marks than the cap of 1073741824\n"
    )


_DISCRETE = ["simulate-discrete", "--lambda", "0.02", "--pi", "5"]


# (argv, run in a child process): at T = inf the match clocks would ring
# forever, so those cases run in a child with a timeout
_NON_FINITE = [
    ([*_DISCRETE, "-A", "2", "-T", "inf"], True),
    ([*_DISCRETE, "-A", "2", "-T", "inf", "--grid", "4"], True),
    (["cluster-dist", "--lambda", "0.02", "--pi", "5", "-A", "2", "-T", "inf",
      "--runs", "1"], True),
    ([*_DISCRETE, "-A", "2", "-T", "nan"], False),
    ([*_DISCRETE, "-A", "inf", "-T", "1"], False),
    (["simulate-discrete", "--lambda", "0.02", "--pi", "inf", "-A", "2", "-T", "1"], False),
    (["simulate-limit", "--p", "nan", "-A", "2", "-T", "2", "--seed", "1"], False),
    (["simulate-limit", "--p", "inf", "-A", "2", "-T", "2", "--seed", "1"], False),
    (["gamma-test", "--z0", "0.5", "-T", "inf", "--samples", "10"], False),
    (["propagation", "--pi", "9", "-T", "inf"], False),
    (["propagation", "--pi", "inf", "-T", "1"], False),
    (["fronts", "--pi", "9", "-T", "inf", "--runs", "1"], False),
]


@pytest.mark.parametrize(
    "argv, in_child", _NON_FINITE, ids=[" ".join(argv) for argv, _ in _NON_FINITE]
)
def test_non_finite_parameter_exits_2(argv, in_child, capsys):
    if in_child:
        proc = subprocess.run(
            [sys.executable, "-m", "fireline", *argv],
            capture_output=True, text=True, timeout=60, env=_CHILD_ENV,
        )
        rc, err = proc.returncode, proc.stderr
    else:
        rc, err = main(argv), capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("z0", ["-1", "1.5", "nan"])
def test_gamma_test_refuses_a_z0_outside_the_unit_interval(z0, capsys):
    # simulate-limit's refusal, also where t > 2*z0 holds
    for T in ("1", "4"):
        assert main(["gamma-test", "--z0", z0, "-T", T, "--samples", "10"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: z0 must lie in [0, 1]\n"
    assert main(["simulate-limit", "--z0", z0, "-A", "2", "-T", "4", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "error: z0 must lie in [0, 1]\n"


@pytest.mark.parametrize("z0", ["0", "1"])
def test_gamma_test_runs_at_the_ends_of_the_unit_interval(z0, capsys):
    assert main(["gamma-test", "--z0", z0, "-T", "4", "--samples", "10"]) == 0
    assert capsys.readouterr().out.startswith("samples=10 ks=")


@pytest.mark.parametrize("argv", [
    ["couple", "--lambda", "0.02", "--pi", "5", "-A", "1", "-T", "1", "--runs", "0"],
    ["fronts", "--pi", "9", "-T", "1", "--runs", "0"],
], ids=["couple", "fronts"])
def test_zero_runs_exits_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: need at least one run\n"


@pytest.mark.parametrize("argv", [
    ["couple", "--lambda", "0.02", "--pi", "5", "-A", "1", "-T", "1", "--runs", "1"],
    ["cluster-dist", "--lambda", "0.02", "--pi", "5", "-A", "1", "-T", "1", "--runs", "1"],
    ["barrier", "--lambda", "0.02", "--pi", "5", "--t0", "0", "--t1", "0.5", "--runs", "1"],
    ["fronts", "--pi", "5", "-T", "2", "--runs", "4"],
], ids=lambda argv: argv[0])
def test_batch_commands_refuse_a_stream(argv, capsys):
    # run k of a batch always uses stream k, so a --stream would be ignored
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--stream", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --stream 3" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(jobs, capsys):
    assert main(["fronts", "--pi", "5", "-T", "2", "--runs", "4", "--jobs", jobs]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --jobs must be at least 1, got {jobs}\n"


# `fireline fronts --json` results at small sizes of the criterion-1 and
# criterion-2 pins, as the two-pass implementation wrote them
_GOLDEN_FRONTS = {
    "criterion-1": (
        ["--pi", "50", "-T", "2", "--runs", "20", "--seed", "101"],
        {
            "expected": 100.0,
            "mean_plus": 101.25,
            "omega1": 0.9818858560794045,
            "var_plus": 123.77631578947368,
            "wilson": [0.9796623621757832, 0.9838702600023363],
            "windows": 4030,
        },
    ),
    "criterion-2": (
        ["--pi", "9", "-T", "30", "--runs", "1", "--seed", "7"],
        {
            "expected": 270.0,
            "mean_plus": 267.0,
            "omega1": 0.9171270718232044,
            "var_plus": 0.0,
            "wilson": [0.904515336012162, 0.9282052522231321],
            "windows": 543,
        },
    ),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("pin", sorted(_GOLDEN_FRONTS))
def test_fronts_json_golden_results(pin, jobs, tmp_path, capsys):
    argv, results = _GOLDEN_FRONTS[pin]
    path = tmp_path / "fronts.json"
    assert main(["fronts", *argv, "--jobs", jobs, "--json", str(path)]) == 0
    capsys.readouterr()
    assert json.loads(path.read_text())["results"] == results


def _never_called(*args, **kwargs):
    raise AssertionError("simulated despite a refused grid")


@pytest.mark.parametrize("argv, sim", [
    (["simulate-limit", "--p", "1", "-A", "2", "--seed", "1"], "cli.simulate_alffp_p"),
    ([*_DISCRETE, "-A", "2"], "cli.DiscreteFFP"),
    (["couple", "--lambda", "0.02", "--pi", "5", "-A", "1", "--runs", "2"],
     "harness.DiscreteFFP"),
], ids=["simulate-limit", "simulate-discrete", "couple"])
def test_grid_too_fine_for_T_exits_2_before_simulating(argv, sim, tmp_path, monkeypatch, capsys):
    # 64 (512 for couple) grid times cannot be distinct on [0, 5e-324]
    module, name = sim.split(".")
    monkeypatch.setattr(f"fireline.{module}.{name}", _never_called)
    path = tmp_path / "rows.csv"
    assert main([*argv, "-T", "5e-324", "--csv", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not path.exists()
    assert err.startswith("error: T=5e-324 is too small for ") and len(err.splitlines()) == 1


def test_simulate_discrete_artifacts(tmp_path, capsys):
    csv_path = tmp_path / "obs.csv"
    snap_path = tmp_path / "state.txt"
    rc = main(
        ["simulate-discrete", "--lambda", "0.02", "--pi", "5", "-A", "2",
         "-T", "1.0", "--seed", "3", "--grid", "8",
         "--csv", str(csv_path), "--snapshot", str(snap_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("t=1.000000 raw=")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,Z,K,W,size,D_lo,D_hi"
    assert len(lines) == 9  # header plus eight grid points
    snap = json.loads(snap_path.read_text())
    assert snap["schema"] == "ffp-snapshot/1"
    assert snap["seed"] == 3


def test_simulate_discrete_refuses_a_negative_grid(tmp_path, capsys):
    # a negative grid once wrote a CSV of its header only
    path = tmp_path / "rows.csv"
    argv = ["simulate-discrete", "--lambda", "0.01", "--pi", "50", "-A", "1", "-T", "1"]
    assert main([*argv, "--grid", "-5", "--csv", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not path.exists()
    assert err == "error: --grid must be nonnegative, got -5\n"


@pytest.mark.parametrize("grid", ["-5", "0", "1"])
@pytest.mark.parametrize("with_csv", [False, True], ids=["stdout", "csv"])
def test_simulate_limit_refuses_a_grid_below_2(grid, with_csv, tmp_path, monkeypatch, capsys):
    # without --csv the grid is never sampled, but it is refused all the same
    monkeypatch.setattr("fireline.cli.simulate_alffp_p", _never_called)
    path = tmp_path / "rows.csv"
    argv = ["simulate-limit", "--p", "1", "-A", "2", "-T", "2", "--grid", grid]
    assert main(argv + (["--csv", str(path)] if with_csv else [])) == 2
    out, err = capsys.readouterr()
    assert out == "" and not path.exists()
    assert err == f"error: --grid must be at least 2, got {grid}\n"


_HUGE_DISCRETE = ["--lambda", "1e-300", "--pi", "5", "-A", "1e12", "-T", "1"]


@pytest.mark.parametrize("argv, message", [
    (["propagation", "--pi", "1e308", "-T", "10"],
     "a front travels about pi * horizon = inf sites, past the box cap of 1073741824"),
    (["fronts", "--pi", "1e308", "-T", "10", "--runs", "1"],
     "a front travels about pi * horizon = inf sites, past the box cap of 1073741824"),
    (["simulate-discrete", *_HUGE_DISCRETE],
     "box of half-width inf sites exceeds the cap of 1073741824"),
    (["cluster-dist", *_HUGE_DISCRETE, "--runs", "1"],
     "box of half-width inf sites exceeds the cap of 1073741824"),
], ids=["propagation", "fronts", "simulate-discrete", "cluster-dist"])
def test_box_size_overflowing_a_float_exits_1(argv, message, capsys):
    # pi * T and A * n are infinite: refused before math.ceil or math.floor
    # would raise OverflowError
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_simulate_discrete_refuses_a_past_target_in_macroscopic_time(capsys):
    rc = main([*_DISCRETE, "-A", "1", "-T", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: cannot advance to t=-1.0: need now=0.0 <= t < inf\n"


def _csv_text(header, rows):
    out = io.StringIO(newline="")
    w = csv.writer(out)
    w.writerow(header)
    w.writerows(rows)
    return out.getvalue()


def test_simulate_discrete_csv_rows_equal_per_point_queries(tmp_path, capsys):
    path = tmp_path / "obs.csv"
    assert main([*_DISCRETE, "-A", "2", "-T", "1.5", "--seed", "3", "--grid", "17",
                 "--csv", str(path)]) == 0
    capsys.readouterr()
    sim = DiscreteFFP(0.02, 5.0, 2.0, 3)
    rows = []
    for t in uniform_grid(1.5, 17):
        sim.advance_to(float(t))
        o = sim.observables(0.0)
        d = ("", "") if o.D is None else o.D
        rows.append([float(t), o.Z, o.K, o.W, o.size, *d])
    assert any(o != "" for o in rows[-1][5:])
    header = ["t", "Z", "K", "W", "size", "D_lo", "D_hi"]
    assert path.read_bytes() == _csv_text(header, rows).encode()


@pytest.mark.parametrize("mode", ["--p", "--z0"])
def test_simulate_limit_csv_rows_equal_per_point_queries(mode, tmp_path, capsys):
    path = tmp_path / "limit.csv"
    assert main(["simulate-limit", mode, "0.5", "-A", "2", "-T", "2", "--seed", "4",
                 "--grid", "33", "--csv", str(path)]) == 0
    capsys.readouterr()
    rows = []
    if mode == "--p":
        state = simulate_alffp_p(0.5, 2.0, 2.0, seed=4)
        header = ["t", "Z", "D_lo", "D_hi"]
        for t in uniform_grid(2.0, 33):
            rows.append([float(t), state.Z(0.0, float(t)), *state.D(0.0, float(t))])
    else:
        state = simulate_lffp_inf(0.5, 2.0, 2.0, seed=4)
        header = ["t", "D_lo", "D_hi", "length"]
        for t in uniform_grid(2.0, 33):
            lo, hi = state.D(0.0, float(t))
            rows.append([float(t), lo, hi, hi - lo])
    assert len({tuple(r[-2:]) for r in rows}) > 2
    assert path.read_bytes() == _csv_text(header, rows).encode()


def test_simulate_limit_modes(tmp_path, capsys):
    rc = main(["simulate-limit", "--p", "0.5", "-A", "2", "-T", "2", "--seed", "4"])
    assert rc == 0
    assert "Z(0,T)=" in capsys.readouterr().out

    events = tmp_path / "events.csv"
    rc = main(
        ["simulate-limit", "--z0", "0.5", "-A", "2", "-T", "2", "--seed", "4",
         "--events", str(events)]
    )
    assert rc == 0
    assert "length=" in capsys.readouterr().out
    assert events.read_text().splitlines()[0] == "t,kind,x,cause"

    with pytest.raises(SystemExit) as exc:
        main(["simulate-limit", "--p", "0.5", "--z0", "0.5", "-A", "2", "-T", "2"])
    assert exc.value.code == 2


# sha256 of `fireline simulate-limit -A 6 -T 3 --seed 19` artifacts: the
# JSON, the event log and the 512-point trajectory CSV of each limit
_GOLDEN_SIMULATE_LIMIT = {
    "--p 1": ("bfc5f9caa7eafa2b7329b6efa5b057aef74679e0eaacd78cbcea7cf6987461ef",
              "957af79b303f5de54fc9913f47b1e38774db911a01c57a08dafc5f08e1079e6e",
              "77969f608774929bd5f4a6a22c6af40b28b4017dcf93b3beb6425c6273ebac97"),
    "--p 0": ("4e7ec7d45878b8d6f5655fef0486f742945dc1c423b3601a02b3afa9f2689bda",
              "72475aca42d10a6886cc1a7376d9a583569a6ee1d85be4036f32232a9640338a",
              "975d25cb269ec770df257f814b8e7babad5e8f3979cc955f31c81de01baa8619"),
    "--z0 0.5": ("6266a5353340c900caaf6280c1469fe9aa697df0dbdcfa86aca71095aa08c14e",
                 "2c1705bef0d1162dffa6351d46a19f95d35d6388c159c09a853d9852ce3eadb5",
                 "d4e394baca7c73ece095285951f8a1f45bc5933a8b0b330f5897e771a6645071"),
}


@pytest.mark.parametrize("limit", sorted(_GOLDEN_SIMULATE_LIMIT), ids=["0", "1", "z0=0.5"])
def test_simulate_limit_golden_artifacts(limit, tmp_path, capsys):
    doc, events, rows = tmp_path / "run.json", tmp_path / "events.csv", tmp_path / "rows.csv"
    assert main(["simulate-limit", *limit.split(), "-A", "6", "-T", "3", "--seed", "19",
                 "--json", str(doc), "--events", str(events),
                 "--csv", str(rows), "--grid", "512"]) == 0
    capsys.readouterr()
    got = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (doc, events, rows))
    assert got == _GOLDEN_SIMULATE_LIMIT[limit]


# sha256 of the `fireline gamma-test --z0 0.5 -T 2 --json` artifact, the same
# on either core
_GOLDEN_GAMMA_TEST = {
    ("10000", "7"): "97f70eec6d52efdf0ca1ddb87c7a3bef74a6de9fbaa9cf1dece2f4b44ecba2d3",
    ("100", "9"): "5e122ae1b5854c5ab77b78d61b0ba84ad9783e557a07e4688f10adc109596cf3",
}


@pytest.mark.parametrize("core", [
    pytest.param("c", marks=pytest.mark.skipif(rng._lib is None, reason=str(FALLBACK_REASON))),
    "python",
])
@pytest.mark.parametrize("samples, seed", sorted(_GOLDEN_GAMMA_TEST))
def test_gamma_test_golden_artifact(samples, seed, core, tmp_path, monkeypatch, capsys):
    if core == "python":
        monkeypatch.setattr(rng, "_lib", None)
    doc = tmp_path / "gamma.json"
    assert main(["gamma-test", "--z0", "0.5", "-T", "2", "--samples", samples,
                 "--seed", seed, "--json", str(doc)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(doc.read_bytes()).hexdigest() == _GOLDEN_GAMMA_TEST[samples, seed]


def test_output_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FIRELINE_OUTPUT_DIR", str(tmp_path))
    rc = main(
        ["gamma-test", "--z0", "0.5", "-T", "2", "--samples", "100",
         "--seed", "3", "--json", "gamma.json"]
    )
    assert rc == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "gamma.json").read_text())
    assert doc["artifact"] == "fireline"
    assert doc["command"] == "gamma-test"
    assert doc["params"]["seed"] == 3
    assert "ks" in doc["results"]


def test_byte_identical_reruns(tmp_path, capsys):
    args = ["couple", "--lambda", "0.018", "--pi", "3.4", "-A", "1", "-T", "1",
            "--runs", "2", "--seed", "5", "--grid", "16"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--csv", str(first)]) == 0
    assert main(args + ["--csv", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()

    j1 = tmp_path / "a.json"
    j2 = tmp_path / "b.json"
    gargs = ["gamma-test", "--z0", "0.5", "-T", "2", "--samples", "50", "--seed", "9"]
    assert main(gargs + ["--json", str(j1)]) == 0
    assert main(gargs + ["--json", str(j2)]) == 0
    capsys.readouterr()
    assert j1.read_bytes() == j2.read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "fireline 0.1.0" in out
    # the active core is named, and a fallback to Python says why
    assert re.search(r"core: (compiled|python \(C core unavailable: .+\))", out, re.S), out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fireline", "scales", "--lambda", "0.01"],
        capture_output=True, text=True, env=_CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "a=4.605170 n=21 m=4 eps=0.010239"
