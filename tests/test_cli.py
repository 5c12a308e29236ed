"""CLI behavior: output format, artifacts, determinism, exit codes."""

import csv
import io
import json
import re
import subprocess
import sys

import pytest

from fireline.cli import build_parser, main
from fireline.discrete import DiscreteFFP
from fireline.limits import simulate_alffp_p, simulate_lffp_inf
from fireline.scales import uniform_grid


def test_scales_line(capsys):
    assert main(["scales", "--lambda", "0.01"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "a=4.605170 n=21 m=4 eps=0.010239"


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


def test_barrier_safety_cap_exits_1(capsys):
    # at pi = 0.01 the cascade outlives the cap of log(n_sites) + 30 raw units
    rc = main(
        ["barrier", "--lambda", "0.01", "--pi", "0.01", "--t0", "0", "--t1", "0.5",
         "--runs", "3", "--seed", "0"]
    )
    assert rc == 1
    assert capsys.readouterr().err == "error: cascade still burning at the safety cap\n"


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
            capture_output=True, text=True, timeout=60,
        )
        rc, err = proc.returncode, proc.stderr
    else:
        rc, err = main(argv), capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


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
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "a=4.605170 n=21 m=4 eps=0.010239"
