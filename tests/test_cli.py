import csv
import dataclasses
import functools
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qtherm
import qtherm.experiments
from qtherm import cli
from qtherm.cli import main
from qtherm.config import FeedbackConfig, SimConfig
from qtherm.io import version_string, write_csv, write_json


def read_csv(path: Path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, np.array(rows)


def test_csv_writer_matches_the_csv_module_and_writes_numpy_scalars_as_numbers(tmp_path):
    header = ("traj", "label", "value", "tiny", "big")
    rows = [(0, 1, 0.1, 5e-324, 1e16), (1, 0, -0.0, -2.5e-8, -1e16), (2**70, -3, 1.0, 0.0, 1e300)]
    write_csv(tmp_path / "py.csv", header, rows)
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    assert (tmp_path / "py.csv").read_bytes() == want.read_bytes()
    # numpy scalars are written as the plain numbers they hold, never as
    # their repr (``np.float64(0.1)`` under numpy 2).
    types = (np.int64, np.int8, np.float64, np.float64, np.float64)
    scalars = (tuple(t(v) for t, v in zip(types, row)) for row in rows[:2])
    write_csv(tmp_path / "np.csv", header, scalars)
    with open(want, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows[:2]])
    assert (tmp_path / "np.csv").read_bytes() == want.read_bytes()


def test_csv_writer_rejects_a_row_of_another_width_than_the_header(tmp_path):
    with pytest.raises(TypeError):
        write_csv(tmp_path / "ragged.csv", ("a", "b"), [(1, 2), (3,)])


def test_csv_columns_hold_no_column_as_a_whole_list(tmp_path):
    """``cli._columns`` feeds ``write_csv`` 40,000 rows of seven float
    columns with a traced peak under a third of the seven whole lists' size,
    and writes the bytes that whole lists give."""
    columns = np.random.default_rng(5).random((7, 40_000))
    header = [f"c{j}" for j in range(7)]
    tracemalloc.start()
    lists = [c.tolist() for c in columns]
    full = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    write_csv(tmp_path / "lists.csv", header, zip(*lists))
    del lists
    tracemalloc.start()
    write_csv(tmp_path / "blocks.csv", header, cli._columns(*columns))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < full / 3, (peak, full)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "lists.csv").read_bytes()


def test_trajectory_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    base = ["trajectory", "--seed", "1", "--tau-us", "1"]
    assert main(base + ["--out-dir", str(out1)]) == 0
    assert main(base + ["--out-dir", str(out2)]) == 0
    csv1 = (out1 / "trajectory.csv").read_bytes()
    csv2 = (out2 / "trajectory.csv").read_bytes()
    assert csv1 == csv2
    header, rows = read_csv(out1 / "trajectory.csv")
    assert header == ["t", "x", "z", "dV", "dW", "dWF", "dQ", "dU"]
    assert len(rows) == 50
    # first law row by row: dU = dW + dWF + dQ
    assert np.array_equal(rows[:, 7], rows[:, 4] + rows[:, 5] + rows[:, 6])
    sidecar = json.loads((out1 / "trajectory_config.json").read_text())
    assert sidecar["sim"]["seed"] == 1
    assert sidecar["final_outcome"] in (0, 1)
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["outputs"] == ["trajectory.csv", "trajectory_config.json"]
    # The numpy build the bytes came from: its version, the float64 dispatch
    # target of each ufunc on the byte path, its BLAS and the thread count
    # BLAS ran with, and the C library.
    info = np.lib.introspect.opt_func_info(signature="float64")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["numpy"] == {
        "version": np.__version__,
        "dispatch": {f: next(iter(info[f].values()))["current"] for f in ("arctan2", "cos", "sin")},
        "blas": {"name": blas["name"], "version": blas["version"]},
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "libc": dict(zip(("name", "version"), platform.libc_ver())),
    }


def test_trajectory_closed_drive_has_no_heat(tmp_path):
    out = tmp_path / "closed"
    assert main(
        ["trajectory", "--gamma-per-us", "0", "--tau-us", "2",
         "--out-dir", str(out)]
    ) == 0
    _, rows = read_csv(out / "trajectory.csv")
    assert np.abs(rows[:, 6]).max() < 1e-15  # dQ column
    assert np.abs(rows[:, 3]).max() == 0.0   # dV column


def test_ensemble_outputs(tmp_path):
    out = tmp_path / "ens"
    assert main(
        ["ensemble", "--n-traj", "400", "--tau-us", "2", "--seed", "5",
         "--out-dir", str(out)]
    ) == 0
    header, ts = read_csv(out / "timeseries.csv")
    assert header[:3] == ["t", "p00_mean", "p00_sem"]
    assert len(ts) == 101
    assert ts[0, 1] == 1.0
    header, tr = read_csv(out / "trajectories.csv")
    assert len(tr) == 400
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_first_law_residual"] < 1e-9
    lo, hi = summary["p_sum00_range"]
    assert -1.0 <= lo <= hi <= 0.0


def test_thermal_ensemble_summary_is_the_last_timeseries_row(tmp_path):
    # Seed 9 prepares one of the four trajectories excited: P00(tau) is
    # pooled over both preparations, not read off one of them.
    argv = ["ensemble", "--initial-state", "thermal", "--beta", "1", "--n-traj", "4",
            "--tau-us", "0.1", "--seed", "9", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    _, ts = read_csv(tmp_path / "timeseries.csv")
    assert [summary["p00_final"], summary["p00_final_sem"]] == ts[-1, 1:3].tolist()
    _, tr = read_csv(tmp_path / "trajectories.csv")
    assert 0 < tr[:, 1].sum() < 4  # both preparations present


def test_ensemble_worker_invariance(tmp_path):
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    base = ["ensemble", "--n-traj", "300", "--tau-us", "1", "--seed", "9"]
    assert main(base + ["--workers", "1", "--out-dir", str(out1)]) == 0
    assert main(base + ["--workers", "3", "--out-dir", str(out2)]) == 0
    for name in ("timeseries.csv", "trajectories.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_ensemble_with_feedback_reports_correlation(tmp_path):
    out = tmp_path / "fb"
    assert main(
        ["ensemble", "--n-traj", "150", "--tau-us", "2", "--feedback", "pll",
         "--delay-ns", "100", "--out-dir", str(out)]
    ) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["r_wf_q_lag0"] is not None
    assert "r_wf_q_lag5" in summary


def test_ensemble_streams_its_correlations_without_series(tmp_path, monkeypatch):
    calls = []
    ensemble = cli.run_ensemble

    def recording(*args, **kwargs):
        res = ensemble(*args, **kwargs)
        calls.append((kwargs, res))
        return res

    monkeypatch.setattr(cli, "run_ensemble", recording)
    assert main(["ensemble", "--n-traj", "40", "--tau-us", "1", "--feedback", "pll",
                 "--delay-ns", "100", "--out-dir", str(tmp_path)]) == 0
    [(kwargs, res)] = calls
    assert not kwargs.get("record") and res.series == {}
    assert res.lags == (0, 5)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert all(isinstance(summary[key], float) for key in ("r_wf_q_lag0", "r_wf_q_lag5"))


@pytest.mark.parametrize(
    "argv, keys",
    [
        # The loop does no work at zero gain: dWF has no variance.
        (["--gain", "0"], ("r_wf_q_lag0",)),
        # Five steps: no step has its delayed drive yet, and no pair spans the delay.
        (["--tau-us", "0.1", "--delay-ns", "200"], ("r_wf_q_lag0", "r_wf_q_lag10")),
    ],
    ids=["zero-gain", "delay-beyond-run"],
)
def test_an_undefined_correlation_is_written_as_null(argv, keys, tmp_path):
    assert main(["ensemble", "--n-traj", "20", "--feedback", "pll", *argv,
                 "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [key for key in summary if key.startswith("r_wf_q")] == list(keys)
    assert all(summary[key] is None for key in keys)
    assert (tmp_path / "manifest.json").is_file()


@pytest.mark.parametrize("argv", [["--tau-us", "3", "--omega-mhz", "0"],
                                  ["--tau-us", "2.5", "--omega-mhz=-1"]],
                         ids=["zero-rabi-rate", "negative-rabi-rate-short-window"])
def test_a_contrast_without_three_rabi_periods_is_written_as_null(argv, tmp_path):
    assert main(["ensemble", "--n-traj", "4", *argv, "--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "summary.json").read_text())["contrast"] is None
    assert (tmp_path / "manifest.json").is_file()


def test_jarzynski_outputs(tmp_path):
    out = tmp_path / "jar"
    assert main(
        ["jarzynski", "--n-traj", "60", "--tau-us", "0.5", "--dt-ns", "10",
         "--feedback", "optimal", "--eta-list", "0.5,1.0",
         "--out-dir", str(out)]
    ) == 0
    for eta in ("0.5", "1"):
        header, rows = read_csv(out / f"efficacy_eta{eta}.csv")
        assert header[0] == "t" and len(rows) == 51
        assert rows[0, 1] == 1.0  # gamma_q(0) = 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["per_eta"]["1"]["gamma0"] == 1.0


def json_floats(value) -> list[float]:
    """Every float in a parsed JSON document."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [f for v in value for f in json_floats(v)]
    return [value] if isinstance(value, float) else []


@pytest.mark.parametrize("beta", ["710", "1500", "1e300"])
def test_a_large_finite_beta_runs_to_finite_output(beta, tmp_path):
    # e^beta overflows a float from beta ~ 709.8; the estimates and the
    # Gibbs weights are written in tanh(beta/2) and e^-beta instead.
    for argv in (["jarzynski", "--feedback", "optimal", "--eta-list", "1"],
                 ["ensemble", "--initial-state", "thermal"]):
        out = tmp_path / argv[0]
        assert main(argv + ["--beta", beta, "--n-traj", "4", "--tau-us", "0.1",
                            "--out-dir", str(out)]) == 0
        for path in out.glob("*.csv"):
            assert np.isfinite(read_csv(path)[1]).all(), path.name
        floats = json_floats(json.loads((out / "summary.json").read_text()))
        assert floats and all(map(math.isfinite, floats)), argv[0]


def test_sweep_outputs(tmp_path):
    out = tmp_path / "sweep"
    assert main(
        ["sweep", "--n-traj", "100", "--tau-us", "6", "--feedback", "pll",
         "--gain-grid", "20,35", "--offset-grid=-1,-0.5",
         "--out-dir", str(out)]
    ) == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["gain", "offset", "contrast"]
    assert len(rows) == 4
    # Gain-major: the offsets vary fastest.
    assert rows[:, :2].tolist() == [[20.0, -1.0], [20.0, -0.5], [35.0, -1.0], [35.0, -0.5]]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["best_gain"] in (20.0, 35.0)


def test_sweep_names_the_first_maximum_in_row_major_order(tmp_path, monkeypatch):
    # Two equal maxima, at (20, -0.5) and (35, -1): the (20, -0.5) cell comes
    # first in gain-major (row-major) order, the (35, -1) cell in offset-major.
    grid = np.array([[0.1, 0.3], [0.3, 0.2]])
    monkeypatch.setattr(cli, "sweep_gain_offset", lambda *args, **kwargs: grid)
    argv = ["sweep", "--gain-grid", "20,35", "--offset-grid=-1,-0.5", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert (summary["best_gain"], summary["best_offset"], summary["best_contrast"]) == (
        20.0, -0.5, 0.3)


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[physics]\ngamma_per_us = 1.7\neta = 0.35\n"
        "[numerics]\ndt_ns = 20\ntau_us = 1.0\nseed = 3\n"
        "[run]\nn_traj = 50\nout_dir = ignored\n"
    )
    out = tmp_path / "cfg"
    assert main(
        ["ensemble", "--config", str(cfg), "--seed", "4", "--out-dir", str(out)]
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 4  # flag wins over file
    assert manifest["n_traj"] == 50


def test_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[physics]\ngamma_per_us = fast\n")
    assert main(["ensemble", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "gamma_per_us" in err
    bad.write_text("[physics]\nunknown_knob = 1\n")
    assert main(["ensemble", "--config", str(bad)]) == 2
    assert "unknown_knob" in capsys.readouterr().err
    assert main(["ensemble", "--config", str(tmp_path / "absent.ini")]) == 2
    capsys.readouterr()
    # tau/dt mismatch surfaces as a config error, not a traceback
    assert main(["ensemble", "--tau-us", "1.0", "--dt-ns", "30"]) == 2
    assert "integer step count" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "gamma_per_us = 1.7\n",
    "[physics]\neta = 0.5\neta = 0.6\n",
    "[physics]\neta = 0.5\n[physics]\nbeta = 2\n",
], ids=["no-section", "key-twice", "section-twice"])
def test_a_malformed_config_file_ends_in_one_error_line(text, tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    assert main(["ensemble", "--config", str(ini), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ini}: ") and err.count("\n") == 1


def test_a_percent_sign_in_a_config_value_is_taken_literally(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nout_dir = runs/o_%x\n")
    values = cli._parse_config_file(str(ini), cli.COMMANDS["ensemble"].params())
    assert values["out_dir"] == Path("runs/o_%x")


def test_the_manifest_version_names_the_package_checkout(tmp_path, monkeypatch):
    monkeypatch.chdir(Path(qtherm.__file__).resolve().parent)
    want = version_string()
    monkeypatch.chdir(tmp_path)
    assert version_string() == want


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_an_installed_copy_inside_another_repository_reports_the_bare_version(tmp_path):
    # A copy in a venv inside some other project's checkout: git there would
    # describe that project, not this package.
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(tmp_path)]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "other"], check=True)
    site = tmp_path / "venv" / "lib" / "site-packages"
    shutil.copytree(Path(qtherm.__file__).resolve().parent, site / "qtherm",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code = "from qtherm.io import version_string; print(version_string())"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(site)}, cwd=site, check=True)
    assert out.stdout.strip() == qtherm.__version__


@pytest.mark.parametrize("extra", [[], ["--gamma-per-us", "0"]], ids=["paper", "zero-decay"])
def test_verify_passes_quickly(tmp_path, extra):
    # Without decay, P11 ends two whole Rabi periods at a rounding error
    # from zero, on either side of it.
    assert main(["verify", *extra, "--out-dir", str(tmp_path)]) == 0
    # It reports each check's measured values and bounds next to a manifest.
    summary = json.loads((tmp_path / "summary.json").read_text())
    checks = summary["checks"]
    assert [c["name"] for c in checks] == [
        "first-law", "bounded-decomposition", "unitary-limit",
        "oracle-agreement", "purity-eta1", "determinism",
    ]
    assert (summary["passed"], summary["total"]) == (6, 6)
    for c in checks:
        assert c["passed"] is True
        assert c["measured"] and set(c["measured"]) == set(c["bound"])
        for key, value in c["measured"].items():
            lo, hi = c["bound"][key]
            assert math.isfinite(value) and lo <= value <= hi, (c["name"], key)
    assert checks[0]["measured"]["max_residual"] < 1e-9
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["outputs"] == ["summary.json"]
    assert manifest["config"]["sim"]["initial_state"] == 0


def test_a_check_outside_its_bound_fails_verify(tmp_path, capsys, monkeypatch):
    # An oracle with 80% of the true z amplitude misses every sampled mean.
    evolve = cli.lindblad_evolve

    def shrunk(*args, **kwargs):
        sol = evolve(*args, **kwargs)
        return dataclasses.replace(sol, z=0.8 * sol.z)

    monkeypatch.setattr(cli, "lindblad_evolve", shrunk)
    assert main(["verify", "--out-dir", str(tmp_path)]) == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert (summary["passed"], summary["total"]) == (5, 6)
    failed = [c for c in summary["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["oracle-agreement"]
    max_z, (lo, hi) = failed[0]["measured"]["max_z"], failed[0]["bound"]["max_z"]
    assert math.isfinite(max_z) and (lo, hi) == (0.0, 5.0) and max_z > hi
    out = capsys.readouterr().out
    assert f"[FAIL] oracle-agreement: max_z = {max_z:.3g} in [0, 5]" in out
    assert out.count("[PASS]") == 5 and "verify: 5/6 checks passed" in out
    assert json.loads((tmp_path / "manifest.json").read_text())["outputs"] == ["summary.json"]


def test_verify_always_starts_from_the_ground_state(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[numerics]\ninitial_state = 1\n")
    assert main(["verify", "--config", str(ini), "--out-dir", str(tmp_path / "v")]) == 0
    assert "verify: 6/6 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, want",
    [
        (["trajectory", "--tau-us", "0.2"], {"sim": {"tau_us": 0.2, "initial_state": 0}}),
        (["ensemble", "--n-traj", "8", "--tau-us", "0.2"], {"sim": {"tau_us": 0.2, "initial_state": 0}}),
        (
            ["jarzynski", "--n-traj", "8", "--tau-us", "0.2", "--eta-list", "0.5"],
            {"sim": {"eta": [0.5], "initial_state": [0, 1]}},
        ),
        (
            ["sweep", "--n-traj", "8", "--tau-us", "5", "--gain-grid", "20,35",
             "--offset-grid=-1"],
            {"feedback": {"mode": "phase_locked", "gain": [20.0, 35.0], "offset": [-1.0]}},
        ),
    ],
    ids=["trajectory", "ensemble", "jarzynski", "sweep"],
)
def test_manifest_records_integrated_config(argv, want, tmp_path):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    for block, fields in want.items():
        assert {key: config[block][key] for key in fields} == fields


@pytest.mark.parametrize(
    "argv",
    [
        ["ensemble", "--n-traj", "0"],           # no error bar below two
        ["sweep", "--tau-us", "1"],              # InsufficientSpanError
        ["ensemble", "--gamma-per-us", "500"],   # gamma*dt = 10 > MAX_GAMMA_DT
        ["ensemble", "--gamma-per-us", "nan"],   # non-finite config value
        ["ensemble", "--workers", "0"],
        ["ensemble", "--feedback", "pll", "--delay-ns", "inf"],
        ["ensemble", "--feedback", "pll", "--delay-ns", "nan"],
    ],
    ids=["n-traj-0", "short-window", "blowup", "nan-gamma", "workers-0", "inf-delay",
         "nan-delay"],
)
def test_runtime_errors_end_in_one_error_line(argv, tmp_path, capsys):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_negative_seed_is_rejected_by_name(tmp_path, capsys):
    argv = ["ensemble", "--seed", "-1", "--n-traj", "10", "--tau-us", "0.1"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("delay", ["inf", "nan"])
def test_a_non_finite_delay_is_rejected_by_name(delay, tmp_path, capsys):
    # With feedback off the delay is never used, but it is still checked.
    for mode in ("pll", "none"):
        out = tmp_path / mode
        argv = ["ensemble", "--feedback", mode, "--delay-ns", delay, "--out-dir", str(out)]
        assert main(argv) == 2, mode
        assert capsys.readouterr().err == f"error: delay_ns must be finite, got {float(delay)!r}\n"
        assert not out.exists(), mode


@pytest.mark.parametrize("delay", ["1e30", "2e13"])
def test_a_delay_far_beyond_the_run_writes_the_data_of_one_as_long_as_the_run(delay, tmp_path):
    # 1e30 ns is more steps than int64 holds, 2e13 ns is 10^12 steps; the
    # run is five steps (100 ns).
    argv = ["ensemble", "--n-traj", "20", "--tau-us", "0.1", "--feedback", "pll"]
    for ns, out in ((delay, tmp_path / "far"), ("100", tmp_path / "run")):
        assert main(argv + ["--delay-ns", ns, "--out-dir", str(out)]) == 0
    for name in ("timeseries.csv", "trajectories.csv"):
        assert (tmp_path / "far" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["sweep", "--tau-us", "5", "--gain-grid", "nan"],
    ["ensemble", "--n-traj", "1"],
    ["jarzynski", "--eta-list", ""],
    # A gain that overflows the feedback angle would fill the run with NaN.
    ["ensemble", "--n-traj", "4", "--tau-us", "1", "--feedback", "pll", "--gain", "1e308"],
    ["sweep", "--n-traj", "4", "--tau-us", "6", "--gain-grid", "1e308",
     "--offset-grid", "1e308"],
    # A zero Rabi rate has no period to fit; a negative one has the period of
    # its magnitude, three of which a 0.5 us window does not span.
    ["sweep", "--n-traj", "4", "--tau-us", "6", "--omega-mhz", "0", "--gain-grid", "30",
     "--offset-grid=-1"],
    ["sweep", "--n-traj", "4", "--tau-us", "2.5", "--omega-mhz=-1"],
], ids=["sweep-nan-grid", "ensemble-one-trajectory", "jarzynski-empty-eta-list",
        "ensemble-overflowing-gain", "sweep-overflowing-grid", "sweep-zero-rabi-rate",
        "sweep-negative-rabi-rate-short-window"])
def test_a_rejected_input_leaves_no_output_directory(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("sub", ["sub", ""], ids=["below-a-file", "a-file"])
def test_an_output_directory_that_cannot_be_made_ends_in_one_error_line(sub, tmp_path,
                                                                         capsys, monkeypatch):
    # Below a regular file or on it, the directory cannot be made; ``main``
    # finds that before the run integrates, so the engine is never called.
    def integrate(*args, **kwargs):
        raise AssertionError("the run integrated before its output directory was checked")

    monkeypatch.setattr(cli, "run_ensemble", integrate)
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    out = blocker / sub if sub else blocker
    assert main(["trajectory", "--tau-us", "0.1", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert blocker.read_text() == "kept"
    assert list(tmp_path.iterdir()) == [blocker]


def test_a_non_finite_json_value_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="JSON compliant"):
        write_json(tmp_path / "summary.json", {"p00_final": float("nan")})


@pytest.mark.parametrize("argv", [
    ["ensemble", "--n-traj", "2"],
    ["trajectory"],
    ["jarzynski", "--n-traj", "2", "--eta-list", "0.5"],
    ["trajectory", "--dt-ns", "1e-320"],
], ids=["ensemble", "trajectory", "jarzynski", "trajectory-infinite-step-count"])
def test_a_run_too_large_to_allocate_ends_in_one_error_line(argv, tmp_path, capsys):
    # 10^14 steps: the first per-step array needs over 700 TiB, more than any
    # address space, so the allocation fails at once on every host.  A later
    # --dt-ns of 1e-320 makes tau/dt infinite, a step count rejected by name.
    out = tmp_path / "out"
    flags = ["--tau-us", "0.1", "--dt-ns", "1e-12"]
    assert main(argv[:1] + flags + argv[1:] + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_assemble_defaults_come_from_the_dataclasses(monkeypatch):
    args = cli._build_parser().parse_args(["ensemble"])
    assert cli._assemble(args)[:2] == (SimConfig(), FeedbackConfig())
    # A changed dataclass default reaches the CLI without a second edit.
    monkeypatch.setattr(cli, "SimConfig", functools.partial(SimConfig, gamma=2.5, dt=0.01))
    monkeypatch.setattr(cli, "FeedbackConfig", functools.partial(FeedbackConfig, gain=20.0))
    sim, fb, _ = cli._assemble(args)
    assert (sim.gamma, sim.dt, fb.gain) == (2.5, 0.01, 20.0)


#: A non-default value of every user parameter: (flag, text as typed,
#: expected value of the field it targets).
PARAM_SAMPLES = {
    "gamma_per_us": ("--gamma-per-us", "2.5", 2.5),
    "omega_mhz": ("--omega-mhz", "2", 4.0 * math.pi),
    "eta": ("--eta", "0.5", 0.5),
    "beta": ("--beta", "2", 2.0),
    "dt_ns": ("--dt-ns", "10", 0.01),
    "tau_us": ("--tau-us", "2", 2.0),
    "seed": ("--seed", "7", 7),
    "initial_state": ("--initial-state", "1", 1),
    "mode": ("--feedback", "pll", "phase_locked"),
    "gain": ("--gain", "20", 20.0),
    "offset": ("--offset", "-0.5", -0.5),
    "delay_ns": ("--delay-ns", "100", 5),
    "n_traj": ("--n-traj", "50", 50),
    "workers": ("--workers", "2", 2),
    "out_dir": ("--out-dir", "elsewhere", Path("elsewhere")),
}


@pytest.mark.parametrize("key", sorted(cli.PARAMS))
def test_each_parameter_reaches_its_field(key, tmp_path):
    assert set(PARAM_SAMPLES) == set(cli.PARAMS)
    flag, text, want = PARAM_SAMPLES[key]
    param = cli.PARAMS[key]
    group, name = param.target.split(".")
    # The loop delay only counts with feedback on.
    extra = ["--feedback", "optimal"] if key == "delay_ns" else []
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{param.section}]\n{key} = {text}\n")
    for route in (["--config", str(ini)], [f"{flag}={text}"]):
        args = cli._build_parser().parse_args(["ensemble"] + extra + route)
        sim, fb, run = cli._assemble(args)
        assert getattr({"sim": sim, "fb": fb, "run": run}[group], name) == want


def test_readme_config_example_holds_exactly_the_parameters(tmp_path):
    # README says its INI example shows all the keys.  The example must also
    # be a file the CLI accepts.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    section, keys = None, {}
    for line in example.splitlines():
        if m := re.fullmatch(r"\[(\w+)\]", line):
            section = m.group(1)
        elif m := re.match(r"(\w+) = ", line):
            keys[m.group(1)] = section
    assert keys == {key: param.section for key, param in cli.PARAMS.items()}
    ini = tmp_path / "run.ini"
    ini.write_text(example)
    assert set(cli._parse_config_file(str(ini), cli.COMMANDS["ensemble"].params())) == set(
        cli.PARAMS)


def test_sample_final_is_not_a_parameter(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ensemble", "--sample-final"])
    assert exc.value.code == 2
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nsample_final = true\n")
    assert main(["ensemble", "--config", str(ini)]) == 2
    assert "sample_final" in capsys.readouterr().err


def test_config_file_values_are_checked_against_the_flag_choices(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[feedback]\nmode = pid\n")
    assert main(["ensemble", "--config", str(ini)]) == 2
    assert "mode = 'pid': must be one of none, optimal, phase_locked, pll" in capsys.readouterr().err


#: The parameters each command does not read; it offers the flag of every
#: other one.
UNREAD = {
    "trajectory": ("n_traj", "workers"),
    "ensemble": (),
    "jarzynski": ("eta", "initial_state"),
    "sweep": ("gain", "offset"),
    "verify": ("beta", "tau_us", "initial_state", "mode", "gain", "offset",
               "delay_ns", "n_traj", "workers"),
}


@pytest.mark.parametrize(
    "command, key",
    [(c, k) for c, keys in UNREAD.items() for k in keys],
)
def test_a_flag_the_command_does_not_read_ends_in_exit_2(command, key):
    flag, text, _ = PARAM_SAMPLES[key]
    with pytest.raises(SystemExit) as exc:
        main([command, f"{flag}={text}"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", sorted(UNREAD))
def test_each_command_offers_the_flags_it_reads(command):
    assert set(UNREAD) == set(cli.COMMANDS)
    parser = cli._build_parser()
    read = [key for key in PARAM_SAMPLES if key not in UNREAD[command]]
    for key in read:
        flag, text, _ = PARAM_SAMPLES[key]
        args = parser.parse_args([command, f"{flag}={text}"])
        assert getattr(args, key) is not None
    assert set(cli.COMMANDS[command].reads) == set(read)


def test_sweep_delay_needs_no_feedback_flag(tmp_path):
    base = ["sweep", "--n-traj", "32", "--tau-us", "5", "--gain-grid", "35",
            "--offset-grid=-1", "--delay-ns", "100"]
    assert main(base + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(base + ["--feedback", "pll", "--out-dir", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()
    config = json.loads((tmp_path / "a" / "manifest.json").read_text())["config"]
    assert (config["feedback"]["mode"], config["feedback"]["delay_steps"]) == ("phase_locked", 5)


def test_sweep_accepts_only_phase_locked_feedback(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--feedback", "optimal"])
    assert exc.value.code == 2
    capsys.readouterr()
    ini = tmp_path / "run.ini"
    ini.write_text("[feedback]\nmode = optimal\n")
    assert main(["sweep", "--config", str(ini), "--out-dir", str(tmp_path)]) == 2
    assert "mode = 'optimal': must be one of phase_locked, pll" in capsys.readouterr().err


def test_sweep_checks_its_window_before_integrating(tmp_path, capsys, monkeypatch):
    def no_ensembles(*_args, **_kwargs):
        pytest.fail("sweep integrated an ensemble for a window it cannot fit")

    monkeypatch.setattr("qtherm.experiments.run_ensemble", no_ensembles)
    assert main(["sweep", "--tau-us", "1", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("grid", [["--gain-grid", "20,nan"], ["--offset-grid=-1,inf"]],
                         ids=["nan-gain", "inf-offset"])
def test_sweep_rejects_a_non_finite_grid_before_integrating(grid, tmp_path, capsys,
                                                            monkeypatch):
    calls = []
    ensemble = qtherm.experiments.run_ensemble

    def counting(*args, **kwargs):
        calls.append(args)
        return ensemble(*args, **kwargs)

    monkeypatch.setattr(qtherm.experiments, "run_ensemble", counting)
    argv = ["sweep", "--tau-us", "5", "--n-traj", "8", *grid, "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert calls == []


def test_jarzynski_rejects_a_single_trajectory_before_integrating(tmp_path, capsys,
                                                                  monkeypatch):
    # One trajectory per preparation has no sample variance, so no error bar.
    def no_ensembles(*_args, **_kwargs):
        pytest.fail("jarzynski integrated an ensemble it cannot give an error bar")

    monkeypatch.setattr("qtherm.experiments.run_ensemble", no_ensembles)
    argv = ["jarzynski", "--n-traj", "1", "--tau-us", "0.1", "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "n_traj >= 2" in err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("eta_list, reason", [
    ("", "--eta-list is empty"),
    ("0.5,0.5", "names an output file twice"),
    ("0.3,nan", "eta must be finite"),
], ids=["empty", "same-file", "nan"])
def test_jarzynski_rejects_a_bad_eta_list_before_integrating(eta_list, reason, tmp_path, capsys,
                                                             monkeypatch):
    calls = []
    ensemble = qtherm.experiments.run_ensemble

    def counting(*args, **kwargs):
        calls.append(args)
        return ensemble(*args, **kwargs)

    monkeypatch.setattr(qtherm.experiments, "run_ensemble", counting)
    argv = ["jarzynski", "--tau-us", "0.1", "--n-traj", "4", "--eta-list", eta_list,
            "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err
    assert calls == []
    assert list(tmp_path.glob("*.csv")) == []


def test_ensemble_rejects_a_single_trajectory_before_integrating(tmp_path, capsys,
                                                                monkeypatch):
    # One trajectory has no sample variance, so P00(tau) and p00_mean have no
    # error bar.
    def no_ensembles(*_args, **_kwargs):
        pytest.fail("ensemble integrated a run it cannot give an error bar")

    monkeypatch.setattr("qtherm.cli.run_ensemble", no_ensembles)
    argv = ["ensemble", "--n-traj", "1", "--tau-us", "1", "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "n_traj >= 2" in err
    assert list(tmp_path.iterdir()) == []
