"""The benchmark harness in perfbench/ still drives the CLI.

``perfbench/probe.py`` stubs the engine entry points ``qtherm.cli`` calls and
``perfbench/layer_trace.py`` patches module attributes by name, so renaming
one of those names, or a flag a workload passes, breaks the benchmark.  These
tests run the probe on each workload's exact command line and on the two
commands no workload runs, one traced command that uses the process pool, one
traced sweep and one traced jarzynski, so such a change fails here first.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qtherm.ensemble import CHUNK_SIZE
from qtherm.sme import GRID_LANES

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _workloads() -> dict:
    """``WORKLOADS`` of perfbench/run.py, imported by path without writing bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module.WORKLOADS


WORKLOADS = _workloads()


def probe(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, str(PERFBENCH / "probe.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_setup_probe_reaches_the_engine(name, tmp_path):
    done = probe("setup", *WORKLOADS[name].argv, "--seed", "1", "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv", [["trajectory", "--tau-us", "0.1"], ["verify"]],
                         ids=["trajectory", "verify"])
def test_setup_probe_reaches_the_engine_from_every_command(argv, tmp_path):
    # The two commands no workload runs reach the engine through the same
    # entry points, so the probe stops them before any integration.
    done = probe("setup", *argv, "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr


def test_traced_pool_run_accounts_for_every_trajectory(tmp_path):
    n_traj = CHUNK_SIZE + 52  # two chunks, so the pool runs
    layers = tmp_path / "layers.json"
    done = probe("trace", str(layers), "ensemble", "--n-traj", str(n_traj), "--tau-us", "0.1",
                 "--feedback", "pll", "--delay-ns", "40", "--workers", "2",
                 "--out-dir", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    metrics = json.loads(layers.read_text())
    assert metrics["trace.missing_traj"] == 0
    assert metrics["sme.streams"] == n_traj
    assert metrics["ensemble.series_mb"] == 0
    assert metrics["stats.pearson_s"] > 0


def test_traced_sweep_builds_each_noise_stream_once(tmp_path):
    """The 35-point grid needs more than one row block of ``GRID_LANES``
    lanes, yet the sweep is one ensemble that builds each stream once."""
    n_traj, points = 300, 7 * 5  # the default gain and offset grids
    assert points * min(n_traj, CHUNK_SIZE) > GRID_LANES
    layers = tmp_path / "layers.json"
    done = probe("trace", str(layers), "sweep", "--n-traj", str(n_traj), "--tau-us", "5",
                 "--feedback", "pll", "--delay-ns", "100", "--out-dir", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    metrics = json.loads(layers.read_text())
    assert metrics["trace.missing_traj"] == 0
    assert metrics["sme.streams"] == n_traj
    assert metrics["experiments.ensembles"] == 1


def test_traced_jarzynski_builds_each_noise_stream_once_per_preparation(tmp_path):
    n_traj, etas = 300, ("0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9")
    layers = tmp_path / "layers.json"
    done = probe("trace", str(layers), "jarzynski", "--n-traj", str(n_traj), "--tau-us", "0.2",
                 "--dt-ns", "5", "--feedback", "optimal", "--eta-list", ",".join(etas),
                 "--out-dir", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    metrics = json.loads(layers.read_text())
    assert metrics["trace.missing_traj"] == 0
    assert metrics["sme.streams"] == 2 * n_traj < 2 * len(etas) * n_traj
    assert metrics["experiments.ensembles"] == 2
