#!/usr/bin/env python3
"""qtherm benchmark: the real CLI, run as a closed loop by one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The checkout is the directory above this one and must hold ``src/qtherm``;
the working directory does not matter.  Each command is ``python -m qtherm.cli ...`` with ``src`` on
``PYTHONPATH``; the next starts only when the previous has exited, so at most
one CLI process tree (its own pool included) runs at a time.  The workload
seed becomes the CLI's ``--seed``; nothing else varies with it.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones, from commands run under ``probe.py trace``
and alternated with untraced commands to measure the tracing overhead.  Every
command's outputs are checked (see ``check_outputs``).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Lines above it give every metric with its unit, the wall-time tail, the
failure fraction and the environment.  See README.md for why each workload
exists and which metrics it should move.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run must end well inside the 180 s a benchmark run is allowed.
RUN_LIMIT_S = 170.0
#: Fewest timed set-up probes per run (after one untimed warm-up).
SETUP_PROBES = 12
ETAS = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    traj_steps: int               # trajectories x steps integrated per command
    csv_rows: dict[str, int]      # data CSV -> expected data rows
    max_residual: float | None = None
    check_workers: bool = False   # compare data bytes at --workers 1


WORKLOADS = {
    "ensemble_pll": Workload(
        argv=("ensemble", "--n-traj", "40000", "--feedback", "pll",
              "--delay-ns", "100", "--workers", "2"),
        traj_steps=40_000 * 400,
        csv_rows={"timeseries.csv": 401, "trajectories.csv": 40_000},
        max_residual=1e-9,
        check_workers=True,
    ),
    "sweep_grid": Workload(
        argv=("sweep", "--feedback", "pll", "--delay-ns", "100", "--tau-us", "6",
              "--n-traj", "1500", "--workers", "1"),
        traj_steps=35 * 1500 * 300,
        csv_rows={"sweep.csv": 35},
    ),
    "efficacy_eta": Workload(
        argv=("jarzynski", "--feedback", "optimal", "--tau-us", "1", "--dt-ns", "5",
              "--n-traj", "500", "--eta-list", ",".join(f"{e:g}" for e in ETAS),
              "--workers", "1"),
        traj_steps=2 * len(ETAS) * 500 * 200,
        csv_rows={f"efficacy_eta{e:g}.csv": 201 for e in ETAS},
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s", "traj_steps_per_s": "1/s", "cpu_s": "s",
    "peak_rss_mb": "MiB", "setup_s": "s",
}
PER_LAYER_UNITS = {
    "sme.streams": "count", "sme.stream_setup_s": "s",
    "sme.stream_setup_us_per_traj": "us", "sme.batches": "count",
    "sme.lanes_per_batch": "count", "sme.traj_steps": "count",
    "sme.run_batch_s": "s", "sme.ns_per_traj_step": "ns",
    "feedback.drive_calls": "count", "feedback.drive_s": "s",
    "ensemble.calls": "count", "ensemble.chunks": "count", "ensemble.self_s": "s",
    "ensemble.pool_util": "frac", "ensemble.series_mb": "MiB",
    "experiments.ensembles": "count", "experiments.self_s": "s",
    "stats.bootstrap_s": "s", "stats.pearson_s": "s", "stats.contrast_s": "s",
    "io.csv_s": "s", "io.csv_rows": "count", "io.csv_mb": "MiB",
    "io.manifest_s": "s", "cli.self_s": "s", "trace.overhead_frac": "frac",
}


@dataclass
class Measured:
    """One finished child process, timed from spawn to exit."""

    rc: int
    wall_s: float
    cpu_s: float        # user + sys of the process and its reaped children
    peak_rss_mb: float  # largest resident set of any process in the tree
    log: Path


def check_outputs(out_dir: Path, wl: Workload) -> tuple[str, str | None]:
    """Digest of the data files, and the first problem found (or None).

    Passing means: the expected files and nothing else, the expected CSV row
    and column counts, every CSV field a finite number, a readable
    summary.json and, where the workload sets it, a first-law residual below
    its limit.  manifest.json must exist but is not part of the digest,
    since it carries wall time.
    """
    expected = sorted([*wl.csv_rows, "summary.json", "manifest.json"])
    found = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    if found != expected:
        return "", f"output files {found}, expected {expected}"
    try:
        return _check_data(out_dir, wl)
    except (ValueError, KeyError, TypeError) as exc:  # unparsable or missing value
        return "", f"unreadable output: {exc!r}"


def _check_data(out_dir: Path, wl: Workload) -> tuple[str, str | None]:
    digest = hashlib.sha256()
    for name in [*sorted(wl.csv_rows), "summary.json"]:
        data = (out_dir / name).read_bytes()
        digest.update(f"{name}:{len(data)}:".encode())
        digest.update(data)
        if name == "summary.json":
            summary = json.loads(data)
            continue
        header, *rows = csv.reader(io.StringIO(data.decode()))
        if len(rows) != wl.csv_rows[name]:
            return "", f"{name}: {len(rows)} rows, expected {wl.csv_rows[name]}"
        for row in rows:
            if len(row) != len(header):
                return "", f"{name}: row {row} does not match header {header}"
            for value in row:
                if not math.isfinite(float(value)):
                    return "", f"{name}: non-finite field in row {row}"
    if wl.max_residual is not None:
        residual = summary["max_first_law_residual"]
        if not residual < wl.max_residual:
            return "", f"max_first_law_residual {residual} >= {wl.max_residual}"
    return digest.hexdigest(), None


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Bench:
    """One invocation: launches, checks and records every child command."""

    def __init__(self, wl: Workload, seed: int, work: Path, deadline: float):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: str | None = None  # data digest of the first good run

    def cli_args(self, out_dir: Path, workers: str | None = None) -> list[str]:
        argv = [*self.wl.argv, "--seed", str(self.seed), "--out-dir", str(out_dir)]
        if workers is not None:
            argv[argv.index("--workers") + 1] = workers
        return argv

    def launch(self, argv: list[str]) -> Measured:
        """Run ``argv`` in its own session; rusage comes from wait4."""
        log = self.work / f"log{self.attempted}.txt"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run limit reached before all commands ran")
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            killer = threading.Timer(timeout, _kill_group, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Measured(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0, log)

    def fail(self, what: str, m: Measured | None, reason: str) -> None:
        tail = ""
        if m is not None and m.log.exists():
            tail = " | " + " / ".join(m.log.read_text(errors="replace").strip().splitlines()[-3:])
        self.failures.append(f"{what}: {reason}{tail}")

    def setup_probe(self) -> float | None:
        self.attempted += 1
        out = self.work / "setup"
        m = self.launch([sys.executable, str(HERE / "probe.py"), "setup",
                         *self.cli_args(out)])
        shutil.rmtree(out, ignore_errors=True)
        if m.rc != 0:
            self.fail("setup probe", m, f"exit code {m.rc}")
            return None
        return m.wall_s

    def command(self, kind: str, workers: str | None = None) -> tuple[Measured, str, dict | None] | None:
        """Run one CLI command and check it; None if it failed.

        ``kind`` is "timed" (plain ``python -m qtherm.cli``) or "traced"
        (under ``probe.py trace``).  Returns the measurement, the data
        digest and, for traced commands, the layer metrics.
        """
        self.attempted += 1
        out = self.work / f"out{self.attempted}"
        argv = self.cli_args(out, workers)
        layers_path = self.work / f"layers{self.attempted}.json"
        if kind == "traced":
            cmd = [sys.executable, str(HERE / "probe.py"), "trace", str(layers_path), *argv]
        else:
            cmd = [sys.executable, "-m", "qtherm.cli", *argv]
        m = self.launch(cmd)
        what = f"{kind} command {' '.join(argv)}"
        try:
            if m.rc != 0:
                self.fail(what, m, f"exit code {m.rc}")
                return None
            digest, problem = check_outputs(out, self.wl)
            if problem:
                self.fail(what, m, problem)
                return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        layers = None
        if kind == "traced":
            layers = json.loads(layers_path.read_text())
            if layers["trace.missing_traj"]:
                self.fail(what, m, "trace lost the spans of "
                          f"{layers['trace.missing_traj']} trajectories")
                return None
        if workers is None:
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                self.fail(what, m, "data bytes differ from the first run of this invocation")
                return None
        return m, digest, layers


def environment(seed: int, cli_seed: int, trace: bool) -> dict:
    def cpu_model() -> str | None:
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    def git_commit() -> str | None:
        """HEAD of the checkout, if the checkout itself is a git work tree."""
        try:
            out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                                 cwd=ROOT, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        lines = out.stdout.split()
        if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
            return None
        return lines[1]

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "workload_seed": seed,
        "cli_seed": cli_seed,
        "trace": trace,
        "not_used": "hardware performance counters; page-cache drops",
    }


def wall_tail(walls: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return f"tail: none (n={n}, a tail needs >= 11 samples)"
    return f"tail: p{100.0 * (n - 10) / n:.1f} = {sorted(walls)[n - 11]:.4f} s (n={n})"


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "qtherm" / "cli.py").is_file():
        print(f"perfbench: no qtherm sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[workload]
    cli_seed = seed % 2**32
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(wl, cli_seed, work, time.monotonic() + RUN_LIMIT_S)
    try:
        # The warm-up probe fills the file cache (and bytecode) that later
        # commands would otherwise pay for once.
        bench.setup_probe()
        w1_digest = None
        if wl.check_workers:
            done = bench.command("timed", workers="1")
            w1_digest = done[1] if done else None

        # Set-up probes are spread evenly over the loop, so that their median
        # sees the same machine load as the commands do.
        setups: list[float] = []
        timed: list[Measured] = []
        traced: list[tuple[Measured, dict]] = []
        start = time.perf_counter()
        # Go on past --seconds until there is a sample of each kind, unless
        # commands are failing: then no sample may ever come.
        while time.perf_counter() - start < seconds or (
                not bench.failures and not (timed and (traced or not trace))):
            kind = "traced" if trace and len(traced) < len(timed) else "timed"
            due = SETUP_PROBES * min(1.0, (time.perf_counter() - start) / seconds)
            while not trace and len(setups) < due + 1:
                setups.append(bench.setup_probe())
            done = bench.command(kind)
            if done is None:
                continue
            if kind == "traced":
                traced.append((done[0], done[2]))
            else:
                timed.append(done[0])
        while not trace and len(setups) < SETUP_PROBES:
            setups.append(bench.setup_probe())
        setups = [s for s in setups if s is not None]
        if w1_digest is not None and bench.reference is not None and w1_digest != bench.reference:
            bench.failures.append(
                "worker invariance: --workers 1 and --workers 2 wrote different data bytes")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if not timed or (trace and not traced) or not (trace or setups):
        print("perfbench: no successful command to measure", file=sys.stderr)
        for failure in bench.failures:
            print(f"  FAILED {failure}", file=sys.stderr)
        return 1
    walls = [m.wall_s for m in timed]
    if trace:
        traced_walls = [m.wall_s for m, _ in traced]
        metrics = {name: statistics.median(layers[name] for _, layers in traced)
                   for name in PER_LAYER_UNITS if name != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0)
        units = PER_LAYER_UNITS
        note = f"{len(traced)} traced and {len(timed)} untraced commands"
    else:
        wall = statistics.median(walls)
        metrics = {
            "wall_s": wall,
            "traj_steps_per_s": wl.traj_steps / wall,
            "cpu_s": statistics.median(m.cpu_s for m in timed),
            "peak_rss_mb": statistics.median(m.peak_rss_mb for m in timed),
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END_UNITS
        note = f"{len(timed)} timed commands, {len(setups)} set-up probes"

    failed = len(bench.failures)
    print(f"perfbench {workload} seed={seed} trace={int(trace)}: {note}")
    for name, value in metrics.items():
        extra = ""
        if name == "wall_s":
            extra = (f"   median of {len(walls)}; {wall_tail(walls)}; samples "
                     + " ".join(f"{w:.3f}" for w in walls))
        print(f"  {name:<30} {value:>16.6g} {units[name]}{extra}")
    print(f"  {'failed_frac':<30} {failed / bench.attempted:>16.6g} "
          f"({failed} of {bench.attempted} runs)")
    for failure in bench.failures:
        print(f"  FAILED {failure}")
    print("env: " + json.dumps(environment(seed, cli_seed, trace), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
