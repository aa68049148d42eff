"""CSV/JSON emission for runs: figure-ready data plus a manifest per run.

Data files (CSV, RFC 4180; JSON summaries) are bit-deterministic for a given
(seed, config) regardless of worker count.  The manifest carries provenance
(config snapshot, seed, version, numpy build, outputs, wall clock) and is the
one file allowed to differ between reruns.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .config import FeedbackConfig, SimConfig

MANIFEST_NAME = "manifest.json"


def version_string() -> str:
    """Package version, refined by `git describe` when the package sits in its
    own checkout (``<root>/src/qtherm`` with ``<root>/.git``).  An installed
    copy skips git, so a repository it happens to sit in is not taken for
    its own."""
    root = Path(__file__).resolve().parents[2]
    if not (root / ".git").exists():
        return __version__
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5.0,
            cwd=root,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"{__version__}+{out.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return __version__


def numpy_build() -> dict:
    """numpy's version, the float64 dispatch target of ``arctan2``, ``cos`` and
    ``sin``, its BLAS, the BLAS thread count and the C library here: seeded
    bytes depend on the level (``arctan2`` rounds by it) and on libm (``cos``
    and ``sin``); the BLAS is on their path only in the contrast's ``lstsq``."""
    info = np.lib.introspect.opt_func_info("^(arctan2|cos|sin)$", "float64")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libc, libc_version = platform.libc_ver()
    return {"version": np.__version__,
            "dispatch": {f: s["current"] for f, sigs in info.items() for s in sigs.values()},
            "blas": {"name": blas["name"], "version": blas["version"]},
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "libc": {"name": libc, "version": libc_version}}


def config_snapshot(sim: SimConfig, fb: FeedbackConfig) -> dict:
    return {
        "sim": {
            "gamma_per_us": sim.gamma,
            "omega_rad_per_us": sim.omega_r,
            "eta": sim.eta,
            "dt_us": sim.dt,
            "tau_us": sim.tau,
            "seed": sim.seed,
            "initial_state": sim.initial_state,
            "beta": sim.beta,
        },
        "feedback": {
            "mode": fb.mode,
            "gain": fb.gain,
            "offset": fb.offset,
            "delay_steps": fb.delay_steps,
        },
    }


@dataclass
class RunManifest:
    """Provenance record written next to every command's outputs."""

    command: str
    config: dict
    seed: int
    outputs: list[str] = field(default_factory=list)
    version: str = field(default_factory=version_string)
    numpy: dict = field(default_factory=numpy_build)
    n_steps: int = 0
    n_traj: int = 0
    wall_seconds: float = 0.0

    def write(self, out_dir: Path) -> Path:
        path = out_dir / MANIFEST_NAME
        write_json(path, {
            "command": self.command,
            "version": self.version,
            "numpy": self.numpy,
            "seed": self.seed,
            "n_steps": self.n_steps,
            "n_traj": self.n_traj,
            "wall_seconds": round(self.wall_seconds, 3),
            "outputs": self.outputs,
            "config": self.config,
        })
        return path


# Both writers create the output directory, so a command that rejects its
# input before writing leaves none behind.
def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """RFC 4180 CSV of numbers and plain names: each field as ``str`` writes
    it (for a float, its shortest round-trip repr), none quoted, lines ended
    by CRLF.  Rows are formatted one at a time as they are written, each by
    one ``%s`` template as wide as the header; a row of another width raises
    ``TypeError``."""
    line = ",".join(["%s"] * len(header)) + "\r\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.writelines(line % tuple(row) for row in chain([header], rows))


def write_json(path: Path, payload: dict) -> None:
    """Strict JSON: a NaN or infinite float, which has no JSON token, raises
    ``ValueError`` before anything is written."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
