"""Golden digests of the engine's results and of the data files three CLI commands write.

The SHA-256 of every data file (``manifest.json`` is outside the determinism
contract and is skipped) pins the output bytes of a fixed (seed, config).
``ENGINE_DIGEST`` pins every array ``run_ensemble`` returns for a set of
feedback laws, both schemes and a thermal preparation, chunked and run on one
and two workers.  A change that alters seeded output on purpose updates these
digests and says so; any other change must leave them alone.  The digests
were recorded with numpy 2.4 on x86-64 Linux; a different libm may round
differently.
"""

import hashlib

import numpy as np
import pytest

from qtherm.cli import main
from qtherm.config import FeedbackConfig, SimConfig
from qtherm.ensemble import run_ensemble
from qtherm.sme import SERIES

GOLDEN = {
    "trajectory": (
        ["trajectory", "--tau-us", "1"],
        {
            "trajectory.csv": "1f2d0dd905f5b0174683be0b1fe04170efbeff1f996d5aa903cca14d89769c9b",
            "trajectory_config.json": "0f6e08f1fd546c5db8c2fdb0133b27faa0e6e05639b9fdc759ce1227b1731a48",
        },
    ),
    "ensemble": (
        ["ensemble", "--n-traj", "64", "--tau-us", "1", "--feedback", "pll",
         "--delay-ns", "100"],
        {
            "summary.json": "d7d23d3ccf16ecaef8290a42419e5ed2b20eb2634b18d14e1892f7989977491d",
            "timeseries.csv": "9aa81cf017159736c1e93a35fa05dac485b6c524600cc8bc43f2efdd12c03600",
            "trajectories.csv": "1222200cf2d00613cfef130c1e21e5db2901c3315872999a9f537eaf3bd6304d",
        },
    ),
    "sweep": (
        ["sweep", "--n-traj", "64", "--tau-us", "5", "--feedback", "pll",
         "--gain-grid", "20,35", "--offset-grid=-1,-0.5"],
        {
            "summary.json": "3b0c52df791b34896d4065f58868020b70d210bfd2198b6be9bc107930874b1a",
            "sweep.csv": "b0cb1462939b9e5dce855f1645222f76e83df4b0f28c230bb2c72821f420e09f",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_data_file_digests(name, tmp_path):
    argv, want = GOLDEN[name]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
        if p.name != "manifest.json"
    }
    assert got == want


ENGINE_DIGEST = "2c37546d5604ac3618e99dbaa849be4e21fffab3ef9bf60d07c4f90bad3e74f1"

ENGINE_FIELDS = ("p00_mean", "p00_sem", "dw_mean", "dwf_mean", "dq_mean",
                 "initial_labels", "w", "wf", "q", "final_x", "final_z",
                 "residuals", "outcomes")


def engine_cases():
    feedback = [
        FeedbackConfig(),
        FeedbackConfig(mode="phase_locked", delay_steps=0),
        FeedbackConfig(mode="phase_locked", delay_steps=5),
        FeedbackConfig(mode="optimal", delay_steps=0),
        FeedbackConfig(mode="optimal", delay_steps=2),
    ]
    for scheme in ("ito-euler", "kraus"):
        for fb in feedback:
            yield SimConfig(tau=0.4, seed=3, scheme=scheme), fb
    yield (
        SimConfig(tau=0.4, seed=4, initial_state="thermal", beta=1.0),
        FeedbackConfig(mode="phase_locked", delay_steps=5),
    )


def test_engine_digest():
    h = hashlib.sha256()
    for sim, fb in engine_cases():
        for workers in (1, 2):
            res = run_ensemble(sim, fb, 300, record=SERIES,
                               workers=workers, chunk_size=128)
            for name in ENGINE_FIELDS:
                h.update(np.ascontiguousarray(getattr(res, name)).tobytes())
            for name in sorted(res.series):
                h.update(np.ascontiguousarray(res.series[name]).tobytes())
    assert h.hexdigest() == ENGINE_DIGEST
