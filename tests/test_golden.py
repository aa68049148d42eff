"""Golden digests of the engine's results and of the data files four CLI commands write.

The SHA-256 of every data file (``manifest.json`` is outside the determinism
contract and is skipped) pins the output bytes of a fixed (seed, config).
``ENGINE_DIGEST`` pins every array ``run_ensemble`` returns for a set of
feedback laws and a thermal preparation, chunked and run on one and two
workers.  A change that alters seeded output on purpose updates these
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
            "trajectory.csv": "864eb746bfe83f729413418133b35791b2b354d5221617799e54646ae23531d1",
            "trajectory_config.json": "419f5128389db8578ba5763a0ffc5c7906dca5dc4bbe0af6ab8294802a55f8bb",
        },
    ),
    "ensemble": (
        ["ensemble", "--n-traj", "64", "--tau-us", "1", "--feedback", "pll",
         "--delay-ns", "100"],
        {
            "summary.json": "99cf94bc74dbe1b4d7b7cce3c2a57c550ad2e3c5bada1cd10abdf9cc873c67ac",
            "timeseries.csv": "ca30fedbb6cd4d82c7cb1027766b4c4ecbcbaa8de01e2d6c94b9d8126064187c",
            "trajectories.csv": "ca7f63bb5f873545737b162429c37e04cc9a7d819e8b7f60d330fba749620a9d",
        },
    ),
    "jarzynski": (
        ["jarzynski", "--feedback", "optimal", "--tau-us", "0.5", "--dt-ns", "5",
         "--n-traj", "64", "--eta-list", "0.35,0.6,1"],
        {
            "efficacy_eta0.35.csv": "b67f8dfa15604ffcaad4572cef08030db3051256c481ec8fb3e18798e6e76966",
            "efficacy_eta0.6.csv": "c494a147e00037eede7f0101ba086a45a3a7672e88a9d9476bf98137dc57c978",
            "efficacy_eta1.csv": "5ac6e41365fafb9b4401e5078bc249418ceab8498f49b12b22a836882b0a05cc",
            "summary.json": "d59a5f693b944f75434c5a657dc7d695c1bed9f508bfeac7c49bf2dca6630b84",
        },
    ),
    "sweep": (
        ["sweep", "--n-traj", "64", "--tau-us", "5", "--feedback", "pll",
         "--gain-grid", "20,35", "--offset-grid=-1,-0.5"],
        {
            "summary.json": "680d0f6af42bb6b9a5691e8e120a46d5c388d5233fe9c930e321789db565f1b5",
            "sweep.csv": "319adb43b9df4abb52c137f25743b339755b07144903826efd877704d7ee4d41",
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


ENGINE_DIGEST = "e19bdd67c48fbdc12aa4b78e7877b439fec1e9e332a933355e0b421827b5eec8"

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
    for fb in feedback:
        yield SimConfig(tau=0.4, seed=3), fb
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
