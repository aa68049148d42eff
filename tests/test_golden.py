"""Golden digests of the engine's results and of the data files four CLI commands write.

The SHA-256 of every data file (``manifest.json`` is outside the determinism
contract and is skipped) pins the output bytes of a fixed (seed, config).
``ENGINE_DIGEST`` pins every array ``run_ensemble`` returns for a set of
feedback laws and a thermal preparation, chunked and run on one and two
workers.  A change that alters seeded output on purpose updates these
digests and says so; any other change must leave them alone.  The digests
were recorded with numpy 2.4 on x86-64 Linux; a different libm may round
differently.  The ``jarzynski`` and ``ENGINE_DIGEST`` digests, which cover
optimal feedback, also hold only at numpy's AVX-512 dispatch level:
``np.arctan2`` in ``feedback.optimal_drive`` differs by 1 ulp at the AVX2
level, and ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` makes
those two digests fail.
"""

import hashlib

import numpy as np
import pytest

import qtherm.ensemble
from qtherm.cli import main
from qtherm.config import FeedbackConfig, SimConfig
from qtherm.ensemble import run_ensemble
from qtherm.sme import SERIES

GOLDEN = {
    "trajectory": (
        ["trajectory", "--tau-us", "1"],
        {
            "trajectory.csv": "75115aca344ce4102e3b4a43ddebb946f5d104c3e1ae02f1f420765390c9beed",
            "trajectory_config.json": "419f5128389db8578ba5763a0ffc5c7906dca5dc4bbe0af6ab8294802a55f8bb",
        },
    ),
    "ensemble": (
        ["ensemble", "--n-traj", "64", "--tau-us", "1", "--feedback", "pll",
         "--delay-ns", "100"],
        {
            "summary.json": "86697724eade06fc2e68e46ffc664635a8776b2206b1e2e89cb065d994ce092e",
            "timeseries.csv": "5d3f391e4889820410b93f53355ef8eb69511a2f702807f5d531989b8fcda936",
            "trajectories.csv": "cd8eb6d374db7c882b4cb14a06b2b37102c7cdad6cae575d1269074ca590ca43",
        },
    ),
    # Recorded when a chunk held 2,048 trajectories and a pool task up to two
    # chunks: here two pool tasks, 4,096 + 404 trajectories, with pair
    # moments.  Its per-step sums split 2,048 + 2,048 + 404 then, as a
    # 4,096-lane sum splits; its pair moments happen to round the same.
    "ensemble_batched": (
        ["ensemble", "--n-traj", "4500", "--tau-us", "0.5", "--feedback", "pll",
         "--delay-ns", "100", "--workers", "2"],
        {
            "summary.json": "f721e613caf1c36a3c6184604e8fba913b65020365104efe798dfd7c18b2dce8",
            "timeseries.csv": "572aee26f4f9829b452c4c49d4bde2fe523dbcdffdd280313f8790def2b98965",
            "trajectories.csv": "70203cd7baf6f6bc8a2e2a8ab087c6abd1eef9d1dc43cad45b7ed787ec041f01",
        },
    ),
    # Re-recorded when the trajectory route began to read each preparation's
    # streamed p00 mean and standard error: its columns moved by <= 3.0e-15.
    "jarzynski": (
        ["jarzynski", "--feedback", "optimal", "--tau-us", "0.5", "--dt-ns", "5",
         "--n-traj", "64", "--eta-list", "0.35,0.6,1"],
        {
            "efficacy_eta0.35.csv": "26b44f71f6eabddcead240302ba0d9573d7b27c47360eb38b0a3581195c68020",
            "efficacy_eta0.6.csv": "0e16534b193c3c8b26c8cddd9c6980331f8a04da182598f1d73bca5b5e6f357f",
            "efficacy_eta1.csv": "1f4761ddb5e3975bc1344a3b425114ce99ab66e58f8975223ebdabf80956820c",
            "summary.json": "9bc11e0f3ca93f4026b542aa1e7544dd984dac26121d78012199fb56ee53a46b",
        },
    ),
    "sweep": (
        ["sweep", "--n-traj", "64", "--tau-us", "5", "--feedback", "pll",
         "--gain-grid", "20,35", "--offset-grid=-1,-0.5"],
        {
            "summary.json": "5ffe97f315e49b953006645d3e0dcec6ec275ff26902dab86a6bfc9f94a04f55",
            "sweep.csv": "e2f77b7cf1c4e33b9a724886e4a8a32aecd0803e5a1c904bca3a7119490a4031",
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


ENGINE_DIGEST = "dfcaa630eb2758aa689db90403a174b1d4d4b2005c05820c1357d6b388c29a85"

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


def test_engine_digest(monkeypatch):
    monkeypatch.setattr(qtherm.ensemble, "CHUNK_SIZE", 128)
    h = hashlib.sha256()
    for sim, fb in engine_cases():
        for workers in (1, 2):
            res = run_ensemble(sim, fb, 300, record=SERIES, workers=workers)
            for name in ENGINE_FIELDS:
                h.update(np.ascontiguousarray(getattr(res, name)).tobytes())
            for name in sorted(res.series):
                h.update(np.ascontiguousarray(res.series[name]).tobytes())
    assert h.hexdigest() == ENGINE_DIGEST
