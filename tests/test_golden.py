"""Golden digests of the engine's results and of the data files four CLI commands write.

The SHA-256 of every data file (``manifest.json`` is outside the determinism
contract and is skipped) pins the output bytes of a fixed (seed, config).
``ENGINE_DIGEST`` pins every array ``run_ensemble`` returns for a set of
feedback laws and a thermal preparation, sampled outcome counts included,
chunked and run on one and two workers.  A change that alters seeded output
on purpose updates these digests and says so; any other change must leave
them alone.  The digests were recorded with numpy 2.4 on x86-64 Linux
(glibc); a different libm may round ``cos`` and ``sin`` differently.
``ENGINE_DIGEST``, which covers optimal feedback at a delay of two steps,
also holds only at numpy's X86_V4 dispatch level or above: ``np.arctan2`` in
``feedback.optimal_drive`` differs by 1 ulp at the X86_V3 (AVX2) level, and
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` makes that
digest fail.  ``jarzynski`` runs zero-delay optimal feedback, which undoes
each step's heat angle by a rescale without ``arctan2``, so its digests do
not depend on the dispatch level.  No digest depends on the BLAS: every
lane sum, the pair moments' included, is numpy's own pairwise ``sum``,
never OpenBLAS's ``ddot``, whose bytes change with its kernel
(``OPENBLAS_CORETYPE``) and, above about 10,000 elements, with its thread
count.  The pair-sum test below checks that in child processes under three
OpenBLAS kernels at each dispatch level this CPU offers;
``tests/platform_matrix.py`` runs this whole file so.
"""

import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import qtherm
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
    # Re-recorded when p00_sem began to come from centred sums of squares:
    # p00_sem moved by <= 1.9e-8 relative here, <= 8.3e-9 in
    # "ensemble_batched"; p00_mean and trajectories.csv held.  summary.json
    # re-recorded when the pair moments became numpy's pairwise sums: the
    # r_wf_q_lag* values moved by <= 1.3e-15 relative, the CSVs held.  All
    # three re-recorded when a shared rotation began to book its work as
    # half the drive, the feedback, the other half: the state held, the W
    # and WF columns, their means and r moved.  Recorded on an Intel Xeon
    # (AVX512_SPR dispatch level), numpy 2.4.6 with scipy-openblas 0.3.31,
    # glibc 2.36.
    "ensemble": (
        ["ensemble", "--n-traj", "64", "--tau-us", "1", "--feedback", "pll",
         "--delay-ns", "100"],
        {
            "summary.json": "e252d5b34d506b696fc42499565ac6bfa140e481d4e41889f6f38aefbb44a4d0",
            "timeseries.csv": "1779ae0fb1ea1e1430304b71977ec3df068cb604d61dd67121b0e9f721018d61",
            "trajectories.csv": "5c5e13d23a4f9eb448fc99f9103c75b1cfd04818c51a7f070209332969a012c8",
        },
    ),
    # Recorded when a chunk held 2,048 trajectories and a pool task up to two
    # chunks: here two pool tasks, 4,096 + 404 trajectories, with pair
    # moments.  Its per-step sums split 2,048 + 2,048 + 404 then, as a
    # 4,096-lane sum splits; its pair moments happen to round the same.
    # Re-recorded with "ensemble" (above), every time.
    "ensemble_batched": (
        ["ensemble", "--n-traj", "4500", "--tau-us", "0.5", "--feedback", "pll",
         "--delay-ns", "100", "--workers", "2"],
        {
            "summary.json": "d735d31eacc9298a86dd5495bf06df9b6bfa93b4db108b6f3b7d1cff7fb57610",
            "timeseries.csv": "63406e7c3fd5124825650384fb5340f4a81feab1483529ace0913574b0a762f3",
            "trajectories.csv": "e7997994ddc7cf92bf1b7d629d7c57425e1a3934b7aecdbfa33b6de589fb63f6",
        },
    ),
    # Re-recorded when the engine began to count the sampled outcomes from
    # each trajectory's own stream: gamma_wd and stderr_wd were resampled,
    # and the tanh form and the centred sums moved the trajectory route by
    # <= 3.0e-15.  Re-recorded when the excited preparation left the key of
    # seed + 1 for its own key family at the run's seed, which redraws its
    # noise and outcomes; recorded on an Intel Xeon (AVX512_SPR dispatch
    # level), numpy 2.4.6 with scipy-openblas 0.3.31, glibc 2.36.
    # Re-recorded when zero-delay optimal feedback began to undo each step's
    # heat angle within that step, on the same platform.
    "jarzynski": (
        ["jarzynski", "--feedback", "optimal", "--tau-us", "0.5", "--dt-ns", "5",
         "--n-traj", "64", "--eta-list", "0.35,0.6,1"],
        {
            "efficacy_eta0.35.csv": "410845882989d445ed198d3fe6b3dcfd98eff9577befa85896ac0ce063b474e0",
            "efficacy_eta0.6.csv": "9581fb28daaa510744f30ac25dc29c3a655abf285c8fe39f2f635f24e55cac10",
            "efficacy_eta1.csv": "e66256f5e0f8ca3e9bc3504ace7f5b748ce46a82a4c013d4e0570aa635641b8e",
            "summary.json": "fa372c08524c73219c077e1fb06e42828bc9d1741b07cd9eaefa6a9223d25015",
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


# Re-recorded when zero-delay optimal feedback began to undo each step's heat
# angle within that step: only that case's arrays moved.  Re-recorded when a
# shared rotation began to book its work as half the drive, the feedback, the
# other half, and the optimal law to return its angle without a division by
# dt: the delayed cases' W and WF moved, and the delay-2 optimal state at
# rounding level (<= 2.1e-13 over 400 steps).  Recorded on an Intel Xeon (AVX512_SPR dispatch level), numpy
# 2.4.6 with scipy-openblas 0.3.31, glibc 2.36.
ENGINE_DIGEST = "b9edf551513cd6b24af4776ef782c813019be562c8f3ffeda70477bfe59eaac0"

ENGINE_FIELDS = ("p00_mean", "p00_sem", "dw_mean", "dwf_mean", "dq_mean",
                 "initial_labels", "w", "wf", "q", "final_x", "final_z",
                 "residuals", "outcomes", "hits")


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
            res = run_ensemble(sim, fb, 300, record=SERIES, sample=True, workers=workers)
            for name in ENGINE_FIELDS:
                # final_x is hashed as the x series' last column: the same bytes.
                value = res.series["x"][..., -1] if name == "final_x" else getattr(res, name)
                h.update(np.ascontiguousarray(value).tobytes())
            for name in sorted(res.series):
                h.update(np.ascontiguousarray(res.series[name]).tobytes())
    assert h.hexdigest() == ENGINE_DIGEST


#: OpenBLAS kernels the byte path is checked under, by ``OPENBLAS_CORETYPE``.
CORETYPES = ("Haswell", "Sandybridge", "SkylakeX")

SRC = Path(qtherm.__file__).resolve().parents[1]


def dispatch_levels() -> dict[str, str]:
    """Each numpy dispatch level this CPU offers, the highest first, mapped to
    the ``NPY_DISABLE_CPU_FEATURES`` value that caps numpy at it."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    found = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    return {(["baseline"] + found[:k])[-1]: " ".join(found[k:])
            for k in range(len(found), -1, -1)}


def platform_env(coretype: str, disabled: str) -> dict[str, str]:
    """This process's environment with one OpenBLAS kernel and dispatch cap,
    and ``src`` and ``tests`` on the path."""
    return {**os.environ, "OPENBLAS_CORETYPE": coretype, "NPY_DISABLE_CPU_FEATURES": disabled,
            "PYTHONPATH": os.pathsep.join([str(SRC), str(Path(__file__).parent)])}


@cache
def pair_run_digests() -> dict[str, str]:
    """SHA-256 of the pair moments and per-step sums of a short run of the
    100 ns phase-locked loop over a (2, 1) gain column, with lags (0, 5)."""
    fb = FeedbackConfig(mode="phase_locked", delay_steps=5, gain=np.array([[20.0], [35.0]]))
    res = run_ensemble(SimConfig(tau=0.4, seed=3), fb, 300, lags=(0, 5))
    return {name: hashlib.sha256(getattr(res, name).tobytes()).hexdigest()
            for name in ("pair_moments", "p00_sum", "p00_m2", "dw_sum", "dwf_sum", "dq_sum")}


@pytest.mark.parametrize("coretype", CORETYPES)
def test_pair_sums_keep_their_bytes_under_every_blas_kernel(coretype):
    """In child processes under one OpenBLAS kernel, at each dispatch level:
    the pair moments and per-step sums have this process's bytes."""
    code = "import json, test_golden; print(json.dumps(test_golden.pair_run_digests()))"

    def child(disabled):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=platform_env(coretype, disabled), timeout=120)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout)

    levels = dispatch_levels()
    with ThreadPoolExecutor(2) as pool:
        got = dict(zip(levels, pool.map(child, levels.values())))
    want = pair_run_digests()
    moved = {level: [k for k in want if d[k] != want[k]] for level, d in got.items()}
    assert {level: names for level, names in moved.items() if names} == {}
