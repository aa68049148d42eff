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
    # r_wf_q_lag* values moved by <= 1.3e-15 relative, the CSVs held.
    "ensemble": (
        ["ensemble", "--n-traj", "64", "--tau-us", "1", "--feedback", "pll",
         "--delay-ns", "100"],
        {
            "summary.json": "0cf92f1a968cd830f300a4c02490357eba95bf98b12689c995c42e9b0a90fdf9",
            "timeseries.csv": "064f11cc81f561f0e5d71db3bd58953d9238fb86d3d15dbc94d4ca649cda18dc",
            "trajectories.csv": "cd8eb6d374db7c882b4cb14a06b2b37102c7cdad6cae575d1269074ca590ca43",
        },
    ),
    # Recorded when a chunk held 2,048 trajectories and a pool task up to two
    # chunks: here two pool tasks, 4,096 + 404 trajectories, with pair
    # moments.  Its per-step sums split 2,048 + 2,048 + 404 then, as a
    # 4,096-lane sum splits; its pair moments happen to round the same.
    # Re-recorded with "ensemble" (above), both times.
    "ensemble_batched": (
        ["ensemble", "--n-traj", "4500", "--tau-us", "0.5", "--feedback", "pll",
         "--delay-ns", "100", "--workers", "2"],
        {
            "summary.json": "47e6a96f461f9602b8f5a36feb94ba0eccbab4ecc149500b69dd4ce8b6bf7269",
            "timeseries.csv": "4e8616a6f562ce1da946632b221b057b7b57e214946b8dc062087618df0983e6",
            "trajectories.csv": "70203cd7baf6f6bc8a2e2a8ab087c6abd1eef9d1dc43cad45b7ed787ec041f01",
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
# angle within that step: only that case's arrays moved.  Recorded on an Intel
# Xeon (AVX512_SPR dispatch level), numpy 2.4.6 with scipy-openblas 0.3.31,
# glibc 2.36.
ENGINE_DIGEST = "cd6b88ad919f44bb79f016245e9708beea20ed335ec1b173c6fde40e770fe6d9"

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
