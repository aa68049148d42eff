"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every line.

Three checks (5-persistence, 6-contrast, 8) encode feedback-contrast
reference values that the simulated equations of motion do not reproduce;
they are asserted as stated and fail honestly.  The measured values, and the
evidence that the discrepancy is not a discretization or estimator artifact,
are in README.md ("Known deviations") — in short: every feedback-contrast
figure matches the references only if the measurement efficiency is doubled
(0.70 contrast appears at eta = 0.70, not at the specified eta = 0.35).
Whether the references or the efficiency convention is at fault needs the
paper's Methods.  The damping check (5) is judged against the model's exact
steady state, which its Lindblad oracle confirms.
"""

import math
import time

import numpy as np
import pytest

from qtherm.bloch import GROUND, closed_rabi_probabilities
from qtherm.cli import main
from qtherm.config import FeedbackConfig, SimConfig
from qtherm.ensemble import run_ensemble
from qtherm.experiments import run_efficacy_protocol, sweep_gain_offset
from qtherm.oracle import ensemble_vs_oracle, lindblad_evolve
from qtherm.stats import pooled_pearson_r, rabi_contrast
from reference import binned_first_law_check, closed_two_point_sample, side_stream

PAPER_SEED = 101

#: One record per ``report`` call, in ``verify``'s check shape; the session
#: fixture in conftest.py writes them to ``acceptance.json``.
RECORDS: list[dict] = []


def report(criterion: str, ok: bool, detail: str, **measured) -> bool:
    """Print the criterion's line and record its measured values: each a
    ``(value, lo, hi)`` as in ``verify``, None for an open end, or a bare
    value that has no bound."""
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    values = {key: v if isinstance(v, tuple) else (v, None, None) for key, v in measured.items()}
    RECORDS.append({
        "name": criterion,
        "passed": bool(ok),
        "measured": {key: bool(v) if isinstance(v, (bool, np.bool_)) else float(v)
                     for key, (v, _, _) in values.items()},
        "bound": {key: [lo, hi] for key, (_, lo, hi) in values.items()
                  if (lo, hi) != (None, None)},
    })
    return ok


@pytest.fixture(scope="session")
def paper_run():
    """10^4 trajectories at experiment defaults, with per-step series."""
    cfg = SimConfig(seed=PAPER_SEED, tau=8.0, dt=0.02)
    t0 = time.perf_counter()
    res = run_ensemble(cfg, n_traj=10_000, record=("p00", "dw", "dwf", "dq"))
    wall = time.perf_counter() - t0
    return cfg, res, wall


def test_criterion_01_first_law(paper_run):
    """Per-trajectory energy balance and the binned identity-line check."""
    cfg, res, wall = paper_run
    max_resid = float(res.residuals.max())

    # Variable-duration protocol: one random duration per trajectory, an
    # independent projective outcome at that duration, binned against the
    # path-dependent delta_00 + P~W + P~Q.
    rng = side_stream(cfg.seed, 0xC1)
    n = res.n_traj
    tau_idx = rng.integers(1, cfg.n_steps + 1, n)
    rows = np.arange(n)
    du = res.series["dw"] + res.series["dwf"] + res.series["dq"]
    path_sum = 1.0 - np.cumsum(du, axis=1)[rows, tau_idx - 1]
    outcomes = (rng.random(n) < res.series["p00"][rows, tau_idx]).astype(float)
    _, _, _, chi2 = binned_first_law_check(path_sum, outcomes)

    ok = max_resid < 1e-8 and chi2 < 2.0 and wall < 60.0
    assert report(
        "1 (first law)",
        ok,
        f"max residual {max_resid:.2e} (<1e-8), identity-line chi2_red "
        f"{chi2:.2f} (<2), runtime {wall:.1f}s (<60)",
        max_residual=(max_resid, None, 1e-8),
        chi2_red=(chi2, None, 2.0),
        runtime_s=(wall, None, 60.0),
    )


def test_criterion_02_bounded_decomposition(paper_run):
    """At tau = 2 us the m=0 work+heat sum lies in [-1, 0], no tolerance."""
    cfg, res, _ = paper_run
    # The 2 us protocol is the 100-step prefix of the same trajectories.
    steps_2us = int(round(2.0 / cfg.dt))
    du = res.series["dw"] + res.series["dwf"] + res.series["dq"]
    sums = -np.cumsum(du, axis=1)[:, steps_2us - 1]
    lo, hi = float(sums.min()), float(sums.max())
    ok = (sums >= -1.0).all() and (sums <= 0.0).all()
    assert report(
        "2 (bounded decomposition)",
        bool(ok),
        f"P~W00+P~Q00 in [{lo:.4f}, {hi:.4f}] for all 10^4 trajectories",
        min_sum=(lo, -1.0, 0.0),
        max_sum=(hi, -1.0, 0.0),
    )


def test_criterion_03_oracle_equivalence():
    """Conditional means reproduce the unconditional master equation."""
    cfg = SimConfig(seed=42, tau=8.0, dt=0.005)
    res = run_ensemble(cfg, n_traj=10_000, record=("p00",))
    comb = np.arange(0, cfg.n_steps + 1, int(round(0.1 / cfg.dt)))
    times = res.times[comb]
    sol = lindblad_evolve(GROUND, cfg, t_grid=times)

    # Projective transition probabilities with binomial errors under the
    # oracle null (the state-derived spread vanishes as t -> 0, which would
    # make a z-score there measure discretization instead of physics).
    rng = side_stream(cfg.seed, 0xBEEF)
    p00 = res.series["p00"][:, comb]
    hits = (rng.random(p00.shape) < p00).mean(axis=0)
    sem = np.sqrt(sol.p00 * (1.0 - sol.p00) / res.n_traj)
    z_oracle = ensemble_vs_oracle(times, hits, sem, sol)

    # eta-independence of the unconditional mean: at eta = 0 every
    # trajectory is the same deterministic curve.
    res0 = run_ensemble(cfg.with_(eta=0.0), n_traj=1)
    diff = np.abs(res.p00_mean[comb] - res0.p00_mean[comb])[1:]
    z_eta = float((diff / res.p00_sem[comb][1:]).max())

    ok = z_oracle < 4.0 and z_eta < 3.0
    assert report(
        "3 (oracle equivalence)",
        ok,
        f"max z vs oracle {z_oracle:.2f} (<4, dt=5ns), "
        f"eta=0 vs eta=0.35 max z {z_eta:.2f} (<3)",
        max_z_oracle=(z_oracle, None, 4.0),
        max_z_eta=(z_eta, None, 3.0),
    )


def test_criterion_04_unitary_limit():
    """gamma = 0 reproduces the closed cos^2/sin^2 probabilities exactly."""
    cfg = SimConfig(
        seed=1, gamma=0.0, eta=0.0, omega_r=2.0 * math.pi * 1.1, tau=8.0, dt=0.02
    )
    # Two trajectories on different noise paths: at gamma = eta = 0 the
    # noise cannot act, so their z series must be bitwise equal.
    res = run_ensemble(cfg, n_traj=2, record=("z",))
    want = closed_rabi_probabilities(cfg.omega_r / 2.0, cfg.tau)
    got00 = float(res.p00_mean[-1])
    err = abs(got00 - want.p00)
    q_total = abs(float(res.q[0]))
    deterministic = np.array_equal(res.series["z"][0], res.series["z"][1])
    ok = err < 1e-6 and q_total < 1e-12 and deterministic
    assert report(
        "4 (unitary limit)",
        ok,
        f"|P00 - cos^2| = {err:.2e} (<1e-6 after 400 steps), "
        f"|Q| = {q_total:.1e} (<1e-12), deterministic: {deterministic}",
        p00_error=(err, None, 1e-6),
        heat=(q_total, None, 1e-12),
        deterministic=deterministic,
    )


def test_criterion_05_damping(paper_run):
    """No feedback: P00 within 0.02 of the model's steady state for t > 4 us.

    The reference is the exact steady state of the stated master equation,
    P00_ss = 1/2 + gamma^2 / (2 (gamma^2 + 2 Omega_R^2)) = 0.51765 at the
    defaults, checked here against the Lindblad oracle at 40 us.  The value
    1/2 is only its strong-drive limit (Omega_R >> gamma): even the exact
    Lindblad curve comes 0.0206 from it after 4 us, so no integrator could
    meet a band around 1/2.  The report line also prints the deviation from
    1/2 and the plateau mean, whose distance from P00_ss is the first-order
    bias of the 20 ns split step (see README, Known deviations).
    """
    cfg, res, _ = paper_run
    g2, w2 = cfg.gamma**2, cfg.omega_r**2
    p00_ss = 0.5 + g2 / (2.0 * (g2 + 2.0 * w2))
    late = lindblad_evolve(GROUND, cfg, t_grid=np.array([0.0, 40.0])).p00[-1]
    assert abs(late - p00_ss) < 1e-9

    p00 = res.p00_mean[res.times > 4.0]
    dev = float(np.abs(p00 - p00_ss).max())
    dev_half = float(np.abs(p00 - 0.5).max())
    ok = dev < 0.02
    assert report(
        "5 (damping)",
        ok,
        f"max |P00 - P00_ss| for t>4us = {dev:.4f} (<0.02, P00_ss = "
        f"{p00_ss:.5f}); max |P00 - 1/2| = {dev_half:.4f}; plateau mean "
        f"{p00.mean():.4f}",
        max_dev=(dev, None, 0.02),
        max_dev_half=dev_half,
        plateau_mean=p00.mean(),
    )


def test_criterion_05_persistence():
    """Phase-locked feedback at (A=34, B=-1): contrast in [0.4, 0.85].

    Fails: the simulated equations give 0.30 at zero delay (the feedback
    rotation acts after the back-action of the increment it multiplies) and
    0.27 at 100 ns delay.  The band is reached at doubled efficiency (see
    README, Known deviations).
    """
    cfg = SimConfig(seed=21, tau=8.0, dt=0.02)
    contrasts = {}
    for delay in (0, 5):
        fb = FeedbackConfig(
            mode="phase_locked", gain=34.0, offset=-1.0, delay_steps=delay
        )
        res = run_ensemble(cfg, fb, 3000)
        contrasts[delay] = rabi_contrast(res.times, res.p00_mean, cfg.omega_r)
    ok = all(0.4 <= c <= 0.85 for c in contrasts.values())
    assert report(
        "5 (persistence)",
        ok,
        f"contrast zero delay = {contrasts[0]:.3f}, 100 ns delay = "
        f"{contrasts[5]:.3f} (band [0.4, 0.85])",
        contrast_delay0=(contrasts[0], 0.4, 0.85),
        contrast_delay5=(contrasts[5], 0.4, 0.85),
    )


@pytest.fixture(scope="session")
def optimal_contrasts():
    cfg = SimConfig(seed=21, tau=8.0, dt=0.02)
    out = {}
    for delay in (0, 25):
        fb = FeedbackConfig(mode="optimal", delay_steps=delay)
        res = run_ensemble(cfg, fb, 2000)
        out[delay] = rabi_contrast(res.times, res.p00_mean, cfg.omega_r)
    return out


def test_criterion_06_optimal_contrast(optimal_contrasts):
    """Optimal feedback, zero delay, eta = 0.35: contrast 0.70 +- 0.10.

    Fails: the simulated equations give 0.47-0.48, robust to the
    dissipative sub-step, step size and drive rate; 0.70 appears at
    eta = 0.70 (see README).
    """
    c0 = optimal_contrasts[0]
    ok = abs(c0 - 0.70) <= 0.10
    assert report(
        "6 (optimal contrast)",
        ok,
        f"zero-delay contrast = {c0:.3f} (reference 0.70 +- 0.10)",
        contrast=(c0, 0.6, 0.8),
    )


def test_criterion_06_delay_degrades(optimal_contrasts):
    """500 ns loop delay strictly degrades the optimal-feedback contrast."""
    c0, c25 = optimal_contrasts[0], optimal_contrasts[25]
    ok = c25 < c0
    assert report(
        "6 (delay degrades)",
        ok,
        f"contrast 500 ns delay = {c25:.3f} < zero delay = {c0:.3f}",
        contrast_delay25=(c25, None, c0),
    )


def test_criterion_07_anticorrelations():
    """Pooled per-step Pearson r(dWF, dQ) under the three feedback settings.

    Correlations are evaluated at the loop's alignment lag: the optimal
    controller has one step of inherent latency, the delayed phase-locked
    loop is aligned at its 5-step delay (the literal 1-step value is printed
    for reference; it pairs the drive with noise four steps away).
    """
    cfg = SimConfig(seed=23, tau=8.0, dt=0.02)
    n = 400

    res = run_ensemble(cfg, FeedbackConfig(mode="optimal"), n, lags=(1,))
    r_opt = pooled_pearson_r(res, lag=1)

    fb0 = FeedbackConfig(mode="phase_locked", gain=34.0, offset=-1.0, delay_steps=0)
    res = run_ensemble(cfg, fb0, n, lags=(0,))
    r_pll0 = pooled_pearson_r(res, lag=0)

    fb5 = fb0.with_(delay_steps=5)
    res = run_ensemble(cfg, fb5, n, lags=(1, 5))
    r_pll5 = pooled_pearson_r(res, lag=5)
    r_pll5_lag1 = pooled_pearson_r(res, lag=1)

    ok = (
        abs(r_opt - (-0.9)) <= 0.1
        and abs(r_pll0 - (-0.81)) <= 0.15
        and abs(r_pll5 - (-0.68)) <= 0.15
    )
    assert report(
        "7 (anti-correlations)",
        ok,
        f"optimal r = {r_opt:.3f} (-0.9 +- 0.1), phase-locked zero-delay r = "
        f"{r_pll0:.3f} (-0.81 +- 0.15), 100 ns delay loop-aligned r = "
        f"{r_pll5:.3f} (-0.68 +- 0.15; literal 1-step lag gives "
        f"{r_pll5_lag1:.3f})",
        r_optimal=(r_opt, -1.0, -0.8),
        r_pll_delay0=(r_pll0, -0.96, -0.66),
        r_pll_delay5=(r_pll5, -0.83, -0.53),
        r_pll_delay5_lag1=r_pll5_lag1,
    )


def test_criterion_08_gain_sweep():
    """Contrast argmax near the predicted gain scale (~30) and offset -1.

    Fails: the surface at the stated efficiency peaks at (45, -0.75); at
    doubled efficiency (35, -1) is within 7% of the maximum
    (see README, Known deviations).
    """
    gains = [15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0]
    offsets = [-1.5, -1.25, -1.0, -0.75, -0.5]
    cfg = SimConfig(seed=33, tau=6.0, dt=0.02)
    fb = FeedbackConfig(mode="phase_locked", delay_steps=5)
    contrast = sweep_gain_offset(gains, offsets, cfg, fb, n_traj=1200)
    i, j = np.unravel_index(np.argmax(contrast), contrast.shape)
    best_gain, best_offset = gains[i], offsets[j]
    ok = best_gain in (25.0, 30.0, 35.0, 40.0) and best_offset in (
        -1.25,
        -1.0,
        -0.75,
    )
    assert report(
        "8 (gain sweep)",
        ok,
        f"argmax (A={best_gain:g}, B={best_offset:g}), "
        f"target within one cell of (30-35, -1); "
        f"peak contrast {contrast.max():.3f}",
        best_gain=(best_gain, 25.0, 40.0),
        best_offset=(best_offset, -1.25, -0.75),
        peak_contrast=contrast.max(),
    )


def test_criterion_09_generalized_jarzynski():
    """Efficacy: gamma_q(0) = 1 exactly, deviation shrinks with eta, and at
    eta = 1 the measured-transition estimate is consistent with 1.

    Runs use dt = 5 ns with N = 500 per preparation.
    The unit-efficiency band is asserted on the sampled-transition estimator
    at 0.1 us checkpoints; the state-derived estimator is printed for
    reference (at the Rabi poles its error bar collapses faster than its
    O(gamma*dt) discretization bias for any step size).
    """
    fb = FeedbackConfig(mode="optimal", delay_steps=0)
    msd = {}
    gamma0_exact = True
    eta_list = (0.35, 0.6, 0.8, 1.0)
    z_eta1 = z_eta1_traj = float("nan")
    for eta in eta_list:
        cfg = SimConfig(seed=77, tau=1.0, dt=0.005, eta=eta, beta=3.5)
        prot = run_efficacy_protocol(cfg, fb, n_traj=500)
        tr = prot.trajectory_route
        gamma0_exact &= tr.gamma_q[0] == 1.0 and prot.wd_route_gamma[0] == 1.0
        msd[eta] = tr.mean_sq_deviation(1.0)
        if eta == 1.0:
            comb = np.arange(0, cfg.n_steps + 1, int(round(0.1 / cfg.dt)))[1:]
            z_eta1 = float(
                (
                    np.abs(prot.wd_route_gamma[comb] - 1.0)
                    / np.maximum(prot.wd_route_stderr[comb], 1e-300)
                ).max()
            )
            z_eta1_traj = float(
                (
                    np.abs(tr.gamma_q[comb] - 1.0)
                    / np.maximum(tr.stderr[comb], 1e-300)
                ).max()
            )
    monotone = all(
        msd[a] > msd[b] for a, b in zip(eta_list[:-1], eta_list[1:])
    )
    ok = gamma0_exact and monotone and z_eta1 < 3.0
    assert report(
        "9 (generalized Jarzynski)",
        ok,
        f"gamma_q(0)=1 exactly: {gamma0_exact}; <(gamma_q-1)^2> over [0,1]us "
        f"= {[f'{msd[e]:.1e}' for e in eta_list]} monotone: {monotone}; "
        f"eta=1 sampled-transition max z = {z_eta1:.2f} (<3) "
        f"[state-derived estimator: {z_eta1_traj:.1f}, pole artifact]",
        gamma0_exact=gamma0_exact,
        **{f"msd_eta{e:g}": msd[e] for e in eta_list},
        monotone=monotone,
        max_z_eta1=(z_eta1, None, 3.0),
        max_z_eta1_state=z_eta1_traj,
    )


def test_criterion_10_closed_jarzynski():
    """Brute-force two-point sampling satisfies <e^-bW> = 1 on a tau grid."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(2024))
    beta = 3.5
    devs = []
    for tau in np.linspace(0.25, 2.5, 10):
        w = closed_two_point_sample(beta, math.pi, float(tau), rng, size=1_000_000)
        devs.append(abs(float(np.exp(-beta * w).mean()) - 1.0))
    wall = time.perf_counter() - t0
    ok = max(devs) <= 0.01 and wall < 10.0
    assert report(
        "10 (closed Jarzynski)",
        ok,
        f"max |<e^-bW> - 1| = {max(devs):.4f} (<=0.01, 10^6 samples x 10 tau), "
        f"runtime {wall:.1f}s (<10)",
        max_dev=(max(devs), None, 0.01),
        runtime_s=(wall, None, 10.0),
    )


def test_criterion_11_determinism(tmp_path):
    """Identical (seed, config) gives byte-identical outputs at any worker count."""
    dirs = [tmp_path / name for name in ("w1", "w2", "rerun")]
    base = ["ensemble", "--n-traj", "400", "--tau-us", "1", "--seed", "13"]
    assert main(base + ["--workers", "1", "--out-dir", str(dirs[0])]) == 0
    assert main(base + ["--workers", "4", "--out-dir", str(dirs[1])]) == 0
    assert main(base + ["--workers", "1", "--out-dir", str(dirs[2])]) == 0
    names = ("timeseries.csv", "trajectories.csv", "summary.json")
    same = all(
        (dirs[0] / n).read_bytes() == (d / n).read_bytes()
        for d in dirs[1:]
        for n in names
    )

    t1 = tmp_path / "t1"
    t2 = tmp_path / "t2"
    tb = ["trajectory", "--seed", "3", "--tau-us", "2"]
    assert main(tb + ["--out-dir", str(t1)]) == 0
    assert main(tb + ["--out-dir", str(t2)]) == 0
    same_traj = (t1 / "trajectory.csv").read_bytes() == (
        t2 / "trajectory.csv"
    ).read_bytes()

    ok = same and same_traj
    assert report(
        "11 (determinism)",
        ok,
        f"worker counts 1/4 byte-identical: {same}, trajectory rerun "
        f"byte-identical: {same_traj}",
        workers_identical=same,
        trajectory_identical=same_traj,
    )
