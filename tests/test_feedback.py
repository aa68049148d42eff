import dataclasses
import math

import numpy as np
import pytest

import qtherm.ensemble
from qtherm.bloch import GROUND, BlochState
from qtherm.config import FeedbackConfig
from qtherm.ensemble import run_ensemble
from qtherm.feedback import DelayLine, optimal_drive, pll_drive
from qtherm.sme import SERIES
from reference import rotate

# optimal_drive(x_mid, z_mid, x, z, DT) * DT is the rotation angle that undoes
# the turn of the phase atan2(-x, z) from (x_mid, z_mid) to (x, z).
DT = 0.02


def purity(s: BlochState) -> float:
    """tr(rho^2) = (1 + x^2 + z^2) / 2."""
    return 0.5 * (1.0 + s.x * s.x + s.z * s.z)


def test_phase_locked_zero_signal(paper_cfg):
    fb = FeedbackConfig(mode="phase_locked", gain=34.0, offset=-1.0)
    cfg = paper_cfg()
    assert pll_drive(0.0, 1.3, cfg.omega_r, fb.gain, fb.offset, 0) == 0.0


def test_phase_locked_reference_zero_crossing(paper_cfg):
    # cos(omega_r t + phi) = 1 with B = -1 kills the drive for any dV.
    fb = FeedbackConfig(mode="phase_locked", gain=34.0, offset=-1.0)
    cfg = paper_cfg()
    t = 2.0 * math.pi / cfg.omega_r  # full reference period
    om = pll_drive(0.73, t, cfg.omega_r, fb.gain, fb.offset, 0)
    assert om == pytest.approx(0.0, abs=1e-12)


def test_phase_locked_matches_derived_law(paper_cfg):
    # At gain sqrt(eta)/dt, offset -1 the law is the derived heat-cancelling
    # drive sqrt(eta) * (cos - 1) * dV/dt.
    cfg = paper_cfg()
    gain = math.sqrt(cfg.eta) / cfg.dt
    fb = FeedbackConfig(mode="phase_locked", gain=gain, offset=-1.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = rng.uniform(0, 8)
        dv = rng.normal(0, 0.2)
        got = pll_drive(dv, t, cfg.omega_r, fb.gain, fb.offset, 0)
        want = math.sqrt(cfg.eta) * (math.cos(cfg.omega_r * t) - 1.0) * dv / cfg.dt
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_optimal_control_on_target():
    # A sub-step that only shrinks the Bloch vector leaves the phase alone.
    mid = rotate(GROUND, 0.8)
    theta = optimal_drive(mid.x, mid.z, 0.6 * mid.x, 0.6 * mid.z, DT) * DT
    assert theta == pytest.approx(0.0, abs=1e-12)


def test_optimal_control_corrects_lag():
    mid = rotate(GROUND, 0.8)
    s = rotate(BlochState(0.0, 0.7), 0.9)
    theta = optimal_drive(mid.x, mid.z, s.x, s.z, DT) * DT
    assert theta == pytest.approx(-0.1, abs=1e-12)
    corrected = rotate(s, theta)
    assert math.atan2(-corrected.x, corrected.z) == pytest.approx(0.8, abs=1e-12)


def test_optimal_control_is_pure_rotation():
    mid = rotate(GROUND, 2.0)
    s = BlochState(0.21, -0.4)
    theta = optimal_drive(mid.x, mid.z, s.x, s.z, DT) * DT
    assert purity(rotate(s, theta)) == pytest.approx(purity(s), abs=1e-15)


def test_optimal_control_wraps_angle():
    # A turn of +0.1 across the branch cut at pi is undone by -0.1, not 2*pi - 0.1.
    mid = rotate(GROUND, math.pi - 0.05)
    s = rotate(GROUND, -math.pi + 0.05)
    theta = optimal_drive(mid.x, mid.z, s.x, s.z, DT) * DT
    assert theta == pytest.approx(-0.1, abs=1e-12)


def test_delay_line_passthrough_and_latency():
    line = DelayLine(0)
    assert line.push(3.5) == 3.5
    line = DelayLine(5)
    out = [line.push(1.0) for _ in range(8)]
    assert out == [0.0] * 5 + [1.0] * 3
    with pytest.raises(ValueError):
        DelayLine(-1)


def test_delay_line_array_values():
    line = DelayLine(2)
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 4.0])
    assert line.push(a) == 0.0
    assert line.push(b) == 0.0
    assert np.array_equal(line.push(np.zeros(2)), a)


def test_zero_gain_equals_no_feedback(paper_cfg):
    cfg = paper_cfg(tau=1.0, seed=4)
    off = run_ensemble(cfg, n_traj=64)
    fb = FeedbackConfig(mode="phase_locked", gain=0.0, offset=-1.0)
    on = run_ensemble(cfg, fb, n_traj=64)
    assert np.array_equal(off.p00_mean, on.p00_mean)
    assert np.array_equal(off.w, on.w)


def test_optimal_feedback_keeps_pure_state_locked(paper_cfg):
    # eta = 1: purity stays 1 and the phase tracks the closed
    # evolution to within one step's heat kick.
    cfg = paper_cfg(eta=1.0, tau=2.0, seed=11)
    fb = FeedbackConfig(mode="optimal")
    res = run_ensemble(cfg, fb, 64, record=("x", "z"))
    x, z = res.series["x"], res.series["z"]
    pur = 0.5 * (1.0 + x**2 + z**2)
    assert np.abs(pur - 1.0).max() < 1e-9
    # Post-step phase error carries one heat kick (std up to
    # 2*sqrt(gamma*dt) ~ 0.37 near the excited pole) on every path; check it
    # stays a zero-mean residual rather than a drift.  One path's mean has a
    # spread of about 0.023, so the zero mean is judged on all 64 pooled.
    target = cfg.omega_r * res.times
    err = np.angle(np.exp(1j * (np.arctan2(-x, z) - target)))
    assert np.sqrt((err**2).mean(axis=1)).max() < 0.4
    assert abs(err.mean()) < 0.01


def test_optimal_feedback_has_a_one_step_latency_floor(paper_cfg, monkeypatch):
    # The heat angle of step i is known only once step i is integrated, so a
    # configured delay of zero steps runs exactly as a delay of one.
    cfg = paper_cfg(tau=0.4, seed=5, initial_state="thermal", beta=1.0)
    monkeypatch.setattr(qtherm.ensemble, "CHUNK_SIZE", 32)
    runs = [run_ensemble(cfg, FeedbackConfig(mode="optimal", delay_steps=d), 64,
                         record=SERIES, lags=(0, 1, 3))
            for d in (0, 1)]
    assert_same_run(*runs)


@pytest.mark.parametrize("mode", ["phase_locked", "optimal"])
def test_a_delay_beyond_the_run_runs_as_one_of_the_run_length(paper_cfg, mode):
    # Every drive such a loop returns inside the run is zero, so a delay of
    # 10^12 steps must give the bits of a delay of n_steps without holding
    # 10^12 entries.
    cfg = paper_cfg(tau=0.2, seed=5, initial_state="thermal", beta=1.0)
    runs = [run_ensemble(cfg, FeedbackConfig(mode=mode, delay_steps=d), 16,
                         record=SERIES, lags=(0, 1, 3))
            for d in (cfg.n_steps, 10**12)]
    assert_same_run(*runs)


def assert_same_run(one, two):
    """Every field of two results but the feedback config is bitwise equal."""
    for f in dataclasses.fields(one):
        a, b = getattr(one, f.name), getattr(two, f.name)
        if f.name == "series":
            assert a.keys() == b.keys()
            assert all(np.array_equal(a[k], b[k]) for k in a)
        elif f.name != "fb":
            assert np.array_equal(a, b), f.name


def test_feedback_sustains_oscillation(paper_cfg):
    # With feedback on, the ensemble oscillation persists over 8 us; with
    # feedback off it damps toward 1/2.
    from qtherm.stats import rabi_contrast

    cfg = paper_cfg(seed=15)
    on = run_ensemble(cfg, FeedbackConfig(mode="optimal"), 800)
    off = run_ensemble(cfg, n_traj=800)
    c_on = rabi_contrast(on.times, on.p00_mean, cfg.omega_r)
    c_off = rabi_contrast(off.times, off.p00_mean, cfg.omega_r)
    assert c_on > 0.35
    assert c_off < 0.1
    late = off.p00_mean[off.times > 6.0]
    assert np.abs(late - 0.5).max() < 0.05


def test_delayed_feedback_config_validation():
    with pytest.raises(ValueError):
        FeedbackConfig(mode="bogus")
    with pytest.raises(ValueError):
        FeedbackConfig(mode="optimal", delay_steps=-2)
