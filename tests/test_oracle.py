import math

import numpy as np
import pytest

from qtherm.bloch import EXCITED, GROUND, BlochState
from qtherm.oracle import GridMismatchError, ensemble_vs_oracle, lindblad_evolve
from reference import closed_two_point_sample


def test_lindblad_closed_rabi(paper_cfg):
    cfg = paper_cfg(gamma=0.0, tau=4.0)
    sol = lindblad_evolve(GROUND, cfg)
    assert np.allclose(sol.z, np.cos(cfg.omega_r * sol.times), atol=1e-9)
    assert np.allclose(sol.x, -np.sin(cfg.omega_r * sol.times), atol=1e-9)


def test_lindblad_pure_decay(paper_cfg):
    cfg = paper_cfg(omega_r=0.0, tau=3.0)
    sol = lindblad_evolve(EXCITED, cfg)
    assert np.allclose(sol.z, 1.0 - 2.0 * np.exp(-cfg.gamma * sol.times), atol=1e-9)
    assert np.allclose(sol.x, 0.0, atol=1e-12)


def test_lindblad_damped_oscillation_settles(paper_cfg):
    cfg = paper_cfg(tau=8.0)
    sol = lindblad_evolve(GROUND, cfg)
    # Analytic fixed point of the mean dynamics.
    z_ss = cfg.gamma**2 / (2.0 * cfg.omega_r**2 + cfg.gamma**2)
    assert sol.p00[-1] == pytest.approx(0.5 * (1.0 + z_ss), abs=1e-4)
    # Oscillation decayed: late-time spread is tiny.
    late = sol.p00[sol.times > 6.0]
    assert late.max() - late.min() < 1e-3


def test_lindblad_custom_grid(paper_cfg):
    cfg = paper_cfg(tau=2.0)
    grid = np.array([0.0, 0.5, 1.7])
    sol = lindblad_evolve(GROUND, cfg, t_grid=grid)
    full = lindblad_evolve(GROUND, cfg)
    for t, z in zip(grid, sol.z):
        i = int(round(t / cfg.dt))
        assert z == pytest.approx(full.z[i], abs=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_lindblad_rejects_a_non_finite_grid(paper_cfg, bad):
    with pytest.raises(ValueError, match="t_grid must be finite"):
        lindblad_evolve(GROUND, paper_cfg(), t_grid=np.array([0.0, bad, 2.0]))


def _generator(cfg):
    """A and b of the unconditional equations du/dt = A u + b, u = (z, x)."""
    a = np.array([[-cfg.gamma, cfg.omega_r], [-cfg.omega_r, -0.5 * cfg.gamma]])
    return a, np.array([cfg.gamma, 0.0])


def _evolve_by(expm, cfg, initial, times):
    """u_ss + expm(t) (u0 - u_ss) at each time, from expm(t) of shape (T, 2, 2)."""
    a, b = _generator(cfg)
    u_ss = -np.linalg.solve(a, b)
    return u_ss + expm(times) @ (np.array([initial.z, initial.x]) - u_ss)


@pytest.mark.parametrize("gamma, omega", [(1.7, 2.0 * math.pi), (8.0, 1.0)],
                         ids=["underdamped", "overdamped"])
def test_lindblad_is_the_matrix_exponential(paper_cfg, gamma, omega):
    cfg = paper_cfg(gamma=gamma, omega_r=omega)
    w, v = np.linalg.eig(_generator(cfg)[0])

    def expm(t):
        return np.real((v * np.exp(np.multiply.outer(t, w))[:, None, :]) @ np.linalg.inv(v))

    initial = BlochState(0.6, -0.8)
    sol = lindblad_evolve(initial, cfg)
    want = _evolve_by(expm, cfg, initial, sol.times)
    assert np.abs(sol.z - want[:, 0]).max() < 1e-12
    assert np.abs(sol.x - want[:, 1]).max() < 1e-12


def test_lindblad_at_the_critical_point(paper_cfg):
    # omega = gamma/4: A has the double eigenvalue mu = -3 gamma/4, and
    # exp(A t) = e^{mu t} (I + t (A - mu I)).
    cfg = paper_cfg(omega_r=1.7 / 4)
    a, _ = _generator(cfg)
    mu = -0.75 * cfg.gamma

    def expm(t):
        return np.exp(mu * t)[:, None, None] * (np.eye(2) + np.multiply.outer(t, a - mu * np.eye(2)))

    initial = BlochState(0.6, -0.8)
    sol = lindblad_evolve(initial, cfg)
    want = _evolve_by(expm, cfg, initial, sol.times)
    assert np.abs(sol.z - want[:, 0]).max() < 1e-12
    assert np.abs(sol.x - want[:, 1]).max() < 1e-12


def test_lindblad_without_drive_or_decay_stays_put(paper_cfg):
    initial = BlochState(0.6, -0.8)
    sol = lindblad_evolve(initial, paper_cfg(gamma=0.0, omega_r=0.0))
    assert (sol.z == initial.z).all() and (sol.x == initial.x).all()


def test_lindblad_reaches_the_fixed_point_at_long_times(paper_cfg):
    cfg = paper_cfg(gamma=8.0, omega_r=1.0)
    sol = lindblad_evolve(EXCITED, cfg, t_grid=np.array([0.0, 1000.0]))
    assert np.isfinite(sol.z).all() and np.isfinite(sol.x).all()
    den = cfg.gamma**2 + 2.0 * cfg.omega_r**2
    assert sol.z[-1] == pytest.approx(cfg.gamma**2 / den, abs=1e-15)
    assert sol.x[-1] == pytest.approx(-2.0 * cfg.omega_r * cfg.gamma / den, abs=1e-15)


def test_two_point_sample_trivial_limits():
    rng = np.random.default_rng(0)
    w = closed_two_point_sample(50.0, 1.0, 0.7, rng, size=20000)
    assert (w >= 0).all()  # beta -> inf: always start in the ground state
    w = closed_two_point_sample(3.5, 1.0, 0.0, rng, size=1000)
    assert (w == 0).all()
    assert isinstance(closed_two_point_sample(3.5, 1.0, 0.3, rng), float)
    with pytest.raises(ValueError):
        closed_two_point_sample(3.5, 1.0, -1.0, rng)


def test_two_point_sample_matches_analytic_masses():
    rng = np.random.default_rng(11)
    beta, omega, tau, n = 3.5, 1.0, math.pi / 4, 200_000
    w = closed_two_point_sample(beta, omega, tau, rng, size=n)
    flip = math.sin(omega * tau) ** 2
    z = 2.0 * math.cosh(beta / 2.0)
    p_g = math.exp(beta / 2.0) / z
    expect = {1.0: p_g * flip, -1.0: (1.0 - p_g) * flip, 0.0: 1.0 - flip}
    for value, p in expect.items():
        p_hat = (w == value).mean()
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(p_hat - p) < 5.0 * sigma


def test_two_point_sample_jarzynski_unit():
    rng = np.random.default_rng(7)
    beta = 3.5
    w = closed_two_point_sample(beta, 1.0, math.pi / 4, rng, size=1_000_000)
    assert np.exp(-beta * w).mean() == pytest.approx(1.0, abs=0.01)


def test_ensemble_vs_oracle_self_and_mismatch(paper_cfg):
    cfg = paper_cfg(tau=1.0)
    sol = lindblad_evolve(GROUND, cfg)
    sem = np.full_like(sol.times, 1e-3)
    assert ensemble_vs_oracle(sol.times, sol.p00, sem, sol) == 0.0
    with pytest.raises(GridMismatchError):
        ensemble_vs_oracle(sol.times[:-1], sol.p00[:-1], sem[:-1], sol)


def test_ensemble_vs_oracle_negative_control(paper_cfg):
    # A deliberately mis-set decay rate must be flagged loudly.
    cfg = paper_cfg(tau=2.0)
    good = lindblad_evolve(GROUND, cfg)
    bad = lindblad_evolve(GROUND, paper_cfg(gamma=2.5, tau=2.0))
    sem = np.full_like(good.times, 1e-3)
    assert ensemble_vs_oracle(good.times, good.p00, sem, bad) > 20.0
