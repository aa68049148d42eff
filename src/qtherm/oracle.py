"""Unconditional master equation, the reference for conditional ensemble means.

:func:`lindblad_evolve` solves dz/dt = omega*x + gamma*(1 - z),
dx/dt = -omega*z - (gamma/2)*x (the stochastic term averages to zero) in
closed form, independently of the trajectory code.  The solution does not
depend on eta, so conditional ensembles without feedback must average to it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .bloch import BlochState
from .config import SimConfig


class GridMismatchError(ValueError):
    """Raised when comparing series defined on different time grids."""


@dataclass(frozen=True)
class LindbladSolution:
    """Unconditional Bloch trajectory on a time grid."""

    times: np.ndarray
    z: np.ndarray
    x: np.ndarray

    @property
    def p00(self) -> np.ndarray:
        """Ground population (1 + z)/2 on the grid."""
        return 0.5 * (1.0 + self.z)


def lindblad_evolve(
    initial: BlochState, cfg: SimConfig, t_grid: np.ndarray | None = None
) -> LindbladSolution:
    """Solve the unconditional master equation exactly on ``t_grid``.

    ``t_grid`` defaults to the simulation grid 0, dt, ..., tau; ``initial`` is
    the state at its first point.  For u = (z, x), du/dt = A u + (gamma, 0), so
    u(t) = u_ss + exp(A t)(u(0) - u_ss) (u_ss = 0 if A = 0), and by
    Cayley-Hamilton exp(A t) = e^{mu t}[cosh(kappa t) I + sinh(kappa t)/kappa
    (A - mu I)], mu = -3 gamma/4, complex kappa = sqrt(mu^2 - det A).  Both
    terms go through e^{(mu + kappa) t}, the slower mode, so none overflows.
    """
    if t_grid is None:
        t_grid = cfg.dt * np.arange(cfg.n_steps + 1)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise ValueError("t_grid must be a non-empty 1-d array")
    if not np.isfinite(t_grid).all():
        raise ValueError("t_grid must be finite")
    if (np.diff(t_grid) < 0).any():
        raise ValueError("t_grid must be non-decreasing")

    omega, gamma = cfg.omega_r, cfg.gamma
    det = 0.5 * gamma * gamma + omega * omega
    z_ss, x_ss = (0.5 * gamma * gamma / det, -omega * gamma / det) if det else (0.0, 0.0)
    dz, dx = initial.z - z_ss, initial.x - x_ss
    mu = -0.75 * gamma
    kappa = cmath.sqrt((0.25 * gamma - omega) * (0.25 * gamma + omega))
    t = t_grid - t_grid[0]
    # e^{mu t} cosh(kappa t) and e^{mu t} sinh(kappa t)/kappa (t e^{mu t} at kappa = 0).
    slow, m2kt = np.exp((mu + kappa) * t), -2.0 * kappa * t
    cosh = (0.5 * slow * (1.0 + np.exp(m2kt))).real
    sinh = (-0.5 * slow * np.expm1(m2kt) / kappa).real if kappa else t * np.exp(mu * t)
    # A - mu I = [[-gamma/4, omega], [-omega, gamma/4]].
    z = z_ss + cosh * dz + sinh * (omega * dx - 0.25 * gamma * dz)
    x = x_ss + cosh * dx + sinh * (0.25 * gamma * dx - omega * dz)
    return LindbladSolution(times=t_grid, z=z, x=x)


def ensemble_vs_oracle(
    times: np.ndarray,
    mean: np.ndarray,
    sem: np.ndarray,
    oracle: LindbladSolution,
) -> float:
    """Max z-score |mean - oracle.p00| / sem over the common grid.

    Grid points with zero standard error contribute only if the means differ
    (then the z-score is infinite); identical deterministic curves give 0.
    """
    times = np.asarray(times, dtype=float)
    if times.shape != oracle.times.shape or not np.allclose(
        times, oracle.times, rtol=0.0, atol=1e-12
    ):
        raise GridMismatchError("ensemble and oracle time grids differ")
    diff = np.abs(np.asarray(mean, dtype=float) - oracle.p00)
    sem = np.asarray(sem, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sem > 0, diff / sem, np.where(diff > 0, np.inf, 0.0))
    return float(z.max())
