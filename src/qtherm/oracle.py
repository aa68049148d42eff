"""Unconditional master equation, the reference for conditional ensemble means.

:func:`lindblad_evolve` integrates dz/dt = omega*x + gamma*(1 - z),
dx/dt = -omega*z - (gamma/2)*x (the stochastic term averages to zero) by
fixed-step RK4, independently of the trajectory code.  The solution does not
depend on eta, so conditional ensembles without feedback must average to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BlochState
from .config import SimConfig

#: RK4 substep ceiling (us): local error ~ (|A| h)^5 / 5! with |A| <~ 7/us
#: stays well below 1e-10 per substep (and ~1e-10 accumulated per us) for
#: h <= 1 ns at the parameters of interest.
_MAX_SUBSTEP = 0.001


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


def _rhs(z: float, x: float, omega: float, gamma: float) -> tuple[float, float]:
    return omega * x + gamma * (1.0 - z), -omega * z - 0.5 * gamma * x


def lindblad_evolve(
    initial: BlochState, cfg: SimConfig, t_grid: np.ndarray | None = None
) -> LindbladSolution:
    """Integrate the unconditional master equation on ``t_grid``.

    ``t_grid`` defaults to the simulation grid 0, dt, ..., tau.  Each grid
    interval is split into at least 10 RK4 substeps (and substeps never exceed
    2 ns), keeping the local error well under 1e-10 for the parameters the
    package targets.
    """
    if t_grid is None:
        t_grid = cfg.dt * np.arange(cfg.n_steps + 1)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise ValueError("t_grid must be a non-empty 1-d array")

    omega, gamma = cfg.omega_r, cfg.gamma
    zs = np.empty_like(t_grid)
    xs = np.empty_like(t_grid)
    z, x = initial.z, initial.x
    zs[0], xs[0] = z, x
    for i in range(len(t_grid) - 1):
        span = t_grid[i + 1] - t_grid[i]
        if span < 0:
            raise ValueError("t_grid must be non-decreasing")
        n_sub = max(10, int(np.ceil(span / _MAX_SUBSTEP)))
        h = span / n_sub
        for _ in range(n_sub):
            k1z, k1x = _rhs(z, x, omega, gamma)
            k2z, k2x = _rhs(z + 0.5 * h * k1z, x + 0.5 * h * k1x, omega, gamma)
            k3z, k3x = _rhs(z + 0.5 * h * k2z, x + 0.5 * h * k2x, omega, gamma)
            k4z, k4x = _rhs(z + h * k3z, x + h * k3x, omega, gamma)
            z += (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
            x += (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        zs[i + 1], xs[i + 1] = z, x
    return LindbladSolution(times=t_grid, z=zs, x=xs)


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
