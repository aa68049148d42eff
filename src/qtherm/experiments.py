"""Multi-ensemble protocols: gain/offset sweep and the efficacy measurement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FeedbackConfig, SimConfig
from .ensemble import run_ensemble
from .stats import (
    EfficacyResult,
    contrast_window,
    efficacy_from_trajectories,
    jarzynski_from_transitions,
    rabi_contrast,
)


def sweep_gain_offset(
    gains,
    offsets,
    sim: SimConfig,
    fb: FeedbackConfig | None = None,
    n_traj: int = 1500,
    *,
    window: tuple[float, float] | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Phase-locked-feedback contrast for each (gain, offset) pair, as the
    (len(gains), len(offsets)) array.

    Grid points run as lanes of one ensemble, which builds and draws the
    n_traj noise streams once: every grid point sees the same paths (paired
    comparisons), bit for bit as its own ensemble would.  The engine
    integrates the grid rows in blocks of at most ``sme.GRID_LANES`` lanes.
    Each point is scored by the steady-state Rabi contrast of P00(t) over
    ``window`` (default: from 2 us to the end of the protocol), which reads
    the state alone, so the ensemble books no heat/work ledger.  A
    non-finite grid value, a window too short for the contrast fit, or an
    ``fb`` that is not phase-locked, is rejected before any ensemble runs.
    """
    fb = FeedbackConfig(mode="phase_locked") if fb is None else fb
    if fb.mode != "phase_locked":
        raise ValueError(f"the gain/offset sweep needs phase-locked feedback, not {fb.mode!r}")
    gains = np.asarray(list(gains), dtype=float)
    offsets = np.asarray(list(offsets), dtype=float)
    if gains.size == 0 or offsets.size == 0:
        raise ValueError("gain and offset ranges must be non-empty")
    if not (np.isfinite(gains).all() and np.isfinite(offsets).all()):
        raise ValueError("gain and offset grids must be finite")
    if window is None:
        window = (2.0, sim.tau)
    contrast_window(sim.dt * np.arange(sim.n_steps + 1), sim.omega_r, window)

    # Row-major (gain, offset) pairs, one grid row each.
    grid = np.stack(np.meshgrid(gains, offsets, indexing="ij"), axis=-1).reshape(-1, 2)
    res = run_ensemble(sim, fb.with_(gain=grid[:, :1], offset=grid[:, 1:]), n_traj,
                       ledger=False, workers=workers)
    contrast = [rabi_contrast(res.times, p00, sim.omega_r, window=window)
                for p00 in res.p00_mean]
    return np.reshape(contrast, (gains.size, offsets.size))


@dataclass(frozen=True)
class EfficacyProtocol:
    """Both efficacy estimates from one ground/excited preparation pair; with
    a (G, 1) eta column every array but ``trajectory_route.times`` has a
    leading eta axis."""

    trajectory_route: EfficacyResult
    wd_route_gamma: np.ndarray
    wd_route_stderr: np.ndarray


def run_efficacy_protocol(
    sim: SimConfig,
    fb: FeedbackConfig,
    n_traj: int = 500,
    *,
    workers: int = 1,
) -> EfficacyProtocol:
    """Simulate both preparations and estimate gamma_q(t) along both routes.

    The trajectory route averages the conditional populations (Methods
    coefficients C00/C11); the work-distribution route uses the projective
    outcome each trajectory samples at every time, statistically emulating
    separate experiments of every duration.  N = 500 trajectories per
    preparation reproduces the paper's protocol; fewer than two give no
    error bar and are rejected before any ensemble runs.

    A (G, 1) ``sim.eta`` column gives the arrays a leading eta axis, row g
    with the bytes of a call at the scalar eta of row g.  The efficiencies
    run as lanes on shared noise, one ensemble per preparation; the engine
    counts each ensemble's sampled outcomes as it runs, so no series is
    recorded, and both routes read the state alone, so no heat/work ledger is
    booked.
    """
    if n_traj < 2:
        raise ValueError(f"the efficacy protocol needs n_traj >= 2 per preparation, got {n_traj}")
    # Per preparation, the sampled return (ground) or survival (excited)
    # frequency is its hit count over n_traj.
    preps = [run_ensemble(sim.with_(initial_state=label, seed=sim.seed + label),
                          fb, n_traj, sample=True, ledger=False, workers=workers)
             for label in (0, 1)]
    gamma_wd, err_wd = jarzynski_from_transitions(*(p.hits / n_traj for p in preps),
                                                  sim.beta, n_traj, n_traj)
    return EfficacyProtocol(efficacy_from_trajectories(*preps, sim.beta), gamma_wd, err_wd)
