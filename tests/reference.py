"""Independent references that tests check the package against.

``pearson_r`` and ``pooled_pearson_r`` are the two-pass Pearson estimators
over recorded (n_traj, n_steps) series.  The package derives the pooled r
from one-pass pair moments instead (``qtherm.stats.pooled_pearson_r``);
these check it.  ``per_point_sweep_contrast`` runs the gain/offset sweep one
ensemble per grid point; the package runs grid points as batch lanes.
"""

import numpy as np

from qtherm.ensemble import run_ensemble
from qtherm.stats import ZeroVarianceError, rabi_contrast


def pearson_r(a: np.ndarray, b: np.ndarray, lag: int = 0) -> float:
    """Pearson correlation of pooled samples, with ``a`` lagged by ``lag`` steps.

    ``lag=k`` pairs a[i+k] with b[i] (e.g. feedback work k steps after the
    heat it responds to).  Series must have equal lengths before alignment.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError("series must have equal lengths")
    if lag < 0:
        raise ValueError("lag must be >= 0")
    if lag:
        a = a[lag:]
        b = b[: b.size - lag]
    if a.size < 2:
        raise ValueError("need at least two aligned samples")
    if a.std() == 0.0 or b.std() == 0.0:
        raise ZeroVarianceError("correlation undefined for constant series")
    return float(np.corrcoef(a, b)[0, 1])


def pooled_pearson_r(
    wf_series: np.ndarray, q_series: np.ndarray, lag: int = 0
) -> float:
    """Pearson r of per-step (dWF, dQ) pairs pooled over trajectories.

    Inputs are (n_traj, n_steps); the lag shifts the feedback-work series
    within each trajectory before pooling.
    """
    wf = np.asarray(wf_series, dtype=float)
    q = np.asarray(q_series, dtype=float)
    if wf.shape != q.shape or wf.ndim != 2:
        raise ValueError("series must be (n_traj, n_steps) with equal shapes")
    if lag:
        wf = wf[:, lag:]
        q = q[:, : q.shape[1] - lag]
    return pearson_r(wf.ravel(), q.ravel())


def per_point_sweep_contrast(gains, offsets, sim, fb, n_traj, *, window=None, workers=1):
    """Contrast grid of the gain/offset sweep with one ensemble per grid point.

    This is the sweep loop as it was before grid points ran as lanes of one
    batch; ``qtherm.experiments.sweep_gain_offset`` must reproduce it bit for
    bit.
    """
    if window is None:
        window = (2.0, sim.tau)
    contrast = np.empty((len(gains), len(offsets)))
    for i, a in enumerate(gains):
        for j, b in enumerate(offsets):
            fb_ij = fb.with_(gain=float(a), offset=float(b))
            res = run_ensemble(sim, fb_ij, n_traj, workers=workers)
            contrast[i, j] = rabi_contrast(
                res.times, res.p00_mean, sim.omega_r, window=window
            )
    return contrast
