"""Thermodynamic observables aggregated from trajectory ledgers.

The per-step engine ledger records energy increments in the m=1 (excited
projector) convention; since Pi_0 = 1 - Pi_1, the same sums give transition
probability contributions for either target label by a sign flip.  For a
trajectory prepared in eigenstate n, the decomposition

    P~(tau)_{m,n} = delta_{m,n} + P~W_{m,n} + P~Q_{m,n} + P~F_{m,n}

holds to rounding error, where P~(tau) = tr[Pi_m rho(tau)] is read off the
final state.

The generalized-Jarzynski efficacy is estimated two ways:

* the trajectory route: equal-weight averages of the ground/excited-prepared
  ensembles (each ensemble's streamed ``p00_mean``) give the map
  coefficients C00(t), C11(t) = 2 - C00(t), and

      gamma_q(t) = [e^{+beta/2} C00(t) + e^{-beta/2} C11(t)] / (2 cosh(beta/2))
                 = 1 + tanh(beta/2) (C00(t) - 1);

* the work-distribution route: the two-point work distribution built from
  measured transition probabilities, averaged against e^{-beta W}, which is
  1 + tanh(beta/2) (P00(t) - P11(t)) since p_g e^{-beta} = p_e.

The tanh forms are finite at every beta >= 0 and give gamma_q(0) = 1 exactly.
With state-derived transition probabilities both routes are the same number,
so the work-distribution route is fed the frequencies of the projective
outcomes the engine samples (``EnsembleResult.hits``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleResult


class InsufficientSpanError(ValueError):
    """Series does not cover enough Rabi periods for a contrast estimate."""


class ZeroVarianceError(ValueError):
    """Pearson correlation of a constant series is undefined."""


@dataclass(frozen=True)
class EfficacyResult:
    """Efficacy gamma_q(t), its standard error and the map coefficients."""

    times: np.ndarray
    gamma_q: np.ndarray
    stderr: np.ndarray
    c00: np.ndarray
    c11: np.ndarray

    def mean_sq_deviation(self, t_max: float) -> float:
        """<(gamma_q - 1)^2> over [0, t_max]."""
        mask = self.times <= t_max + 1e-12
        return float(np.mean((self.gamma_q[mask] - 1.0) ** 2))


def efficacy_from_trajectories(
    ground: EnsembleResult, excited: EnsembleResult, beta: float
) -> EfficacyResult:
    """Trajectory-route efficacy from the two preparation ensembles.

    ``ground`` / ``excited`` are the ensembles prepared in the ground /
    excited state with otherwise identical configuration, on a common time
    grid; only their ``times``, ``p00_mean``, ``p00_sem`` and ``n_traj`` are
    read, and a leading grid axis carries through.  gamma_q is linear in
    C00 = mean_g + mean_e with slope tanh(beta/2), so its standard error is
    tanh(beta/2) * sqrt(sem_g^2 + sem_e^2), from the two independent
    ensembles' standard errors.
    """
    if excited.p00_mean.shape != ground.p00_mean.shape:
        raise ValueError("preparation ensembles must be on a common time grid")
    if min(ground.n_traj, excited.n_traj) < 2:
        raise ValueError("each preparation needs at least two trajectories for an error bar")

    c00 = ground.p00_mean + excited.p00_mean
    # C11 = 2 - C00 exactly (populations sum to one trajectory by trajectory).
    k = math.tanh(0.5 * beta)
    gamma = 1.0 + k * (c00 - 1.0)
    stderr = abs(k) * np.sqrt(ground.p00_sem**2 + excited.p00_sem**2)

    return EfficacyResult(
        times=ground.times, gamma_q=gamma, stderr=stderr, c00=c00, c11=2.0 - c00
    )


def jarzynski_from_transitions(
    p00_t: np.ndarray,
    p11_t: np.ndarray,
    beta: float,
    n_ground: int,
    n_excited: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Work-distribution-route efficacy from measured transition probabilities.

    ``p00_t`` (``p11_t``) is the return (survival) probability vs time of the
    ground- (excited-) prepared ensemble, e.g. frequencies of sampled
    projective outcomes.  Returns (gamma_q(t), binomial standard error).
    """
    p00 = np.asarray(p00_t, dtype=float)
    p11 = np.asarray(p11_t, dtype=float)
    # p_g (e^-beta + P00 (1 - e^-beta)) + p_e (e^beta - P11 (e^beta - 1)) in
    # its tanh form (module docstring), with slope k in P00 and in -P11.
    k = math.tanh(0.5 * beta)
    gamma = 1.0 + k * (p00 - p11)
    # Frequencies in [0, 1] make every term non-negative: var >= 0 exactly.
    var = k * k * (
        p00 * (1.0 - p00) / n_ground + p11 * (1.0 - p11) / n_excited
    )
    return gamma, np.sqrt(var)


def contrast_window(
    times: np.ndarray, omega_r: float, window: tuple[float, float]
) -> np.ndarray:
    """Mask of the ``times`` inside ``window``, which a contrast fit needs to
    span at least three Rabi periods of 2*pi/|omega_r|; raises
    InsufficientSpanError otherwise, and always at omega_r = 0.

    Callers that know the time grid before integrating check it here first.
    """
    if omega_r == 0.0:
        raise InsufficientSpanError("a zero Rabi rate has no period to fit")
    lo, hi = window
    mask = (times >= lo) & (times <= hi)
    if not mask.any():
        raise InsufficientSpanError("window contains no samples")
    t = times[mask]
    span = t.max() - t.min()
    if span < 3.0 * (2.0 * math.pi / abs(omega_r)) - 1e-9:
        raise InsufficientSpanError(
            f"window spans {span:.3f} us, need >= 3 Rabi periods"
        )
    return mask


def rabi_contrast(
    times: np.ndarray,
    p00: np.ndarray,
    omega_r: float,
    window: tuple[float, float] = (2.0, 8.0),
) -> float:
    """Steady oscillation amplitude of P00 relative to the closed amplitude 1/2.

    Least-squares fit of ``m + a cos(omega_r t) + b sin(omega_r t)`` over the
    post-transient window (see :func:`contrast_window`).  Returns
    2*sqrt(a^2 + b^2).
    """
    times = np.asarray(times, dtype=float)
    p00 = np.asarray(p00, dtype=float)
    mask = contrast_window(times, omega_r, window)
    t = times[mask]
    design = np.column_stack(
        [np.ones_like(t), np.cos(omega_r * t), np.sin(omega_r * t)]
    )
    coef, *_ = np.linalg.lstsq(design, p00[mask], rcond=None)
    return float(2.0 * math.hypot(coef[1], coef[2]))


def pooled_pearson_r(ensemble: EnsembleResult, lag: int = 0) -> float:
    """Pearson r of the per-step pairs (dWF[i + lag], dQ[i]) pooled over the
    trajectories, from the moments ``run_ensemble(..., lags)`` accumulated.

    Raises ZeroVarianceError where r is undefined: fewer than two aligned
    pairs, or a series without variance.
    """
    if lag not in ensemble.lags:
        raise ValueError(f"no pair moments at lag {lag}; accumulated lags: {ensemble.lags}")
    n, sa, sb, saa, sbb, sab = ensemble.pair_moments[ensemble.lags.index(lag)]
    if n < 2:
        raise ZeroVarianceError("correlation undefined for fewer than two aligned pairs")
    var_a = saa - sa * sa / n
    var_b = sbb - sb * sb / n
    # Below 1e-12 of the raw second moment a variance is the rounding residue
    # of the one-pass difference, as for a constant series.
    if var_a <= 1e-12 * saa or var_b <= 1e-12 * sbb:
        raise ZeroVarianceError("correlation undefined for constant series")
    return float((sab - sa * sb / n) / math.sqrt(var_a * var_b))

