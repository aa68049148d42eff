"""Independent references that tests check the package against.

``pearson_r`` and ``pooled_pearson_r`` are the two-pass Pearson estimators
over recorded (n_traj, n_steps) series.  The package derives the pooled r
from one-pass pair moments instead (``qtherm.stats.pooled_pearson_r``);
these check it.  ``per_point_sweep_contrast`` runs the gain/offset sweep one
ensemble per grid point; the package runs grid points as batch lanes.
``two_point_work_distribution`` and ``jarzynski_average`` build the explicit
three-point work distribution and average e^{-beta W} over it; the package
evaluates that average in closed form (``jarzynski_from_transitions``).
``two_pass_preparation`` reduces a recorded (n_traj, n_times) p00 series
in two passes to what ``efficacy_from_trajectories`` reads of an ensemble;
the package streams one-pass sums instead (``EnsembleResult.p00_sem``).
``bootstrap_efficacy_stderr`` resamples trajectories for the efficacy error
that the package gives in closed form.  ``ito_step`` is the discretized SME
as one unsplit Ito-Euler update, the reference for ``qtherm.sme.split_step``.
``rotate`` applies the package's own rotation to one ``BlochState``.
``closed_two_point_sample`` draws the two-point work of closed Rabi
evolution (acceptance criterion 10), and ``binned_first_law_check`` bins
projective outcomes against the path-dependent P00 prediction (criterion 1).
``side_stream`` is the stream of the tests' own draws outside the
trajectories (criteria 1 and 3), on keys no trajectory uses.
``column_draws`` draws each trajectory's randomness one step-major column at
a time; ``qtherm.sme.run_batch`` draws a tile of contiguous rows at a time.
``term_by_term_split_step`` is the step kernel at drive and feedback rates,
with every term of the Kraus sub-step spelled out (2*ady*c, 2*c2/trace) and
every rotation booked through the proportional work split with its
zero-angle mask always built; ``qtherm.sme.split_step`` takes the angles and
the step constants, folds the doublings into its constants, splits the work
only where drive and feedback share one rotation and tests for a zero angle
before it builds a mask, with the same bits.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from qtherm.bloch import BlochState, closed_rabi_probabilities, gibbs_weights
from qtherm.config import THERMAL, SimConfig
from qtherm.ensemble import run_ensemble
from qtherm.sme import _rotate
from qtherm.stats import ZeroVarianceError, efficacy_from_trajectories, rabi_contrast

#: Pre-renormalization |x| or |z| beyond this aborts ``ito_step``: the Euler
#: step has left the physical region so far that dt is clearly too coarse.
BLOWUP_LIMIT = 1.5


def side_stream(seed: int, tag: int) -> np.random.Generator:
    """The stream of key (seed, 1, tag), for draws outside the trajectories.

    Trajectory streams take the keys (seed, 0, block), so none meets these.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, tag)))


def column_draws(cfg: SimConfig, rngs, sample: bool = False):
    """(labels, noise, u) of the trajectories of ``rngs``, drawn one column at
    a time in the fixed stream order: noise is (n_steps, n) with
    dX ~ N(0, dt), u is (n_steps + 1, n) when sampling every point, else
    (1, n)."""
    n, steps = len(rngs), cfg.n_steps
    labels = np.empty(n, dtype=np.int8)
    noise = np.empty((steps, n))
    u = np.empty((steps + 1 if sample else 1, n))
    p_exc_thermal = gibbs_weights(cfg.beta)[1] if cfg.initial_state == THERMAL else None
    for k, rng in enumerate(rngs):
        if p_exc_thermal is None:
            labels[k] = int(cfg.initial_state)
        else:
            labels[k] = 1 if rng.random() < p_exc_thermal else 0
        noise[:, k] = rng.normal(0.0, math.sqrt(cfg.dt), steps)
        if sample:
            u[:, k] = rng.random(steps + 1)
        else:
            u[0, k] = rng.random()
    return labels, noise, u


class NumericalBlowupError(RuntimeError):
    """Ito-Euler update left the Bloch disk by more than BLOWUP_LIMIT."""


def _renormalize(x, z):
    """Rescale (x, z) onto the unit circle wherever x^2 + z^2 > 1."""
    r2 = x * x + z * z
    scale = np.where(r2 > 1.0, 1.0 / np.sqrt(np.maximum(r2, 1.0)), 1.0)
    return x * scale, z * scale


def ito_step(s: BlochState, dv: float, omega_total: float, cfg: SimConfig) -> BlochState:
    """One full (unsplit) Ito-Euler step with drive rate ``omega_total``.

    This is the discretized SME exactly as written, drive and dissipative
    terms in a single first-order update, followed by renormalization.  The
    package integrates with ``split_step`` instead, so that work and heat can
    be told apart.  Averaged over the noise, one split step and one unsplit
    step from the same state agree to O(dt^2), the one-step weak consistency
    of a first-order scheme.
    """
    innovation = dv - cfg.gamma * math.sqrt(cfg.eta) * s.x * cfg.dt
    sqrt_eta = math.sqrt(cfg.eta)
    x, z = s.x, s.z
    z2 = (
        z
        + omega_total * x * cfg.dt
        + cfg.gamma * (1.0 - z) * cfg.dt
        + sqrt_eta * x * (1.0 - z) * innovation
    )
    x2 = (
        x
        - omega_total * z * cfg.dt
        - 0.5 * cfg.gamma * x * cfg.dt
        + sqrt_eta * (1.0 - z - x * x) * innovation
    )
    if max(abs(x2), abs(z2)) > BLOWUP_LIMIT:
        raise NumericalBlowupError(
            "Bloch components exceeded |1.5| before renormalization; dt too coarse"
        )
    x3, z3 = _renormalize(np.float64(x2), np.float64(z2))
    return BlochState(x=float(x3), z=float(z3))


def term_by_term_kraus(x, z, dv, gamma: float, eta, dt: float):
    """The Kraus dissipative sub-step, every term as the equations write it."""
    if gamma == 0.0:
        return x, z
    dy = dv / math.sqrt(gamma)
    a = np.sqrt(eta * gamma)
    p = 0.5 * (1.0 + z)  # ground population
    q = 0.5 * (1.0 - z)  # excited population
    c = 0.5 * x
    k = 1.0 - 0.5 * gamma * dt
    ady = a * dy
    p2 = p + 2.0 * ady * c + ady * ady * q + (1.0 - eta) * gamma * dt * q
    c2 = k * (c + ady * q)
    q2 = k * k * q
    trace = p2 + q2
    return 2.0 * c2 / trace, (p2 - q2) / trace


def masked_rotation_work(x, z, theta_d, theta_f):
    """The rotation sub-step and its work split, with the zero-angle mask
    built on every call."""
    theta = theta_d + theta_f
    ct = np.cos(theta)
    st = np.sin(theta)
    z1 = z * ct + x * st
    x1 = x * ct - z * st
    dpe = 0.5 * (z - z1)
    zero = np.asarray(theta) == 0.0
    if zero.any():
        safe = np.where(zero, 1.0, theta)
        dw = np.where(zero, -0.5 * x * theta_d, dpe * (theta_d / safe))
    else:
        dw = dpe * (theta_d / theta)
    return x1, z1, dw, dpe - dw


def term_by_term_split_step(x, z, dv, omega_drive, omega_fb, cfg: SimConfig,
                            feedback_after: bool = False):
    """``qtherm.sme.split_step`` from ``term_by_term_kraus`` and
    ``masked_rotation_work``: (x, z, dw, dwf, dq, x_mid, z_mid)."""
    theta_f = np.asarray(omega_fb) * cfg.dt
    x1, z1, dw, dwf = masked_rotation_work(
        x, z, omega_drive * cfg.dt, 0.0 if feedback_after else theta_f
    )
    x2, z2 = term_by_term_kraus(x1, z1, dv, cfg.gamma, cfg.eta, cfg.dt)
    dq = 0.5 * (z1 - z2)
    if feedback_after:
        x2, z2, _, dwf = masked_rotation_work(x2, z2, 0.0, theta_f)
    return x2, z2, dw, dwf, dq, x1, z1


def rotate(s: BlochState, theta: float) -> BlochState:
    """The package's rotation by ``theta``."""
    x, z = _rotate(s.x, s.z, theta)
    return BlochState(float(x), float(z))


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


@dataclass(frozen=True)
class WorkDistribution:
    """Three-point work distribution of the two-point protocol (hbar*omega_q)."""

    support: np.ndarray
    probabilities: np.ndarray
    beta: float

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=float)
        if (p < -1e-12).any():
            raise ValueError("work probabilities must be non-negative")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"work probabilities must sum to 1, got {p.sum()!r}")


def two_point_work_distribution(beta: float, transitions) -> WorkDistribution:
    """Work distribution from a transition matrix ``T[n][m] = P(m | n)``.

    Initial states are Gibbs-weighted at ``beta``; W = E_m - E_n takes values
    {-1, 0, +1}.  Rows of ``transitions`` must each sum to 1.
    """
    t = np.asarray(transitions, dtype=float)
    if t.shape != (2, 2):
        raise ValueError("transitions must be a 2x2 matrix T[n][m]")
    if (t < -1e-12).any() or np.abs(t.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError("transition matrix must be row-stochastic")
    p_g, p_e = gibbs_weights(beta)
    p_up = p_g * t[0, 1]     # ground -> excited, W = +1
    p_down = p_e * t[1, 0]   # excited -> ground, W = -1
    p_zero = p_g * t[0, 0] + p_e * t[1, 1]
    return WorkDistribution(
        support=np.array([-1.0, 0.0, 1.0]),
        probabilities=np.array([p_down, p_zero, p_up]),
        beta=beta,
    )


def jarzynski_average(wd: WorkDistribution) -> float:
    """<e^{-beta W}>; equals e^{-beta DeltaF} * gamma_q (here DeltaF = 0)."""
    return float(np.sum(wd.probabilities * np.exp(-wd.beta * wd.support)))


def two_pass_preparation(p00, times=None) -> SimpleNamespace:
    """What ``efficacy_from_trajectories`` reads of an ensemble, from its
    recorded p00 series in two passes over the trajectory axis (the one
    before the time axis); ``times`` defaults to the sample index."""
    p00 = np.asarray(p00, dtype=float)
    n = p00.shape[-2]
    sem = p00.std(axis=-2, ddof=1) / math.sqrt(n) if n > 1 else np.nan * p00[..., 0, :]
    times = np.arange(p00.shape[-1], dtype=float) if times is None else times
    return SimpleNamespace(times=times, n_traj=n, p00_mean=p00.mean(axis=-2), p00_sem=sem)


def bootstrap_efficacy_stderr(g, e, beta, rng, n_boot=1000):
    """Trajectory-bootstrap standard error of the trajectory-route gamma_q(t).

    Resamples the rows of each preparation ensemble with replacement
    ``n_boot`` times and takes the ddof-1 spread of the resampled curves, as
    ``efficacy_from_trajectories`` did before its error became closed-form.
    """
    g = np.asarray(g, dtype=float)
    e = np.asarray(e, dtype=float)
    boots = np.empty((n_boot, g.shape[1]))
    for b in range(n_boot):
        ig = rng.integers(0, g.shape[0], g.shape[0])
        ie = rng.integers(0, e.shape[0], e.shape[0])
        boots[b] = efficacy_from_trajectories(two_pass_preparation(g[ig]),
                                              two_pass_preparation(e[ie]), beta).gamma_q
    return boots.std(axis=0, ddof=1)


def closed_two_point_sample(
    beta: float,
    omega: float,
    tau: float,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Work samples (units of hbar*omega_q) of the closed two-point protocol.

    The initial eigenstate n is Gibbs-distributed at ``beta``; the final
    eigenstate m follows the closed transition probabilities at ``omega*tau``
    (``omega`` in the cos^2/sin^2 convention, i.e. half the Bloch drive rate).
    Returns a float (``size=None``) or an array of floats in {-1, 0, +1}.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    _, p_excited = gibbs_weights(beta)
    flip = closed_rabi_probabilities(omega, tau).p10

    n = 1 if size is None else int(size)
    start_excited = rng.random(n) < p_excited
    flipped = rng.random(n) < flip
    # W = +1 for ground -> excited, -1 for excited -> ground, else 0.
    w = np.where(flipped, np.where(start_excited, -1.0, 1.0), 0.0)
    return float(w[0]) if size is None else w


def binned_first_law_check(
    path_sums: np.ndarray,
    outcomes_m0: np.ndarray,
    n_bins: int = 12,
    min_count: int = 20,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Projective outcomes binned against the path-dependent P00 prediction.

    ``path_sums`` holds per-trajectory delta_{0,0} + P~W + P~Q (+ P~F);
    ``outcomes_m0`` is 1 where the projective measurement returned m=0.
    Returns (bin prediction means, bin outcome frequencies, binomial errors,
    reduced chi^2 against the identity line).
    """
    s = np.asarray(path_sums, dtype=float)
    y = np.asarray(outcomes_m0, dtype=float)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    idx = np.clip(np.digitize(s, edges) - 1, 0, n_bins - 1)
    pred, freq, err = [], [], []
    for b in range(n_bins):
        mask = idx == b
        count = int(mask.sum())
        if count < min_count:
            continue
        p_hat = y[mask].mean()
        pred.append(s[mask].mean())
        freq.append(p_hat)
        # Wilson-ish floor keeps empty-variance bins from dividing by zero.
        err.append(math.sqrt(max(p_hat * (1.0 - p_hat), 0.25 / count) / count))
    pred = np.array(pred)
    freq = np.array(freq)
    err = np.array(err)
    if pred.size == 0:
        raise ValueError("no bin reached the minimum occupancy")
    chi2 = float(np.sum(((freq - pred) / err) ** 2) / pred.size)
    return pred, freq, err, chi2
