"""Stochastic-master-equation engine with an optional per-step heat/work ledger.

Each integration step of duration dt is split in two sub-steps, so that every
energy change of the qubit is attributed to exactly one of work (unitary,
drive + feedback) or heat (nonunitary, decay + measurement back-action):

1. *Unitary sub-step*: the exact rotation by ``theta = theta_d + theta_f``,
   the drive's angle plus that of feedback from an earlier step, in the x-z
   plane.  Its energy change (in units of hbar*omega_q this is just the
   change of the excited population) is recorded as work.  A shared rotation
   is booked as half the drive, the feedback, the other half (Strang, SIAM
   J. Numer. Anal. 5, 506 (1968)), each turn booking its own change, while
   the state is the one rotation's (planar rotations commute).  The closed
   form has no division and is within 3e-16 of longdouble per step; it
   moved a trajectory's W from the proportional split's by 6e-3 RMS, far
   below the step's own 8.9e-2 RMS error.  In a batch where some lane's
   feedback angle is nonzero, a lane whose angle is 0 books its dWF at
   rounding level, not 0.

2. *Dissipative sub-step*: the measurement operator
   M = I - (gamma*dt/2)|e><e| + sqrt(eta*gamma)*dy*sigma_- (with
   dy = dV/sqrt(gamma)) and the unmonitored-decay completion, divided by the
   trace, driven by the homodyne increment ``dV = sqrt(eta)*gamma*x*dt +
   sqrt(gamma)*dX`` with dX ~ N(0, dt).  This Kraus form integrates the
   Ito-form stochastic master equation to first order, stays positive by
   construction and keeps pure states exactly pure at eta = 1 (Rouchon &
   Ralph, PRA 91, 012118 (2015)); ``SimConfig`` keeps gamma*dt within
   ``MAX_GAMMA_DT``, where it stays in the unit disk.  Its excited-population
   change is recorded as heat, so the first law dU = dW + dWF + dQ holds
   exactly by construction.

Ordering rule: the feedback angle a law computes from step i (the
phase-locked drive times dt, or minus the optimal law's heat angle) turns
the state at step i + d, d the loop delay in steps.  At d = 0 it acts on
step i's post-measurement state, behind its dissipative sub-step, and books
its own work (Wiseman & Milburn, PRL 70, 548 (1993)): the phase-locked drive
multiplies dV[i] itself, and the optimal law undoes step i's heat angle.
At d >= 1 it joins sub-step 1 of step i + d via a ``DelayLine`` of d - 1.

:func:`split_step` is the one implementation of this step: an array kernel
of the step's angles that :func:`run_batch` calls once per step on every
lane of a batch.  :func:`run_batch` returns an :class:`EnsembleResult`, the
one result type of a batch and of a merged ensemble: per-step sums,
per-trajectory ledger totals, (dWF, dQ) pair moments, sampled-outcome
counts and recorded series, from which the rest derives.  ``_Sums`` is the
one code that writes them: ``snapshot`` reduces the state at point i,
``add`` the ledger of step i, and ``fields`` the stored sums at the end.
:func:`run_batch` states two more rules: ``ledger=False`` integrates the
state alone with the same bytes (the gain/offset sweep and the efficacy
protocol run so), and (G, 1) gain, offset or eta columns add a grid axis to
the lanes, integrated in row blocks of at most ``GRID_LANES`` lanes.

The noise is data: :func:`run_batch` integrates the draws it is given, each
lane's preparation label, its column of the step-major (n_steps, n) block of
noise increments dX and its outcome uniforms, in point order: one per point
when sampling every point, else the final outcome's alone.
``ensemble`` makes them, one stream per trajectory, so each trajectory's
values are reproducible bit-for-bit however the trajectories are batched,
and an ensemble's sums too, since ``ensemble`` reduces them over fixed
chunks.
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .config import FeedbackConfig, SimConfig
from .feedback import DelayLine, optimal_drive, pll_drive

#: Most lanes (grid rows x trajectories) ``run_batch`` integrates as one
#: block over its one noise block; more lanes per step save interpreter
#: overhead but cost memory.
GRID_LANES = 8192

#: ``split_step``'s ``after`` of zero-delay optimal feedback.
UNDO_HEAT = "undo the heat angle"


class _Constants(NamedTuple):
    """What every step reuses, computed once from (gamma, eta, dt) by
    :func:`_constants`; with a (G, 1) eta column, ``drift``, ``a`` and
    ``loss`` are columns too."""

    dt: float
    sqrt_gamma: float
    drift: float | np.ndarray   # sqrt(eta)*gamma: the increment's signal rate
    a: float | np.ndarray       # sqrt(eta*gamma): the Kraus operator's weight of dy
    loss: float | np.ndarray    # (1 - eta)*gamma*dt: the unmonitored decay
    kk: float                   # k*k, with k = 1 - gamma*dt/2
    two_k: float                # 2*k


def _constants(gamma: float, eta, dt: float) -> _Constants:
    k = 1.0 - 0.5 * gamma * dt
    return _Constants(dt, math.sqrt(gamma), np.sqrt(eta) * gamma, np.sqrt(eta * gamma),
                      (1.0 - eta) * gamma * dt, k * k, 2.0 * k)


def homodyne_increment(x, dX, consts: _Constants):
    """Homodyne increments dV = sqrt(eta)*gamma*x*dt + sqrt(gamma)*dX, per lane."""
    return consts.drift * x * consts.dt + consts.sqrt_gamma * dX


def _dissipative_kraus(x, z, dv, consts: _Constants):
    """Measurement-operator (Kraus) dissipative sub-step; positivity-safe.

    With p = (1 + z)/2, q = (1 - z)/2 and c = x/2 the unnormalised state is
    p2 = p + 2*ady*c + ady^2*q + (1 - eta)*gamma*dt*q, c2 = k*(c + ady*q),
    q2 = k^2*q, with ady = sqrt(eta)*dv and k = 1 - gamma*dt/2.  Doubling is
    exact, so 2*ady*c is taken as ady*x and 2*c2 as 2k*(c + ady*q).  Against
    the same step in longdouble at the benchmarks' gamma*dt (0.034, 0.0085),
    eta 0.3-1 and |dX|/sqrt(dt) up to the 5.6 they draw (up to 10), on pure
    and nearly pure states, x and z differ by <= 5.9e-16 (1.3e-15) and
    x^2 + z^2 - 1 <= 1.1e-15 (1.8e-15): p2 loses no digit there.
    """
    if consts.sqrt_gamma == 0.0:
        return x, z
    ady = consts.a * (dv / consts.sqrt_gamma)
    q = 0.5 * (1.0 - z)  # excited population
    p2 = 0.5 * (1.0 + z) + ady * x + ady * ady * q + consts.loss * q
    q2 = consts.kk * q
    trace = p2 + q2
    return consts.two_k * (0.5 * x + ady * q) / trace, (p2 - q2) / trace


def _rotate(x, z, theta):
    """The rotation of (x, z) by ``theta``.

    Its infinitesimal limit is ``dz = theta*x``, ``dx = -theta*z``.  A drive
    of Bloch angular rate ``omega`` therefore advances the oscillation phase
    ``atan2(-x, z)`` at rate ``+omega``; a global sign flip of x is an
    equivalent gauge.
    """
    ct = np.cos(theta)
    st = np.sin(theta)
    return x * ct - z * st, z * ct + x * st


class SplitStep(NamedTuple):
    """Per-lane result of :func:`split_step`, energies in units of hbar*omega_q;
    the ledger (``dw``, ``dwf``, ``dq``) is None when the step books none."""

    x: np.ndarray
    z: np.ndarray
    dw: np.ndarray | None    # work done by the drive
    dwf: np.ndarray | None   # work done by the feedback
    dq: np.ndarray | None    # heat
    x_mid: np.ndarray   # state between the unitary and the dissipative sub-step
    z_mid: np.ndarray


def split_step(x, z, dv, theta_d: float, theta_f, consts: _Constants,
               after=None, ledger: bool = True) -> SplitStep:
    """One two-sub-step update of every lane of (x, z).

    ``dv`` is each lane's homodyne increment, ``theta_d`` the drive's angle
    over the step and ``theta_f`` that of feedback from an earlier step (a
    scalar or one per lane), which joins the drive's rotation; ``consts``
    are the step constants ``run_batch`` computes once per block.  With
    ``ledger``, rotations are booked as work and the Kraus sub-step as heat,
    so dW + dWF + dQ is the change of the excited population; without it the
    state comes out with the same bytes and nothing is booked.  A rotation
    that any lane's ``theta_f`` shares is booked as a sequence (the module
    docstring); otherwise the drive books it all.

    ``after`` is a zero-delay law's feedback, an angle or ``UNDO_HEAT``
    (``theta_f`` is then 0), acting behind the Kraus sub-step with its own
    work (the ordering rule).  Undoing the heat angle, the turn from s1 =
    (x1, z1) to the post-Kraus s2, leaves s1*|s2|/|s1|: no cos or sin.  |s1|
    is the lane's radius before the step: 1 at a run's start, then a Kraus
    output's, which at gamma*dt <= ``MAX_GAMMA_DT`` (k > 0) is 0 for at most
    one increment per state; such a lane turns NaN, refused by ``run_batch``.
    """
    theta = theta_d + theta_f
    x1, z1 = _rotate(x, z, theta)
    x3, z3 = x2, z2 = _dissipative_kraus(x1, z1, dv, consts)
    if after is UNDO_HEAT:
        scale = np.sqrt((x2 * x2 + z2 * z2) / (x1 * x1 + z1 * z1))
        x3, z3 = x1 * scale, z1 * scale
    elif after is not None:
        x3, z3 = _rotate(x2, z2, after)
    if not ledger:
        return SplitStep(x3, z3, None, None, None, x1, z1)
    dpe = 0.5 * (z - z1)  # the first rotation's excited-population change
    if np.logical_or.reduce(theta_f, axis=None):  # np.any without its dispatch
        # The feedback's turn books 1/2 (za - zb): za is the z of (x, z)
        # turned by h, zb that of (x1, z1) turned back by h.
        h = 0.5 * theta_d
        dwf = math.cos(h) * dpe + 0.5 * math.sin(h) * (x + x1)
        dw = dpe - dwf
    else:
        dw, dwf = dpe, 0.5 * (z2 - z3)
    return SplitStep(x3, z3, dw, dwf, 0.5 * (z1 - z2), x1, z1)


#: Names ``record`` accepts: state series have n_steps + 1 columns, per-step
#: series (homodyne increment dV, its noise dX and the ledger) have n_steps.
STATE_SERIES = ("p00", "x", "z")
STEP_SERIES = ("dw", "dwf", "dq", "dv", "dx")
SERIES = STATE_SERIES + STEP_SERIES

#: ``EnsembleResult`` fields that ``ensemble._merge`` adds in chunk order, or
#: merges as centred sums of squares of the named sum field; every other
#: array field holds one entry per trajectory and is concatenated.
_SUM = {"merge": "sum"}
_M2 = {"merge": "m2", "of": "p00_sum"}


@dataclass
class EnsembleResult:
    """Work, feedback-work and heat ledgers of a batch or ensemble of trajectories.

    ``run_batch`` returns one per batch and ``ensemble._merge`` combines them:
    sums add, per-trajectory arrays and series join along the trajectory axis.
    The five per-step sums, ``p00_m2`` (the squared deviations of P00 from
    its mean, summed about each batch's own mean so that no spread is too
    small to keep) and ``pair_moments`` are stored; the means and
    ``p00_sem`` derive from them, as ``final_p00`` and the first-law
    ``residuals`` do from ``final_z``, the labels and the ledger totals.
    ``pair_moments`` row k pools the pairs (a, b) = (dWF[i + L], dQ[i]) at
    lag L = ``lags[k]`` over every lane and aligned step, as the sums
    (count, a, b, a^2, b^2, a*b); ``stats.pooled_pearson_r`` derives r.
    ``hits[..., i]`` counts the trajectories whose outcome sampled at point i
    equals their preparation label; it is empty unless the batch was given
    one outcome uniform per point, and its last point counts ``outcomes``.
    Without the ledger (``run_batch(..., ledger=False)``), ``dw_sum``,
    ``dwf_sum``, ``dq_sum``, ``w``, ``wf`` and ``q`` have an empty last axis,
    and ``residuals`` and ``p_sum_00`` raise ``ValueError``.
    Per-trajectory arrays are indexed by trajectory index (0..n_traj-1);
    `w`, `wf`, `q` are the integrated work/feedback-work/heat in the m=1
    (excited projector) convention, i.e. also the transition-probability
    contributions P~W/P~F/P~Q for m=1; negate for m=0.  A grid run (see
    ``run_batch``) gives every field but ``initial_labels`` a leading grid
    axis; ``n_traj`` counts trajectories per grid point.
    """

    sim: SimConfig
    fb: FeedbackConfig
    n_traj: int
    lags: tuple[int, ...]                         # ascending, distinct
    p00_sum: np.ndarray = field(metadata=_SUM)    # (steps+1,) ground population
    p00_m2: np.ndarray = field(metadata=_M2)      # (steps+1,)
    dw_sum: np.ndarray = field(metadata=_SUM)     # (steps,) per-step work, or (0,)
    dwf_sum: np.ndarray = field(metadata=_SUM)
    dq_sum: np.ndarray = field(metadata=_SUM)
    pair_moments: np.ndarray = field(metadata=_SUM)  # (len(lags), 6)
    hits: np.ndarray = field(metadata=_SUM)       # (steps+1,) or (0,), int
    initial_labels: np.ndarray                    # (n_traj,) int8
    w: np.ndarray                                 # (n_traj,), or (0,) without a ledger
    wf: np.ndarray
    q: np.ndarray
    final_z: np.ndarray
    outcomes: np.ndarray                          # final projective outcomes, int8
    series: dict[str, np.ndarray]                 # requested per-trajectory series

    @cached_property
    def times(self) -> np.ndarray:
        return self.sim.dt * np.arange(self.sim.n_steps + 1)

    @cached_property
    def p00_mean(self) -> np.ndarray:
        """Ground-population ensemble mean vs time."""
        return self.p00_sum / float(self.n_traj)

    @cached_property
    def p00_sem(self) -> np.ndarray:
        """Standard error of ``p00_mean``; NaN below two trajectories, which
        leave no sample variance."""
        if self.n_traj < 2:
            return np.full_like(self.p00_sum, np.nan)
        n = float(self.n_traj)
        return np.sqrt(self.p00_m2 / ((n - 1.0) * n))

    @cached_property
    def dw_mean(self) -> np.ndarray:
        """Mean per-step work increments, (steps,)."""
        return self.dw_sum / float(self.n_traj)

    @cached_property
    def dwf_mean(self) -> np.ndarray:
        return self.dwf_sum / float(self.n_traj)

    @cached_property
    def dq_mean(self) -> np.ndarray:
        return self.dq_sum / float(self.n_traj)

    @cached_property
    def final_p00(self) -> np.ndarray:
        """Per-trajectory ground population of the final state."""
        return 0.5 * (1.0 + self.final_z)

    def _ledger_total(self) -> np.ndarray:
        """Per-trajectory W + WF + Q; a run without a ledger has none."""
        if self.w.shape != self.final_z.shape:
            raise ValueError("this result was integrated without the heat/work ledger "
                             "(ledger=False)")
        return self.w + self.wf + self.q

    @cached_property
    def residuals(self) -> np.ndarray:
        """Per-trajectory first-law residuals |dU - (W + WF + Q)|."""
        du = 0.5 * (1.0 - self.final_z) - self.initial_labels  # label: initial P11
        return np.abs(du - self._ledger_total())

    def p_sum_00(self) -> np.ndarray:
        """Per-trajectory path-dependent P~W + P~Q + P~F for m = n = 0."""
        return -self._ledger_total()


def _row_blocks(lanes: tuple[int, ...]) -> list[slice]:
    """The grid rows of ``lanes`` cut into blocks of as many rows as fit in
    ``GRID_LANES`` lanes, the last block taking the rest (one row per block
    if a row alone exceeds it); without a grid axis, one block of everything."""
    if len(lanes) == 1:
        return [slice(None)]
    size = max(1, GRID_LANES // lanes[-1])
    return [slice(a, a + size) for a in range(0, lanes[0], size)]


class _Sums:
    """The accumulator of one ``run_batch`` call (see the module docstring):
    ``out`` holds each stored array by its field or series name, grid axis
    first, so that ``rows`` cuts a block of grid rows from all of them."""

    def __init__(self, lanes: tuple[int, ...], steps: int, lags: tuple[int, ...],
                 record: frozenset, u: np.ndarray | None, excited: np.ndarray,
                 ledger: bool):
        grid, self.n, self.steps = lanes[:-1], lanes[-1], steps
        self.state_series = [k for k in STATE_SERIES if k in record]
        self.step_series = [k for k in STEP_SERIES if k in record]
        self.u, self.excited = u, excited  # u: the outcome uniforms when sampling
        out = self.out = {}
        out["p00_sum"], out["p00_m2"] = np.zeros((2, *grid, steps + 1))
        out["hits"] = np.zeros((*grid, 0 if u is None else steps + 1), dtype=np.int64)
        # Without a ledger, its sums and totals keep an empty last axis.
        out["dw_sum"], out["dwf_sum"], out["dq_sum"] = np.zeros((3, *grid, steps * ledger))
        out["w"], out["wf"], out["q"] = np.zeros((3, *grid, self.n * ledger))
        out["final_z"] = np.zeros(lanes)
        # Per lag and step, the sums (count, dWF[i], dQ[i - lag], dWF^2, dQ^2,
        # dWF*dQ) of the pairs of step i.  Each step reduces dWF^2 and dQ^2 once,
        # into scratch that only a paired lag needs, and per lag only the cross
        # term, with dQ[i - lag] from a line.
        self.paired = [(k, lag) for k, lag in enumerate(lags) if lag < steps]
        if self.paired:
            out["dwf_sq"], out["dq_sq"] = np.zeros((2, *grid, steps))
        out["pair_moments"] = np.zeros((*grid, len(lags), 6, steps))
        out.update((k, np.empty((*lanes, steps + (k in STATE_SERIES))))
                   for k in SERIES if k in record)

    def rows(self, rows: slice) -> "_Sums":
        block = copy(self)
        block.out = {k: a[rows] for k, a in self.out.items()}
        block.lines = [DelayLine(lag) for _, lag in self.paired]
        return block

    def snapshot(self, i: int, x, z) -> None:
        out = self.out
        p00 = 0.5 * (1.0 + z)
        out["p00_sum"][..., i] = total = p00.sum(axis=-1)
        d = p00 - (total / self.n)[..., None]
        out["p00_m2"][..., i] = (d * d).sum(axis=-1)
        if self.u is not None:
            # The outcome test of ``outcomes``: excited where u < P11.
            hit = (self.u[i] < 0.5 * (1.0 - z)) == self.excited
            out["hits"][..., i] = np.count_nonzero(hit, axis=-1)
        for name in self.state_series:
            out[name][..., i] = {"p00": p00, "x": x, "z": z}[name]
        if i == self.steps:
            out["final_z"][...] = z

    def add(self, i: int, dw, dwf, dq, dv, dx) -> None:
        out = self.out
        out["w"] += dw
        out["wf"] += dwf
        out["q"] += dq
        out["dw_sum"][..., i] = dw.sum(axis=-1)
        out["dwf_sum"][..., i] = dwf.sum(axis=-1)
        out["dq_sum"][..., i] = dq.sum(axis=-1)
        if self.paired:
            out["dwf_sq"][..., i] = (dwf * dwf).sum(axis=-1)
            out["dq_sq"][..., i] = (dq * dq).sum(axis=-1)
            for (k, lag), line in zip(self.paired, self.lines):
                dq_then = line.push(dq)  # dQ[i - lag]
                if i >= lag:
                    out["pair_moments"][..., k, 5, i] = (dwf * dq_then).sum(axis=-1)
        for name in self.step_series:
            out[name][..., i] = {"dw": dw, "dwf": dwf, "dq": dq, "dv": dv, "dx": dx}[name]

    def fields(self) -> dict:
        out = dict(self.out)
        # A huge gain overflows the feedback angle, and NaN then fills the lane.
        for name in ("final_z", "w", "wf", "q"):
            if not np.isfinite(out[name]).all():
                raise ValueError(f"{name} is not finite: a feedback angle overflowed")
        # The other pair sums are the per-step reductions, aligned by the lag.
        if self.paired:
            dwf_sq, dq_sq = out.pop("dwf_sq"), out.pop("dq_sq")
            for k, lag in self.paired:
                m, kept = out["pair_moments"][..., k, :, lag:], self.steps - lag
                m[..., 0, :] = self.n
                m[..., 1, :], m[..., 3, :] = out["dwf_sum"][..., lag:], dwf_sq[..., lag:]
                m[..., 2, :], m[..., 4, :] = out["dq_sum"][..., :kept], dq_sq[..., :kept]
        out["pair_moments"] = out["pair_moments"].sum(axis=-1)
        out["series"] = {k: out.pop(k) for k in self.state_series + self.step_series}
        return out


def run_batch(
    cfg: SimConfig,
    fb: FeedbackConfig,
    labels: np.ndarray,
    noise: np.ndarray,
    u: np.ndarray,
    record: Iterable[str] = (),
    lags: Iterable[int] = (),
    ledger: bool = True,
) -> EnsembleResult:
    """Advance a batch of trajectories in lockstep (vectorized over the batch).

    The batch integrates the draws it is given: ``labels`` (n,) int8, each
    trajectory's preparation (0 or 1); ``noise`` (n_steps, n), step i's
    dX ~ N(0, dt) in row i; ``u``, the outcome uniforms in point order,
    row i sampling point i and the last row the final outcome.

    ``record`` names the per-trajectory series to keep, from ``SERIES``;
    unrequested series are not allocated.  For each lag L in ``lags`` the
    step loop pools the moments of the pairs (dWF[i + L], dQ[i]) into
    ``pair_moments``, keeping only the last L dQ arrays; a lag of n_steps or
    more has no pairs.  Without lags the loop does no extra work.

    A ``u`` of n_steps + 1 rows counts the outcome sampled at every point
    into ``hits``, and every other field keeps its bytes; at n_steps = 0
    that is also the one-row ``u`` of the final outcome alone.

    ``ledger=False`` integrates the state alone: no step books work or heat,
    so ``dw_sum``, ``dwf_sum``, ``dq_sum``, ``w``, ``wf`` and ``q`` come back
    with an empty last axis, and every other field with the bytes of a run
    with the ledger.  Lags and per-step series read the ledger's step loop,
    so asking for either without it is a ``ValueError``.

    ``fb.gain``, ``fb.offset`` and ``cfg.eta`` may be (G, 1) columns of a
    grid: the lanes are then (G, n) with each trajectory's noise shared along
    the grid axis, and every reduction runs along the last axis, so grid
    point g gets the bytes a run with its scalar gain, offset and eta gives.
    The grid rows are integrated over the one noise block in the blocks of
    ``_row_blocks``, each writing its rows of the outputs.
    """
    record = frozenset(record)
    unknown = record.difference(SERIES)
    if unknown:
        raise ValueError(
            f"unknown record name(s) {sorted(unknown)}; valid names are "
            + ", ".join(SERIES)
        )
    lags = tuple(sorted(set(lags)))
    if any(lag < 0 or lag != int(lag) for lag in lags):
        raise ValueError(f"lags must be non-negative integers, got {lags}")
    if not ledger and lags:
        raise ValueError(f"lags {lags} pair the ledger's dWF and dQ: they need ledger=True")
    if not ledger and record.intersection(STEP_SERIES):
        raise ValueError(f"step series {sorted(record.intersection(STEP_SERIES))} are "
                         "recorded with the ledger: they need ledger=True")
    n = len(labels)
    # (G, 1) gain/offset/eta columns give the lanes a leading grid axis: (G, n).
    lanes = np.broadcast_shapes(np.shape(fb.gain), np.shape(fb.offset), np.shape(cfg.eta),
                                (n,))
    steps = cfg.n_steps
    dt = cfg.dt
    theta_d = cfg.omega_r * dt
    z_init = np.where(labels == 0, 1.0, -1.0)
    sums = _Sums(lanes, steps, lags, record, u if len(u) == steps + 1 else None, labels == 1,
                 ledger)

    delay = min(fb.delay_steps, steps)  # a longer line gives only zeros inside the run
    for rows in _row_blocks(lanes):
        # This block's rows of the grid columns and of the outputs.
        gain, offset, eta = (p if np.size(p) == 1 else p[rows]
                             for p in (fb.gain, fb.offset, cfg.eta))
        consts = _constants(cfg.gamma, eta, dt)
        block = sums.rows(rows)
        z = np.broadcast_to(z_init, block.out["final_z"].shape).copy()
        x = np.zeros(z.shape)
        block.snapshot(0, x, z)
        line, theta_f, angle = DelayLine(max(delay - 1, 0)), 0.0, 0.0
        after = UNDO_HEAT if fb.mode == "optimal" and not delay else None
        for i, dxi in enumerate(noise):
            dv = homodyne_increment(x, dxi, consts)
            if fb.mode == "phase_locked":
                angle = pll_drive(dv, i * dt, cfg.omega_r, gain, offset, labels) * dt
                after = None if delay else angle
            x, z, dw, dwf, dq, x_mid, z_mid = split_step(x, z, dv, theta_d, theta_f, consts,
                                                         after, ledger)
            if fb.mode == "optimal" and delay:
                angle = optimal_drive(x_mid, z_mid, x, z)
            theta_f = line.push(angle) if delay else 0.0  # the angle of step i + delay
            if ledger:
                block.add(i, dw, dwf, dq, dv, dxi)
            block.snapshot(i + 1, x, z)
            # Freed before the next step allocates its own.
            del dv, dw, dwf, dq, x_mid, z_mid

    fields = sums.fields()
    outcomes = (u[-1] < 0.5 * (1.0 - fields["final_z"])).astype(np.int8)
    return EnsembleResult(sim=cfg, fb=fb, n_traj=n, lags=lags, initial_labels=labels,
                          outcomes=outcomes, **fields)
