"""Physical / numerical run parameters and feedback-loop parameters.

Defaults mirror the experiment the simulator models: decay rate
gamma = 1.7 /us, Rabi drive Omega_R/2pi = 1 MHz (Bloch angular rate
2*pi rad/us), homodyne quantum efficiency eta = 0.35, 20 ns integration
steps, 8 us protocols, reference gain A = 34 with offset B = -1, and inverse
temperature beta = 3.5 for the two-point work statistics.  The feedback loop
delay defaults to zero; the experiment's 100 ns loop is ``delay_steps = 5``
at the default step.

Time is in microseconds throughout; rates in 1/us; angles in radians;
energies in units of hbar*omega_q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

#: Allowed values of SimConfig.initial_state besides the eigenstate labels.
THERMAL = "thermal"

#: Largest gamma*dt a step may take: a quarter decay time.  Within it, and
#: for increments within ten standard deviations, the dissipative sub-step
#: keeps every state in the unit disk to rounding (the property test of
#: ``sme._dissipative_kraus`` draws gamma*dt up to this value).
MAX_GAMMA_DT = 0.25

#: Feedback modes. "phase_locked" multiplies the homodyne record with a
#: reference oscillator; "optimal" undoes each completed step's heat angle.
FEEDBACK_MODES = ("none", "phase_locked", "optimal")


def _require_finite(obj, names: tuple[str, ...]) -> None:
    """Raise ValueError naming the first field of ``obj`` that is NaN or infinite."""
    for name in names:
        value = getattr(obj, name)
        # A Python int is finite at any size; np.isfinite rejects one beyond int64.
        if value is not None and not isinstance(value, int) and not np.isfinite(value).all():
            shown = value if np.ndim(value) == 0 else np.ravel(value).tolist()
            raise ValueError(f"{name} must be finite, got {shown!r}")


def _require_scalar_or_column(obj, names: tuple[str, ...]) -> None:
    """Raise ValueError naming the first field of ``obj`` that is neither a
    scalar nor a non-empty (G, 1) column (a grid run as lanes)."""
    for name in names:
        shape = np.shape(getattr(obj, name))
        if shape and not (len(shape) == 2 and shape[0] > 0 and shape[1] == 1):
            raise ValueError(f"{name} must be a scalar or a (G, 1) column, got shape {shape}")


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulation protocol.

    Attributes
    ----------
    gamma : float
        Radiative decay rate (1/us).
    omega_r : float
        Rabi drive strength as the *Bloch angular rate* (rad/us).  The
        population oscillation P00(t) then has period ``2*pi/omega_r``
        (1 us at the default), and the transition-probability formula
        cos^2/sin^2 is evaluated at ``omega_r/2``.
    eta : float or (G, 1) array
        Homodyne quantum efficiency, in [0, 1].  A (G, 1) column is a grid
        of G efficiencies run as lanes on shared noise (see
        ``sme.run_batch``); every element is checked.
    dt : float
        Integration step (us).  ``tau/dt`` must be an integer, and
        ``gamma*dt`` at most ``MAX_GAMMA_DT``.
    tau : float
        Protocol duration (us).
    seed : int
        Base RNG seed, the same for every preparation; trajectory k's stream
        is keyed by it (see ``ensemble.rng_for_trajectory``).
    initial_state : 0, 1 or "thermal"
        Eigenstate preparation, or a Gibbs sample at ``beta`` per trajectory.
    beta : float
        Inverse temperature (1/(hbar*omega_q)) for thermal preparation and
        the Jarzynski statistics.

    Every trajectory ends with an ideal projective energy measurement whose
    outcome is recorded.
    """

    gamma: float = 1.7
    omega_r: float = 2.0 * math.pi
    eta: float = 0.35
    dt: float = 0.02
    tau: float = 8.0
    seed: int = 1
    initial_state: Union[int, str] = 0
    beta: float = 3.5

    def __post_init__(self) -> None:
        _require_finite(self, ("gamma", "omega_r", "eta", "dt", "tau", "beta"))
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        _require_scalar_or_column(self, ("eta",))
        eta = np.asarray(self.eta)
        if not ((eta >= 0.0) & (eta <= 1.0)).all():
            raise ValueError("eta must be in [0, 1]")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.gamma * self.dt > MAX_GAMMA_DT:
            raise ValueError(
                f"gamma*dt must be <= {MAX_GAMMA_DT} (a quarter decay time per step), "
                f"got gamma = {self.gamma} /us and dt = {self.dt} us"
            )
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        steps = self.tau / self.dt
        if not math.isfinite(steps):
            raise ValueError(f"tau/dt must be a finite step count, got {self.tau}/{self.dt}")
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(
                f"tau/dt must be an integer step count, got {self.tau}/{self.dt}"
            )
        if (not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool)
                or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.initial_state not in (0, 1, THERMAL):
            raise ValueError(
                f"initial_state must be 0, 1 or {THERMAL!r}, got {self.initial_state!r}"
            )
        if self.beta < 0:
            raise ValueError("beta must be >= 0")

    @property
    def n_steps(self) -> int:
        return int(round(self.tau / self.dt))

    def with_(self, **kwargs) -> "SimConfig":
        """Copy with fields replaced (convenience around dataclasses.replace)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class FeedbackConfig:
    """Feedback-loop parameters.

    Attributes
    ----------
    mode : str
        One of ``FEEDBACK_MODES``.
    gain : float
        Phase-locked reference gain A (1/us): the feedback drive is
        ``Omega_F = A * (cos(omega_r*t + phi) + B) * dV``, with phi = 0 for
        a ground preparation and pi for an excited one.  Since dV is
        dimensionless, A in these units matches the experimental multiplier
        convention; the loop-analysis optimum is ``sqrt(eta)/dt`` (about 29.6
        at eta = 0.35, dt = 20 ns, empirically 34).
    offset : float
        Reference offset B (dimensionless, -1 in the derived law).  Gain and
        offset may also be (G, 1) columns: a grid of G loops run as lanes.
    delay_steps : int
        Loop delay in steps (dt units): the drive computed from step i acts at
        step i + delay_steps, at zero delay behind step i's back-action.
    """

    mode: str = "none"
    gain: float = 34.0
    offset: float = -1.0
    delay_steps: int = 0

    def __post_init__(self) -> None:
        _require_finite(self, ("gain", "offset", "delay_steps"))
        _require_scalar_or_column(self, ("gain", "offset"))
        if self.mode not in FEEDBACK_MODES:
            raise ValueError(
                f"mode must be one of {FEEDBACK_MODES}, got {self.mode!r}"
            )
        if self.delay_steps < 0 or self.delay_steps != int(self.delay_steps):
            raise ValueError("delay_steps must be a non-negative integer")

    def with_(self, **kwargs) -> "FeedbackConfig":
        return replace(self, **kwargs)


NO_FEEDBACK = FeedbackConfig(mode="none")


def delay_steps_for(delay_ns: float, dt_us: float) -> int:
    """Loop delay in whole steps for a delay given in nanoseconds."""
    if not math.isfinite(delay_ns):
        raise ValueError(f"delay_ns must be finite, got {delay_ns!r}")
    steps = delay_ns * 1e-3 / dt_us
    if abs(steps - round(steps)) > 1e-6:
        raise ValueError(
            f"delay of {delay_ns} ns is not a whole number of {dt_us*1e3:g} ns steps"
        )
    return int(round(steps))
