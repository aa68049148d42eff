"""Feedback laws that compensate measurement heat with extra drive.

Two controllers are implemented:

* **Phase-locked loop** (the experimentally realizable law): the homodyne
  increment is multiplied by a reference oscillator,

      Omega_F = A * (cos(omega_r*t + phi) + B) * dV,

  which approximates the heat-cancelling drive
  ``-sqrt(eta) * (1 - z) * dV/dt`` by standing in the closed-evolution target
  ``cos(omega_r*t + phi)`` for z.  A carries 1/us (dV is dimensionless), so
  the loop analysis predicts an optimum near ``A = sqrt(eta)/dt`` with
  ``B = -1``.

* **Optimal unitary feedback** (requires real-time state knowledge): undo
  each step's heat angle, ``Omega_F*dt = -theta_Q``, the turn of the phase
  ``atan2(-x, z)`` in its dissipative sub-step.  Being a rotation it never
  changes purity, so it cannot fully restore unitarity at eta < 1.

Both follow one rule (see :mod:`qtherm.sme`): the feedback angle computed
from step i (the loop's rate times dt, or ``optimal_drive``'s angle) turns
the state at step i + delay_steps, at zero delay behind step i's measurement
back-action (where the engine undoes the heat angle by a rescale, without
``optimal_drive``), else through a :class:`DelayLine`.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np


#: Reference phase phi of the phase-locked loop, indexed by preparation label.
_PHASES = np.array([0.0, math.pi])


def pll_drive(dv, t: float, omega_r: float, gain: float, offset: float, labels):
    """Phase-locked feedback drive (rad/us) of each lane.

    A lane's preparation label picks its reference phase: phi = 0 for a
    ground start (label 0), pi for an excited one (label 1).  The factor
    ``gain * (cos(omega_r*t + phi) + offset)`` is evaluated once per phase
    (per grid point and phase for a (G, 1) gain or offset), then gathered
    per lane; each lane gets the same operations in the same order as if it
    were evaluated lane by lane.
    """
    return np.take(gain * (np.cos(omega_r * t + _PHASES) + offset), labels, axis=-1) * dv


def optimal_drive(x_mid, z_mid, x, z):
    """Optimal feedback angle: minus the heat angle, the shortest turn of
    ``atan2(-x, z)`` from (x_mid, z_mid) to (x, z)."""
    return -np.arctan2(x_mid * z - z_mid * x, z_mid * z + x_mid * x)


class DelayLine:
    """Fixed-latency FIFO of feedback angles (or of any per-step value).

    Output at step i equals input at step i - delay_steps; the first
    ``delay_steps`` outputs are zero.  Values may be floats or arrays (a
    scalar 0.0 is returned during warm-up and broadcasts fine).
    """

    def __init__(self, delay_steps: int):
        if delay_steps < 0:
            raise ValueError("delay_steps must be >= 0")
        self.delay_steps = int(delay_steps)
        self._buf = deque([0.0] * self.delay_steps)

    def push(self, value):
        """Insert the freshly computed value, return the delayed one."""
        if self.delay_steps == 0:
            return value
        self._buf.append(value)
        return self._buf.popleft()
