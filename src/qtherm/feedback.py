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

* **Optimal unitary feedback** (requires real-time state knowledge): rotate
  the state so its oscillation phase ``atan2(-x, z)`` matches the phase of
  closed evolution, ``omega_r*t + phi``.  Being a rotation it never changes
  purity, which is exactly why it cannot fully restore unitarity at eta < 1.

Both controllers can run through a :class:`DelayLine` that delays the applied
drive by a whole number of integration steps.
"""

from __future__ import annotations

from collections import deque

import numpy as np


def _wrap_angle(a):
    """Wrap angle(s) to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(a), 2.0 * np.pi)


def pll_drive(dv, t: float, omega_r: float, gain: float, offset: float, phi):
    """Phase-locked feedback drive (rad/us); array-friendly in dv and phi."""
    return gain * (np.cos(omega_r * t + phi) + offset) * dv


def optimal_drive(x, z, t: float, omega_r: float, phi, dt: float):
    """Optimal feedback drive (rad/us) for state arrays at time ``t``."""
    theta = _wrap_angle(omega_r * t + phi - np.arctan2(-x, z))
    return theta / dt


class DelayLine:
    """Fixed-latency FIFO of feedback drive values.

    Output at step i equals input at step i - delay_steps; the first
    ``delay_steps`` outputs are zero.  Values may be floats or arrays (a
    scalar 0.0 is returned during warm-up and broadcasts fine).
    """

    def __init__(self, delay_steps: int):
        if delay_steps < 0:
            raise ValueError("delay_steps must be >= 0")
        self.delay_steps = int(delay_steps)
        self._buf = deque([0.0] * self.delay_steps)

    def push(self, omega_f_now):
        """Insert the freshly computed drive, return the delayed one."""
        if self.delay_steps == 0:
            return omega_f_now
        self._buf.append(omega_f_now)
        return self._buf.popleft()
