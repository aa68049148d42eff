"""State algebra for a qubit confined to the x-z plane of the Bloch sphere.

The system simulated by this package is a two-level atom with Hamiltonian
``H = -(hbar*omega_q/2) * sigma_z``, driven along sigma_y and radiatively
decaying through sigma_minus while one quadrature (sigma_x) of its
fluorescence is monitored.  Three conventions follow from that and are used
everywhere in the package:

* ``z = +1`` is the *ground* state: with the Hamiltonian above the
  ``sigma_z = +1`` eigenstate has the lower energy, and decay drives the
  relaxation term ``gamma * (1 - z)`` of the Bloch equations.
* The drive (sigma_y) and the monitored quadrature (sigma_x) keep the
  conditional state in the x-z plane, so the density matrix is fully described
  by two real numbers: ``rho00 = (1+z)/2``, ``rho11 = (1-z)/2``,
  ``rho01 = x/2`` (real).
* ``rotate_y(state, theta)`` uses the sign convention whose infinitesimal
  limit is ``dz = theta*x``, ``dx = -theta*z``.  A drive of Bloch angular
  rate ``omega`` therefore advances the oscillation phase ``atan2(-x, z)``
  at rate ``+omega``; a global sign flip of x is an equivalent gauge.

Energies are reported in units of ``hbar*omega_q``: the eigenvalues are
``E0 = -1/2`` (ground) and ``E1 = +1/2`` (excited), so every energy change of
the qubit is numerically a change of the excited population.

Note the factor of two between the drive rate and the transition-probability
formula: a drive of Bloch rate ``omega_r`` flips ground to excited in time
``pi/omega_r``, so the familiar ``P01 = sin^2(omega*t)`` form of
:func:`closed_rabi_probabilities` is reproduced with ``omega = omega_r/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

#: Tolerance on x^2 + z^2 <= 1 for a state to count as physical (the SME
#: integrator renormalizes, so valid states never exceed the disk by more
#: than rounding noise).
NORM_EPS = 1e-9


@dataclass(frozen=True)
class BlochState:
    """Conditional qubit state, restricted to the x-z plane.

    Attributes
    ----------
    x : float
        ``<sigma_x>``, twice the (real) coherence rho01.
    z : float
        ``<sigma_z>``; +1 is the ground state.
    """

    x: float
    z: float

    def is_valid(self, eps: float = NORM_EPS) -> bool:
        """Whether the state lies within the unit disk (up to ``eps``)."""
        return self.x * self.x + self.z * self.z <= 1.0 + eps


GROUND = BlochState(0.0, 1.0)
EXCITED = BlochState(0.0, -1.0)


def ground_population(s: BlochState) -> float:
    """rho00 = (1 + z) / 2, the probability of finding the ground state."""
    return 0.5 * (1.0 + s.z)


def excited_population(s: BlochState) -> float:
    """rho11 = (1 - z) / 2, the probability of finding the excited state."""
    return 0.5 * (1.0 - s.z)


def purity(s: BlochState) -> float:
    """tr(rho^2) = (1 + x^2 + z^2) / 2, in [1/2, 1]."""
    return 0.5 * (1.0 + s.x * s.x + s.z * s.z)


def phase(s: BlochState) -> float:
    """Oscillation phase atan2(-x, z), advancing at +omega under a drive.

    Closed evolution from the ground state sits at phase ``omega*t``; from the
    excited state at ``omega*t + pi``.  Undefined (returns 0.0) only for the
    maximally mixed state x = z = 0.
    """
    return math.atan2(-s.x, s.z)


def rotate_y(s: BlochState, theta: float) -> BlochState:
    """Exact rotation in the x-z plane by angle ``theta``.

    ``z' = z cos(theta) + x sin(theta)``, ``x' = x cos(theta) - z sin(theta)``;
    the infinitesimal limit is ``dz = theta*x``, ``dx = -theta*z``, i.e. the
    unitary drive term of the Bloch-form stochastic master equation with
    ``theta = omega*dt``.  Preserves x^2 + z^2 exactly (up to rounding).
    """
    c = math.cos(theta)
    t = math.sin(theta)
    return BlochState(x=s.x * c - s.z * t, z=s.z * c + s.x * t)


class RabiTransitions(NamedTuple):
    """Closed-system transition probabilities between energy eigenstates."""

    p00: float
    p11: float
    p10: float
    p01: float

    def as_matrix(self):
        """2x2 list ``T[n][m] = P(m | started in n)`` (rows sum to 1)."""
        return [[self.p00, self.p10], [self.p01, self.p11]]


def closed_rabi_probabilities(omega: float, t: float) -> RabiTransitions:
    """Transition probabilities for closed Rabi evolution.

    ``P00 = P11 = cos^2(omega*t)`` and ``P10 = P01 = sin^2(omega*t)``.  Here
    ``omega`` is *half* the Bloch angular rate of the drive (see the module
    docstring): a full flip happens at ``omega*t = pi/2``.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    c2 = math.cos(omega * t) ** 2
    s2 = 1.0 - c2
    return RabiTransitions(p00=c2, p11=c2, p10=s2, p01=s2)


def gibbs_weights(beta: float) -> tuple[float, float]:
    """(p_ground, p_excited) of the thermal state at inverse temperature ``beta``.

    ``beta`` is in 1/(hbar*omega_q); the eigenvalues are E0 = -1/2, E1 = +1/2.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    # Z = 2 cosh(beta/2); weights e^{+beta/2}/Z and e^{-beta/2}/Z.
    half = 0.5 * beta
    z = 2.0 * math.cosh(half)
    return math.exp(half) / z, math.exp(-half) / z
