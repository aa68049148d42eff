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
* The sign convention of a rotation in the x-z plane is stated where the
  package's one rotation lives, ``sme._rotate``.

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


GROUND = BlochState(0.0, 1.0)
EXCITED = BlochState(0.0, -1.0)


class RabiTransitions(NamedTuple):
    """Closed-system transition probabilities between energy eigenstates."""

    p00: float
    p11: float
    p10: float
    p01: float


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
    # e^{-/+beta/2} / (2 cosh(beta/2)), written with e^-beta <= 1 so that no
    # beta overflows.
    boltzmann = math.exp(-beta)
    return 1.0 / (1.0 + boltzmann), boltzmann / (1.0 + boltzmann)
