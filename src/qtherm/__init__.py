"""Heat and work along Monte Carlo trajectories of a monitored, driven qubit.

A two-level system is driven along sigma_y, decays through sigma_minus, and
has the sigma_x quadrature of its fluorescence monitored by a homodyne
detector of efficiency eta.  The package integrates the conditional
(stochastic master equation) dynamics, splits every step into a unitary
(work) and a nonunitary (heat) sub-step, applies phase-locked or optimal
unitary feedback, and aggregates the per-trajectory ledgers into first-law
checks, work distributions and the generalized-Jarzynski efficacy.
"""

from .bloch import EXCITED, GROUND, BlochState, closed_rabi_probabilities
from .config import NO_FEEDBACK, FeedbackConfig, SimConfig
from .ensemble import EnsembleResult, run_ensemble
from .oracle import LindbladSolution, ensemble_vs_oracle, lindblad_evolve
from .sme import rng_for_trajectory
from .stats import EfficacyResult, efficacy_from_trajectories, rabi_contrast
from .experiments import run_efficacy_protocol, sweep_gain_offset

__version__ = "0.1.0"

__all__ = [
    "BlochState",
    "EXCITED",
    "EfficacyResult",
    "EnsembleResult",
    "FeedbackConfig",
    "GROUND",
    "LindbladSolution",
    "NO_FEEDBACK",
    "SimConfig",
    "closed_rabi_probabilities",
    "efficacy_from_trajectories",
    "ensemble_vs_oracle",
    "lindblad_evolve",
    "rabi_contrast",
    "rng_for_trajectory",
    "run_efficacy_protocol",
    "run_ensemble",
    "sweep_gain_offset",
    "__version__",
]
