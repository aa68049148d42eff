"""Heat and work along Monte Carlo trajectories of a monitored, driven qubit.

A two-level system is driven along sigma_y, decays through sigma_minus, and
has the sigma_x quadrature of its fluorescence monitored by a homodyne
detector of efficiency eta.  The package integrates the conditional
(stochastic master equation) dynamics, splits every step into a unitary
(work) and a nonunitary (heat) sub-step, applies phase-locked or optimal
unitary feedback, and aggregates the per-trajectory ledgers into first-law
checks, work distributions and the generalized-Jarzynski efficacy.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.  Names load on first
#: use (PEP 562), so ``import qtherm`` imports no numpy: ``qtherm.cli`` can
#: set the process's BLAS thread count before numpy starts.
_EXPORTS = {
    "BlochState": "bloch",
    "EXCITED": "bloch",
    "GROUND": "bloch",
    "closed_rabi_probabilities": "bloch",
    "FeedbackConfig": "config",
    "NO_FEEDBACK": "config",
    "SimConfig": "config",
    "EnsembleResult": "ensemble",
    "run_ensemble": "ensemble",
    "LindbladSolution": "oracle",
    "ensemble_vs_oracle": "oracle",
    "lindblad_evolve": "oracle",
    "rng_for_trajectory": "ensemble",
    "EfficacyResult": "stats",
    "efficacy_from_trajectories": "stats",
    "rabi_contrast": "stats",
    "run_efficacy_protocol": "experiments",
    "sweep_gain_offset": "experiments",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
