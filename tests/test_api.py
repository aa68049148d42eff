"""The public names of ``qtherm`` and what an ensemble stores, pinned so that
neither regrows."""

from dataclasses import fields

import qtherm
from qtherm.sme import SERIES

PUBLIC = [
    "BlochState",
    "EXCITED",
    "EfficacyResult",
    "EnsembleResult",
    "FeedbackConfig",
    "GROUND",
    "LindbladSolution",
    "NO_FEEDBACK",
    "SimConfig",
    "__version__",
    "closed_rabi_probabilities",
    "efficacy_from_trajectories",
    "ensemble_vs_oracle",
    "lindblad_evolve",
    "rabi_contrast",
    "rng_for_trajectory",
    "run_efficacy_protocol",
    "run_ensemble",
    "sweep_gain_offset",
]

#: Every stored field of ``EnsembleResult``, in order; what derives from
#: them (means, SEM, final P00, first-law residuals) is a property.
ENSEMBLE_FIELDS = [
    "sim", "fb", "n_traj", "lags",
    "p00_sum", "p00_m2", "dw_sum", "dwf_sum", "dq_sum", "pair_moments", "hits",
    "initial_labels", "w", "wf", "q", "final_z", "outcomes", "series",
]


def test_public_names_are_pinned_and_importable():
    # A new export is a decision: add it here in the change that makes it.
    assert sorted(qtherm.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(qtherm, name) is not None


def test_stored_ensemble_fields_and_series_are_pinned():
    # So is a new stored field or series: each is allocated, pickled across
    # the pool and merged for every chunk.
    assert [f.name for f in fields(qtherm.EnsembleResult)] == ENSEMBLE_FIELDS
    assert SERIES == ("p00", "x", "z", "dw", "dwf", "dq", "dv", "dx")
