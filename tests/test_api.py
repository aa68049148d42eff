"""The public names of ``qtherm``, pinned so that the API does not regrow."""

import qtherm

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
    "split_step",
    "sweep_gain_offset",
]


def test_public_names_are_pinned_and_importable():
    # A new export is a decision: add it here in the change that makes it.
    assert sorted(qtherm.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(qtherm, name) is not None
