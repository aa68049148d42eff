import math

import numpy as np
import pytest

from qtherm.config import MAX_GAMMA_DT, FeedbackConfig, SimConfig

NAN = math.nan
INF = math.inf


@pytest.mark.parametrize(
    "make, field, value",
    [
        (SimConfig, "gamma", NAN),
        (SimConfig, "gamma", INF),
        (SimConfig, "omega_r", NAN),
        (SimConfig, "dt", NAN),
        (SimConfig, "tau", INF),
        (SimConfig, "beta", NAN),
        (SimConfig, "beta", INF),
        (FeedbackConfig, "gain", NAN),
        (FeedbackConfig, "gain", INF),
        (FeedbackConfig, "offset", NAN),
        (FeedbackConfig, "delay_steps", -INF),
    ],
)
def test_non_finite_values_are_rejected_by_name(make, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        make(**{field: value})


@pytest.mark.parametrize("seed", [-1, True, 1.0, "1"], ids=["negative", "bool", "float", "str"])
def test_a_seed_that_is_not_a_non_negative_int_is_rejected_by_name(seed):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        SimConfig(seed=seed)
    assert SimConfig(seed=np.int64(3)).seed == 3


def test_a_step_longer_than_a_quarter_decay_time_is_rejected():
    # gamma*dt = 200 /us * 0.02 us = 4, sixteen times MAX_GAMMA_DT.
    with pytest.raises(ValueError, match=r"^gamma\*dt must be <= 0\.25.*gamma = 200.*dt = 0\.02"):
        SimConfig(gamma=200.0)
    assert SimConfig(gamma=MAX_GAMMA_DT / 0.02).gamma * 0.02 == MAX_GAMMA_DT


@pytest.mark.parametrize("value, message", [
    (NAN, r"^eta must be finite, got \[0\.35, nan, 1\.0\]$"),
    (1.5, r"^eta must be in \[0, 1\]$"),
], ids=["nan", "above-one"])
def test_a_bad_value_inside_an_eta_column_is_rejected_by_name(value, message):
    with pytest.raises(ValueError, match=message):
        SimConfig(eta=np.array([[0.35], [value], [1.0]]))


@pytest.mark.parametrize("eta", [np.array([0.35, 0.6]), np.ones((2, 2)), np.ones((0, 1))],
                         ids=["flat", "square", "empty"])
def test_eta_is_a_scalar_or_a_non_empty_column(eta):
    with pytest.raises(ValueError, match=r"^eta must be a scalar or a \(G, 1\) column"):
        SimConfig(eta=eta)
    assert SimConfig(eta=np.array([[0.35], [1.0]])).eta.shape == (2, 1)


@pytest.mark.parametrize("field", ["gain", "offset"])
@pytest.mark.parametrize("value", [np.array([0.0, 34.0]), np.ones((2, 2)), np.ones((0, 1))],
                         ids=["flat", "square", "empty"])
def test_gain_and_offset_are_scalars_or_non_empty_columns(field, value):
    # A flat gain would give each trajectory its own loop instead of a grid.
    with pytest.raises(ValueError, match=rf"^{field} must be a scalar or a \(G, 1\) column"):
        FeedbackConfig(mode="phase_locked", **{field: value})
    assert FeedbackConfig(**{field: np.array([[0.0], [34.0]])}).__dict__[field].shape == (2, 1)
