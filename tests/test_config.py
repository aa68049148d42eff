import math

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
        (SimConfig, "phi", NAN),
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


def test_a_step_longer_than_a_quarter_decay_time_is_rejected():
    # gamma*dt = 200 /us * 0.02 us = 4, sixteen times MAX_GAMMA_DT.
    with pytest.raises(ValueError, match=r"^gamma\*dt must be <= 0\.25.*gamma = 200.*dt = 0\.02"):
        SimConfig(gamma=200.0)
    assert SimConfig(gamma=MAX_GAMMA_DT / 0.02).gamma * 0.02 == MAX_GAMMA_DT
