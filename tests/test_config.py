import math

import pytest

from qtherm.config import FeedbackConfig, SimConfig

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
