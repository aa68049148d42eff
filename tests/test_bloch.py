import math

import numpy as np
import pytest

from qtherm.bloch import (
    EXCITED,
    GROUND,
    BlochState,
    closed_rabi_probabilities,
    gibbs_weights,
)
from reference import rotate


def phase(s: BlochState) -> float:
    """Oscillation phase atan2(-x, z)."""
    return math.atan2(-s.x, s.z)


def test_rotate_y_special_angles():
    s = rotate(GROUND, math.pi)
    assert s.z == pytest.approx(-1.0, abs=1e-15)
    assert s.x == pytest.approx(0.0, abs=1e-15)
    assert rotate(GROUND, 0.0) == GROUND
    s = rotate(GROUND, math.pi / 2)
    assert s.x == pytest.approx(-1.0, abs=1e-15)
    assert s.z == pytest.approx(0.0, abs=1e-15)


def test_rotate_y_norm_preserved_and_composition():
    rng = np.random.default_rng(17)
    for _ in range(300):
        r = math.sqrt(rng.uniform())
        a = rng.uniform(0, 2 * math.pi)
        s = BlochState(r * math.sin(a), r * math.cos(a))
        t1, t2 = rng.uniform(-12, 12, 2)
        once = rotate(s, t1 + t2)
        twice = rotate(rotate(s, t1), t2)
        assert twice.x == pytest.approx(once.x, abs=1e-12)
        assert twice.z == pytest.approx(once.z, abs=1e-12)
        n0 = s.x * s.x + s.z * s.z
        n1 = twice.x * twice.x + twice.z * twice.z
        assert n1 == pytest.approx(n0, abs=1e-13)


def test_phase_advances_at_drive_rate():
    assert phase(GROUND) == 0.0
    assert phase(rotate(GROUND, 0.3)) == pytest.approx(0.3, abs=1e-12)
    assert abs(phase(EXCITED)) == pytest.approx(math.pi, abs=1e-12)


def test_composed_rotations_match_closed_transition_formula():
    # 400 exact-rotation steps accumulate the same transition probability as
    # the closed formula evaluated at half the Bloch rate.
    omega_r = 2.0 * math.pi
    dt = 0.02
    s = GROUND
    for _ in range(347):
        s = rotate(s, omega_r * dt)
    tau = 347 * dt
    want = closed_rabi_probabilities(omega_r / 2.0, tau).p10
    assert 0.5 * (1.0 - s.z) == pytest.approx(want, abs=1e-9)


def test_closed_rabi_probabilities_values():
    p = closed_rabi_probabilities(1.0, 0.0)
    assert (p.p00, p.p11, p.p10, p.p01) == (1.0, 1.0, 0.0, 0.0)
    p = closed_rabi_probabilities(1.0, math.pi / 2)
    assert p.p00 == pytest.approx(0.0, abs=1e-15)
    assert p.p10 == pytest.approx(1.0, abs=1e-15)
    p = closed_rabi_probabilities(1.0, math.pi / 4)
    assert p.p00 == pytest.approx(0.5, abs=1e-15)
    assert p.p01 == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        closed_rabi_probabilities(1.0, -0.1)


def test_gibbs_weights():
    p_g, p_e = gibbs_weights(3.5)
    assert p_g + p_e == pytest.approx(1.0)
    assert p_g / p_e == pytest.approx(math.exp(3.5))
    p_g, p_e = gibbs_weights(0.0)
    assert p_g == pytest.approx(0.5) and p_e == pytest.approx(0.5)
    with pytest.raises(ValueError):
        gibbs_weights(-1.0)
