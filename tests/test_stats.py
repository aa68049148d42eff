import math

import numpy as np
import pytest

from qtherm.bloch import closed_rabi_probabilities
from qtherm.config import FeedbackConfig
from qtherm.ensemble import run_ensemble
from qtherm.experiments import run_efficacy_protocol
from qtherm.sme import SERIES
from qtherm.stats import (
    InsufficientSpanError,
    ZeroVarianceError,
    contrast_window,
    efficacy_from_trajectories,
    jarzynski_from_transitions,
    pooled_pearson_r,
    rabi_contrast,
)
from reference import (
    WorkDistribution,
    binned_first_law_check,
    bootstrap_efficacy_stderr,
    jarzynski_average,
    pearson_r,
    two_pass_preparation,
    two_point_work_distribution,
)
from reference import pooled_pearson_r as two_pass_pooled_pearson_r


def decomposition_residual(res, m: int) -> float:
    """|P_{m,n}(tau) - (delta_mn + P~W + P~Q + P~F)| of a one-trajectory result.

    The ledger totals are the m = 1 contributions; for m = 0 they flip sign.
    """
    n = res.initial_labels[0]
    p_total = res.final_p00[0] if m == 0 else 1.0 - res.final_p00[0]
    p_path = res.p_sum_00()[0] if m == 0 else -res.p_sum_00()[0]
    return abs(p_total - ((1.0 if m == n else 0.0) + p_path))


def test_accumulate_zero_length(paper_cfg):
    res = run_ensemble(paper_cfg(tau=0.0), n_traj=1, record=SERIES)
    assert (-res.w[0], -res.q[0], -res.wf[0]) == (0.0, 0.0, 0.0)
    assert res.final_p00[0] == 1.0
    assert res.initial_labels[0] == 0  # P0_{0,0} = delta_{0,0} = 1


def test_accumulate_closed_full_flip(paper_cfg):
    # omega_r * tau = pi: P~W(m=0) = -1, heat-free, P(tau) = 0.
    cfg = paper_cfg(gamma=0.0, eta=0.0, tau=0.5)
    res = run_ensemble(cfg, n_traj=1, record=SERIES)
    assert -res.w[0] == pytest.approx(-1.0, abs=1e-12)
    assert -res.q[0] == pytest.approx(0.0, abs=1e-12)
    assert res.final_p00[0] == pytest.approx(0.0, abs=1e-12)
    assert decomposition_residual(res, m=0) < 1e-9


def test_accumulate_decomposition_identity(paper_cfg):
    fb = FeedbackConfig(mode="phase_locked", gain=34.0, offset=-1.0, delay_steps=5)
    for seed in range(8):
        res = run_ensemble(paper_cfg(tau=2.0, seed=seed), fb, 1, record=SERIES)
        for m in (0, 1):
            assert decomposition_residual(res, m) < 1e-9


def test_first_law_residual(paper_cfg):
    res = run_ensemble(paper_cfg(tau=2.0, seed=3), n_traj=1, record=SERIES)
    assert res.residuals[0] < 1e-9


def test_transition_probabilities_zero_duration(paper_cfg):
    res = run_ensemble(paper_cfg(tau=0.0), n_traj=50)
    p, sem = res.p00_mean[-1], res.p00_sem[-1]
    assert p == 1.0 and sem == 0.0


def test_transition_probabilities_closed(paper_cfg):
    cfg = paper_cfg(gamma=0.0, eta=0.0, tau=0.7)
    res = run_ensemble(cfg, n_traj=10)
    want = closed_rabi_probabilities(cfg.omega_r / 2.0, cfg.tau).p00
    p = res.p00_mean[-1]
    assert p == pytest.approx(want, abs=1e-9)


def test_transition_probabilities_sampled_agrees(paper_cfg):
    # Born rule: the sampled projective outcomes agree with the state-derived
    # P00(tau) within their binomial error.
    cfg = paper_cfg(tau=1.0, seed=5)
    res = run_ensemble(cfg, n_traj=4000)
    p_state = res.p00_mean[-1]
    p_samp = float((res.outcomes == 0).mean())
    sem = math.sqrt(p_samp * (1.0 - p_samp) / res.n_traj)
    assert abs(p_samp - p_state) < 4.0 * sem


def test_two_point_work_distribution_weights():
    wd = two_point_work_distribution(0.0, [[0.5, 0.5], [0.5, 0.5]])
    assert wd.probabilities.sum() == pytest.approx(1.0)
    assert wd.probabilities[0] == pytest.approx(0.25)  # W = -1
    wd = two_point_work_distribution(3.5, [[1.0, 0.0], [0.0, 1.0]])
    assert wd.probabilities[1] == pytest.approx(1.0)  # W = 0
    with pytest.raises(ValueError):
        two_point_work_distribution(3.5, [[0.9, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        WorkDistribution(np.array([0.0]), np.array([-0.2, 1.2]), 1.0)


def test_jarzynski_closed_identity_on_tau_grid():
    # For closed Rabi transitions the average is 1 for every duration:
    # (1 - s) + s * (p_g e^-b + p_e e^+b) = 1 algebraically.
    beta = 3.5
    for tau in np.linspace(0.0, 2.5, 10):
        t = closed_rabi_probabilities(math.pi, tau)
        wd = two_point_work_distribution(beta, [[t.p00, t.p10], [t.p01, t.p11]])
        assert jarzynski_average(wd) == pytest.approx(1.0, abs=1e-12)


def test_jarzynski_symmetric_transitions_any_s():
    beta = 3.5
    for s in (0.0, 0.2, 0.5, 0.9):
        wd = two_point_work_distribution(beta, [[1 - s, s], [s, 1 - s]])
        assert jarzynski_average(wd) == pytest.approx(1.0, abs=1e-12)
    wd = two_point_work_distribution(0.0, [[0.7, 0.3], [0.1, 0.9]])
    assert jarzynski_average(wd) == pytest.approx(1.0, abs=1e-12)


def test_efficacy_identity_map():
    # A unital trajectory map (excited series mirroring ground) has unit
    # efficacy at all times.
    times = np.linspace(0.0, 1.0, 21)
    p_g = 0.5 + 0.5 * np.cos(2 * math.pi * times)
    g = np.tile(p_g, (40, 1))
    e = 1.0 - g
    res = efficacy_from_trajectories(two_pass_preparation(g, times),
                                     two_pass_preparation(e, times), beta=3.5)
    assert np.allclose(res.gamma_q, 1.0, atol=1e-12)
    assert res.gamma_q[0] == 1.0
    assert np.allclose(res.c00 + res.c11, 2.0, atol=1e-12)


def test_efficacy_decayed_map_value():
    # Everything relaxed to the ground state: C00 = 2, so
    # gamma_q = 2 e^{b/2} / (2 cosh(b/2)) = 1 + tanh(b/2).
    beta = 3.5
    g = np.ones((30, 5))
    e = np.ones((30, 5))
    res = efficacy_from_trajectories(two_pass_preparation(g), two_pass_preparation(e),
                                     beta=beta)
    assert np.allclose(res.gamma_q, 1.0 + math.tanh(beta / 2.0), atol=1e-12)


def test_efficacy_shape_validation():
    with pytest.raises(ValueError):
        efficacy_from_trajectories(two_pass_preparation(np.ones((3, 4))),
                                   two_pass_preparation(np.ones((3, 5))), 3.5)
    with pytest.raises(ValueError, match="at least two trajectories"):
        efficacy_from_trajectories(two_pass_preparation(np.ones((1, 4))),
                                   two_pass_preparation(np.ones((3, 4))), 3.5)


def test_efficacy_stderr_closed_form_by_hand():
    # beta = 2 ln 3 makes the slope tanh(beta/2) = 0.8.  Time 0 has no spread
    # in either preparation; at time 1 the ground rows (0.2, 0.6) have sample
    # variance 0.08 and the excited rows (0, 0, 1, 1) have 1/3.
    g = np.array([[1.0, 0.2], [1.0, 0.6]])
    e = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    res = efficacy_from_trajectories(two_pass_preparation(g), two_pass_preparation(e),
                                     beta=2.0 * math.log(3.0))
    assert res.stderr[0] == 0.0
    assert res.stderr[1] == pytest.approx(0.8 * math.sqrt(0.08 / 2 + (1 / 3) / 4), rel=1e-12)


def test_closed_form_efficacy_error_matches_the_bootstrap():
    # Both preparations start in their eigenstates (no spread at time 0),
    # then spread by differing amounts at later times.
    rng = np.random.default_rng(2017)
    g = rng.random((300, 41)) ** np.linspace(0.5, 3.0, 41)
    e = 1.0 - rng.random((250, 41)) ** np.linspace(3.0, 0.5, 41)
    g[:, 0], e[:, 0] = 1.0, 0.0
    closed = efficacy_from_trajectories(two_pass_preparation(g), two_pass_preparation(e),
                                        beta=3.5).stderr
    boot = bootstrap_efficacy_stderr(g, e, beta=3.5, rng=np.random.default_rng(7))
    assert closed[0] == 0.0
    ratio = boot[1:] / closed[1:]
    assert ((ratio >= 0.85) & (ratio <= 1.15)).all()


def test_two_efficacy_routes_agree(paper_cfg):
    # Trajectory-route (state averages) and work-distribution route (sampled
    # projective outcomes) on the same run agree within combined errors at
    # 0.1 us checkpoints.
    cfg = paper_cfg(tau=1.0, dt=0.005, seed=19)
    fb = FeedbackConfig(mode="optimal")
    prot = run_efficacy_protocol(cfg, fb, n_traj=300)
    comb = np.arange(20, cfg.n_steps + 1, 20)
    sem = np.hypot(prot.trajectory_route.stderr[comb], prot.wd_route_stderr[comb])
    diff = np.abs(prot.trajectory_route.gamma_q[comb] - prot.wd_route_gamma[comb])
    assert (diff < 3.0 * sem).all()


def test_jarzynski_from_transitions_formula():
    beta = 3.5
    gamma, err = jarzynski_from_transitions(
        np.array([1.0, 0.5, 0.0]), np.array([1.0, 0.5, 0.0]), beta, 100, 100
    )
    assert gamma[0] == pytest.approx(1.0, abs=1e-12)
    assert gamma[1] == pytest.approx(1.0, abs=1e-12)  # symmetric transitions
    assert gamma[2] == pytest.approx(1.0, abs=1e-12)
    # Frequencies in [0, 1] leave no negative variance to clamp: the error
    # is exactly zero at p = 0 as at p = 1.
    assert err[0] == 0.0 and err[1] > 0.0 and err[2] == 0.0


def test_jarzynski_from_transitions_equals_the_three_point_average():
    for p00, p11, beta in [(1.0, 1.0, 3.5), (0.3, 0.9, 3.5), (0.05, 0.6, 0.7),
                           (0.8, 0.1, 6.0)]:
        wd = two_point_work_distribution(beta, [[p00, 1 - p00], [1 - p11, p11]])
        gamma, _ = jarzynski_from_transitions(np.array([p00]), np.array([p11]), beta, 50, 50)
        assert abs(gamma[0] - jarzynski_average(wd)) < 1e-12


def test_rabi_contrast_closed_and_flat():
    omega = 2.0 * math.pi
    t = np.arange(0, 401) * 0.02
    closed = 0.5 + 0.5 * np.cos(omega * t)
    assert rabi_contrast(t, closed, omega) == pytest.approx(1.0, abs=1e-9)
    assert rabi_contrast(t, np.full_like(t, 0.5), omega) == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(InsufficientSpanError):
        rabi_contrast(t, closed, omega, window=(2.0, 3.0))
    with pytest.raises(InsufficientSpanError):
        rabi_contrast(t, closed, omega, window=(9.0, 12.0))


@pytest.mark.parametrize("window, spans", [((2.0, 4.9), False), ((2.0, 5.0), True)],
                         ids=["short", "three-periods"])
def test_the_window_check_is_the_same_for_either_sign_of_the_rabi_rate(window, spans):
    omega = 2.0 * math.pi  # a period of 1
    t = np.arange(0, 401) * 0.02
    for rate in (omega, -omega):
        if spans:
            assert contrast_window(t, rate, window).sum() == 151
        else:
            with pytest.raises(InsufficientSpanError, match="need >= 3 Rabi periods"):
                contrast_window(t, rate, window)
    with pytest.raises(InsufficientSpanError, match="zero Rabi rate"):
        contrast_window(t, 0.0, window)


def test_pearson_r_basics():
    rng = np.random.default_rng(8)
    a = rng.normal(size=500)
    assert pearson_r(a, a) == pytest.approx(1.0)
    assert pearson_r(a, -a) == pytest.approx(-1.0)
    with pytest.raises(ZeroVarianceError):
        pearson_r(np.ones(10), rng.normal(size=10))
    with pytest.raises(ValueError):
        pearson_r(a, a[:-1])


def test_pearson_r_lag_alignment():
    rng = np.random.default_rng(9)
    b = rng.normal(size=2000)
    a = np.roll(b, 3)  # a[i] = b[i-3]: a lags b by 3 steps
    assert pearson_r(a, b, lag=3) > 0.99
    assert abs(pearson_r(a, b, lag=0)) < 0.1


def test_pooled_pearson_r_shapes():
    rng = np.random.default_rng(10)
    q = rng.normal(size=(20, 100))
    wf = -q + 0.3 * rng.normal(size=(20, 100))
    r = two_pass_pooled_pearson_r(wf, q)
    assert r < -0.9
    with pytest.raises(ValueError):
        two_pass_pooled_pearson_r(wf, q[:, :-1])


def test_streamed_pearson_r_is_undefined_without_variance_or_pairs(paper_cfg):
    cfg = paper_cfg(tau=0.1)  # five steps
    # At gain 0 the phase-locked loop does no work: dWF is zero at every step.
    fb = FeedbackConfig(mode="phase_locked", gain=0.0, delay_steps=2)
    res = run_ensemble(cfg, fb, 20, lags=(0, 4, 5, 9))
    assert res.lags == (0, 4, 5, 9)
    assert res.pair_moments[:, 0].tolist() == [100, 20, 0, 0]  # aligned pairs
    for lag in res.lags:
        with pytest.raises(ZeroVarianceError):
            pooled_pearson_r(res, lag)
    with pytest.raises(ValueError, match="lag 1"):
        pooled_pearson_r(res, 1)  # not accumulated
    with pytest.raises(ValueError):
        run_ensemble(cfg, fb, 2, lags=(-1,))


def test_binned_first_law_check_synthetic():
    rng = np.random.default_rng(12)
    s = rng.uniform(0, 1, 20000)
    outcomes = (rng.random(20000) < s).astype(float)
    pred, freq, err, chi2 = binned_first_law_check(s, outcomes)
    assert chi2 < 2.0
    assert np.all(np.abs(pred - freq) < 5.0 * err)
