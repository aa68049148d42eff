"""Property tests: invariants of the step kernel and of the ensemble runner
that must hold for every input, searched with hypothesis."""

import math
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qtherm.ensemble
import qtherm.sme
from qtherm.config import MAX_GAMMA_DT, FeedbackConfig, SimConfig
from qtherm.ensemble import EnsembleResult, run_ensemble
from qtherm.sme import SERIES, STATE_SERIES, _constants, _dissipative_kraus, split_step

PROPERTY = settings(derandomize=True, deadline=None)

#: A point of the closed unit disk, as (x, z).
unit_disk = st.tuples(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi)).map(
    lambda rt: (rt[0] * math.sin(rt[1]), rt[0] * math.cos(rt[1]))
)


# The domain is every step SimConfig accepts (gamma*dt up to MAX_GAMMA_DT, a
# quarter decay time) and increments within ten standard deviations
# (Var dV = gamma*dt).  Beyond it the rounding of p + ady*x + ady^2*q,
# which cancels for a nearly pure state at ady ~ -c/q, can exceed the 1e-12
# margin: x^2 + z^2 - 1 = 3.5e-12 at gamma*dt = 1, eta = 1,
# (x, z) = (-0.2046, 0.9788), dV = 9.67.
@PROPERTY
@given(
    state=unit_disk,
    sigmas=st.floats(-10.0, 10.0),
    gamma_dt=st.floats(0.0, MAX_GAMMA_DT, exclude_min=True),
    eta=st.floats(0.0, 1.0),
)
def test_kraus_step_keeps_the_state_in_the_unit_disk(state, sigmas, gamma_dt, eta):
    x, z = (np.array([v]) for v in state)
    dv = np.array([sigmas * math.sqrt(gamma_dt)])
    x2, z2 = _dissipative_kraus(x, z, dv, _constants(gamma_dt, eta, 1.0))
    assert x2[0] ** 2 + z2[0] ** 2 <= 1.0 + 1e-12


#: Lanes of (state, homodyne increment, feedback rate in rad/us).
lanes = st.lists(
    st.tuples(unit_disk, st.floats(-0.2, 0.2), st.floats(-50.0, 50.0)),
    min_size=1, max_size=16,
)


@pytest.mark.parametrize("feedback_after", [False, True])
@settings(PROPERTY, max_examples=40)
@given(lanes=lanes)
def test_split_step_books_every_energy_change(feedback_after, lanes):
    x = np.array([s[0] for s, _, _ in lanes])
    z = np.array([s[1] for s, _, _ in lanes])
    dv = np.array([d for _, d, _ in lanes])
    omega_fb = np.array([o for _, _, o in lanes])
    cfg = SimConfig()
    step = split_step(x, z, dv, cfg.omega_r * cfg.dt, omega_fb * cfg.dt,
                      _constants(cfg.gamma, cfg.eta, cfg.dt), feedback_after)
    assert np.abs(step.dw + step.dwf + step.dq - 0.5 * (z - step.z)).max() <= 1e-12


PER_TRAJECTORY = ("w", "wf", "q", "final_z", "residuals", "outcomes")


@settings(PROPERTY, max_examples=12)
@given(
    n_traj=st.integers(1, 12),
    chunk_size=st.integers(1, 12),
    workers=st.sampled_from([1, 2]),
    fb=st.sampled_from([
        FeedbackConfig(),
        FeedbackConfig(mode="phase_locked"),
        FeedbackConfig(mode="phase_locked", delay_steps=2),
        FeedbackConfig(mode="optimal"),
        FeedbackConfig(mode="optimal", delay_steps=1),
    ]),
)
@example(n_traj=12, chunk_size=5, workers=2, fb=FeedbackConfig(mode="optimal", delay_steps=1))
def test_per_trajectory_results_do_not_depend_on_chunks_or_workers(
    n_traj, chunk_size, workers, fb
):
    sim = SimConfig(tau=0.1, seed=11, initial_state="thermal")
    lags = (0, 1, 3, 6)  # five steps: lag 6 has no pairs
    want = run_ensemble(sim, fb, n_traj, lags=lags, sample=True, workers=1)
    with mock.patch.object(qtherm.ensemble, "CHUNK_SIZE", chunk_size):
        got = run_ensemble(sim, fb, n_traj, lags=lags, sample=True, workers=workers)
        serial = run_ensemble(sim, fb, n_traj, lags=lags, sample=True, workers=1)
    for name in PER_TRAJECTORY:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    # Hit counts are integers: equal at any chunk size.
    assert np.array_equal(got.hits, want.hits)
    # The sums are chunk sums added in chunk order: bitwise equal at a fixed
    # chunk size, however many workers run the chunks (here against one),
    # and equal to rounding at any other chunk size.  Rounding is judged
    # against each pair moment's Cauchy-Schwarz bound (of sum |a| by
    # sqrt(count * sum a^2), of sum |ab| by sqrt(sum a^2 * sum b^2)), as the
    # signed sums may cancel to near zero.
    for name in ("p00_sum", "p00_m2", "dw_sum", "dwf_sum", "dq_sum", "pair_moments", "hits"):
        assert np.array_equal(getattr(got, name), getattr(serial, name)), name
    count, _, _, saa, sbb, _ = want.pair_moments.T
    bound = np.stack([count, np.sqrt(count * saa), np.sqrt(count * sbb), saa, sbb,
                      np.sqrt(saa * sbb)], axis=1)
    assert (np.abs(got.pair_moments - want.pair_moments) <= 1e-12 * bound).all()
    assert count.tolist() == [n_traj * max(sim.n_steps - lag, 0) for lag in lags]


@settings(PROPERTY, max_examples=30)
@given(
    mode=st.sampled_from(["none", "phase_locked", "optimal"]),
    delay_steps=st.integers(0, 5),
    eta=st.floats(0.0, 1.0),
    gamma_dt=st.floats(0.0, MAX_GAMMA_DT),
    omega_r=st.floats(0.0, 20.0),
    gain=st.floats(-60.0, 60.0),
    offset=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_trajectory_keeps_the_decomposition_bounded_and_the_first_law(
    mode, delay_steps, eta, gamma_dt, omega_r, gain, offset, seed
):
    """From the ground state, P~W + P~Q + P~F for m = n = 0 is minus the
    final excited population, so it lies in [-1, 0] for every trajectory."""
    dt = 2.0**-6  # a power of two, so gamma * dt is gamma_dt exactly
    sim = SimConfig(gamma=gamma_dt / dt, omega_r=omega_r, eta=eta, dt=dt, tau=1.0, seed=seed)
    fb = FeedbackConfig(mode=mode, gain=gain, offset=offset, delay_steps=delay_steps)
    res = run_ensemble(sim, fb, 64)
    p = res.p_sum_00()
    assert -1.0 - 1e-12 <= p.min() and p.max() <= 1e-12
    assert res.residuals.max() <= 1e-12


def same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape) == (want.dtype, want.shape) and got.tobytes() == want.tobytes()


@settings(PROPERTY, max_examples=20)
@given(
    rows=st.integers(1, 5),
    n_traj=st.integers(1, 9),
    chunk_size=st.integers(1, 9),
    columns=st.sampled_from([("gain",), ("eta",), ("gain", "offset", "eta")]),
    fb=st.sampled_from([
        FeedbackConfig(mode="phase_locked"),
        FeedbackConfig(mode="phase_locked", delay_steps=2),
        FeedbackConfig(mode="optimal"),
        FeedbackConfig(),
    ]),
    thermal=st.booleans(),
)
@example(rows=5, n_traj=9, chunk_size=4, columns=("gain", "offset", "eta"),
         fb=FeedbackConfig(mode="phase_locked"), thermal=True)
def test_grid_row_blocks_change_no_byte(rows, n_traj, chunk_size, columns, fb, thermal):
    """One row per block, uneven blocks (two rows per block of a full chunk)
    and one block give every field the same bytes, and each chunk draws its
    trajectories' noise once."""
    column = {"gain": np.linspace(20.0, 45.0, rows)[:, None],
              "offset": np.linspace(-1.25, -0.5, rows)[:, None],
              "eta": np.linspace(0.2, 1.0, rows)[:, None]}
    sim = SimConfig(tau=0.1, seed=17, initial_state="thermal" if thermal else 0, beta=1.0,
                    eta=column["eta"] if "eta" in columns else 0.35)
    fb = fb.with_(**{k: column[k] for k in columns if k != "eta"})
    chunks = [min(chunk_size, n_traj - start) for start in range(0, n_traj, chunk_size)]
    draws = []
    draw = qtherm.ensemble._draws

    def counted_draws(cfg, start, n, sample):
        draws.append(n)
        return draw(cfg, start, n, sample)

    results = []
    with mock.patch.object(qtherm.ensemble, "CHUNK_SIZE", chunk_size), \
            mock.patch.object(qtherm.ensemble, "_draws", counted_draws):
        for grid_lanes in (1, 2 * min(chunk_size, n_traj), 10**9):
            with mock.patch.object(qtherm.sme, "GRID_LANES", grid_lanes):
                results.append(run_ensemble(sim, fb, n_traj, record=SERIES, lags=(0, 1, 3),
                                            sample=True))
            assert draws == chunks, grid_lanes
            draws.clear()
    one_row, uneven, one_block = results
    for res in (uneven, one_block):
        for f in fields(EnsembleResult)[4:]:  # after sim, fb, n_traj, lags
            got, want = getattr(res, f.name), getattr(one_row, f.name)
            if f.name == "series":
                assert got.keys() == want.keys()
                for k in want:
                    assert same_bytes(got[k], want[k]), k
            else:
                assert same_bytes(got, want), f.name
    assert one_row.p00_sum.shape == (rows, sim.n_steps + 1)


#: The fields a run without the ledger leaves with an empty last axis.
LEDGER_FIELDS = ("dw_sum", "dwf_sum", "dq_sum", "w", "wf", "q")


@settings(PROPERTY, max_examples=20)
@given(
    n_traj=st.integers(1, 9),
    chunk_size=st.integers(1, 9),
    fb=st.sampled_from([
        FeedbackConfig(),
        FeedbackConfig(mode="phase_locked", delay_steps=2),
        FeedbackConfig(mode="phase_locked"),
        FeedbackConfig(mode="optimal"),
    ]),
    columns=st.sampled_from([(), ("gain",), ("offset",), ("eta",), ("gain", "offset", "eta")]),
    initial_state=st.sampled_from([0, 1, "thermal"]),
    sample=st.booleans(),
    workers=st.just(1),
)
@example(n_traj=9, chunk_size=4, fb=FeedbackConfig(mode="phase_locked"),
         columns=("gain", "offset", "eta"), initial_state="thermal", sample=True, workers=2)
def test_a_run_without_the_ledger_keeps_the_bytes_of_every_state_field(
    n_traj, chunk_size, fb, columns, initial_state, sample, workers
):
    """``ledger=False`` gives every field but the ledger's the bytes of a run
    with it, the state series included, and the ledger's fields an empty
    last axis."""
    column = {"gain": np.array([[20.0], [30.0], [45.0]]),
              "offset": np.array([[-1.25], [-1.0], [-0.5]]),
              "eta": np.array([[0.2], [0.6], [1.0]])}
    sim = SimConfig(tau=0.1, seed=29, initial_state=initial_state, beta=1.0,
                    eta=column["eta"] if "eta" in columns else 0.35)
    fb = fb.with_(**{k: column[k] for k in columns if k != "eta"})
    with mock.patch.object(qtherm.ensemble, "CHUNK_SIZE", chunk_size):
        want, got = (run_ensemble(sim, fb, n_traj, record=STATE_SERIES, sample=sample,
                                  ledger=ledger, workers=workers)
                     for ledger in (True, False))
    for f in fields(EnsembleResult)[4:]:  # after sim, fb, n_traj, lags
        g, w = getattr(got, f.name), getattr(want, f.name)
        if f.name in LEDGER_FIELDS:
            assert g.shape == (*w.shape[:-1], 0), f.name
        elif f.name == "series":
            assert g.keys() == w.keys() == set(STATE_SERIES)
            for k in w:
                assert same_bytes(g[k], w[k]), k
        else:
            assert same_bytes(g, w), f.name
