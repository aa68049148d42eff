import math
import pickle
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import qtherm.sme
from qtherm.bloch import EXCITED, GROUND, BlochState
from qtherm.config import MAX_GAMMA_DT, NO_FEEDBACK, THERMAL, FeedbackConfig
from qtherm.ensemble import _DRAW_TILE, _draws, _run_chunk, rng_for_trajectory, run_ensemble
from qtherm.feedback import pll_drive
from qtherm.oracle import lindblad_evolve
from qtherm.sme import (
    SERIES,
    UNDO_HEAT,
    EnsembleResult,
    _constants,
    _dissipative_kraus,
    homodyne_increment,
    run_batch,
    split_step,
)
from reference import (
    NumericalBlowupError,
    column_draws,
    ito_step,
    sequenced_rotation_work,
    side_stream,
    term_by_term_split_step,
    undo_heat_by_angle,
)


def one(v):
    """A 1-lane state component for the array kernel."""
    return np.array([v], dtype=float)


def constants(cfg):
    """The step constants ``run_batch`` computes from ``cfg``."""
    return _constants(cfg.gamma, cfg.eta, cfg.dt)


def test_sample_homodyne_zero_efficiency_stats(paper_cfg):
    cfg = paper_cfg(eta=0.0)
    rng = np.random.default_rng(1)
    n = 200_000
    dv = homodyne_increment(np.full(n, 0.8), rng.normal(0.0, math.sqrt(cfg.dt), n),
                            constants(cfg))
    var = cfg.gamma * cfg.dt
    assert abs(dv.mean()) < 5.0 * math.sqrt(var / n)
    assert abs(dv.var() - var) < 5.0 * var * math.sqrt(2.0 / n)


def test_sample_homodyne_signal_mean(paper_cfg):
    # eta=1, x=1: mean dV = sqrt(eta)*gamma*x*dt = 0.034 at the defaults.
    cfg = paper_cfg(eta=1.0)
    rng = np.random.default_rng(2)
    n = 1_000_000
    dv = homodyne_increment(np.ones(n), rng.normal(0.0, math.sqrt(cfg.dt), n), constants(cfg))
    sem = math.sqrt(cfg.gamma * cfg.dt / n)
    assert abs(dv.mean() - 0.034) < 5.0 * sem


def test_sample_homodyne_dead_detector(paper_cfg):
    cfg = paper_cfg(gamma=0.0)
    rng = np.random.default_rng(3)
    dv = homodyne_increment(one(0.5), rng.normal(0.0, math.sqrt(cfg.dt), 1), constants(cfg))
    assert dv[0] == 0.0


def test_ito_step_unitary_limit(paper_cfg):
    cfg = paper_cfg(gamma=0.0, eta=0.0, dt=0.001)
    theta = cfg.omega_r * cfg.dt
    s = ito_step(GROUND, 0.0, cfg.omega_r, cfg)
    assert s.x == pytest.approx(-theta, abs=theta**2)
    assert s.z == pytest.approx(1.0, abs=theta**2)


def test_ito_step_decay_limit(paper_cfg):
    cfg = paper_cfg(omega_r=0.0, eta=0.0)
    s = ito_step(EXCITED, 0.0, 0.0, cfg)
    assert s.z == pytest.approx(-1.0 + 2.0 * cfg.gamma * cfg.dt, abs=1e-12)
    assert s.x == 0.0


def test_ito_step_mean_matches_drift(paper_cfg):
    # The innovation is zero-mean, so the one-step ensemble mean must sit on
    # the deterministic part of the update to statistical accuracy.
    cfg = paper_cfg()
    rng = np.random.default_rng(4)
    s0 = BlochState(0.5, 0.2)
    n = 100_000
    dvs = homodyne_increment(np.full(n, s0.x), rng.normal(0.0, math.sqrt(cfg.dt), n),
                             constants(cfg))
    zs = np.empty(n)
    xs = np.empty(n)
    for k in range(n):
        s = ito_step(s0, float(dvs[k]), cfg.omega_r, cfg)
        zs[k], xs[k] = s.z, s.x
    dt = cfg.dt
    z_drift = s0.z + cfg.omega_r * s0.x * dt + cfg.gamma * (1 - s0.z) * dt
    x_drift = s0.x - cfg.omega_r * s0.z * dt - 0.5 * cfg.gamma * s0.x * dt
    assert abs(zs.mean() - z_drift) < 5.0 * zs.std() / math.sqrt(n)
    assert abs(xs.mean() - x_drift) < 5.0 * xs.std() / math.sqrt(n)


def test_ito_step_mean_matches_lindblad_at_fine_dt(paper_cfg):
    # Against the exact oracle the comparison needs a dt where the Ito step's
    # first-order truncation sits below the statistical error (at 20 ns it
    # would not).
    cfg = paper_cfg(dt=0.002, tau=0.002)
    rng = np.random.default_rng(5)
    s0 = BlochState(0.5, 0.2)
    sol = lindblad_evolve(s0, cfg, t_grid=np.array([0.0, cfg.dt]))
    n = 100_000
    dvs = homodyne_increment(np.full(n, s0.x), rng.normal(0.0, math.sqrt(cfg.dt), n),
                             constants(cfg))
    zs = np.array([ito_step(s0, float(dv), cfg.omega_r, cfg).z for dv in dvs])
    assert abs(zs.mean() - sol.z[1]) < 5.0 * zs.std() / math.sqrt(n)


def test_ito_step_blowup(paper_cfg):
    # From the excited state an increment of dV = 2 (about 11 standard
    # deviations at the defaults) throws x to 2*sqrt(eta)*dV = 2.4.
    cfg = paper_cfg()
    with pytest.raises(NumericalBlowupError):
        ito_step(EXCITED, 2.0, 0.0, cfg)


def test_split_step_agrees_with_the_unsplit_step_in_the_mean_at_order_dt_2(paper_cfg):
    # One-step weak consistency: averaged over the noise, one split step and
    # one unsplit Ito-Euler step from the same state differ by O(dt^2), a
    # ratio of about 4 per halving of dt.  (Pathwise they differ at O(dt).)
    # The mean over xi ~ N(0, 1) is 12-node Gauss-Hermite quadrature.  The
    # reference's blow-up guard refuses the 5.5-sigma node for a few states
    # at 20 ns; those states are left out at every dt.
    rng = np.random.default_rng(0)
    n = 2000
    r = 0.95 * np.sqrt(rng.uniform(size=n))
    a = rng.uniform(0, 2 * math.pi, n)
    x, z = r * np.sin(a), r * np.cos(a)
    nodes, weights = np.polynomial.hermite_e.hermegauss(12)
    weights = weights / weights.sum()
    dts = np.array([0.02, 0.01, 0.005, 0.0025, 0.00125])
    states = [BlochState(*s) for s in zip(x.tolist(), z.tolist())]
    mean_gap = np.zeros((len(dts), 2, n))
    kept = np.ones(n, dtype=bool)
    for i, dt in enumerate(dts):
        cfg = paper_cfg(dt=dt)
        for xi, w in zip(nodes, weights):
            dv = homodyne_increment(x, math.sqrt(dt) * xi, constants(cfg))
            step = split_step(x, z, dv, cfg.omega_r * cfg.dt, 0.0, constants(cfg), None)
            ref = np.full((2, n), np.nan)
            for k, (s, dv_k) in enumerate(zip(states, dv.tolist())):
                try:
                    unsplit = ito_step(s, dv_k, cfg.omega_r, cfg)
                except NumericalBlowupError:
                    kept[k] = False
                    continue
                ref[:, k] = unsplit.x, unsplit.z
            mean_gap[i] += w * (np.stack([step.x, step.z]) - ref)
    assert kept.sum() >= 0.99 * n
    rms = np.sqrt((mean_gap[:, :, kept] ** 2).sum(axis=1).mean(axis=1))
    order = np.polyfit(np.log(dts), np.log(rms), 1)[0]
    assert 1.8 <= order <= 2.2


def test_split_step_unitary_limit(paper_cfg):
    cfg = paper_cfg(gamma=0.0, eta=0.0)
    step = split_step(one(GROUND.x), one(GROUND.z), one(0.0), cfg.omega_r * cfg.dt, 0.0,
                      constants(cfg), None)
    assert step.dq[0] == 0.0
    assert (step.dw + step.dwf + step.dq)[0] == step.dw[0]
    assert step.dwf[0] == 0.0
    assert 0.5 * (1.0 - step.z[0]) > 0  # excited population


def test_split_step_pure_relaxation(paper_cfg):
    cfg = paper_cfg()
    rng = np.random.default_rng(6)
    x0, z0 = one(0.4), one(-0.3)
    dv = homodyne_increment(x0, rng.normal(0.0, math.sqrt(cfg.dt), 1), constants(cfg))
    step = split_step(x0, z0, dv, 0.0, 0.0, constants(cfg), None)
    assert step.dw[0] == 0.0 and step.dwf[0] == 0.0
    assert (step.dw + step.dwf + step.dq)[0] == step.dq[0]


def test_split_step_ledger_identity_random(paper_cfg):
    # 200 random states as the lanes of one step.
    cfg = paper_cfg()
    rng = np.random.default_rng(7)
    n = 200
    r = np.sqrt(rng.uniform(size=n))
    a = rng.uniform(0, 2 * math.pi, n)
    x, z = r * np.sin(a), r * np.cos(a)
    dv = homodyne_increment(x, rng.normal(0.0, math.sqrt(cfg.dt), n), constants(cfg))
    om_f = rng.normal(0.0, 5.0, n)
    step = split_step(x, z, dv, cfg.omega_r * cfg.dt, om_f * cfg.dt, constants(cfg), None)
    du = step.dw + step.dwf + step.dq
    du_states = 0.5 * (1.0 - step.z) - 0.5 * (1.0 - z)
    assert du == pytest.approx(du_states, abs=1e-14)


def test_split_step_cancelling_drives(paper_cfg):
    # theta_total == 0 exactly: the state stays put, while the drive's two
    # half turns and the feedback's turn between them book equal and
    # opposite work, sin(theta_d/2)*x.
    cfg = paper_cfg(gamma=0.0, eta=0.0)
    step = split_step(one(0.3), one(0.6), one(0.0), 4.0 * cfg.dt, -4.0 * cfg.dt, constants(cfg),
                      None)
    assert (step.x[0], step.z[0]) == (0.3, 0.6)
    assert step.dw[0] == -step.dwf[0] != 0.0
    assert (step.dw + step.dwf + step.dq)[0] == 0.0


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 2.0**-60,
                    reason="longdouble is no wider than float64 here")
def test_the_work_split_keeps_its_digits_near_a_half_turn(paper_cfg):
    """Shared-rotation angles within 0.1 of +-pi, where 1 + cos(theta)
    vanishes: dW and dWF stay within 1e-15 of the three-rotation sequence
    booked in longdouble from the same states and angles."""
    cfg = paper_cfg()
    rng = np.random.default_rng(12)
    n = 100_000
    r = np.sqrt(rng.uniform(size=n))
    a = rng.uniform(0, 2 * math.pi, n)
    x, z = r * np.sin(a), r * np.cos(a)
    theta_d = cfg.omega_r * cfg.dt
    theta_f = rng.choice([-1.0, 1.0], n) * (math.pi + rng.uniform(-0.1, 0.1, n)) - theta_d
    step = split_step(x, z, np.zeros(n), theta_d, theta_f, constants(cfg), None)
    _, _, dw, dwf = sequenced_rotation_work(*(np.asarray(v, dtype=np.longdouble)
                                              for v in (x, z, theta_d, theta_f)))
    assert dw.dtype == np.longdouble
    assert np.abs(step.dw - dw).max() <= 1e-15
    assert np.abs(step.dwf - dwf).max() <= 1e-15


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 2.0**-60,
                    reason="longdouble is no wider than float64 here")
@pytest.mark.parametrize("fb", [
    NO_FEEDBACK,
    FeedbackConfig(mode="phase_locked", delay_steps=0),
    FeedbackConfig(mode="phase_locked", delay_steps=5),
    FeedbackConfig(mode="optimal", delay_steps=0),
    FeedbackConfig(mode="optimal", delay_steps=2),
], ids=["no-feedback", "pll-zero-delay", "pll-100ns", "optimal-zero-delay", "optimal-delay2"])
def test_the_ledger_keeps_its_digits_against_a_longdouble_shadow(paper_cfg, monkeypatch, fb):
    """A rounding oracle for the ledger: given its noise block in longdouble,
    ``run_batch`` runs every step's arithmetic in longdouble, while its
    accumulators stay float64.  The float64 run's W, WF and Q totals and
    final z of 1,024 trajectories over 400 steps stay within 1e-13 of that
    shadow, in every feedback mode; the proportional split of a shared
    rotation missed it by 1.3e-12 (optimal at delay 2) and 1.9e-12 (PLL at
    100 ns)."""
    cfg = paper_cfg(tau=8.0, seed=9)
    labels, noise, u = _draws(cfg, 0, 1024, False)
    res = run_batch(cfg, fb, labels, noise, u)
    last = []

    def shadowed(*args, **kwargs):
        last[:] = split_step(*args, **kwargs)
        return tuple(last)

    monkeypatch.setattr(qtherm.sme, "split_step", shadowed)
    shadow = run_batch(cfg, fb, labels, noise.astype(np.longdouble), u)
    assert {a.dtype for a in last} == {np.dtype(np.longdouble)}
    for name in ("w", "wf", "q", "final_z"):
        got, want = getattr(res, name), getattr(shadow, name)
        assert want.dtype == np.float64 and np.abs(got - want).max() <= 1e-13, name


def test_simulate_trajectory_zero_duration(paper_cfg):
    cfg = paper_cfg(tau=0.0)
    res = run_ensemble(cfg, n_traj=1, record=SERIES)
    assert res.series["dv"].shape == (1, 0)
    assert (res.w[0], res.wf[0], res.q[0]) == (0.0, 0.0, 0.0)
    assert res.residuals[0] == 0.0


def test_one_trajectory_has_no_error_bar(paper_cfg):
    # One trajectory leaves no sample variance: p00_sem is NaN, not zero.
    res = run_ensemble(paper_cfg(tau=1.0), n_traj=1)
    assert res.p00_sem.shape == (51,) and np.isnan(res.p00_sem).all()


def test_simulate_trajectory_closed_pi_pulse(paper_cfg):
    # omega_r * tau = pi: full ground -> excited flip, deterministic.
    cfg = paper_cfg(gamma=0.0, eta=0.0, tau=0.5, seed=9)
    res = run_ensemble(cfg, n_traj=1, record=SERIES)
    assert res.outcomes[0] == 1
    assert res.series["z"][0, -1] == pytest.approx(-1.0, abs=1e-12)
    assert abs(res.series["dq"][0].sum()) < 1e-12


def test_simulate_trajectory_first_law(paper_cfg):
    for seed in (1, 2, 3, 12345):
        res = run_ensemble(paper_cfg(tau=2.0, seed=seed), n_traj=1, record=SERIES)
        assert res.residuals[0] < 1e-9


def test_simulate_trajectory_deterministic(paper_cfg):
    cfg = paper_cfg(tau=1.0, seed=42)
    a = run_ensemble(cfg, n_traj=1, record=SERIES)
    b = run_ensemble(cfg, n_traj=1, record=SERIES)
    for name in SERIES:
        assert np.array_equal(a.series[name], b.series[name])
    assert a.outcomes[0] == b.outcomes[0]


def test_simulate_trajectory_record_shape(paper_cfg):
    cfg = paper_cfg(tau=1.0)
    res = run_ensemble(cfg, n_traj=1, record=SERIES)
    s = {name: arr[0] for name, arr in res.series.items()}
    n = cfg.n_steps
    assert len(res.times) == len(s["x"]) == len(s["z"]) == n + 1
    assert len(s["dv"]) == len(s["dw"]) == len(s["dq"]) == n
    assert BlochState(s["x"][0], s["z"][0]) == GROUND
    assert s["dv"][3] == homodyne_increment(s["x"][3], s["dx"][3], constants(cfg))


class _Words(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 four given seed words."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, np.dtype(dtype)) == (4, np.uint64)
        return self.words


def numpy_stream(seed, index, initial_state=0):
    """The stream rng_for_trajectory must reproduce, built the plain way:
    row index % 2048 of the words SeedSequence(seed, spawn_key=(family,
    index // 2048)) generates seeds a PCG64, family 2 for the excited state
    and 0 for the ground and thermal ones."""
    family = 2 if initial_state == 1 else 0
    words = np.random.SeedSequence(seed, spawn_key=(family, index // 2048)).generate_state(
        8192, np.uint64
    )
    row = index % 2048
    return np.random.Generator(np.random.PCG64(_Words(words[4 * row:4 * row + 4])))


# One to five 32-bit seed words; indices at block edges, the side-stream
# tags and large indices.
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 5]
STREAM_INDICES = [0, 1, 2047, 2048, 0x5A3B, 0x0FF5E7, 2**32 - 1, 2**32]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_trajectory_stream_is_numpys_seed_sequence_stream(seed):
    for index in STREAM_INDICES:
        for prep in (0, 1):
            got, want = rng_for_trajectory(seed, index, prep), numpy_stream(seed, index, prep)
            assert got.bit_generator.state == want.bit_generator.state, (index, prep)
            assert np.array_equal(got.normal(size=8), want.normal(size=8)), (index, prep)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_a_thermal_trajectory_takes_the_ground_states_stream(seed):
    # It draws its label from its stream, so its key cannot depend on it.
    for index in STREAM_INDICES:
        got, want = rng_for_trajectory(seed, index, THERMAL), rng_for_trajectory(seed, index)
        assert got.bit_generator.state == want.bit_generator.state, index


@pytest.mark.parametrize("prep", [2, -1, "hot", None])
def test_an_unknown_preparation_has_no_stream(prep):
    with pytest.raises(ValueError, match=f"initial state {prep!r}"):
        rng_for_trajectory(1, 0, prep)


@pytest.mark.parametrize("seed", [0, 5, 2**32])
def test_an_excited_run_shares_no_draw_with_a_ground_run(paper_cfg, seed):
    """No noise column and no outcome-uniform column of an excited run at
    seed s is one of a ground run at seed s or s + 1: each preparation keys
    its own streams, and neither shifts the seed."""
    n = 40

    def columns(cfg):
        _, noise, u = _draws(cfg, 0, n, True)
        return {a[:, k].tobytes() for a in (noise, u) for k in range(n)}

    excited = columns(paper_cfg(tau=0.1, seed=seed, initial_state=1))
    assert len(excited) == 2 * n
    for ground_seed in (seed, seed + 1):
        assert not excited & columns(paper_cfg(tau=0.1, seed=ground_seed)), ground_seed


def test_trajectory_stream_survives_pickle():
    rng = rng_for_trajectory(7, 3000)
    rng.normal(size=5)
    copy = pickle.loads(pickle.dumps(rng))
    assert copy.normal() == rng.normal()


def test_trajectory_streams_do_not_depend_on_call_order():
    # More keys than the block cache holds, visited twice in different orders.
    keys = [(seed, index, prep) for seed in range(20) for index in (5, 2048 + 5)
            for prep in (0, 1)]
    first = {key: rng_for_trajectory(*key).random() for key in keys}
    again = {key: rng_for_trajectory(*key).random() for key in reversed(keys)}
    assert again == first
    assert first == {key: numpy_stream(*key).random() for key in keys}


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_side_stream_is_numpys_seed_sequence_stream(seed):
    for tag in (0xC1, 0xBEEF, 0x5A3B, 0x0FF5E7):
        got = side_stream(seed, tag)
        want = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(1, tag)))
        )
        assert got.bit_generator.state == want.bit_generator.state, tag
        assert np.array_equal(got.normal(size=8), want.normal(size=8)), tag


@pytest.mark.parametrize("seed, index", [(-1, 0), (1, -1)])
def test_a_negative_stream_key_is_rejected(seed, index):
    with pytest.raises(ValueError, match="non-negative"):
        rng_for_trajectory(seed, index)


def test_batch_matches_scalar_path(paper_cfg):
    # run_batch with k-indexed streams is the definition of the ensemble;
    # a one-lane batch on stream k must be exactly its width-1 slice.
    cfg = paper_cfg(tau=0.5)
    fb = FeedbackConfig(mode="phase_locked", gain=30.0, offset=-1.0, delay_steps=2)
    batch = run_batch(cfg, fb, *_draws(cfg, 0, 3, False), record=("z", "dw", "dv"))
    for k in range(3):
        one = run_batch(cfg, fb, *_draws(cfg, k, 1, False), record=SERIES).series
        assert np.array_equal(batch.series["z"][k], one["z"][0])
        assert np.array_equal(batch.series["dw"][k], one["dw"][0])
        assert np.array_equal(batch.series["dv"][k], one["dv"][0])


def same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape) == (want.dtype, want.shape) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("sample", [False, True])
@pytest.mark.parametrize("prep", [1, THERMAL])
@pytest.mark.parametrize(
    "n", [1, _DRAW_TILE - 1, _DRAW_TILE, _DRAW_TILE + 1, 2 * _DRAW_TILE + 3]
)
def test_tiled_draws_match_the_per_trajectory_column_loop_bit_for_bit(paper_cfg, n, prep, sample):
    # Noise, labels and the outcome uniforms (read through outcomes and
    # hits) are the column loop's bytes, on either side of a tile edge,
    # with and without a (G, 1) eta grid sharing each trajectory's noise.
    for eta in (0.35, np.array([[0.35], [1.0]])):
        cfg = paper_cfg(tau=0.2, eta=eta, initial_state=prep, beta=0.5)
        res = run_batch(cfg, NO_FEEDBACK, *_draws(cfg, 0, n, sample), record=("dx", "z"))
        labels, noise, u = column_draws(
            cfg, [rng_for_trajectory(cfg.seed, k, cfg.initial_state) for k in range(n)], sample)
        assert same_bytes(res.series["dx"], np.broadcast_to(noise.T, res.series["dx"].shape))
        assert same_bytes(res.initial_labels, labels)
        p11 = 0.5 * (1.0 - res.series["z"])
        assert same_bytes(res.outcomes, (u[0] < p11[..., -1]).astype(np.int8))
        if sample:
            # Uniform j samples point steps - j.
            hit = (u[::-1].T < p11) == (labels == 1)[:, None]
            assert same_bytes(res.hits, np.count_nonzero(hit, axis=-2).astype(np.int64))
        else:
            assert res.hits.shape == (*np.shape(eta)[:-1], 0)


def test_run_batch_draws_keep_no_second_noise_block(paper_cfg):
    """The traced peak of one ``_run_chunk`` (its draws, then ``run_batch``
    on them) at n = 2,048 lanes and 400 steps stays below 1.5 B, where
    B = 8 * 400 * n bytes (6.55 MB) is the (steps, n) noise block it must
    hold.

    Besides B it allocates (1, n) uniforms and labels, under B / 400 each,
    and per-step sums of 8 * 400 bytes each; while drawing, the scratch tile
    of 8 * 128 * 401 bytes = B / 16; and after it, the step loop's lane
    arrays, 8 * n bytes = B / 400 each, a few dozen at once.  That is at
    most about 1.2 B (1.10 B measured, 1.23 B where the first stream of the
    process loads numpy.random).  Drawing every trajectory into a
    full (n, steps) row buffer before one transposed copy would hold another
    B next to the noise block, for at least 2 B.
    """
    cfg = paper_cfg()
    fb = FeedbackConfig(mode="phase_locked", gain=30.0, offset=-1.0, delay_steps=5)
    n = 2048
    assert cfg.n_steps == 400
    noise_bytes = 8 * cfg.n_steps * n
    tracemalloc.start()
    try:
        _run_chunk(cfg, fb, 0, n, (), (0, 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * noise_bytes, peak / noise_bytes


def test_unknown_record_name_is_rejected(paper_cfg):
    cfg = paper_cfg(tau=0.2)
    with pytest.raises(ValueError, match=r"\['ledgr'\].*p00, x, z, dw, dwf, dq, dv, dx"):
        run_batch(cfg, FeedbackConfig(), *_draws(cfg, 0, 1, False), record=("ledgr",))


def test_zero_delay_pll_acts_after_its_own_back_action(paper_cfg):
    # A drive that multiplies dV[i] must act on the post-measurement state:
    # every step is drive rotation -> dissipator -> feedback rotation.
    cfg = paper_cfg(tau=0.1)
    fb = FeedbackConfig(mode="phase_locked", gain=34.0, offset=-1.0, delay_steps=0)
    batch = run_batch(cfg, fb, *_draws(cfg, 0, 50, False),
                      record=("x", "z", "dw", "dwf", "dq", "dv"))
    s = batch.series
    for i in range(cfg.n_steps):
        x, z, dv = s["x"][:, i], s["z"][:, i], s["dv"][:, i]
        heat = split_step(x, z, dv, cfg.omega_r * cfg.dt, 0.0, constants(cfg), None)
        theta_f = pll_drive(dv, i * cfg.dt, cfg.omega_r, fb.gain, fb.offset, 0) * cfg.dt
        z3 = heat.z * np.cos(theta_f) + heat.x * np.sin(theta_f)
        x3 = heat.x * np.cos(theta_f) - heat.z * np.sin(theta_f)
        assert s["x"][:, i + 1] == pytest.approx(x3, abs=1e-15)
        assert s["z"][:, i + 1] == pytest.approx(z3, abs=1e-15)
        assert s["dw"][:, i] == pytest.approx(heat.dw, abs=1e-15)
        assert s["dq"][:, i] == pytest.approx(heat.dq, abs=1e-15)
        assert s["dwf"][:, i] == pytest.approx(0.5 * (heat.z - z3), abs=1e-15)
        du = s["dw"][:, i] + s["dwf"][:, i] + s["dq"][:, i]
        assert du == pytest.approx(0.5 * (z - s["z"][:, i + 1]), abs=1e-15)


def test_zero_delay_pll_ensemble_first_law(paper_cfg):
    cfg = paper_cfg(tau=2.0, seed=4)
    fb = FeedbackConfig(mode="phase_locked", gain=34.0, offset=-1.0, delay_steps=0)
    res = run_ensemble(cfg, fb, 500)
    assert res.residuals.max() < 1e-12


def test_unconditional_mean_is_eta_independent(paper_cfg):
    # Without feedback the ensemble mean may not depend on eta; at eta=0 the
    # trajectory is deterministic, so it serves as the reference curve.
    cfg0 = paper_cfg(eta=0.0, tau=4.0)
    ref = run_ensemble(cfg0, n_traj=1)
    cfg = paper_cfg(eta=0.35, tau=4.0, seed=8)
    res = run_ensemble(cfg, n_traj=4000)
    comb = np.arange(25, cfg.n_steps + 1, 25)
    z = np.abs(res.p00_mean[comb] - ref.p00_mean[comb]) / res.p00_sem[comb]
    assert z.max() < 4.0


def test_purity_preserved_at_unit_efficiency_kraus(paper_cfg):
    # 1000 steps at eta = 1: the measurement-operator dissipator keeps a pure
    # state pure to rounding (well under the 1e-6 contract).
    cfg = paper_cfg(eta=1.0, tau=0.02 * 1000, seed=5)
    s = run_ensemble(cfg, n_traj=1, record=SERIES).series
    pur = 0.5 * (1.0 + s["x"]**2 + s["z"]**2)
    assert np.abs(pur - 1.0).max() < 1e-6


def test_bounded_decomposition_small_ensemble(paper_cfg):
    cfg = paper_cfg(tau=2.0, seed=14)
    res = run_ensemble(cfg, n_traj=500)
    sums = res.p_sum_00()
    assert (sums >= -1.0).all() and (sums <= 0.0).all()


def test_thermal_preparation_fraction(paper_cfg):
    cfg = paper_cfg(tau=0.02, initial_state="thermal", beta=3.5, seed=6)
    res = run_ensemble(cfg, n_traj=4000)
    p_e = math.exp(-1.75) / (2.0 * math.cosh(1.75))
    frac = res.initial_labels.mean()
    assert abs(frac - p_e) < 5.0 * math.sqrt(p_e * (1 - p_e) / 4000)


@pytest.mark.parametrize("eta", [0.0, 0.35, 1.0, np.array([[0.0], [0.35], [0.6], [1.0]])],
                         ids=["eta0", "eta0.35", "eta1", "eta-grid"])
@pytest.mark.parametrize("gamma_dt", [1e-3, 0.034, MAX_GAMMA_DT])
def test_split_step_keeps_the_bits_of_the_term_by_term_kernel(paper_cfg, eta, gamma_dt):
    """The folded Kraus constants change no bit of any output, on random
    states with the poles and the equator's ends, increments up to ten
    standard deviations, and feedback that is exactly zero in some lanes, in
    every lane, or a scalar; where the feedback shares the drive's rotation
    in some lane, the closed-form dW and dWF are within 1e-15 of the three
    rotations booked one by one."""
    cfg = paper_cfg(gamma=gamma_dt / 0.02, dt=0.02, eta=eta)
    rng = side_stream(23, int(gamma_dt * 1e4))
    n = 100_000
    r, phi = np.sqrt(rng.random(n)), rng.uniform(-math.pi, math.pi, n)
    x, z = r * np.sin(phi), r * np.cos(phi)
    x[:4], z[:4] = (0.0, 0.0, 1.0, -1.0), (1.0, -1.0, 0.0, 0.0)
    dv = rng.uniform(-10.0, 10.0, n) * math.sqrt(gamma_dt)
    omega_fb = np.where(rng.random(n) < 0.2, 0.0, rng.normal(0.0, 30.0, n))
    omega_fb[:8:2] = -0.0
    for omega_drive in (cfg.omega_r, 0.0):
        for fb in (omega_fb, np.zeros(n), 0.0):
            # The feedback joins the drive's rotation, or acts after the Kraus sub-step.
            for before, after in ((fb, None), (0.0, fb)):
                theta_after = None if after is None else np.asarray(after) * cfg.dt
                got = split_step(x, z, dv, omega_drive * cfg.dt, np.asarray(before) * cfg.dt,
                                 constants(cfg), theta_after)
                want = term_by_term_split_step(x, z, dv, omega_drive, before, cfg, after)
                for name, g, w in zip(got._fields, got, want):
                    where = (omega_drive, np.ndim(fb), after is None, name)
                    if np.any(before) and name in ("dw", "dwf"):
                        assert np.abs(g - w).max() <= 1e-15, where
                    else:
                        assert same_bytes(g, w), where


@pytest.mark.parametrize("eta", [0.35, 1.0])
def test_undoing_the_heat_angle_by_a_rescale_matches_the_angle_form(paper_cfg, eta):
    """Zero-delay optimal feedback rescales the post-rotation state to the
    post-Kraus radius; rotating the post-Kraus state back by the heat angle
    from ``optimal_drive`` gives the same state within 1e-14, on random
    mixed and pure states and on states within 1e-6 of either pole."""
    cfg = paper_cfg(eta=eta)
    rng = side_stream(29, int(eta * 100))
    n = 100_000
    r, phi = np.sqrt(rng.random(n)), rng.uniform(-math.pi, math.pi, n)
    r[: n // 4] = 1.0
    # A quarter of the lanes are pure, and the last half start within 1e-6 of a pole.
    phi[n // 2:] = rng.choice([0.0, math.pi], n - n // 2) + rng.uniform(-1e-6, 1e-6, n - n // 2)
    x, z = r * np.sin(phi), r * np.cos(phi)
    dv = homodyne_increment(x, rng.normal(0.0, math.sqrt(cfg.dt), n), constants(cfg))
    for omega_drive in (cfg.omega_r, 0.0):  # undriven, the near-pole lanes reach Kraus there
        step = split_step(x, z, dv, omega_drive * cfg.dt, 0.0, constants(cfg), UNDO_HEAT)
        x2, z2 = _dissipative_kraus(step.x_mid, step.z_mid, dv, constants(cfg))
        x3, z3 = undo_heat_by_angle(step.x_mid, step.z_mid, x2, z2)
        assert np.abs(step.x - x3).max() <= 1e-14
        assert np.abs(step.z - z3).max() <= 1e-14
        assert np.abs(step.dwf - 0.5 * (z2 - z3)).max() <= 1e-14


class PassCounter(np.ndarray):
    """An array whose ufunc calls are counted when an operand has at least
    64 elements: at 64 lanes, the full-lane passes of the step loop."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if any(np.size(a) >= 64 for a in inputs):
            PassCounter.calls += 1
        inputs = [a.view(np.ndarray) if isinstance(a, PassCounter) else a for a in inputs]
        out = kwargs.get("out")
        if out:
            kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, PassCounter) else o
                                  for o in out)
        result = getattr(ufunc, method)(*inputs, **kwargs)
        if out:
            return out[0] if len(out) == 1 else out
        return result.view(PassCounter) if np.ndim(result) else result


@pytest.mark.parametrize("fb, lags, sample, ledger, ceiling", [
    (NO_FEEDBACK, (), False, True, 50),
    (FeedbackConfig(mode="phase_locked", delay_steps=5), (0, 5), False, True, 67),
    (FeedbackConfig(mode="phase_locked", delay_steps=0), (0,), False, True, 66),
    (FeedbackConfig(mode="optimal"), (), True, True, 65),
    (FeedbackConfig(mode="optimal", delay_steps=2), (), True, True, 70),
    (FeedbackConfig(mode="phase_locked", delay_steps=5), (), False, False, 43),
    (FeedbackConfig(mode="optimal"), (), True, False, 53),
], ids=["no-feedback", "pll-100ns", "pll-zero-delay", "optimal-sampled", "optimal-delay2",
        "pll-100ns-no-ledger", "optimal-sampled-no-ledger"])
def test_the_step_loop_makes_at_most_its_counted_array_passes(paper_cfg, monkeypatch, fb, lags,
                                                              sample, ledger, ceiling):
    """Full-lane ufunc calls per step, counted on noise and uniforms that
    ``run_batch`` gets as ``PassCounter`` views: the most calls between two
    snapshots, so that neither the warm-up of a delay line nor a step whose
    feedback angles are all exactly 0 (the phase-locked factor vanishes at
    cos(omega_r*t) = 1 with B = -1) lowers it.  The ceilings are the counts
    at numpy 2.4.6; a change that removes a pass lowers one.  Without the
    ledger a step makes 16 passes fewer for the delayed phase-locked loop
    (59 with it without lags) and 12 for the sampled zero-delay optimal law
    (65)."""
    marks = []

    class MarkingSums(qtherm.sme._Sums):
        def snapshot(self, i, x, z):
            marks.append(PassCounter.calls)
            super().snapshot(i, x, z)

    monkeypatch.setattr(qtherm.sme, "_Sums", MarkingSums)
    cfg = paper_cfg(tau=2.0)
    labels, noise, u = _draws(cfg, 0, 64, sample)
    PassCounter.calls = 0
    run_batch(cfg, fb, labels, noise.view(PassCounter), u.view(PassCounter), lags=lags,
              ledger=ledger)
    passes = np.diff(marks)
    assert len(passes) == cfg.n_steps and passes.max() <= ceiling, (passes.max(), ceiling)


@pytest.mark.parametrize("kwargs, names", [
    ({"lags": (0, 5)}, "lags"),
    ({"record": ("z", "dq", "dv")}, "step series"),
], ids=["lags", "step-series"])
def test_a_run_without_the_ledger_rejects_what_reads_the_ledger(paper_cfg, kwargs, names):
    fb = FeedbackConfig(mode="phase_locked", delay_steps=5)
    with pytest.raises(ValueError, match=f"^{names} .* need ledger=True"):
        run_ensemble(paper_cfg(tau=0.2), fb, 4, ledger=False, **kwargs)


def test_a_result_without_the_ledger_has_no_first_law_residuals(paper_cfg):
    res = run_ensemble(paper_cfg(tau=0.2), n_traj=4, ledger=False)
    assert res.w.shape == res.dq_sum.shape == (0,)
    with pytest.raises(ValueError, match="without the heat/work ledger"):
        res.residuals
    with pytest.raises(ValueError, match="without the heat/work ledger"):
        res.p_sum_00()


def test_run_batch_looks_up_its_accumulator_on_each_call(paper_cfg, monkeypatch):
    """A wrapper patched over ``sme._Sums`` sees every step of every block."""
    added = []

    class CountingSums(qtherm.sme._Sums):
        def add(self, i, *ledger):
            added.append(i)
            super().add(i, *ledger)

    cfg = paper_cfg(tau=0.2)
    grid = FeedbackConfig(mode="phase_locked", gain=np.array([[25.0], [30.0], [35.0]]))
    want = run_ensemble(cfg, grid.with_(gain=30.0), 8, lags=(0,))
    monkeypatch.setattr(qtherm.sme, "_Sums", CountingSums)
    monkeypatch.setattr(qtherm.sme, "GRID_LANES", 16)
    got = run_ensemble(cfg, grid, 8, lags=(0,))
    # 16 lanes hold two rows of 8 trajectories: blocks of rows (0, 1) and (2,).
    assert added == 2 * list(range(cfg.n_steps))
    assert np.array_equal(got.pair_moments[1], want.pair_moments)


def test_the_square_sums_are_kept_only_for_a_paired_lag(paper_cfg, monkeypatch):
    """Without a paired lag (none, or one as long as the run) the accumulator
    holds no dWF^2 or dQ^2 scratch, and ``fields`` returns the keys and the
    bytes of a paired run, but for the pair moments."""
    made = []

    class RecordingSums(qtherm.sme._Sums):
        def fields(self):
            out = super().fields()
            made.append((sorted(self.out), sorted(out)))
            return out

    monkeypatch.setattr(qtherm.sme, "_Sums", RecordingSums)
    cfg = paper_cfg(tau=0.2)
    fb = FeedbackConfig(mode="phase_locked", delay_steps=2)
    runs = [run_batch(cfg, fb, *_draws(cfg, 0, 40, False), lags=lags)
            for lags in ((0,), (), (cfg.n_steps,))]
    held = [{"dwf_sq", "dq_sq"} & set(kept) for kept, _ in made]
    assert held == [{"dwf_sq", "dq_sq"}, set(), set()]
    assert made[1][1] == made[2][1] == made[0][1]
    paired = runs[0]
    for res in runs[1:]:
        for f in fields(EnsembleResult)[4:]:  # after sim, fb, n_traj, lags
            if f.name == "pair_moments":
                continue
            got, want = getattr(res, f.name), getattr(paired, f.name)
            if f.name == "series":
                assert got == want == {}
            else:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name
    assert runs[1].pair_moments.shape == (0, 6)
    assert not runs[2].pair_moments.any()
