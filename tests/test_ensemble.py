import concurrent.futures
import gc
from concurrent.futures import Future
from dataclasses import fields

import numpy as np
import pytest

import qtherm.ensemble
import qtherm.sme
from qtherm.config import FeedbackConfig, SimConfig
from qtherm.ensemble import CHUNK_SIZE, EnsembleResult, _draws, _merge, _run_chunk, run_ensemble
from qtherm.experiments import run_efficacy_protocol, sweep_gain_offset
from qtherm.sme import run_batch
from qtherm.stats import pooled_pearson_r, rabi_contrast
from reference import per_point_sweep_contrast, two_pass_preparation
from reference import pooled_pearson_r as two_pass_pooled_pearson_r


def test_worker_count_does_not_change_results(paper_cfg, monkeypatch):
    cfg = paper_cfg(tau=1.0, seed=77)
    monkeypatch.setattr(qtherm.ensemble, "CHUNK_SIZE", 128)
    one = run_ensemble(cfg, n_traj=300, workers=1)
    three = run_ensemble(cfg, n_traj=300, workers=3)
    assert np.array_equal(one.p00_mean, three.p00_mean)
    assert np.array_equal(one.w, three.w)
    assert np.array_equal(one.q, three.q)
    assert np.array_equal(one.outcomes, three.outcomes)


def test_workers_are_checked_and_the_pool_has_at_most_one_per_chunk(paper_cfg, monkeypatch):
    cfg = paper_cfg(tau=0.2, seed=6)
    with pytest.raises(ValueError, match="^workers must be >= 1, got 0$"):
        run_ensemble(cfg, n_traj=4, workers=0)
    sizes = []

    class InlinePool:
        """Stands in for the process pool: records its size, runs work inline."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    # run_ensemble imports the pool class from its module when it needs one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(qtherm.ensemble, "CHUNK_SIZE", 32)
    pooled = run_ensemble(cfg, n_traj=96, workers=5000)
    assert sizes == [3]
    serial = run_ensemble(cfg, n_traj=96)
    assert np.array_equal(pooled.w, serial.w)
    assert np.array_equal(pooled.p00_sum, serial.p00_sum)


def test_per_trajectory_values_independent_of_chunking(paper_cfg, monkeypatch):
    cfg = paper_cfg(tau=0.5, seed=3)
    monkeypatch.setattr(qtherm.ensemble, "CHUNK_SIZE", 32)
    a = run_ensemble(cfg, n_traj=100)
    monkeypatch.setattr(qtherm.ensemble, "CHUNK_SIZE", 1000)
    b = run_ensemble(cfg, n_traj=100)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.final_z, b.final_z)
    assert np.array_equal(a.residuals, b.residuals)


def test_ensemble_result_consistency(paper_cfg):
    cfg = paper_cfg(tau=1.0, seed=2)
    res = run_ensemble(cfg, n_traj=200)
    # The path-dependent m=0 sum equals the state change up to rounding.
    assert np.allclose(res.p_sum_00(), res.final_p00 - 1.0, atol=1e-12)
    assert res.p00_mean[0] == 1.0
    assert (res.p00_sem >= 0).all()
    assert res.outcomes.shape == (200,)
    with pytest.raises(ValueError):
        run_ensemble(cfg, n_traj=0)


def test_requested_series_shapes(paper_cfg):
    cfg = paper_cfg(tau=0.2, seed=2)
    res = run_ensemble(cfg, n_traj=10, record=("p00", "dq"))
    n_steps = cfg.n_steps
    assert res.series["p00"].shape == (10, n_steps + 1)
    assert res.series["dq"].shape == (10, n_steps)
    assert "x" not in res.series


def test_sweep_zero_gain_point_matches_no_feedback(paper_cfg):
    cfg = paper_cfg(tau=6.0, seed=9)
    base = run_ensemble(cfg, n_traj=200)
    c_base = rabi_contrast(base.times, base.p00_mean, cfg.omega_r, window=(2.0, 6.0))
    gains = [0.0]
    contrast = sweep_gain_offset(gains, [-1.0], cfg, n_traj=200)
    assert contrast[0, 0] == pytest.approx(c_base, abs=1e-12)
    assert gains[np.unravel_index(np.argmax(contrast), contrast.shape)[0]] == 0.0


def test_sweep_flat_in_gain_at_zero_efficiency(paper_cfg):
    # With eta = 0 the record carries no signal, so feedback is pure noise
    # drive and the contrast stays at the no-feedback value statistically.
    cfg = paper_cfg(eta=0.0, tau=6.0, seed=10)
    contrast = sweep_gain_offset([0.0, 30.0], [-1.0], cfg, n_traj=400)
    assert abs(contrast[1, 0] - contrast[0, 0]) < 0.05


def test_sweep_grid_shape_and_empty_range(paper_cfg):
    # The CSV's row order is checked by test_cli's test_sweep_outputs.
    cfg = paper_cfg(tau=6.0, seed=11)
    contrast = sweep_gain_offset([20.0, 35.0], [-1.0, -0.5], cfg, n_traj=150)
    assert contrast.shape == (2, 2)
    with pytest.raises(ValueError):
        sweep_gain_offset([], [-1.0], cfg)


def test_sweep_rejects_a_mode_other_than_phase_locked():
    with pytest.raises(ValueError, match="phase-locked"):
        sweep_gain_offset([30], [-1], SimConfig(tau=5), FeedbackConfig(mode="optimal"),
                          n_traj=20)


def test_grid_lanes_reproduce_the_per_point_sweep(monkeypatch):
    """Two chunks per grid point and a grid that is no multiple of the block:
    the lane contrasts equal one ensemble per point, on one worker or two."""
    n_traj = CHUNK_SIZE + 52
    gains, offsets = [20.0, 30.0, 40.0, 45.0, 50.0], [-1.0]
    monkeypatch.setattr(qtherm.sme, "GRID_LANES", 4 * CHUNK_SIZE)
    sim = SimConfig(seed=5, tau=3.0)
    fb = FeedbackConfig(mode="phase_locked", delay_steps=5)
    want = per_point_sweep_contrast(gains, offsets, sim, fb, n_traj, window=(0.0, 3.0))
    for workers in (1, 2):
        got = sweep_gain_offset(gains, offsets, sim, fb, n_traj, window=(0.0, 3.0),
                                workers=workers)
        assert np.array_equal(got, want), workers


def test_grid_lanes_reproduce_each_point_of_a_thermal_kraus_run(monkeypatch):
    """Zero-delay feedback, thermal preparation and the Kraus step, in blocks of
    two points: every field of each grid point equals its own ensemble."""
    monkeypatch.setattr(qtherm.sme, "GRID_LANES", 100)
    sim = SimConfig(seed=6, tau=3.0, initial_state="thermal", beta=1.0)
    fb = FeedbackConfig(mode="phase_locked", delay_steps=0)
    gains, offsets = [25.0, 35.0, 45.0], [-1.25, -0.75]
    want = per_point_sweep_contrast(gains, offsets, sim, fb, 50, window=(0.0, 3.0))
    got = sweep_gain_offset(gains, offsets, sim, fb, 50, window=(0.0, 3.0))
    assert np.array_equal(got, want)

    grid = fb.with_(gain=np.array([[25.0], [45.0]]), offset=np.array([[-1.25], [-0.75]]))
    monkeypatch.setattr(qtherm.ensemble, "CHUNK_SIZE", 16)
    lanes = run_ensemble(sim, grid, 50, record=("p00", "dq"), lags=(0, 2), sample=True)
    for g, (a, b) in enumerate([(25.0, -1.25), (45.0, -0.75)]):
        one = run_ensemble(sim, fb.with_(gain=a, offset=b), 50, record=("p00", "dq"),
                           lags=(0, 2), sample=True)
        for name in ("p00_sum", "p00_m2", "dw_sum", "dwf_sum", "dq_sum", "pair_moments",
                     "hits", "w", "wf", "q", "final_z", "residuals", "outcomes"):
            assert np.array_equal(getattr(lanes, name)[g], getattr(one, name)), name
        for name in ("p00", "dq"):
            assert np.array_equal(lanes.series[name][g], one.series[name]), name
        assert np.array_equal(lanes.initial_labels, one.initial_labels)


def protocol_arrays(prot, row: int | None = None) -> dict[str, np.ndarray]:
    """Every array of an ``EfficacyProtocol``, its trajectory route's included;
    given a ``row``, row ``row`` of each array that has an eta axis."""
    tr = prot.trajectory_route
    arrays = {**{f.name: getattr(prot, f.name) for f in fields(prot)
                 if f.name != "trajectory_route"},
              **{"trajectory_route." + f.name: getattr(tr, f.name) for f in fields(tr)}}
    if row is None:
        return arrays
    return {name: a if name == "trajectory_route.times" else a[row]
            for name, a in arrays.items()}


def test_eta_lanes_reproduce_each_scalar_efficacy_protocol(monkeypatch):
    """Five efficiencies in uneven blocks (3 + 2) and two chunks per
    ensemble: every per-eta protocol equals its own scalar call under the
    same chunk size, field by field, on one worker or two."""
    n_traj, etas = 7, [0.0, 0.35, 0.6, 0.9, 1.0]
    sim = SimConfig(seed=8, tau=0.3, dt=0.005)
    fb = FeedbackConfig(mode="optimal")
    monkeypatch.setattr(qtherm.ensemble, "CHUNK_SIZE", 4)
    want = [run_efficacy_protocol(sim.with_(eta=eta), fb, n_traj) for eta in etas]
    # Three rows per block of the 4-lane chunk (3 + 2), four of the 3-lane one (4 + 1).
    monkeypatch.setattr(qtherm.sme, "GRID_LANES", 3 * 4)
    column = sim.with_(eta=np.reshape(etas, (-1, 1)))
    for workers in (1, 2):
        got = run_efficacy_protocol(column, fb, n_traj, workers=workers)
        assert len(got.wd_route_gamma) == len(etas)
        for i, (eta, w) in enumerate(zip(etas, want)):
            g, w = protocol_arrays(got, i), protocol_arrays(w)
            for name in w:
                assert np.array_equal(g[name], w[name]), (workers, eta, name)


@pytest.mark.parametrize("eta", [1.0, 0.35, [[0.35], [0.6], [1.0]]],
                         ids=["eta1", "eta0.35", "eta-grid"])
def test_streamed_p00_sem_equals_the_two_pass_sem(eta, monkeypatch):
    """The streamed ``p00_sem`` under optimal feedback, over two chunks for
    the grid, matches the ddof-1 spread of the recorded series, also where
    that spread is tiny (the ground preparation's first steps, sem ~ 1e-8)."""
    sim = SimConfig(seed=12, tau=0.5, dt=0.005, eta=np.asarray(eta, dtype=float))
    if np.ndim(eta):
        monkeypatch.setattr(qtherm.ensemble, "CHUNK_SIZE", 40)
    n = 64
    res = run_ensemble(sim, FeedbackConfig(mode="optimal"), n, record=("p00",))
    want = two_pass_preparation(res.series["p00"])
    assert np.allclose(res.p00_mean, want.p00_mean, rtol=1e-9, atol=1e-15)
    assert np.allclose(n * res.p00_sem**2, n * want.p00_sem**2, rtol=1e-9, atol=1e-15)
    assert np.allclose(res.p00_sem, want.p00_sem, rtol=1e-9, atol=1e-15)


@pytest.mark.parametrize("sim", [
    SimConfig(seed=14, tau=0.3, initial_state="thermal", beta=1.0,
              eta=np.array([[0.35], [1.0]])),
    SimConfig(seed=15, tau=0.3, initial_state=1),
], ids=["thermal-eta-grid", "excited"])
def test_sampling_counts_hits_and_leaves_every_other_field_alone(sim, monkeypatch):
    """Over two chunks: sampling changes no other field, ``outcomes`` among
    them; its last point counts the final outcomes, and an eigenstate
    preparation returns at t = 0 in every trajectory."""
    monkeypatch.setattr(qtherm.ensemble, "CHUNK_SIZE", 16)
    fb = FeedbackConfig(mode="optimal")
    off = run_ensemble(sim, fb, 40, record=("p00",), lags=(0, 1))
    on = run_ensemble(sim, fb, 40, record=("p00",), lags=(0, 1), sample=True)
    for f in fields(EnsembleResult)[4:]:  # after sim, fb, n_traj, lags
        if f.name == "series":
            assert np.array_equal(on.series["p00"], off.series["p00"])
        elif f.name == "hits":
            assert off.hits.shape == (*np.shape(sim.eta)[:-1], 0)
            assert on.hits.shape == (*np.shape(sim.eta)[:-1], sim.n_steps + 1)
        else:
            assert np.array_equal(getattr(on, f.name), getattr(off, f.name)), f.name
    assert np.array_equal(on.hits[..., -1], (on.outcomes == on.initial_labels).sum(-1))
    if sim.initial_state != "thermal":
        assert (on.hits[..., 0] == 40).all()


def test_merge_takes_a_lone_chunk_as_it_is_and_joins_several(paper_cfg):
    sim = paper_cfg(tau=0.2, seed=4)
    fb = FeedbackConfig(mode="phase_locked", delay_steps=0)
    a, b = (_run_chunk(sim, fb, start, count, ("p00", "dq"), (0, 2), True)
            for start, count in ((0, 5), (5, 3)))
    one = _merge(sim, fb, 5, [a])
    two = _merge(sim, fb, 8, [a, b])
    for f in fields(EnsembleResult)[4:]:
        got_one, got_two = getattr(one, f.name), getattr(two, f.name)
        parts = [getattr(a, f.name), getattr(b, f.name)]
        if f.metadata.get("merge") == "sum":
            assert np.array_equal(got_one, parts[0]), f.name
            assert np.array_equal(got_two, parts[0] + parts[1]), f.name
        elif f.metadata.get("merge") == "m2":
            s_a, s_b = (getattr(c, f.metadata["of"]) for c in (a, b))
            delta = s_b / 3 - s_a / 5
            assert got_one is parts[0], f.name
            assert np.array_equal(got_two, parts[0] + parts[1] + delta * delta * (15 / 8)), f.name
        elif f.name == "series":
            for k in parts[0]:
                assert got_one[k] is parts[0][k], k
                assert np.array_equal(got_two[k], np.concatenate([p[k] for p in parts], axis=-2))
        else:
            assert got_one is parts[0], f.name
            assert np.array_equal(got_two, np.concatenate(parts, axis=-1)), f.name


def test_a_batch_result_needs_no_merge(paper_cfg):
    """Within one chunk, ``run_batch``'s own means, error bars and r carry the
    bits of the ensemble's."""
    sim = paper_cfg(tau=0.2, seed=4)
    fb = FeedbackConfig(mode="phase_locked", delay_steps=2)
    batch = run_batch(sim, fb, *_draws(sim, 0, 40, False), lags=(0, 2))
    whole = run_ensemble(sim, fb, 40, lags=(0, 2))
    for name in ("p00_mean", "p00_sem", "dw_mean", "dwf_mean", "dq_mean", "pair_moments"):
        assert np.array_equal(getattr(batch, name), getattr(whole, name)), name
    assert pooled_pearson_r(batch, 2) == pooled_pearson_r(whole, 2)


@pytest.mark.parametrize("fb", [
    FeedbackConfig(mode="optimal"),
    FeedbackConfig(mode="phase_locked", gain=34.0, offset=-1.0, delay_steps=0),
    FeedbackConfig(mode="phase_locked", gain=34.0, offset=-1.0, delay_steps=5),
], ids=["optimal", "pll-delay0", "pll-delay5"])
def test_streamed_pearson_r_matches_the_two_pass_reference(fb):
    """Criterion 7's three ensembles, r from the pair moments against r from
    the recorded series."""
    cfg = SimConfig(seed=23, tau=8.0, dt=0.02)
    res = run_ensemble(cfg, fb, 400, record=("dwf", "dq"), lags=(0, 1, 5))
    for lag in (0, 1, 5):
        want = two_pass_pooled_pearson_r(res.series["dwf"], res.series["dq"], lag=lag)
        assert pooled_pearson_r(res, lag) == pytest.approx(want, rel=1e-12, abs=0.0), lag


def test_a_stream_lives_only_while_its_tile_draws(paper_cfg, monkeypatch):
    """Once the noise is drawn no trajectory stream of the chunk is alive.
    numpy's generators take no weak references, so they are counted among
    the objects the garbage collector tracks."""

    def live_streams():
        return sum(isinstance(o, np.random.Generator) for o in gc.get_objects())

    before = live_streams()
    during = []

    class CountingSums(qtherm.sme._Sums):
        def add(self, i, *ledger):
            if not during:
                during.append(live_streams())
            super().add(i, *ledger)

    monkeypatch.setattr(qtherm.sme, "_Sums", CountingSums)
    run_ensemble(paper_cfg(tau=0.2), n_traj=300)
    assert during[0] <= before, (during, before)
