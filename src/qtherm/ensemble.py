"""Ensemble runner: fixed-size chunks, optional process pool, pure reductions.

Trajectory k always draws from the RNG stream of key (seed, 0, k // 2048),
row k % 2048 (``sme.rng_for_trajectory``), and the float sums are always
taken over the same fixed chunks of ``CHUNK_SIZE`` trajectories, so the
result is bit-identical no matter how many workers execute them.  A chunk
is one pool task (``_run_chunk``), one ``sme.run_batch`` call and one
reduction block, and returns an :class:`EnsembleResult` (defined in
``sme``, re-exported here); ``_merge`` combines the chunks' sums in chunk
order and concatenates their per-trajectory arrays and series along the
trajectory axis, which is the last axis (the one before the step axis for
series), so that a leading grid axis (see ``sme.run_batch``) merges the
same way.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Iterable, Sequence

import numpy as np

from .config import NO_FEEDBACK, FeedbackConfig, SimConfig
from .sme import EnsembleResult, rng_for_trajectory, run_batch

#: Trajectories per chunk: one pool task, one ``sme.run_batch`` call and one
#: reduction block.  Fixed (not worker-dependent) so that float reduction
#: order, and therefore output bytes, never depend on parallelism.  Larger
#: calls spend less interpreter time per lane, but the chunk sets the peak
#: process: a pool worker of the 40,000-trajectory PLL ensemble (4,096 lanes,
#: lags (0, 5), ``--workers 2``) peaks at about 46.6 MiB RSS, above the
#: command's main process at about 38 MiB.
CHUNK_SIZE = 4096


def _run_chunk(
    sim: SimConfig,
    fb: FeedbackConfig,
    start: int,
    count: int,
    record: tuple[str, ...],
    lags: tuple[int, ...],
    sample: bool = False,
) -> EnsembleResult:
    """One pool task: the chunk of trajectories [start, start + count)."""
    # A run that overflows raises a ValueError naming the field; numpy's
    # warnings on the way there would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        return run_batch(sim, fb, _Streams(sim.seed, start, count), record=record, lags=lags,
                         sample=sample)


class _Streams:
    """The streams of trajectories [start, start + count), built when sliced:
    ``sme.run_batch`` draws a tile at a time, so only that tile's are alive."""

    def __init__(self, seed: int, start: int, count: int):
        self.seed, self.start, self.count = seed, start, count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, part: slice) -> list[np.random.Generator]:
        return [rng_for_trajectory(self.seed, self.start + k) for k in range(self.count)[part]]


def run_ensemble(
    sim: SimConfig,
    fb: FeedbackConfig = NO_FEEDBACK,
    n_traj: int = 1,
    *,
    record: Iterable[str] = (),
    lags: Iterable[int] = (),
    sample: bool = False,
    workers: int = 1,
) -> EnsembleResult:
    """Simulate ``n_traj`` independent trajectories and reduce the results.

    ``record`` names the per-trajectory series to keep (see sme.run_batch);
    mind the memory (n_traj * n_steps doubles per series).  ``lags`` names
    the lags whose (dWF, dQ) pair moments to pool, at no memory cost (see
    sme.run_batch and stats.pooled_pearson_r).  ``sample`` counts the
    sampled outcomes of every point into ``hits`` (see sme.run_batch).
    ``workers`` > 1 distributes the chunks over a process pool; results are
    identical to a single-worker run.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    record, lags = tuple(record), tuple(lags)
    tasks = [(sim, fb, start, min(CHUNK_SIZE, n_traj - start), record, lags, sample)
             for start in range(0, n_traj, CHUNK_SIZE)]
    if workers > 1 and len(tasks) > 1:
        # Imported here: a serial run, the common case, never loads it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = [pool.submit(_run_chunk, *task) for task in tasks]
            batches = [f.result() for f in futures]
    else:
        batches = [_run_chunk(*task) for task in tasks]

    return _merge(sim, fb, n_traj, batches)


def _merge(
    sim: SimConfig, fb: FeedbackConfig, n_traj: int, batches: Sequence[EnsembleResult]
) -> EnsembleResult:
    """One result from the chunk results, one rule per field group.

    Per-step sums, pair moments and hit counts are added in chunk order
    starting from zeros; centred sums of squares are folded in chunk order by
    Chan, Golub & LeVeque, M2 = M2_a + M2_b + delta^2 n_a n_b / (n_a + n_b)
    with delta the gap of the two means.  Every other array, ``outcomes`` and
    each series are concatenated in chunk order, except that a lone chunk's
    are taken as they are, without a copy.  Every chunk accumulated the same
    ``lags``.
    """
    merged: dict = {}
    for f in fields(EnsembleResult)[4:]:  # after sim, fb, n_traj, lags
        parts = [getattr(b, f.name) for b in batches]
        rule = f.metadata.get("merge")
        if rule == "sum":
            merged[f.name] = sum(parts, np.zeros_like(parts[0]))
        elif rule == "m2":
            m2, n_a, s_a = parts[0], batches[0].n_traj, getattr(batches[0], f.metadata["of"])
            for b, m2_b in zip(batches[1:], parts[1:]):
                n_b, s_b = b.n_traj, getattr(b, f.metadata["of"])
                delta = s_b / n_b - s_a / n_a
                m2 = m2 + m2_b + delta * delta * (n_a * n_b / (n_a + n_b))
                n_a, s_a = n_a + n_b, s_a + s_b
            merged[f.name] = m2
        elif len(parts) == 1:
            merged[f.name] = parts[0]
        elif f.name == "series":
            merged[f.name] = {k: np.concatenate([p[k] for p in parts], axis=-2) for k in parts[0]}
        else:
            merged[f.name] = np.concatenate(parts, axis=-1)
    return EnsembleResult(sim=sim, fb=fb, n_traj=n_traj, lags=batches[0].lags, **merged)
