"""Ensemble runner: fixed-size chunks, optional process pool, pure reductions.

Trajectory k always draws from the RNG stream of key (seed, 0, k // 2048),
row k % 2048 (``sme.rng_for_trajectory``), and the float sums are always
taken over the same fixed chunks of ``chunk_size`` trajectories, so the
result is bit-identical no matter how many workers execute them.  A pool
task (``_run_chunk``) is one ``sme.run_batch`` call over a batch of whole
chunks, each reduced as its own block, and returns an
:class:`EnsembleResult` (defined in ``sme``, re-exported here); ``_merge``
adds the blocks' per-step sums and pair moments in chunk order and
concatenates their per-trajectory arrays and series along the trajectory
axis, which is the last axis (the one before the step axis for series), so
that a leading grid axis (see ``sme.run_batch``) merges the same way.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from typing import Iterable, Sequence

import numpy as np

from .config import NO_FEEDBACK, FeedbackConfig, SimConfig
from .sme import EnsembleResult, rng_for_trajectory, run_batch

#: Trajectories per chunk, the reduction block.  Fixed (not worker-dependent)
#: so that float reduction order, and therefore output bytes, never depend on
#: parallelism.
CHUNK_SIZE = 2048

#: Most lanes (grid points x trajectories) one batch integrates, unless a
#: single chunk holds more: larger batches spend less interpreter time per
#: lane, smaller ones less memory per worker.  One worker process running a
#: PLL batch with lags (0, 5) peaked at 46.1, 54.6, 63.0 and 71.6 MiB RSS
#: for 2,048, 4,096, 6,144 and 8,192 lanes; 4,096 is the largest of these
#: under the ~62 MiB that the ensemble command's main process peaks at, so
#: a run's largest RSS does not grow.  Its CPU gain on the ensemble_pll
#: benchmark is in BENCH_17.json, measured with two workers only.
BATCH_LANES = 4096


def _run_chunk(
    sim: SimConfig,
    fb: FeedbackConfig,
    start: int,
    count: int,
    record: tuple[str, ...],
    lags: tuple[int, ...],
    chunk_size: int = CHUNK_SIZE,
) -> EnsembleResult:
    """One pool task: trajectories [start, start + count), whole chunks of
    ``chunk_size`` (the last one may be short), as one batch."""
    rngs = [rng_for_trajectory(sim.seed, start + k) for k in range(count)]
    return run_batch(sim, fb, rngs, record=record, lags=lags, block=chunk_size)


def run_ensemble(
    sim: SimConfig,
    fb: FeedbackConfig = NO_FEEDBACK,
    n_traj: int = 1,
    *,
    record: Iterable[str] = (),
    lags: Iterable[int] = (),
    workers: int = 1,
    chunk_size: int = CHUNK_SIZE,
) -> EnsembleResult:
    """Simulate ``n_traj`` independent trajectories and reduce the results.

    ``record`` names the per-trajectory series to keep (see sme.run_batch);
    mind the memory (n_traj * n_steps doubles per series).  ``lags`` names
    the lags whose (dWF, dQ) pair moments to pool, at no memory cost (see
    sme.run_batch and stats.pooled_pearson_r).  Whole chunks are batched,
    up to ``BATCH_LANES`` lanes each but at least ``min(workers, chunks)``
    batches; ``workers`` > 1 distributes the batches over a process pool.
    Results are identical to a single-worker run at the same chunk size.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    record, lags = tuple(record), tuple(lags)
    # Contiguous runs of whole chunks, the later batches the larger if uneven.
    chunks = -(-n_traj // chunk_size)
    points = math.prod(np.broadcast_shapes(np.shape(fb.gain), np.shape(fb.offset),
                                           np.shape(sim.eta)))
    per_batch = max(1, BATCH_LANES // (points * chunk_size))
    n_batches = max(-(-chunks // per_batch), min(workers, chunks))
    edges = [min(chunks * b // n_batches * chunk_size, n_traj) for b in range(n_batches + 1)]
    tasks = [(sim, fb, lo, hi - lo, record, lags, chunk_size)
             for lo, hi in zip(edges, edges[1:])]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = [pool.submit(_run_chunk, *task) for task in tasks]
            batches = [f.result() for f in futures]
    else:
        batches = [_run_chunk(*task) for task in tasks]

    return _merge(sim, fb, n_traj, batches)


def _merge(
    sim: SimConfig, fb: FeedbackConfig, n_traj: int, batches: Sequence[EnsembleResult]
) -> EnsembleResult:
    """One result from the batch results, one rule per field group.

    Per-step sums and pair moments, held per chunk along each batch's
    leading block axis, are added in chunk order starting from zeros; every
    other array, ``outcomes`` and each series are concatenated in batch
    order, except that a lone batch's are taken as they are, without a copy.
    Every batch accumulated the same ``lags``.
    """
    merged: dict = {}
    for f in fields(EnsembleResult)[4:]:  # after sim, fb, n_traj, lags
        parts = [getattr(b, f.name) for b in batches]
        if f.metadata.get("merge") == "sum":
            blocks = [block for part in parts for block in part]
            merged[f.name] = sum(blocks, np.zeros_like(blocks[0]))
        elif len(parts) == 1:
            merged[f.name] = parts[0]
        elif f.name == "series":
            merged[f.name] = {k: np.concatenate([p[k] for p in parts], axis=-2) for k in parts[0]}
        else:
            merged[f.name] = np.concatenate(parts, axis=-1)
    return EnsembleResult(sim=sim, fb=fb, n_traj=n_traj, lags=batches[0].lags, **merged)
