"""Ensemble runner: noise streams, fixed-size chunks, optional process pool,
pure reductions.

Trajectory k draws from row k % 2048 of the stream block of key (seed, family,
k // 2048), the family named by its preparation (``rng_for_trajectory``), in
the fixed order [thermal-preparation uniform,] noise path, outcome uniforms;
``_draws`` hands a chunk's draws to ``sme.run_batch`` as arrays.  The float
sums are always taken over the same fixed chunks of ``CHUNK_SIZE``
trajectories, so the result is bit-identical no matter how many workers
execute them.  A chunk is one pool task (``_run_chunk``), one ``_draws`` and
``sme.run_batch`` call and one reduction block, and returns an
:class:`EnsembleResult` (defined in ``sme``, re-exported here); ``_merge``
combines the chunks' sums in chunk order and concatenates their per-trajectory
arrays and series along the trajectory axis, which is the last axis (the one
before the step axis for series), so that a leading grid axis (see
``sme.run_batch``) merges the same way.
"""

from __future__ import annotations

import math
from dataclasses import fields
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .bloch import gibbs_weights
from .config import NO_FEEDBACK, THERMAL, FeedbackConfig, SimConfig
from .sme import EnsembleResult, run_batch

#: Trajectory indices seeded together: one SeedSequence per block of them.
_SEED_BLOCK = 2048

#: The stream key family of each preparation.  A thermal trajectory draws its
#: label from its stream, so it keys as a ground one; family 1 keys none.
_KEY_FAMILY = {0: 0, THERMAL: 0, 1: 2}

#: Trajectories whose draws ``_draws`` writes into one scratch tile of
#: contiguous rows; 64-256 drew about equally fast, 16 and 1,024 slower.
_DRAW_TILE = 128

#: Trajectories per chunk: one pool task, one ``sme.run_batch`` call and one
#: reduction block.  Fixed (not worker-dependent) so that float reduction
#: order, and therefore output bytes, never depend on parallelism.  Larger
#: calls spend less interpreter time per lane, but the chunk sets the peak
#: process: a pool worker of the 40,000-trajectory PLL ensemble (4,096 lanes,
#: lags (0, 5), ``--workers 2``) peaks at about 46.6 MiB RSS, above the
#: command's main process at about 38 MiB.
CHUNK_SIZE = 4096


@lru_cache(maxsize=8)
def _seed_words(seed: int, family: int, block: int) -> np.ndarray:
    """(_SEED_BLOCK, 4) uint64: row j holds the PCG64 seed words of trajectory
    ``block*_SEED_BLOCK + j``, all drawn from ``SeedSequence(seed,
    spawn_key=(family, block))`` in one call.  Read-only, as it is cached."""
    words = np.random.SeedSequence(seed, spawn_key=(family, block)).generate_state(
        4 * _SEED_BLOCK, np.uint64
    ).reshape(_SEED_BLOCK, 4)
    words.flags.writeable = False
    # numpy.random loads lazily: processes that build no stream never import it.
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    return words


class _SeedWords:
    """A seed sequence whose PCG64 seed words are already known."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("only PCG64's four uint64 seed words are stored")
        return self.words


def rng_for_trajectory(seed: int, index: int, initial_state=0) -> np.random.Generator:
    """The RNG stream of trajectory ``index`` of a run prepared in
    ``initial_state``: a PCG64 seeded with row ``index % 2048`` of the words,
    cached per block, that ``SeedSequence(seed, spawn_key=(family, index //
    2048))`` generates, the family being ``_KEY_FAMILY[initial_state]``."""
    if initial_state not in _KEY_FAMILY:
        raise ValueError(f"no noise stream for initial state {initial_state!r}")
    words = _seed_words(seed, _KEY_FAMILY[initial_state], index // _SEED_BLOCK)
    return np.random.Generator(np.random.PCG64(_SeedWords(words[index % _SEED_BLOCK])))


def _draws(cfg: SimConfig, start: int, n: int, sample: bool):
    """The draws of trajectories [start, start + n), in the fixed stream
    order: (labels, noise, u), as ``sme.run_batch`` takes them.

    ``noise`` is the (n_steps, n) block of dX ~ N(0, dt) and ``u`` the
    (n_steps + 1, n) outcome uniforms when sampling every point, else (1, n).
    A stream's uniform j samples point n_steps - j, so its first draws the
    final outcome; ``u`` holds them in point order, row i for point i.
    A tile of trajectories at a time draws into contiguous scratch rows, and
    one transposed copy per tile fills the step-major arrays; the scratch is
    freed on return, before the step loop allocates.  Each trajectory builds
    its stream through ``rng_for_trajectory`` just before it draws, and the
    next one replaces it, so one stream lives at a time.  ``0.0 + sqrt(dt)*z``
    is numpy's own ``normal(0.0, sqrt(dt))``, so the bytes are those of one
    ``normal`` call per trajectory.
    """
    steps = cfg.n_steps
    sqrt_dt = math.sqrt(cfg.dt)
    thermal = cfg.initial_state == THERMAL
    p_exc_thermal = gibbs_weights(cfg.beta)[1] if thermal else None
    labels = np.full(n, 0 if thermal else cfg.initial_state, dtype=np.int8)
    noise = np.empty((steps, n))
    u = np.empty((steps + 1 if sample else 1, n))
    z_tile = np.empty((min(n, _DRAW_TILE), steps))
    u_tile = np.empty((len(z_tile), len(u)))
    for j in range(0, n, _DRAW_TILE):
        m = min(_DRAW_TILE, n - j)
        for r in range(m):
            rng = rng_for_trajectory(cfg.seed, start + j + r, cfg.initial_state)
            if thermal:
                labels[j + r] = rng.random() < p_exc_thermal
            rng.standard_normal(out=z_tile[r])
            rng.random(out=u_tile[r])
        z_rows = z_tile[:m]
        z_rows *= sqrt_dt
        z_rows += 0.0
        noise[:, j:j + m] = z_rows.T
        u[:, j:j + m] = u_tile[:m, ::-1].T
    return labels, noise, u


def _run_chunk(
    sim: SimConfig,
    fb: FeedbackConfig,
    start: int,
    count: int,
    record: tuple[str, ...],
    lags: tuple[int, ...],
    sample: bool = False,
    ledger: bool = True,
) -> EnsembleResult:
    """One pool task: the chunk of trajectories [start, start + count)."""
    # A run that overflows raises a ValueError naming the field; numpy's
    # warnings on the way there would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        return run_batch(sim, fb, *_draws(sim, start, count, sample), record=record, lags=lags,
                         ledger=ledger)


def run_ensemble(
    sim: SimConfig,
    fb: FeedbackConfig = NO_FEEDBACK,
    n_traj: int = 1,
    *,
    record: Iterable[str] = (),
    lags: Iterable[int] = (),
    sample: bool = False,
    ledger: bool = True,
    workers: int = 1,
) -> EnsembleResult:
    """Simulate ``n_traj`` independent trajectories and reduce the results.

    ``record`` names the per-trajectory series to keep (see sme.run_batch);
    mind the memory (n_traj * n_steps doubles per series).  ``lags`` names
    the lags whose (dWF, dQ) pair moments to pool, at no memory cost (see
    sme.run_batch and stats.pooled_pearson_r).  ``sample`` counts the
    sampled outcomes of every point into ``hits`` (see sme.run_batch).
    ``ledger=False`` integrates the state alone: the work, feedback-work and
    heat sums and totals come back empty, every other field keeps its bytes,
    and ``lags`` or a per-step series in ``record`` is a ValueError (see
    sme.run_batch).  ``workers`` > 1 distributes the chunks over a process pool; results are
    identical to a single-worker run.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    record, lags = tuple(record), tuple(lags)
    tasks = [(sim, fb, start, min(CHUNK_SIZE, n_traj - start), record, lags, sample, ledger)
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
