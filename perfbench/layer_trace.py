"""Span tracer that wraps qtherm's public functions from outside the package.

``install`` replaces module attributes of the imported qtherm modules with
timing wrappers; qtherm's source is never edited.  Every wrapped call becomes
one span ``[name, pid, start, end, parent, counts]``, kept in memory and
reduced to per-layer metrics by ``layer_metrics`` when the command ends.

Pool workers leave through ``os._exit``, so nothing they hold in memory
survives them.  The chunk wrapper therefore sends the spans a worker recorded
for one chunk back to the parent inside that chunk's own result, and the merge
wrapper adopts them before the chunk results are merged.  This relies on the
pool forking its workers from the traced parent; a worker that does not run the
wrappers sends nothing, which ``layer_metrics`` shows as a nonzero
``trace.missing_traj``.
"""

from __future__ import annotations

import functools
import os
import time

_NAME, _PID, _T0, _T1, _PARENT, _COUNTS = range(6)


class Tracer:
    """In-memory span recorder for one process (and its forked workers)."""

    def __init__(self) -> None:
        self.home_pid = os.getpid()
        self.pid = self.home_pid
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call.

        ``count(result, *args, **kwargs)`` may return a dict of work counters
        to attach to the span; it runs after the span has ended.
        """
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.pid, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[_T0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_T1] = clock()
                stack.pop()
            if count is not None:
                span[_COUNTS] = count(result, *args, **kwargs)
            return result

        return traced

    def wrap_chunk(self, fn):
        """``ensemble._run_chunk``, shipping a worker's spans with its result."""
        traced = self.wrap("ensemble.chunk", fn)

        @functools.wraps(fn)
        def run_chunk(*args, **kwargs):
            if os.getpid() == self.home_pid:
                return traced(*args, **kwargs)
            # A forked worker inherits the parent's spans; they are not its own.
            self.spans.clear()
            self.stack.clear()
            self.pid = os.getpid()
            result = traced(*args, **kwargs)
            result.trace_spans = list(self.spans)
            self.spans.clear()
            return result

        return run_chunk

    def wrap_merge(self, fn):
        """``ensemble._merge``, adopting the spans that came back from workers."""

        @functools.wraps(fn)
        def merge(sim, fb, n_traj, batches):
            parent = self.stack[-1] if self.stack else -1
            for batch in batches:
                shipped = batch.__dict__.pop("trace_spans", None)
                if shipped:
                    offset = len(self.spans)
                    for span in shipped:
                        span[_PARENT] = parent if span[_PARENT] < 0 else span[_PARENT] + offset
                        self.spans.append(span)
            return fn(sim, fb, n_traj, batches)

        return merge


class _RowCounter:
    def __init__(self, rows) -> None:
        self.rows = rows
        self.n = 0

    def __iter__(self):
        for row in self.rows:
            self.n += 1
            yield row


def install(tracer: Tracer) -> None:
    """Wrap the functions each qtherm layer exposes to the layer above it.

    Names are patched where the caller looks them up: ``pll_drive`` in
    ``qtherm.sme``, ``run_batch`` in ``qtherm.ensemble``, ``run_ensemble`` in
    both ``qtherm.cli`` and ``qtherm.experiments``, and so on.
    """
    import qtherm.cli as cli
    import qtherm.ensemble as ensemble
    import qtherm.experiments as experiments
    import qtherm.io as io
    import qtherm.sme as sme

    wrap = tracer.wrap

    def batch_counts(_result, cfg, _fb, rngs, *_args, **_kwargs):
        return {"lanes": len(rngs), "traj_steps": len(rngs) * cfg.n_steps}

    def ensemble_counts(result, *_args, workers=1, **_kwargs):
        return {
            "n_traj": result.n_traj,
            "series_bytes": sum(a.nbytes for a in result.series.values()),
            "workers": workers,
        }

    def csv_counts(_result, path, _header, rows):
        return {"rows": rows.n, "bytes": os.path.getsize(path)}

    ensemble.rng_for_trajectory = wrap("sme.stream", ensemble.rng_for_trajectory)
    ensemble.run_batch = wrap("sme.run_batch", ensemble.run_batch, batch_counts)
    sme.pll_drive = wrap("feedback.drive", sme.pll_drive)
    sme.optimal_drive = wrap("feedback.drive", sme.optimal_drive)
    ensemble._run_chunk = tracer.wrap_chunk(ensemble._run_chunk)
    ensemble._merge = tracer.wrap_merge(ensemble._merge)

    run_ensemble = wrap("ensemble.run", ensemble.run_ensemble, ensemble_counts)
    cli.run_ensemble = experiments.run_ensemble = run_ensemble
    cli.sweep_gain_offset = wrap("experiments.protocol", cli.sweep_gain_offset)
    cli.run_efficacy_protocol = wrap("experiments.protocol", cli.run_efficacy_protocol)

    experiments.efficacy_from_trajectories = wrap(
        "stats.bootstrap", experiments.efficacy_from_trajectories
    )
    cli.pooled_pearson_r = wrap("stats.pearson", cli.pooled_pearson_r)
    cli.rabi_contrast = wrap("stats.contrast", cli.rabi_contrast)
    experiments.rabi_contrast = wrap("stats.contrast", experiments.rabi_contrast)

    write_csv = wrap("io.csv", cli.write_csv, csv_counts)

    @functools.wraps(cli.write_csv)
    def counted_write_csv(path, header, rows):
        return write_csv(path, header, _RowCounter(rows))

    cli.write_csv = counted_write_csv
    # The manifest's constructor runs `git describe`; write() serialises it.
    cli.RunManifest = wrap("io.manifest", cli.RunManifest)
    io.RunManifest.write = wrap("io.manifest", io.RunManifest.write)
    cli.main = wrap("cli.main", cli.main)


def layer_metrics(spans: list[list], import_s: float) -> dict[str, float]:
    """Per-layer metrics of one command from its spans.

    Times are summed over processes, so with a pool they are busy seconds,
    not wall seconds.  A span's self time excludes only child spans of its
    own process.  ``import_s`` (importing ``qtherm.cli``) is added to
    ``cli.self_s``.  ``trace.missing_traj`` (trajectories that ensembles
    returned but no traced batch integrated) is 0 unless spans were lost.
    """
    dur = [s[_T1] - s[_T0] for s in spans]
    child = [0.0] * len(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[_NAME], []).append(i)
        p = s[_PARENT]
        if p >= 0 and spans[p][_PID] == s[_PID]:
            child[p] += dur[i]

    def of(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur[i] for i in of(name))

    def self_time(name):
        return sum(dur[i] - child[i] for i in of(name))

    def counted(name, key):
        return sum((spans[i][_COUNTS] or {}).get(key, 0) for i in of(name))

    streams = len(of("sme.stream"))
    batches = len(of("sme.run_batch"))
    traj_steps = counted("sme.run_batch", "traj_steps")

    # Pool utilisation: chunk busy time over the time the chunk runners were
    # available, that is (workers that ran them) x (run_ensemble wall).
    runs = of("ensemble.run")
    pooled = {
        spans[i][_PARENT]
        for i in of("ensemble.chunk")
        if spans[i][_PARENT] >= 0 and spans[spans[i][_PARENT]][_PID] != spans[i][_PID]
    }
    capacity = sum(
        dur[i] * (spans[i][_COUNTS]["workers"] if i in pooled else 1) for i in runs
    )
    protocols = set(of("experiments.protocol"))

    return {
        "sme.streams": streams,
        "sme.stream_setup_s": total("sme.stream"),
        "sme.stream_setup_us_per_traj": 1e6 * total("sme.stream") / streams if streams else 0.0,
        "sme.batches": batches,
        "sme.lanes_per_batch": counted("sme.run_batch", "lanes") / batches if batches else 0.0,
        "sme.traj_steps": traj_steps,
        "sme.run_batch_s": self_time("sme.run_batch"),
        "sme.ns_per_traj_step": 1e9 * total("sme.run_batch") / traj_steps if traj_steps else 0.0,
        "feedback.drive_calls": len(of("feedback.drive")),
        "feedback.drive_s": total("feedback.drive"),
        "ensemble.calls": len(runs),
        "ensemble.chunks": len(of("ensemble.chunk")),
        "ensemble.self_s": self_time("ensemble.run"),
        "ensemble.pool_util": total("ensemble.chunk") / capacity if capacity else 0.0,
        "ensemble.series_mb": counted("ensemble.run", "series_bytes") / 2**20,
        "experiments.ensembles": sum(1 for i in runs if spans[i][_PARENT] in protocols),
        "experiments.self_s": self_time("experiments.protocol"),
        "stats.bootstrap_s": total("stats.bootstrap"),
        "stats.pearson_s": total("stats.pearson"),
        "stats.contrast_s": total("stats.contrast"),
        "io.csv_s": total("io.csv"),
        "io.csv_rows": counted("io.csv", "rows"),
        "io.csv_mb": counted("io.csv", "bytes") / 2**20,
        "io.manifest_s": total("io.manifest"),
        "cli.self_s": self_time("cli.main") + import_s,
        "trace.missing_traj": counted("ensemble.run", "n_traj") - counted("sme.run_batch", "lanes"),
    }
