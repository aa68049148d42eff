"""Run ``qtherm.cli`` in one of the two instrumented modes the runner needs.

    python probe.py setup ARGS...          # stop at the first engine call
    python probe.py trace OUT.json ARGS... # run traced, write layer metrics

``setup`` measures what a user waits for before any integration starts:
interpreter start, ``import qtherm.cli``, argument parsing and config
assembly.  It replaces the three engine entry points the CLI calls with a stub
that ends the process, and exits 0 only if one of them was reached.

``trace`` installs the span tracer of ``layer_trace``, runs the command to
completion and writes its per-layer metrics to OUT.json.  The exit code is
the CLI's.  Both modes expect ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import sys
import time


class _EngineReached(Exception):
    pass


def _stop(*_args, **_kwargs):
    raise _EngineReached


def setup(argv: list[str]) -> int:
    import qtherm.cli as cli

    cli.run_ensemble = cli.sweep_gain_offset = cli.run_efficacy_protocol = _stop
    try:
        cli.main(argv)
    except _EngineReached:
        return 0
    print("probe: the command returned before its first engine call", file=sys.stderr)
    return 3


def trace(out: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import qtherm.cli as cli

    import_s = time.perf_counter() - t0
    import layer_trace

    tracer = layer_trace.Tracer()
    layer_trace.install(tracer)
    rc = cli.main(argv)
    with open(out, "w") as fh:
        json.dump(layer_trace.layer_metrics(tracer.spans, import_s), fh)
    return rc


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(rest))
    if mode == "trace":
        sys.exit(trace(rest[0], rest[1:]))
    sys.exit(f"probe: unknown mode {mode!r}")
