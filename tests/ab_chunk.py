"""Time one ensemble chunk of this checkout against another copy of qtherm.

Loads ``qtherm`` from PARENT_SRC (a ``src`` directory holding a ``qtherm``
package, e.g. from ``git archive``) and from this checkout into one process,
checks that both give byte-identical chunk results, then alternates
``ensemble._run_chunk`` calls on three chunks, flipping which side goes first
each pair:

- ``ensemble_pll``: the 4,096 x 400 phase-locked chunk at 100 ns, lags (0, 5);
- ``sweep_grid``: the 35-row (gain, offset) grid x 1,500 x 300;
- ``efficacy_eta``: the 8-row eta grid x 500 x 200, optimal feedback, sampled.

A side whose ``_run_chunk`` takes ``ledger`` runs the last two chunks with
``ledger=False``, as the ``sweep`` and ``jarzynski`` commands do; their
comparison then reads only the state fields, which both sides keep.

It prints JSON: per chunk, both sides' median seconds and the median of the
per-pair change/parent time ratios, with its quartiles and a bootstrap 95%
interval.  pytest does not collect this file; run it from the repository root:

    python tests/ab_chunk.py PARENT_SRC [PAIRS]    # PAIRS defaults to 10
"""

import importlib
import importlib.util
import inspect
import json
import statistics
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
ETAS = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
GAINS = (15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0)
OFFSETS = (-1.5, -1.25, -1.0, -0.75, -0.5)
#: The chunks whose command integrates the state alone, and the fields they
#: compare: the state's, without the heat/work ledger.
STATE_ONLY = ("sweep_grid", "efficacy_eta")
STATE_FIELDS = ("p00_sum", "p00_m2", "hits", "initial_labels", "final_z", "outcomes", "series")


def load(name: str, src: Path):
    """The ``ensemble`` module of the ``qtherm`` package in ``src``, imported
    as the package ``name``."""
    package = src / "qtherm"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.ensemble")


def chunks(ensemble) -> dict:
    """Each chunk's ``_run_chunk`` arguments and keywords, built from
    ``ensemble``'s own config classes."""
    sim, fb = ensemble.SimConfig, ensemble.FeedbackConfig
    gain, offset = (a.reshape(-1, 1) for a in np.meshgrid(GAINS, OFFSETS, indexing="ij"))
    ledger_free = ({"ledger": False}
                   if "ledger" in inspect.signature(ensemble._run_chunk).parameters else {})
    args = {
        "ensemble_pll": (sim(), fb(mode="phase_locked", delay_steps=5), 0, 4096, (), (0, 5)),
        "sweep_grid": (sim(tau=6.0), fb(mode="phase_locked", delay_steps=5, gain=gain,
                                        offset=offset), 0, 1500, (), ()),
        "efficacy_eta": (sim(tau=1.0, dt=0.005, eta=np.reshape(ETAS, (-1, 1))),
                         fb(mode="optimal"), 0, 500, (), (), True),
    }
    return {name: (a, ledger_free if name in STATE_ONLY else {}) for name, a in args.items()}


def same_bytes(a, b, names=None) -> bool:
    """Every stored field of two chunk results, or those of ``names``, holds
    the same bytes."""
    for f in fields(a)[4:]:  # after sim, fb, n_traj, lags
        if names is not None and f.name not in names:
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "series":
            if x.keys() != y.keys() or not all(same_bytes_array(x[k], y[k]) for k in x):
                return False
        elif not same_bytes_array(x, y):
            return False
    return a.n_traj == b.n_traj and a.lags == b.lags


def same_bytes_array(x, y) -> bool:
    return (x.dtype, x.shape) == (y.dtype, y.shape) and x.tobytes() == y.tobytes()


def timed(ensemble, chunk) -> float:
    args, kwargs = chunk
    t0 = time.perf_counter()
    ensemble._run_chunk(*args, **kwargs)
    return time.perf_counter() - t0


def compare(name: str, parent, change, pairs: int) -> dict:
    args = {side: chunks(side)[name] for side in (parent, change)}
    # An untimed first run of each side checks the bytes and warms the caches.
    results = [side._run_chunk(*args[side][0], **args[side][1]) for side in (parent, change)]
    state_only = any(kwargs for _, kwargs in args.values())
    if not same_bytes(*results, STATE_FIELDS if state_only else None):
        raise SystemExit(f"{name}: the two sides' chunk results differ")
    seconds = {parent: [], change: []}
    for pair in range(pairs):
        for side in (parent, change) if pair % 2 == 0 else (change, parent):
            seconds[side].append(timed(side, args[side]))
    ratios = np.array(seconds[change]) / np.array(seconds[parent])
    boot = np.random.default_rng(0).choice(ratios, (2000, len(ratios)))
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "identical": True,
        "compared": "state fields" if state_only else "every field",
        "parent_s_median": statistics.median(seconds[parent]),
        "change_s_median": statistics.median(seconds[change]),
        "ratio_median": float(np.median(ratios)),
        "ratio_quartiles": [float(q1), float(q3)],
        "ratio_ci95": [float(v) for v in np.percentile(np.median(boot, axis=1), (2.5, 97.5))],
    }


def main(argv: list[str]) -> None:
    if not 1 <= len(argv) <= 2:
        raise SystemExit(__doc__)
    pairs = int(argv[1]) if len(argv) == 2 else 10
    parent = load("qtherm_parent", Path(argv[0]).resolve())
    change = load("qtherm", SRC)
    report = {"parent_src": str(Path(argv[0]).resolve()), "pairs": pairs,
              "chunks": {name: compare(name, parent, change, pairs)
                         for name in chunks(change)}}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
