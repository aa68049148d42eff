"""Command-line front end.

Subcommands: trajectory, ensemble, jarzynski, sweep, verify.  Parameters come
from an INI-style config file (key = value sections, units in the key names)
overridden by flags.  All physical quantities carry unit suffixes
(gamma_per_us, dt_ns, ...) to keep the us/ns bookkeeping explicit.

``PARAMS`` declares every parameter once: its INI section and key, its
type, the config field it sets and its flag (the key with dashes, e.g.
``[numerics] dt_ns`` is ``--dt-ns``); README.md shows a full config file.
``COMMANDS`` declares which of them each subcommand reads and its own
defaults; a subcommand offers only those flags.
"""

from __future__ import annotations

import os

# One BLAS thread per process, fixed before numpy loads: ``--workers`` is the
# only parallelism, and pool workers inherit the variable.  A value the
# caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import configparser
import math
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .config import FeedbackConfig, SimConfig, delay_steps_for
from .ensemble import CHUNK_SIZE, run_ensemble
from .experiments import run_efficacy_protocol, sweep_gain_offset
from .io import RunManifest, config_snapshot, write_csv, write_json
from .oracle import ensemble_vs_oracle, lindblad_evolve
from .sme import SERIES
from .stats import InsufficientSpanError, ZeroVarianceError, pooled_pearson_r, rabi_contrast
from .bloch import GROUND, closed_rabi_probabilities

_FEEDBACK_ALIASES = {"pll": "phase_locked", "phase_locked": "phase_locked",
                     "optimal": "optimal", "none": "none"}


class _Param(NamedTuple):
    """One user parameter.  ``convert`` maps its value onto the target field;
    the flag is ``--key-with-dashes`` unless named."""

    section: str
    type: Callable
    target: str  # "sim.<field>", "fb.<field>" or "run.<field>"
    convert: Callable | None = None
    flag: str = ""
    choices: Sequence[str] | None = None


def _initial_state(text: str):
    text = text.strip()
    return int(text) if text in ("0", "1") else text


#: Every user parameter, once.  Flags, the INI reader and ``_assemble``
#: derive from this table.  ``delay_ns`` becomes whole steps of the
#: integrated dt, and only when feedback is on.
PARAMS = {
    "gamma_per_us": _Param("physics", float, "sim.gamma"),
    "omega_mhz": _Param("physics", float, "sim.omega_r", lambda v: 2.0 * math.pi * v),
    "eta": _Param("physics", float, "sim.eta"),
    "beta": _Param("physics", float, "sim.beta"),
    "dt_ns": _Param("numerics", float, "sim.dt", lambda v: v * 1e-3),
    "tau_us": _Param("numerics", float, "sim.tau"),
    "seed": _Param("numerics", int, "sim.seed"),
    "initial_state": _Param("numerics", str, "sim.initial_state", _initial_state),
    "mode": _Param("feedback", str, "fb.mode", _FEEDBACK_ALIASES.__getitem__,
                   flag="--feedback", choices=sorted(_FEEDBACK_ALIASES)),
    "gain": _Param("feedback", float, "fb.gain"),
    "offset": _Param("feedback", float, "fb.offset"),
    "delay_ns": _Param("feedback", float, "fb.delay_steps"),
    "n_traj": _Param("run", int, "run.n_traj"),
    "workers": _Param("run", int, "run.workers"),
    "out_dir": _Param("run", Path, "run.out_dir"),
}


class _Command(NamedTuple):
    """What one subcommand reads.

    ``reads`` are the ``PARAMS`` keys it integrates, ``defaults`` its own
    values for some of them (as a config file gives them), ``choices``
    narrows a parameter's choices and ``lists`` are its comma-separated
    list flags with their defaults.
    """

    help: str
    reads: tuple[str, ...]
    defaults: dict = {}
    choices: dict = {}
    lists: dict = {}

    def params(self) -> dict[str, _Param]:
        return {key: PARAMS[key]._replace(choices=self.choices.get(key, PARAMS[key].choices))
                for key in self.reads}


def _all_but(*keys: str) -> tuple[str, ...]:
    return tuple(key for key in PARAMS if key not in keys)


#: The one statement of what each subcommand reads.  A flag it does not read
#: is not offered (argparse exits 2); a config-file key it does not read is
#: checked and then ignored, since one file may serve several commands.
COMMANDS = {
    "trajectory": _Command("one trajectory -> CSV + sidecar",
                           _all_but("n_traj", "workers")),
    "ensemble": _Command("ensemble statistics -> CSVs + summary", tuple(PARAMS)),
    # Each eta runs a ground- and an excited-prepared ensemble.
    "jarzynski": _Command("efficacy vs time for a list of eta",
                          _all_but("eta", "initial_state"),
                          lists={"eta_list": "0.35,0.6,0.8,1.0"}),
    "sweep": _Command("phase-locked (gain, offset) contrast grid",
                      _all_but("gain", "offset"),
                      defaults={"mode": "phase_locked"},
                      choices={"mode": ("phase_locked", "pll")},
                      lists={"gain_grid": "15,20,25,30,35,40,45",
                             "offset_grid": "-1.5,-1.25,-1,-0.75,-0.5"}),
    # The checks start from a ground preparation without feedback and choose
    # their own durations and ensemble sizes.
    "verify": _Command("run the invariant suite, nonzero exit on failure",
                       ("gamma_per_us", "omega_mhz", "eta", "dt_ns", "seed", "out_dir")),
}


class _Run(NamedTuple):
    """Run options that are not part of the integrated configuration."""

    n_traj: int = 1000
    workers: int = 1
    out_dir: Path = Path("runs")


def _parse_config_file(path: str, params: dict[str, _Param]) -> dict:
    """Values of the keys in ``params``; every other key is checked against
    ``PARAMS`` and left out."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if not parser.read(path):
            raise ValueError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ValueError(f"{path}: " + " ".join(str(exc).split())) from exc
    sections = {p.section for p in PARAMS.values()}
    values: dict = {}
    for section in parser.sections():
        if section not in sections:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in PARAMS or PARAMS[key].section != section:
                raise ValueError(f"{path}: unknown key '{key}' in [{section}]")
            param = params.get(key, PARAMS[key])
            try:
                value = param.type(raw)
                if param.choices and value not in param.choices:
                    raise ValueError(f"must be one of {', '.join(param.choices)}")
            except ValueError as exc:
                raise ValueError(f"{path}: [{section}] {key} = {raw!r}: {exc}") from exc
            if key in params:
                values[key] = value
    return values


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qtherm",
        description="Heat and work along trajectories of a monitored, driven qubit",
    )
    sub = top.add_subparsers(dest="command", required=True)

    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        p.add_argument("--config", help="INI config file")
        for key, param in command.params().items():
            p.add_argument(param.flag or "--" + key.replace("_", "-"), dest=key,
                           type=param.type, choices=param.choices,
                           help=f"[{param.section}] {key} in the config file")
        for key, default in command.lists.items():
            p.add_argument("--" + key.replace("_", "-"), default=default, dest=key,
                           type=float_list)
    return top


def _assemble(args) -> tuple[SimConfig, FeedbackConfig, _Run]:
    """Configs from the command's defaults, the config file and the flags, in
    rising priority; unset fields keep the dataclass defaults."""
    command = COMMANDS[args.command]
    params = command.params()
    values = dict(command.defaults)
    if args.config:
        values.update(_parse_config_file(args.config, params))
    values.update({key: getattr(args, key) for key in params
                   if getattr(args, key, None) is not None})
    targets: dict[str, dict] = {"sim": {}, "fb": {}, "run": {}}
    for key, value in values.items():
        param = PARAMS[key]
        group, name = param.target.split(".")
        targets[group][name] = param.convert(value) if param.convert else value
    delay_ns = targets["fb"].pop("delay_steps", None)
    if delay_ns is not None and not math.isfinite(delay_ns):
        raise ValueError(f"delay_ns must be finite, got {delay_ns!r}")
    sim = SimConfig(**targets["sim"])
    fb = FeedbackConfig(**targets["fb"])
    # Whole steps matter only to a run with feedback.
    if fb.mode != "none" and delay_ns is not None:
        fb = fb.with_(delay_steps=delay_steps_for(delay_ns, sim.dt))
    return sim, fb, _Run(**targets["run"])


def float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _columns(*columns):
    """CSV rows from equal-length columns, as Python ints and floats, made
    4,096 rows at a time so that no column is held as a whole list."""
    columns = [np.asarray(c) for c in columns]
    for a in range(0, len(columns[0]), 4096):
        yield from zip(*(c[a:a + 4096].tolist() for c in columns))


class _Done(NamedTuple):
    """What a command reports to ``main``: its outputs, its trajectory count,
    the lists it ran over in place of a config field (jarzynski's eta list,
    sweep's grids) and its exit code."""

    outputs: list[str]
    n_traj: int
    ran_over: dict = {}
    code: int = 0


def cmd_trajectory(args, sim: SimConfig, fb: FeedbackConfig, run: _Run) -> _Done:
    out = run.out_dir
    res = run_ensemble(sim, fb, 1, record=SERIES)
    # One row per step: time at step end, post-step state, step increments.
    s = {name: arr[0] for name, arr in res.series.items()}
    write_csv(out / "trajectory.csv", ("t", "x", "z", "dV", "dW", "dWF", "dQ", "dU"),
              _columns(res.times[1:], s["x"][1:], s["z"][1:], s["dv"], s["dw"], s["dwf"],
                       s["dq"], s["dw"] + s["dwf"] + s["dq"]))
    sidecar = config_snapshot(res.sim, res.fb)
    sidecar.update(initial_label=int(res.initial_labels[0]),
                   final_outcome=int(res.outcomes[0]), manifest="manifest.json")
    write_json(out / "trajectory_config.json", sidecar)
    print(f"trajectory: {sim.n_steps} steps, W={res.w[0]:+.4f} WF={res.wf[0]:+.4f} "
          f"Q={res.q[0]:+.4f} residual={res.residuals[0]:.2e} -> {out}")
    return _Done(["trajectory.csv", "trajectory_config.json"], 1)


def cmd_ensemble(args, sim: SimConfig, fb: FeedbackConfig, run: _Run) -> _Done:
    n = run.n_traj
    if n < 2:
        raise ValueError(f"ensemble needs n_traj >= 2 for an error bar, got {n}")
    out = run.out_dir
    # With feedback on, r(dWF, dQ) at lag 0 and at the loop delay.
    lags = sorted({0, fb.delay_steps}) if fb.mode != "none" else []
    res = run_ensemble(sim, fb, n, lags=lags, workers=run.workers)
    # Per-step means start with a zero row at t = 0.
    steps = (np.concatenate(([0.0], m)) for m in (res.dw_mean, res.dwf_mean, res.dq_mean))
    write_csv(out / "timeseries.csv",
              ("t", "p00_mean", "p00_sem", "dW_mean", "dWF_mean", "dQ_mean"),
              _columns(res.times, res.p00_mean, res.p00_sem, *steps))
    write_csv(out / "trajectories.csv",
              ("traj", "initial_label", "pW00", "pQ00", "pF00", "p00_final", "outcome"),
              _columns(np.arange(n), res.initial_labels, -res.w, -res.q, -res.wf,
                       res.final_p00, res.outcomes))
    sums = res.p_sum_00()
    summary: dict = {
        "n_traj": n,
        "max_first_law_residual": float(res.residuals.max()),
        "p_sum00_range": [float(sums.min()), float(sums.max())],
        "manifest": "manifest.json",
        # The last timeseries.csv row, pooled over the preparations.
        "p00_final": float(res.p00_mean[-1]),
        "p00_final_sem": float(res.p00_sem[-1]),
    }
    try:
        summary["contrast"] = rabi_contrast(res.times, res.p00_mean, sim.omega_r,
                                            window=(2.0, sim.tau))
    except InsufficientSpanError:
        summary["contrast"] = None
    for lag in lags:
        try:
            summary[f"r_wf_q_lag{lag}"] = pooled_pearson_r(res, lag)
        except ZeroVarianceError:
            summary[f"r_wf_q_lag{lag}"] = None
    write_json(out / "summary.json", summary)
    print(f"ensemble: {n} trajectories, P00(tau)={summary['p00_final']:.4f} -> {out}")
    return _Done(["timeseries.csv", "trajectories.csv", "summary.json"], n)


def cmd_jarzynski(args, sim: SimConfig, fb: FeedbackConfig, run: _Run) -> _Done:
    if sim.beta <= 0:
        raise ValueError("jarzynski requires beta > 0")
    etas = args.eta_list
    if not etas:
        raise ValueError("--eta-list is empty")
    keys = [f"{eta:g}" for eta in etas]
    if len(set(keys)) < len(keys):
        raise ValueError(f"--eta-list {','.join(keys)} names an output file twice")
    # The whole list is checked here, before any output is written.
    column = sim.with_(eta=np.reshape(etas, (-1, 1)))
    out = run.out_dir
    outputs = [f"efficacy_eta{key}.csv" for key in keys]
    summary: dict = {"etas": etas, "per_eta": {}, "manifest": "manifest.json"}
    prot = run_efficacy_protocol(column, fb, n_traj=run.n_traj, workers=run.workers)
    tr = prot.trajectory_route
    # Row i of each array is the protocol at etas[i].
    for i, (key, name) in enumerate(zip(keys, outputs)):
        write_csv(out / name,
                  ("t", "gamma_traj", "stderr_traj", "gamma_wd", "stderr_wd", "c00", "c11"),
                  _columns(tr.times, tr.gamma_q[i], tr.stderr[i], prot.wd_route_gamma[i],
                           prot.wd_route_stderr[i], tr.c00[i], tr.c11[i]))
        summary["per_eta"][key] = {
            "gamma0": float(tr.gamma_q[i, 0]),
            "msd_to_1us": replace(tr, gamma_q=tr.gamma_q[i]).mean_sq_deviation(1.0)}
    write_json(out / "summary.json", summary)
    print(f"jarzynski: eta={etas} -> {out}")
    # Each eta runs as lanes of a ground-prepared and an excited-prepared ensemble.
    return _Done(outputs + ["summary.json"], run.n_traj,
                 {"eta": etas, "initial_state": [0, 1]})


def cmd_sweep(args, sim: SimConfig, fb: FeedbackConfig, run: _Run) -> _Done:
    gains, offsets = args.gain_grid, args.offset_grid
    out = run.out_dir
    contrast = sweep_gain_offset(gains, offsets, sim, fb, n_traj=run.n_traj, workers=run.workers)
    # Gain-major rows; the best point is the first maximum in that order.
    write_csv(out / "sweep.csv", ("gain", "offset", "contrast"),
              _columns(np.repeat(gains, len(offsets)), np.tile(offsets, len(gains)),
                       contrast.ravel()))
    i, j = np.unravel_index(np.argmax(contrast), contrast.shape)
    write_json(out / "summary.json", {"best_gain": gains[i], "best_offset": offsets[j],
                                      "best_contrast": float(contrast.max()),
                                      "manifest": "manifest.json"})
    print(f"sweep: argmax (A={gains[i]:g}, B={offsets[j]:g}) -> {out}")
    return _Done(["sweep.csv", "summary.json"], run.n_traj, {"gain": gains, "offset": offsets})


def cmd_verify(args, sim: SimConfig, fb: FeedbackConfig, run: _Run) -> _Done:
    checks: list[dict] = []

    def check(name: str, **measured: tuple[float, float, float]) -> None:
        """``measured`` maps each measured value's name to (value, lo, hi); the
        check passes when every value lies in its closed [lo, hi]."""
        ok = all(lo <= value <= hi for value, lo, hi in measured.values())
        checks.append({
            "name": name,
            "passed": ok,
            "measured": {key: float(v) for key, (v, _, _) in measured.items()},
            "bound": {key: [lo, hi] for key, (_, lo, hi) in measured.items()},
        })
        detail = ", ".join(f"{key} = {v:.3g} in [{lo:g}, {hi:g}]"
                           for key, (v, lo, hi) in measured.items())
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")

    # First law + decomposition on a paper-parameter ensemble.
    res = run_ensemble(sim.with_(tau=2.0), n_traj=500)
    rounding = 1e-9  # without decay, P11 ends two Rabi periods at -1.6e-15
    check("first-law", max_residual=(res.residuals.max(), 0.0, rounding))
    sums, bound = res.p_sum_00(), (-1.0 - rounding, rounding)  # P~W + P~Q + P~F = -P11
    check("bounded-decomposition", min_sum=(sums.min(), *bound), max_sum=(sums.max(), *bound))

    # Unitary limit: gamma = 0 reproduces the closed transition probabilities.
    closed_cfg = sim.with_(gamma=0.0, eta=0.0, tau=sim.dt * 400)
    rec = run_ensemble(closed_cfg, n_traj=1, record=("z", "dq")).series
    want = closed_rabi_probabilities(closed_cfg.omega_r / 2.0, closed_cfg.tau).p00
    got = 0.5 * (1.0 + rec["z"][0, -1])
    # At gamma = 0 the dissipative sub-step is the identity, so Q is zero.
    check("unitary-limit", p00_error=(abs(got - want), 0.0, 1e-6),
          heat=(abs(rec["dq"][0].sum()), 0.0, 1e-12))

    # Conditional ensemble mean vs the Lindblad oracle: projective sampling
    # on a 0.1 us comb, binomial errors under the oracle null.  One chunk of
    # trajectories, so one process; the hits read the state alone, so no ledger.
    cfg_o = sim.with_(dt=0.005, tau=4.0)
    res_o = run_ensemble(cfg_o, n_traj=2000, sample=True, ledger=False)
    comb = np.arange(0, cfg_o.n_steps + 1, int(round(0.1 / cfg_o.dt)))
    sol = lindblad_evolve(GROUND, cfg_o, t_grid=res_o.times[comb])
    sem = np.sqrt(sol.p00 * (1.0 - sol.p00) / 2000)
    hits = res_o.hits[comb] / 2000
    check("oracle-agreement",
          max_z=(ensemble_vs_oracle(res_o.times[comb], hits, sem, sol), 0.0, 5.0))

    # Purity at eta = 1: the Kraus sub-step keeps a pure state pure.
    rec = run_ensemble(sim.with_(eta=1.0, tau=sim.dt * 1000), n_traj=1,
                       record=("x", "z")).series
    purity = 0.5 * (1.0 + rec["x"][0]**2 + rec["z"][0]**2)
    check("purity-eta1", max_purity_error=(np.abs(purity - 1.0).max(), 0.0, 1e-6))

    # Determinism: bit-identical reruns and worker invariance.
    r1 = run_ensemble(sim.with_(tau=2.0), n_traj=1, record=("z", "dv")).series
    r2 = run_ensemble(sim.with_(tau=2.0), n_traj=1, record=("z", "dv")).series
    rerun_diff = max(np.abs(r1[k][0] - r2[k][0]).max() for k in ("z", "dv"))
    e1 = run_ensemble(sim.with_(tau=1.0), n_traj=CHUNK_SIZE + 300, workers=1)
    e2 = run_ensemble(sim.with_(tau=1.0), n_traj=CHUNK_SIZE + 300, workers=2)
    workers_diff = max(np.abs(e1.p00_mean - e2.p00_mean).max(), np.abs(e1.w - e2.w).max())
    check("determinism", rerun_max_diff=(rerun_diff, 0.0, 0.0),
          workers_max_diff=(workers_diff, 0.0, 0.0))

    passed = sum(c["passed"] for c in checks)
    write_json(run.out_dir / "summary.json", {"checks": checks, "passed": passed,
                                              "total": len(checks),
                                              "manifest": "manifest.json"})
    print(f"verify: {passed}/{len(checks)} checks passed")
    # Every trajectory the checks integrated: four ensembles and four single runs.
    return _Done(["summary.json"], res.n_traj + res_o.n_traj + e1.n_traj + e2.n_traj + 4,
                 code=0 if passed == len(checks) else 1)


def _check_out_dir(out_dir: Path) -> None:
    """Raise ``NotADirectoryError`` if the deepest existing component of
    ``out_dir`` is not a directory, so that the writers' ``mkdir`` cannot
    succeed; nothing is created."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise NotADirectoryError(f"--out-dir {out_dir}: {path} is not a directory")
            return


_HANDLERS = {
    "trajectory": cmd_trajectory,
    "ensemble": cmd_ensemble,
    "jarzynski": cmd_jarzynski,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command and write its ``manifest.json``: the configuration it
    integrated, the outputs it wrote and the seconds since its configs were
    assembled.  A rejected input, a run too large to allocate, or an output
    directory that cannot be made, ends in one ``error:`` line, exit code 2
    and no manifest; an output directory below or on a file is found before
    the command integrates."""
    args = _build_parser().parse_args(argv)
    try:
        sim, fb, run = _assemble(args)
        _check_out_dir(run.out_dir)
        started = time.perf_counter()
        done = _HANDLERS[args.command](args, sim, fb, run)
    except (ValueError, MemoryError, OSError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    config = config_snapshot(sim, fb)
    for name, values in done.ran_over.items():
        config["sim" if name in config["sim"] else "feedback"][name] = values
    RunManifest(command=args.command, config=config, seed=sim.seed, outputs=done.outputs,
                n_steps=sim.n_steps, n_traj=done.n_traj,
                wall_seconds=time.perf_counter() - started).write(run.out_dir)
    return done.code


if __name__ == "__main__":
    sys.exit(main())
