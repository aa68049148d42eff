"""Two seeded efficacy checks' statistics over a range of seeds.

For each seed in FIRST..LAST (default 1..200), with the settings of the test
that checks it:

- ``criterion_09_max_z``: acceptance criterion 9's eta = 1
  sampled-transition max z, max |gamma_wd - 1| / stderr_wd over the 0.1 us
  comb (``test_criterion_09_generalized_jarzynski``, 500 trajectories per
  preparation, optimal feedback at zero delay, dt = 5 ns);
- ``two_routes_max_gap``: the largest |gamma_traj - gamma_wd| / sigma over
  the same comb, sigma the two routes' errors in quadrature
  (``test_two_efficacy_routes_agree``, 300 trajectories per preparation).

It prints JSON: per statistic, its bound (a seed passes below it), median,
90th percentile and max over the seeds, and the number, fraction and list of
seeds at or beyond the bound.  It asserts nothing and chooses nothing.  pytest
does not collect this file; run it from the repository root:

    python tests/seed_sweep.py [FIRST LAST]
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from qtherm.config import FeedbackConfig, SimConfig  # noqa: E402
from qtherm.experiments import run_efficacy_protocol  # noqa: E402

BOUND = 3.0
OPTIMAL = FeedbackConfig(mode="optimal", delay_steps=0)


def criterion_09_max_z(seed: int) -> float:
    cfg = SimConfig(seed=seed, tau=1.0, dt=0.005, eta=1.0, beta=3.5)
    prot = run_efficacy_protocol(cfg, OPTIMAL, n_traj=500)
    comb = np.arange(0, cfg.n_steps + 1, 20)[1:]
    return float((np.abs(prot.wd_route_gamma[comb] - 1.0)
                  / np.maximum(prot.wd_route_stderr[comb], 1e-300)).max())


def two_routes_max_gap(seed: int) -> float:
    cfg = SimConfig(seed=seed, tau=1.0, dt=0.005)  # the paper_cfg fixture's other values
    prot = run_efficacy_protocol(cfg, OPTIMAL, n_traj=300)
    comb = np.arange(20, cfg.n_steps + 1, 20)
    sem = np.hypot(prot.trajectory_route.stderr[comb], prot.wd_route_stderr[comb])
    diff = np.abs(prot.trajectory_route.gamma_q[comb] - prot.wd_route_gamma[comb])
    # The test needs diff < 3 sem, so a zero error bar fails it at any gap.
    return float(np.where(sem > 0, diff / np.where(sem > 0, sem, 1.0), np.inf).max())


def summary(values: dict[int, float]) -> dict:
    v = np.array(list(values.values()))
    beyond = [seed for seed, x in values.items() if x >= BOUND]
    return {"bound": BOUND, "median": float(np.median(v)),
            "p90": float(np.percentile(v, 90)), "max": float(v.max()),
            "n_beyond": len(beyond), "frac_beyond": len(beyond) / len(v),
            "seeds_beyond": beyond}


def main(first: int = 1, last: int = 200) -> int:
    t0 = time.perf_counter()
    seeds = range(first, last + 1)
    out = {"seeds": [first, last]}
    for stat in (criterion_09_max_z, two_routes_max_gap):
        out[stat.__name__] = summary({seed: stat(seed) for seed in seeds})
    out["elapsed_s"] = round(time.perf_counter() - t0, 1)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    if len(sys.argv) not in (1, 3):
        sys.exit(__doc__)
    sys.exit(main(*map(int, sys.argv[1:])))
