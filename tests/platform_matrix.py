"""Which golden digests hold under each OpenBLAS kernel and numpy dispatch level.

Runs ``tests/test_golden.py`` in one child process per pair of an
``OPENBLAS_CORETYPE`` from ``test_golden.CORETYPES`` and a dispatch level this
CPU offers (capped by ``NPY_DISABLE_CPU_FEATURES``), two at a time, and
writes JSON: for each pair, the tests that held and those that failed.  The
pair-sum test is left out, since it runs the same matrix itself.  pytest
does not collect this file; run it from the repository root:

    python tests/platform_matrix.py [OUT.json]    # to stdout without OUT.json
"""

import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from test_golden import CORETYPES, dispatch_levels, platform_env  # noqa: E402

GOLDEN = Path(__file__).with_name("test_golden.py")


def cell(coretype: str, level: str, disabled: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", str(GOLDEN),
         "-k", "not pair_sums"],
        capture_output=True, text=True, env=platform_env(coretype, disabled), timeout=900)
    outcome = {test: status for status, test
               in re.findall(r"^(PASSED|FAILED|ERROR) \S+?::(\S+)", out.stdout, re.M)}
    if not outcome:
        raise SystemExit(f"{coretype} at {level}: no test ran\n{out.stdout}{out.stderr}")
    return {"OPENBLAS_CORETYPE": coretype, "level": level,
            "NPY_DISABLE_CPU_FEATURES": disabled,
            "held": sorted(t for t, s in outcome.items() if s == "PASSED"),
            "failed": sorted(t for t, s in outcome.items() if s != "PASSED")}


def main(argv: list[str]) -> None:
    pairs = [(c, level, disabled) for c in CORETYPES
             for level, disabled in dispatch_levels().items()]
    with ThreadPoolExecutor(2) as pool:
        cells = list(pool.map(lambda p: cell(*p), pairs))
    text = json.dumps({"numpy": np.__version__, "cells": cells}, indent=1) + "\n"
    if argv:
        Path(argv[0]).write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main(sys.argv[1:])
