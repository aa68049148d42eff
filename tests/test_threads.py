"""The process-wide thread policy: ``import qtherm`` loads no numpy, and
``qtherm.cli`` runs numpy's BLAS on one thread unless the caller chose.

Each check runs in a child process whose environment lacks
``OPENBLAS_NUM_THREADS``: this process has numpy loaded already, and importing
``qtherm.cli`` here has set the variable for everything it starts.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qtherm

SRC = Path(qtherm.__file__).resolve().parents[1]


def child(code: str, **env: str) -> str:
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**base, "PYTHONPATH": str(SRC), **env}, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_importing_the_package_loads_no_numpy():
    assert child("import sys, qtherm; print('numpy' in sys.modules)") == "False"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_the_cli_runs_blas_on_one_thread():
    code = ("import os, qtherm.cli; "
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    assert child(code) == "1 1"


def test_a_thread_count_the_caller_set_is_kept():
    code = "import os, qtherm.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert child(code, OPENBLAS_NUM_THREADS="2") == "2"
