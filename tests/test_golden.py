"""Golden digests of the data files three CLI commands write.

The SHA-256 of every data file (``manifest.json`` is outside the determinism
contract and is skipped) pins the output bytes of a fixed (seed, config).  A
change that alters seeded output on purpose updates these digests and says
so; any other change must leave them alone.  The digests were recorded with
numpy 2.4 on x86-64 Linux; a different libm may round differently.
"""

import hashlib

import pytest

from qtherm.cli import main

GOLDEN = {
    "trajectory": (
        ["trajectory", "--tau-us", "1"],
        {
            "trajectory.csv": "1f2d0dd905f5b0174683be0b1fe04170efbeff1f996d5aa903cca14d89769c9b",
            "trajectory_config.json": "a1e0dde694680987b4413970173a0c74fce92719a829ce536f2b3c47c6b720cb",
        },
    ),
    "ensemble": (
        ["ensemble", "--n-traj", "64", "--tau-us", "1", "--feedback", "pll",
         "--delay-ns", "100"],
        {
            "summary.json": "aff35c8cb3d1212083d09ad229d242e5f860e2a92a1942a6d5634e27c76f70d0",
            "timeseries.csv": "9aa81cf017159736c1e93a35fa05dac485b6c524600cc8bc43f2efdd12c03600",
            "trajectories.csv": "1222200cf2d00613cfef130c1e21e5db2901c3315872999a9f537eaf3bd6304d",
        },
    ),
    "sweep": (
        ["sweep", "--n-traj", "64", "--tau-us", "5", "--feedback", "pll",
         "--gain-grid", "20,35", "--offset-grid=-1,-0.5"],
        {
            "summary.json": "64983baef546061a71fce0a83a98223aad9e4ef3afdea00402e31f836c62ac7b",
            "sweep.csv": "f62174a3c7dbfbdcf09c88a2d85a25b4751eaf777c447cc320d663f433070d5a",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_data_file_digests(name, tmp_path):
    argv, want = GOLDEN[name]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
        if p.name != "manifest.json"
    }
    assert got == want
