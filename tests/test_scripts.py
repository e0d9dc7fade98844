"""The experiment scripts run end to end on tiny arguments and print CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PARTITION_HEADER = ",".join(
    ["b", "n", "sigma", "total"] + [f"e{i}" for i in range(1, 8)] + [f"bound{i}" for i in range(1, 8)]
)


@pytest.mark.parametrize(
    "script, args, header",
    (
        (
            "run_density_sweep.py",
            ["--b", "2", "--trials", "64", "--nmax", "6", "--seed", "1", "--exhaustive-limit", "8"],
            "b,n,mode,estimate,ci_low,ci_high,samples",
        ),
        ("run_partition_report.py", ["--b", "2", "--nmax", "4"], PARTITION_HEADER),
        ("run_bound_schedule.py", ["--b", "3", "--nmax", "100"], "b,n,d,v,log_t1,log_t2,log_t3,log_t4"),
    ),
)
def test_script_prints_csv(script, args, header):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    width = len(header.split(","))
    assert len(lines) >= 2 and all(len(line.split(",")) == width for line in lines[1:])
