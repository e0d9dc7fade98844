"""The experiment scripts run end to end on tiny arguments and print CSV or table rows."""

import json
import os
import re
import shutil
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


def test_frontier_prints_table_rows():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def frontier(*args):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "frontier.py"), *args],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    lines = frontier("--grid", "2:6,4", "3:3")
    assert lines[:2] == ["| b | n | wall |", "|---|---|---|"]
    rows = [re.fullmatch(r"\| (\d+) \| (\d+) \| \d+\.\d\d s \|", line) for line in lines[2:5]]
    assert [row.groups() for row in rows] == [("2", "4"), ("2", "6"), ("3", "3")]
    assert lines[5:] == ["Frontier (largest n under 60 s): b=2: 6, b=3: 3"]
    # no process starts and finishes inside a millisecond
    assert frontier("--cap", "0.001", "--grid", "2:4,6")[2:] == [
        "| 2 | 4 | > 0.001 s |",
        "| 2 | 6 | not run |",
        "Frontier (largest n under 0.001 s): b=2: none",
    ]


def test_census_ab_alternates_two_trees():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "census_ab.py"), "--parent", str(ROOT), "--rounds", "2", "--cells", "2:6"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [(c["b"], c["n"], c["op"], c["space"]) for c in report["cells"]] == [
        (2, 6, "census", "all-vectors"),
        (2, 6, "census", "exact-degree"),
        (2, 6, "partition", "all-vectors"),
    ]
    for cell in report["cells"]:
        assert cell["same_record"] is True
        assert [len(cell[side]["seconds"]) for side in ("parent", "change")] == [2, 2]
        # each run's peak RSS, at least that of an interpreter with numpy
        for side in ("parent", "change"):
            rss = cell[side]["peak_rss_mb"]
            assert len(rss) == 2 and all(r > 10 for r in rss)
            assert min(rss) <= cell[side]["peak_rss_median"] <= max(rss)
    # stderr logs one line per run, its time and its peak RSS, the sides
    # alternating first
    log = [line.split() for line in proc.stderr.splitlines()]
    assert [line[3] for line in log] == ["parent", "change", "change", "parent"] * 3
    assert [line[1] for line in log[::4]] == ["census", "census", "partition"]
    assert all(line[5] == "s" and line[7] == "MB" and float(line[6]) > 10 for line in log)
    # --runs keeps the runs named
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "census_ab.py"), "--parent", str(ROOT), "--rounds", "1", "--cells", "2:6", "--runs", "census:exact-degree"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert [(c["op"], c["space"]) for c in json.loads(proc.stdout)["cells"]] == [("census", "exact-degree")]


def test_frontier_alternates_two_trees_and_prints_json():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def frontier(*args):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "frontier.py"), "--against", str(ROOT), "--json", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout), proc.stderr.splitlines()

    report, log = frontier("--grid", "2:4,6", "3:3")
    assert list(report["trees"]) == ["this", "against"]
    assert report["trees"]["this"]["path"] == report["trees"]["against"]["path"] == str(ROOT)
    assert report["cap_s"] == 60.0 and report["machine"]["nproc"] >= 1
    assert [(c["b"], c["n"]) for c in report["cells"]] == [(2, 4), (2, 6), (3, 3)]
    assert all(isinstance(c[side], float) for c in report["cells"] for side in ("this", "against"))
    assert all(c["same_output"] is True for c in report["cells"])
    assert report["frontier"] == {"this": {"2": 6, "3": 3}, "against": {"2": 6, "3": 3}}
    # one stderr line per run, the tree that goes first alternating
    assert [line.split()[1] for line in log] == ["this", "against", "against", "this", "this", "against"]
    # each tree stops at its own cap
    report, _ = frontier("--cap", "0.001", "--grid", "2:4,6")
    assert report["cells"] == [
        {"b": 2, "n": 4, "this": "> cap", "against": "> cap", "same_output": None},
        {"b": 2, "n": 6, "this": "not run", "against": "not run", "same_output": None},
    ]
    assert report["frontier"] == {"this": {"2": None}, "against": {"2": None}}


def test_frontier_names_the_first_cell_whose_output_differs(tmp_path):
    # a second tree whose package reports another version prints a
    # different density report on every cell
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    init = tmp_path / "src" / "maxminpoly" / "__init__.py"
    init.write_text(init.read_text() + '__version__ += "-other"\n')
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "frontier.py"), "--against", str(tmp_path), "--json", "--grid", "2:4,6", "3:3"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == "first cell whose output differs between the trees: b=2 n=4"
    report = json.loads(proc.stdout)
    assert [c["same_output"] for c in report["cells"]] == [False, False, False]
