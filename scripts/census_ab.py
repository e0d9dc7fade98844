#!/usr/bin/env python3
"""Census and partition wall time and peak memory of two source trees,
measured cell by cell in alternation, so that both sides of every cell
share the host's phase.

Each cell B:N gives three runs: `census.census(b, n, space)` in both
spaces and `census.partition_census(b, n, census.BoundParams.make(2, 2))`
(all vectors); `--runs` keeps some of them, for cells too large for the
others.  For each run and each round, one fresh interpreter per side
imports the package from that tree's src/, times the one call
in-process (start-up excluded, the enumeration budget overridden) and
reads its own peak RSS (`ru_maxrss`, start-up and imports included)
once the call returns; which side runs first alternates from round to
round.  Prints one JSON object: per run, both sides' times, their
medians and quartiles, their peak RSS and its median, and whether the
two sides returned the same record.  Standard library only; the
"change" tree is the one next to this script.

Usage: python scripts/census_ab.py --parent DIR [--rounds R] [--cells B:N ...] [--runs OP:SPACE ...]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CELLS = ("2:14", "2:18", "3:10", "4:8", "10:5")
# (operation, space) of the runs of a cell
RUNS = (("census", "all-vectors"), ("census", "exact-degree"), ("partition", "all-vectors"))
PROBE = (
    "import dataclasses, json, resource, sys, time; sys.path.insert(0, sys.argv[1]); "
    "from maxminpoly import census; b, n, op, space = int(sys.argv[2]), int(sys.argv[3]), sys.argv[4], sys.argv[5]; "
    "run = (lambda: census.census(b, n, space, force=True)) if op == 'census' else "
    "(lambda: census.partition_census(b, n, census.BoundParams.make(2, 2), force=True)); "
    "t = time.perf_counter(); rec = run(); s = time.perf_counter() - t; "
    "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024; "
    "print(json.dumps({'seconds': s, 'peak_rss_mb': rss, 'record': dataclasses.asdict(rec)}, default=str))"
)


def time_run(tree: Path, b: int, n: int, op: str, space: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tree / "src"), str(b), str(n), op, space],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def summary(runs: list[dict]) -> dict:
    times = [run["seconds"] for run in runs]
    rss = [run["peak_rss_mb"] for run in runs]
    q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {
        "seconds": [round(t, 4) for t in times], "median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
        "peak_rss_mb": [round(r, 1) for r in rss], "peak_rss_median": round(statistics.median(rss), 1),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="root of the other source tree")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--cells", nargs="+", default=CELLS, metavar="B:N")
    ap.add_argument("--runs", nargs="+", default=[":".join(run) for run in RUNS], choices=[":".join(run) for run in RUNS])
    args = ap.parse_args()

    trees = {"parent": args.parent.resolve(), "change": ROOT}
    cells = []
    for cell in args.cells:
        b, n = map(int, cell.split(":"))
        for op, space in (run.split(":") for run in args.runs):
            runs = {side: [] for side in trees}
            for k in range(args.rounds):
                order = list(trees) if k % 2 == 0 else list(trees)[::-1]
                for side in order:
                    runs[side].append(time_run(trees[side], b, n, op, space))
                    run = runs[side][-1]
                    print(f"{b}:{n} {op} {space} {side} {run['seconds']:.3f} s {run['peak_rss_mb']:.1f} MB", file=sys.stderr, flush=True)
            records = [run["record"] for side in trees for run in runs[side]]
            cells.append({
                "b": b, "n": n, "op": op, "space": space,
                **{side: summary(runs[side]) for side in trees},
                "same_record": all(rec == records[0] for rec in records),
            })
    print(json.dumps({"rounds": args.rounds, "cells": cells}, indent=1))


if __name__ == "__main__":
    main()
