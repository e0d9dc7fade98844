#!/usr/bin/env python3
"""Census and partition wall time of two source trees, measured cell by
cell in alternation, so that both sides of every cell share the host's
phase.

Each cell B:N gives three runs: `census.census(b, n, space)` in both
spaces and `census.partition_census(b, n, census.BoundParams.make(2, 2))`
(all vectors).  For each run and each round, one fresh interpreter per
side imports the package from that tree's src/ and times the one call
in-process (start-up excluded); which side runs first alternates from
round to round.  Prints one JSON object: per run, both sides' times,
their medians and quartiles, and whether the two sides returned the same
record.  Standard library only; the "change" tree is the one next to
this script.

Usage: python scripts/census_ab.py --parent DIR [--rounds R] [--cells B:N ...]
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
    "import dataclasses, json, sys, time; sys.path.insert(0, sys.argv[1]); "
    "from maxminpoly import census; b, n, op, space = int(sys.argv[2]), int(sys.argv[3]), sys.argv[4], sys.argv[5]; "
    "run = (lambda: census.census(b, n, space)) if op == 'census' else "
    "(lambda: census.partition_census(b, n, census.BoundParams.make(2, 2))); "
    "t = time.perf_counter(); rec = run(); s = time.perf_counter() - t; "
    "print(json.dumps({'seconds': s, 'record': dataclasses.asdict(rec)}, default=str))"
)


def time_run(tree: Path, b: int, n: int, op: str, space: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tree / "src"), str(b), str(n), op, space],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"seconds": [round(t, 4) for t in times], "median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="root of the other source tree")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--cells", nargs="+", default=CELLS, metavar="B:N")
    args = ap.parse_args()

    trees = {"parent": args.parent.resolve(), "change": ROOT}
    cells = []
    for cell in args.cells:
        b, n = map(int, cell.split(":"))
        for op, space in RUNS:
            runs = {side: [] for side in trees}
            for k in range(args.rounds):
                order = list(trees) if k % 2 == 0 else list(trees)[::-1]
                for side in order:
                    runs[side].append(time_run(trees[side], b, n, op, space))
                    print(f"{b}:{n} {op} {space} {side} {runs[side][-1]['seconds']:.3f} s", file=sys.stderr, flush=True)
            records = [run["record"] for side in trees for run in runs[side]]
            cells.append({
                "b": b, "n": n, "op": op, "space": space,
                **{side: summary([run["seconds"] for run in runs[side]]) for side in trees},
                "same_record": all(rec == records[0] for rec in records),
            })
    print(json.dumps({"rounds": args.rounds, "cells": cells}, indent=1))


if __name__ == "__main__":
    main()
