#!/usr/bin/env python3
"""Per-base frontier of sampled density: the wall time of one
`maxminpoly density --b B --n N --trials 4096 --seed 1` CLI run per cell.

Each cell runs in its own process, start-up included, one thread.  The
cells of a base run in increasing n; a run that reaches the cap is
killed and reads "> cap", and the larger n of that base read "not run".
Prints the Markdown rows of the ROADMAP Frontier table, then the
frontier: per base, the largest n that finished under the cap.  Standard
library only; the package is taken from the src/ next to this script.

Usage: python scripts/frontier.py [--cap SECONDS] [--grid B:N,N,... ...]
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TRIALS = 4096
SEED = 1
GRID = (
    "2:32,64,128,256,384,512,768",
    "3:24,32,64,128,192,256",
    "4:20,24,32,64,96,128,192",
    "10:10,12,16,24,28,32,40",
)


def parse_cell_list(text: str) -> tuple[int, list[int]]:
    b, _, ns = text.partition(":")
    return int(b), sorted(int(n) for n in ns.split(","))


def run_cell(b: int, n: int, cap: float) -> float | None:
    """Wall seconds of one density run, or None once it reaches the cap."""
    argv = [sys.executable, "-m", "maxminpoly.cli", "density", "--b", str(b), "--n", str(n),
            "--trials", str(TRIALS), "--seed", str(SEED)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=cap)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode:
        raise SystemExit(f"density --b {b} --n {n} failed: {proc.stderr.strip()}")
    return time.perf_counter() - start


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--cap", type=float, default=60.0, help="seconds per cell (default 60)")
    ap.add_argument("--grid", nargs="+", default=GRID, metavar="B:N,N,...",
                    help="a base and its n values (default: the ROADMAP grid)")
    args = ap.parse_args()

    cap = f"{args.cap:g} s"
    frontier = []
    print("| b | n | wall |")
    print("|---|---|---|")
    for b, ns in map(parse_cell_list, args.grid):
        best = None
        capped = False
        for n in ns:
            if capped:
                cell = "not run"
            else:
                wall = run_cell(b, n, args.cap)
                capped = wall is None
                cell = f"> {cap}" if capped else f"{wall:.2f} s"
                best = best if capped else n
            print(f"| {b} | {n} | {cell} |", flush=True)
        frontier.append(f"b={b}: {best if best is not None else 'none'}")
    print(f"Frontier (largest n under {cap}): " + ", ".join(frontier))


if __name__ == "__main__":
    main()
