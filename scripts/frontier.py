#!/usr/bin/env python3
"""Per-base frontier of sampled density: the wall time of one
`maxminpoly density --b B --n N --trials 4096 --seed 1` CLI run per cell.

Each cell runs in its own process, start-up included, one thread.  The
cells of a base run in increasing n; a run that reaches the cap is
killed and reads "> cap", and the larger n of that base read "not run".
Prints the Markdown rows of the ROADMAP Frontier table, then the
frontier: per base, the largest n that finished under the cap.

With --against TREE each cell also runs on the package in TREE/src, the
two trees in alternation: the tree that goes first alternates from cell
to cell, so both sides of a cell share the host's phase.  Each tree
stops at its own cap.  The stdout of a cell that both trees finished is
compared byte for byte; once the grid is done the script exits nonzero,
naming the first cell whose outputs differ.  --json prints one JSON
object instead of the table: the cells (with "same_output", true, false
or null when a side did not finish), the cap, each tree's commit and the
machine facts.
Each run is logged to stderr as it ends.
Standard library only; "this" tree is the one next to this script.

Usage: python scripts/frontier.py [--cap SECONDS] [--grid B:N,N,... ...]
                                  [--against TREE] [--json]
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRIALS = 4096
SEED = 1
GRID = (
    "2:32,64,128,256,384,512,768,1024,1536,2048",
    "3:24,32,64,128,192,256,384,512,768,1024",
    "4:20,24,32,64,96,128,192,256,384,512",
    "10:10,12,16,24,28,32,40,48,56,64",
)


def parse_cell_list(text: str) -> tuple[int, list[int]]:
    b, _, ns = text.partition(":")
    return int(b), sorted(int(n) for n in ns.split(","))


def run_cell(tree: Path, b: int, n: int, cap: float) -> tuple[float, str] | None:
    """Wall seconds and stdout of one density run on the package in
    tree/src, or None once it reaches the cap."""
    argv = [sys.executable, "-m", "maxminpoly.cli", "density", "--b", str(b), "--n", str(n),
            "--trials", str(TRIALS), "--seed", str(SEED)]
    src = str(tree / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=cap)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode:
        raise SystemExit(f"density --b {b} --n {n} failed in {tree}: {proc.stderr.strip()}")
    return time.perf_counter() - start, proc.stdout


def commit(tree: Path) -> str | None:
    """The checked-out commit of tree, with "-dirty" appended when tracked
    files differ from it, or None outside a git checkout."""
    def git(*args: str) -> str:
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(tree.parent)}
        return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True, timeout=10, env=env).stdout.strip()

    try:
        top = git("rev-parse", "--show-toplevel")
        if not top or Path(top).resolve() != tree:
            return None
        return git("describe", "--always", "--dirty", "--abbrev=40") or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), "platform": platform.platform()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--cap", type=float, default=60.0, help="seconds per cell (default 60)")
    ap.add_argument("--grid", nargs="+", default=GRID, metavar="B:N,N,...",
                    help="a base and its n values (default: the ROADMAP grid)")
    ap.add_argument("--against", type=Path, metavar="TREE", help="a second source tree, run cell by cell in alternation")
    ap.add_argument("--json", action="store_true", help="print one JSON object instead of the table")
    args = ap.parse_args()

    trees = {"this": ROOT}
    if args.against:
        trees["against"] = args.against.resolve()
    cap = f"{args.cap:g} s"
    table = not args.json
    if table:
        columns = list(trees) if len(trees) > 1 else ["wall"]
        print("| b | n | " + " | ".join(columns) + " |")
        print("|---|---|" + "---|" * len(columns))
    cells = []
    differ = None
    frontier: dict[str, dict[int, int | None]] = {side: {} for side in trees}
    for b, ns in map(parse_cell_list, args.grid):
        capped = {side: False for side in trees}
        for n in ns:
            cell = {"b": b, "n": n}
            outputs = {}
            order = list(trees) if len(cells) % 2 == 0 else list(trees)[::-1]
            for side in order:
                frontier[side].setdefault(b, None)
                if capped[side]:
                    cell[side] = "not run"
                    continue
                run = run_cell(trees[side], b, n, args.cap)
                capped[side] = run is None
                if run is not None:
                    wall, outputs[side] = run
                print(f"{b}:{n} {side} {'capped' if capped[side] else f'{wall:.2f} s'}", file=sys.stderr, flush=True)
                if capped[side]:
                    cell[side] = f"> {cap}" if table else "> cap"
                else:
                    cell[side] = f"{wall:.2f} s" if table else round(wall, 2)
                    frontier[side][b] = n
            if len(trees) > 1:
                same = outputs["this"] == outputs["against"] if len(outputs) == 2 else None
                if same is False and differ is None:
                    differ = (b, n)
                if not table:
                    cell["same_output"] = same
            cells.append(cell)
            if table:
                print(f"| {b} | {n} | " + " | ".join(cell[side] for side in trees) + " |", flush=True)
    if table:
        line = "; ".join(
            (f"{side}: " if len(trees) > 1 else "")
            + ", ".join(f"b={b}: {best if best is not None else 'none'}" for b, best in bests.items())
            for side, bests in frontier.items()
        )
        print(f"Frontier (largest n under {cap}): {line}")
    else:
        print(json.dumps({
            "trials": TRIALS,
            "seed": SEED,
            "cap_s": args.cap,
            "trees": {side: {"path": str(tree), "commit": commit(tree)} for side, tree in trees.items()},
            "machine": machine_facts(),
            "cells": cells,
            "frontier": {side: {str(b): best for b, best in bests.items()} for side, bests in frontier.items()},
        }, indent=1))
    if differ is not None:
        raise SystemExit("first cell whose output differs between the trees: b={} n={}".format(*differ))


if __name__ == "__main__":
    main()
