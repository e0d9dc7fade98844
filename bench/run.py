#!/usr/bin/env python3
"""maxminpoly benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload decision-path --seed 1 --seconds 55 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`.  Each workload is a closed loop with one client: the next
operation starts only after the previous one returned and was checked.
The loop runs whole passes over the workload's operation list while the
next pass is expected to end within --seconds; pass k draws its inputs
from (seed, k).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced runs of each pass and prints the per-layer metrics of the
traced runs.  The last stdout line is the JSON result; details (machine
facts, the tail percentile, failures) go to stderr and to
.bench_out/<workload>-s<seed>-t<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
RUN_LIMIT_S = 150  # a run must end well inside three minutes
SETUP_SAMPLES = 11  # fresh interpreters per run, spread between passes
BLOCKS = 4  # latency medians are taken per quarter of the run
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); from maxminpoly import cli; cli.build_parser()"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class RunTimeout(BaseException):
    """Raised by the alarm when the whole run exceeds RUN_LIMIT_S."""


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")


def latency_stats(passes, blocks: int = BLOCKS) -> tuple[float, float, int]:
    """(p50 s, tail ratio, samples) of the operations of a run.

    The run is cut into `blocks` stretches of consecutive passes, about as
    long as the host's slow and fast phases.  p50 is the geometric mean over
    operation groups of each group's median latency within a block,
    averaged over the blocks.  The tail ratio is the geometric mean over
    groups of the 90th percentile of latency / its group's median in its
    block, so that the heaviest-tailed group does not set it alone.
    """
    blocks = max(1, min(blocks, len(passes)))
    cuts = [len(passes) * i // blocks for i in range(blocks + 1)]
    medians: dict[str, list[float]] = {}
    ratios: dict[str, list[float]] = {}
    for lo, hi in zip(cuts, cuts[1:]):
        latencies: dict[str, list[float]] = {}
        for done in passes[lo:hi]:
            for group, dt, _ in done:
                latencies.setdefault(group, []).append(dt)
        for group, xs in latencies.items():
            typical = statistics.median(xs)
            medians.setdefault(group, []).append(typical)
            ratios.setdefault(group, []).extend(dt / typical for dt in xs)
    p50 = statistics.geometric_mean([statistics.fmean(xs) for xs in medians.values()])
    tail = statistics.geometric_mean(
        [statistics.quantiles(xs, n=10)[-1] if len(xs) > 1 else xs[0] for xs in ratios.values()]
    )
    return p50, tail, sum(map(len, ratios.values()))


def measure_setup() -> float:
    """Wall of a fresh interpreter importing the CLI and building its parser."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def machine_facts(package_file: str) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        top, head = git.stdout.split()
        if git.returncode == 0 and Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    src = ROOT / "src"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "package": "src" if Path(package_file).resolve().is_relative_to(src) else "install",
    }


class Loop:
    """Runs operations, checks them, and counts failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, ops, tracer=None) -> list[tuple[str, float, int]]:
        """Run one pass; (group, latency, work) of each operation that succeeded."""
        done = []
        for op in ops:
            if op.prepare is not None:
                op.prepare()
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = tracer.run(op.name, op.call) if tracer else op.call()
                dt = time.perf_counter() - t0
                if dt > op.timeout_s:
                    raise TimeoutError(f"took {dt:.1f} s, limit {op.timeout_s} s")
                op.check(out)
            except RunTimeout:
                self.failures.append(f"{op.label}: run time limit")
                raise
            except Exception as exc:  # every failure is counted, never dropped
                self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            done.append((op.group, dt, op.work))
        return done


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import maxminpoly
    import tracing

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT_DIR / stem
    workdir.mkdir(exist_ok=True)
    facts = machine_facts(maxminpoly.__file__)
    traced = args.trace == 1
    setup_samples = []
    if not traced:
        measure_setup()  # writes the bytecode caches

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    loop = Loop()
    tracer = tracing.Tracer() if traced else None
    passes = []  # operations done in each untraced pass
    start = time.perf_counter()
    k = 0
    try:
        while True:
            t0 = time.perf_counter()
            ops = workloads.build(args.workload, args.seed, k, workdir)
            if traced and k % 2:
                loop.run_pass(ops, tracer)
            done = loop.run_pass(ops)
            if traced and not k % 2:
                loop.run_pass(ops, tracer)
            k += 1
            passes.append(done)
            if not traced and time.perf_counter() - start >= len(setup_samples) * args.seconds / SETUP_SAMPLES:
                setup_samples.append(measure_setup())
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break
    except RunTimeout:
        pass
    finally:
        signal.alarm(0)
    elapsed = time.perf_counter() - start
    if not passes:
        sys.exit(f"no pass completed: {loop.failures[:3]}")

    failed = len(loop.failures)
    walls = [sum(dt for _, dt, _ in done) for done in passes]
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "passes": k,
              "elapsed_s": elapsed, "pass_walls_s": walls,
              "failures": loop.failures, "machine": facts}
    if not traced:
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(measure_setup())
        p50, tail_ratio, samples = latency_stats(passes)
        total = sum(walls)
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": total / len(walls),
            "work_per_s": sum(w for done in passes for *_, w in done) / total,
            "op_p50_ms": 1e3 * p50,
            "op_tail_ms": 1e3 * p50 * tail_ratio,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        detail["op_tail"] = {"percentile": 90, "samples": samples, "ratio": tail_ratio, "blocks": BLOCKS}
    else:
        values = tracing.layer_metrics(tracer.spans, sum(walls))
        values["fail_ratio"] = failed / loop.attempted
        metrics = {name: {"value": v, "unit": tracing.unit_of(name)} for name, v in values.items()}
        spans_path = OUT_DIR / f"{stem}.spans.jsonl.gz"
        tracer.write(spans_path)
        detail["spans"] = str(spans_path.relative_to(ROOT))
    detail["metrics"] = metrics
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    for line in loop.failures[:20]:
        print("FAILED", line, file=sys.stderr)
    print(json.dumps({k: v for k, v in detail.items() if k not in ("failures", "metrics", "pass_walls_s")}), file=sys.stderr)
    result = {"correct": failed == 0, "attempted": loop.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    src = ROOT / "src" / "maxminpoly" / "__init__.py"
    oracles = ROOT / "tests" / "oracles.py"
    if not src.is_file() or not oracles.is_file():
        sys.exit(f"{ROOT} is not a maxminpoly source checkout: {src} or {oracles} is missing")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    sys.exit(main())
