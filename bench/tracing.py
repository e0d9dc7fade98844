"""Spans recorded at the calls into the package's modules.

The tracer replaces module attributes with wrappers for the duration of
one operation, so the package source stays untouched and the checks that
run between operations are never traced.  Every wrapped call appends one
span (name, start, end, parent, extra, error) to an in-memory list; the
benchmark writes the list out when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly because the traced code is single-threaded
(work done inside pool workers is invisible here and shows as self time
of the span that waits on the pool), so the self times of all spans under
one operation add up to that operation's span exactly.
"""

from __future__ import annotations

import gzip
import json
import pathlib
import statistics
import time
import types

from maxminpoly import census, cli, core, factor, series, stochastic

LAYERS = ("core", "factor", "census", "stochastic", "series", "cli")
OP_PREFIX = "op."

NAME, START, END, PARENT, EXTRA, ERROR = range(6)

# Entry points whose callers sit in another layer (or in the benchmark).
# _b2_reducible and _classify_generic are the witness-free decision entry
# points that census and stochastic call.
TARGETS = {
    core: ("mul",),
    factor: (
        "classify_irreducible",
        "classify_prime",
        "residual_divide",
        "all_factorizations",
        "_b2_reducible",
        "_classify_generic",
    ),
    census: ("census", "census_with_checkpoint", "partition_census", "close_pair_count"),
    stochastic: ("density_experiment",),
    series: (
        "read_stream",
        "product_stream",
        "support_stream",
        "count_occurrences",
        "t1_forbidden_scan",
        "t1_isolation_check",
        "z_frequency_report",
    ),
    cli: ("main",),
}

DECIDE = ("factor._b2_reducible", "factor._classify_generic")


def _mul_pairs(args, result):
    f, g = args
    return len(f.coeffs) * len(g.coeffs)


def _stream_pairs(args, result):
    f, g = args
    if isinstance(g, core.MaxMinPoly):
        return f.valid_to * core.nnz(g)
    n = result.valid_to
    return n * (n + 1) // 2


def _file_bytes(args, result):
    return pathlib.Path(args[0]).stat().st_size


def _kind(args, result):
    return result.kind


METERS = {
    "core.mul": _mul_pairs,
    "series.product_stream": _stream_pairs,
    "series.read_stream": _file_bytes,
    "factor.classify_irreducible": _kind,
}


class Tracer:
    """Collects spans; `run()` wraps the targets around one operation."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches = self._build_patches()

    def wrap(self, name, fn, meter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, False]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if meter is not None:
                rec[EXTRA] = meter(args, result)
            return result

        return traced

    def _build_patches(self):
        patches = []
        for module, attrs in TARGETS.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in attrs:
                name = f"{layer}.{attr}"
                fn = getattr(module, attr)
                patches.append((module, attr, fn, self.wrap(name, fn, METERS.get(name))))
        # Checkpoint I/O: census serialises with its module-level `json`
        # and writes through its module-level `Path`.
        ckpt_json = types.SimpleNamespace(
            dumps=self.wrap("census.checkpoint", json.dumps), loads=json.loads
        )
        base = type(pathlib.Path())
        ckpt_path = type(
            "CheckpointPath",
            (base,),
            {"write_text": self.wrap("census.checkpoint", base.write_text)},
        )
        patches.append((census, "json", census.json, ckpt_json))
        patches.append((census, "Path", census.Path, ckpt_path))
        return patches

    def run(self, op_name, call):
        """Call `call()` as one operation span with every target wrapped."""
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)
        try:
            return self.wrap(OP_PREFIX + op_name, call)()
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def write(self, path):
        """Write the spans as gzipped JSON lines: name, start, end, parent,
        extra, error."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_of(name: str) -> str:
    return "op" if name.startswith(OP_PREFIX) else name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def tail(values):
    """(value, percentile, count): the highest percentile of `values`
    with at least ten samples above it; the maximum for 20 samples or
    fewer, where that percentile would not lie above the median."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 20:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def _p50(values):
    return statistics.median(values) if values else 0.0


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("bytes", "bytes"), ("share", "ratio"), ("ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def layer_metrics(spans, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of a traced run; `untraced_wall` is the wall of
    the same operations run without tracing."""
    selfs = self_times(spans)
    wall = sum(rec[END] - rec[START] for rec in spans if rec[PARENT] < 0)
    by_layer = {layer: 0.0 for layer in LAYERS + ("op",)}
    errors = {layer: 0 for layer in LAYERS}
    by_name: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        layer = layer_of(rec[NAME])
        by_layer[layer] += selfs[i]
        if rec[ERROR] and layer in errors:
            errors[layer] += 1
        by_name.setdefault(rec[NAME], []).append(i)

    def named(*names):
        return [i for name in names for i in by_name.get(name, ())]

    def self_s(*names):
        return sum(selfs[i] for i in named(*names))

    def dur(i):
        return spans[i][END] - spans[i][START]

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer[layer]
        m[f"{layer}.share"] = by_layer[layer] / wall if wall else 0.0
        m[f"{layer}.errors"] = errors[layer]

    mul = named("core.mul")
    m["core.mul.calls"] = len(mul)
    m["core.mul.self_s"] = self_s("core.mul")
    m["core.mul.pairs"] = sum(spans[i][EXTRA] or 0 for i in mul)
    m["core.mul.pairs_per_s"] = m["core.mul.pairs"] / m["core.mul.self_s"] if mul else 0.0

    m["series.product_stream.self_s"] = self_s("series.product_stream")
    m["series.product_stream.pairs"] = sum(spans[i][EXTRA] or 0 for i in named("series.product_stream"))
    m["series.read_stream.self_s"] = self_s("series.read_stream")
    m["series.read_stream.bytes"] = sum(spans[i][EXTRA] or 0 for i in named("series.read_stream"))
    m["series.scan.self_s"] = (
        by_layer["series"] - m["series.product_stream.self_s"] - m["series.read_stream.self_s"]
    )

    # Decision calls made from outside factor; the ones nested inside the
    # witness search (_classify_generic on bases above 2) belong to
    # factor.classify.
    decide, nested = [], []
    for i in named(*DECIDE):
        (nested if layer_of(spans[spans[i][PARENT]][NAME]) == "factor" else decide).append(i)

    def decide_metrics(prefix, calls):
        us = [dur(i) * 1e6 for i in calls]
        m[f"{prefix}.calls"] = len(calls)
        m[f"{prefix}.self_s"] = sum(selfs[i] for i in calls)
        m[f"{prefix}.p50_us"] = _p50(us)
        m[f"{prefix}.tail_us"] = tail(us)[0]

    decide_metrics("factor.decide", decide)
    # Census decides small inputs and stochastic large ones, in one
    # workload; a change can move the two in opposite directions.
    for caller in ("census", "stochastic"):
        decide_metrics(f"factor.decide.{caller}", [i for i in decide if layer_of(spans[spans[i][PARENT]][NAME]) == caller])

    classify = named("factor.classify_irreducible")
    m["factor.classify.calls"] = len(classify)
    m["factor.classify.self_s"] = sum(selfs[i] for i in classify + nested)
    for kind in (factor.IRREDUCIBLE, factor.REDUCIBLE):
        ms = [dur(i) * 1e3 for i in classify if spans[i][EXTRA] == kind]
        m[f"factor.classify.{kind}.p50_ms"] = _p50(ms)
        m[f"factor.classify.{kind}.tail_ms"] = tail(ms)[0]
    m["factor.residual_divide.self_s"] = self_s("factor.residual_divide")
    m["factor.all_factorizations.self_s"] = self_s("factor.all_factorizations")

    m["census.checkpoint.self_s"] = self_s("census.checkpoint")
    m["census.partition.self_s"] = self_s("census.partition_census")

    m["trace.wall_s"] = wall
    m["trace.remainder_s"] = by_layer["op"]
    m["trace.overhead_ratio"] = wall / untraced_wall if untraced_wall else 0.0
    return m
