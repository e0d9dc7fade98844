"""Tests of the benchmark's checkers, input generation and tracer.

    python3 -m pytest bench/test_bench.py -q
"""

import copy
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from maxminpoly import census, core, factor, series  # noqa: E402
from oracles import naive_count_occurrences, oracle_mul, oracle_reducible, raw_prime_counts  # noqa: E402


def ops_named(part, tmp_path, prefix, seed=7):
    return [op for op in workloads.build_part(part, seed, 0, tmp_path) if op.label.startswith(prefix)]


def run_op(op):
    if op.prepare is not None:
        op.prepare()
    return op.call()


# -- pinned census table against the oracles -----------------------------------------


def oracle_record(b, n, space):
    """Census counts from brute-force product tables, no package search."""
    reducible = oracle_reducible(b, n - 1)
    rec = dict.fromkeys(("total", "monomials", "irreducible", "reducible", "prime_candidates", "primes"), 0)
    for vec in census.iter_vectors(b, n, space):
        t = tuple(vec)
        while t and t[-1] == 0:
            t = t[:-1]
        if not t:
            continue
        rec["total"] += 1
        kind = "monomials" if sum(1 for c in t if c) == 1 else "reducible" if t in reducible else "irreducible"
        rec[kind] += 1
        if t[0] != 0 and max(t) == b - 1:
            rec["prime_candidates"] += 1
            rec["primes"] += kind == "irreducible" or t == (b - 1,)
    return rec


@pytest.mark.parametrize("b,n", [(2, 8), (3, 5), (4, 4), (10, 3)])
@pytest.mark.parametrize("space", census.SPACES)
def test_expected_record_method_matches_oracles(b, n, space):
    want = oracle_record(b, n, space)
    primes = None if (b == 2 and space == census.EXACT_DEGREE) else want["primes"]
    got = checks.expected_record(b, n, space, want["irreducible"], primes)
    assert {k: got[k] for k in want} == want
    engine = dataclasses.asdict(census.census(b, n, space))
    assert {k: engine[k] for k in want} == want


def test_snapshot_matches_oracle_prime_counts():
    snapshot = census.load_snapshot_counts()
    raw = raw_prime_counts(2, 9)
    assert all(snapshot[n] == raw[n] for n in range(3, 10))


def test_pins_are_consistent_with_closed_forms():
    for (b, n, space), (irr, primes) in checks.CENSUS_PINS.items():
        rec = checks.expected_record(b, n, space, irr, primes)
        assert rec["total"] == census.space_size(b, n, space) - (space == census.ALL_VECTORS)
        assert 0 < rec["primes"] <= rec["prime_candidates"] and rec["reducible"] > 0


# -- corrupted outputs are failures ------------------------------------------------------


def test_census_checks_catch_off_by_one(tmp_path):
    op = ops_named("census", tmp_path, "census --b 2 --n 14 --space")[0]
    out = run_op(op)
    op.check(out)
    for field in ("total", "monomials", "irreducible", "reducible", "prime_candidates", "primes"):
        bad = copy.deepcopy(out)
        bad["record"][field] += 1
        with pytest.raises(checks.CheckFailed):
            op.check(bad)


def test_partition_close_pairs_and_checkpoint_checks(tmp_path):
    for prefix, field in (("partition --b 3", "sigma"), ("close-pairs", "count")):
        op = ops_named("census", tmp_path, prefix)[0]
        out = run_op(op)
        op.check(out)
        out[field] += 1
        with pytest.raises(checks.CheckFailed):
            op.check(out)
    op = ops_named("census", tmp_path, "census --b 2 --n 14 --resume")[0]
    out = run_op(op)
    op.check(out)
    with pytest.raises(checks.CheckFailed):
        checks.check_checkpoint({"shards": [{"range_start": 0, "range_end": 10}] * 2}, 10)


def test_wrong_witnesses_are_failures(tmp_path):
    h = core.parse_poly("2:1,1,1,1")  # (1 + x)(1 + x^2)
    checks.check_witness(h, ["2:1,1", "2:1,0,1"])
    for pair in (["2:1,1", "2:1,1"], ["2:1", "2:1,1,1,1"]):
        with pytest.raises(checks.CheckFailed):
            checks.check_witness(h, pair)
    checks.check_sumset([0, 1, 2, 3], [[0, 1], [0, 2]])
    with pytest.raises(checks.CheckFailed):
        checks.check_sumset([0, 1, 2, 3], [[0, 1], [0, 1]])

    for op in ops_named("classify", tmp_path, ""):
        out = run_op(op)
        op.check(out)
        bad = copy.deepcopy(out)
        if bad.get("witness"):
            bad["witness"][1] = bad["witness"][1].split(":")[0] + ":1"  # a monomial factor
        elif "class" in bad:
            bad["class"] = factor.REDUCIBLE if bad["class"] == factor.IRREDUCIBLE else factor.IRREDUCIBLE
        else:
            q = core.parse_poly(bad["quotient"])
            bad["quotient"] = core.format_poly(core.truncate(q, len(q.coeffs) - 2))
        with pytest.raises(checks.CheckFailed):
            op.check(bad)


def test_density_result_must_not_depend_on_threads(tmp_path):
    first, threaded = ops_named("density", tmp_path, "density --b 2 --n 28")
    out = run_op(first)
    first.check(out)
    bad = copy.deepcopy(out)
    bad["report"]["irreducible"] -= 1
    bad["report"]["estimate"] = bad["report"]["irreducible"] / bad["report"]["trials"]
    with pytest.raises(checks.CheckFailed):
        threaded.check(bad)


def test_stream_checks_catch_one_wrong_digit_or_count(tmp_path):
    for op in workloads.build_part("stream", 3, 0, tmp_path):
        out = run_op(op)
        op.check(out)
        if isinstance(out, dict):
            bad = copy.deepcopy(out)
            key = next(k for k in ("count", "forbidden_occurrences", "report") if k in bad)
            if key == "report":
                bad[key]["occurrences"] += 1
            else:
                bad[key] += 1
        elif isinstance(out, series.DigitStream):
            digits = list(out.digits)
            digits[len(digits) // 2] = (digits[len(digits) // 2] + 1) % out.base
            bad = series.DigitStream(out.base, tuple(digits), out.valid_to)
        else:
            bad = core.MaxMinPoly(out.base, out.coeffs[:-1])
        with pytest.raises(checks.CheckFailed):
            op.check(bad)


# -- the independent references agree with the oracles ---------------------------------


def test_references_match_oracles():
    rng = np.random.default_rng(5)
    for b in (2, 3, 10):
        for _ in range(20):
            f = rng.integers(0, b, size=int(rng.integers(1, 30))).tolist()
            g = rng.integers(0, b, size=int(rng.integers(1, 30))).tolist()
            assert checks.trimmed(checks.maxmin_conv(f, g)) == oracle_mul(b, f, g)
    digits = rng.integers(0, 3, size=5000).astype(np.uint8)
    text = (digits + ord("0")).tobytes().decode()
    for pattern in ([0, 0], [1, 2, 1], [2, 0, 0, 1]):
        want = naive_count_occurrences(digits.tolist(), pattern, len(digits))
        assert checks.count_overlapping(text, "".join(map(str, pattern))) == want
    for m in (0, 1, 3):
        sparse = (rng.random(400) < 0.3).astype(np.uint8)
        stream = series.make_stream(2, sparse.tolist())
        assert checks.isolation_ok(sparse, m) == series.t1_isolation_check(stream, m)
    g = core.parse_poly("3:1,0,2,1,1,0,2,1,1")
    k, r, ones = checks.window_family(3, g.coeffs)
    stream = series.make_stream(3, digits.tolist())
    assert (k, r) == (series.choose_k(3), series.choose_r(g, k))
    assert checks.window_count(digits, r, ones) == series.count_set_occurrences(stream, series.z_set(g, r))


# -- inputs and tracing ---------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    def inputs(seed, k, sub):
        d = tmp_path / sub
        d.mkdir()
        ops = workloads.build(workload, seed, k, d)
        files = sorted(p.read_bytes() for p in d.iterdir())
        return [op.label.replace(str(d), "") for op in ops], files

    assert inputs(11, 2, "a") == inputs(11, 2, "b")
    assert inputs(11, 2, "a2") != inputs(12, 2, "c")


def test_layer_self_times_add_up_to_the_traced_wall(tmp_path):
    tracer = tracing.Tracer()
    originals = {attr: getattr(factor, attr) for attr in tracing.TARGETS[factor]}
    ops = workloads.build_part("classify", 1, 0, tmp_path)[:20]
    ops += ops_named("census", tmp_path, "census --b 2 --n 14 --resume")
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        op.check(tracer.run(op.name, op.call))
    with pytest.raises(ZeroDivisionError):
        tracer.run("boom", lambda: factor.classify_irreducible(1 // 0))
    assert {attr: getattr(factor, attr) for attr in originals} == originals

    m = tracing.layer_metrics(tracer.spans, 1.0)
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + m["trace.remainder_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["factor.classify.calls"] > 0 and m["cli.self_s"] > 0 and m["census.checkpoint.self_s"] > 0
    assert m["factor.decide.calls"] == m["factor.decide.census.calls"] == 2**14 - 1 - 14  # one per non-monomial vector
    assert m["factor.decide.stochastic.calls"] == 0
    assert tracing.tail(list(range(100))) == (89, 90.0, 100)


def test_latency_stats_average_block_medians():
    fast = [("a", 1.0, 1), ("b", 4.0, 1)]
    slow = [("a", 2.0, 1), ("b", 8.0, 1)]
    passes = [fast] * 6 + [slow] * 2  # the last quarter runs in a slow phase
    p50, tail, samples = run.latency_stats(passes)
    assert p50 == pytest.approx(2.0 * 1.25)  # geometric mean of 1.25 and 5
    assert tail == pytest.approx(1.0) and samples == 16
    burst = [[("a", 3.0, 1), ("b", 4.0, 1)] if k % 4 == 0 else fast for k in range(40)]
    # one `a` in four is 3x slow: a's 90th percentile is 3x its median, b's 1x
    assert run.latency_stats(burst)[:2] == pytest.approx((2.0, 3.0**0.5))
