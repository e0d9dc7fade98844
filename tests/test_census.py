"""Enumeration spaces, census counts, the partition census and exports."""

import dataclasses
import functools
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from maxminpoly import census, core, factor
from maxminpoly.errors import BoundExceeded, BudgetExceeded
from oracles import oracle_close_pairs, oracle_partition, oracle_reducible, product_table

P = core.parse_poly


# -- enumeration ---------------------------------------------------------------


def test_enumeration_counts():
    assert sum(1 for _ in census.enumerate_polys(2, 2, census.ALL_VECTORS)) == 4
    assert sum(1 for _ in census.enumerate_polys(2, 2, census.EXACT_DEGREE)) == 2
    assert sum(1 for _ in census.enumerate_polys(3, 1, census.ALL_VECTORS)) == 3


def test_enumeration_is_lexicographic():
    vecs = list(census.iter_vectors(3, 2, census.ALL_VECTORS))
    assert vecs == sorted(vecs)
    assert vecs[0] == (0, 0) and vecs[-1] == (2, 2)
    exact = list(census.iter_vectors(3, 2, census.EXACT_DEGREE))
    assert exact == sorted(exact)
    assert all(v[-1] != 0 for v in exact)
    assert len(exact) == census.space_size(3, 2, census.EXACT_DEGREE)


def test_index_round_trip():
    # the index read back from a vector's digits is its place in the stream,
    # and a one-index range decodes to the same vector
    def value(digits, b):
        return functools.reduce(lambda acc, d: acc * b + d, digits, 0)

    for b, n in ((3, 3), (2, 5), (10, 2)):
        for space in census.SPACES:
            for idx, vec in enumerate(census.iter_vectors(b, n, space)):
                if space == census.ALL_VECTORS:
                    assert value(vec, b) == idx
                else:
                    assert value(vec[:-1], b) * (b - 1) + vec[-1] - 1 == idx
                assert tuple(census._index_rows(b, n, space, idx, idx + 1)[0].tolist()) == vec


def test_iter_vectors_range_matches_slices():
    full = list(census.iter_vectors(2, 4, census.ALL_VECTORS))
    assert list(census.iter_vectors(2, 4, census.ALL_VECTORS, 5, 11)) == full[5:11]


def _lexicographic(b, n, space):
    vectors = itertools.product(range(b), repeat=n)
    return [v for v in vectors if space == census.ALL_VECTORS or v[-1]]


@pytest.mark.parametrize("block_rows", (None, 3))
@pytest.mark.parametrize("space", census.SPACES)
@pytest.mark.parametrize("b, n", ((2, 1), (2, 9), (3, 5), (4, 4), (10, 3)))
def test_iter_vectors_matches_product_oracle(monkeypatch, b, n, space, block_rows):
    if block_rows:
        monkeypatch.setattr(census, "BLOCK_ROWS", block_rows)
    want = _lexicographic(b, n, space)
    got = list(census.iter_vectors(b, n, space))
    assert got == want and all(type(d) is int for v in got[:5] for d in v)
    size = len(want)
    for start, end in ((0, 0), (size, size), (1, 1), (0, 1), (1, size - 1), (size // 3, size // 2), (size - 1, size)):
        if start <= end:
            assert list(census.iter_vectors(b, n, space, start, end)) == want[start:end]


def test_iter_vectors_is_lazy_and_checks_its_range():
    # the range is checked on the first draw, and a space far too large to
    # decode whole gives its first vectors one block in
    with pytest.raises(ValueError, match="index range out of bounds"):
        next(census.iter_vectors(2, 4, census.ALL_VECTORS, 5, 17))
    with pytest.raises(ValueError, match="index range out of bounds"):
        next(census.iter_vectors(2, 4, census.ALL_VECTORS, 6, 5))
    # a block of rows of no digits has no bytes for zip to group
    with pytest.raises(ValueError, match="n must be >= 1"):
        next(census.iter_vectors(2, 0, census.ALL_VECTORS))
    vectors = census.iter_vectors(2, 40, census.EXACT_DEGREE)
    assert next(vectors) == (0,) * 39 + (1,)
    assert next(vectors) == (0,) * 38 + (1, 1)


# -- census --------------------------------------------------------------------


def test_census_totals(census_cache):
    for b, n in ((2, 6), (3, 4)):
        rec = census_cache(b, n)
        assert rec.total == b**n - 1
        assert rec.monomials + rec.irreducible + rec.reducible == rec.total
        exact = census.census(b, n, census.EXACT_DEGREE)
        assert exact.total == (b - 1) * b ** (n - 1)


def test_census_n1():
    rec = census.census(2, 1)
    assert rec.irreducible == 0 and rec.monomials == 1
    assert rec.primes == 1  # the identity constant


def test_census_matches_oracle_reducible_count():
    for b, n in ((2, 7), (3, 5)):
        reducible = oracle_reducible(b, n - 1)
        rec = census.census(b, n)
        count = sum(
            1
            for vec in census.iter_vectors(b, n, census.ALL_VECTORS)
            if tuple(_trim(vec)) in reducible
        )
        assert rec.reducible == count


def _trim(vec):
    end = len(vec)
    while end and vec[end - 1] == 0:
        end -= 1
    return vec[:end]


def test_census_prime_example(census_cache):
    rec = census.census(2, 3, census.EXACT_DEGREE)
    assert rec.primes == 1
    assert factor.classify_prime(P("2:1,0,1")).kind == factor.PRIME


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(census, "DEFAULT_BUDGET", 100)
    with pytest.raises(BudgetExceeded, match="2\\^10 vectors exceed the budget of 100 vectors"):
        census.census(2, 10)
    assert census.census(2, 10, force=True).total == 1023


def test_merge_records_matches_full_run():
    # the valuation ranges merged in reverse, from an empty record
    full = census.census(3, 4)
    merged = census.CensusRecord(3, 4, census.ALL_VECTORS, 0, 0, 0, 0, 0, 0)
    reducible = census._reducible_counts(3, 4)
    for t in reversed(range(4)):
        merged = census.merge_records(merged, census._range_record(3, 4, census.ALL_VECTORS, t, reducible))
    assert merged == full


# -- the product sieve against a per-vector tally ----------------------------------

# the largest n per base of the differential tests
SIZES = {2: 12, 3: 7, 4: 5, 5: 4, 10: 3}


def _per_vector_record(b, n, space, vectors):
    """The census written out: one engine call per nonzero vector."""
    kinds = {factor.MONOMIAL: 0, factor.IRREDUCIBLE: 0, factor.REDUCIBLE: 0}
    candidates = primes = 0
    for vec in vectors:
        coeffs = _trim(vec)
        if not coeffs:
            continue
        kind = factor._classify_generic(b, coeffs)[0]
        kinds[kind] += 1
        candidate = coeffs[0] != 0 and max(coeffs) == b - 1
        candidates += candidate
        primes += candidate and kind != factor.REDUCIBLE
    total = sum(kinds.values())
    return census.CensusRecord(
        b, n, space, total, kinds[factor.MONOMIAL], kinds[factor.IRREDUCIBLE], kinds[factor.REDUCIBLE], candidates, primes
    )


@functools.lru_cache(maxsize=None)
def _oracle_reducible(b):
    return oracle_reducible(b, SIZES[b] - 1)


@pytest.mark.parametrize("space", census.SPACES)
@pytest.mark.parametrize("b, n", [(b, n) for b, top in SIZES.items() for n in range(1, top + 1)])
def test_census_matches_per_vector_tally(b, n, space):
    rec = census.census(b, n, space)
    assert rec == _per_vector_record(b, n, space, census.iter_vectors(b, n, space))
    reducible = _oracle_reducible(b)
    assert rec.reducible == sum(1 for vec in census.iter_vectors(b, n, space) if _trim(vec) in reducible)


def _plan(b, n, space):
    return [census._valuation_range(b, n, space, t) for t in range(n)]


@pytest.mark.parametrize("space", census.SPACES)
@pytest.mark.parametrize("b, n", ((2, 7), (3, 4), (4, 3), (10, 3)))
def test_each_index_counts_its_own_vector(b, n, space):
    # each index lies in the one range of its vector's valuation t, the
    # number of its leading zero coefficients (n-1 for the zero vector)
    plan = _plan(b, n, space)
    for idx, vec in enumerate(census.iter_vectors(b, n, space)):
        t = next((k for k, c in enumerate(vec) if c), n - 1)
        assert [k for k, (start, end) in enumerate(plan) if start <= idx < end] == [t]


@pytest.mark.parametrize("space", census.SPACES)
@pytest.mark.parametrize("b, n", ((2, 7), (3, 4), (4, 3), (10, 3), (2, 1), (3, 1)))
def test_every_shard_is_the_per_vector_tally_of_its_range(b, n, space):
    reducible = census._reducible_counts(b, n)
    for t, (start, end) in enumerate(_plan(b, n, space)):
        want = _per_vector_record(b, n, space, census.iter_vectors(b, n, space, start, end))
        assert census._range_record(b, n, space, t, reducible) == want


@pytest.mark.parametrize("b", sorted(SIZES))
def test_degree_counts_match_the_oracle(b):
    # per core degree m: the reducible cores and those with a digit b-1
    top = SIZES[b]
    reducible = _oracle_reducible(b)
    want = [(0, 0)] * top
    for m in range(top):
        cores = [c for c in itertools.product(range(b), repeat=m + 1) if c[0] and c[-1] and c in reducible]
        want[m] = (len(cores), sum(1 for c in cores if max(c) == b - 1))
    assert census._reducible_counts(b, top) == want
    assert [census._sieve_degree(b, m) for m in range(2, top)] == want[2:]


@pytest.mark.parametrize("b, top", ((2, 10), (3, 6), (4, 5), (10, 3)))
def test_partition_sigma_is_the_census_reducible_count(b, top):
    # the partition marks its own reducible flags from the same core products
    for n in range(1, top + 1):
        assert census.partition_census(b, n, census.BoundParams.make(2, 2)).sigma == census.census(b, n).reducible


def test_census_makes_no_engine_call(tmp_path, monkeypatch):
    expected = {(b, n, space): census.census(b, n, space) for b, n in ((2, 9), (3, 5)) for space in census.SPACES}

    def engine(*args):
        raise AssertionError("the census called the divisor search")

    monkeypatch.setattr(factor, "_classify_generic", engine)
    for (b, n, space), rec in expected.items():
        assert census.census(b, n, space) == rec
        assert census.census(b, n, space, workers=2) == rec
        assert census.census_with_checkpoint(b, n, space, tmp_path / f"{b}-{n}-{space}.json") == rec


def test_sieve_across_block_boundaries(monkeypatch):
    # three rows or plane words a block: every factor family, product chunk
    # and counted range spans several blocks, the last one short
    cells = ((2, 8), (3, 5), (4, 4), (10, 3))
    params = census.BoundParams.make(2, 2)
    expected = {
        (b, n): (census.census(b, n), census.census(b, n, census.EXACT_DEGREE), census.partition_census(b, n, params))
        for b, n in cells
    }
    monkeypatch.setattr(census, "BLOCK_ROWS", 3)
    monkeypatch.setattr(core, "BLOCK_ROWS", 3)
    for (b, n), want in expected.items():
        assert (census.census(b, n), census.census(b, n, census.EXACT_DEGREE), census.partition_census(b, n, params)) == want


def _planes(b, digits):
    # planes 1..b-1 of digit rows as words, bit k where digit k is >= s
    words = np.zeros((b - 1, len(digits)), dtype=np.uint64)
    for k, column in enumerate(digits.T):
        words |= (column >= np.arange(1, b)[:, None]).astype(np.uint64) << np.uint64(k)
    return words


@pytest.mark.parametrize("block_rows", (None, 3))
@pytest.mark.parametrize("b, top", ((2, 6), (3, 6), (10, 6), (256, 2)))
def test_core_words_are_the_planes_of_pack(monkeypatch, b, top, block_rows):
    # the cores of every degree m <= top, all of them but at b=10 m=6 and
    # b=256 m=2 (8.1M and 16.6M cores), where 64 runs of 64 ranks from
    # random starts and the two ends stand in: their words, in full and one
    # plane at a time, are the planes of their digit rows, and those of
    # core._pack (on every core of a degree with at most 1000, else on 8
    # of each run); a chunk table holds at most BLOCK_ROWS words, or the
    # (b-1) * b of one digit when BLOCK_ROWS is smaller
    if block_rows:
        monkeypatch.setattr(census, "BLOCK_ROWS", block_rows)
    built = set()
    plane_table = census._plane_table
    monkeypatch.setattr(census, "_plane_table", lambda b, k: built.add(k) or plane_table(b, k))
    rng = random.Random(b)
    levels = range(1, b) if b <= 10 else (1, b // 2, b - 1)
    for m in range(top + 1):
        cores = census._cores(b, m)
        count = len(cores)
        sampled = count >= 1 << 20
        run = 64 if sampled else 1 << 13
        for lo in [0, count - 1, *rng.sample(range(count), 64)] if sampled else range(0, count, run):
            rank = np.arange(lo, min(lo + run, count))
            digits = census._index_rows(b, m + 1, census.EXACT_DEGREE, cores[lo], cores[lo] + len(rank))
            words = census._core_words(b, m, rank)
            assert words.flags.c_contiguous and np.array_equal(words, _planes(b, digits))
            for s in levels:
                assert np.array_equal(census._core_words(b, m, rank, s), words[s - 1])
            picks = range(len(rank)) if count <= 1000 else {0, *range(len(rank) - 1, 0, -max(1, len(rank) // 7))}
            for k in picks:
                packed = core._pack(b, digits[k].tolist(), core.WORD).to_bytes(8 * (b - 1), "little")
                assert np.array_equal(words[:, k], np.frombuffer(packed, dtype="<u8"))
    assert built and all(plane_table(b, k).size <= max(census.BLOCK_ROWS, (b - 1) * b) for k in built)


@pytest.mark.parametrize("b", (3, 4, 10))
def test_class_is_invariant_under_reversal(b):
    rng = random.Random(b)

    def end_nonzero_core(length):
        return (rng.randrange(1, b),) + tuple(rng.randrange(b) for _ in range(length - 2)) + (rng.randrange(1, b),)

    kinds = set()
    for k in range(300):
        if k % 2:
            h = end_nonzero_core(rng.randrange(2, 13))
        else:
            # products of two cores, most of them reducible
            h = core.mul_coeffs(end_nonzero_core(rng.randrange(2, 6)), end_nonzero_core(rng.randrange(2, 7)))
        kind = factor._classify_generic(b, h)[0]
        assert kind == factor._classify_generic(b, h[::-1])[0], h
        kinds.add(kind)
    assert kinds == {factor.IRREDUCIBLE, factor.REDUCIBLE}


@pytest.mark.parametrize("workers", (1, 2))
def test_run_shards_keeps_job_order(workers):
    # the first job is the largest, so with two workers it finishes last;
    # an unbounded cost starts a real pool whenever there are two workers
    jobs = [(2, 16, census.ALL_VECTORS), (2, 3, census.ALL_VECTORS), (3, 4, census.EXACT_DEGREE), (2, 1, census.ALL_VECTORS)]
    parts = list(census.run_shards(census.census, jobs, workers, math.inf))
    assert parts == [census.census(*job) for job in jobs]
    assert list(census.run_shards(census.census, [], workers, math.inf)) == []


@pytest.mark.parametrize("b", (2, 3, 4, 10))
def test_product_count_is_what_the_sieve_multiplies(b):
    # the sieve runs degrees m >= 2; lower ones have no products
    for m in range(2, {2: 12, 3: 8, 4: 7, 10: 4}[b]):
        assert census._product_count(b, m) == sum(len(rank) for *_, rank in census._core_products(b, m)), m


@pytest.mark.parametrize("workers", (1, 2))
def test_checkpoint_resume(tmp_path, workers):
    path = tmp_path / "census.json"
    rec = census.census_with_checkpoint(2, 8, census.ALL_VECTORS, path, workers=workers)
    assert rec == census.census(2, 8)
    # drop a shard and resume
    state = json.loads(path.read_text())
    dropped = state["shards"].pop(2)
    path.write_text(json.dumps(state))
    rec2 = census.census_with_checkpoint(2, 8, census.ALL_VECTORS, path, workers=workers)
    assert rec2 == rec
    state = json.loads(path.read_text())
    assert {(s["range_start"], s["range_end"]) for s in state["shards"]} >= {
        (dropped["range_start"], dropped["range_end"])
    }


def test_checkpoint_rejects_other_census(tmp_path):
    path = tmp_path / "census.json"
    census.census_with_checkpoint(2, 4, census.ALL_VECTORS, path)
    with pytest.raises(ValueError):
        census.census_with_checkpoint(2, 5, census.ALL_VECTORS, path)


def test_checkpoint_rejects_other_shard_size(tmp_path):
    # this census's header with the earlier plan's 16 shards of 64 vectors,
    # each the per-vector tally of its range
    path = tmp_path / "census.json"
    rec = census.census_with_checkpoint(2, 10, census.ALL_VECTORS, path)
    assert rec.total == 1023
    state = json.loads(path.read_text())
    assert "shard_size" not in state and len(state["shards"]) == 10
    good = state["shards"]
    state["shards"] = [
        {"range_start": start, "range_end": start + 64, "partial": dataclasses.asdict(
            _per_vector_record(2, 10, census.ALL_VECTORS, census.iter_vectors(2, 10, census.ALL_VECTORS, start, start + 64))
        )}
        for start in range(0, 1024, 64)
    ]
    path.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="shards outside the plan"):
        census.census_with_checkpoint(2, 10, census.ALL_VECTORS, path)
    state["shards"] = good
    state["version"] = "0.0.0"
    path.write_text(json.dumps(state))
    with pytest.raises(ValueError):
        census.census_with_checkpoint(2, 10, census.ALL_VECTORS, path)


@pytest.mark.parametrize("b, n, space", ((2, 8, census.ALL_VECTORS), (3, 5, census.EXACT_DEGREE), (2, 2, census.ALL_VECTORS)))
def test_shard_plan_is_contiguous(b, n, space):
    # n ranges, t = 0 the top one.  In all-vectors range t holds the
    # (b-1) * b^(n-1-t) vectors x^t * c, and the last one the zero vector
    # too; in exact-degree, the cores c of degree n-1-t
    plan = _plan(b, n, space)
    size = census.space_size(b, n, space)
    assert len(plan) == n and plan[0][1] == size and plan[-1][0] == 0
    assert [start for start, _ in plan[:-1]] == [end for _, end in plan[1:]]
    if space == census.ALL_VECTORS:
        widths = [(b - 1) * b ** (n - 1 - t) for t in range(n - 1)] + [b]
    else:
        widths = [(b - 1) ** 2 * b ** (n - 2 - t) for t in range(n - 1)] + [b - 1]
    assert [end - start for start, end in plan] == widths


def test_checkpoint_resumes_at_another_worker_count(tmp_path):
    path = tmp_path / "census.json"
    census.census_with_checkpoint(2, 14, census.ALL_VECTORS, path)
    state = json.loads(path.read_text())
    del state["shards"][5:12]
    path.write_text(json.dumps(state))
    rec = census.census_with_checkpoint(2, 14, census.ALL_VECTORS, path, workers=2)
    assert rec == census.census(2, 14)
    state = json.loads(path.read_text())
    assert sorted(s["range_end"] for s in state["shards"]) == [2**k for k in range(1, 15)]


@pytest.mark.parametrize("extra", ("duplicate", "foreign"))
def test_checkpoint_rejects_repeated_or_foreign_shards(tmp_path, extra):
    path = tmp_path / "census.json"
    census.census_with_checkpoint(2, 8, census.ALL_VECTORS, path)
    state = json.loads(path.read_text())
    if extra == "duplicate":
        state["shards"].append(state["shards"][0])
    else:
        part = _per_vector_record(2, 8, census.ALL_VECTORS, census.iter_vectors(2, 8, census.ALL_VECTORS, 0, 7))
        state["shards"].append({"range_start": 0, "range_end": 7, "partial": dataclasses.asdict(part)})
    path.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="repeated shards or shards outside the plan"):
        census.census_with_checkpoint(2, 8, census.ALL_VECTORS, path)


@pytest.mark.parametrize("workers", (1, 2))
def test_checkpoint_write_is_atomic(tmp_path, monkeypatch, workers):
    path = tmp_path / "census.json"
    census.census_with_checkpoint(2, 8, census.ALL_VECTORS, path, workers=workers)
    state = json.loads(path.read_text())
    del state["shards"][3:]
    before = json.dumps(state)
    path.write_text(before)

    def crash(src, dst):
        raise OSError("crashed before the replace")

    monkeypatch.setattr(census.os, "replace", crash)
    with pytest.raises(OSError):
        census.census_with_checkpoint(2, 8, census.ALL_VECTORS, path, workers=workers)
    assert path.read_text() == before
    monkeypatch.undo()
    rec = census.census_with_checkpoint(2, 8, census.ALL_VECTORS, path, workers=workers)
    assert rec == census.census(2, 8)
    assert [p.name for p in tmp_path.iterdir()] == ["census.json"]


@pytest.mark.parametrize("workers", (1, 2))
def test_checkpoint_survives_an_interruption(tmp_path, monkeypatch, workers):
    # a run writes the checkpoint once, after it has counted the pending
    # ranges: an interrupt at that write leaves the previous checkpoint
    # byte for byte, and the resume counts the ranges it lacks
    path = tmp_path / "census.json"
    replace = census.os.replace
    writes = []

    def interrupted(src, dst):
        writes.append(dst)
        if len(writes) == 2:
            raise OSError("interrupted")
        replace(src, dst)

    monkeypatch.setattr(census.os, "replace", interrupted)
    census.census_with_checkpoint(2, 8, census.ALL_VECTORS, path, workers=workers)
    state = json.loads(path.read_text())
    assert state["tally"] == "valuations"
    # each shard counts the nonzero vectors of its own range, x^t * c for
    # t = 0, 1, 2, ...
    assert [(s["range_end"], s["partial"]["total"]) for s in state["shards"][:3]] == [(256, 128), (128, 64), (64, 32)]
    del state["shards"][3:]
    before = json.dumps(state)
    path.write_text(before)
    with pytest.raises(OSError):
        census.census_with_checkpoint(2, 8, census.ALL_VECTORS, path, workers=workers)
    assert path.read_text() == before
    rec = census.census_with_checkpoint(2, 8, census.ALL_VECTORS, path, workers=workers)
    assert rec == census.census(2, 8) and len(writes) == 3
    state = json.loads(path.read_text())
    ranges = sorted((s["range_start"], s["range_end"]) for s in state["shards"])
    assert [r[0] for r in ranges] == [0] + [r[1] for r in ranges[:-1]] and ranges[-1][1] == 2**8


def _checkpoint(tmp_path):
    path = tmp_path / "census.json"
    census.census_with_checkpoint(2, 6, census.ALL_VECTORS, path)
    return path, json.loads(path.read_text())


@pytest.mark.parametrize(
    "tamper",
    (
        lambda shards: shards[-1].pop("range_end"),
        lambda shards: shards[-1].pop("partial"),
        lambda shards: shards[-1].update(range_start="60"),
        lambda shards: shards[-1].update(range_end=None),
        lambda shards: shards[-1].update(partial=[1, 2]),
        lambda shards: shards[-1]["partial"].pop("primes"),
        lambda shards: shards[-1]["partial"].update(extra=1),
        lambda shards: shards[-1]["partial"].update(irreducible=1.5),
        lambda shards: shards[-1]["partial"].update(irreducible=-1),
        lambda shards: shards[-1]["partial"].update(b=3),
        lambda shards: shards.append(7),
    ),
)
def test_checkpoint_rejects_malformed_shards(tmp_path, tamper):
    path, state = _checkpoint(tmp_path)
    tamper(state["shards"])
    path.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="holds a shard that is not an integer range with partial counts of this census"):
        census.census_with_checkpoint(2, 6, census.ALL_VECTORS, path)


def test_checkpoint_rejects_counts_that_do_not_add_up(tmp_path):
    path, state = _checkpoint(tmp_path)
    partial = state["shards"][-1]["partial"]
    partial["total"] = 999
    path.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="classes do not add up"):
        census.census_with_checkpoint(2, 6, census.ALL_VECTORS, path)
    # consistent within the shard, but not the space's 63 nonzero vectors
    partial["irreducible"] += 999 - (partial["monomials"] + partial["irreducible"] + partial["reducible"])
    path.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="nonzero vectors where the space has 63"):
        census.census_with_checkpoint(2, 6, census.ALL_VECTORS, path)
    for shape in ([], {"b": 2}, {**state, "shards": {}}):
        path.write_text(json.dumps(shape))
        with pytest.raises(ValueError):
            census.census_with_checkpoint(2, 6, census.ALL_VECTORS, path)


def test_checkpoint_rejects_a_per_vector_tally(tmp_path):
    # the layouts of earlier tallies, with this census's ranges and counts:
    # no marker (each shard counted its own vectors before the orbit tally),
    # the orbit tally's marker and that of the index ranges
    path, state = _checkpoint(tmp_path)
    for entry in state["shards"]:
        vectors = census.iter_vectors(2, 6, census.ALL_VECTORS, entry["range_start"], entry["range_end"])
        assert entry["partial"] == dataclasses.asdict(_per_vector_record(2, 6, census.ALL_VECTORS, vectors))
    for marker in (None, "orbits", "vectors"):
        header = {key: value for key, value in state.items() if key != "tally"}
        path.write_text(json.dumps(header if marker is None else {**header, "tally": marker}))
        with pytest.raises(ValueError, match="different census, tally or version"):
            census.census_with_checkpoint(2, 6, census.ALL_VECTORS, path)


# -- closed forms -----------------------------------------------------------------


def test_candidate_closed_form_examples():
    assert census.candidate_count_closed_form(2, 2) == 1
    assert census.candidate_count_closed_form(3, 2) == 3
    assert [census.candidate_count_closed_form(2, n) for n in range(2, 9)] == [
        2**(n - 2) for n in range(2, 9)
    ]


def test_candidate_closed_form_matches_census_small():
    for b in (2, 3):
        for n in range(2, 7):
            rec = census.census(b, n, census.EXACT_DEGREE)
            assert rec.prime_candidates == census.candidate_count_closed_form(b, n)


def test_als_lower_bound_examples():
    assert census.als_lower_bound(3, 4) == 6
    assert census.als_lower_bound(2, 5) == 1
    rec = census.census(3, 4, census.EXACT_DEGREE)
    assert census.als_lower_bound_check(3, 4, rec)


# -- close pairs -------------------------------------------------------------------


def test_close_pair_examples():
    assert census.close_pair_count(2, 1, 1) == 2
    # d beyond n makes the support condition vacuous
    n, k = 6, 2
    assert census.close_pair_count(n, k, n + 1) == 2 ** (n - 1)
    assert census.close_pair_count(8, 3, 2) <= 8**6 * 2**3


def test_close_pair_count_matches_brute_force():
    for n in range(2, 10):
        for k in range(1, n):
            for d in (0, 1, 2):
                assert census.close_pair_count(n, k, d) == oracle_close_pairs(n, k, d), (n, k, d)


def test_close_pair_count_across_block_boundaries(monkeypatch):
    # three rows a block: both families span several blocks, the last one short
    monkeypatch.setattr(census, "BLOCK_ROWS", 3)
    monkeypatch.setattr(core, "BLOCK_ROWS", 3)
    for n in range(4, 9):
        for k in range(1, n):
            for d in (0, 1, 2):
                assert census.close_pair_count(n, k, d) == oracle_close_pairs(n, k, d), (n, k, d)


def test_close_pair_count_over_the_bound_is_a_domain_error():
    # k=1, d=0 passes the n^(2d+2) * 2^k ceiling from n = 15 on
    with pytest.raises(BoundExceeded, match="close-pair count 470 exceeds the bound .* = 450$"):
        census.close_pair_count(15, 1, 0)
    assert oracle_close_pairs(15, 1, 0) == 470


def test_close_pair_validation(monkeypatch):
    with pytest.raises(ValueError):
        census.close_pair_count(4, 0, 1)
    with pytest.raises(ValueError):
        census.close_pair_count(3, 1, -1)
    # a product of n+1 bits must fit one 64-bit word, forced or not
    with pytest.raises(ValueError, match="n <= 63"):
        census.close_pair_count(64, 3, 1, force=True)
    monkeypatch.setattr(census, "DEFAULT_BUDGET", 100)
    with pytest.raises(BudgetExceeded):
        census.close_pair_count(30, 3, 1)


# -- partition census ----------------------------------------------------------------


def test_partition_census_small(census_cache):
    for b in (2, 3):
        params = census.BoundParams.make(2, 2)
        part = census.partition_census(b, 6, params)
        rec = census_cache(b, 6)
        assert part.sigma == rec.reducible
        assert part.total == rec.total
        assert sum(part.sizes) >= part.sigma
        bound13 = 2 * math.exp(-(2**2) / (4 * 6)) * b**6
        assert part.e1 <= bound13
        assert part.e3 <= bound13
        assert part.explicit_bounds[0] == pytest.approx(bound13)


@pytest.mark.parametrize(
    "b, n, d, v",
    (
        (2, 3, 2, 2),
        (2, 7, 2, 2),
        (2, 8, 3, 1),
        (3, 5, 2, 2),
        (3, 6, 1, 3),
        (4, 4, 4, 0.5),
        (4, 5, 3, 1),
        (5, 4, 2, 2),
        (5, 4, 4, 0.5),
    ),
)
def test_partition_census_matches_oracle(b, n, d, v):
    part = census.partition_census(b, n, census.BoundParams.make(d, v))
    assert (part.sizes, part.sigma, part.total) == oracle_partition(b, n, d, v)
    assert all(type(x) is int for x in (*part.sizes, part.sigma, part.total))
    assert all(type(x) is float for x in part.explicit_bounds)


def test_partition_oracle_cases_reach_the_hard_paths():
    # class 6 is nonempty at b=4
    assert oracle_partition(4, 5, 3, 1)[0][5] > 0
    # at b=2 n=3 the one reducible vector is a square, (1 + x)^2 = 1 + x + x^2,
    # an equal-degree product with f == g
    assert oracle_partition(2, 3, 2, 2)[1] == 1
    assert product_table(2, 2) == {(1, 1, 1): [((1, 1), (1, 1))]}


def test_partition_membership_is_first_applicable():
    b, n = 2, 6
    params = census.BoundParams.make(2, 2)
    part = census.partition_census(b, n, params)
    # recompute class 1 independently: support-size deviation alone
    from fractions import Fraction

    c1 = 0
    for vec in census.iter_vectors(b, n, census.ALL_VECTORS):
        if not any(vec):
            continue
        nnz1 = sum(1 for c in vec if c)
        if abs(Fraction(nnz1) - Fraction((b - 1) * n, b)) > Fraction(2, 2):
            c1 += 1
    assert part.sizes[0] == c1


def test_partition_witness_conditions_match_listings():
    # the class-5 condition quantifies over the same factorizations that
    # all_factorizations reports
    b, n = 2, 6
    params = census.BoundParams.make(2, 2)
    part = census.partition_census(b, n, params)
    from fractions import Fraction

    half_d = Fraction(1)
    mean1 = Fraction((b - 1) * n, b)
    mean1_pair = Fraction((b - 1) * (n + 1), b)
    c5 = 0
    for vec in census.iter_vectors(b, n, census.ALL_VECTORS):
        coeffs = _trim(vec)
        if not coeffs:
            continue
        poly = core.MaxMinPoly(b, coeffs)
        wits = factor.all_factorizations(poly)
        if not wits:
            continue
        nnz1 = sum(1 for c in coeffs if c)
        if abs(Fraction(nnz1) - mean1) > half_d:
            continue
        if any(
            abs(Fraction(core.nnz(w.g) + core.nnz(w.h)) - mean1_pair) > half_d
            for w in wits
        ):
            continue
        # classes 3 and 4 coincide with 1 and 2 at a = 1, so next is class 5
        if any(core.degree(w.g) <= 2 for w in wits):
            c5 += 1
    assert part.sizes[4] == c5


def test_partition_e6_empty_below_base4():
    part = census.partition_census(3, 6, census.BoundParams.make(2, 2))
    assert part.sizes[5] == 0
    assert part.explicit_bounds[5] == 0.0


def test_partition_bounds_survive_large_parameters():
    # 2^v overflows b5, while b6 = 2n(n+1) (a-1)^v b^(n-v+1) tends to 0
    bounds = census._partition_explicit_bounds(10, 3, Fraction(2), Fraction(2000), 5)
    assert bounds[4] == math.inf and bounds[5] == 0.0 and math.isfinite(bounds[6])


def test_partition_e6_present_at_base4():
    part = census.partition_census(4, 5, census.BoundParams.make(3, 1))
    assert part.a == 2
    assert part.explicit_bounds[5] > 0


# -- export ------------------------------------------------------------------------


def test_oeis_export():
    recs = [
        census.CensusRecord(2, 4, census.EXACT_DEGREE, 8, 1, 4, 3, 4, 3),
        census.CensusRecord(2, 3, census.EXACT_DEGREE, 4, 1, 2, 1, 2, 1),
    ]
    assert census.oeis_export(recs) == "3 1\n4 3\n"
    assert census.oeis_export([]) == ""


def test_csv_row():
    rec = census.census(2, 4)
    row = census.record_to_csv(rec)
    assert row.startswith("2,4,all-vectors,15,")
    assert len(row.split(",")) == len(census.CSV_HEADER.split(","))
