"""Enumeration spaces, census counts, the partition census and exports."""

import json
import math

import pytest

from maxminpoly import census, core, factor
from maxminpoly.errors import BudgetExceeded
from oracles import oracle_close_pairs, oracle_reducible

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
    for space in census.SPACES:
        for idx, vec in enumerate(census.iter_vectors(3, 3, space)):
            assert census.index_to_vector(3, 3, space, idx) == vec


def test_iter_vectors_range_matches_slices():
    full = list(census.iter_vectors(2, 4, census.ALL_VECTORS))
    assert list(census.iter_vectors(2, 4, census.ALL_VECTORS, 5, 11)) == full[5:11]


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
    with pytest.raises(BudgetExceeded):
        census.census(2, 10, budget=100)
    assert census.census(2, 10, budget=100, force=True).total == 1023
    monkeypatch.setenv(census.BUDGET_ENV_VAR, "100")
    with pytest.raises(BudgetExceeded):
        census.census(2, 10)


def test_merge_records_matches_full_run():
    full = census.census(3, 4)
    size = census.space_size(3, 4, census.ALL_VECTORS)
    merged = census.CensusRecord(3, 4, census.ALL_VECTORS, 0, 0, 0, 0, 0, 0)
    for start in range(0, size, 17):
        part = census.census_range(3, 4, census.ALL_VECTORS, start, min(start + 17, size))
        merged = census.merge_records(merged, part)
    assert merged == full


def test_checkpoint_resume(tmp_path):
    path = tmp_path / "census.json"
    rec = census.census_with_checkpoint(2, 8, census.ALL_VECTORS, path, shard_size=50)
    assert rec == census.census(2, 8)
    # drop a shard and resume
    state = json.loads(path.read_text())
    dropped = state["shards"].pop(2)
    path.write_text(json.dumps(state))
    rec2 = census.census_with_checkpoint(2, 8, census.ALL_VECTORS, path, shard_size=50)
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
    path = tmp_path / "census.json"
    rec = census.census_with_checkpoint(2, 10, census.ALL_VECTORS, path, shard_size=100)
    assert rec.total == 1023
    with pytest.raises(ValueError):
        census.census_with_checkpoint(2, 10, census.ALL_VECTORS, path, shard_size=64)
    state = json.loads(path.read_text())
    state["version"] = "0.0.0"
    path.write_text(json.dumps(state))
    with pytest.raises(ValueError):
        census.census_with_checkpoint(2, 10, census.ALL_VECTORS, path, shard_size=100)


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "census.json"
    census.census_with_checkpoint(2, 8, census.ALL_VECTORS, path, shard_size=50)
    state = json.loads(path.read_text())
    del state["shards"][3:]
    before = json.dumps(state)
    path.write_text(before)

    def crash(src, dst):
        raise OSError("crashed before the replace")

    monkeypatch.setattr(census.os, "replace", crash)
    with pytest.raises(OSError):
        census.census_with_checkpoint(2, 8, census.ALL_VECTORS, path, shard_size=50)
    assert path.read_text() == before
    monkeypatch.undo()
    rec = census.census_with_checkpoint(2, 8, census.ALL_VECTORS, path, shard_size=50)
    assert rec == census.census(2, 8)
    assert [p.name for p in tmp_path.iterdir()] == ["census.json"]


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


def test_close_pair_validation():
    with pytest.raises(ValueError):
        census.close_pair_count(4, 0, 1)
    with pytest.raises(ValueError):
        census.close_pair_count(3, 1, -1)
    with pytest.raises(BudgetExceeded):
        census.close_pair_count(30, 3, 1, budget=100)


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
