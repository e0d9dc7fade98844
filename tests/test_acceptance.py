"""Acceptance suite: one test per numbered criterion.

Each test prints a `[PASS]`/`[FAIL]` line (visible with `pytest -s`)
before asserting, so a full run doubles as a human-readable report:

    pytest tests/test_acceptance.py -v -s
"""

import math
import random
import time
from fractions import Fraction

import pytest

from maxminpoly import census, core, factor, series, stochastic
from oracles import (
    all_nonzero_tuples,
    naive_count_occurrences,
    naive_count_set,
    oracle_reducible,
)

SEED = 20250809


def _report(criterion: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {criterion}" + (f" -- {detail}" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def exhaustive_ranges():
    """Oracle reducibility tables for the exhaustive agreement criteria."""
    return {(2, 8): oracle_reducible(2, 8), (3, 6): oracle_reducible(3, 6)}


@pytest.fixture(scope="module")
def prime_sweep():
    """Exact-degree census records for b=2, n = 1..18."""
    return {n: census.census(2, n, census.EXACT_DEGREE) for n in range(1, 19)}


# -- 1: semiring laws ---------------------------------------------------------


def test_acceptance_01_semiring_laws():
    rng = random.Random(SEED)
    t0 = time.time()
    failures = 0
    for b in (2, 3, 10):
        zero_p = core.zero(b)
        one_p = core.one(b)
        for _ in range(10_000):
            f, g, h = (
                core.poly_new(b, [rng.randrange(b) for _ in range(rng.randint(0, 6))])
                for _ in range(3)
            )
            ok = (
                core.add(f, g) == core.add(g, f)
                and core.mul(f, g) == core.mul(g, f)
                and core.add(core.add(f, g), h) == core.add(f, core.add(g, h))
                and core.mul(core.mul(f, g), h) == core.mul(f, core.mul(g, h))
                and core.mul(f, core.add(g, h)) == core.add(core.mul(f, g), core.mul(f, h))
                and core.add(f, zero_p) == f
                and core.mul(f, one_p) == f
                and core.add(f, f) == f
            )
            if not ok:
                failures += 1
    elapsed = time.time() - t0
    assert _report(
        "1 semiring laws (3x10^4 triples)",
        failures == 0 and elapsed < 10.0,
        f"failures={failures}, {elapsed:.1f}s (limit 10s)",
    )


# -- 2: factorization oracle equivalence ------------------------------------------


def test_acceptance_02_oracle_equivalence(exhaustive_ranges):
    t0 = time.time()
    mismatches = 0
    for (b, max_deg), reducible in exhaustive_ranges.items():
        for coeffs in all_nonzero_tuples(b, max_deg):
            kind = factor.classify_irreducible(core.MaxMinPoly(b, coeffs)).kind
            if sum(1 for c in coeffs if c) == 1:
                expected = factor.MONOMIAL
            elif coeffs in reducible:
                expected = factor.REDUCIBLE
            else:
                expected = factor.IRREDUCIBLE
            if kind != expected:
                mismatches += 1
    elapsed = time.time() - t0
    assert _report(
        "2 oracle equivalence (b=2 deg<=8, b=3 deg<=6)",
        mismatches == 0 and elapsed < 300.0,
        f"mismatches={mismatches}, {elapsed:.1f}s (limit 300s)",
    )


# -- 3: the worked factorization example ---------------------------------------------


def test_acceptance_03_worked_example():
    h = core.parse_poly("2:0,1,1,0,1")
    cls = factor.classify_irreducible(h)
    quot = factor.residual_divide(h, core.parse_poly("2:0,1"))
    ok = cls.kind == factor.IRREDUCIBLE and quot == core.parse_poly("2:1,1,0,1")
    assert _report("3 worked example: classify + divide by x", ok)


# -- 4: irreducible candidates are exactly the primes ----------------------------------


def test_acceptance_04_prime_iff_irreducible_candidate(exhaustive_ranges):
    bad = 0
    for (b, max_deg), reducible in exhaustive_ranges.items():
        for coeffs in all_nonzero_tuples(b, max_deg):
            f = core.MaxMinPoly(b, coeffs)
            expected_prime = factor.is_prime_candidate(f) and coeffs not in reducible
            if (factor.classify_prime(f).kind == factor.PRIME) != expected_prime:
                bad += 1
    assert _report("4 candidate prime <=> irreducible (exhaustive)", bad == 0, f"violations={bad}")


# -- 5: candidate closed form -----------------------------------------------------------


def test_acceptance_05_candidate_closed_form():
    bad = []
    for b in (2, 3, 4):
        for n in range(2, 9):
            rec = census.census(b, n, census.EXACT_DEGREE)
            if rec.prime_candidates != census.candidate_count_closed_form(b, n):
                bad.append((b, n))
    ratio = census.candidate_count_closed_form(2, 8) / (1**2 * 2**6)
    ratio_ok = abs(ratio - 1) <= 0.05
    assert _report(
        "5 candidate closed form (b in 2..4, n in 2..8) + 5% asymptotic ratio",
        not bad and ratio_ok,
        f"mismatches={bad}, ratio={ratio:.3f}",
    )


# -- 6: published prime-count cross-check -------------------------------------------------


def test_acceptance_06_published_prime_counts(prime_sweep):
    t0 = time.time()
    ours = {n: rec.primes for n, rec in prime_sweep.items()}
    # the bundled A169912-convention snapshot, which
    # scripts/make_oeis_snapshot.py regenerates; the suite needs no network
    ref = census.load_snapshot_counts()
    ok = all(ref[n] == ours[n] for n in ours if n >= 3)
    # documented convention offsets at the two smallest lengths: the
    # classical count admits the non-candidate prime x (length 2) and
    # excludes the identity constant (length 1)
    ok = ok and ref[2] == ours[2] + 1 and ref[1] == ours[1] - 1
    detail = f"source=bundled snapshot, n up to {max(ours)}"
    elapsed = time.time() - t0
    assert _report(
        "6 published prime-count cross-check",
        ok and elapsed < 600.0,
        f"{detail}, {elapsed:.1f}s (limit 600s)",
    )


# -- 7: density trend ----------------------------------------------------------------------


def test_acceptance_07_density_trend():
    rec8 = census.census(2, 8)
    rec16 = census.census(2, 16)
    frac8 = rec8.irreducible_fraction()
    frac16 = rec16.irreducible_fraction()
    trend_ok = frac16 > frac8
    cfg = stochastic.ExperimentConfig(seed=SEED, trials=10_000, b=2, n=32)
    rep = stochastic.density_experiment(cfg)
    sigma = math.sqrt(rep.estimate * (1 - rep.estimate) / rep.trials)
    sampled_ok = rep.estimate >= float(frac16) - 3 * sigma
    assert _report(
        "7 density trend (exhaustive 8->16, sampled 32)",
        trend_ok and sampled_ok,
        f"frac8={float(frac8):.4f}, frac16={float(frac16):.4f}, est32={rep.estimate:.4f}",
    )


# -- 8: support-size tail bound --------------------------------------------------------------


def test_acceptance_08_hoeffding_grid():
    t0 = time.time()
    violations = []
    for b in (2, 4):
        for n in (500, 1000):
            for eps in (0.05, 0.1):
                for i in range(1, b):
                    cfg = stochastic.ExperimentConfig(seed=SEED + i, trials=10_000, b=b, n=n)
                    rep = stochastic.hoeffding_experiment(cfg, i, eps)
                    sigma = math.sqrt(
                        rep.empirical_tail * (1 - rep.empirical_tail) / rep.trials
                    )
                    if rep.empirical_tail > rep.hoeffding_bound + 3 * sigma:
                        violations.append((b, n, eps, i, rep.empirical_tail))
    elapsed = time.time() - t0
    assert _report(
        "8 tail bound grid (b in {2,4}, n in {500,1000}, eps in {0.05,0.1}, all levels)",
        not violations and elapsed < 60.0,
        f"violations={violations}, {elapsed:.1f}s (limit 60s)",
    )


# -- 9: partition census ------------------------------------------------------------------------


def test_acceptance_09_partition_census():
    bad = []
    for b in (2, 3):
        for n in range(2, 9):
            for d, v in ((2, 2), (3, 2)):
                part = census.partition_census(b, n, census.BoundParams.make(d, v))
                # cover and disjointness are asserted inside partition_census
                if sum(part.sizes) < part.sigma:
                    bad.append((b, n, d, v, "cover"))
                bound = 2 * math.exp(-d * d / (4 * n)) * b**n
                if part.e1 > bound or part.e3 > bound:
                    bad.append((b, n, d, v, "tail bound"))
                if part.sizes[4] > v * n ** (2 * d + 1) * 2**v:
                    bad.append((b, n, d, v, "small-factor bound"))
    assert _report(
        "9 partition census (b in {2,3}, n <= 8, (d,v) in {(2,2),(3,2)})",
        not bad,
        f"violations={bad}",
    )


# -- 10: close-pair ceiling -----------------------------------------------------------------------


def test_acceptance_10_close_pairs():
    bad = []
    for n in range(2, 13):
        for k in range(1, n):
            for d in (1, 2):
                count = census.close_pair_count(n, k, d)
                if count > n ** (2 * d + 2) * 2**k:
                    bad.append((n, k, d, count))
    assert _report("10 close-pair ceiling (n <= 12, d in {1,2})", not bad, f"violations={bad}")


# -- 11: bound-term algebra -------------------------------------------------------------------------


def test_acceptance_11_bound_term_algebra():
    grid = (50, 100, 200, 400, 800)
    t3_ok = True
    for n in grid:
        rep = stochastic.bound_terms(2, n, stochastic.default_params(n))
        if not math.isclose(math.exp(rep.log_terms[2]), 1.0 / n, rel_tol=1e-12):
            t3_ok = False
    increases = []
    for b in (2, 3, 10):
        reports = [stochastic.bound_terms(b, n, stochastic.default_params(n)) for n in grid]
        for t in range(4):
            for prev, cur, n in zip(reports, reports[1:], grid[1:]):
                if not cur.log_terms[t] < prev.log_terms[t]:
                    increases.append((b, n, f"t{t + 1}"))
    monotone_ok = not increases
    assert _report(
        "11 bound-term algebra (t3 = 1/n exact; all four terms decreasing)",
        t3_ok and monotone_ok,
        f"t3_exact={t3_ok}, non-decreasing points={sorted(set(x[2] for x in increases))} "
        f"({len(increases)} grid points)",
    )


# -- 12: forbidden-string scans ------------------------------------------------------------------------


def test_acceptance_12_forbidden_string():
    rng = random.Random(SEED)
    bad = 0
    for b in (2, 5):
        for _ in range(500):
            f = series.make_stream(b, [rng.randrange(b) for _ in range(512)])
            support = rng.randint(2, 5)
            deg = support - 1 + rng.randint(0, 3)
            positions = sorted(rng.sample(range(1, deg), support - 2)) if support > 2 else []
            coeffs = [0] * (deg + 1)
            coeffs[0] = rng.randrange(1, b)
            coeffs[deg] = rng.randrange(1, b)
            for p in positions:
                coeffs[p] = rng.randrange(1, b)
            g = core.poly_new(b, coeffs)
            h1 = series.support_stream(series.product_stream(f, g))
            m = core.degree(g)
            if series.t1_forbidden_scan(h1, m) != 0 or not series.t1_isolation_check(h1, m):
                bad += 1
    assert _report("12 forbidden string (10^3 pairs, truncation 512)", bad == 0, f"violations={bad}")


# -- 13: interval-count arithmetic ----------------------------------------------------------------------


def test_acceptance_13_interval_count_arithmetic():
    exact_ok = series.t2_measure_bound(2, 10).lhs == Fraction(254, 1024)
    ratio_ok = all(series.t2_ratio(b) < 1 for b in range(2, 11))
    chain_bad = [
        (b, n)
        for b in range(2, 11)
        for n in range(5, 201)
        if not series.t2_chain_check(b, n)
    ]
    assert _report(
        "13 interval-count arithmetic (exact lhs, chain for b in 2..10 and n in 5..200)",
        exact_ok and ratio_ok and not chain_bad,
        f"lhs(2,10) exact={exact_ok}, chain violations={chain_bad[:5]}",
    )


# -- 14: window families -----------------------------------------------------------------------------------


def test_acceptance_14_window_families():
    k_ok = series.choose_k(2) == 4 and series.choose_k(10) == 22
    rng = random.Random(SEED)
    invariant_bad = 0
    trials = 0
    while trials < 1000:
        b = rng.choice((2, 3, 10))
        k = series.choose_k(b)
        coeffs = [rng.randrange(1, b) if rng.random() < 0.7 else 0 for _ in range(k + 10)]
        coeffs[-1] = b - 1
        g = core.poly_new(b, coeffs)
        if core.nnz(g) < k:
            continue
        trials += 1
        f = series.make_stream(b, [rng.randrange(b) for _ in range(96)])
        z = series.z_set(g, series.choose_r(g, k))
        if not series.t3_window_invariant(f, g, z):
            invariant_bad += 1
    stream = series.random_stream(3, 1_000_000, seed=SEED)
    freq_bad = []
    for first in range(3):
        for second in range(3):
            rep = series.z_frequency_report(stream, [(first, second)])
            if abs(rep.empirical - 1 / 9) > 0.01:
                freq_bad.append(((first, second), rep.empirical))
    assert _report(
        "14 window families (choose_k, invariant x10^3, per-string frequency)",
        k_ok and invariant_bad == 0 and not freq_bad,
        f"choose_k ok={k_ok}, invariant violations={invariant_bad}, freq outliers={freq_bad}",
    )


# -- 15: counter oracles --------------------------------------------------------------------------------------


def test_acceptance_15_counter_oracles():
    rng = random.Random(SEED)
    bad = 0
    for _ in range(1000):
        b = rng.choice((2, 3, 10))
        digits = [rng.randrange(b) for _ in range(rng.randint(20, 200))]
        stream = series.make_stream(b, digits)
        k = rng.randint(1, 4)
        pattern = [rng.randrange(b) for _ in range(k)]
        if series.count_occurrences(stream, pattern) != naive_count_occurrences(
            digits, pattern, stream.valid_to
        ):
            bad += 1
        window_set = [
            tuple(rng.randrange(b) for _ in range(k)) for _ in range(rng.randint(1, 4))
        ]
        if series.count_set_occurrences(stream, set(window_set)) != naive_count_set(
            digits, set(window_set), stream.valid_to
        ):
            bad += 1
    assert _report("15 counter oracles (10^3 random streams)", bad == 0, f"mismatches={bad}")


# -- 16: prime-count lower bound ----------------------------------------------------------------------------------


def test_acceptance_16_prime_lower_bound(prime_sweep):
    bad = []
    for b in (2, 3):
        for n in range(3, 9):
            rec = prime_sweep[n] if b == 2 else census.census(b, n, census.EXACT_DEGREE)
            if not census.als_lower_bound_check(b, n, rec):
                bad.append((b, n, rec.primes, census.als_lower_bound(b, n)))
    assert _report(
        "16 prime-count lower bound (b in {2,3}, n in 3..8)", not bad, f"violations={bad}"
    )
