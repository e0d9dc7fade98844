"""Independent expected values for every benchmark operation.

Products are recomputed with numpy, occurrence counts with regular
expressions, and census records from closed forms, the bundled base-2
snapshot and a pinned table.  The pins were produced by the package at the
commit that introduced this benchmark; `test_bench.py` cross-checks the
table's method against the brute-force oracles in `tests/oracles.py` at
small sizes.  Every checker raises CheckFailed on a wrong output.
"""

from __future__ import annotations

import re

import numpy as np

from maxminpoly import census, core
from oracles import oracle_mul


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- census records -------------------------------------------------------------

# (b, n, space) -> (irreducible, primes); primes of the base-2 exact-degree
# space come from the bundled snapshot instead.
CENSUS_PINS = {
    (2, 14, census.ALL_VECTORS): (11004, 5654),
    (2, 14, census.EXACT_DEGREE): (5653, None),
    (3, 8, census.ALL_VECTORS): (3843, 2525),
    (4, 6, census.ALL_VECTORS): (2313, 1455),
    (10, 3, census.ALL_VECTORS): (447, 99),
}

# (b, n, d, v) -> (sizes, sigma)
PARTITION_PINS = {
    (2, 10, 2, 2): ((351, 55, 0, 0, 124, 0, 52), 385),
    (3, 6, 2, 2): ((136, 54, 0, 0, 197, 0, 0), 306),
}

# (n, k, d) -> count
CLOSE_PAIR_PINS = {(16, 6, 2): 4465}


def candidates(b: int, n: int, space: str) -> int:
    """Prime candidates of the space; the all-vectors space holds every
    length up to n, and the constant b-1 is the only length-1 candidate."""
    if space == census.EXACT_DEGREE:
        return census.candidate_count_closed_form(b, n) if n >= 2 else 1
    return 1 + sum(census.candidate_count_closed_form(b, m) for m in range(2, n + 1))


def expected_record(b: int, n: int, space: str, irreducible: int, primes: int | None) -> dict:
    total = b**n - 1 if space == census.ALL_VECTORS else (b - 1) * b ** (n - 1)
    monomials = n * (b - 1) if space == census.ALL_VECTORS else b - 1
    if primes is None:
        primes = census.load_snapshot_counts()[n]
    return {
        "b": b,
        "n": n,
        "space": space,
        "total": total,
        "monomials": monomials,
        "irreducible": irreducible,
        "reducible": total - monomials - irreducible,
        "prime_candidates": candidates(b, n, space),
        "primes": primes,
    }


def check_census_record(record: dict) -> None:
    key = (record["b"], record["n"], record["space"])
    expect(key in CENSUS_PINS, f"no pinned census for {key}")
    want = expected_record(*key, *CENSUS_PINS[key])
    bad = {k: (record.get(k), v) for k, v in want.items() if record.get(k) != v}
    expect(not bad, f"census {key}: (got, want) {bad}")


def check_checkpoint(state: dict, size: int) -> None:
    ranges = sorted((s["range_start"], s["range_end"]) for s in state["shards"])
    covered = 0
    for start, end in ranges:
        expect(start == covered, f"checkpoint shards overlap or leave a gap at {start}")
        covered = end
    expect(covered == size, f"checkpoint covers {covered} of {size} vectors")


def check_partition(data: dict, b: int, n: int, d: int, v: int) -> None:
    sizes, sigma = PARTITION_PINS[(b, n, d, v)]
    expect(data["total"] == b**n - 1, f"partition total {data['total']}")
    expect(tuple(data["sizes"]) == sizes, f"partition sizes {data['sizes']} != {list(sizes)}")
    expect(data["sigma"] == sigma, f"partition sigma {data['sigma']} != {sigma}")


def check_close_pairs(data: dict, n: int, k: int, d: int) -> None:
    want = CLOSE_PAIR_PINS[(n, k, d)]
    bound = n ** (2 * d + 2) * 2**k
    expect(data["count"] == want, f"close-pair count {data['count']} != {want}")
    expect(data["bound"] == bound and data["holds"] is True, "close-pair bound")


# -- witnesses -------------------------------------------------------------------


def check_witness(product: core.MaxMinPoly, pair) -> None:
    """A factor pair in text form: both non-monomial, multiplying back."""
    g, h = (core.parse_poly(p) for p in pair)
    expect(not core.is_monomial(g) and not core.is_monomial(h), f"monomial factor in {pair}")
    expect(core.mul(g, h) == product, f"{pair} does not multiply to {core.format_poly(product)}")


def check_sumset(elements, summands) -> None:
    a, b = summands
    expect(len(a) >= 2 and len(b) >= 2, f"singleton summand in {summands}")
    expect(sorted({x + y for x in a for y in b}) == list(elements), f"{summands} do not sum to the set")


# -- products --------------------------------------------------------------------


def maxmin_conv(f, g) -> np.ndarray:
    """Untrimmed max-min convolution of two digit sequences."""
    f = np.asarray(f, dtype=np.int16)
    out = np.zeros(len(f) + len(g) - 1, dtype=np.int16)
    for j, gj in enumerate(g):
        if gj:
            window = out[j : j + len(f)]
            np.maximum(window, np.minimum(f, gj), out=window)
    return out


def trimmed(digits) -> tuple[int, ...]:
    nz = np.flatnonzero(digits)
    return tuple(int(x) for x in digits[: nz[-1] + 1]) if len(nz) else ()


def check_prefix(got, b: int, f, g, label: str, size: int = 256) -> None:
    """The first `size` product digits depend only on the first `size`
    digits of each factor; compare them with the library's raw kernel
    and the brute-force oracle."""
    f, g = [int(x) for x in f[:size]], [int(x) for x in g[:size]]
    want = core.mul_coeffs(f, g)[:size]
    oracle = oracle_mul(b, f, g)[:size]
    got = tuple(int(x) for x in got[:size])
    expect(got == want[: len(got)], f"{label}: prefix differs from mul_coeffs")
    expect(got[: len(oracle)] == oracle and not any(got[len(oracle):]), f"{label}: prefix differs from oracle_mul")


def check_digits(got, want, label: str) -> None:
    got = np.asarray(got)
    expect(len(got) == len(want), f"{label}: length {len(got)} != {len(want)}")
    bad = np.flatnonzero(got != want)
    expect(len(bad) == 0, f"{label}: {len(bad)} wrong digits, first at {bad[:1].tolist()}")


# -- digit-stream scans --------------------------------------------------------------


def count_overlapping(text: str, pattern: str) -> int:
    return len(re.findall(f"(?={re.escape(pattern)})", text))


def isolation_ok(digits: np.ndarray, m: int) -> bool:
    """Every nonzero digit at p <= len-m-1 has another nonzero within m."""
    ones = (digits != 0).astype(np.int64)
    n = len(ones)
    csum = np.concatenate(([0], np.cumsum(ones)))
    p = np.arange(n - m)
    lo = np.maximum(p - m, 0)
    hi = np.minimum(p + m, n - 1)
    others = csum[hi + 1] - csum[lo] - ones[p]
    return not np.any((ones[p] == 1) & (others == 0))


def window_family(b: int, g_coeffs) -> tuple[int, int, list[int]]:
    """(k, r, ones) of the window family built from g's support prefix."""
    k = 1
    while 10 * (b - 1) ** k >= b**k:
        k += 1
    ones = [j for j, c in enumerate(g_coeffs) if c][:k]
    return k, ones[-1] + 1, ones


def window_count(digits: np.ndarray, r: int, ones: list[int]) -> int:
    nz = digits != 0
    starts = len(digits) - r + 1
    ok = np.ones(starts, dtype=bool)
    for j in ones:
        ok &= nz[j : j + starts]
    return int(ok.sum())
