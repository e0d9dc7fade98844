"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's residuation/search machinery: the
product is an explicit double loop over the convolution formula, and
reducibility is decided by tabulating every product of two non-monomials.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence


def oracle_mul(b: int, f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    """Max-min convolution computed directly from the defining formula."""
    if not f or not g:
        return ()
    out = []
    for n in range(len(f) + len(g) - 1):
        best = 0
        for k in range(n + 1):
            if k < len(f) and n - k < len(g):
                v = min(f[k], g[n - k])
                if v > best:
                    best = v
        out.append(best)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def canonical_tuples(b: int, deg: int) -> list[tuple[int, ...]]:
    """All canonical coefficient tuples of exact degree deg over base b."""
    out = []
    for body in itertools.product(range(b), repeat=deg):
        for lead in range(1, b):
            out.append(body + (lead,))
    return out


def all_nonzero_tuples(b: int, max_deg: int) -> list[tuple[int, ...]]:
    out = []
    for deg in range(max_deg + 1):
        out.extend(canonical_tuples(b, deg))
    return out


def _nnz(t: Sequence[int]) -> int:
    return sum(1 for c in t if c)


def product_table(b: int, max_deg: int) -> dict[tuple[int, ...], list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Map every product of two non-monomials (deg sum <= max_deg) to the
    unordered-normalized list of factor pairs producing it."""
    by_deg: list[list[tuple[int, ...]]] = []
    for deg in range(max_deg + 1):
        by_deg.append([t for t in canonical_tuples(b, deg) if _nnz(t) >= 2])
    table: dict[tuple[int, ...], list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
    for m in range(2, max_deg + 1):
        for dg in range(1, m // 2 + 1):
            df = m - dg
            for g in by_deg[dg]:
                for f in by_deg[df]:
                    if dg == df and f < g:
                        continue
                    table.setdefault(oracle_mul(b, f, g), []).append((g, f))
    return table


def oracle_reducible(b: int, max_deg: int) -> set[tuple[int, ...]]:
    return set(product_table(b, max_deg))


def oracle_partition(b: int, n: int, d, v) -> tuple[tuple[int, ...], int, int]:
    """(class sizes, reducible count, total) of the seven-way partition of
    the nonzero length-n vectors: each vector goes to the first class whose
    test holds, every test read straight off the vector and the factor
    pairs (g, f), deg g <= deg f, that product_table lists for it."""
    a = b // 2
    half_d = Fraction(d) / 2

    def far(count: int, numerator: int) -> bool:
        return abs(count - Fraction(numerator, b)) > half_d

    def geq_a(t: Sequence[int]) -> int:
        return sum(1 for c in t if c >= a)

    table = product_table(b, n - 1)
    sizes = [0] * 7
    sigma = total = 0
    for vec in itertools.product(range(b), repeat=n):
        h = tuple(vec)
        while h and h[-1] == 0:
            h = h[:-1]
        if not h:
            continue
        total += 1
        pairs = table.get(h, [])
        sigma += bool(pairs)
        tests = (
            far(_nnz(h), (b - 1) * n),
            any(far(_nnz(f) + _nnz(g), (b - 1) * (n + 1)) for g, f in pairs),
            far(geq_a(h), (b - a) * n),
            any(far(geq_a(f) + geq_a(g), (b - a) * (n + 1)) for g, f in pairs),
            any(len(g) - 1 <= Fraction(v) for g, f in pairs),
            any(geq_a(f) <= 1 or geq_a(g) <= 1 for g, f in pairs),
            bool(pairs),
        )
        if any(tests):
            sizes[tests.index(True)] += 1
    return tuple(sizes), sigma, total


def raw_prime_counts(b: int, max_len: int) -> dict[int, int]:
    """Primes by the unrestricted definition, counted per digit length.

    h is prime when every factorization f*g = h includes the constant b-1
    as a factor, and h is not that constant itself.  This is the classical
    convention behind the published digit-arithmetic prime counts; it
    admits (b-1)x, which the candidate-based census excludes.
    """
    identity = (b - 1,)
    max_deg = max_len - 1
    composite: set[tuple[int, ...]] = set()
    polys = all_nonzero_tuples(b, max_deg)
    by_deg: dict[int, list[tuple[int, ...]]] = {}
    for t in polys:
        by_deg.setdefault(len(t) - 1, []).append(t)
    for m in range(0, max_deg + 1):
        for dg in range(0, m // 2 + 1):
            df = m - dg
            for g in by_deg.get(dg, ()):
                if g == identity:
                    continue
                for f in by_deg.get(df, ()):
                    if f == identity:
                        continue
                    composite.add(oracle_mul(b, f, g))
    counts = {n: 0 for n in range(1, max_len + 1)}
    for t in polys:
        if t == identity or t in composite:
            continue
        counts[len(t)] += 1
    return counts


def naive_count_occurrences(digits: Sequence[int], pattern: Sequence[int], valid_to: int) -> int:
    """Sliding-window overlapping count, rescanned from scratch."""
    k = len(pattern)
    pat = tuple(pattern)
    return sum(
        1
        for start in range(valid_to - k + 1)
        if tuple(digits[start : start + k]) == pat
    )


def naive_count_set(digits: Sequence[int], patterns: Iterable[Sequence[int]], valid_to: int) -> int:
    return sum(naive_count_occurrences(digits, p, valid_to) for p in patterns)


def naive_isolation(digits: Sequence[int], m: int, valid_to: int) -> bool:
    """Every nonzero digit at p <= valid_to-m-1 has another nonzero digit
    within distance m inside the valid prefix, checked window by window."""
    for p in range(valid_to - m):
        if digits[p]:
            lo, hi = max(0, p - m), min(valid_to - 1, p + m)
            if not any(digits[q] for q in range(lo, hi + 1) if q != p):
                return False
    return True


def naive_count_window_set(digits: Sequence[int], g1_prefix: Sequence[int], valid_to: int) -> int:
    """Windows of the valid prefix that are nonzero wherever g1_prefix is 1."""
    r = len(g1_prefix)
    return sum(
        1
        for start in range(valid_to - r + 1)
        if all(digits[start + j] for j, flag in enumerate(g1_prefix) if flag)
    )


def naive_window_invariant(f: Sequence[int], h: Sequence[int], z) -> bool:
    """Every window of h (its valid prefix) that starts under a nonzero
    digit of f is in the window family z, checked window by window."""
    return all(not f[s] or z.contains(h[s : s + z.r]) for s in range(len(h) - z.r + 1))


def oracle_pack(b: int, coeffs: Sequence[int], width: int) -> int:
    """Level planes {k : c_k >= s}, s = 1..b-1, at bit offset (s-1)*width,
    shifted in one coefficient at a time (quadratic in length)."""
    columns = [0] * b
    for s in range(1, b):
        columns[s] = columns[s - 1] | 1 << ((s - 1) * width)
    packed = 0
    for k, c in enumerate(coeffs):
        if c:
            packed |= columns[c] << k
    return packed


def oracle_unpack(packed: int, width: int, length: int) -> tuple[int, ...]:
    """Coefficients of `length` terms, counting set bits plane by plane."""
    out = [0] * length
    mask = (1 << length) - 1
    while packed:
        for k, bit in enumerate(bin(packed & mask)[:1:-1]):
            if bit == "1":
                out[k] += 1
        packed >>= width
    return tuple(out)


def oracle_residual(b: int, h: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    """Largest q of len(h) - len(g) + 1 terms with q*g <= h coefficientwise:
    min(q_i, g_j) <= h_{i+j} bounds q_i by h_{i+j} exactly when g_j exceeds it."""
    return tuple(
        min([h[i + j] for j, v in enumerate(g) if v > h[i + j]], default=b - 1)
        for i in range(len(h) - len(g) + 1)
    )


def _divisor_candidates(b: int, h: Sequence[int]):
    """Every non-monomial g with 1 <= deg g <= deg h / 2 in (deg, lex)
    order, each with its exact maximal quotient or None."""
    for dg in range(1, (len(h) - 1) // 2 + 1):
        for g in itertools.product(*[range(b)] * dg, range(1, b)):
            if _nnz(g) >= 2:
                q = oracle_residual(b, h, g)
                yield g, (q if oracle_mul(b, q, g) == tuple(h) else None)


def oracle_first_witness(b: int, h: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The first (g, maximal quotient) in (deg g, lex) order over every
    divisor candidate, unpruned; None when h is irreducible or a monomial."""
    for g, q in _divisor_candidates(b, h):
        if q is not None and _nnz(q) >= 2:
            return g, q
    return None


def oracle_close_pairs(n: int, k: int, d: int) -> int:
    """Boolean pairs (f, g), f(0) = 1, deg f = k, deg g = n - k, with
    |f*g| <= |f| + |g| + d, over every pair of coefficient tuples."""
    count = 0
    for f_mid in itertools.product((0, 1), repeat=k - 1):
        f = (1, *f_mid, 1)
        for g_low in itertools.product((0, 1), repeat=n - k):
            g = (*g_low, 1)
            if _nnz(oracle_mul(2, f, g)) <= _nnz(f) + _nnz(g) + d:
                count += 1
    return count


def oracle_factorizations(b: int, h: Sequence[int]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every unordered non-monomial pair (g, f) with g*f == h in (deg g, g, f)
    order, f ranging over everything below the maximal quotient."""
    out = []
    for g, q in _divisor_candidates(b, h):
        if q is None:
            continue
        for f in itertools.product(*[range(c + 1) for c in q]):
            if _nnz(f) >= 2 and (len(f) > len(g) or f >= g) and oracle_mul(b, f, g) == tuple(h):
                out.append((g, f))
    return out
