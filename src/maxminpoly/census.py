"""Exhaustive enumeration and counting over small coefficient spaces.

Two enumeration conventions are exposed and labeled on every record:

* ``all-vectors`` ranges over all b^n little-endian coefficient vectors of
  length n (n iid digit slots; vectors with trailing zeros canonicalize to
  lower-degree polynomials, and the zero vector is excluded from totals);
* ``exact-degree`` restricts to vectors whose leading digit is nonzero,
  i.e. genuine degree n-1 polynomials.

The census classifies every vector through the factorization engine.  The
partition census splits the same space into seven deviation classes keyed
on support sizes and factorization shapes, evaluating the explicit tail
bound attached to each class; enumeration order is lexicographic on the
coefficient vectors, so shard ranges are well-defined and resumable.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

from . import __version__, factor
from .core import MaxMinPoly, _pack, _terms, _times, _unpack, check_base
from .errors import BudgetExceeded
from .factor import REDUCIBLE

ALL_VECTORS = "all-vectors"
EXACT_DEGREE = "exact-degree"
SPACES = (ALL_VECTORS, EXACT_DEGREE)

DEFAULT_BUDGET = 200_000_000
BUDGET_ENV_VAR = "MINMAX_BUDGET"


def configured_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    return int(raw)


@dataclass(frozen=True, slots=True)
class CensusRecord:
    b: int
    n: int
    space: str
    total: int
    monomials: int
    irreducible: int
    reducible: int
    prime_candidates: int
    primes: int

    def irreducible_fraction(self) -> Fraction:
        return Fraction(self.irreducible, self.total)


CSV_HEADER = "b,n,space,total,monomials,irreducible,reducible,prime_candidates,primes"


def record_to_csv(rec: CensusRecord) -> str:
    return (
        f"{rec.b},{rec.n},{rec.space},{rec.total},{rec.monomials},"
        f"{rec.irreducible},{rec.reducible},{rec.prime_candidates},{rec.primes}"
    )


def merge_records(a: CensusRecord, b: CensusRecord) -> CensusRecord:
    """Associative, commutative merge of partial counts over one space."""
    if (a.b, a.n, a.space) != (b.b, b.n, b.space):
        raise ValueError("cannot merge census records for different spaces")
    return CensusRecord(
        a.b,
        a.n,
        a.space,
        a.total + b.total,
        a.monomials + b.monomials,
        a.irreducible + b.irreducible,
        a.reducible + b.reducible,
        a.prime_candidates + b.prime_candidates,
        a.primes + b.primes,
    )


def space_size(b: int, n: int, space: str) -> int:
    if space == ALL_VECTORS:
        return b**n
    if space == EXACT_DEGREE:
        return (b - 1) * b ** (n - 1)
    raise ValueError(f"unknown enumeration space {space!r}")


def index_to_vector(b: int, n: int, space: str, idx: int) -> tuple[int, ...]:
    """The idx-th length-n coefficient vector in lexicographic order."""
    digits = [0] * n
    if space == ALL_VECTORS:
        for pos in range(n - 1, -1, -1):
            idx, digits[pos] = divmod(idx, b)
    elif space == EXACT_DEGREE:
        idx, last = divmod(idx, b - 1)
        digits[n - 1] = last + 1
        for pos in range(n - 2, -1, -1):
            idx, digits[pos] = divmod(idx, b)
    else:
        raise ValueError(f"unknown enumeration space {space!r}")
    return tuple(digits)


def iter_vectors(b: int, n: int, space: str, start: int = 0, end: int | None = None) -> Iterator[tuple[int, ...]]:
    """Lexicographic stream of coefficient vectors over an index range."""
    size = space_size(b, n, space)
    if end is None:
        end = size
    if not 0 <= start <= end <= size:
        raise ValueError("index range out of bounds")
    if start == end:
        return
    digits = list(index_to_vector(b, n, space, start))
    for _ in range(start, end):
        yield tuple(digits)
        pos = n - 1
        while pos >= 0:
            digits[pos] += 1
            if digits[pos] < b:
                break
            # the leading digit of the exact-degree space wraps to 1, not 0
            digits[pos] = 1 if (space == EXACT_DEGREE and pos == n - 1) else 0
            pos -= 1


def enumerate_polys(b: int, n: int, space: str = ALL_VECTORS) -> Iterator[MaxMinPoly]:
    """Deterministic stream of polynomials for the chosen convention."""
    check_base(b)
    if n < 1:
        raise ValueError("n must be >= 1")
    for vec in iter_vectors(b, n, space):
        end = n
        while end and vec[end - 1] == 0:
            end -= 1
        yield MaxMinPoly(b, vec[:end])


def check_enumeration(b: int, n: int, space: str, budget: int | None = None, force: bool = False) -> None:
    """Reject a bad base, n < 1, an unknown space or b^n over the budget."""
    check_base(b)
    if n < 1:
        raise ValueError("n must be >= 1")
    if space not in SPACES:
        raise ValueError(f"unknown enumeration space {space!r}")
    limit = configured_budget() if budget is None else budget
    if not force and b**n > limit:
        raise BudgetExceeded(
            f"{b}^{n} vectors exceed the budget of {limit} classification calls"
        )


def census_range(b: int, n: int, space: str, start: int, end: int) -> CensusRecord:
    """Classify every vector in a lexicographic index range."""
    check_base(b)
    total = monomials = irreducible = reducible = candidates = primes = 0
    for vec in iter_vectors(b, n, space, start, end):
        end_i = n
        while end_i and vec[end_i - 1] == 0:
            end_i -= 1
        if not end_i:
            continue
        coeffs = vec[:end_i]
        total += 1
        # a candidate monomial is the constant b-1, which is prime
        candidate = coeffs[0] != 0 and max(coeffs) == b - 1
        candidates += candidate
        if end_i - coeffs.count(0) == 1:
            monomials += 1
            primes += candidate
        elif factor._classify_generic(b, coeffs)[0] == REDUCIBLE:
            reducible += 1
        else:
            irreducible += 1
            primes += candidate
    return CensusRecord(b, n, space, total, monomials, irreducible, reducible, candidates, primes)


def census(
    b: int,
    n: int,
    space: str = ALL_VECTORS,
    *,
    budget: int | None = None,
    force: bool = False,
) -> CensusRecord:
    """Exhaustive classification counts for one (b, n, space)."""
    check_enumeration(b, n, space, budget, force)
    return census_range(b, n, space, 0, space_size(b, n, space))


# -- checkpointed census ------------------------------------------------------


def census_with_checkpoint(
    b: int,
    n: int,
    space: str,
    path: str | Path,
    *,
    shard_size: int = 1 << 16,
    budget: int | None = None,
    force: bool = False,
) -> CensusRecord:
    """Run a census in lexicographic shards, persisting partials to JSON.

    An interrupted run resumes from the shards already on disk; completed
    shards are merged by the associative record addition, so the result is
    independent of the shard schedule.  The header records the census, the
    shard size and the package version, and a checkpoint whose header does
    not match is rejected, since shards of another layout would overlap.
    Each write goes to a temporary file that then replaces the checkpoint,
    so a crash leaves the previous checkpoint intact.
    """
    check_enumeration(b, n, space, budget, force)
    path = Path(path)
    size = space_size(b, n, space)
    header = {"b": b, "n": n, "space": space, "shard_size": shard_size, "version": __version__}
    shards: list[dict] = []
    if path.exists():
        state = json.loads(path.read_text())
        if {key: state.get(key) for key in header} != header:
            raise ValueError(f"checkpoint {path} belongs to a different census, shard size or version")
        shards = state["shards"]
    done = {(s["range_start"], s["range_end"]) for s in shards}
    tmp = Path(f"{path}.tmp")
    start = 0
    while start < size:
        end = min(start + shard_size, size)
        if (start, end) not in done:
            partial = census_range(b, n, space, start, end)
            shards.append(
                {"range_start": start, "range_end": end, "partial": asdict(partial)}
            )
            tmp.write_text(json.dumps({**header, "shards": shards}))
            os.replace(tmp, path)
        start = end
    merged = CensusRecord(b, n, space, 0, 0, 0, 0, 0, 0)
    for s in sorted(shards, key=lambda s: s["range_start"]):
        merged = merge_records(merged, CensusRecord(**s["partial"]))
    return merged


# -- closed forms and bounds --------------------------------------------------


def candidate_count_closed_form(b: int, n: int) -> int:
    """Exact number of degree n-1 prime candidates (exact-degree space)."""
    if n < 2:
        raise ValueError("closed form requires n >= 2")
    return (b - 1) ** 2 * b ** (n - 2) - (b - 2) ** 2 * (b - 1) ** (n - 2)


def als_lower_bound(b: int, n: int) -> int:
    """First two displayed terms of the classical prime-count lower bound."""
    if n < 3:
        raise ValueError("lower bound requires n >= 3")
    return (b - 1) ** (n - 2) + 2 * (b - 2) ** (n - 2)


def als_lower_bound_check(b: int, n: int, record: CensusRecord) -> bool:
    """True iff the census prime count meets the two-term lower bound."""
    return record.primes >= als_lower_bound(b, n)


# -- the seven-way partition of the reducible census ---------------------------


@dataclass(frozen=True, slots=True)
class BoundParams:
    """Free parameters of the partition bounds; a = floor(b/2) is derived."""

    d: Fraction
    v: Fraction

    def __post_init__(self) -> None:
        if self.d <= 0 or self.v <= 0:
            raise ValueError("d and v must be positive")

    @staticmethod
    def make(d, v) -> "BoundParams":
        return BoundParams(Fraction(d), Fraction(v))


@dataclass(frozen=True, slots=True)
class PartitionCensus:
    b: int
    n: int
    d: Fraction
    v: Fraction
    a: int
    sizes: tuple[int, int, int, int, int, int, int]
    sigma: int
    total: int
    explicit_bounds: tuple[float, float, float, float, float, float, float]

    @property
    def e1(self) -> int:
        return self.sizes[0]

    @property
    def e3(self) -> int:
        return self.sizes[2]


def _count_geq(coeffs: Sequence[int], level: int) -> int:
    return sum(1 for c in coeffs if c >= level)


def _pair_stats_table(b: int, max_deg: int) -> dict[tuple[int, ...], list[tuple[int, int, int, int]]]:
    """Map each reducible canonical tuple to the stats of all its
    non-monomial factorizations: (min deg, |f_1|+|g_1|, |f_a|, |g_a|)."""
    a = b // 2
    by_deg: list[list[tuple[int, ...]]] = [[] for _ in range(max_deg + 1)]
    for deg in range(1, max_deg + 1):
        for idx in range(space_size(b, deg + 1, EXACT_DEGREE)):
            t = index_to_vector(b, deg + 1, EXACT_DEGREE, idx)
            if sum(1 for c in t if c) >= 2:
                by_deg[deg].append(t)
    # every product has at most max_deg + 1 terms; pack each factor once
    width = max_deg + 1
    planes = [[_pack(b, t, width) for t in ts] for ts in by_deg]
    table: dict[tuple[int, ...], list[tuple[int, int, int, int]]] = {}
    for m in range(2, max_deg + 1):
        for dg in range(1, m // 2 + 1):
            df = m - dg
            for g in by_deg[dg]:
                g_nnz = sum(1 for c in g if c)
                g_a = _count_geq(g, a) if a >= 1 else 0
                terms = list(_terms(g, width))
                for f, packed in zip(by_deg[df], planes[df]):
                    if dg == df and f < g:
                        continue
                    prod = _unpack(_times(packed, terms), width, m + 1)
                    f_nnz = sum(1 for c in f if c)
                    f_a = _count_geq(f, a) if a >= 1 else 0
                    table.setdefault(prod, []).append((dg, f_nnz + g_nnz, f_a, g_a))
    return table


def _partition_explicit_bounds(b: int, n: int, d: Fraction, v: Fraction, a: int) -> tuple[float, ...]:
    df = float(d)
    vf = float(v)
    b13 = 2.0 * math.exp(-(df * df) / (4.0 * n)) * float(b**n)
    b24 = n * math.exp(-(df * df) / (4.0 * (n + 1))) * float(b ** (n + 1))
    b5 = vf * n ** (2.0 * df + 1.0) * 2.0**vf
    if a <= 1:
        b6 = 0.0
    else:
        b6 = 2.0 * n * (n + 1) * float(a - 1) ** vf * float(b) ** (n - vf + 1.0)
    b7 = n ** (2.0 * df + 3.0) * 2.0 ** (df / 2.0 - n / 3.0) * float(b**n)
    return (b13, b24, b13, b24, b5, b6, b7)


def partition_census(b: int, n: int, params: BoundParams, *, budget: int | None = None, force: bool = False) -> PartitionCensus:
    """Assign every nonzero length-n vector to the first applicable of the
    seven deviation classes and evaluate each class's explicit bound.

    Classes 1 and 3 depend on the vector alone (support-size deviation at
    levels 1 and a); classes 2, 4, 5, 6 hold when some non-monomial
    factorization satisfies the stated condition; class 7 collects the
    remaining reducible vectors.  Reducible vectors are all covered by
    construction, which is asserted, not assumed.
    """
    check_enumeration(b, n, ALL_VECTORS, budget, force)
    d, v = params.d, params.v
    a = b // 2
    half_d = d / 2

    def far(mean: Fraction) -> list[bool]:
        # the deviation test |count - mean| > d/2, once per possible count
        return [abs(c - mean) > half_d for c in range(2 * n + 3)]

    far1 = far(Fraction((b - 1) * n, b))
    far1_pair = far(Fraction((b - 1) * (n + 1), b))
    far_a = far(Fraction((b - a) * n, b))
    far_a_pair = far(Fraction((b - a) * (n + 1), b))
    table = _pair_stats_table(b, n - 1)
    sizes = [0] * 7
    sigma = 0
    total = 0
    uncovered = 0
    for vec in iter_vectors(b, n, ALL_VECTORS):
        end_i = len(vec)
        while end_i and vec[end_i - 1] == 0:
            end_i -= 1
        coeffs = vec[:end_i]
        if not coeffs:
            continue
        total += 1
        witnesses = table.get(coeffs)
        reducible = witnesses is not None
        if reducible:
            sigma += 1
        nnz1 = sum(1 for c in coeffs if c)
        cls = 0
        if far1[nnz1]:
            cls = 1
        elif reducible and any(far1_pair[s[1]] for s in witnesses):
            cls = 2
        elif far_a[_count_geq(coeffs, a)]:
            cls = 3
        elif reducible and any(far_a_pair[s[2] + s[3]] for s in witnesses):
            cls = 4
        elif reducible and any(s[0] <= v for s in witnesses):
            cls = 5
        elif reducible and any(s[2] <= 1 or s[3] <= 1 for s in witnesses):
            cls = 6
        elif reducible:
            cls = 7
        if cls:
            sizes[cls - 1] += 1
        elif reducible:
            uncovered += 1
    if uncovered:
        raise AssertionError("partition failed to cover every reducible vector")
    if sum(sizes) < sigma:
        raise AssertionError("partition classes sum below the reducible count")
    return PartitionCensus(
        b,
        n,
        d,
        v,
        a,
        tuple(sizes),
        sigma,
        total,
        _partition_explicit_bounds(b, n, d, v, a),
    )


# -- close-factor pair counting ------------------------------------------------


def close_pair_bound(n: int, k: int, d: int) -> int:
    """The n^(2d+2) * 2^k ceiling on the close-pair count."""
    return n ** (2 * d + 2) * 2**k


def close_pair_count(n: int, k: int, d: int, *, budget: int | None = None, force: bool = False) -> int:
    """Count boolean pairs (f, g) with f(0) != 0, deg f = k, deg g = n-k and
    |f*g| <= |f| + |g| + d; asserts the close_pair_bound ceiling."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    if d < 0:
        raise ValueError("need d >= 0")
    limit = configured_budget() if budget is None else budget
    if not force and 2 ** (n - 1) > limit:
        raise BudgetExceeded(f"2^{n - 1} pairs exceed the budget of {limit}")
    count = 0
    f_base = 1 | (1 << k)
    g_base = 1 << (n - k)
    for f_mid in range(1 << max(k - 1, 0)):
        f = f_base | (f_mid << 1)
        fw = f.bit_count()
        # a base-2 bitmask is its own one-plane packing
        terms = list(_terms([(f >> j) & 1 for j in range(k + 1)], n + 1))
        for g_low in range(1 << (n - k)):
            g = g_base | g_low
            if _times(g, terms).bit_count() <= fw + g.bit_count() + d:
                count += 1
    bound = close_pair_bound(n, k, d)
    if count > bound:
        raise AssertionError(f"close-pair count {count} exceeds bound {bound}")
    return count


# -- OEIS-style export -----------------------------------------------------------


def oeis_export(records: Sequence[CensusRecord]) -> str:
    """b-file text: one 'n value' line per record, sorted by n."""
    lines = [f"{rec.n} {rec.primes}" for rec in sorted(records, key=lambda r: r.n)]
    return "".join(line + "\n" for line in lines)


def parse_bfile(text: str) -> dict[int, int]:
    """Parse 'index value' lines, skipping blanks and # comments."""
    out: dict[int, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        idx, val = line.split()[:2]
        out[int(idx)] = int(val)
    return out


def load_snapshot_counts() -> dict[int, int]:
    """Bundled base-2 prime counts by digit length (classical convention)."""
    from importlib import resources

    text = resources.files("maxminpoly").joinpath("data/a169912_snapshot.txt").read_text()
    return parse_bfile(text)
