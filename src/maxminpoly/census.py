"""Exhaustive enumeration and counting over small coefficient spaces.

Two enumeration conventions are exposed and labeled on every record:

* ``all-vectors`` ranges over all b^n little-endian coefficient vectors of
  length n (n iid digit slots; vectors with trailing zeros canonicalize to
  lower-degree polynomials, and the zero vector is excluded from totals);
* ``exact-degree`` restricts to vectors whose leading digit is nonzero,
  i.e. genuine degree n-1 polynomials.

The census classifies one vector per orbit of the two symmetries of the
class: x^t * h has the class of h, and so does the reversal of h when both
its end digits are nonzero.  Each orbit is counted at its canonical
representative (`_orbits`) with the orbit's size as weight, so the counts
are those of every vector while the engine runs once per reversal pair of
cores (vectors with both end digits nonzero) of length up to n.  The
partition census splits the same space into seven deviation classes keyed
on support sizes and factorization shapes, evaluating the explicit tail
bound attached to each class; enumeration order is lexicographic on the
coefficient vectors, so shard ranges are well-defined and resumable.
`_jobs` is the one shard plan of the census and the checkpointed census:
SHARDS ranges of the full space fixed by (b, n, space) alone, so a
checkpoint resumes at any worker count.  A shard counts the orbits whose
representative lies in its range, so only the sum over the plan is a
census, and a checkpoint carries a tally marker: one written when shards
counted their own vectors is rejected, not merged.  `run_shards` runs
those shards and the density sampler's chunks, and `_tally` counts both,
the draws with unit weights.

The two exhaustive pair enumerations, the partition census and the
close-pair count, run on core's block product (`_times_block`): one
second factor multiplies a block of up to BLOCK_ROWS first factors, each
a row of uint64 plane words, in a few numpy steps, so no Python code runs
per factor pair or per vector.  The partition runs unsharded: it marks
per-vector flags, b^n booleans for each of five conditions, which every
worker would have to hold whole.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__, factor
from .core import MaxMinPoly, _pack_rows, _times_block, _trim, check_base
from .errors import BudgetExceeded
from .factor import REDUCIBLE

ALL_VECTORS = "all-vectors"
EXACT_DEGREE = "exact-degree"
SPACES = (ALL_VECTORS, EXACT_DEGREE)

DEFAULT_BUDGET = 200_000_000
BUDGET_ENV_VAR = "MINMAX_BUDGET"
SHARDS = 16
# rows of one block of factors in the pair enumerations
BLOCK_ROWS = 1 << 16


def _check_budget(count: int, what: str, force: bool, unit: str = "") -> None:
    """Raise BudgetExceeded when count is over the MINMAX_BUDGET budget,
    unless forced."""
    limit = int(os.environ.get(BUDGET_ENV_VAR, DEFAULT_BUDGET))
    if not force and count > limit:
        raise BudgetExceeded(f"{what} exceed the budget of {limit}{unit}")


def run_shards(fn: Callable, jobs: Sequence[tuple], workers: int = 1) -> Iterator:
    """Yield fn(*job) for each job, in job order, as each result arrives.

    With more than one worker and more than one job the jobs run on a pool
    of min(workers, len(jobs)) processes (fn and the jobs must pickle);
    otherwise they run in this process.
    """
    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, *zip(*jobs))
    else:
        for job in jobs:
            yield fn(*job)


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
        yield MaxMinPoly(b, _trim(vec))


def check_enumeration(b: int, n: int, space: str, force: bool = False) -> None:
    """Reject a bad base, n < 1, an unknown space or b^n over the budget."""
    check_base(b)
    if n < 1:
        raise ValueError("n must be >= 1")
    if space not in SPACES:
        raise ValueError(f"unknown enumeration space {space!r}")
    _check_budget(b**n, f"{b}^{n} vectors", force, " vectors")


def _jobs(b: int, n: int, space: str) -> list[tuple[int, int, str, int, int]]:
    """The census shard plan: at most SHARDS lexicographic ranges of
    ceil(size / SHARDS) vectors each, the last one possibly shorter."""
    size = space_size(b, n, space)
    step = -(-size // SHARDS)
    return [(b, n, space, s, min(s + step, size)) for s in range(0, size, step)]


def census_range(b: int, n: int, space: str, start: int, end: int) -> CensusRecord:
    """Census counts of the orbits whose representative lies in a
    lexicographic index range; see `_orbits`."""
    check_base(b)
    return _tally(b, n, space, _orbits(b, n, space, start, end))


def _orbits(b: int, n: int, space: str, start: int, end: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """The canonical representatives in an index range, each as (trimmed
    coefficients, class weight, candidate weight).

    A nonzero vector is x^t * c with both ends of c nonzero; its class is
    that of c, and of c reversed.  The representative of {x^t * c,
    x^t * c[::-1]} over every t the space admits is the one with
    c <= c[::-1] and, in the all-vectors space, t = 0, so each orbit has
    exactly one representative in the index range [0, size).  Its class
    weight is the orbit's size and its candidate weight |{c, c[::-1]}|:
    of the orbit, only x^t * c and x^t * c[::-1] at the representative's
    t can have a nonzero constant term, and `_tally` checks that on the
    representative.
    """
    if not 0 <= start <= end <= space_size(b, n, space):
        raise ValueError("index range out of bounds")
    shifts = space == ALL_VECTORS
    # all-vectors representatives have a nonzero constant term: index >= b^(n-1)
    lo = b ** (n - 1) if shifts else 0
    for vec in iter_vectors(b, n, space, max(start, min(end, lo)), end):
        coeffs = _trim(vec)
        t = 0
        while not coeffs[t]:
            t += 1
        c = coeffs[t:]
        rev = c[::-1]
        if c <= rev:
            pair = 1 if c == rev else 2
            yield coeffs, (n - len(c) + 1 if shifts else 1) * pair, pair


def _tally(b: int, n: int, space: str, weighted: Iterable[tuple[Sequence[int], int, int]]) -> CensusRecord:
    """Census counts over (trimmed nonzero coefficients, class weight,
    candidate weight) triples: each tuple is classified once, its class
    counted `class weight` times and its candidacy `candidate weight`
    times.  The census passes orbit representatives, the density sampler
    its draws with unit weights."""
    total = monomials = irreducible = reducible = candidates = primes = 0
    for coeffs, weight, end_weight in weighted:
        total += weight
        # a candidate monomial is the constant b-1, which is prime
        candidate = end_weight if coeffs[0] != 0 and max(coeffs) == b - 1 else 0
        candidates += candidate
        if len(coeffs) - coeffs.count(0) == 1:
            monomials += weight
            primes += candidate
        elif factor._classify_generic(b, coeffs)[0] == REDUCIBLE:
            reducible += weight
        else:
            irreducible += weight
            primes += candidate
    return CensusRecord(b, n, space, total, monomials, irreducible, reducible, candidates, primes)


def census(b: int, n: int, space: str = ALL_VECTORS, *, workers: int = 1, force: bool = False) -> CensusRecord:
    """Exhaustive classification counts for one (b, n, space), run as the
    shards of `_jobs` on up to `workers` processes."""
    check_enumeration(b, n, space, force)
    return functools.reduce(merge_records, run_shards(census_range, _jobs(b, n, space), workers))


# -- checkpointed census ------------------------------------------------------


def census_with_checkpoint(
    b: int, n: int, space: str, path: str | Path, *, workers: int = 1, force: bool = False
) -> CensusRecord:
    """Run the shards of `_jobs`, persisting partials to JSON.

    An interrupted run resumes from the shards already on disk, at any
    worker count; completed shards are merged by the associative record
    addition.  A shard's partial counts the orbits of `_orbits` whose
    representative lies in its range, which only sums to the census over
    the whole plan.  The header records the census, the plan's shard size,
    that tally and the package version, and a checkpoint whose header does
    not match (one written before the orbit tally among them), whose shards
    repeat, are not in the plan or are malformed, or whose counts do not
    add up to the space, is rejected rather than merged.  Pending shards
    run through `run_shards`, each written as it arrives.  Each write goes
    to a temporary file that then replaces the checkpoint, so a crash
    leaves the previous checkpoint intact.
    """
    check_enumeration(b, n, space, force)
    path = Path(path)
    jobs = _jobs(b, n, space)
    # the first shard starts at 0, so its end is the plan's step
    header = {"b": b, "n": n, "space": space, "shard_size": jobs[0][4], "tally": "orbits", "version": __version__}
    entries: list = []
    if path.exists():
        state = json.loads(path.read_text())
        if not isinstance(state, dict) or {key: state.get(key) for key in header} != header:
            raise ValueError(f"checkpoint {path} belongs to a different census, shard size, tally or version")
        entries = state.get("shards")
        if not isinstance(entries, list):
            raise ValueError(f"checkpoint {path} has no list of shards")
    shards = dict(_read_shard(path, (b, n, space), entry) for entry in entries)
    if len(shards) != len(entries) or not {job[3:] for job in jobs}.issuperset(shards):
        raise ValueError(f"checkpoint {path} holds repeated shards or shards outside the plan")
    jobs = [job for job in jobs if job[3:] not in shards]
    tmp = Path(f"{path}.tmp")
    # closing() shuts the pool down at once if a write fails
    with contextlib.closing(run_shards(census_range, jobs, workers)) as parts:
        for partial, (_, _, _, start, end) in zip(parts, jobs):
            shards[start, end] = partial
            entries.append({"range_start": start, "range_end": end, "partial": asdict(partial)})
            tmp.write_text(json.dumps({**header, "shards": entries}))
            os.replace(tmp, path)
    rec = functools.reduce(merge_records, shards.values())
    nonzero = space_size(b, n, space) - (space == ALL_VECTORS)
    if rec.total != nonzero:
        raise ValueError(f"checkpoint {path} counts {rec.total} nonzero vectors where the space has {nonzero}")
    return rec


def _read_shard(path: Path, key: tuple[int, int, str], entry) -> tuple[tuple[int, int], CensusRecord]:
    """One checkpoint shard entry of the census (b, n, space) as
    ((range_start, range_end), partial), or a one-line ValueError."""
    malformed = ValueError(f"checkpoint {path} holds a shard that is not an integer range with partial counts of this census")
    try:
        span = (entry["range_start"], entry["range_end"])
        partial = CensusRecord(**entry["partial"])
    except (KeyError, TypeError):
        raise malformed from None
    fields = astuple(partial)
    if fields[:3] != key or any(type(v) is not int or v < 0 for v in span + fields[3:]):
        raise malformed
    # monomials + irreducible + reducible
    if sum(fields[4:7]) != partial.total:
        raise ValueError(f"checkpoint {path} holds a shard whose classes do not add up to its total")
    return span, partial


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


def _exp_or_inf(x: float) -> float:
    """exp(x), or inf where that overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_bound_terms(b: int, n: int, d: float, v: float) -> tuple[float, float, float, float]:
    """Natural logs of the normalized bound terms t1..t4 of
    `stochastic.BoundReport`."""
    ln_n = math.log(n)
    ln_2 = math.log(2.0)
    log_t1 = ln_n - d * d / (4.0 * (n + 1.0))
    log_t2 = math.log(v) + (2.0 * d + 1.0) * ln_n + v * ln_2 - n * math.log(b)
    log_t3 = 2.0 * ln_n - v * ln_2
    log_t4 = (2.0 * d + 3.0) * ln_n + (d / 2.0 - n / 3.0) * ln_2
    return (log_t1, log_t2, log_t3, log_t4)


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
        if not (math.isfinite(d) and math.isfinite(v)):
            raise ValueError("d and v must be finite")
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


def _index_rows(b: int, n: int, space: str, start: int, end: int) -> np.ndarray:
    """The vectors of an index range as uint8 digit rows; the block form of
    index_to_vector."""
    idx = np.arange(start, end, dtype=np.int64)
    digits = np.empty((end - start, n), dtype=np.uint8)
    if space == EXACT_DEGREE:
        idx, last = np.divmod(idx, b - 1)
        digits[:, n - 1] = last + 1
        n -= 1
    for pos in range(n - 1, -1, -1):
        idx, digits[:, pos] = np.divmod(idx, b)
    return digits


def _index_tables(b: int, n: int) -> np.ndarray:
    """Per byte t of a plane word, the table of the byte's share of the
    all-vectors index: entry x is the sum of b^(n-1-k) over the bits k of
    x << 8t below n.  A vector's index is the sum of these shares over the
    bytes of its planes, as coefficient k counts the planes holding bit k."""
    weights = [b ** (n - 1 - k) for k in range(n)] + [0] * (-n % 8)
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    return np.stack([bits @ np.array(weights[t : t + 8], dtype=np.int64) for t in range(0, len(weights), 8)])


def _partition_explicit_bounds(b: int, n: int, d: Fraction, v: Fraction, a: int) -> tuple[float, ...]:
    """The seven class bounds; a bound that overflows a float is inf."""
    df = float(d)
    vf = float(v)
    b13 = 2.0 * math.exp(-(df * df) / (4.0 * n)) * float(b**n)
    b24 = n * math.exp(-(df * df) / (4.0 * (n + 1))) * float(b ** (n + 1))
    # b5 and b7 are t2 and t4 times b^n; in log space no factor overflows,
    # and b6 tends to 0 as v grows
    _, log_t2, _, log_t4 = _log_bound_terms(b, n, df, vf)
    ln_b = math.log(b)
    b5 = _exp_or_inf(log_t2 + n * ln_b)
    if a <= 1:
        b6 = 0.0
    else:
        b6 = _exp_or_inf(math.log(2.0 * n * (n + 1)) + vf * math.log(a - 1) + (n - vf + 1.0) * ln_b)
    b7 = _exp_or_inf(log_t4 + n * ln_b)
    return (b13, b24, b13, b24, b5, b6, b7)


def partition_census(b: int, n: int, params: BoundParams, *, force: bool = False) -> PartitionCensus:
    """Assign every nonzero length-n vector to the first applicable of the
    seven deviation classes and evaluate each class's explicit bound.

    Classes 1 and 3 depend on the vector alone (support-size deviation at
    levels 1 and a); classes 2, 4, 5, 6 hold when some non-monomial
    factorization satisfies the stated condition; class 7 collects the
    remaining reducible vectors.  Reducible vectors are all covered by
    construction, which is asserted, not assumed.

    For each (deg g, deg f), deg g <= deg f, the non-monomial f come in
    blocks of packed rows and each non-monomial g multiplies a whole block;
    at equal degrees only the f >= g in tuple order (the lexicographic
    index order) take part.  Each product sets, at its vector index, the
    flag of being reducible and the flag of each condition it meets; an
    assignment at a repeated index is an OR over factorizations.  The
    vectors are then classified in blocks from their flags and their
    support sizes.
    """
    check_enumeration(b, n, ALL_VECTORS, force)
    d, v = params.d, params.v
    a = b // 2
    half_d = d / 2

    def far(mean: Fraction) -> np.ndarray:
        # the deviation test |count - mean| > d/2, once per possible count
        return np.array([abs(c - mean) > half_d for c in range(2 * n + 3)])

    far1 = far(Fraction((b - 1) * n, b))
    far1_pair = far(Fraction((b - 1) * (n + 1), b))
    far_a = far(Fraction((b - a) * n, b))
    far_a_pair = far(Fraction((b - a) * (n + 1), b))
    # per vector index: some non-monomial factorization exists, and some
    # one meets the condition of class 2, 4, 5 or 6
    size = b**n
    reducible, pair1, pair_a, low_deg, thin = (np.zeros(size, dtype=bool) for _ in range(5))
    tables = _index_tables(b, n)
    columns = np.arange(len(tables))
    for m in range(2, n):
        for dg in range(1, m // 2 + 1):
            df = m - dg
            gs = [(p, g) for p, g in enumerate(iter_vectors(b, dg + 1, EXACT_DEGREE)) if len(g) - g.count(0) >= 2]
            f_size = space_size(b, df + 1, EXACT_DEGREE)
            for lo in range(0, f_size, BLOCK_ROWS):
                digits = _index_rows(b, df + 1, EXACT_DEGREE, lo, min(lo + BLOCK_ROWS, f_size))
                f_nnz = np.count_nonzero(digits, axis=1)
                keep = f_nnz >= 2
                ids = np.flatnonzero(keep) + lo
                f_nnz = f_nnz[keep]
                f_a = np.count_nonzero(digits[keep] >= a, axis=1)
                block = _pack_rows(b, digits[keep])
                for p, g in gs:
                    # at equal degrees only f >= g, the lexicographic order
                    start = np.searchsorted(ids, p) if dg == df else 0
                    g_nnz, g_a = len(g) - g.count(0), sum(1 for c in g if c >= a)
                    prod = _times_block(block[start:], g).astype("<u8", copy=False)
                    planes = prod.view(np.uint8).reshape(-1, b - 1, 8)[:, :, : len(tables)]
                    idx = tables[columns, planes].sum(axis=(1, 2))
                    reducible[idx] = True
                    pair1[idx[far1_pair[f_nnz[start:] + g_nnz]]] = True
                    pair_a[idx[far_a_pair[f_a[start:] + g_a]]] = True
                    if dg <= v:
                        low_deg[idx] = True
                    thin[idx if g_a <= 1 else idx[f_a[start:] <= 1]] = True
    sizes = np.zeros(8, dtype=np.int64)
    uncovered = 0
    # the zero vector, index 0, is in no class
    for lo in range(1, size, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, size)
        digits = _index_rows(b, n, ALL_VECTORS, lo, hi)
        red = reducible[lo:hi]
        cls = np.select(
            [
                far1[np.count_nonzero(digits, axis=1)],
                pair1[lo:hi],
                far_a[np.count_nonzero(digits >= a, axis=1)],
                pair_a[lo:hi],
                low_deg[lo:hi],
                thin[lo:hi],
                red,
            ],
            range(1, 8),
        )
        sizes += np.bincount(cls, minlength=8)
        uncovered += int(np.count_nonzero(red & (cls == 0)))
    sigma = int(np.count_nonzero(reducible))
    if uncovered:
        raise AssertionError("partition failed to cover every reducible vector")
    if sizes[1:].sum() < sigma:
        raise AssertionError("partition classes sum below the reducible count")
    total = size - 1
    return PartitionCensus(
        b,
        n,
        d,
        v,
        a,
        tuple(int(c) for c in sizes[1:]),
        sigma,
        total,
        _partition_explicit_bounds(b, n, d, v, a),
    )


# -- close-factor pair counting ------------------------------------------------


def close_pair_bound(n: int, k: int, d: int) -> int:
    """The n^(2d+2) * 2^k ceiling on the close-pair count."""
    return n ** (2 * d + 2) * 2**k


def close_pair_count(n: int, k: int, d: int, *, force: bool = False) -> int:
    """Count boolean pairs (f, g) with f(0) != 0, deg f = k, deg g = n-k and
    |f*g| <= |f| + |g| + d; asserts the close_pair_bound ceiling.

    A factor is one bitmask word, its own one-plane packing.  The f are
    1 + i*x + x^k and the g are i + x^(n-k); each factor of the smaller
    family multiplies the larger family in blocks of up to BLOCK_ROWS
    words.  A product has n+1 bits, so n is at most 63."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    if d < 0:
        raise ValueError("need d >= 0")
    if n > 63:
        raise ValueError(f"need n <= 63 for 64-bit products, got {n}")
    _check_budget(2 ** (n - 1), f"2^{n - 1} pairs", force)
    # each family as (size, shift of i, fixed bits)
    families = sorted([(1 << (k - 1), 1, 1 | 1 << k), (1 << (n - k), 0, 1 << (n - k))])
    (few, few_shift, few_bits), (many, shift, bits) = families
    count = 0
    for lo in range(0, many, BLOCK_ROWS):
        block = np.arange(lo, min(lo + BLOCK_ROWS, many), dtype=np.uint64) << np.uint64(shift) | np.uint64(bits)
        block_size = np.bitwise_count(block)
        for i in range(few):
            x = few_bits | i << few_shift
            prod = _times_block(block[:, None], [(x >> j) & 1 for j in range(x.bit_length())])[:, 0]
            # f*g holds a shifted copy of each factor, so the uint8
            # difference is |f*g| - |block factor| >= 0
            count += int(np.count_nonzero(np.bitwise_count(prod) - block_size <= x.bit_count() + d))
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
