"""Exhaustive enumeration and counting over small coefficient spaces.

Two enumeration conventions are exposed and labeled on every record:

* ``all-vectors`` ranges over all b^n little-endian coefficient vectors of
  length n (n iid digit slots; vectors with trailing zeros canonicalize to
  lower-degree polynomials, and the zero vector is excluded from totals);
* ``exact-degree`` restricts to vectors whose leading digit is nonzero,
  i.e. genuine degree n-1 polynomials.

The census is a forward product sieve.  A vector is reducible when it is
g*f with neither factor a monomial, and x^t * c has the class of c.  The
end digits of g*f are the minima of those of g and f, so the factors of
a core (a vector with both end digits nonzero) are cores, and it is
enough to mark every product of two cores (`_core_products`), one degree
of the product at a time (`_sieve_degree`), and to copy each core's flag
to its shifts (`_spread_shifts`): b^n booleans, one per all-vectors
index (`_reducible_flags`).  The counts of an index range then follow
from those flags and from the digit counts of its vectors with numpy
reductions (`_count_range`, the one count rule); no vector is decided
one at a time.  A vector's number of digits >= s is read from tables of
its high and its low digits (`_level_counts`), and `_index_rows` is the
one decoder of indices to digit rows, `iter_vectors` included.  With
more than one worker the degrees run on worker processes, and their
parts merge by union.

`_jobs` is the one shard plan of the checkpointed census: SHARDS index
ranges (start, end) of the full space fixed by (b, n, space) alone, so a
checkpoint resumes at any worker count.  A shard counts the vectors of
its range, and the checkpoint header carries the tally marker "vectors",
so a checkpoint of the earlier orbit tally is rejected, not merged.
`run_shards` runs the sieve's degrees and the density sampler's chunks.

The partition census splits the same space into seven deviation classes
keyed on support sizes and factorization shapes, evaluating the explicit
tail bound attached to each class; it reads the same core products
and the same digit-count tables.
Enumeration order is lexicographic on the coefficient vectors, so shard
ranges are well-defined and resumable.

The two exhaustive pair enumerations, the sieve (with the partition) and
the close-pair count, run on core's block product (`_times_block`): a
block of second factors multiplies a block of first factors, each held
as one uint64 word per plane, in a few numpy steps per coefficient
position, with at most BLOCK_ROWS plane words to a block of products, so
no Python code runs per factor pair or per vector.  The partition runs unsharded:
it marks per-vector flags, b^n booleans for each of five conditions,
which every worker would have to hold whole.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import __version__
from .core import BLOCK_ROWS, MaxMinPoly, _pack_rows, _times_block, _trim, check_base
from .errors import BoundExceeded, BudgetExceeded

ALL_VECTORS = "all-vectors"
EXACT_DEGREE = "exact-degree"
SPACES = (ALL_VECTORS, EXACT_DEGREE)

DEFAULT_BUDGET = 200_000_000
SHARDS = 16


def _check_budget(count: int, what: str, force: bool, unit: str = "") -> None:
    """Raise BudgetExceeded when count is over DEFAULT_BUDGET, unless forced."""
    if not force and count > DEFAULT_BUDGET:
        raise BudgetExceeded(f"{what} exceed the budget of {DEFAULT_BUDGET}{unit}")


def run_shards(fn: Callable, jobs: Sequence[tuple], workers: int = 1) -> Iterator:
    """Yield fn(*job) for each job, in job order, as each result arrives.

    With more than one worker and more than one job the jobs run on a pool
    of min(workers, len(jobs)) processes (fn and the jobs must pickle);
    otherwise they run in this process.  The workers ignore SIGINT, so an
    interrupt reaches this process alone.  When it, or anything else,
    ends the iteration early, the jobs not yet started are cancelled and
    the pool shuts down once the running ones finish.
    """
    workers = min(workers, len(jobs))
    if workers <= 1:
        for job in jobs:
            yield fn(*job)
        return
    pool = ProcessPoolExecutor(workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))
    try:
        yield from pool.map(fn, *zip(*jobs))
    finally:
        pool.shutdown(cancel_futures=True)


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


def iter_vectors(b: int, n: int, space: str, start: int = 0, end: int | None = None) -> Iterator[tuple[int, ...]]:
    """Lexicographic stream of coefficient vectors over an index range,
    decoded a block of BLOCK_ROWS vectors at a time; zip groups the
    block's digit bytes n at a time into tuples of ints."""
    if n < 1:
        raise ValueError("n must be >= 1")
    size = space_size(b, n, space)
    if end is None:
        end = size
    if not 0 <= start <= end <= size:
        raise ValueError("index range out of bounds")
    for lo in range(start, end, BLOCK_ROWS):
        yield from zip(*[iter(_index_rows(b, n, space, lo, min(lo + BLOCK_ROWS, end)).tobytes())] * n)


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


def _jobs(b: int, n: int, space: str) -> list[tuple[int, int]]:
    """The census shard plan: at most SHARDS lexicographic ranges
    (start, end) of ceil(size / SHARDS) vectors each, the last one possibly
    shorter."""
    size = space_size(b, n, space)
    step = -(-size // SHARDS)
    return [(s, min(s + step, size)) for s in range(0, size, step)]


def census(b: int, n: int, space: str = ALL_VECTORS, *, workers: int = 1, force: bool = False) -> CensusRecord:
    """Exhaustive classification counts for one (b, n, space): the product
    sieve, its degrees on up to `workers` processes, then one count over
    the space."""
    check_enumeration(b, n, space, force)
    return _count_range(b, n, space, 0, space_size(b, n, space), _reducible_flags(b, n, workers))


# -- the product sieve --------------------------------------------------------


def _core_products(b: int, m: int, length: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every product g*f of two cores of degrees dg <= df with dg + df = m,
    in chunks (gs, fs, idx): gs and fs blocks of digit rows, and idx the
    all-vectors index, among vectors of `length` >= m + 1 digits, of the
    product of each pair (g, f), g-major.

    A core has both end digits nonzero, so it is no monomial, and the cores
    of one length are the tail of that length's exact-degree space.  The f
    come in blocks of BLOCK_ROWS / (b-1) factors, and each is multiplied
    by as many g at once as keep the products within BLOCK_ROWS plane
    words.  At equal degrees both orders of a pair take part.
    """
    tables = _index_tables(b, length)
    rows = max(1, BLOCK_ROWS // (b - 1))
    for dg in range(1, m // 2 + 1):
        df = m - dg
        gs = _index_rows(b, dg + 1, EXACT_DEGREE, (b - 1) * b ** (dg - 1), (b - 1) * b**dg)
        f_end = (b - 1) * b**df
        for lo in range((b - 1) * b ** (df - 1), f_end, rows):
            fs = _index_rows(b, df + 1, EXACT_DEGREE, lo, min(lo + rows, f_end))
            block = _pack_rows(b, fs)
            step = max(1, rows // len(fs))
            for k in range(0, len(gs), step):
                prod = _times_block(block, gs[k : k + step]).astype("<u8", copy=False)
                octets = prod.view(np.uint8).reshape(*prod.shape, 8)
                idx = np.zeros((len(prod), len(fs)), dtype=np.int64)
                for s in range(b - 1):
                    for t, table in enumerate(tables):
                        idx += table[octets[:, s, :, t]]
                yield gs[k : k + step], fs, idx.ravel()


def _sieve_degree(b: int, m: int) -> np.ndarray:
    """The reducible cores of degree m: entry i is set when the core of
    all-vectors index b^m + i among vectors of m + 1 digits is a product."""
    flags = np.zeros((b - 1) * b**m, dtype=bool)
    for _, _, idx in _core_products(b, m, m + 1):
        flags[idx - b**m] = True
    return flags


def _spread_shifts(b: int, n: int, flags: np.ndarray) -> None:
    """Give each vector x^t * c the flag of its core c.  The cores fill the
    indices from b^(n-1) up, and c's index is that of x^t * c times b^t."""
    cores = flags[b ** (n - 1) :]
    for t in range(1, n):
        flags[b ** (n - 1 - t) : b ** (n - t)] = cores[:: b**t]


def _reducible_flags(b: int, n: int, workers: int = 1) -> np.ndarray:
    """Per all-vectors index, whether the vector is reducible: its core is
    a product of two cores, and the classes of x^t * c and c agree.  The
    degrees of the sieve run as the jobs of `run_shards`, the largest
    first; they mark disjoint cores, so the parts merge by union."""
    flags = np.zeros(b**n, dtype=bool)
    cores = flags[b ** (n - 1) :]
    degrees = range(n - 1, 1, -1)
    with contextlib.closing(run_shards(_sieve_degree, [(b, m) for m in degrees], workers)) as parts:
        for m, part in zip(degrees, parts):
            # the cores of degree m among those of n digits: index times b^(n-1-m)
            cores[:: b ** (n - 1 - m)] |= part
    _spread_shifts(b, n, flags)
    return flags


def _count_range(b: int, n: int, space: str, start: int, end: int, reducible: np.ndarray) -> CensusRecord:
    """Census counts of an index range, in blocks, from the all-vectors
    `reducible` flags and the digit counts of each vector."""
    total = monomials = red = candidates = primes = 0
    for lo in range(start, end, BLOCK_ROWS):
        idx = np.arange(lo, min(lo + BLOCK_ROWS, end), dtype=np.int64)
        if space == EXACT_DEGREE:
            q, r = np.divmod(idx, b - 1)
            idx = q * b + r + 1
        nnz, top = _level_counts(b, n, idx, 1, b - 1)
        flags = reducible[idx]
        # a candidate has a nonzero constant term, the leading digit of
        # the index, and a digit b-1; a candidate monomial is the constant
        # b-1, which is prime
        candidate = (idx >= b ** (n - 1)) & (top > 0)
        total += int(np.count_nonzero(nnz))
        monomials += int(np.count_nonzero(nnz == 1))
        red += int(np.count_nonzero(flags))
        candidates += int(np.count_nonzero(candidate))
        primes += int(np.count_nonzero(candidate & ~flags))
    return CensusRecord(b, n, space, total, monomials, total - monomials - red, red, candidates, primes)


def _level_counts(b: int, n: int, idx: np.ndarray, *levels: int) -> list[np.ndarray]:
    """Per level s and per all-vectors index in idx, the number of digits
    >= s of its vector of n digits, read from tables of its high and its
    low digits.  The table of k digits is built from that of k-1: index
    i*b + d adds the digit d to the vector of index i."""
    low = n // 2
    upper, lower = np.divmod(idx, b**low)
    counts = []
    for s in levels:
        tables = [np.zeros(1, dtype=np.uint8)]
        for _ in range(n - low):
            tables.append((tables[-1][:, None] + (np.arange(b) >= s)).ravel())
        counts.append(tables[n - low][upper] + tables[low][lower])
    return counts


# -- checkpointed census ------------------------------------------------------


def census_with_checkpoint(
    b: int, n: int, space: str, path: str | Path, *, workers: int = 1, force: bool = False
) -> CensusRecord:
    """Count the shards of `_jobs`, persisting partials to JSON.

    An interrupted run resumes from the shards already on disk, at any
    worker count; completed shards are merged by the associative record
    addition.  A shard's partial counts the vectors of its range.  The
    sieve is not saved: a resume with pending shards runs it again, on up
    to `workers` processes, and counts only the missing ranges.  The
    header records the census, the plan's shard size, the tally marker
    "vectors" and the package version, and a checkpoint whose header does
    not match (one written by the orbit tally among them), whose shards
    repeat, are not in the plan or are malformed, or whose counts do not
    add up to the space, is rejected rather than merged.  Each shard is
    written as it is counted, to a temporary file that then replaces the
    checkpoint, so a crash or an interrupt leaves the last complete
    checkpoint intact.
    """
    check_enumeration(b, n, space, force)
    path = Path(path)
    jobs = _jobs(b, n, space)
    # the first shard starts at 0, so its end is the plan's step
    header = {"b": b, "n": n, "space": space, "shard_size": jobs[0][1], "tally": "vectors", "version": __version__}
    entries: list = []
    if path.exists():
        state = json.loads(path.read_text())
        if not isinstance(state, dict) or {key: state.get(key) for key in header} != header:
            raise ValueError(f"checkpoint {path} belongs to a different census, shard size, tally or version")
        entries = state.get("shards")
        if not isinstance(entries, list):
            raise ValueError(f"checkpoint {path} has no list of shards")
    shards = dict(_read_shard(path, (b, n, space), entry) for entry in entries)
    if len(shards) != len(entries) or not set(jobs).issuperset(shards):
        raise ValueError(f"checkpoint {path} holds repeated shards or shards outside the plan")
    jobs = [job for job in jobs if job not in shards]
    reducible = _reducible_flags(b, n, workers) if jobs else None
    tmp = Path(f"{path}.tmp")
    for start, end in jobs:
        partial = shards[start, end] = _count_range(b, n, space, start, end, reducible)
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
    """The vectors of a lexicographic index range as uint8 digit rows, the
    one index decoder.  It decodes in int64, which covers spaces below
    2^63 vectors."""
    exact = space == EXACT_DEGREE
    idx = np.arange(start, end, dtype=np.int64)
    digits = np.empty((end - start, n), dtype=np.uint8)
    for pos in range(n - 1, -1, -1):
        # an exact-degree leading digit is 1 + a digit of radix b-1; numpy
        # divides by a scalar faster than np.divmod does
        radix = b - 1 if exact and pos == n - 1 else b
        q = idx // radix
        digits[:, pos] = idx - q * radix
        idx = q
    if exact:
        digits[:, n - 1] += 1
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

    The factorizations of x^t * c, c a core, are those of c with the t
    shifts spread over the two factors.  Each condition asks for one
    whose support sizes, or whose smaller degree, pass a test; the spread
    keeps support sizes, and with every shift on the larger factor it
    keeps the smaller degree, so x^t * c meets a condition exactly when c
    does.  The pairs of cores of `_core_products` thus suffice: each
    product sets, at its vector index, the flag of being reducible and
    the flag of each condition it meets (an assignment at a repeated
    index is an OR over factorizations), and `_spread_shifts` copies the
    flags of each core to its shifts.  The vectors are then classified
    in blocks from their flags and their support sizes.
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
    for m in range(2, n):
        for gs, fs, idx in _core_products(b, m, n):
            g_a, f_a = (np.count_nonzero(x >= a, axis=1) for x in (gs, fs))
            pair_nnz = np.count_nonzero(gs, axis=1)[:, None] + np.count_nonzero(fs, axis=1)
            reducible[idx] = True
            pair1[idx[far1_pair[pair_nnz.ravel()]]] = True
            pair_a[idx[far_a_pair[(g_a[:, None] + f_a).ravel()]]] = True
            # gs holds the factor of the smaller degree
            if gs.shape[1] - 1 <= v:
                low_deg[idx] = True
            thin[idx[((g_a[:, None] <= 1) | (f_a <= 1)).ravel()]] = True
    for flags in (reducible, pair1, pair_a, low_deg, thin):
        _spread_shifts(b, n, flags)
    sizes = np.zeros(8, dtype=np.int64)
    uncovered = 0
    # the zero vector, index 0, is in no class
    for lo in range(1, size, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, size)
        nnz, nnz_a = _level_counts(b, n, np.arange(lo, hi, dtype=np.int64), 1, a)
        red = reducible[lo:hi]
        cls = np.select(
            [
                far1[nnz],
                pair1[lo:hi],
                far_a[nnz_a],
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
    |f*g| <= |f| + |g| + d, checked against the close_pair_bound ceiling.

    A factor is one bitmask word, its own one-plane packing.  The f are
    1 + i*x + x^k and the g are i + x^(n-k); the larger family comes in
    blocks of up to BLOCK_ROWS words, each multiplied by as many factors
    of the smaller family, as digit rows, as keep a chunk within
    BLOCK_ROWS products.  A product has n+1 bits, so n is at most 63.
    A count over the ceiling raises BoundExceeded."""
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
    xs = np.arange(few, dtype=np.uint64) << np.uint64(few_shift) | np.uint64(few_bits)
    digits = (xs[:, None] >> np.arange(few_bits.bit_length(), dtype=np.uint64) & np.uint64(1)).astype(np.uint8)
    # f*g holds a shifted copy of each factor, so the uint8 difference
    # |f*g| - |block factor| is >= 0, and at most |x| + d for a close pair
    limits = np.bitwise_count(xs).astype(np.int64)[:, None] + d
    count = 0
    for lo in range(0, many, BLOCK_ROWS):
        block = np.arange(lo, min(lo + BLOCK_ROWS, many), dtype=np.uint64) << np.uint64(shift) | np.uint64(bits)
        block_size = np.bitwise_count(block)
        step = max(1, BLOCK_ROWS // len(block))
        for i in range(0, few, step):
            prod = _times_block(block[None], digits[i : i + step])[:, 0]
            count += int(np.count_nonzero(np.bitwise_count(prod) - block_size <= limits[i : i + step]))
    bound = close_pair_bound(n, k, d)
    if count > bound:
        raise BoundExceeded(f"close-pair count {count} exceeds the bound n^(2d+2) * 2^k = {bound}")
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
