"""Exhaustive enumeration and counting over small coefficient spaces.

Two enumeration conventions are exposed and labeled on every record:

* ``all-vectors`` ranges over all b^n little-endian coefficient vectors of
  length n (n iid digit slots; vectors with trailing zeros canonicalize to
  lower-degree polynomials, and the zero vector is excluded from totals);
* ``exact-degree`` restricts to vectors whose leading digit is nonzero,
  i.e. genuine degree n-1 polynomials.

The census is a forward product sieve counted per core degree.  A
vector is reducible when it is g*f with neither factor a monomial, and
every nonzero vector is x^t * c with c a core (a vector with both end
digits nonzero), which has the class of c.  The end digits of g*f are
the minima of those of g and f, so the factors of a core are cores, and
it is enough to mark every product of two cores (`_core_products`) at
its rank among the cores of its degree.  The unit of work is that degree
m (`_sieve_degree`): it returns two ints, its reducible cores and those
among them with a digit b-1; the cores and the candidates (the cores
with a digit b-1) of a degree have closed forms.  A record is then a
weighted sum over degrees (`_range_record`, the one count rule): in
all-vectors a core of degree m stands for its n - m shifts, in
exact-degree for one, and only the unshifted vectors, t = 0, hold
candidates.  No vector is decided, and none is marked, one at a time:
the largest array is the marks of the cores of the top degree.  A core
is held only as its plane words, read from tables (`_core_words`), and
its number of digits >= s is the popcount of its plane s.  With more
than one worker the degrees run on worker processes, once the sieve
makes at least `POOL_BREAK_EVEN` core products (`_product_count`, a
closed form); a smaller sieve costs less than starting the pool.

The shard plan of the checkpointed census is the n valuation ranges of
the space (`_valuation_range`): range t holds the vectors x^t * c, a
contiguous index range fixed by (b, n, space) alone, so a checkpoint
resumes at any worker count.  A shard counts the vectors of its range,
and the checkpoint header carries the tally marker "valuations", so a
checkpoint of an earlier tally is rejected, not merged.  `run_shards`
runs the sieve's degrees and the density sampler's chunks, in this
process or on a pool, by the estimated cost of the plan.

The partition census splits the same space into seven deviation classes
keyed on support sizes and factorization shapes, evaluating the explicit
tail bound attached to each class; it classifies the cores of each
degree once, from the same core products and popcounts, with weight
n - m.  Enumeration order is lexicographic on the coefficient vectors,
so shard ranges are well-defined and resumable.

The two exhaustive pair enumerations, the sieve (with the partition) and
the close-pair count, run on core's block product (`_times_block`): a
chunk of second factors multiplies a block of first factors, all held as
plane words, in a few numpy steps per coefficient position, so no Python
code runs per factor pair or per vector.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import signal
from dataclasses import asdict, astuple, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import __version__
from .core import BLOCK_ROWS, WORD, MaxMinPoly, _times_block, _trim, check_base
from .errors import BoundExceeded, BudgetExceeded

ALL_VECTORS = "all-vectors"
EXACT_DEGREE = "exact-degree"
SPACES = (ALL_VECTORS, EXACT_DEGREE)

DEFAULT_BUDGET = 200_000_000


def _check_budget(count: int, what: str, force: bool, unit: str = "") -> None:
    """Raise BudgetExceeded when count is over DEFAULT_BUDGET, unless forced."""
    if not force and count > DEFAULT_BUDGET:
        raise BudgetExceeded(f"{what} exceed the budget of {DEFAULT_BUDGET}{unit}")


# The estimated one-worker cost, in steps, from which a plan of two or
# more jobs runs on a pool.  A step is a product of two cores in the
# census sieve (30-60 ns) or a digit plane of a draw in sampled density
# (90-400 ns, the most at b >= 3).  Starting a pool of two costs 11-14
# ms, and a density chunk runs 20-30% slower in a fresh worker, so on a
# 2-core Xeon a second worker pays from 70-100 ms of one-worker work
# (in-process `cli.main` medians, one worker against two): density b=3
# n=20 4096 draws (164k steps) 40 against 41 ms, b=4 n=24 4096 draws
# (295k) 56 against 52 ms, census b=2 n=17 (240k) 18 against 33 ms.  The
# break-even sits at the density plans, whose steps cost the most, so no
# plan that a pool speeds up runs in-process; census sieves between it
# and about 2M products (b=2 n=18: 31 against 39 ms) still start a pool.
POOL_BREAK_EVEN = 250_000


def run_shards(fn: Callable, jobs: Sequence[tuple], workers: int, cost: float) -> Iterator:
    """Yield fn(*job) for each job, in job order, as each result arrives.

    cost is the plan's estimated one-worker time in the steps of
    POOL_BREAK_EVEN.  With more than one worker, more than one job and a
    cost of at least POOL_BREAK_EVEN the jobs run on a pool of
    min(workers, len(jobs), usable cores) processes (fn and the jobs must
    pickle); otherwise they run in this process, which then never imports
    the pool's module.  The workers ignore SIGINT, so an interrupt reaches
    this process alone.  When it, or anything else, ends the iteration
    early, the jobs not yet started are cancelled and the pool shuts down
    once the running ones finish.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, len(jobs), cores)
    if workers <= 1 or cost < POOL_BREAK_EVEN:
        for job in jobs:
            yield fn(*job)
        return
    pool = _start_pool(workers)
    try:
        yield from pool.map(fn, *zip(*jobs))
    finally:
        pool.shutdown(cancel_futures=True)


def _start_pool(workers: int):
    """A pool of `workers` processes that ignore SIGINT.  Importing its
    module adds about 10 ms and 2 MB to a run, so it is imported here, by
    the first pool."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))


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
    check_space(b, n, space)
    for vec in iter_vectors(b, n, space):
        yield MaxMinPoly(b, _trim(vec))


def check_space(b: int, n: int, space: str) -> None:
    """Reject a bad base, n < 1 or an unknown space."""
    check_base(b)
    if n < 1:
        raise ValueError("n must be >= 1")
    if space not in SPACES:
        raise ValueError(f"unknown enumeration space {space!r}")


def check_enumeration(b: int, n: int, space: str, force: bool = False) -> None:
    """check_space, and reject b^n over the budget."""
    check_space(b, n, space)
    _check_budget(b**n, f"{b}^{n} vectors", force, " vectors")


def _valuation_range(b: int, n: int, space: str, t: int) -> tuple[int, int]:
    """Range t of the shard plan: the indices (start, end) of the vectors
    x^t * c of the space, c with a nonzero constant term.  x^t * c has the
    index of c among vectors of n - t digits, so the range is
    [size(n-1-t), size(n-t)), and range n-1 starts at 0 (in all-vectors,
    at the zero vector)."""
    return (space_size(b, n - 1 - t, space) if t < n - 1 else 0, space_size(b, n - t, space))


def _cores(b: int, m: int) -> range:
    """The exact-degree indices, among vectors of m+1 digits, of the cores
    of degree m, the vectors with both end digits nonzero: range 0 of
    that space.  A core's rank is its index minus the range's start."""
    return range(*_valuation_range(b, m + 1, EXACT_DEGREE, 0))


def census(b: int, n: int, space: str = ALL_VECTORS, *, workers: int = 1, force: bool = False) -> CensusRecord:
    """Exhaustive classification counts for one (b, n, space): the product
    sieve, its degrees on up to `workers` processes, then the sum of the
    records of the valuation ranges."""
    check_enumeration(b, n, space, force)
    reducible = _reducible_counts(b, n, workers)
    return functools.reduce(merge_records, (_range_record(b, n, space, t, reducible) for t in range(n)))


# -- the product sieve --------------------------------------------------------


def _core_products(b: int, m: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Every product g*f of two cores of degrees dg <= df with dg + df = m,
    in chunks (dg, gs, fs, rank): gs and fs blocks of plane words
    (`_core_words`), the g of degree dg, and rank the place among the
    cores of degree m of each product g*f, g-major.

    The end digits of g*f are the minima of those of g and f, so a product
    of cores is a core.  The g and the f come in blocks of BLOCK_ROWS /
    (b-1) factors, and each f block is multiplied by as many g at once as
    keep the products within BLOCK_ROWS plane words.  At equal degrees
    both orders of a pair take part.
    """
    tables = _index_tables(b, m)
    # the tables add up to a core's exact-degree index plus 1
    offset = -1 - _cores(b, m).start
    rows = max(1, BLOCK_ROWS // (b - 1))
    for dg in range(1, m // 2 + 1):
        g_count, f_count = len(_cores(b, dg)), len(_cores(b, m - dg))
        for g_lo, f_lo in itertools.product(range(0, g_count, rows), range(0, f_count, rows)):
            gs = _core_words(b, dg, np.arange(g_lo, min(g_lo + rows, g_count)))
            fs = _core_words(b, m - dg, np.arange(f_lo, min(f_lo + rows, f_count)))
            for chunk, prod in _times_block(fs, gs):
                octets = prod.astype("<u8", copy=False).view(np.uint8).reshape(*prod.shape, 8)
                rank = np.full((len(prod), fs.shape[1]), offset, dtype=np.int64)
                for s in range(b - 1):
                    for t, table in enumerate(tables):
                        rank += table[octets[:, s, :, t]]
                yield dg, chunk, fs, rank.ravel()


def _product_count(b: int, m: int) -> int:
    """The number of products g*f that `_core_products` makes for degree
    m >= 2: for each of the m // 2 degrees dg, the cores of degree dg
    times those of degree m - dg, and a degree d >= 1 has (b-1)^2 b^(d-1)
    cores."""
    return m // 2 * (b - 1) ** 4 * b ** (m - 2)


def _sieve_degree(b: int, m: int) -> tuple[int, int]:
    """The reducible cores of degree m: how many, and how many of them have
    a digit b-1.  Each product marks its rank; the marks are then counted a
    block at a time."""
    marks = np.zeros(len(_cores(b, m)), dtype=bool)
    for *_, rank in _core_products(b, m):
        marks[rank] = True
    reducible = top = 0
    for lo in range(0, len(marks), BLOCK_ROWS):
        rank = np.flatnonzero(marks[lo : lo + BLOCK_ROWS]) + lo
        reducible += len(rank)
        top += int(np.count_nonzero(_core_words(b, m, rank, b - 1)))
    return reducible, top


def _reducible_counts(b: int, n: int, workers: int = 1) -> list[tuple[int, int]]:
    """Per core degree m < n, the pair of `_sieve_degree`.  The degrees run
    as the jobs of `run_shards`, the largest first; degrees 0 and 1 have no
    products."""
    counts = [(0, 0)] * n
    degrees = range(n - 1, 1, -1)
    cost = sum(_product_count(b, m) for m in degrees)
    with contextlib.closing(run_shards(_sieve_degree, [(b, m) for m in degrees], workers, cost)) as parts:
        for m, part in zip(degrees, parts):
            counts[m] = part
    return counts


def _range_record(b: int, n: int, space: str, t: int, reducible: Sequence[tuple[int, int]]) -> CensusRecord:
    """Census counts of valuation range t, the one count rule, from the
    per-degree pairs of `_reducible_counts`.  x^t * c has the class of its
    core c, which runs over the cores of every degree m <= n-1-t in
    all-vectors and of degree n-1-t alone in exact-degree.  A candidate
    has a nonzero constant term, so range 0 alone holds candidates: the
    cores with a digit b-1 (at m = 0 the constant b-1, which is prime)."""
    start, end = _valuation_range(b, n, space, t)
    # the range's vectors but the zero vector
    total = end - start - (start == 0 and space == ALL_VECTORS)
    degrees = range(n - t) if space == ALL_VECTORS else [n - 1 - t]
    red = sum(reducible[m][0] for m in degrees)
    candidates = primes = 0
    if t == 0:
        for m in degrees:
            with_top = candidate_count_closed_form(b, m + 1) if m else 1
            candidates += with_top
            primes += with_top - reducible[m][1]
    monomials = b - 1 if 0 in degrees else 0
    return CensusRecord(b, n, space, total, monomials, total - monomials - red, red, candidates, primes)


def _index_rows(b: int, n: int, space: str, start: int, end: int) -> np.ndarray:
    """The vectors of a lexicographic index range as uint8 digit rows, the
    decoder of `iter_vectors`.  It decodes in int64, which covers spaces
    below 2^63 vectors."""
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


@functools.cache
def _index_tables(b: int, m: int) -> np.ndarray:
    """Per byte t of a plane word, the table of the byte's share of the
    exact-degree index plus 1 of a vector of m+1 digits: entry x is the sum
    of w_k over the bits k of x << 8t up to m, with w_k = (b-1) * b^(m-1-k)
    below the lead and w_m = 1.  A vector's index plus 1 is the sum of
    these shares over the bytes of its planes, as coefficient k counts the
    planes holding bit k.  Built once per (b, m) and process, read-only."""
    weights = [(b - 1) * b ** (m - 1 - k) for k in range(m)] + [1] + [0] * (-(m + 1) % 8)
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    tables = np.stack([bits @ np.array(weights[t : t + 8], dtype=np.int64) for t in range(0, len(weights), 8)])
    tables.flags.writeable = False
    return tables


@functools.cache
def _plane_table(b: int, k: int) -> np.ndarray:
    """The plane words of every vector of k digits by all-vectors index:
    column i holds planes 1..b-1 (rows 0..b-2) of the vector of index i,
    bit p for coefficient p.  Built once per process, read-only.  The
    table of k digits extends that of k-1: index i*b + d adds the digit d,
    at position k-1, to the vector of index i."""
    table = np.zeros((b - 1, 1), dtype=np.uint64)
    if k:
        digit = (np.arange(b) >= np.arange(1, b)[:, None]).astype(np.uint64) << np.uint64(k - 1)
        table = (_plane_table(b, k - 1)[:, :, None] | digit[:, None, :]).reshape(b - 1, -1)
    table.flags.writeable = False
    return table


def _core_words(b: int, m: int, rank: np.ndarray, level: int | None = None) -> np.ndarray:
    """The plane words of the cores of degree m at `rank`, one C-ordered
    column per core, or with a level s only plane s, one word per core.
    A core's all-vectors index among vectors of m+1 digits is q*b + r + 1
    = i + q + 1, (q, r) = divmod(its exact-degree index i, b-1).  Its
    words are the OR of the `_plane_table` columns of its digits cut
    evenly into chunks of at most c digits, c >= 1 the largest with
    (b-1) * b^c <= BLOCK_ROWS."""
    index = rank + _cores(b, m).start
    index += index // (b - 1) + 1
    c = 1
    while (b - 1) * b ** (c + 1) <= BLOCK_ROWS:
        c += 1
    words = np.zeros(len(rank) if level else (b - 1, len(rank)), dtype=np.uint64)
    end = m + 1
    for chunks in range(-(-end // c), 0, -1):
        size = end // chunks
        high = index // b**size
        table = _plane_table(b, size)
        words |= (table[level - 1] if level else table).take(index - high * b**size, axis=-1) << np.uint64(end - size)
        index, end = high, end - size
    return words


# -- checkpointed census ------------------------------------------------------


def census_with_checkpoint(
    b: int, n: int, space: str, path: str | Path, *, workers: int = 1, force: bool = False
) -> CensusRecord:
    """Count the shards of the plan, the n valuation ranges of
    `_valuation_range`, persisting partials to JSON.

    A run resumes from the shards already on disk, at any worker count;
    completed shards are merged by the associative record addition.  A
    shard's partial counts the vectors of its range.  The sieve is not
    saved: a resume with pending shards runs it again, on up to `workers`
    processes, and counts only the missing ranges.  The
    header records the census, the tally marker "valuations" and the
    package version, and a checkpoint whose header does not match (one
    written by an earlier tally, the index ranges of "vectors" or the
    orbits, among them), whose shards repeat, are not in the plan or are
    malformed, or whose counts do not add up to the space, is rejected
    rather than merged, and left as it is.  Once the pending shards are
    counted the checkpoint is written once, to a temporary file that then
    replaces it, so a crash or an interrupt leaves the previous checkpoint
    intact.
    """
    check_enumeration(b, n, space, force)
    path = Path(path)
    plan = [_valuation_range(b, n, space, t) for t in range(n)]
    header = {"b": b, "n": n, "space": space, "tally": "valuations", "version": __version__}
    entries: list = []
    if path.exists():
        state = json.loads(path.read_text())
        if not isinstance(state, dict) or {key: state.get(key) for key in header} != header:
            raise ValueError(f"checkpoint {path} belongs to a different census, tally or version")
        entries = state.get("shards")
        if not isinstance(entries, list):
            raise ValueError(f"checkpoint {path} has no list of shards")
    shards = dict(_read_shard(path, (b, n, space), entry) for entry in entries)
    if len(shards) != len(entries) or not set(plan).issuperset(shards):
        raise ValueError(f"checkpoint {path} holds repeated shards or shards outside the plan")
    pending = [(t, span) for t, span in enumerate(plan) if span not in shards]
    reducible = _reducible_counts(b, n, workers) if pending else None
    for t, (start, end) in pending:
        partial = shards[start, end] = _range_record(b, n, space, t, reducible)
        entries.append({"range_start": start, "range_end": end, "partial": asdict(partial)})
    rec = functools.reduce(merge_records, shards.values())
    nonzero = space_size(b, n, space) - (space == ALL_VECTORS)
    if rec.total != nonzero:
        raise ValueError(f"checkpoint {path} counts {rec.total} nonzero vectors where the space has {nonzero}")
    if pending:
        tmp = Path(f"{path}.tmp")
        tmp.write_text(json.dumps({**header, "shards": entries}))
        os.replace(tmp, path)
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
    does, and it has the support sizes of c.  So x^t * c has the class of
    c, and each core of degree m is classified once with weight n - m, its
    shifts.  The pairs of cores of `_core_products` suffice: each product
    sets, in the marks of its core, the bit of being reducible and the bit
    of each condition it meets (an OR over factorizations), and the cores
    are then classified in blocks from their marks and support sizes.
    """
    check_enumeration(b, n, ALL_VECTORS, force)
    d, v = params.d, params.v
    a = b // 2
    half_d = d / 2

    def far(mean: Fraction, bit: int) -> np.ndarray:
        # the deviation test |count - mean| > d/2, once per possible count,
        # as the bit of its class
        return np.array([bit * (abs(c - mean) > half_d) for c in range(2 * n + 3)], dtype=np.uint8)

    # class k is bit k-1 of a core's marks, and a core's class is that of
    # its lowest bit set, 0 for none
    far1, far1_pair = far(Fraction((b - 1) * n, b), 1), far(Fraction((b - 1) * (n + 1), b), 2)
    far_a, far_a_pair = far(Fraction((b - a) * n, b), 4), far(Fraction((b - a) * (n + 1), b), 8)
    first = np.array([(k & -k).bit_length() for k in range(128)])
    sizes = np.zeros(8, dtype=np.int64)
    sigma = 0
    for m in range(n):
        marks = np.zeros(len(_cores(b, m)), dtype=np.uint8)
        for dg, gs, fs, rank in _core_products(b, m):
            (g_nnz, g_a), (f_nnz, f_a) = (np.bitwise_count(x[[0, a - 1]]).astype(np.uint16) for x in (gs, fs))
            thin = (g_a[:, None] <= 1) | (f_a <= 1)
            # every product is reducible (class 7), and dg <= deg f (class 5)
            fixed = np.uint8(64 | 16 * (dg <= v))
            bits = far1_pair[g_nnz[:, None] + f_nnz] | far_a_pair[g_a[:, None] + f_a] | np.uint8(32) * thin | fixed
            np.bitwise_or.at(marks, rank, bits.ravel())
        for lo in range(0, len(marks), BLOCK_ROWS):
            block = marks[lo : lo + BLOCK_ROWS]
            nnz, nnz_a = (np.bitwise_count(_core_words(b, m, np.arange(lo, lo + len(block)), s)) for s in (1, a))
            sizes += (n - m) * np.bincount(first[block | far1[nnz] | far_a[nnz_a]], minlength=8)
        sigma += (n - m) * int(np.count_nonzero(marks & 64))
    if sizes[1:].sum() < sigma:
        raise AssertionError("partition classes sum below the reducible count")
    return PartitionCensus(
        b,
        n,
        d,
        v,
        a,
        tuple(int(c) for c in sizes[1:]),
        sigma,
        b**n - 1,
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
    blocks of up to BLOCK_ROWS words, each multiplied by as many words of
    the smaller family as keep a chunk within BLOCK_ROWS products.  A
    product has n+1 bits, so n is at most WORD - 1.
    A count over the ceiling raises BoundExceeded."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    if d < 0:
        raise ValueError("need d >= 0")
    if n >= WORD:
        raise ValueError(f"need n <= {WORD - 1} for {WORD}-bit products, got {n}")
    _check_budget(2 ** (n - 1), f"2^{n - 1} pairs", force)
    # each family as (size, shift of i, fixed bits)
    families = sorted([(1 << (k - 1), 1, 1 | 1 << k), (1 << (n - k), 0, 1 << (n - k))])
    (few, few_shift, few_bits), (many, shift, bits) = families
    xs = np.arange(few, dtype=np.uint64) << np.uint64(few_shift) | np.uint64(few_bits)
    count = 0
    for lo in range(0, many, BLOCK_ROWS):
        block = np.arange(lo, min(lo + BLOCK_ROWS, many), dtype=np.uint64) << np.uint64(shift) | np.uint64(bits)
        block_size = np.bitwise_count(block)
        for chunk, prod in _times_block(block[None], xs[None]):
            # f*g holds a shifted copy of each factor, so the uint8 difference
            # |f*g| - |block factor| is >= 0, and at most |x| + d for a close pair
            limits = np.bitwise_count(chunk[0]).astype(np.int64)[:, None] + d
            count += int(np.count_nonzero(np.bitwise_count(prod[:, 0]) - block_size <= limits))
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
