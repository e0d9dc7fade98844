"""Seeded Monte-Carlo experiments over random coefficient vectors.

All randomness flows from numpy's PCG64 generator.  A run is split into
fixed-size trial chunks; chunk i draws from the i-th child of the seed
sequence, so results are bit-identical regardless of how chunks are
scheduled across the workers of `census.run_shards`, which starts them
only for a plan of at least `census.POOL_BREAK_EVEN` digit planes (any
plan of two chunks of draws longer than a word); the census sieve states
its cost in the same unit.  A density chunk counts its irreducible draws
with `factor._count_irreducible`, which decides a block of digit rows at
once.  An exhaustive run takes the
census's record, whose classes, candidates and primes are counted per
core degree by `census._range_record` alone.  Every report records the
generator identity.  The CLI imports this module, and numpy with it,
only for the commands that sample or bound (density, hoeffding, bounds)
and for the generator identity of a seeded report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import census as census_mod, factor
from .census import BoundParams
from .core import ALL_VECTORS, EXACT_DEGREE, WORD, MaxMinPoly, _trim
from .errors import LevelOutOfRange

GENERATOR_ID = "numpy.PCG64"
CHUNK = 2048


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    seed: int
    trials: int
    b: int
    n: int
    space: str = ALL_VECTORS

    def __post_init__(self) -> None:
        census_mod.check_space(self.b, self.n, self.space)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True, slots=True)
class TailReport:
    i: int
    epsilon: float
    empirical_tail: float
    hoeffding_bound: float
    trials: int
    generator: str = GENERATOR_ID


@dataclass(frozen=True, slots=True)
class DensityReport:
    estimate: float
    ci_low: float
    ci_high: float
    trials: int
    irreducible: int
    exhaustive: bool
    generator: str = GENERATOR_ID


@dataclass(frozen=True, slots=True)
class BoundReport:
    """The four normalized reducible-count bound terms, kept in log space.

    log_terms holds natural logs of
        t1 = n * exp(-d^2 / 4(n+1))
        t2 = v * n^(2d+1) * 2^v * b^-n
        t3 = n^2 * 2^-v
        t4 = n^(2d+3) * 2^(d/2 - n/3)
    which stay finite long after the linear values overflow a float.
    """

    b: int
    n: int
    d: float
    v: float
    log_terms: tuple[float, float, float, float]

    def term_values(self) -> tuple[float, float, float, float]:
        """Linear-scale terms; may overflow to inf for large parameters."""
        return tuple(census_mod._exp_or_inf(lt) for lt in self.log_terms)


def _chunk_rngs(seed: int, trials: int) -> Iterator[tuple[np.random.Generator, int]]:
    n_chunks = (trials + CHUNK - 1) // CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    for i, child in enumerate(children):
        size = min(CHUNK, trials - i * CHUNK)
        yield np.random.Generator(np.random.PCG64(child)), size


def _draw_digits(rng: np.random.Generator, rows: int, config: ExperimentConfig) -> np.ndarray:
    digits = rng.integers(0, config.b, size=(rows, config.n))
    if config.space == EXACT_DEGREE:
        digits[:, -1] = rng.integers(1, config.b, size=rows)
    return digits


def sample_stream(config: ExperimentConfig) -> Iterator[MaxMinPoly]:
    """The deterministic stream of sampled polynomials for a config."""
    for rng, size in _chunk_rngs(config.seed, config.trials):
        for row in _draw_digits(rng, size, config).tolist():
            yield MaxMinPoly(config.b, _trim(row))


def sample_poly(config: ExperimentConfig) -> MaxMinPoly:
    """First draw of the config's stream (identical for identical configs)."""
    return next(sample_stream(config))


def hoeffding_bound(epsilon: float, n: int) -> float:
    return 2.0 * math.exp(-2.0 * epsilon * epsilon * n)


def hoeffding_experiment(config: ExperimentConfig, i: int, epsilon: float) -> TailReport:
    """Empirical frequency of | |f_i| - (b-i)n/b | > eps*n versus the bound."""
    b, n = config.b, config.n
    if not 1 <= i <= b - 1:
        raise LevelOutOfRange(f"level {i} outside 1..{b - 1}")
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    mean = (b - i) * n / b
    threshold = epsilon * n
    hits = 0
    for rng, size in _chunk_rngs(config.seed, config.trials):
        block = _draw_digits(rng, size, config)
        support_sizes = (block >= i).sum(axis=1)
        hits += int(np.count_nonzero(np.abs(support_sizes - mean) > threshold))
    return TailReport(
        i=i,
        epsilon=epsilon,
        empirical_tail=hits / config.trials,
        hoeffding_bound=hoeffding_bound(epsilon, n),
        trials=config.trials,
    )


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


def _density_chunk(rng: np.random.Generator, size: int, config: ExperimentConfig) -> int:
    """The number of irreducible draws of one seed-derived trial chunk
    (order-free)."""
    return factor._count_irreducible(config.b, _draw_digits(rng, size, config))


def density_experiment(config: ExperimentConfig, *, exhaustive: bool = False, workers: int = 1) -> DensityReport:
    """Fraction of irreducible draws with a 95% Wilson confidence interval.

    With exhaustive=True the full space is enumerated instead of sampled,
    reproducing the census fraction exactly (trials is ignored).  Trial
    chunks carry seed-derived substreams, so the result is independent of
    the worker count.  Zero draws count as trials, though the census
    skips them.
    """
    b, n = config.b, config.n
    if exhaustive:
        rec = census_mod.census(b, n, config.space, workers=workers)
        frac = rec.irreducible_fraction()
        lo, hi = wilson_interval(rec.irreducible, rec.total)
        return DensityReport(float(frac), lo, hi, rec.total, rec.irreducible, True)
    jobs = [(rng, size, config) for rng, size in _chunk_rngs(config.seed, config.trials)]
    # a step of the cost is a digit plane of a draw.  A draw longer than a
    # word goes to the depth-first search, at 5-10 times the time a step
    # (b=2 n=65..256: 75-260 us a draw), so two chunks of them always
    # repay a pool.
    cost = config.trials * n * (b - 1) if n <= WORD else math.inf
    hits = sum(census_mod.run_shards(_density_chunk, jobs, workers, cost))
    lo, hi = wilson_interval(hits, config.trials)
    return DensityReport(hits / config.trials, lo, hi, config.trials, hits, False)


def default_params(n: int) -> BoundParams:
    """The vanishing schedule d = 2*sqrt(n+1)*ln(n), v = 3*log2(n)."""
    if n < 2:
        raise ValueError("schedule requires n >= 2")
    d = 2.0 * math.sqrt(n + 1.0) * math.log(n)
    v = 3.0 * math.log2(n)
    return BoundParams(Fraction(d), Fraction(v))


def bound_terms(b: int, n: int, params: BoundParams) -> BoundReport:
    """Evaluate the four normalized bound terms in log space."""
    census_mod.check_space(b, n, ALL_VECTORS)
    d = float(params.d)
    v = float(params.v)
    return BoundReport(b, n, d, v, census_mod._log_bound_terms(b, n, d, v))
