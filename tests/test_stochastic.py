"""Seeded sampling, tail experiments, density estimates and bound terms."""

import math

import pytest

from maxminpoly import census, factor, stochastic
from maxminpoly.errors import DigitOutOfRange, LevelOutOfRange


def cfg(**kw):
    base = dict(seed=1234, trials=1000, b=2, n=16, space=census.ALL_VECTORS)
    base.update(kw)
    return stochastic.ExperimentConfig(**base)


def test_empty_vectors_and_bad_bases_are_rejected():
    with pytest.raises(ValueError, match="n must be >= 1"):
        cfg(n=0)
    with pytest.raises(DigitOutOfRange):
        cfg(b=1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        stochastic.bound_terms(2, 0, census.BoundParams.make(1, 1))
    with pytest.raises(DigitOutOfRange):
        stochastic.bound_terms(1, 5, census.BoundParams.make(1, 1))


# -- sampling ------------------------------------------------------------------


def test_sample_poly_deterministic():
    c = cfg()
    assert stochastic.sample_poly(c) == stochastic.sample_poly(c)
    first_ten = lambda: [f for f, _ in zip(stochastic.sample_stream(c), range(10))]
    assert first_ten() == first_ten()


def test_sample_digits_in_range():
    c = cfg(b=5, n=12, trials=200)
    for f in stochastic.sample_stream(c):
        assert all(0 <= d < 5 for d in f.coeffs)
        assert len(f.coeffs) <= 12


def test_sample_exact_degree_leading_digit():
    c = cfg(b=4, n=6, trials=300, space=census.EXACT_DEGREE)
    for f in stochastic.sample_stream(c):
        assert len(f.coeffs) == 6 and f.coeffs[-1] >= 1


def test_sample_marginals_near_half():
    c = cfg(b=2, n=100, trials=2000)
    ones = 0
    for f in stochastic.sample_stream(c):
        ones += sum(f.coeffs)
    total = 2000 * 100
    p = ones / total
    sigma = math.sqrt(0.25 / total)
    assert abs(p - 0.5) < 4 * sigma


# -- tail experiments -------------------------------------------------------------


def test_hoeffding_epsilon_ge_one_gives_zero_tail():
    rep = stochastic.hoeffding_experiment(cfg(n=50, trials=500), 1, 1.0)
    assert rep.empirical_tail == 0.0
    assert rep.empirical_tail <= rep.hoeffding_bound


def test_hoeffding_bound_formula():
    rep = stochastic.hoeffding_experiment(cfg(n=200, trials=500), 1, 0.1)
    assert rep.hoeffding_bound == pytest.approx(2 * math.exp(-2 * 0.01 * 200))


def test_hoeffding_level_validation():
    with pytest.raises(LevelOutOfRange):
        stochastic.hoeffding_experiment(cfg(), 2, 0.1)
    with pytest.raises(ValueError):
        stochastic.hoeffding_experiment(cfg(), 1, 0.0)


def test_hoeffding_deterministic():
    a = stochastic.hoeffding_experiment(cfg(b=4, n=300, trials=2000), 2, 0.05)
    b = stochastic.hoeffding_experiment(cfg(b=4, n=300, trials=2000), 2, 0.05)
    assert a == b


# -- density ----------------------------------------------------------------------


def test_density_n1_is_zero():
    rep = stochastic.density_experiment(cfg(n=1, trials=500))
    assert rep.estimate == 0.0


def test_density_exhaustive_matches_census(census_cache):
    rep = stochastic.density_experiment(cfg(n=8), exhaustive=True)
    rec = census_cache(2, 8)
    assert rep.estimate == pytest.approx(float(rec.irreducible_fraction()))
    assert rep.trials == rec.total and rep.irreducible == rec.irreducible


def test_density_generic_base_exhaustive():
    rep = stochastic.density_experiment(cfg(b=3, n=4), exhaustive=True)
    rec = census.census(3, 4)
    assert rep.irreducible == rec.irreducible


def test_density_sampled_close_to_exhaustive():
    rep = stochastic.density_experiment(cfg(n=10, trials=4000, seed=9))
    rec = census.census(2, 10)
    truth = float(rec.irreducible_fraction())
    assert rep.ci_low - 0.02 <= truth <= rep.ci_high + 0.02
    again = stochastic.density_experiment(cfg(n=10, trials=4000, seed=9))
    assert again == rep


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("space", census.SPACES)
@pytest.mark.parametrize(
    "b, n",
    # the root test of factor._decide_rows cuts most draws at (2, 40),
    # (4, 16) and (10, 8), and its descent decides the others of their
    # first chunks and of (3, 20); 64 digits fill its word and 65 go past it
    ((2, 16), (3, 10), (10, 6), (2, 40), (3, 20), (4, 16), (10, 8), (2, 64), (2, 65)),
)
def test_density_counts_the_irreducible_draws(b, n, space, workers):
    # 2049 trials make two chunks, the second of one draw
    config = cfg(b=b, n=n, space=space, trials=2049, seed=b * n)
    want = sum(
        1
        for poly in stochastic.sample_stream(config)
        if not poly.is_zero() and factor.classify_irreducible(poly).kind == factor.IRREDUCIBLE
    )
    rep = stochastic.density_experiment(config, workers=workers)
    assert rep.irreducible == want and rep.trials == 2049


@pytest.mark.parametrize("b, n", ((2, 28), (3, 20), (10, 8)))
def test_density_counts_a_screened_chunk_too_small_for_the_descent(b, n):
    # 200 draws reach factor._decide_rows but are fewer than
    # factor.DESCENT_ROWS, so it hands back every draw its root test keeps
    # and the search decides them
    assert 200 * n >= factor.SCREEN_DIGITS and 200 < factor.DESCENT_ROWS
    config = cfg(b=b, n=n, trials=200, seed=7)
    want = sum(
        1
        for poly in stochastic.sample_stream(config)
        if not poly.is_zero() and factor.classify_irreducible(poly).kind == factor.IRREDUCIBLE
    )
    assert stochastic.density_experiment(config).irreducible == want


def test_wilson_interval_basics():
    lo, hi = stochastic.wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert stochastic.wilson_interval(0, 100)[0] == 0.0


# -- schedules and bound terms -------------------------------------------------------


def test_default_params_examples():
    p8 = stochastic.default_params(8)
    assert float(p8.v) == pytest.approx(9.0)
    assert float(p8.d) == pytest.approx(2 * math.sqrt(9) * math.log(8))
    p100 = stochastic.default_params(100)
    assert float(p100.v) == pytest.approx(19.93, abs=0.005)


def test_bound_terms_t3_is_inverse_n():
    for n in (8, 100, 400):
        rep = stochastic.bound_terms(2, n, stochastic.default_params(n))
        assert math.exp(rep.log_terms[2]) == pytest.approx(1 / n, rel=1e-12)


def test_bound_terms_t1_closed_form():
    for n in (50, 100):
        rep = stochastic.bound_terms(3, n, stochastic.default_params(n))
        assert rep.log_terms[0] == pytest.approx((1 - math.log(n)) * math.log(n), rel=1e-12)


def test_bound_terms_formula_spot_check():
    params = census.BoundParams.make(2, 2)
    rep = stochastic.bound_terms(2, 10, params)
    t1, t2, t3, t4 = rep.term_values()
    assert t1 == pytest.approx(10 * math.exp(-4 / 44))
    assert t2 == pytest.approx(2 * 10**5 * 4 / 2**10)
    assert t3 == pytest.approx(100 / 4)
    assert t4 == pytest.approx(10**7 * 2 ** (1 - 10 / 3))


def test_bound_terms_finite_logs_at_large_n():
    rep = stochastic.bound_terms(2, 800, stochastic.default_params(800))
    assert all(math.isfinite(lt) for lt in rep.log_terms)
