"""Semiring arithmetic, digit maps, the real embedding and the set bridge."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxminpoly import core
from maxminpoly.errors import (
    BaseMismatch,
    DigitOutOfRange,
    LevelOutOfRange,
    NonCanonical,
    ZeroPolynomial,
)
from oracles import oracle_mul, oracle_pack, oracle_unpack

P = core.parse_poly


def polys(bases=(2, 3, 5, 10), max_len=8):
    return st.integers(0, len(bases) - 1).flatmap(
        lambda i: st.lists(st.integers(0, bases[i] - 1), max_size=max_len).map(
            lambda cs: core.poly_new(bases[i], cs)
        )
    )


def poly_pairs(bases=(2, 3, 5, 10), max_len=8):
    def for_base(b):
        coeff_lists = st.lists(st.integers(0, b - 1), max_size=max_len)
        return st.tuples(coeff_lists, coeff_lists).map(
            lambda t: (core.poly_new(b, t[0]), core.poly_new(b, t[1]))
        )

    return st.sampled_from(bases).flatmap(for_base)


def poly_triples(bases=(2, 3, 10), max_len=6):
    def for_base(b):
        coeff_lists = st.lists(st.integers(0, b - 1), max_size=max_len)
        return st.tuples(coeff_lists, coeff_lists, coeff_lists).map(
            lambda t: tuple(core.poly_new(b, cs) for cs in t)
        )

    return st.sampled_from(bases).flatmap(for_base)


# -- construction and canonical form ----------------------------------------


def test_poly_new_trims_trailing_zeros():
    assert core.poly_new(2, [1, 0, 1, 0]).coeffs == (1, 0, 1)


def test_poly_new_keeps_canonical_input():
    assert core.poly_new(3, [1, 2, 0, 1]).coeffs == (1, 2, 0, 1)


def test_poly_new_rejects_digit_at_base():
    with pytest.raises(DigitOutOfRange):
        core.poly_new(2, [0, 2])


def test_zero_polynomial_is_empty():
    assert core.zero(7).coeffs == ()
    assert core.poly_new(5, [0, 0, 0]).is_zero()


def test_base_bounds():
    with pytest.raises(DigitOutOfRange):
        core.poly_new(1, [0])
    with pytest.raises(DigitOutOfRange):
        core.poly_new(257, [0])
    assert core.poly_new(256, [255]).coeffs == (255,)


# -- add / mul ----------------------------------------------------------------


def test_add_is_pointwise_max():
    assert core.add(P("3:1,2"), P("3:2,1")) == P("3:2,2")


def test_add_zero_identity():
    f = P("3:1,0,2")
    assert core.add(f, core.zero(3)) == f


def test_add_idempotent():
    f = P("2:1,0,1")
    assert core.add(f, f) == f


def test_add_base_mismatch():
    with pytest.raises(BaseMismatch):
        core.add(P("2:1"), P("3:1"))


def test_mul_shift_by_x():
    assert core.mul(P("2:0,1"), P("2:1,1,0,1")) == P("2:0,1,1,0,1")


def test_mul_identity_is_top_constant():
    for text in ("3:1,2,0,1", "2:1,1", "10:9,3,7"):
        f = P(text)
        assert core.mul(core.one(f.base), f) == f


def test_mul_derived_base3_example():
    # frozen from the independent convolution oracle
    assert oracle_mul(3, (1, 2), (2, 1)) == (1, 2, 1)
    assert core.mul(P("3:1,2"), P("3:2,1")) == P("3:1,2,1")


def test_mul_zero_annihilates():
    assert core.mul(P("2:1,1"), core.zero(2)).is_zero()


def test_mul_coeffs_is_untrimmed():
    assert core.mul_coeffs((1, 0), (1, 0, 0)) == (1, 0, 0, 0)
    assert core.mul_coeffs((0, 0), (2,)) == (0, 0)
    assert core.mul_coeffs((), (1, 2)) == ()
    assert core.mul_coeffs((1, 2), ()) == ()


@pytest.mark.parametrize("b", (2, 3, 10))
def test_mul_long(b):
    rng = random.Random(b)
    f = core.poly_new(b, [rng.randrange(b) for _ in range(599)] + [rng.randrange(1, b)])
    g = core.poly_new(b, [rng.randrange(b) for _ in range(511)] + [rng.randrange(1, b)])
    assert core.mul(f, g).coeffs == oracle_mul(b, f.coeffs, g.coeffs)


@pytest.mark.parametrize("b", (2, 3, 10, 256))
def test_pack_matches_per_coefficient_reference(b):
    rng = random.Random(b)
    # the reference is quadratic in length times planes: 20k terms only at b = 2, 3
    longest = 20_000 if b <= 3 else 600
    for length in (1, 2, 3, 7, 64, 600, 4096, 20_000):
        coeffs = [rng.randrange(b) for _ in range(length)]
        for digits in (coeffs, [0] * length, [b - 1] * length):
            for width in (length, length + 1, 2 * length + 5):
                packed = core._pack(b, digits, width)
                assert core._unpack(packed, width, length) == tuple(digits)
                if length <= longest:
                    assert packed == oracle_pack(b, digits, width)
                    for terms in (length // 2, width):
                        assert core._unpack(packed, width, terms) == oracle_unpack(packed, width, terms)


@pytest.mark.parametrize("b", (2, 3, 10, 256))
def test_term_list_product_matches_reference(b):
    # q and g with interior and edge zeros, at the product's length and above
    rng = random.Random(b)
    for _ in range(60):
        q = [rng.randrange(b) if rng.random() < 0.6 else 0 for _ in range(rng.randint(1, 40))]
        g = [rng.randrange(b) if rng.random() < 0.6 else 0 for _ in range(rng.randint(1, 40))]
        want = oracle_mul(b, q, g)
        for width in (len(q) + len(g) - 1, len(q) + len(g) + 3, 3 * (len(q) + len(g))):
            packed = core._times(core._pack(b, q, width), core._terms(g, width))
            assert core._unpack(packed, width, len(want)) == want
            assert packed == core._pack(b, want, width)


def test_pack_of_no_planes_is_zero():
    assert core._pack(1, (0, 0), 2) == 0
    assert core._pack(2, (), 0) == 0
    assert core._unpack(0, 3, 3) == (0, 0, 0)


@given(poly_pairs())
@settings(max_examples=300)
def test_mul_matches_oracle(pair):
    f, g = pair
    assert core.mul(f, g).coeffs == oracle_mul(f.base, f.coeffs, g.coeffs)


@given(poly_pairs())
@settings(max_examples=200)
def test_degree_additive_on_nonzero(pair):
    f, g = pair
    if f.is_zero() or g.is_zero():
        return
    assert core.degree(core.mul(f, g)) == core.degree(f) + core.degree(g)


@given(poly_triples())
@settings(max_examples=300)
def test_semiring_laws(triple):
    f, g, h = triple
    assert core.add(f, g) == core.add(g, f)
    assert core.mul(f, g) == core.mul(g, f)
    assert core.add(core.add(f, g), h) == core.add(f, core.add(g, h))
    assert core.mul(core.mul(f, g), h) == core.mul(f, core.mul(g, h))
    assert core.mul(f, core.add(g, h)) == core.add(core.mul(f, g), core.mul(f, h))
    assert core.add(f, f) == f


@given(poly_pairs(bases=(3, 10)))
@settings(max_examples=100)
def test_constant_caps_coefficients(pair):
    f, _ = pair
    c = 1
    capped = core.mul(core.constant(f.base, c), f)
    assert all(v <= c for v in capped.coeffs)


# -- degree / nnz / monomial ---------------------------------------------------


def test_degree_examples():
    assert core.degree(P("2:1,0,0,1")) == 3
    assert core.degree(P("3:2")) == 0
    with pytest.raises(ZeroPolynomial):
        core.degree(core.zero(2))


def test_nnz_examples():
    assert core.nnz(P("2:1,0,0,1")) == 2
    assert core.nnz(core.zero(4)) == 0
    assert core.nnz(P("3:1,2,1")) == 3


def test_is_monomial():
    assert core.is_monomial(core.monomial(3, 2, 3))
    assert not core.is_monomial(P("2:1,1"))
    assert not core.is_monomial(core.zero(2))


# -- digit maps and supports -----------------------------------------------------


def test_threshold_map_example():
    s2 = core.threshold_map(3, 2)
    assert core.apply_digit_map(s2, P("3:1,2,0,1")) == P("3:0,2")


def test_identity_map_fixes_poly():
    f = P("10:3,0,9")
    assert core.apply_digit_map(core.identity_map(10), f) == f


def test_s1_fixes_boolean_polys():
    f = P("2:1,0,1,1")
    assert core.apply_digit_map(core.threshold_map(2, 1), f) == f


def test_digit_map_requires_nondecreasing_table():
    with pytest.raises(DigitOutOfRange):
        core.DigitMap(3, 3, (1, 0, 2))


def test_apply_digit_map_base_mismatch():
    with pytest.raises(BaseMismatch):
        core.apply_digit_map(core.threshold_map(3, 1), P("2:1"))


def test_support_level_examples():
    f = P("3:1,2,0,1")
    assert core.support_level(f, 2) == P("2:0,1")
    assert core.support_level(f, 1) == P("2:1,1,0,1")
    assert core.support_level(P("2:1,0,1"), 1) == P("2:1,0,1")
    with pytest.raises(LevelOutOfRange):
        core.support_level(f, 3)


@given(poly_pairs(bases=(3, 5, 10)))
@settings(max_examples=300)
def test_digit_maps_are_homomorphisms(pair):
    f, g = pair
    b = f.base
    for i in (1, b // 2, b - 1):
        d = core.threshold_map(b, i)
        assert core.apply_digit_map(d, core.add(f, g)) == core.add(
            core.apply_digit_map(d, f), core.apply_digit_map(d, g)
        )
        assert core.apply_digit_map(d, core.mul(f, g)) == core.mul(
            core.apply_digit_map(d, f), core.apply_digit_map(d, g)
        )


@given(poly_pairs(bases=(3, 5, 10)))
@settings(max_examples=200)
def test_support_compatible_with_products(pair):
    f, g = pair
    if f.is_zero() or g.is_zero():
        return
    for i in range(1, f.base):
        assert core.support_level(core.mul(f, g), i) == core.mul(
            core.support_level(f, i), core.support_level(g, i)
        )


# -- truncation and the real embedding --------------------------------------------


def test_truncate_examples():
    f = P("2:1,1,0,0,0,1")
    assert core.truncate(f, 3) == P("2:1,1")
    assert core.truncate(f, 10) == f
    assert core.truncate(core.zero(2), 4).is_zero()


def test_rho_examples():
    assert core.rho(P("2:1")) == 1
    assert core.rho(P("2:1,1")) == Fraction(3, 2)
    assert core.rho(P("3:2,2")) == Fraction(8, 3)
    assert core.rho(core.zero(5)) == 0


@given(polys())
@settings(max_examples=200)
def test_rho_in_range(f):
    assert 0 <= core.rho(f) <= f.base


def test_rho_strictly_monotone_per_coefficient():
    base = P("3:1,0,2")
    bumped = P("3:1,1,2")
    assert core.rho(bumped) > core.rho(base)


def test_rho_injective_on_canonical_base3():
    import itertools

    seen = {}
    for deg_len in range(0, 5):
        for cs in itertools.product(range(3), repeat=deg_len):
            f = core.poly_new(3, cs)
            if len(f.coeffs) != deg_len:
                continue  # only canonical representatives
            r = core.rho(f)
            assert r not in seen, (f, seen[r])
            seen[r] = f


# -- set bridge --------------------------------------------------------------------


def test_from_set_example():
    assert core.from_set({1, 2, 4}) == P("2:0,1,1,0,1")


def test_sumset_examples():
    assert core.sumset((0, 1), (0, 2)) == (0, 1, 2, 3)
    assert core.sumset((0, 3, 7), (0,)) == (0, 3, 7)


def test_to_set_requires_base2():
    with pytest.raises(BaseMismatch):
        core.to_set(P("3:1"))


@given(st.sets(st.integers(0, 30)), st.sets(st.integers(0, 30)))
@settings(max_examples=200)
def test_product_matches_sumset(a, b):
    assert core.to_set(core.from_set(a)) == core.natset(a)
    if a and b:
        lhs = core.to_set(core.mul(core.from_set(a), core.from_set(b)))
        assert lhs == core.sumset(a, b)


# -- text and JSON forms --------------------------------------------------------------


def test_format_example():
    assert core.format_poly(P("2:0,1,1,0,1")) == "2:0,1,1,0,1"


def test_parse_rejects_trailing_zeros():
    with pytest.raises(NonCanonical):
        core.parse_poly("2:1,0")
    assert core.parse_poly("2:1,0", lenient=True) == P("2:1")


def test_parse_zero():
    assert core.parse_poly("2:").is_zero()
    assert core.format_poly(core.zero(2)) == "2:"


def test_parse_rejects_garbage():
    for bad in ("21,0", "x:1", "2:1,a"):
        with pytest.raises(NonCanonical):
            core.parse_poly(bad)


def test_json_round_trip():
    f = P("10:9,0,3")
    assert core.poly_from_json(core.poly_to_json(f)) == f
    assert core.poly_from_json(json.dumps(core.poly_to_json(f))) == f
    with pytest.raises(NonCanonical):
        core.poly_from_json({"base": 2, "coeffs": [1, 0]})


@given(polys())
@settings(max_examples=200)
def test_text_round_trip(f):
    assert core.parse_poly(core.format_poly(f)) == f
