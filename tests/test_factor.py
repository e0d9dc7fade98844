"""Residual division, classification and factorization listings."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxminpoly import core, factor
from maxminpoly.core import support_mask
from maxminpoly.errors import (
    BaseMismatch,
    DegreeTooLarge,
    ZeroDivisor,
    ZeroPolynomial,
)
from oracles import (
    all_nonzero_tuples,
    oracle_divisors,
    oracle_factorizations,
    oracle_first_witness,
    oracle_mul,
    oracle_reducible,
    product_table,
)

P = core.parse_poly


def nonzero_polys(bases=(2, 3, 5), max_len=7):
    def for_base(b):
        return st.lists(st.integers(0, b - 1), min_size=1, max_size=max_len).map(
            lambda cs: core.poly_new(b, cs)
        ).filter(lambda f: not f.is_zero())

    return st.sampled_from(bases).flatmap(for_base)


def nonzero_pairs(bases=(2, 3, 5), max_len=6):
    def for_base(b):
        coeffs = st.lists(st.integers(0, b - 1), min_size=1, max_size=max_len)
        return st.tuples(coeffs, coeffs).map(
            lambda t: (core.poly_new(b, t[0]), core.poly_new(b, t[1]))
        ).filter(lambda t: not t[0].is_zero() and not t[1].is_zero())

    return st.sampled_from(bases).flatmap(for_base)


# -- residual division -------------------------------------------------------


def test_divide_by_x_paper_example():
    assert factor.residual_divide(P("2:0,1,1,0,1"), P("2:0,1")) == P("2:1,1,0,1")


def test_divide_by_top_constant():
    h = P("3:1,2,0,1")
    assert factor.residual_divide(h, core.one(3)) == h


def test_divide_derived_base3_example():
    # brute force over all degree-1 quotients confirms 1+2x is the only one
    assert factor.residual_divide(P("3:1,2,1"), P("3:2,1")) == P("3:1,2")


def test_divide_returns_none_when_not_divisible():
    assert factor.residual_divide(P("2:1,0,1"), P("2:1,1")) is None


def test_divide_errors():
    with pytest.raises(ZeroDivisor):
        factor.residual_divide(P("2:1,1"), core.zero(2))
    with pytest.raises(ZeroPolynomial):
        factor.residual_divide(core.zero(2), P("2:1,1"))
    with pytest.raises(BaseMismatch):
        factor.residual_divide(P("2:1,1"), P("3:1,1"))
    with pytest.raises(DegreeTooLarge):
        factor.residual_divide(P("2:1,1"), P("2:1,1,1"))


def test_divides_examples():
    assert factor.divides(P("2:0,1"), P("2:0,1,1,0,1"))
    assert not factor.divides(P("2:1,1"), P("2:1,0,1"))
    assert factor.divides(core.one(2), P("2:1,0,1"))
    assert not factor.divides(P("2:1,1,1"), P("2:1,1"))


def test_divides_raises_what_residual_divide_raises():
    # divides(g, h) asks residual_divide(h, g); the checks come in its order,
    # and only a longer g is an answer (False) rather than an error
    zero2, zero3 = core.zero(2), core.zero(3)
    cases = (
        (zero2, zero2, ZeroDivisor),
        (zero2, P("3:1,1"), ZeroDivisor),
        (P("2:1,1"), zero3, ZeroPolynomial),
        (P("2:1,1"), P("3:1,1"), BaseMismatch),
        (P("2:1,1,1"), P("3:1,1"), BaseMismatch),
    )
    for g, h, error in cases:
        with pytest.raises(error):
            factor.residual_divide(h, g)
        with pytest.raises(error):
            factor.divides(g, h)
    with pytest.raises(DegreeTooLarge):
        factor.residual_divide(P("2:1,1"), P("2:1,1,1"))
    assert factor.divides(P("2:1,1,1"), P("2:1,1")) is False


@given(nonzero_pairs())
@settings(max_examples=300, deadline=None)
def test_residuation_maximality(pair):
    f, g = pair
    h = core.mul(f, g)
    q = factor.residual_divide(h, g)
    assert q is not None
    assert core.mul(q, g) == h
    # q dominates every exact quotient pointwise
    assert len(q.coeffs) == len(f.coeffs)
    assert all(qc >= fc for qc, fc in zip(q.coeffs, f.coeffs))


@pytest.mark.parametrize("b", (3, 10))
def test_residual_divide_long(b):
    rng = random.Random(b)
    f = [rng.randrange(b) for _ in range(299)] + [rng.randrange(1, b)]
    g = [rng.randrange(b) for _ in range(249)] + [rng.randrange(1, b)]
    h = oracle_mul(b, f, g)
    assert len(h) >= 512
    q = factor.residual_divide(core.MaxMinPoly(b, h), core.MaxMinPoly(b, tuple(g)))
    assert q is not None and oracle_mul(b, q.coeffs, g) == h
    assert all(qc >= fc for qc, fc in zip(q.coeffs, f))


# -- classification -----------------------------------------------------------


def test_classify_paper_example_irreducible():
    assert factor.classify_irreducible(P("2:0,1,1,0,1")).kind == factor.IRREDUCIBLE


def test_classify_reducible_with_witness():
    cls = factor.classify_irreducible(P("2:1,1,1"))
    assert cls.kind == factor.REDUCIBLE
    assert cls.witness.g == P("2:1,1")
    assert cls.witness.h == P("2:1,1")


def test_classify_monomial():
    assert factor.classify_irreducible(core.monomial(3, 2, 4)).kind == factor.MONOMIAL
    with pytest.raises(ZeroPolynomial):
        factor.classify_irreducible(core.zero(2))


def test_classify_agrees_with_oracle_small():
    for b, max_deg in ((2, 6), (3, 4)):
        reducible = oracle_reducible(b, max_deg)
        for coeffs in all_nonzero_tuples(b, max_deg):
            f = core.MaxMinPoly(b, coeffs)
            kind = factor.classify_irreducible(f).kind
            if sum(1 for c in coeffs if c) == 1:
                assert kind == factor.MONOMIAL
            elif coeffs in reducible:
                assert kind == factor.REDUCIBLE, coeffs
            else:
                assert kind == factor.IRREDUCIBLE, coeffs


def _search(b, h):
    """factor._classify_generic with the witness as coefficient tuples."""
    kind, wit = factor._classify_generic(b, h)
    return kind, wit and factor._witness_pair(h, wit)


def test_search_witness_is_first_oracle_factor():
    # the first factor in (deg, lex) order with deg <= deg h / 2, paired
    # with the pointwise max of its partners (the maximal quotient)
    for b, max_deg in ((2, 10), (3, 6), (4, 4), (5, 4)):
        table = product_table(b, max_deg)
        for coeffs in all_nonzero_tuples(b, max_deg):
            kind, wit = _search(b, coeffs)
            if b == 2 and kind != factor.MONOMIAL:
                assert factor._b2_reducible(support_mask(coeffs)) == (kind == factor.REDUCIBLE)
            pairs = table.get(coeffs)
            if pairs is None:
                assert wit is None
                continue
            assert kind == factor.REDUCIBLE
            half = (len(coeffs) - 1) // 2
            g = min((x for pair in pairs for x in pair if len(x) - 1 <= half), key=lambda x: (len(x), x))
            partners = [y for x, y in pairs if x == g] + [x for x, y in pairs if y == g]
            assert wit == (g, tuple(max(cs) for cs in zip(*partners))), coeffs


def _cap(b, h, i, df):
    """The cap of g_i for a divisor g of h with a degree-df quotient."""
    low, lead = h[0], h[-1]
    return min(h[i] if h[i] < low else b - 1, h[i + df] if h[i + df] < lead else b - 1)


def test_caps_hold_for_every_factor_pair():
    # no exact factor pair exceeds the caps of its product, with either
    # factor as the divisor, and the capped search reaches every divisor
    # of its degree range
    tight = 0
    for b, max_deg in ((2, 10), (3, 6), (4, 4), (5, 4)):
        for h, pairs in product_table(b, max_deg).items():
            divisors = set()
            for pair in pairs:
                for g, f in (pair, pair[::-1]):
                    caps = [_cap(b, h, i, len(f) - 1) for i in range(len(g))]
                    assert all(v <= cap for v, cap in zip(g, caps)), (h, g, f)
                    tight += any(0 < cap < b - 1 for cap in caps)
                    if h[0] and len(g) <= len(f):
                        divisors.add(g)
            for g in divisors:
                assert g in (d for d, q in factor._divisors(b, h, (len(g) - 1,))), (h, g)
    assert tight


def test_divisors_yield_every_exact_divisor_in_order():
    # the search yields, per degree, exactly the unpruned reference's
    # exact non-monomial divisors, in the same (lexicographic) order
    for b, max_deg in ((2, 10), (3, 6), (4, 4), (5, 4)):
        for h in product_table(b, max_deg):
            if not h[0]:
                continue
            want = list(oracle_divisors(b, h))
            for dg in range(1, (len(h) - 1) // 2 + 1):
                got = [(g, core._unpack(q, len(h), len(h) - dg)) for g, q in factor._divisors(b, h, (dg,))]
                assert got == [(g, q) for g, q in want if len(g) - 1 == dg], (h, dg)


def test_classification_reads_no_degree_past_its_witness():
    # the search pulls the degrees it is given one at a time and stops at
    # the first exact divisor
    pulled = []

    def recording(degrees):
        for dg in degrees:
            pulled.append(dg)
            yield dg

    early = 0
    for b, max_deg in ((2, 10), (3, 6)):
        for h in product_table(b, max_deg):
            top = (len(h) - 1 - core.order(core.MaxMinPoly(b, h))) // 2
            pulled.clear()
            kind, (g, q) = factor._classify_generic(b, h, recording(range(1, top + 1)))
            assert pulled == list(range(1, len(g))), h
            early += len(g) - 1 < top
    assert early


@pytest.mark.parametrize("h", (P("2:1,1,1,1,1,1,1"), P("10:9,8,9,9,8,9,9"), core.mul(P("10:9,5,9,7,9"), P("10:9,8,9,6,9"))))
def test_capped_listing_stops_at_its_last_cofactor(h, monkeypatch):
    # all_factorizations(h, max_results=1) reads one divisor and one of
    # its cofactors, and no more
    pulled = {"_divisors": 0, "_cofactors": 0}

    def recording(name):
        search = getattr(factor, name)

        def wrapper(*args):
            for item in search(*args):
                pulled[name] += 1
                yield item

        monkeypatch.setattr(factor, name, wrapper)

    recording("_divisors")
    recording("_cofactors")
    wits = factor.all_factorizations(h, max_results=1)
    assert len(wits) == 1
    assert pulled == {"_divisors": 1, "_cofactors": 1}


def test_heavy_base10_draw_is_irreducible():
    # a sampled b=10 n=32 draw that took 85 s before the caps
    h = P("10:8,1,4,2,6,6,8,2,6,3,6,3,3,8,9,5,2,5,8,3,8,5,5,6,5,4,3,5,6,4,3,2")
    assert factor.classify_irreducible(h).kind == factor.IRREDUCIBLE


def test_shift_puts_x_power_on_the_quotient():
    for b, max_deg in ((2, 7), (3, 4)):
        for coeffs in all_nonzero_tuples(b, max_deg):
            kind, wit = _search(b, coeffs)
            for t in (1, 3):
                shifted = _search(b, (0,) * t + coeffs)
                if wit is None:
                    assert shifted == (kind, None)
                else:
                    assert shifted == (kind, (wit[0], (0,) * t + wit[1]))


def _gapped(rng, b, deg):
    """A random degree-deg tuple with nonzero end terms and, from degree 2
    on, at least one interior zero."""
    c = [rng.randrange(b) for _ in range(deg + 1)]
    c[0], c[-1] = rng.randrange(1, b), rng.randrange(1, b)
    if deg >= 2:
        c[rng.randrange(1, deg)] = 0
    return tuple(c)


def _search_inputs(b, max_deg, count):
    """Seeded products of two gapped factors, times x^t for t up to 2, and
    every fourth input a random (mostly irreducible) tuple."""
    rng = random.Random(1000 * b + max_deg)
    for i in range(count):
        t = rng.randint(0, min(2, max_deg - 3))
        deg = rng.randint(3, max_deg - t)
        if i % 4 == 3:
            h = _gapped(rng, b, deg)
        else:
            dg = rng.randint(1, deg // 2)
            h = oracle_mul(b, _gapped(rng, b, dg), _gapped(rng, b, deg - dg))
        yield (0,) * t + h


@pytest.mark.parametrize("b, max_deg, count", ((2, 18, 400), (3, 12, 300), (4, 10, 200), (10, 7, 80)))
def test_search_matches_unpruned_reference(b, max_deg, count):
    # class and first witness against every divisor in (deg, lex) order
    # with plain residual division, so no pruning of the search can hide
    # the first exact divisor
    for h in _search_inputs(b, max_deg, count):
        kind, wit = _search(b, h)
        assert wit == oracle_first_witness(b, h), h
        assert kind == (factor.REDUCIBLE if wit else factor.IRREDUCIBLE), h


@pytest.mark.parametrize("b, max_deg", ((2, 16), (3, 10), (4, 8), (10, 6)))
def test_binomial_first_witness_matches_unpruned_reference(b, max_deg):
    # products with a binomial factor g0 + v*x^dg, whose search path fixes
    # g[0] and then only the lead, so the cover bound at the g[0] choice
    # alone decides whether it is reached
    rng = random.Random(7000 + b)
    binomial = gapped = 0
    for _ in range(120):
        t = rng.randint(0, 1)
        deg = rng.randint(2, max_deg - t)
        dg = rng.randint(1, deg // 2)
        g = (rng.randrange(1, b),) + (0,) * (dg - 1) + (rng.randrange(1, b),)
        h = (0,) * t + oracle_mul(b, g, _gapped(rng, b, deg - dg))
        want = oracle_first_witness(b, h)
        if want is None or core.nnz(core.MaxMinPoly(b, want[0])) != 2:
            continue
        binomial += 1
        gapped += len(want[0]) > 2
        assert _search(b, h) == (factor.REDUCIBLE, want), h
    assert binomial >= 60 and gapped >= 20


@pytest.mark.parametrize(
    "h",
    (
        # b=3: degree 4 is cut at the first of its two free positions,
        # degree 2 reaches the root test, and the witness has degree 6
        "3:2,2,2,1,2,1,2,2,2,1,2,1,2",
        # b=2, irreducible: degree 5 is cut at the first of its two free
        # positions, degree 1 reaches the root test
        "2:1,1,1,0,1,1,0,1,0,1,1",
    ),
)
def test_root_early_exit_matches_unpruned_reference(h):
    h = P(h)
    b, coeffs = h.base, h.coeffs
    want = oracle_first_witness(b, coeffs)
    assert _search(b, coeffs) == (factor.REDUCIBLE if want else factor.IRREDUCIBLE, want)
    got = [(w.g.coeffs, w.h.coeffs) for w in factor.all_factorizations(h)]
    assert got == oracle_factorizations(b, coeffs)


def _root_keep(b, digits, monkeypatch):
    """The degrees that the root test of _decide_rows keeps: its `back`
    when the chunk has too few rows to descend."""
    with monkeypatch.context() as patch:
        patch.setattr(factor, "DESCENT_ROWS", len(digits) + 1)
        reducible, keep = factor._decide_rows(b, digits)
    assert not reducible.any()
    return keep


@pytest.mark.parametrize("b, max_n", ((2, 12), (3, 7), (4, 6), (10, 4)))
def test_root_screen_cuts_only_degrees_without_a_divisor(b, max_n, monkeypatch):
    # every digit row of each length n: the root test keeps only degrees
    # the search tries, a degree it cuts has no exact divisor, and the
    # search on the kept degrees finds the same class and first witness
    cut = cut_shifted = 0
    for n in range(1, max_n + 1):
        rows = np.array(list(itertools.product(range(b), repeat=n)))
        keep = _root_keep(b, rows, monkeypatch)
        assert keep.shape == (len(rows), (n - 1) // 2)
        for row, kept in zip(rows.tolist(), keep.tolist()):
            nonzero = [k for k, v in enumerate(row) if v]
            if len(nonzero) < 2:  # the zero row and the monomials
                assert not any(kept), row
                continue
            stripped = tuple(row[nonzero[0] : nonzero[-1] + 1])
            top = (len(stripped) - 1) // 2
            assert not any(kept[top:]), row
            for dg in range(1, top + 1):
                if not kept[dg - 1]:
                    assert next(factor._divisors(b, stripped, (dg,)), None) is None, (row, dg)
                    cut += 1
                    cut_shifted += nonzero[0] > 0
            degrees = [dg for dg in range(1, top + 1) if kept[dg - 1]]
            h = core._trim(row)
            assert factor._classify_generic(b, h, degrees) == factor._classify_generic(b, h), row
    assert cut_shifted and cut


def _descent_agrees(b, digits, monkeypatch):
    """Checks the class that _decide_rows gives every row against the
    search on the degrees the root test kept, a row handed back by the
    search on the degrees it still has open; returns how many kept rows
    the descent decided and how many it handed back."""
    keep = _root_keep(b, digits, monkeypatch)
    reducible, back = factor._decide_rows(b, digits)
    assert not (back & ~keep).any() and not (back.any(axis=1) & reducible).any()
    decided = handed = 0
    for row, kept, red, open_ in zip(digits.tolist(), keep.tolist(), reducible.tolist(), back.tolist()):
        if not any(kept):
            assert not red, row
            continue
        h = core._trim(row)
        want = factor._classify_generic(b, h, [dg for dg, k in enumerate(kept, 1) if k])
        if any(open_):
            handed += 1
            got = factor._classify_generic(b, h, [dg for dg, k in enumerate(open_, 1) if k])
        else:
            decided += 1
            got = (factor.REDUCIBLE if red else factor.IRREDUCIBLE, None)
        assert got[0] == want[0], row
    return decided, handed


@pytest.mark.parametrize("b, max_n", ((2, 12), (3, 7), (4, 6), (10, 4)))
def test_descent_matches_the_search_on_every_row(b, max_n, monkeypatch):
    # every digit row of each length n, the descent run whatever the size
    monkeypatch.setattr(factor, "DESCENT_ROWS", 1)
    decided = 0
    for n in range(1, max_n + 1):
        decided += _descent_agrees(b, np.array(list(itertools.product(range(b), repeat=n))), monkeypatch)[0]
    assert decided


@pytest.mark.parametrize("exact_degree", (False, True))
@pytest.mark.parametrize("b, n", ((2, 28), (2, 64), (3, 20), (4, 16), (10, 8)))
def test_descent_matches_the_search_on_seeded_chunks(b, n, exact_degree, monkeypatch):
    rng = np.random.default_rng(100 * b + n)
    digits = rng.integers(0, b, size=(2048, n))
    if exact_degree:
        digits[:, -1] = rng.integers(1, b, size=2048)
    decided, _ = _descent_agrees(b, digits, monkeypatch)
    assert decided >= factor.DESCENT_ROWS


def test_descent_cut_offs_hand_rows_back(monkeypatch):
    b, n = 3, 20
    digits = np.random.default_rng(5).integers(0, b, size=(2048, n))
    keep = _root_keep(b, digits, monkeypatch)
    rows = int(np.count_nonzero(keep.any(axis=1)))
    # a chunk of DESCENT_ROWS kept rows is descended, one of fewer hands
    # back every kept row with the degrees the root test kept
    monkeypatch.setattr(factor, "DESCENT_ROWS", rows)
    reducible, back = factor._decide_rows(b, digits)
    assert reducible.any() and not back.any()
    monkeypatch.setattr(factor, "DESCENT_ROWS", rows + 1)
    reducible, back = factor._decide_rows(b, digits)
    assert not reducible.any() and (back == keep).all()
    # with two nodes a row and small slices, rows whose frontier grows
    # past two go back and the others are decided
    monkeypatch.setattr(factor, "DESCENT_ROWS", 1)
    monkeypatch.setattr(factor, "BLOCK_ROWS", 2 * rows)
    decided, handed = _descent_agrees(b, digits, monkeypatch)
    assert decided > handed > 0


def _block(b, n, rows, seed):
    """Seeded digit rows with a zero row and two monomials in front."""
    digits = np.random.default_rng(seed).integers(0, b, size=(rows, n))
    digits[:3] = 0
    digits[1, n // 2] = b - 1
    digits[2, 0] = 1
    return digits


def _count_agrees(b, digits, monkeypatch):
    """_count_irreducible of the rows against classify_irreducible of each
    nonzero row; returns what each _decide_rows call returned."""
    decide, decisions = factor._decide_rows, []

    def recorded(*args):
        decisions.append(decide(*args))
        return decisions[-1]

    want = sum(
        factor.classify_irreducible(core.MaxMinPoly(b, core._trim(row))).kind == factor.IRREDUCIBLE
        for row in digits.tolist()
        if any(row)
    )
    with monkeypatch.context() as patch:
        patch.setattr(factor, "_decide_rows", recorded)
        assert factor._count_irreducible(b, digits) == want
    return decisions


@pytest.mark.parametrize(
    "b, n, rows",
    # one row under SCREEN_DIGITS digits and at it; 64 digits fill a word
    # and 65 go past it
    ((10, 8, 39), (10, 8, 40), (2, 40, 7), (2, 40, 8), (2, 64, 24), (2, 65, 24), (3, 64, 8)),
)
def test_count_irreducible_matches_classification(b, n, rows, monkeypatch):
    screened = n <= core.WORD and rows * n >= factor.SCREEN_DIGITS
    assert len(_count_agrees(b, _block(b, n, rows, 10 * b + n), monkeypatch)) == screened


def test_count_irreducible_at_the_descent_cut_offs(monkeypatch):
    b, n = 3, 16
    digits = _block(b, n, 400, 7)
    keep = _root_keep(b, digits, monkeypatch)
    rows = int(np.count_nonzero(keep.any(axis=1)))
    # DESCENT_ROWS kept rows descend, fewer go back with their kept degrees
    monkeypatch.setattr(factor, "DESCENT_ROWS", rows)
    [(reducible, back)] = _count_agrees(b, digits, monkeypatch)
    assert reducible.any() and not back.any()
    monkeypatch.setattr(factor, "DESCENT_ROWS", rows + 1)
    [(reducible, back)] = _count_agrees(b, digits, monkeypatch)
    assert not reducible.any() and (back == keep).all()
    # with two nodes a row, rows whose frontier grows past two go back
    # with the degrees they still have open
    monkeypatch.setattr(factor, "DESCENT_ROWS", 1)
    monkeypatch.setattr(factor, "BLOCK_ROWS", 2 * rows)
    [(reducible, back)] = _count_agrees(b, digits, monkeypatch)
    assert reducible.any() and back.any()


@pytest.mark.parametrize("b, max_deg, count", ((2, 12, 60), (3, 8, 80), (4, 7, 60), (10, 4, 60)))
def test_all_factorizations_match_unpruned_reference(b, max_deg, count):
    for h in _search_inputs(b, max_deg, count):
        got = [(w.g.coeffs, w.h.coeffs) for w in factor.all_factorizations(core.MaxMinPoly(b, h))]
        assert got == oracle_factorizations(b, h), h


@given(nonzero_pairs())
@settings(max_examples=200, deadline=None)
def test_witness_is_valid(pair):
    f, g = pair
    if core.is_monomial(f) or core.is_monomial(g):
        return
    h = core.mul(f, g)
    cls = factor.classify_irreducible(h)
    assert cls.kind == factor.REDUCIBLE
    w = cls.witness
    assert core.mul(w.g, w.h) == h
    assert not core.is_monomial(w.g) and not core.is_monomial(w.h)
    key_g = (len(w.g.coeffs), w.g.coeffs)
    key_h = (len(w.h.coeffs), w.h.coeffs)
    assert key_g <= key_h


def test_monomial_cancellation_at_top_value():
    # (b-1) x^j cancels; smaller monomial coefficients do not in general
    b = 3
    m = core.monomial(b, b - 1, 2)
    seen = {}
    import itertools

    for cs in itertools.product(range(b), repeat=3):
        f = core.poly_new(b, cs)
        prod = core.mul(m, f).coeffs
        assert prod not in seen or seen[prod] == f, "cancellation failed"
        seen[prod] = f
    small = core.constant(3, 1)
    assert core.mul(small, core.constant(3, 1)) == core.mul(small, core.constant(3, 2))


# -- prime status ----------------------------------------------------------------


def test_prime_examples():
    assert factor.classify_prime(P("2:1,0,1")).kind == factor.PRIME
    status = factor.classify_prime(P("2:1,1,1"))
    assert status.kind == factor.COMPOSITE_CANDIDATE
    assert status.witness is not None
    status = factor.classify_prime(P("2:0,1,1,0,1"))
    assert status.kind == factor.NOT_CANDIDATE
    assert status.reason == factor.REASON_ZERO_CONSTANT


def test_prime_reasons():
    assert factor.candidate_reason(core.zero(3)) == factor.REASON_ZERO_POLY
    assert factor.candidate_reason(P("3:1,1")) == factor.REASON_MAX_BELOW
    assert factor.candidate_reason(P("3:0,2")) == factor.REASON_ZERO_CONSTANT
    assert factor.candidate_reason(P("3:1,2")) is None
    with pytest.raises(ZeroPolynomial):
        factor.classify_prime(core.zero(3))


def test_identity_constant_is_prime():
    # every factorization of the constant b-1 uses b-1 itself
    assert factor.classify_prime(core.one(5)).kind == factor.PRIME


def test_candidate_prime_iff_irreducible_small():
    for b, max_deg in ((2, 6), (3, 4)):
        for coeffs in all_nonzero_tuples(b, max_deg):
            f = core.MaxMinPoly(b, coeffs)
            status = factor.classify_prime(f)
            cls = factor.classify_irreducible(f)
            assert factor.prime_status(f, cls) == status
            if not factor.is_prime_candidate(f):
                assert status.kind == factor.NOT_CANDIDATE
                continue
            kind = cls.kind
            if kind == factor.REDUCIBLE:
                assert status.kind == factor.COMPOSITE_CANDIDATE
            else:
                assert status.kind == factor.PRIME


# -- factorization listings --------------------------------------------------------


def test_all_factorizations_examples():
    wits = factor.all_factorizations(P("2:1,1,1"))
    assert [(w.g, w.h) for w in wits] == [(P("2:1,1"), P("2:1,1"))]
    assert factor.all_factorizations(core.monomial(2, 1, 3)) == []
    assert factor.all_factorizations(P("2:0,1,1,0,1")) == []


def test_all_factorizations_truncates():
    h = P("2:1,1,1,1")
    full = factor.all_factorizations(h)
    assert len(full) >= 2
    assert factor.all_factorizations(h, max_results=1) == full[:1]


@pytest.mark.parametrize("max_results", (0, -1))
def test_all_factorizations_rejects_empty_cap(max_results):
    with pytest.raises(ValueError):
        factor.all_factorizations(P("2:1,1,1,1"), max_results=max_results)


def test_all_factorizations_matches_oracle_table():
    # the oracle lists each product's pairs in (deg g, g, f) order
    for b, max_deg in ((2, 7), (3, 5), (4, 4)):
        table = product_table(b, max_deg)
        for coeffs in all_nonzero_tuples(b, max_deg):
            h = core.MaxMinPoly(b, coeffs)
            got = [(w.g.coeffs, w.h.coeffs) for w in factor.all_factorizations(h)]
            assert got == table.get(coeffs, []), coeffs


# The first 64 factorizations of 10:9,8,9,9,8,9,9 as g*f digit strings, as
# listed by the brute-force cofactor enumeration that the pruned search
# replaced.
FIRST_64 = """
9009*9899 9019*9899 9029*9899 9039*9899 9049*9899 9059*9899 9069*9899 9079*9899
9089*9899 9099*9809 9099*9819 9099*9829 9099*9839 9099*9849 9099*9859 9099*9869
9099*9879 9099*9889 9109*9899 9119*9899 9129*9899 9139*9899 9149*9899 9159*9899
9169*9899 9179*9899 9189*9899 9199*9809 9199*9819 9199*9829 9199*9839 9199*9849
9199*9859 9199*9869 9199*9879 9199*9889 9209*9899 9219*9899 9229*9899 9239*9899
9249*9899 9259*9899 9269*9899 9279*9899 9289*9899 9299*9809 9299*9819 9299*9829
9299*9839 9299*9849 9299*9859 9299*9869 9299*9879 9299*9889 9309*9899 9319*9899
9329*9899 9339*9899 9349*9899 9359*9899 9369*9899 9379*9899 9389*9899 9399*9809
""".split()


@pytest.mark.parametrize(
    "h, first",
    (
        (P("10:9,8,9,9,8,9,9"), FIRST_64),
        (core.mul(P("10:9,5,9,7,9"), P("10:9,8,9,6,9")), None),
    ),
)
def test_all_factorizations_of_many_cofactor_inputs(h, first):
    # inputs whose divisors have thousands of candidate cofactors below
    # the maximal quotient
    wits = factor.all_factorizations(h, max_results=64)
    assert len(wits) == 64
    keys = [(len(w.g.coeffs), w.g.coeffs, w.h.coeffs) for w in wits]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for w in wits:
        assert core.mul(w.g, w.h) == h
        assert not core.is_monomial(w.g) and not core.is_monomial(w.h)
    assert wits == factor.all_factorizations(h)[:64]
    if first is not None:
        assert ["".join(map(str, w.g.coeffs)) + "*" + "".join(map(str, w.h.coeffs)) for w in wits] == first


def long_cofactor_product(b, digits):
    """(g, g*f) for g = (b-1)(1 + x), the only degree-1 divisor of g*f,
    and f the top digit, `digits` seeded digits and the top digit again."""
    rng = random.Random(3)
    g = core.MaxMinPoly(b, (b - 1, b - 1))
    f = core.MaxMinPoly(b, (b - 1, *(rng.randrange(b) for _ in range(digits)), b - 1))
    return g, core.mul(g, f)


def _first_cofactors(g, h, count):
    """The first `count` f with f*g == h in lex order, by the plain max-min
    product.  A prefix of f extends to such an f exactly when its
    completion at the maximal quotient q does, so the first f lowers each
    position of q, lowest first, as far as f*g == h still holds, and the
    next f raises the last position of the one before that allows it, puts
    the positions above back at q and lowers them again."""
    g, h, q = g.coeffs, h.coeffs, factor.residual_divide(h, g).coeffs
    last = len(q) - 1

    def exact(f, i, j):
        # f*g == h, given that it held before f[i..j] changed
        return all(
            max(min(v, f[k - m]) for m, v in enumerate(g) if 0 <= k - m <= last) == h[k] for k in range(i, j + len(g))
        )

    def lower(f, start):
        for i in range(start, last + 1):
            top = f[i]
            f[i] = next(v for v in range(i == last, top + 1) if v == top or exact(f[:i] + [v] + f[i + 1 :], i, i))
        return tuple(f)

    out = [lower(list(q), 0)]
    while len(out) < count:
        f = out[-1]
        i, v = next(
            (i, v)
            for i in range(last, -1, -1)
            for v in range(f[i] + 1, q[i] + 1)
            if exact([*f[:i], v, *q[i + 1 :]], i, last)
        )
        out.append(lower([*f[:i], v, *q[i + 1 :]], i + 1))
    return out


@pytest.mark.parametrize("b", (2, 3, 10))
def test_all_factorizations_of_long_cofactors(b):
    # the cofactor walk keeps its own stack: a cofactor of 1,502 digits
    # lists, where one interpreter frame per digit would overflow
    g, h = long_cofactor_product(b, 1500)
    wits = factor.all_factorizations(h, max_results=3)
    for w in wits:
        assert core.mul(w.g, w.h) == h
    keys = [(len(w.g.coeffs), w.g.coeffs, w.h.coeffs) for w in wits]
    assert all(x < y for x, y in zip(keys, keys[1:]))
    assert [(w.g, w.h.coeffs) for w in wits] == [(g, c) for c in _first_cofactors(g, h, 3)]


@given(nonzero_polys(max_len=6))
@settings(max_examples=150, deadline=None)
def test_all_factorizations_are_valid_and_ordered(h):
    wits = factor.all_factorizations(h)
    for w in wits:
        assert core.mul(w.g, w.h) == h
        assert not core.is_monomial(w.g) and not core.is_monomial(w.h)
    # strictly increasing (deg g, g, f) keys: ordered and deduplicated
    keys = [(len(w.g.coeffs), w.g.coeffs, w.h.coeffs) for w in wits]
    assert all(a < b for a, b in zip(keys, keys[1:]))
