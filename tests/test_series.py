"""Digit streams, occurrence counters and the truncation diagnostics."""

import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from maxminpoly import cli, core, series
from maxminpoly.errors import BaseMismatch, DigitOutOfRange, InsufficientSupport, WindowTooShort
from oracles import (
    naive_count_occurrences,
    naive_count_set,
    naive_count_window_set,
    naive_isolation,
    naive_window_invariant,
    oracle_mul,
)

P = core.parse_poly


def test_make_stream_and_validity():
    s = series.make_stream(3, [0, 1, 2, 0])
    assert s.valid_to == 4
    with pytest.raises(ValueError):
        series.make_stream(2, [0, 2])
    with pytest.raises(ValueError):
        series.DigitStream(2, (0, 1), 3)
    with pytest.raises(ValueError):
        series.DigitStream(2, (0, 2), 2)


@pytest.mark.parametrize(
    "digits, named",
    (
        ([1.5, 2.9], "1.5"),
        ([0, 1, 2.0], "2.0"),
        ([1, "2"], "'2'"),
        (np.array([1.5, 2.9]), "1.5"),
        (np.array([0.0, 1.0]), "0.0"),
    ),
)
def test_make_stream_rejects_non_integer_digits(digits, named):
    with pytest.raises(DigitOutOfRange, match=f"digit {named} is not an integer"):
        series.make_stream(3, digits)


def test_make_stream_accepts_integer_arrays_and_owns_them():
    arr = np.array([0, 1, 2, 1], dtype=np.int64)
    s = series.make_stream(3, arr)
    arr[0] = 2
    assert s.digits == (0, 1, 2, 1) and series.count_occurrences(s, (0, 1)) == 1
    assert series.make_stream(3, np.array([], dtype=float)).digits == ()
    assert series.make_stream(2, np.array([True, False])).digits == (1, 0)


def test_direct_stream_matches_made_stream():
    # equality, hashing and repr are those of the (base, digits, valid_to)
    # record, however the stream was built
    digits = tuple(random.Random(5).randrange(3) for _ in range(200))
    direct = series.DigitStream(3, digits, 150)
    made = series.make_stream(3, digits, 150)
    assert direct == made and hash(direct) == hash(made) and repr(direct) == repr(made)
    assert series.count_occurrences(direct, (0, 2)) == series.count_occurrences(made, (0, 2))
    assert series.t1_forbidden_scan(direct, 0) == series.t1_forbidden_scan(made, 0)
    assert series.support_stream(direct) == series.support_stream(made)
    assert series.support_stream(made).digits == tuple(int(d != 0) for d in digits)


@pytest.fixture
def streams_made(monkeypatch):
    """Every stream made while the test runs; reading DigitStream.digits
    (hash and repr read it too) fails meanwhile."""
    made = []
    init = series._init

    def recorded(stream, *args):
        init(stream, *args)
        made.append(stream)

    def built(stream):
        raise AssertionError("the digits tuple was built")

    monkeypatch.setattr(series, "_init", recorded)
    monkeypatch.setattr(series.DigitStream, "digits", property(built))
    return made


def test_stream_ops_leave_the_digit_tuple_unbuilt(tmp_path, streams_made):
    digits = (0, 1, 2, 0, 0, 1, 0, 0, 0, 2, 2, 1)
    path = tmp_path / "s.txt"
    path.write_text("3 12\n" + " ".join(map(str, digits)) + "\n")
    s = series.read_stream(path)
    t = series.make_stream(3, [1, 0, 2, 2, 0, 1, 1], 6)
    h1 = series.support_stream(s)
    g = P("3:1,0,2")
    z = series.z_set(g, 3)
    h = series.product_stream(s, g)
    assert h.array.tolist() == list(oracle_mul(3, digits, g.coeffs)[:12])
    assert series.product_stream(s, t).valid_to == 6
    assert not series.product_stream(s, core.zero(3)).array.any()
    assert series.random_stream(3, 5, seed=1).valid_to == 5
    assert series.count_occurrences(s, (0, 0)) == naive_count_occurrences(digits, (0, 0), 12) == 3
    assert series.count_set_occurrences(s, z) == naive_count_window_set(digits, (1, 0, 1), 12) == 1
    assert series.count_set_occurrences(s, [(0, 0, 1), (0, 0, 2)]) == 2
    assert series.t1_forbidden_scan(h1, 0) == 1 and not series.t1_isolation_check(h1, 0)
    assert series.t3_window_invariant(t, g, z)
    assert series.z_frequency_report(s, [(0, 1)]).occurrences == 2
    series.write_stream(tmp_path / "t.txt", t)
    assert series.read_stream(tmp_path / "t.txt").array.tolist() == [1, 0, 2, 2, 0, 1]
    assert len(streams_made) == 9 and all(s._digits is None for s in streams_made)


def test_series_scan_cli_leaves_the_digit_tuple_unbuilt(tmp_path, capsys, streams_made):
    path = tmp_path / "s.txt"
    path.write_text("2 10\n0 0 1 0 0 1 1 0 1 1\n")
    for mode in (["--pattern", "0,1"], ["--t1", "0"], ["--t1", "2"], ["--z-from", "2:1,1,0,1,1,1"]):
        assert cli.main(["series-scan", "--file", str(path), *mode]) == 0, capsys.readouterr().err
    # one stream read per mode, and the support stream of each --t1 scan
    assert len(streams_made) == 6 and all(s._digits is None for s in streams_made)


@pytest.mark.parametrize("b", (2, 3, 10, 256))
def test_array_streams_match_tuple_streams(b):
    rng = random.Random(b)
    cases = [((), 0), ((b - 1,), 0), ((0, 0, 0), 3)]
    for _ in range(25):
        digits = tuple(rng.randrange(b) if rng.random() < 0.7 else 0 for _ in range(rng.randint(1, 90)))
        cases.append((digits, rng.randint(0, len(digits))))
    for digits, valid_to in cases:
        direct = series.DigitStream(b, digits, valid_to)
        made = series.make_stream(b, np.array(digits, dtype=np.int64), valid_to)
        for s in (direct, made):
            assert s.digits == digits and s.array.tolist() == list(digits)
            assert hash(s) == hash((b, digits, valid_to))
            assert repr(s) == f"DigitStream(base={b}, digits={digits!r}, valid_to={valid_to})"
            assert pickle.loads(pickle.dumps(s)) == s
        assert direct == made and made != (b, digits, valid_to)
        if digits:
            changed = digits[:-1] + ((digits[-1] + 1) % b,)
            assert made != series.make_stream(b, changed, valid_to)
        if valid_to:
            assert made != series.make_stream(b, digits, valid_to - 1)
        n = valid_to
        h1 = series.support_stream(made)
        assert h1.digits == tuple(int(d != 0) for d in digits) and h1.valid_to == n
        for k in {1, 2, 3}:
            if k <= n:
                start = rng.randrange(n - k + 1)
                patterns = {digits[start : start + k], tuple(rng.randrange(b) for _ in range(k)), (b - 1,) * k, (b,) * k}
                for pattern in patterns:
                    assert series.count_occurrences(made, pattern) == naive_count_occurrences(digits, pattern, n)
                assert series.count_set_occurrences(made, patterns) == naive_count_set(digits, patterns, n)
                prefix = tuple(rng.randrange(2) for _ in range(k))
                z = series.ZWindowSet(prefix, k, sum(prefix))
                assert series.count_set_occurrences(made, z) == naive_count_window_set(digits, prefix, n)
        for m in range(3):
            if 2 * m + 3 <= n:
                forbidden = (0,) * (m + 1) + (1,) + (0,) * (m + 1)
                assert series.t1_forbidden_scan(h1, m) == naive_count_occurrences(h1.digits, forbidden, n)
            assert series.t1_isolation_check(h1, m) == naive_isolation(h1.digits, m, n)
        # products: by a polynomial (zero included) and by a stream of another length
        other_digits = tuple(rng.randrange(b) for _ in range(rng.randint(0, 120)))
        other = series.make_stream(b, other_digits, rng.randint(0, len(other_digits)))
        polys = (core.zero(b), core.poly_new(b, [0, 0, b - 1]), core.poly_new(b, [rng.randrange(1, b) for _ in range(5)]))
        for g in (*polys, other):
            if isinstance(g, core.MaxMinPoly):
                gd, out = g.coeffs, n
            else:
                gd, out = g.digits[: g.valid_to], min(n, g.valid_to)
            h = series.product_stream(made, g)
            full = oracle_mul(b, digits[:n], gd) if gd and n else ()
            assert h.digits == (full + (0,) * out)[:out] and h.valid_to == out and h.array.dtype == np.uint8
            # the family built from g always holds; an arbitrary one need not
            if isinstance(g, core.MaxMinPoly) and core.nnz(g) and out:
                r = min(out, core.degree(g) + 1)
                prefix = tuple(rng.randrange(2) for _ in range(r))
                for z in (series.z_set(g, r), series.ZWindowSet(prefix, r, sum(prefix))):
                    assert series.t3_window_invariant(made, g, z) == naive_window_invariant(digits, h.digits, z)


def test_random_stream_deterministic():
    a = series.random_stream(5, 100, seed=11)
    b = series.random_stream(5, 100, seed=11)
    assert a == b and all(0 <= d < 5 for d in a.digits)


# -- products --------------------------------------------------------------------


def test_product_with_identity_constant_keeps_stream():
    f = series.random_stream(4, 64, seed=2)
    h = series.product_stream(f, core.one(4))
    assert h.digits == f.digits and h.valid_to == f.valid_to


def test_product_with_x_shifts():
    f = series.make_stream(2, [1, 1, 0, 1])
    h = series.product_stream(f, P("2:0,1"))
    assert h.digits == (0, 1, 1, 0)
    assert h.valid_to == 4


def test_product_matches_convolution_oracle():
    rng = random.Random(5)
    for _ in range(50):
        b = rng.choice([2, 3, 7])
        f = series.make_stream(b, [rng.randrange(b) for _ in range(40)])
        g = core.poly_new(b, [rng.randrange(b) for _ in range(rng.randint(1, 6))])
        h = series.product_stream(f, g)
        full = oracle_mul(b, f.digits, g.coeffs)
        padded = full + (0,) * (h.valid_to - len(full))
        assert h.digits == padded[: h.valid_to]


def test_stream_times_stream():
    f = series.make_stream(3, [1, 2, 0, 1, 2])
    g = series.make_stream(3, [2, 0, 1])
    h = series.product_stream(f, g)
    assert h.valid_to == 3
    full = oracle_mul(3, f.digits, g.digits)
    assert h.digits == tuple(full[:3])


def test_stream_times_stream_truncated_on_both_sides():
    rng = random.Random(8)
    for _ in range(40):
        b = rng.choice([2, 3, 10])
        fd, gd = ([rng.randrange(b) for _ in range(rng.randint(2, 60))] for _ in range(2))
        f = series.make_stream(b, fd, rng.randrange(1, len(fd)))
        g = series.make_stream(b, gd, rng.randrange(1, len(gd)))
        h = series.product_stream(f, g)
        n = min(f.valid_to, g.valid_to)
        full = oracle_mul(b, f.digits, g.digits)
        assert h.valid_to == n
        assert h.digits == (full + (0,) * n)[:n]


def test_product_base_mismatch():
    with pytest.raises(BaseMismatch):
        series.product_stream(series.make_stream(2, [1]), P("3:1"))


# -- counting --------------------------------------------------------------------


def test_count_occurrences_examples():
    s = series.make_stream(2, [0, 1, 0, 1])
    assert series.count_occurrences(s, (0, 1)) == 2
    assert series.count_occurrences(s, (0, 1, 0, 1)) == 1
    with pytest.raises(WindowTooShort):
        series.count_occurrences(s, (0,) * 5)
    with pytest.raises(WindowTooShort):
        series.count_occurrences(s, ())


def test_counters_match_naive_rescan():
    rng = random.Random(7)
    for _ in range(60):
        b = rng.choice([2, 3])
        digits = [rng.randrange(b) for _ in range(rng.randint(10, 120))]
        s = series.make_stream(b, digits)
        k = rng.randint(1, 4)
        pattern = [rng.randrange(b) for _ in range(k)]
        assert series.count_occurrences(s, pattern) == naive_count_occurrences(
            digits, pattern, s.valid_to
        )


def _truncated_streams(rng, count):
    """Random streams whose digits run past valid_to; a copy of the valid
    prefix follows it, so a scan that reads past valid_to sees more matches."""
    for _ in range(count):
        b = rng.choice([2, 3, 10, 16])
        head = [rng.randrange(b) for _ in range(rng.randint(1, 150))]
        yield series.make_stream(b, head + head[: rng.randint(1, len(head))], len(head))


def test_scans_match_naive_rescans():
    rng = random.Random(17)
    for s in _truncated_streams(rng, 120):
        d, n = s.digits, s.valid_to
        for k in {1, min(n, 3), max(1, n // 2), n}:
            start = rng.randrange(n - k + 1)
            for pattern in (d[start : start + k], [rng.randrange(s.base) for _ in range(k)], [0] * k):
                assert series.count_occurrences(s, pattern) == naive_count_occurrences(d, pattern, n)
        h1 = series.support_stream(s)
        assert h1.digits == tuple(1 if x else 0 for x in d) and h1.valid_to == n
        for m in range(5):
            if 2 * m + 3 <= n:
                forbidden = (0,) * (m + 1) + (1,) + (0,) * (m + 1)
                assert series.t1_forbidden_scan(h1, m) == naive_count_occurrences(h1.digits, forbidden, n)
            assert series.t1_isolation_check(h1, m) == naive_isolation(h1.digits, m, n)
        for r in {1, min(n, 4), n}:
            prefix = tuple(rng.randrange(2) for _ in range(r))
            z = series.ZWindowSet(prefix, r, sum(prefix))
            assert series.count_set_occurrences(s, z) == naive_count_window_set(d, prefix, n)


def test_isolation_holds_and_fails_on_nonzero_runs():
    # pairs of nonzero digits three apart, the last pair cut by valid_to
    digits = [1, 0, 0, 2, 0, 0, 0, 0, 0, 3, 0, 0, 1, 0, 0, 0, 0, 0, 4]
    s = series.make_stream(5, digits, 13)
    assert series.t1_isolation_check(s, 3) and naive_isolation(digits, 3, 13)
    assert not series.t1_isolation_check(s, 2) and not naive_isolation(digits, 2, 13)
    # a lone 1 is checked at the last position that sees m digits ahead, not after it
    assert not series.t1_isolation_check(series.make_stream(2, [0] * 7 + [1, 0, 0]), 2)
    assert series.t1_isolation_check(series.make_stream(2, [0] * 8 + [1, 0]), 2)
    # the first lone 1 sits past the first few thousand positions
    late = series.make_stream(2, [1] * 5000 + [0, 0, 0, 1, 0, 0, 0] + [1] * 10)
    assert not series.t1_isolation_check(late, 2) and series.t1_isolation_check(late, 4)
    dense = series.make_stream(7, [random.Random(3).randrange(1, 7) for _ in range(500)], 480)
    assert all(series.t1_isolation_check(dense, m) for m in range(1, 6))
    assert not series.t1_isolation_check(dense, 0)


def test_isolation_window_counts_do_not_wrap():
    # full windows of 2m + 1 ones: 257 and 65537 are 1 modulo 2^8 and 2^16
    assert series.t1_isolation_check(series.make_stream(2, [1] * 1000), 128)
    assert series.t1_isolation_check(series.make_stream(2, [1] * 70_000), 32_768)


def test_count_set_all_strings_covers_every_window():
    import itertools

    s = series.random_stream(2, 50, seed=3)
    z = [p for p in itertools.product(range(2), repeat=3)]
    assert series.count_set_occurrences(s, z) == 50 - 3 + 1
    assert series.count_set_occurrences(s, []) == 0


def test_window_set_membership_matches_enumeration():
    import itertools

    z = series.z_set(P("3:1,0,2,1"), 4)
    s = series.random_stream(3, 200, seed=9)
    explicit = [
        w for w in itertools.product(range(3), repeat=4) if z.contains(w)
    ]
    assert len(explicit) == z.size(3)
    assert series.count_set_occurrences(s, z) == series.count_set_occurrences(s, explicit)


# -- forbidden-string scans --------------------------------------------------------


def test_t1_literal_match():
    s = series.make_stream(2, [0, 0, 1, 0, 0])
    assert series.t1_forbidden_scan(s, 1) == 1


def test_t1_all_ones_has_no_match():
    s = series.make_stream(2, [1] * 40)
    assert series.t1_forbidden_scan(s, 2) == 0


def test_t1_guaranteed_zero_for_products():
    rng = random.Random(13)
    for b in (2, 5):
        for _ in range(30):
            f = series.make_stream(b, [rng.randrange(b) for _ in range(256)])
            width = rng.randint(2, 5)
            coeffs = [0] * width
            coeffs[0] = rng.randrange(1, b)
            coeffs[-1] = rng.randrange(1, b)
            g = core.poly_new(b, coeffs)
            h1 = series.support_stream(series.product_stream(f, g))
            m = core.degree(g)
            assert series.t1_forbidden_scan(h1, m) == 0
            assert series.t1_isolation_check(h1, m)


def test_t1_isolation_examples():
    assert not series.t1_isolation_check(series.make_stream(2, [0, 0, 1, 0, 0, 0]), 1)
    assert series.t1_isolation_check(series.make_stream(2, [0] * 10), 3)


# -- interval-count bounds -----------------------------------------------------------


def test_t2_exact_value():
    bound = series.t2_measure_bound(2, 10)
    assert bound.lhs == Fraction(254, 1024)


def test_t2_value_n25():
    bound = series.t2_measure_bound(2, 25)
    assert float(bound.lhs) == pytest.approx(0.0862, abs=5e-4)
    assert bound.lhs ** 5 <= series._t2_rhs_fifth_power(2, 25)


def test_t2_ratio_below_one():
    for b in range(2, 11):
        assert series.t2_ratio(b) < 1
        assert Fraction(97, 50) ** 5 * (b - 1) < b**5


def test_t2_chain_check_sample():
    for b in (2, 3, 10):
        for n in (5, 17, 60):
            assert series.t2_chain_check(b, n)


def test_t2_partial_sums_stabilize():
    sums = series.t2_partial_sums(2, 2000)
    assert abs(sums[-1] - sums[-2]) < 1e-12
    assert sums[0] == pytest.approx(0.97)


# -- window families ------------------------------------------------------------------


def test_choose_k_values():
    assert series.choose_k(2) == 4
    assert series.choose_k(10) == 22
    assert series.choose_k(3) == 6  # (2/3)^6 = 64/729 < 1/10 <= (2/3)^5


def test_choose_r():
    g = P("2:1,0,1,1,0,1")
    assert series.choose_r(g, 1) == 1
    assert series.choose_r(g, 3) == 4
    with pytest.raises(InsufficientSupport):
        series.choose_r(g, 5)


def test_z_set_size_example():
    z = series.z_set(P("2:1,1,1,1,0,0,1"), 6)
    assert (z.r, z.k) == (6, 4)
    assert z.size(2) == 4
    assert z.expected_frequency(2) == Fraction(1, 16)


def test_window_invariant_hand_case():
    f = series.make_stream(2, [1] + [0] * 9)
    g = P("2:1,0,1")
    z = series.z_set(g, 3)
    assert z.contains((1, 0, 1))
    assert series.t3_window_invariant(f, g, z)


def test_window_invariant_random_instances():
    rng = random.Random(21)
    for _ in range(40):
        b = rng.choice([2, 3, 10])
        f = series.make_stream(b, [rng.randrange(b) for _ in range(120)])
        k = series.choose_k(b)
        coeffs = [rng.randrange(1, b) if rng.random() < 0.8 else 0 for _ in range(k + 8)]
        coeffs[-1] = b - 1
        g = core.poly_new(b, coeffs)
        if core.nnz(g) < k:
            continue
        r = series.choose_r(g, k)
        z = series.z_set(g, r)
        assert series.t3_window_invariant(f, g, z)


def test_window_invariant_vacuous_on_zero_stream():
    f = series.make_stream(2, [0] * 20)
    g = P("2:1,1")
    assert series.t3_window_invariant(f, g, series.z_set(g, 2))


def test_frequency_report_all_strings():
    import itertools

    s = series.random_stream(3, 500, seed=4)
    z = list(itertools.product(range(3), repeat=2))
    rep = series.z_frequency_report(s, z)
    assert rep.empirical == 1.0
    assert rep.normal_expectation == 1.0


@pytest.mark.parametrize("b, r", ((2, 3), (3, 2), (10, 1)))
def test_frequency_report_drops_impossible_windows(b, r):
    import itertools

    s = series.random_stream(b, 300, seed=b)
    every = list(itertools.product(range(b), repeat=r))
    # a window with a digit outside 0..b-1 never occurs and is not expected
    for impossible in ((b,) * r, (0,) * (r - 1) + (b + 5,)):
        rep = series.z_frequency_report(s, every + [impossible])
        assert (rep.normal_expectation, rep.empirical) == (1.0, 1.0)
        assert series.count_set_occurrences(s, every + [impossible]) == rep.windows == 300 - r + 1
    rep = series.z_frequency_report(series.make_stream(3, [0, 1, 2, 0]), [(0,), (1,), (2,), (7,)])
    assert (rep.normal_expectation, rep.empirical) == (1.0, 1.0)


def test_explicit_window_sets_are_checked_alike():
    s = series.make_stream(3, [0, 1, 2, 0])
    for windows, error in (
        ([(0,), (1, 2)], ValueError),
        ([()], WindowTooShort),
        ([(0, 1, 2, 0, 1)], WindowTooShort),
    ):
        with pytest.raises(error):
            series.count_set_occurrences(s, windows)
        with pytest.raises(error):
            series.z_frequency_report(s, windows)
    assert series.count_set_occurrences(s, []) == 0
    with pytest.raises(ValueError):
        series.z_frequency_report(s, [])


def test_frequency_report_single_string():
    s = series.random_stream(3, 100_000, seed=8)
    rep = series.z_frequency_report(s, [(0, 2)])
    assert rep.normal_expectation == pytest.approx(1 / 9)
    assert rep.empirical == pytest.approx(1 / 9, abs=0.01)


def test_frequency_report_product_construction_beats_expectation():
    # dense support forces window-family hits well above the
    # equidistribution value
    b = 2
    f = series.random_stream(b, 4000, seed=5)
    g = P("2:1,1,1,1")
    k = series.choose_k(b)
    r = series.choose_r(g, k)
    z = series.z_set(g, r)
    h = series.product_stream(f, g)
    rep = series.z_frequency_report(h, z)
    assert rep.normal_expectation < 1 / 10
    assert rep.empirical >= 1 / 10


# -- stream files ------------------------------------------------------------------


def test_stream_file_round_trip(tmp_path):
    s = series.random_stream(7, 64, seed=6)
    path = tmp_path / "stream.txt"
    series.write_stream(path, s)
    back = series.read_stream(path)
    assert back == s
    assert path.read_text().splitlines()[0] == "7 64"


def test_stream_file_keeps_only_the_valid_prefix(tmp_path):
    s = series.make_stream(2, [0, 0, 1, 0, 0, 1, 1, 1], valid_to=5)
    path = tmp_path / "stream.txt"
    series.write_stream(path, s)
    back = series.read_stream(path)
    assert path.read_text() == "2 5\n0 0 1 0 0\n"
    assert back == series.make_stream(2, [0, 0, 1, 0, 0])
    assert series.count_occurrences(back, (1, 1)) == series.count_occurrences(s, (1, 1)) == 0


def test_stream_file_length_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 5\n0 1 0\n")
    with pytest.raises(ValueError):
        series.read_stream(path)


@pytest.mark.parametrize("b", (16, 256))
def test_stream_file_round_trip_multi_character_digits(tmp_path, b):
    s = series.random_stream(b, 300, seed=b)
    path = tmp_path / "stream.txt"
    series.write_stream(path, s)
    assert series.read_stream(path) == s


def test_stream_file_round_trip_empty(tmp_path):
    s = series.make_stream(3, [])
    path = tmp_path / "empty.txt"
    series.write_stream(path, s)
    assert series.read_stream(path) == s


def test_stream_file_spacing_is_free(tmp_path):
    path = tmp_path / "spaced.txt"
    path.write_text("3 4\n 0  1\t2 0 \n")
    assert series.read_stream(path).digits == (0, 1, 2, 0)


@pytest.mark.parametrize(
    "body",
    (
        "3 4\n0 1 0\n",
        "3 2\n0 1 0\n",
        "3 3\n0 3 1\n",
        "10 3\n0 12 1\n",
        "3 3\n0 -1 1\n",
        "3 3\n0 x 1\n",
        "3 3\n0 1.0 1\n",
        "16 3\n0 : 1\n",
        "3 2\n1,2\n",
        "3\n0 1 1\n",
    ),
)
def test_stream_file_rejects_malformed(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(ValueError):
        series.read_stream(path)


@pytest.mark.parametrize(
    "body, position",
    ((b"3 3\n0 \xc3\xa9 1\n", 6), (b"3 3\r\n0 \xff 1\r\n", 7), (b"3\xff 3\n0 1 1\n", 1), (b"3 3\n0 1 1\n\xff\n", 10)),
)
def test_stream_file_non_ascii_byte_names_its_file_offset(tmp_path, body, position):
    path = tmp_path / "bad.txt"
    path.write_bytes(body)
    byte = body[position : position + 1]
    message = f"'ascii' codec can't decode byte {byte[0]:#x} in position {position}: ordinal not in range(128)"
    with pytest.raises(UnicodeDecodeError) as exc:
        series.read_stream(path)
    assert str(exc.value) == message
