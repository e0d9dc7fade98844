"""Finite-truncation diagnostics for power series over max-min semirings.

A DigitStream is a truncated digit sequence together with valid_to, the
count of leading digits that are exact for derived products.  Since the
n-th product digit depends only on input digits at indices <= n, the
product of a stream with a finite polynomial keeps every truncated digit
exact; scans never read past the valid prefix, which keeps truncation
boundaries from producing false matches.

Occurrence counting is overlapping sliding-window counting throughout,
and window frequencies are reported against the window count, so a set
containing every length-r window has empirical frequency exactly 1.

A DigitStream stores its digits once, as a read-only numpy uint8 array
(DigitStream.array), and every scan, product and file write reads that
array.  DigitStream.digits is the same digits as a tuple of ints, built on
first read and then kept; equality, hashing and repr are those of the
(base, digits, valid_to) record.  Streams are validated and converted in
one vectorized step (make_stream, random_stream, read_stream, which parses
a line of single-digit tokens as bytes, and a DigitStream built directly
from a digit sequence), and products come back from the level-plane kernel
as bytes, so a long stream never holds one int object per digit unless a
caller reads digits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .core import MaxMinPoly, _pack, _terms, _times, _unpack_bytes, check_base
from .errors import BaseMismatch, DigitOutOfRange, InsufficientSupport, WindowTooShort


class DigitStream:
    """base-b digits, of which the first valid_to are exact.

    DigitStream(base, digits, valid_to) validates the base, every digit and
    valid_to.  `array` is the read-only uint8 array of the digits, the one
    stored form; `digits` is the same digits as a tuple of ints, built on
    first read.  Streams are immutable.
    """

    __slots__ = ("base", "array", "valid_to", "_digits")

    def __init__(self, base: int, digits: Iterable[int], valid_to: int) -> None:
        _init(self, base, _digit_array(base, digits), valid_to)

    @property
    def digits(self) -> tuple[int, ...]:
        """The digits as a tuple of ints, built on first read and then kept."""
        if self._digits is None:
            object.__setattr__(self, "_digits", tuple(self.array.tolist()))
        return self._digits

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base, self.valid_to) == (other.base, other.valid_to) and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.base, self.digits, self.valid_to))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(base={self.base!r}, digits={self.digits!r}, valid_to={self.valid_to!r})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (_stream, (self.base, self.array, self.valid_to))


def _init(stream: DigitStream, b: int, arr: np.ndarray, valid_to: int) -> None:
    """Set the fields of a new stream over the uint8 digit array `arr`."""
    check_base(b)
    if not 0 <= valid_to <= len(arr):
        raise ValueError("valid_to must lie within the digit buffer")
    arr.flags.writeable = False
    for name, value in (("base", b), ("array", arr), ("valid_to", valid_to), ("_digits", None)):
        object.__setattr__(stream, name, value)


def _stream(b: int, arr: np.ndarray, valid_to: int) -> DigitStream:
    """A stream over `arr`, a uint8 array of base-b digits that it keeps."""
    stream = DigitStream.__new__(DigitStream)
    _init(stream, b, arr, valid_to)
    return stream


def _digit_array(b: int, digits: Iterable[int]) -> np.ndarray:
    """The digits as a uint8 array of their own; DigitOutOfRange names the
    first non-integer digit and ValueError the first outside 0..b-1."""
    check_base(b)
    if not (isinstance(digits, np.ndarray) and digits.dtype.kind in "biu"):
        seq = digits.tolist() if isinstance(digits, np.ndarray) else digits
        seq = seq if isinstance(seq, (list, tuple)) else list(seq)
        try:
            digits = np.frombuffer(bytes(seq), np.uint8)
        except (TypeError, ValueError):  # a non-integer, or outside one octet
            for d in seq:
                if not isinstance(d, numbers.Integral):
                    raise DigitOutOfRange(f"digit {d!r} is not an integer") from None
            digits = np.array(seq, dtype=object)
    bad = (digits < 0) | (digits >= b)
    if bad.any():
        raise ValueError(f"digit {digits[bad.argmax()]} out of range for base {b}")
    return digits.astype(np.uint8)


def _prefix(stream: DigitStream) -> np.ndarray:
    """uint8 view of the valid prefix, the only digits a scan reads."""
    return stream.array[: stream.valid_to]


def make_stream(b: int, digits: Iterable[int], valid_to: int | None = None) -> DigitStream:
    arr = _digit_array(b, digits)
    return _stream(b, arr, len(arr) if valid_to is None else valid_to)


def random_stream(b: int, length: int, seed: int) -> DigitStream:
    """iid uniform digits from the seeded PCG64 generator."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return _stream(b, rng.integers(0, b, size=length).astype(np.uint8), length)


def support_stream(stream: DigitStream) -> DigitStream:
    """Base-2 indicator stream of the nonzero digits."""
    return _stream(2, (stream.array != 0).view(np.uint8), stream.valid_to)


def product_stream(f: DigitStream, g: Union[MaxMinPoly, DigitStream]) -> DigitStream:
    """Max-min product; output digits are exact up to the returned valid_to."""
    if f.base != g.base:
        raise BaseMismatch(f"bases differ: {f.base} vs {g.base}")
    if isinstance(g, MaxMinPoly):
        n_out = f.valid_to
        gd = bytes(g.coeffs[:n_out])
    else:
        n_out = min(f.valid_to, g.valid_to)
        gd = _prefix(g)[:n_out].tobytes()
    if not gd:  # a zero factor, or nothing exact
        return _stream(f.base, np.zeros(n_out, np.uint8), n_out)
    fd = f.array[:n_out]
    # the first n_out digits of the product, packed at its full length
    width = n_out + len(gd) - 1
    packed = _times(_pack(int(fd.max()) + 1, fd, width), _terms(gd, width))
    return _stream(f.base, np.frombuffer(_unpack_bytes(packed, width, n_out), np.uint8), n_out)


# -- occurrence counting -------------------------------------------------------


def count_occurrences(stream: DigitStream, s: Sequence[int]) -> int:
    """Overlapping occurrences of the digit string s in the valid prefix."""
    k = len(s)
    if k < 1:
        raise WindowTooShort("pattern must be nonempty")
    if k > stream.valid_to:
        raise WindowTooShort(f"pattern of length {k} exceeds valid prefix {stream.valid_to}")
    d = _prefix(stream)
    windows = len(d) - k + 1
    # windows that still match, narrowed one pattern digit at a time
    match = d[:windows] == s[0]
    for j in range(1, k):
        if not match.any():
            break
        match &= d[j : j + windows] == s[j]
    return int(np.count_nonzero(match))


@dataclass(frozen=True, slots=True)
class ZWindowSet:
    """Length-r windows whose digits are nonzero wherever g1_prefix is 1.

    There are (b-1)^k * b^(r-k) such windows; membership is tested per
    window in O(r) instead of materializing them.
    """

    g1_prefix: tuple[int, ...]
    r: int
    k: int

    def __post_init__(self) -> None:
        if len(self.g1_prefix) != self.r:
            raise ValueError("prefix length must equal the window length")
        if sum(1 for x in self.g1_prefix if x) != self.k:
            raise ValueError("k must count the ones of the prefix")

    def contains(self, window: Sequence[int]) -> bool:
        if len(window) != self.r:
            return False
        for flag, digit in zip(self.g1_prefix, window):
            if flag and digit == 0:
                return False
        return True

    def size(self, b: int) -> int:
        return (b - 1) ** self.k * b ** (self.r - self.k)

    def expected_frequency(self, b: int) -> Fraction:
        return Fraction(self.size(b), b**self.r)


def _members(z: ZWindowSet, nonzero: np.ndarray, windows: int) -> np.ndarray:
    """Which of the first `windows` length-r windows lie in z, given which
    digits are nonzero (len(nonzero) >= windows + r - 1)."""
    ok = np.ones(windows, dtype=bool)
    for j, flag in enumerate(z.g1_prefix):
        if flag:
            ok &= nonzero[j : j + windows]
    return ok


def count_set_occurrences(stream: DigitStream, z: Union[ZWindowSet, Iterable[Sequence[int]]]) -> int:
    """Total overlapping occurrences of every window in z."""
    if isinstance(z, ZWindowSet):
        r = z.r
        if r > stream.valid_to:
            raise WindowTooShort(f"window length {r} exceeds valid prefix {stream.valid_to}")
        return int(np.count_nonzero(_members(z, _prefix(stream) != 0, stream.valid_to - r + 1)))
    patterns = [tuple(p) for p in z]
    if not patterns:
        return 0
    lengths = {len(p) for p in patterns}
    if len(lengths) != 1:
        raise ValueError("all windows in an explicit set must share one length")
    (r,) = lengths
    if r < 1:
        raise WindowTooShort("windows must be nonempty")
    if r > stream.valid_to:
        raise WindowTooShort(f"window length {r} exceeds valid prefix {stream.valid_to}")
    # a window is r digits in 0..b-1, so no other pattern can match it
    digit = range(stream.base)
    pats = {bytes(map(int, p)) for p in patterns if all(x in digit for x in p)}
    d = _prefix(stream).tobytes()
    return sum(1 for start in range(stream.valid_to - r + 1) if d[start : start + r] in pats)


# -- forbidden-string diagnostics ----------------------------------------------


def t1_forbidden_scan(h1: DigitStream, m: int) -> int:
    """Occurrences of the string 0^(m+1) 1 0^(m+1) in the valid prefix."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    pattern = (0,) * (m + 1) + (1,) + (0,) * (m + 1)
    return count_occurrences(h1, pattern)


def _has_isolated_one(nonzero: np.ndarray, m: int, checked: int) -> bool:
    """Whether some nonzero[p], p < checked, has no other nonzero entry
    within distance m.  Needs len(nonzero) >= checked + m when checked > 0."""
    # ones[i]: nonzero entries before i, modulo the dtype's range; a window
    # holds at most 2m + 1 of them (and fewer than 2^32 digits fit in memory),
    # so window differences stay exact
    dtype = np.uint16 if 2 * m + 1 < 1 << 16 else np.uint32
    ones = np.zeros(len(nonzero) + 1, dtype=dtype)
    np.cumsum(nonzero, dtype=dtype, out=ones[1:])
    # nonzero entries in [max(p - m, 0), p + m], p itself included
    window = ones[m + 1 : m + 1 + checked].copy()
    window[m:] -= ones[: max(0, checked - m)]
    return bool(np.any(nonzero[:checked] & (window == 1)))


def t1_isolation_check(h1: DigitStream, m: int) -> bool:
    """True iff every 1 early enough to see m digits ahead has another 1
    within distance m (on either side)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    checked = max(0, h1.valid_to - m)  # the positions that see m digits ahead
    # an isolated 1 usually shows up early, so a short head is probed first
    for head in (min(checked, 1 << 12), checked):
        seen = _prefix(h1)[: head + m]
        if _has_isolated_one(seen != 0, m, head):
            return False
    return True


# -- interval-count measure bounds ----------------------------------------------


@dataclass(frozen=True, slots=True)
class T2Bound:
    b: int
    n: int
    lhs: Fraction
    rhs: float


def t2_ratio(b: int) -> float:
    return 1.94 * (b - 1) ** 0.2 / b


def _t2_rhs_fifth_power(b: int, n: int) -> Fraction:
    """Exact fifth power of n * (1.94 (b-1)^(1/5) / b)^n."""
    ratio5 = Fraction(97, 50) ** 5 * (b - 1)
    return Fraction(n) ** 5 * ratio5**n / Fraction(b) ** (5 * n)


def t2_measure_bound(b: int, n: int) -> T2Bound:
    """Exact interval-count bound b^-n * sum_{k<=n/5} (b-1)^k C(2n+2, k)
    against the closed-form tail envelope."""
    check_base(b)
    if n < 1:
        raise ValueError("n must be >= 1")
    total = sum((b - 1) ** k * math.comb(2 * n + 2, k) for k in range(n // 5 + 1))
    lhs = Fraction(total, b**n)
    return T2Bound(b, n, lhs, n * t2_ratio(b) ** n)


def t2_chain_check(b: int, n: int) -> bool:
    """lhs <= rhs, decided in exact rational arithmetic via fifth powers
    (the envelope's only irrational factor is a fifth root)."""
    bound = t2_measure_bound(b, n)
    return bound.lhs**5 <= _t2_rhs_fifth_power(b, n)


def t2_partial_sums(b: int, upto: int) -> list[float]:
    """Partial sums of sum_n n * ratio^n for n = 1..upto."""
    r = t2_ratio(b)
    out = []
    acc = 0.0
    term = 1.0
    for n in range(1, upto + 1):
        term *= r
        acc += n * term
        out.append(acc)
    return out


# -- window families for the normality contradiction ----------------------------


def choose_k(b: int) -> int:
    """Minimal k with ((b-1)/b)^k < 1/10, decided exactly."""
    check_base(b)
    k = 1
    while 10 * (b - 1) ** k >= b**k:
        k += 1
    return k


def choose_r(g: MaxMinPoly, k: int) -> int:
    """Minimal r with exactly k nonzero coefficients among g[0..r-1]."""
    if k < 1:
        raise ValueError("k must be >= 1")
    seen = 0
    for idx, c in enumerate(g.coeffs):
        if c:
            seen += 1
            if seen == k:
                return idx + 1
    raise InsufficientSupport(f"polynomial has {seen} < {k} nonzero coefficients")


def z_set(g: MaxMinPoly, r: int) -> ZWindowSet:
    """Window family covering the support of g's first r coefficients."""
    if r < 1:
        raise ValueError("r must be >= 1")
    prefix = tuple(1 if c else 0 for c in g.coeffs[:r])
    prefix = prefix + (0,) * (r - len(prefix))
    return ZWindowSet(prefix, r, sum(prefix))


def t3_window_invariant(f: DigitStream, g: Union[MaxMinPoly, DigitStream], z: ZWindowSet) -> bool:
    """Every window of the product starting under a nonzero digit of f is
    a member of z (built from g's support prefix)."""
    h = product_stream(f, g)
    r = z.r
    if r > h.valid_to:
        raise WindowTooShort(f"window length {r} exceeds valid prefix {h.valid_to}")
    windows = min(f.valid_to, h.valid_to) - r + 1
    outside = ~_members(z, _prefix(h) != 0, windows)
    return not np.any(outside & (f.array[:windows] != 0))


@dataclass(frozen=True, slots=True)
class FrequencyReport:
    empirical: float
    normal_expectation: float
    windows: int
    occurrences: int


def z_frequency_report(h: DigitStream, z: Union[ZWindowSet, Iterable[Sequence[int]]]) -> FrequencyReport:
    """Empirical window-family frequency versus the equidistribution value.

    No verdict is attached: normality of a finite stream is undecidable,
    so both numbers are simply reported.
    """
    if isinstance(z, ZWindowSet):
        r = z.r
        expectation = float(z.expected_frequency(h.base))
    else:
        z = [tuple(p) for p in z]
        lengths = {len(p) for p in z}
        if len(lengths) != 1:
            raise ValueError("all windows in an explicit set must share one length")
        (r,) = lengths
        expectation = len(set(z)) / h.base**r
    occurrences = count_set_occurrences(h, z)
    windows = h.valid_to - r + 1
    return FrequencyReport(occurrences / windows, expectation, windows, occurrences)


# -- stream files ---------------------------------------------------------------


def write_stream(path, stream: DigitStream) -> None:
    """Two-line text format: 'b N' then N space-separated digits.  Only the
    valid prefix is written, so N is valid_to and read_stream gives back
    the stream's exact digits and nothing past them."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{stream.base} {stream.valid_to}\n")
        fh.write(" ".join(map(str, _prefix(stream).tolist())) + "\n")


def _parse_digits(line: bytes) -> Union[np.ndarray, list[int]]:
    """The digits of a stream line read as bytes: one byte each when every
    token is a single ASCII digit separated by single spaces, else int()
    per token of the decoded line."""
    if len(line) % 2:
        # read as little-endian words, a pair (digit c, space) is 0x2030 + c,
        # so the subtraction leaves c, and any other pair wraps to 10 or more
        words = np.frombuffer(line + b" ", "<u2") - 0x2030
        if (words < 10).all():
            return words.astype(np.uint8)
    return [int(tok) for tok in line.decode("ascii").split()]


def read_stream(path) -> DigitStream:
    """The stream of a file written by write_stream: its first two lines,
    ended by LF, CR LF or CR as in text mode.

    The file is read as bytes in one call, since a binary readline() of a
    long digit line costs more than the rest of the parse.  A non-ASCII
    byte anywhere in the file raises UnicodeDecodeError at its offset.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        data.decode("ascii")
    head, line, *_ = data.split(b"\n", 2) + [b"", b""]
    if b"\r" in head or b"\r" in line:
        head, line, *_ = data.splitlines() + [b"", b""]
    header = head.decode("ascii").split()
    if len(header) != 2:
        raise ValueError("stream file must start with 'b N'")
    b, n = int(header[0]), int(header[1])
    digits = _parse_digits(line)
    if len(digits) != n:
        raise ValueError(f"stream file declares {n} digits but carries {len(digits)}")
    return make_stream(b, digits)
