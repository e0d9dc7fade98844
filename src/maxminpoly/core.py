"""Exact arithmetic for polynomials over the max-min digit semiring.

A polynomial over base b has coefficients in {0, ..., b-1}; addition is the
coefficientwise max and multiplication is the max-min convolution

    (f*g)[n] = max over k of min(f[k], g[n-k]).

Polynomials are kept canonical: coefficients are stored little-endian
(index k = coefficient of x^k) with no trailing zeros, and the zero
polynomial is the empty sequence.  All values are immutable; every
operation is a pure function of its inputs.

This module owns the one max-min product kernel: tuples are packed into
their nested level planes {k : f_k >= s} (_pack, _unpack) and multiplied
plane by plane with shifts and ORs (_times).  The second factor enters as
its term list (_terms): its nonzero coefficients grouped by value, one
(mask, positions) pair per value v, where the mask (_mask) keeps planes
1..v, so a product is one AND per distinct value and one shift and OR per
nonzero term.  The masks are built lazily, one at a time, for a one-shot
product; a caller that multiplies by the same factor many times keeps its
term list as a list.  mul_coeffs and the searches, stream products
and census tables of the other modules all use it; stream products read
their digits back as bytes (_unpack_bytes), not as a tuple.
Packing and unpacking are linear in the packed size: every digit fits one
octet (MAX_BASE = 256), so a plane is one bytes.translate of the digit
string and one int() parse, and unpacking sums the planes as base-256
numbers instead of walking their bits.

Base-2 polynomials double as finite subsets of the naturals: union is max
and the sumset A+B = {a+b} is the max-min product of indicators.  The
bridge functions from_set/to_set/sumset expose that correspondence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import (
    BaseMismatch,
    DigitOutOfRange,
    LevelOutOfRange,
    NonCanonical,
    ZeroPolynomial,
)

MIN_BASE = 2
MAX_BASE = 256


def check_base(b: int) -> int:
    """Validate a base, returning it; digits must fit one octet."""
    if not isinstance(b, int) or not MIN_BASE <= b <= MAX_BASE:
        raise DigitOutOfRange(f"base must be an integer in [{MIN_BASE}, {MAX_BASE}], got {b!r}")
    return b


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


@dataclass(frozen=True, slots=True)
class MaxMinPoly:
    """Canonical polynomial over the max-min semiring of a fixed base.

    Construct through poly_new (or the helpers below), which validate
    digits and trim trailing zeros.  The zero polynomial has empty coeffs.
    """

    base: int
    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "MaxMinPoly") -> "MaxMinPoly":
        return add(self, other)

    def __mul__(self, other: "MaxMinPoly") -> "MaxMinPoly":
        return mul(self, other)

    def __str__(self) -> str:
        return format_poly(self)


def poly_new(b: int, coeffs: Iterable[int]) -> MaxMinPoly:
    """Build a canonical polynomial, validating digits against base b."""
    check_base(b)
    seq = tuple(coeffs)
    for c in seq:
        if not isinstance(c, int) or not 0 <= c < b:
            raise DigitOutOfRange(f"coefficient {c!r} out of range for base {b}")
    return MaxMinPoly(b, _trim(seq))


def zero(b: int) -> MaxMinPoly:
    return poly_new(b, ())


def constant(b: int, c: int) -> MaxMinPoly:
    return poly_new(b, (c,))


def monomial(b: int, c: int, k: int) -> MaxMinPoly:
    """The polynomial c*x^k."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    return poly_new(b, (0,) * k + (c,))


def one(b: int) -> MaxMinPoly:
    """The multiplicative identity: the constant b-1."""
    return constant(b, b - 1)


def _check_same_base(f: MaxMinPoly, g: MaxMinPoly) -> None:
    if f.base != g.base:
        raise BaseMismatch(f"bases differ: {f.base} vs {g.base}")


def add(f: MaxMinPoly, g: MaxMinPoly) -> MaxMinPoly:
    """Coefficientwise max of two polynomials over the same base."""
    _check_same_base(f, g)
    a, b_ = f.coeffs, g.coeffs
    if len(a) < len(b_):
        a, b_ = b_, a
    out = list(a)
    for k, c in enumerate(b_):
        if c > out[k]:
            out[k] = c
    return MaxMinPoly(f.base, _trim(out))


# -- level planes: the max-min product kernel ---------------------------------


def _repeat(width: int, count: int) -> int:
    """count copies of bit 0 at stride width: multiplying a plane by this
    copies it into `count` consecutive planes."""
    return ((1 << (width * count)) - 1) // ((1 << width) - 1)


# _LEVEL[s] translates a digit byte to b"1" when it is >= s and to b"0"
# otherwise; _PLANES[b] lists the tables of levels b-1 down to 1, the order
# in which the planes of a base-b polynomial appear in its binary string.
_LEVEL = [b"0" * s + b"1" * (MAX_BASE - s) for s in range(MAX_BASE)]
_PLANES = [tuple(_LEVEL[b - 1 : 0 : -1]) for b in range(MAX_BASE + 1)]
_BIT = bytes.maketrans(b"01", b"\0\1")


def _pack(b: int, coeffs: Sequence[int], width: int) -> int:
    """Planes {k : c_k >= s} of a coefficient tuple, s = 1..b-1, packed
    into one int with plane s at bit offset (s-1)*width.

    Linear in the output size: the reversed digits are translated once per
    plane into a binary string, the planes are joined with the zero padding
    up to `width` between them, and the whole string is parsed by int().
    """
    digits = bytes(coeffs)[::-1]
    padding = b"0" * (width - len(digits))
    return int(padding.join(map(digits.translate, _PLANES[b])) or b"0", 2)


def _unpack_bytes(packed: int, width: int, length: int) -> bytes:
    """The first `length` coefficients of nested packed planes, one byte each.

    Each plane's low `length` bits become one 0/1 byte per term; read as
    base-256 numbers the planes add without carries (at most 255 planes), so
    byte k of the sum is coefficient k.
    """
    end = -(-packed.bit_length() // width) * width
    bits = format(packed, f"0{end}b").encode().translate(_BIT)
    total = 0
    for stop in range(width, end + 1, width):
        total += int.from_bytes(bits[stop - length : stop], "big")
    return total.to_bytes(length, "little")


def _unpack(packed: int, width: int, length: int) -> tuple[int, ...]:
    """Coefficient tuple of `length` terms from nested packed planes."""
    return tuple(_unpack_bytes(packed, width, length))


def _mask(v: int, width: int) -> int:
    """Keeps planes 1..v of a polynomial packed at stride width."""
    return (1 << (v * width)) - 1


def _terms(g: Sequence[int], width: int) -> Iterator[tuple[int, list[int]]]:
    """The term list of g at stride width: one (mask, positions) pair per
    distinct nonzero value v of g, where mask = _mask(v, width) and
    positions are the j with g_j = v.

    Each mask is built when its pair is reached, so a product that reads
    the list once holds one mask at a time; a caller that multiplies by g
    many times keeps list(_terms(g, width)).
    """
    positions: dict[int, list[int]] = {}
    for j, v in enumerate(g):
        if v:
            positions.setdefault(v, []).append(j)
    for v, js in positions.items():
        yield _mask(v, width), js


def _times(q: int, terms: Iterable[tuple[int, Sequence[int]]]) -> int:
    """Packed planes of q*g for the term list of g: plane s is the OR of
    (plane s of q) << j over the j with g_j >= s, so q is ANDed once per
    mask.  Needs len(q) + len(g) - 1 <= width, the stride of the term
    list."""
    prod = 0
    for mask, positions in terms:
        part = q & mask
        for j in positions:
            prod |= part << j
    return prod


def mul_coeffs(fa: Sequence[int], ga: Sequence[int]) -> tuple[int, ...]:
    """Max-min convolution of two raw coefficient sequences: untrimmed, of
    length len(fa) + len(ga) - 1, and () when either is empty."""
    if not fa or not ga:
        return ()
    width = len(fa) + len(ga) - 1
    return _unpack(_times(_pack(max(fa) + 1, fa, width), _terms(ga, width)), width, width)


def mul(f: MaxMinPoly, g: MaxMinPoly) -> MaxMinPoly:
    """Max-min product; degrees add whenever both factors are nonzero."""
    _check_same_base(f, g)
    return MaxMinPoly(f.base, _trim(mul_coeffs(f.coeffs, g.coeffs)))


def degree(f: MaxMinPoly) -> int:
    """Index of the highest nonzero coefficient; undefined for zero."""
    if not f.coeffs:
        raise ZeroPolynomial("the zero polynomial has no degree")
    return len(f.coeffs) - 1


def nnz(f: MaxMinPoly) -> int:
    """Number of nonzero coefficients."""
    return sum(1 for c in f.coeffs if c)


def is_monomial(f: MaxMinPoly) -> bool:
    """True iff f = c*x^j with a single nonzero coefficient."""
    return nnz(f) == 1


def order(f: MaxMinPoly) -> int:
    """Index of the lowest nonzero coefficient; undefined for zero."""
    if not f.coeffs:
        raise ZeroPolynomial("the zero polynomial has no order")
    for k, c in enumerate(f.coeffs):
        if c:
            return k
    raise AssertionError("canonical nonzero polynomial with no nonzero digit")


def truncate(f: MaxMinPoly, n: int) -> MaxMinPoly:
    """Keep coefficients 0..n inclusive, then canonicalize."""
    if n < 0:
        return MaxMinPoly(f.base, ())
    return MaxMinPoly(f.base, _trim(f.coeffs[: n + 1]))


def rho(f: MaxMinPoly) -> Fraction:
    """Embed f as the exact rational sum of coeff[k] * base^-k, in [0, base]."""
    b = f.base
    acc = Fraction(0)
    for k, c in enumerate(f.coeffs):
        if c:
            acc += Fraction(c, b**k)
    return acc


@dataclass(frozen=True, slots=True)
class DigitMap:
    """Nondecreasing digit-to-digit table; lifts to a semiring homomorphism.

    table[j] is the image of digit j; images must fit codomain_base.
    """

    domain_base: int
    codomain_base: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        check_base(self.domain_base)
        check_base(self.codomain_base)
        if len(self.table) != self.domain_base:
            raise DigitOutOfRange("table must have one entry per domain digit")
        prev = 0
        for v in self.table:
            if not 0 <= v < self.codomain_base:
                raise DigitOutOfRange(f"image {v} out of range for base {self.codomain_base}")
            if v < prev:
                raise DigitOutOfRange("digit map table must be nondecreasing")
            prev = v

    def __call__(self, digit: int) -> int:
        return self.table[digit]


def identity_map(b: int) -> DigitMap:
    return DigitMap(b, b, tuple(range(b)))


def threshold_map(b: int, i: int, codomain_base: int | None = None) -> DigitMap:
    """The map sending digits < i to 0 and digits >= i to i."""
    check_base(b)
    if not 1 <= i <= b - 1:
        raise LevelOutOfRange(f"level {i} outside 1..{b - 1}")
    cod = b if codomain_base is None else codomain_base
    return DigitMap(b, cod, tuple(0 if j < i else i for j in range(b)))


def apply_digit_map(d: DigitMap, f: MaxMinPoly) -> MaxMinPoly:
    """Map every coefficient through d and canonicalize."""
    if d.domain_base != f.base:
        raise BaseMismatch(f"map domain base {d.domain_base} != polynomial base {f.base}")
    return MaxMinPoly(d.codomain_base, _trim(tuple(d.table[c] for c in f.coeffs)))


def support_level(f: MaxMinPoly, i: int) -> MaxMinPoly:
    """Base-2 indicator of the coefficients of f that are >= i."""
    if not 1 <= i <= f.base - 1:
        raise LevelOutOfRange(f"level {i} outside 1..{f.base - 1}")
    return MaxMinPoly(2, _trim(tuple(1 if c >= i else 0 for c in f.coeffs)))


def support_mask(coeffs: Sequence[int]) -> int:
    """Bitmask of nonzero coefficient positions (bit k = coeff of x^k)."""
    m = 0
    for k, c in enumerate(coeffs):
        if c:
            m |= 1 << k
    return m


# -- the base-2 set/sumset bridge ------------------------------------------


def natset(elements: Iterable[int]) -> tuple[int, ...]:
    """Normalize a finite set of naturals to a strictly increasing tuple."""
    out = sorted(set(elements))
    if out and out[0] < 0:
        raise ValueError("set elements must be nonnegative")
    return tuple(out)


def from_set(s: Iterable[int]) -> MaxMinPoly:
    """Indicator polynomial (base 2) of a finite set of naturals."""
    elems = natset(s)
    if not elems:
        return MaxMinPoly(2, ())
    coeffs = [0] * (elems[-1] + 1)
    for e in elems:
        coeffs[e] = 1
    return MaxMinPoly(2, tuple(coeffs))


def to_set(f: MaxMinPoly) -> tuple[int, ...]:
    """The support of a base-2 polynomial as a set of naturals."""
    if f.base != 2:
        raise BaseMismatch("to_set requires a base-2 polynomial")
    return tuple(k for k, c in enumerate(f.coeffs) if c)


def sumset(a: Iterable[int], b: Iterable[int]) -> tuple[int, ...]:
    """{x + y : x in a, y in b} as a strictly increasing tuple."""
    aa, bb = natset(a), natset(b)
    return natset(x + y for x in aa for y in bb)


# -- canonical text / JSON forms -------------------------------------------


def format_poly(f: MaxMinPoly) -> str:
    """Canonical text form 'b:c0,c1,...,ck' (little-endian digits)."""
    return f"{f.base}:" + ",".join(str(c) for c in f.coeffs)


def parse_poly(text: str, lenient: bool = False) -> MaxMinPoly:
    """Parse the canonical text form; reject trailing zeros unless lenient."""
    head, sep, tail = text.strip().partition(":")
    if not sep:
        raise NonCanonical(f"expected 'b:c0,c1,...', got {text!r}")
    try:
        b = int(head)
    except ValueError as exc:
        raise NonCanonical(f"bad base in {text!r}") from exc
    check_base(b)
    if tail.strip() == "":
        return MaxMinPoly(b, ())
    try:
        seq = tuple(int(part) for part in tail.split(","))
    except ValueError as exc:
        raise NonCanonical(f"bad digit list in {text!r}") from exc
    if seq and seq[-1] == 0 and not lenient:
        raise NonCanonical("trailing zero coefficients are not canonical (use lenient mode)")
    return poly_new(b, seq)


def poly_to_json(f: MaxMinPoly) -> dict:
    return {"base": f.base, "coeffs": list(f.coeffs)}


def poly_from_json(obj: dict | str, lenient: bool = False) -> MaxMinPoly:
    """Parse the JSON form {'base': b, 'coeffs': [...]}; same strictness."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "base" not in obj or "coeffs" not in obj:
        raise NonCanonical("expected an object with 'base' and 'coeffs'")
    coeffs = list(obj["coeffs"])
    if coeffs and coeffs[-1] == 0 and not lenient:
        raise NonCanonical("trailing zero coefficients are not canonical (use lenient mode)")
    return poly_new(int(obj["base"]), coeffs)
