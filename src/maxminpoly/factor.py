"""Exact divisibility, factorization search and irreducibility/primality
classification over max-min polynomial semirings.

Everything runs on level planes.  The threshold maps f -> [f >= s] are
semiring homomorphisms, so a base-b polynomial h is the b-1 nested boolean
polynomials H_s = {k : h_k >= s}, and base 2 (sumsets) is the one-plane
case.  The planes of h are packed into one int at stride W = len(h), plane
s at bit offset (s-1)*W, by core's max-min product kernel (_pack, _times),
which multiplies by the term list of a factor: its nonzero coefficients as
(plane mask, positions) pairs.

Division uses residuation: for a fixed divisor g the set of f with
f*g <= h (coefficientwise) has a maximum Q, whose planes are

    Q_s = AND over j with g_j > 0 of ( H_min(s, g_j) >> j ),

and g divides h exactly when Q*g == h, checked plane by plane as
(Q*g)_s = OR over j with g_j >= s of (Q_s << j).  Any exact quotient is
<= Q pointwise, so the single maximal candidate decides divisibility.

A polynomial is irreducible when every factorization has a monomial
factor.  One depth-first search decides it and finds the witness: it fixes
a divisor g of degree 1 <= deg g <= deg h / 2 one coefficient at a time,
lowest first, ANDing each choice into Q and cutting a subtree as soon as Q
cannot carry the quotient's end terms.  Leaves come in (degree,
lexicographic) order over the little-endian coefficient tuples, so the
first exact leaf is the first witness in that order, which makes
classification deterministic.  The search returns that leaf (or the first
one a caller's visitor accepts) as (g, q), and None when there is none.
The fixed nonzero coefficients of g are kept as a term list on a stack, one
(mask, (k,)) pair each, so a node's prefix product costs one step per fixed
nonzero term.

Before it descends below a node that fixes g[:k+1] with quotient q, the
search checks a cover bound.  Every leaf below keeps g[:k+1], has some
digit at each of the positions k+1..deg g, and has a quotient <= q, since
each choice only ANDs into q.  The product is monotone in both factors, so
every leaf's product is at most

    q*g[:k+1]  OR  (OR over i = k+1..deg g of q << i),

the second term being q times b-1 on every free position (all planes of q
shifted by i).  If that bound does not cover h, no leaf below is exact and
the subtree is skipped.  The root is the case k = 0: once g[0] is chosen,
positions 1..deg g are all free.  Only subtrees without an exact leaf are
cut, so the first witness, the factorization listings and every count
stay the same; q has deg h - deg g + 1 terms per plane, so no shift leaves
its plane.  On irreducible inputs, almost all of them at large degree,
the bound removes most of the search.

all_factorizations lists the cofactors of each divisor with a second
search below Q that cuts a subtree once its largest completion times g
falls below h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import core
from .core import MaxMinPoly, _mask, _pack, _repeat, _terms, _times, _unpack
from .errors import (
    BaseMismatch,
    DegreeTooLarge,
    ZeroDivisor,
    ZeroPolynomial,
)

MONOMIAL = "monomial"
IRREDUCIBLE = "irreducible"
REDUCIBLE = "reducible"

PRIME = "prime"
COMPOSITE_CANDIDATE = "composite-candidate"
NOT_CANDIDATE = "not-candidate"

REASON_ZERO_POLY = "zero-polynomial"
REASON_ZERO_CONSTANT = "zero-constant-term"
REASON_MAX_BELOW = "max-coefficient-below-b-1"


@dataclass(frozen=True, slots=True)
class FactorWitness:
    """A verified non-monomial factorization, ordered deg g <= deg h
    (ties broken lexicographically on coefficient tuples)."""

    g: MaxMinPoly
    h: MaxMinPoly

    def as_pair(self) -> tuple[MaxMinPoly, MaxMinPoly]:
        return (self.g, self.h)


def make_witness(product: MaxMinPoly, a: MaxMinPoly, b: MaxMinPoly) -> FactorWitness:
    """Normalize and validate a factorization of `product` into (a, b)."""
    if core.is_monomial(a) or core.is_monomial(b):
        raise ValueError("witness factors must be non-monomial")
    if core.mul(a, b) != product:
        raise ValueError("witness factors do not multiply to the target")
    key_a = (len(a.coeffs), a.coeffs)
    key_b = (len(b.coeffs), b.coeffs)
    if key_b < key_a:
        a, b = b, a
    return FactorWitness(a, b)


@dataclass(frozen=True, slots=True)
class Classification:
    kind: str  # MONOMIAL | IRREDUCIBLE | REDUCIBLE
    witness: Optional[FactorWitness] = None


@dataclass(frozen=True, slots=True)
class PrimeStatus:
    kind: str  # PRIME | COMPOSITE_CANDIDATE | NOT_CANDIDATE
    witness: Optional[FactorWitness] = None
    reason: Optional[str] = None


def candidate_reason(f: MaxMinPoly) -> Optional[str]:
    """Why f fails the prime-candidate test, or None if it passes."""
    if f.is_zero():
        return REASON_ZERO_POLY
    if f.coeffs[0] == 0:
        return REASON_ZERO_CONSTANT
    if max(f.coeffs) < f.base - 1:
        return REASON_MAX_BELOW
    return None


def is_prime_candidate(f: MaxMinPoly) -> bool:
    """Nonzero constant term and maximum coefficient b-1."""
    return candidate_reason(f) is None


# -- level planes --------------------------------------------------------------


def _levels(b: int, h: Sequence[int]) -> tuple[int, list[int], int]:
    """The packed planes of h; for v = 1..b-1 sat[v], whose plane s is
    plane min(s, v) of h (the planes that bound a quotient term against
    g_j = v); and bit 0 of every plane."""
    width = len(h)
    packed = _pack(b, h, width)
    sat = [packed] * b
    for v in range(1, b - 1):
        plane = packed >> ((v - 1) * width) & _mask(1, width)
        sat[v] = packed & _mask(v, width) | plane * _repeat(width, b - 1 - v) << (v * width)
    return packed, sat, _repeat(width, b - 1)


def residual_coeffs(b: int, h: Sequence[int], g: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Exact quotient of raw canonical tuples, or None.

    Requires h, g nonzero canonical with len(g) <= len(h).
    """
    target, sat, every_plane = _levels(b, h)
    df = len(h) - len(g)
    q = ((1 << (df + 1)) - 1) * every_plane
    for j, v in enumerate(g):
        if v:
            q &= sat[v] >> j
    if _times(q, _terms(g, len(h))) != target:
        return None
    return _unpack(q, len(h), df + 1)


def residual_divide(h: MaxMinPoly, g: MaxMinPoly) -> Optional[MaxMinPoly]:
    """Maximal f with f*g <= h if it divides exactly, else None."""
    if g.is_zero():
        raise ZeroDivisor("division by the zero polynomial")
    if h.is_zero():
        raise ZeroPolynomial("dividend must be nonzero")
    if h.base != g.base:
        raise BaseMismatch(f"bases differ: {h.base} vs {g.base}")
    if len(g.coeffs) > len(h.coeffs):
        raise DegreeTooLarge("divisor degree exceeds dividend degree")
    q = residual_coeffs(h.base, h.coeffs, g.coeffs)
    return None if q is None else MaxMinPoly(h.base, q)


def divides(g: MaxMinPoly, h: MaxMinPoly) -> bool:
    """True iff g divides h exactly (False when deg g > deg h)."""
    if g.is_zero():
        raise ZeroDivisor("division by the zero polynomial")
    if h.is_zero():
        raise ZeroPolynomial("dividend must be nonzero")
    if h.base != g.base:
        raise BaseMismatch(f"bases differ: {h.base} vs {g.base}")
    if len(g.coeffs) > len(h.coeffs):
        return False
    return residual_divide(h, g) is not None


# -- the divisor search ----------------------------------------------------------


def _spread(q: int, n: int) -> int:
    """OR of q << i over i = 0..n-1 (n >= 1), by shift-doubling."""
    span = 1
    while 2 * span <= n:
        q |= q << span
        span *= 2
    return q | q << (n - span) if span < n else q


def _divisors(
    b: int,
    h: Sequence[int],
    degrees: Iterable[int],
    visit: Optional[Callable[[tuple[int, ...], int], bool]] = None,
) -> Optional[tuple[tuple[int, ...], int]]:
    """The first (g, q) in (degree, lexicographic) order of g that visit
    accepts, or None; g ranges over the divisors with g[0] != 0 and degree
    in `degrees` whose maximal quotient q (packed at stride len(h)) is
    exact and non-monomial.  With visit=None the first such g is taken.
    Requires h[0] != 0.

    g is fixed one coefficient at a time from the constant term up,
    trying 0 and then increasing values, and each choice ANDs into q.
    g[0] starts at h[0] and the lead of g at the lead of h, since the end
    terms of h are the minima of those of g and q.  Since q only shrinks,
    a subtree is cut once q can no longer carry the quotient's constant
    term (>= h[0]) and leading term (>= the lead of h), which also keeps q
    from dropping to one term.  A larger value at a position leaves a
    smaller q, so the first value that cuts ends the loop over that
    position.

    The fixed nonzero coefficients of g sit on a term stack (core's term
    list), pushed on descent and popped on return, so the prefix product
    of a node costs one AND, shift and OR per fixed nonzero term, and the
    g tuple is built only at an exact leaf.  The cover bound (see the
    module docstring) is checked at every choice below the lead, g[0]
    included; a larger value also raises g[k], so a value that fails it
    skips only its own subtree.
    """
    width = len(h)
    low, lead = h[0], h[-1]
    least = min(low, lead)
    sat: list[int] = []
    stack: list[tuple[int, tuple[int]]] = []

    def extend(j: int, q: int) -> Optional[tuple[tuple[int, ...], int]]:
        # g is fixed below j and zero from j up: try g[j:dg] all zero, then
        # the next nonzero coefficient at dg-1, dg-2, ..., j, which is the
        # lexicographic order of what follows.
        for v in range(lead, b):
            qv = q & (sat[v] >> dg)
            if qv & need != need:
                break
            if _times(qv, stack) | (qv & mask[v]) << dg == target:
                g[dg] = v
                found = (tuple(g), qv)
                if visit is None or visit(*found):
                    return found
        for k in range(dg - 1, j - 1, -1):
            for v in range(1, b):
                qv = q & (sat[v] >> k)
                if qv & need != need:
                    break
                # cover bound: the leaves below keep g[:k+1], have a quotient
                # <= qv and at most b-1 on positions k+1..dg
                if (_times(qv, stack) | (qv & mask[v]) << k | _spread(qv, dg - k) << (k + 1)) & target != target:
                    continue
                g[k] = v
                stack.append((mask[v], (k,)))
                found = extend(k + 1, qv)
                stack.pop()
                if found:
                    return found
            g[k] = 0
        return None

    for dg in degrees:
        df = width - 1 - dg
        # the end terms of g pin q's end terms against h[dg] and h[df]
        if h[dg] < least or h[df] < least:
            continue
        if not sat:  # the first degree that passes: pack h once
            target, sat, every_plane = _levels(b, h)
            mask = [_mask(v, width) for v in range(b)]
        need = (1 << ((low - 1) * width)) | (1 << ((lead - 1) * width + df))
        q = ((1 << (df + 1)) - 1) * every_plane & sat[low] & (sat[lead] >> dg)
        g = [0] * (dg + 1)
        for v in range(low, b):
            qv = q & sat[v]
            if qv & need != need:
                break
            # the cover bound at the root: positions 1..dg are all free
            if ((qv & mask[v]) | _spread(qv, dg) << 1) & target != target:
                continue
            g[0] = v
            stack.append((mask[v], (0,)))
            found = extend(1, qv)
            stack.pop()
            if found:
                return found
    return None


def _classify_generic(b: int, h: Sequence[int]) -> tuple[str, Optional[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Classify a raw canonical nonzero coefficient tuple over base b; the
    one search entry point behind classification, census and density.

    The search runs on h / x^t, t = ord h, and puts x^t back onto the
    quotient: a divisor of positive order would have a lower-degree
    divisor of h / x^t in front of it, so the first witness is the same.
    """
    if len(h) - h.count(0) == 1:
        return (MONOMIAL, None)
    t = 0
    while not h[t]:
        t += 1
    found = _divisors(b, h[t:], range(1, (len(h) - 1 - t) // 2 + 1))
    if found is None:
        return (IRREDUCIBLE, None)
    g, q = found
    return (REDUCIBLE, (g, (0,) * t + _unpack(q, len(h) - t, len(h) - t - len(g) + 1)))


def _b2_reducible(h: int) -> bool:
    """The decision for a base-2 polynomial given as a bitmask of its
    support; False for zero and monomials."""
    if h & (h - 1) == 0:
        return False
    coeffs = tuple((h >> k) & 1 for k in range(h.bit_length()))
    return _classify_generic(2, coeffs)[0] == REDUCIBLE


def classify_irreducible(h: MaxMinPoly) -> Classification:
    """Monomial, Irreducible, or Reducible with the first witness found."""
    if h.is_zero():
        raise ZeroPolynomial("cannot classify the zero polynomial")
    kind, witt = _classify_generic(h.base, h.coeffs)
    if witt is None:
        return Classification(kind)
    g, q = witt
    return Classification(
        REDUCIBLE,
        make_witness(h, MaxMinPoly(h.base, g), MaxMinPoly(h.base, q)),
    )


def classify_prime(h: MaxMinPoly) -> PrimeStatus:
    """Prime status per the candidate test plus irreducibility.

    Non-candidates are reported with their disqualifying reason.  For a
    candidate, every factorization either has a constant-(b-1) factor or
    is a non-monomial pair (nonzero constant term rules out x^j factors,
    maximum coefficient b-1 rules out constants below b-1), so a candidate
    is prime exactly when it is irreducible; the candidate monomial is the
    constant b-1 itself, whose only factorizations are by b-1.
    """
    if h.is_zero():
        raise ZeroPolynomial("cannot classify the zero polynomial")
    reason = candidate_reason(h)
    if reason is not None:
        return PrimeStatus(NOT_CANDIDATE, reason=reason)
    return prime_status(h, classify_irreducible(h))


def prime_status(h: MaxMinPoly, cls: Classification) -> PrimeStatus:
    """classify_prime(h) read off cls = classify_irreducible(h), for a
    caller that already holds the classification; no search runs."""
    reason = candidate_reason(h)
    if reason is not None:
        return PrimeStatus(NOT_CANDIDATE, reason=reason)
    if cls.kind == REDUCIBLE:
        return PrimeStatus(COMPOSITE_CANDIDATE, witness=cls.witness)
    return PrimeStatus(PRIME)


# -- exhaustive factorization listings ---------------------------------------


def _cofactors(b: int, h: Sequence[int], g: Sequence[int], q: int) -> Iterator[tuple[int, ...]]:
    """All non-monomial f with f*g == h, in lex order; q is the exact
    maximal quotient of h by g, packed at stride len(h).

    Every such f is <= q, and f*g <= h for every f <= q since the product
    is monotone.  f is fixed one coefficient at a time, lowest first, in
    increasing values, and a subtree is cut once its largest completion
    (the later coefficients at q) times g is no longer h; a leaf is its
    own completion, so every leaf is exact.
    """
    width = len(h)
    target = _pack(b, h, width)
    terms = list(_terms(g, width))
    top = _unpack(q, width, width - len(g) + 1)
    column = [_repeat(width, v) for v in range(b)]
    f = [0] * len(top)

    def rec(idx: int, packed: int) -> Iterator[tuple[int, ...]]:
        # packed holds f below idx and top from idx up; its product is h
        if idx == len(top):
            if len(f) - f.count(0) >= 2:
                yield tuple(f)
            return
        rest = packed & ~(column[b - 1] << idx)
        for v in range(1 if idx == len(top) - 1 else 0, top[idx] + 1):
            completion = rest | column[v] << idx
            if v == top[idx] or _times(completion, terms) == target:
                f[idx] = v
                yield from rec(idx + 1, completion)

    yield from rec(0, q)


def all_factorizations(h: MaxMinPoly, max_results: Optional[int] = None) -> list[FactorWitness]:
    """Every non-monomial x non-monomial factorization of h, deduplicated
    as unordered pairs and listed in (deg g, g, f) lexicographic order.

    A divisor x^o * g' of h = x^t * h' pairs a divisor g' of h' with
    o <= t; at one degree, a larger o sorts first.
    """
    if max_results is not None and max_results < 1:
        raise ValueError(f"max_results must be >= 1, got {max_results}")
    if h.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    out: list[FactorWitness] = []
    if core.is_monomial(h):
        return out
    b = h.base
    hc = h.coeffs
    t = core.order(h)
    stripped = hc[t:]
    dh = len(hc) - 1
    for dg in range(1, dh // 2 + 1):
        df = dh - dg
        for o in range(min(t, dg - 1), -1, -1):

            def collect(g: tuple[int, ...], q: int) -> bool:
                shifted = (0,) * o + g
                for f in _cofactors(b, stripped, g, q):
                    f = (0,) * (t - o) + f
                    if dg == df and f < shifted:
                        continue
                    out.append(FactorWitness(MaxMinPoly(b, shifted), MaxMinPoly(b, f)))
                    if max_results is not None and len(out) >= max_results:
                        return True
                return False

            if dg - o < dh - t and _divisors(b, stripped, (dg - o,), collect) is not None:
                return out
    return out
