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
lowest first, ANDing each choice into Q.  Leaves come in (degree,
lexicographic) order over the little-endian coefficient tuples, so the
first exact leaf is the first witness in that order, which makes
classification deterministic.  The search returns that leaf (or the first
one a caller's visitor accepts) as (g, q), and None when there is none.
The fixed nonzero coefficients of g are kept as a term list on a stack, one
(mask, (k,)) pair each, so a node's prefix product costs one step per fixed
nonzero term.

Each position of g has a value cap, read off the coefficients of h.  The
end terms of h are the minima of those of g and its quotient f, so
f_0 >= h_0 and f_{deg f} >= lead(h), and g_i = v > 0 forces
h_i >= min(v, h_0) and h_{i + deg f} >= min(v, lead(h)).  So

    cap_i = min(h_i if h_i < h_0 else b-1,
                h_{i + deg f} if h_{i + deg f} < lead(h) else b-1),

which is 0 unless h_i and h_{i + deg f} are both nonzero.  The search
visits only the positions with a nonzero cap and tries only the values up
to it; no exact divisor holds a larger value, and every value within the
caps keeps the quotient's end terms in Q.

Before it descends below a node that fixes g[:k+1] with quotient q, the
search checks a cover bound.  Every leaf below keeps g[:k+1], has at most
cap_i at each free position i above k (the lead included), and has a
quotient <= q, since each choice only ANDs into q.  The product is
monotone in both factors, so every leaf's product is at most

    q*g[:k+1]  OR  (OR over the free i above k of (p & planes 1..cap_i) << i)

for any p >= q.  The second term is the capped completion; the search
takes p to be the quotient before g[k] was chosen, so one completion
serves every value at position k.  If the bound does not cover h, no leaf
below is exact and the subtree is skipped.  The root is the case k = 0:
once g[0] is chosen, positions 1..deg g are all free.  The caps cut only
values that no exact leaf holds and the bound only subtrees without an
exact leaf, so the first witness, the factorization listings and every
count stay the same; q has deg h - deg g + 1 terms per plane, so no shift
leaves its plane.  On irreducible inputs, almost all of them at large
degree, the caps and the bound remove most of the search.

The search also has a plane-word form that decides a block of inputs at
once, the rows of a density chunk (_decide_rows, which the density
count _count_irreducible calls).  It works on h stripped of its order,
with each plane H_s packed into one word.  At degree deg g, with
m = min(s, h_0) and l = min(s, lead(h)), let

    F_s = H_m & (H_l >> deg f),    Q_s = H_m & (H_l >> deg g).

H_l has no bit above deg h, so F_s has none above deg g and Q_s none
above deg f.  Q is the quotient bound before g[0] is chosen: g_0 >= h_0
and a lead >= lead(h) only shrink it.  Since h_k >= m exactly when
h_k >= s or h_k >= h_0, H_m is H_s | H_h_0, and likewise H_l.  So bit k
of F_s holds exactly when cap_k >= s, and bits 0 and deg g are the end
caps, low_top and lead_top.  A degree passes the root test only if the
OR over the k in F_s of (Q_s << k) covers H_s at every plane s.  That is
the root's cover bound at its weakest g[0], so the search's own end cap
skip and early exit cut no degree that the test keeps.  Every exact pair
has f <= Q and g_k <= cap_k, so its product is at most that OR: a degree
the test cuts holds no exact leaf, and a search given only the degrees
it keeps returns the same first witness.

The kept degrees are then walked breadth first.  Every test at a node
reads only the node's ancestors: its quotient q and fixed terms, and the
completion above the next position, built from q and the caps.  So the
nodes the search visits below a degree form a tree fixed by h and that
degree, and walking it level by level, every live node of every input
at once, visits the same nodes; only which exact leaf comes first
depends on the order, not whether there is one.  A lead that passes the
cover bound, whose completion above deg g is empty, is an exact leaf:
q*g never exceeds h, so covering h is equality.  At a choice g[k] = v
the part (qv & planes 1..v) << k is (q_s & (H_s >> k)) << k on each
plane s <= v and 0 above, so the values that pass the rest test at one
position are an interval: from the highest plane that the rest still
holds up to the first plane whose rest the part misses.  An input is
reducible once one of its degrees reaches an exact leaf and irreducible
once none has a node left.  The plane-word form builds no witness,
which only the depth-first search returns.

all_factorizations lists the cofactors of each divisor with a second
search below Q that cuts a subtree once its largest completion times g
falls below h.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import core
from .core import BLOCK_ROWS, WORD, MaxMinPoly, _mask, _pack, _repeat, _terms, _times, _trim, _unpack
from .errors import (
    BaseMismatch,
    DegreeTooLarge,
    ZeroDivisor,
    ZeroPolynomial,
)

# the plane-word decision's two fixed costs, each paid only where the
# depth-first search would spend more: its root test (a few dozen numpy
# calls) needs a block of at least SCREEN_DIGITS digits (rows x n), about
# what the search spends on the cut rows of 40 rows at b=10 n=8, 20 at
# b=4 n=16, 10 at b=3 n=20 and 6 at b=2 n=40; its descent (a few dozen
# numpy calls per level) needs at least DESCENT_ROWS kept rows, about
# what the search spends on 50-70 kept rows at b = 2, 3 and 4 and on
# 200-300 at b=10 n=6 to 8, whose trees are wide and shallow (a 2048-row
# block keeps 550-1100 rows at those sizes)
SCREEN_DIGITS = 320
DESCENT_ROWS = 256

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
    """True iff g divides h exactly (False when deg g > deg h); the other
    errors of residual_divide pass through."""
    try:
        return residual_divide(h, g) is not None
    except DegreeTooLarge:
        return False


# -- the divisor search ----------------------------------------------------------


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

    g is fixed one coefficient at a time from the constant term up, and
    each choice ANDs into q.  Per degree, the free positions are the k in
    1..deg g - 1 with a nonzero cap (the set bits of support &
    (support >> deg f) there); they take 0 and then 1..cap_k, g[0] runs
    from h[0] and the lead of g from the lead of h up to their caps (see
    the module docstring).

    The fixed nonzero coefficients of g sit on a term stack (core's term
    list), pushed on descent and popped on return, so the prefix product
    of a node costs one AND, shift and OR per fixed nonzero term, and the
    g tuple is built only at an exact leaf.  The cover bound with the
    capped completion is checked at every choice below the lead, g[0]
    included.  A node builds the completion from its own quotient as k
    descends, so each free position adds one term to it.  The node's
    quotient times the fixed prefix bounds the prefix product of every
    choice below it, so a choice is first held against the part of h that
    neither covers, and the exact prefix product is taken only when that
    part is covered.  A larger value also raises g[k], so a value that
    fails the bound skips only its own subtree.

    The root's completion is built lowest free position first, and a
    degree is skipped as soon as a bit of h below the next free position
    k is covered neither by the terms so far nor by q & planes 1..low_top.
    That is exact: every g[0] value v <= low_top has qv & planes 1..v <=
    q & planes 1..low_top, and a term added later is shifted by at least
    k and stays inside its plane (q has deg f + 1 bits per plane), so the
    root's cover test would fail for every g[0].
    """
    width = len(h)
    low, lead = h[0], h[-1]
    top = b - 1
    sat: list[int] = []
    stack: list[tuple[int, tuple[int]]] = []

    def extend(j: int, q: int) -> Optional[tuple[tuple[int, ...], int]]:
        # g is fixed below free[j] and zero from there up: try g[free[j]:dg]
        # all zero, then the next nonzero coefficient at the free positions
        # from the highest down to free[j], which is the lexicographic
        # order of what follows.  Every qv below is <= q, so the prefix
        # product of q bounds theirs.
        upper = _times(q, stack)
        for v in range(lead, lead_top + 1):
            qv = q & (sat[v] >> dg)
            part = (qv & mask[v]) << dg
            if upper | part == target and _times(qv, stack) | part == target:
                g[dg] = v
                found = (tuple(g), qv)
                if visit is None or visit(*found):
                    return found
        completion = (q & mask[lead_top]) << dg
        for t in range(len(free) - 1, j - 1, -1):
            k, cap = free[t]
            rest = target & ~(upper | completion)
            for v in range(1, cap + 1):
                qv = q & (sat[v] >> k)
                part = (qv & mask[v]) << k
                if rest & part != rest:
                    continue
                # cover bound: the leaves below keep g[:k+1], have a quotient
                # <= qv and at most cap_i on the free positions i above k
                if (_times(qv, stack) | part | completion) & target != target:
                    continue
                g[k] = v
                stack.append((mask[v], (k,)))
                found = extend(t + 1, qv)
                stack.pop()
                if found:
                    return found
            g[k] = 0
            completion |= (q & mask[cap]) << k
        return None

    for dg in degrees:
        df = width - 1 - dg
        # the caps (see the module docstring): g[0] <= low_top, the lead
        # <= lead_top, and g_k <= cap_k at the free positions k, the k in
        # 1..dg-1 with h_k and h_{k+df} nonzero; the capped completion of
        # the root, where positions 1..dg are all free, is built alongside
        c, d = h[df], h[dg]
        low_top = c if c < lead else top
        lead_top = d if d < low else top
        if low_top < low or lead_top < lead:
            continue
        if not sat:  # the first degree that passes: pack h once
            target, sat, every_plane = _levels(b, h)
            mask = [_mask(v, width) for v in range(b)]
            support = target & mask[1]
        q = ((1 << (df + 1)) - 1) * every_plane & sat[low] & (sat[lead] >> dg)
        completion = (q & mask[lead_top]) << dg
        root = q & mask[low_top]
        free = []
        bits = support & (support >> df) & ((1 << dg) - 2)
        while bits:
            k = (bits & -bits).bit_length() - 1
            # the early exit: terms from k up cover nothing below k
            if target & ~(root | completion) & ((1 << k) - 1) * every_plane:
                break
            bits &= bits - 1
            c, d = h[k], h[k + df]
            cap = min(c if c < low else top, d if d < lead else top)
            free.append((k, cap))
            completion |= (q & mask[cap]) << k
        if bits:
            continue
        g = [0] * (dg + 1)
        for v in range(low, low_top + 1):
            qv = q & sat[v]
            if ((qv & mask[v]) | completion) & target != target:
                continue
            g[0] = v
            stack.append((mask[v], (0,)))
            found = extend(0, qv)
            stack.pop()
            if found:
                return found
    return None


def _decide_rows(b: int, digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The plane-word decision (see the module docstring) of every digit
    row at once: (reducible, back).  reducible[r] is true when a degree of
    row r has an exact leaf.  back has shape (rows, (n-1)//2), and
    back[r, dg-1] is true when row r goes back undecided, for the
    depth-first search, with degree dg open.  A nonzero non-monomial row
    in neither is irreducible; zero rows and monomials are in neither.
    Rows hold at most WORD digits.

    Each row's planes are packed once from digit masks, as words of its
    stripped row.  The root test runs on every (row, degree) pair in
    blocks whose (positions x rows x degrees x planes) temporary holds at
    most BLOCK_ROWS words (or one row); the OR over the bits k of F_s is
    one product per k, Q_s * (F_s & 2^k), which is Q_s << k or 0.  When
    fewer than DESCENT_ROWS rows keep a degree, each of them goes back
    with the degrees it kept.  Otherwise the kept pairs descend together.
    A node is a pair's quotient bound q, its fixed terms and its choices:
    plane v-1 of a choice word holds bit k when g[k] = v may come next.
    The root's choices are g[0] in h_0..low_top, a node that fixed
    position k has those above k with cap_k >= v, and the lead in
    lead(h)..lead_top.  The completion above each position is one
    OR-accumulation over the positions, and the rest test one interval of
    values per position.  A level is expanded in slices whose temporaries
    hold at most BLOCK_ROWS words.  A row goes back with the degrees that
    still have a node once its frontier grows past BLOCK_ROWS // (kept
    rows) nodes, so a level holds at most BLOCK_ROWS nodes.
    """
    rows, n = digits.shape
    top = (n - 1) // 2
    planes = b - 1
    reducible = np.zeros(rows, dtype=bool)
    keep = np.zeros((rows, top), dtype=bool)
    if not top:
        return reducible, keep
    one = np.uint64(1)
    level = np.arange(1, b)
    # per row: its order t, its degree last (0 on a zero row), h_0,
    # lead(h), the planes H_s of its stripped row and H_m = H_s | H_h_0
    # and H_l = H_s | H_lead(h)
    nonzero = digits != 0
    t = nonzero.argmax(axis=1)
    last = np.maximum.reduce(nonzero * np.arange(n), axis=1)
    bits = np.zeros((rows, planes, WORD), dtype=bool)
    np.greater_equal(digits[:, None, :], level[:, None], out=bits[..., :n])
    target = np.packbits(bits, axis=-1, bitorder="little").view("<u8")[..., 0] >> t.astype(np.uint64)[:, None]
    at = np.arange(rows)
    low, lead = digits[at, t], digits[at, last]
    hlow = target | target[at, low - 1, None]
    hlead = target | target[at, lead - 1, None]
    e = last - t
    # the root test
    dg = np.arange(1, top + 1)
    by_dg = dg.astype(np.uint64)[:, None]
    bit = one << np.arange(top + 1, dtype=np.uint64)[:, None]
    step = max(1, BLOCK_ROWS // ((top + 1) * top * planes))
    for lo in range(0, rows, step):
        hi = lo + step
        # a degree above e shifts by 64 or more and reads 0
        f = hlow[lo:hi, None] & (hlead[lo:hi, None] >> (e[lo:hi, None] - dg).astype(np.uint64)[..., None])
        q = hlow[lo:hi, None] & (hlead[lo:hi, None] >> by_dg)
        cover = f.reshape(-1) & bit
        cover *= q.reshape(-1)
        cover = np.bitwise_or.reduce(cover, axis=0).reshape(q.shape)
        out = keep[lo:hi]
        np.logical_and.reduce((cover | target[lo:hi, None]) == cover, axis=-1, out=out)
        out &= 2 * dg <= e[lo:hi, None]
    kept = np.count_nonzero(keep.any(axis=1))
    if kept < DESCENT_ROWS:
        return reducible, keep
    back = np.zeros_like(keep)
    mask = np.where(level <= level[:, None], ~np.uint64(0), np.uint64(0))  # [v-1]: planes 1..v
    # per kept pair: its row and degree, its row's planes, the caps, the
    # root's q and the root's choices
    row, d = np.nonzero(keep)
    dg = (d + 1).astype(np.uint64)
    target = target[row]
    caps = hlow[row] & (hlead[row] >> (e[row].astype(np.uint64) - dg)[:, None])
    q = hlow[row] & (hlead[row] >> dg[:, None])
    below_low = (level < low[row, None]).astype(np.uint64)
    below_lead = (level < lead[row, None]).astype(np.uint64) << dg[:, None]
    choices = caps & ~below_low & ~below_lead
    # the positions 1..max deg g + 1, highest first
    downward = np.arange(int(dg.max()) + 1, 0, -1, dtype=np.uint64)
    frontier = max(1, BLOCK_ROWS // kept)

    def times(q: np.ndarray, pos: np.ndarray, val: np.ndarray) -> np.ndarray:
        # q times the fixed terms (pos[:, j], val[:, j] + 1)
        prod = np.zeros_like(q)
        for j in range(pos.shape[1]):
            prod |= (q << pos[:, j, None]) & mask[val[:, j]]
        return prod

    pair = np.arange(len(row))
    free = choices & one
    pos = np.empty((len(row), 0), dtype=np.uint64)
    val = np.empty((len(row), 0), dtype=np.intp)
    while len(pair):
        cost = (np.bitwise_count(free).sum(axis=1, dtype=np.intp) + len(downward)) * planes
        total = np.cumsum(cost)
        parts = []
        lo = 0
        while lo < len(pair):
            hi = max(lo + 1, int(np.searchsorted(total, total[lo] - cost[lo] + BLOCK_ROWS, side="right")))
            p, qs, ps, vs, fr = pair[lo:hi], q[lo:hi], pos[lo:hi], val[lo:hi], free[lo:hi]
            lo = hi
            tg = target[p]
            upper = times(qs, ps, vs)
            # above[j] is the completion above position len(downward) - 1 - j
            above = (caps[p] >> downward[:, None, None]) & one
            above *= qs << downward[:, None, None]
            np.bitwise_or.accumulate(above, axis=0, out=above)
            # the rest test of the values at each position k with a choice:
            # at g[k] = v, planes 1..v of the part are hit, the others 0
            i, k = np.nonzero((np.bitwise_or.reduce(fr, axis=1)[:, None] >> (downward[-1::-1] - one)) & one)
            shift = k.astype(np.uint64)[:, None]
            tgi = tg[i]
            hit = (qs[i] & (tgi >> shift)) << shift
            completion = above[len(downward) - 1 - k, i]
            rest = tgi & ~(upper[i] | completion)
            inside = (rest & ~hit) == 0
            floor = np.max((rest != 0) * level, axis=1)
            ceil = np.where(inside.all(axis=1), planes, inside.argmin(axis=1))
            j, s = np.nonzero(((fr[i] >> shift) & one).astype(bool) & (level >= floor[:, None]) & (level <= ceil[:, None]))
            # the cover bound of the values that pass the rest test
            i, shift, tgi, hit, completion = i[j], shift[j], tgi[j], hit[j], completion[j]
            m = mask[s]
            qv = qs[i] & (((tgi & m) | (np.take_along_axis(tgi, s[:, None], axis=1) & ~m)) >> shift)
            ok = ((times(qv, ps[i], vs[i]) | (hit & m) | completion) & tgi == tgi).all(axis=1)
            i = i[ok]
            parts.append((p[i], qv[ok], np.hstack((ps[i], shift[ok])), np.column_stack((vs[i], s[ok]))))
        pair, q, pos, val = (np.concatenate(x) for x in zip(*parts))
        k = pos[:, -1]
        reducible[row[pair[k == dg[pair]]]] = True
        live = ~reducible[row[pair]]
        wide = np.bincount(row[pair[live]], minlength=rows)[row[pair]] > frontier
        back[row[pair[live & wide]], d[pair[live & wide]]] = True
        live &= ~wide
        pair, q, pos, val = pair[live], q[live], pos[live], val[live]
        free = choices[pair] & ~((2 << pos[:, -1]) - one)[:, None]
    return reducible, back


def _count_irreducible(b: int, digits: np.ndarray) -> int:
    """The number of irreducible rows of a block of digit rows, one row
    per polynomial (zero rows and monomials are not irreducible).

    A block of at least SCREEN_DIGITS digits, in rows of at most WORD
    digits, goes through the plane-word decision (_decide_rows): a
    nonzero non-monomial row that it neither finds reducible nor hands
    back is irreducible, and the depth-first search decides the rows it
    hands back on the degrees they still have open.  The search decides
    every row of any other block on every degree."""
    rows, n = digits.shape
    hits = 0
    degrees = itertools.repeat(None)
    if n <= WORD and rows * n >= SCREEN_DIGITS:
        reducible, back = _decide_rows(b, digits)
        handed = back.any(axis=1)
        nonmonomial = np.count_nonzero(np.count_nonzero(digits, axis=1) > 1)
        hits = int(nonmonomial - np.count_nonzero(reducible) - np.count_nonzero(handed))
        digits = digits[handed]
        degrees = ([dg for dg, k in enumerate(row, 1) if k] for row in back[handed].tolist())
    for h, degs in zip(map(_trim, digits.tolist()), degrees):
        if len(h) - h.count(0) > 1:
            hits += _classify_generic(b, h, degs)[0] == IRREDUCIBLE
    return hits


def _classify_generic(
    b: int, h: Sequence[int], degrees: Optional[Iterable[int]] = None
) -> tuple[str, Optional[tuple[tuple[int, ...], int]]]:
    """Classify a raw canonical nonzero coefficient tuple over base b; the
    one search entry point behind classification and behind the density
    count, _count_irreducible, which hands it the rows that the
    plane-word decision does not decide.  The census calls no search:
    the tests hold its product sieve against this one.

    The search runs on h / x^t, t = ord h: a divisor of positive order
    would have a lower-degree divisor of h / x^t in front of it, so the
    first witness is the same.  It tries the divisor degrees 1..deg(h/x^t)/2,
    or only `degrees` (read in the frame of h / x^t) for a caller that has
    ruled the others out.  The witness is (g, q) with q the packed quotient
    of h / x^t, which _witness_pair turns into coefficients; the callers
    that read only the class never unpack it.
    """
    if len(h) - h.count(0) == 1:
        return (MONOMIAL, None)
    t = 0
    while not h[t]:
        t += 1
    if degrees is None:
        degrees = range(1, (len(h) - 1 - t) // 2 + 1)
    found = _divisors(b, h[t:], degrees)
    return (IRREDUCIBLE, None) if found is None else (REDUCIBLE, found)


def _witness_pair(h: Sequence[int], witness: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The witness (g, q) that _classify_generic returned for h as the
    coefficient tuples of g and of x^t * q, t = ord h."""
    g, q = witness
    t = 0
    while not h[t]:
        t += 1
    width = len(h) - t
    return g, (0,) * t + _unpack(q, width, width - len(g) + 1)


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
    g, q = _witness_pair(h.coeffs, witt)
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
