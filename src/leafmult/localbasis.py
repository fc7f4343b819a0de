"""Local standard bases in two variables on the highest corner.

Leading terms are taken under the local order (1 largest, then lower total
degree first), so the staircase of leading monomials counts the dimension
of the local quotient ring.  The engine is specialized to two variables:
the leaf is two-dimensional everywhere in this package.

One local mode, the highest corner.  `standard_basis`, `mora_normal_form`
and `mora_divide` take an order N and compute in Q[t1,t2]/m^{N+1}: they
drop the terms of total degree above N from the input, from every
S-polynomial and from every reduction step, which is reduction by the
monomials of degree N+1 (Singular's highest corner; Greuel and Pfister,
*A Singular Introduction to Commutative Algebra*, 1.6-1.7).

Plain reduction terminates on the corner.  A step subtracts from h a
monomial multiple of a reducer whose leading monomial divides lm(h); every
other term of the product is smaller than lm(h) in the local order, and
the terms above N are dropped.  So each step lowers lm(h) among the
(N+1)(N+2)/2 monomials of degree <= N, and a normal form or a division
takes at most that many steps.  The reducer is the first of least total
degree in pool order, which the callers keep canonical.

Leading monomials come from a heap, under the invariant of
`ideals.reduce_poly` (Monagan and Pearce, CASC 2007).  Every monomial of h
has an entry; a step pushes only the shifted reducer terms still in h,
since every other term of h is already there, and a popped monomial no
longer in h is stale and skipped.  The leads strictly decrease, so each
pop is the leading monomial a scan of h would find, and the reduction
stops at the first lead that no pool entry reduces.  Normal forms,
quotients and steps are those of the scan.

Memberships.  The local order is degree-compatible, so the leading
monomial of a series with a term of degree <= N lies among its terms of
least degree, and the leading ideal of I + m^{N+1} is L(I) + m^{N+1}.  The
normal form r of f has no term above N, and f - r lies in I + m^{N+1}.  If
r is nonzero, its leading monomial has degree <= N and lies outside L(I),
so r, and with it f, lies outside I + m^{N+1}.  Hence r = 0 exactly when f
lies in I + m^{N+1}.  Any standard basis of I + m^{N'+1} with N' >= N
gives the same decision at N.

Colengths, closed by Nakayama.  If every monomial of some degree k <= N is
a leading monomial of I + m^{N+1}, then m^k lies in I + m^{N+1}, inside
I + m*m^k, so m^k lies in I by Nakayama's lemma; then L(I) contains m^k
and the corner staircase is the staircase of I (`closure_degree`).
Conversely a finite colength mu gives m^mu in I, so the corner closes at
every N >= mu.  For polynomial generators of degree at most d, Bezout
bounds mu by d^2 (two generic combinations of the generators meet at the
origin with multiplicity at most d^2), so `local_quotient_dimension`
reads "no closure at N = max(d, 1)^2" as infinite.  It doubles N up to
that order rather than starting there: the corner's cost grows fast with N
(a degree-7 pair of colength 5 closes at N = 8 in milliseconds and takes
19 s at N = 28).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import inf
from operator import add
from typing import Optional, Sequence

from .errors import DomainError
from .ideals import (
    Budget,
    MonomialOrder,
    _cancel_lead,
    _s_polynomial,
    _scaled,
    leading_monomial,
    monic,
    staircase_count,
)
from .jets import Jet2, _capped_order
from .poly import (
    Monomial,
    Polynomial,
    minimal_generators,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
)

LOCAL_ORDER = MonomialOrder("local")


class _Lead:
    """A pool polynomial with its leading monomial, the integer numerator
    there and its total degree, computed once when it joins the pool."""

    __slots__ = ("poly", "lm", "lc", "degree")

    def __init__(self, poly: Polynomial):
        self.poly = poly
        self.lm = leading_monomial(poly, LOCAL_ORDER)
        self.lc = poly.num[self.lm]
        self.degree = poly.total_degree()


def _select(pool: list, lm: Monomial) -> Optional[_Lead]:
    """The first pool entry of least total degree whose leading monomial
    divides lm."""
    best = None
    for e in pool:
        if monomial_divides(e.lm, lm) and (best is None or e.degree < best.degree):
            best = e
    return best


def mora_normal_form(f: Polynomial, gens: Sequence[Polynomial], order: int,
                     budget: Optional[Budget] = None) -> Polynomial:
    """Normal form of f modulo m^{order+1}: f - result lies in
    <gens> + m^{order+1}, and the result has no term of degree above order.
    Zero iff f is a member when gens is a standard basis (module
    docstring)."""
    if budget is None:
        budget = Budget(cap=500_000, stage="mora")
    pool = [_Lead(g) for g in (g.truncated(order) for g in gens) if not g.is_zero()]
    return _reduce(f.truncated(order), pool, budget, order, "mora")


def mora_divide(f: Polynomial, divisor: Polynomial, order: int,
                budget: Optional[Budget] = None) -> tuple:
    """Division of f by divisor modulo m^{order+1}.

    Returns (remainder, quotient) with
    f = quotient*divisor + remainder  mod m^{order+1}, both free of terms
    above order.  This realizes division of germs."""
    if budget is None:
        budget = Budget(cap=500_000, stage="mora divide")
    divisor = divisor.truncated(order)
    pool = [] if divisor.is_zero() else [_Lead(divisor)]
    quotient: dict = {}
    rem = _reduce(f.truncated(order), pool, budget, order, "mora divide", quotient)
    return rem, Polynomial(f.ring, quotient)


def _reduce(h: Polynomial, pool: Sequence[_Lead], budget: Budget, order: int,
            stage: str, quotient: Optional[dict] = None) -> Polynomial:
    """Normal form of h on a pool of entries, h already truncated at order.
    Each step subtracts c*x^shift times an entry.  quotient, when given for
    a pool of one entry, collects {shift: c} over the steps; no shift
    repeats, since each step lowers lm(h).

    h is worked on as integer numerators times one rational scale, and a
    step scales them instead of dividing (`ideals._cancel_lead`).  Leading
    monomials come from a heap, as in `ideals.reduce_poly` (module
    docstring)."""
    heap_key = LOCAL_ORDER.heap_key
    work = dict(h.num)
    scale = (1, h.den)
    heap = [(heap_key(m), m) for m in work]
    heapify(heap)
    while heap:
        lm_h = heappop(heap)[1]
        if lm_h not in work:
            continue
        g = _select(pool, lm_h)
        if g is None:
            break
        shift, lc_h = monomial_div(lm_h, g.lm), work[lm_h]
        if quotient is not None:
            quotient[shift] = Fraction(lc_h * scale[0] * g.poly.den, scale[1] * g.lc)
        # a product that stays within the corner needs no per-term test
        cap = None if monomial_degree(shift) + g.degree <= order else order
        scale = _cancel_lead(work, scale, lc_h, shift, g.lc, g.poly.num, cap)
        for t in g.poly.num:
            t = tuple(map(add, shift, t))
            if t in work:
                heappush(heap, (heap_key(t), t))
        budget.spend(1, stage)
    return _scaled(h.ring, work, scale)


def standard_basis(gens: Sequence[Polynomial], order: int,
                   budget: Optional[Budget] = None) -> list:
    """Buchberger loop with the corner normal form modulo m^{order+1}; no pair
    criteria beyond deduplication (the product criterion is unsafe for
    local orders).  Pairs are taken in (lcm degree, (i, j)) order.

    The result, together with the monomials of degree order+1, is a
    standard basis of <gens> + m^{order+1} (module docstring), and a basis
    holding a unit is returned as [1]."""
    if budget is None:
        budget = Budget(cap=500_000, stage="standard basis")
    ring = None
    pool: list[_Lead] = []
    for g in gens:
        g = g.truncated(order)
        if g.is_zero():
            continue
        if ring is None:
            ring = g.ring
            if len(ring) != 2:
                raise DomainError("the local engine is specialized to two variables")
        pool.append(_Lead(monic(g, LOCAL_ORDER)))
    # S-polynomials and their reductions lie in m, so only an input unit
    # makes the ideal the whole ring
    if any(not any(e.lm) for e in pool):
        return [Polynomial.constant(ring, 1)]
    pairs = [(monomial_degree(monomial_lcm(pool[i].lm, pool[j].lm)), (i, j))
             for i in range(len(pool)) for j in range(i + 1, len(pool))]
    heapify(pairs)
    while pairs:
        budget.spend(1, "standard basis")
        _, (i, j) = heappop(pairs)
        a, b = pool[i], pool[j]
        s = _s_polynomial(a.poly, a.lm, b.poly, b.lm).truncated(order)
        h = _reduce(s, pool, budget, order, "mora")
        if not h.is_zero():
            new = _Lead(monic(h, LOCAL_ORDER))
            for k, e in enumerate(pool):
                heappush(pairs, (monomial_degree(monomial_lcm(e.lm, new.lm)), (k, len(pool))))
            pool.append(new)
    return _minimalize(pool)


def _minimalize(pool: list) -> list:
    return [e.poly for e in minimal_generators(pool, key=lambda e: LOCAL_ORDER.key(e.lm),
                                               monomial=lambda e: e.lm, reverse=True)]


def leading_staircase(basis: Sequence[Polynomial]) -> tuple:
    """Minimal generators of the leading-term ideal of a standard basis."""
    return tuple(minimal_generators({leading_monomial(g, LOCAL_ORDER) for g in basis},
                                    key=lambda m: (monomial_degree(m), m)))


def closure_degree(staircase: Sequence[Monomial], order: int) -> Optional[int]:
    """The least k <= order such that every monomial of degree k lies in
    the monomial ideal generated by staircase; None when there is none."""
    for k in range(order + 1):
        if all(any(monomial_divides(m, (a, k - a)) for m in staircase)
               for a in range(k + 1)):
            return k
    return None


@dataclass(frozen=True)
class StabilizationCertificate:
    """Evidence that a corner computation saw the whole staircase: every
    monomial of degree `closure` <= `order` is a leading monomial of
    I + m^{order+1}, so m^closure lies in I (Nakayama, module docstring)
    and `multiplicity` is the colength of I."""

    order: int
    closure: int
    staircase: tuple
    multiplicity: int

    def holds(self) -> bool:
        return (closure_degree(self.staircase, self.order) == self.closure
                and staircase_count(self.staircase, 2) == self.multiplicity)


def corner_colength(gens: Sequence[Polynomial], order: int,
                    budget: Optional[Budget] = None) -> Optional[StabilizationCertificate]:
    """The colength of the local ideal of gens, certified on the corner
    at order; None when the staircase does not close by order."""
    lts = leading_staircase(standard_basis(gens, order, budget))
    k = closure_degree(lts, order)
    return None if k is None else StabilizationCertificate(order, k, lts,
                                                           staircase_count(lts, 2))


def local_quotient_dimension(gens: Sequence[Polynomial],
                             budget: Optional[Budget] = None):
    """dim of the local ring modulo the ideal of the polynomials gens;
    inf when it is infinite.  Corners at doubling orders up to the Bezout
    order max(d, 1)^2, d the largest generator degree (module docstring)."""
    d = max((g.total_degree() for g in gens if not g.is_zero()), default=0)
    order, bezout = 1, max(d, 1) ** 2
    while (cert := corner_colength(gens, order, budget)) is None:
        if order == bezout:
            return inf
        order = min(2 * order, bezout)
    return cert.multiplicity


def corner_member(f: Jet2, basis: Sequence[Polynomial], order: int,
                  budget: Optional[Budget] = None) -> bool:
    """f in <basis> + m^{n+1}, basis a standard basis of I + m^{N+1} for
    some N >= order, and n the order, or f's stored order when f cannot
    regenerate."""
    if f.is_zero():
        return True
    order = _capped_order(order, [f])
    return mora_normal_form(f.regenerate(order).poly, basis, order, budget).is_zero()


def local_membership(f: Jet2, gens: Sequence[Jet2], order: Optional[int] = None,
                     budget: Optional[Budget] = None) -> bool:
    """f in the local ideal generated by gens, certified up to the order."""
    live = [g for g in gens if not g.is_zero()]
    if order is None:
        order = max([f.order] + [g.order for g in live])
    order = _capped_order(order, [f] + live)
    basis = standard_basis([g.regenerate(order).poly for g in live], order, budget)
    return corner_member(f, basis, order, budget)
