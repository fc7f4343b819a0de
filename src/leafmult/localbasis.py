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
takes at most that many steps.  The reducer is the first whose leading
monomial divides lm(h) in the pool sorted stably by total degree, so the
first of least degree in pool order, which the callers keep canonical.
The steps run in `poly._divide`, the package's one division loop.

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
that order rather than starting there, since a corner that does not close
reduces up to its order: with f, g the colength-4 pair of the tests'
`TestCornerLowering`, the pair `(t1-t2^2)*f, (t1-t2^2)*g` spends 36 budget
steps at N = 8 and 737 at N = 28 (0.8 and 15 ms on a 2-vCPU Xeon VM, Python 3.11).

The corner is lowered when it closes.  With m^k in I, I + m^{N+1} = I =
I + m^{k+1} for every N >= k, so a standard basis computed at k decides at
every N >= k: its elements, truncated at k, differ from elements of I by
terms in m^{k+1}, inside I, and their leading monomials hold every minimal
generator of L(I), all of degree <= k.  `standard_basis` checks the
closure of its pool after each new element and goes on at k once the pool
closes there, and `corner_member` reduces at k when its basis closes at k
below the requested order.  A closed corner then costs the same at every
N above its closure: the colength-4 pair f, g spends 10 budget steps at
N = 8 and at N = 28, where the corner kept at N spent 53 and 793.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import inf
from operator import attrgetter
from typing import Optional, Sequence

from .errors import DomainError
from .ideals import (
    Budget,
    MonomialOrder,
    _s_polynomial,
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
    monomial_lcm,
    _Lead,
    _divide,
    _scaled,
)

LOCAL_ORDER = MonomialOrder("local")


_by_degree = attrgetter("degree")


def mora_normal_form(f: Polynomial, gens: Sequence[Polynomial], order: int,
                     budget: Optional[Budget] = None) -> Polynomial:
    """Normal form of f modulo m^{order+1}: f - result lies in
    <gens> + m^{order+1}, and the result has no term of degree above order.
    Zero iff f is a member when gens is a standard basis (module
    docstring)."""
    if budget is None:
        budget = Budget(cap=500_000, stage="mora")
    return _reduce(f.truncated(order), _corner_pool(gens, order), budget, order, "mora")


def _corner_pool(gens: Sequence[Polynomial], order: int) -> list:
    """The nonzero gens truncated at order, as reducers sorted stably by
    total degree."""
    gens = (g.truncated(order) for g in gens)
    return sorted((_Lead(g, LOCAL_ORDER.key) for g in gens if not g.is_zero()), key=_by_degree)


def mora_divide(f: Polynomial, divisor: Polynomial, order: int,
                budget: Optional[Budget] = None) -> tuple:
    """Division of f by divisor modulo m^{order+1}.

    Returns (remainder, quotient) with
    f = quotient*divisor + remainder  mod m^{order+1}, both free of terms
    above order.  This realizes division of germs."""
    if budget is None:
        budget = Budget(cap=500_000, stage="mora divide")
    divisor = divisor.truncated(order)
    pool = [] if divisor.is_zero() else [_Lead(divisor, LOCAL_ORDER.key)]
    quotient: dict = {}
    rem = _reduce(f.truncated(order), pool, budget, order, "mora divide", [quotient])
    return rem, Polynomial(f.ring, quotient)


def _reduce(h: Polynomial, pool: Sequence[_Lead], budget: Budget, order: int,
            stage: str, quotients: Optional[list] = None) -> Polynomial:
    """Normal form of h, already truncated at order, on a pool sorted
    stably by total degree: lead reduction by `poly._divide` on the
    corner, with quotients as there."""
    work, scale = _divide(h, pool, LOCAL_ORDER.heap_key, max_degree=order, budget=budget,
                          stage=stage, quotients=quotients)
    return _scaled(h.ring, work, scale)


def standard_basis(gens: Sequence[Polynomial], order: int,
                   budget: Optional[Budget] = None) -> list:
    """Buchberger loop with the corner normal form modulo m^{order+1}; no pair
    criteria beyond deduplication (the product criterion is unsafe for
    local orders).  Pairs are taken in (lcm degree, (i, j)) order while
    their lcm degree is at most the order: above it the S-polynomial
    truncates to zero.

    The corner is lowered when it closes: once the leading monomials of the
    pool close at some k below the order, the loop goes on at order k with
    the pool truncated there (module docstring).

    The result, together with the monomials of degree order+1, is a
    standard basis of <gens> + m^{order+1}; when its leading monomials
    close at k <= order, it is a standard basis of <gens>, truncated at k.
    A basis holding a unit is returned as [1]."""
    if budget is None:
        budget = Budget(cap=500_000, stage="standard basis")
    ring = None
    pool: list[_Lead] = []  # in order of joining: pairs index it
    for g in gens:
        g = g.truncated(order)
        if g.is_zero():
            continue
        if ring is None:
            ring = g.ring
            if len(ring) != 2:
                raise DomainError("the local engine is specialized to two variables")
        pool.append(_Lead(monic(g, LOCAL_ORDER), LOCAL_ORDER.key))
    # S-polynomials and their reductions lie in m, so only an input unit
    # makes the ideal the whole ring
    if any(not any(e.lm) for e in pool):
        return [Polynomial.constant(ring, 1)]
    pairs = [(monomial_degree(monomial_lcm(pool[i].lm, pool[j].lm)), (i, j))
             for i in range(len(pool)) for j in range(i + 1, len(pool))]
    heapify(pairs)
    pool, pairs, order = _lowered(pool, pairs, order)
    by_degree = sorted(pool, key=_by_degree)
    while pairs and pairs[0][0] <= order:
        budget.spend(1, "standard basis")
        _, (i, j) = heappop(pairs)
        a, b = pool[i], pool[j]
        s = _s_polynomial(a.poly, a.lm, b.poly, b.lm).truncated(order)
        h = _reduce(s, by_degree, budget, order, "mora")
        if not h.is_zero():
            new = _Lead(monic(h, LOCAL_ORDER), LOCAL_ORDER.key)
            for k, e in enumerate(pool):
                heappush(pairs, (monomial_degree(monomial_lcm(e.lm, new.lm)), (k, len(pool))))
            pool.append(new)
            pool, pairs, lowered = _lowered(pool, pairs, order)
            if lowered < order:
                order = lowered
                by_degree = sorted(pool, key=_by_degree)
            else:
                insort(by_degree, new, key=_by_degree)
    return _minimalize(pool)


def _lowered(pool: list, pairs: list, order: int) -> tuple:
    """(pool, pairs, order), lowered to the closure degree k of the pool's
    leading monomials when k < order: the entries truncated at k, and the
    heap of their pairs of lcm degree at most k, reindexed.  An entry whose
    leading monomial lies above k truncates to zero, and so does the
    S-polynomial of every pair of it."""
    k = closure_degree([e.lm for e in pool], order)
    if k is None or k == order:
        return pool, pairs, order
    keep = [i for i, e in enumerate(pool) if monomial_degree(e.lm) <= k]
    index = {i: n for n, i in enumerate(keep)}
    pairs = [(d, (index[i], index[j])) for d, (i, j) in pairs if d <= k]
    heapify(pairs)
    return [_Lead(pool[i].poly.truncated(k), LOCAL_ORDER.key) for i in keep], pairs, k


def _minimalize(pool: list) -> list:
    return [e.poly for e in minimal_generators(pool, key=lambda e: LOCAL_ORDER.key(e.lm),
                                               monomial=lambda e: e.lm, reverse=True)]


def leading_staircase(basis: Sequence[Polynomial]) -> tuple:
    """Minimal generators of the leading-term ideal of a standard basis."""
    return tuple(minimal_generators({leading_monomial(g, LOCAL_ORDER) for g in basis},
                                    key=lambda m: (monomial_degree(m), m)))


def closure_degree(staircase: Sequence[Monomial], order: int) -> Optional[int]:
    """The least k <= order such that every monomial of degree k lies in
    the monomial ideal generated by staircase; None when there is none.

    In two variables the minimal generators (a_i, b_i), sorted by a, have
    falling b.  The monomials outside the ideal lie under the corners
    (a_{i+1} - 1, b_i - 1), so the ideal holds m^k from
    k = max(a_{i+1} + b_i) - 1 on, when it holds pure powers of both
    variables, and holds no power of m otherwise."""
    corners, low = [], inf
    for a, b in sorted(staircase):
        if b < low:
            corners.append((a, b))
            low = b
    if not corners or corners[0][0] or corners[-1][1]:
        return None
    k = max((a + b for (_, b), (a, _) in zip(corners, corners[1:])), default=1) - 1
    return k if k <= order else None


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
    regenerate.  When the basis closes at k < n, m^k lies in I and the
    normal form runs at k (module docstring)."""
    if f.is_zero():
        return True
    n = _capped_order(order, [f])
    pool = _corner_pool(basis, n)
    k = closure_degree([e.lm for e in pool], n)
    order = n if k is None else k
    if budget is None:
        budget = Budget(cap=500_000, stage="mora")
    return _reduce(f.regenerate(n).poly.truncated(order), pool, budget, order, "mora").is_zero()


def local_membership(f: Jet2, gens: Sequence[Jet2], order: Optional[int] = None,
                     budget: Optional[Budget] = None) -> bool:
    """f in the local ideal generated by gens, certified up to the order."""
    live = [g for g in gens if not g.is_zero()]
    if order is None:
        order = max([f.order] + [g.order for g in live])
    order = _capped_order(order, [f] + live)
    basis = standard_basis([g.regenerate(order).poly for g in live], order, budget)
    return corner_member(f, basis, order, budget)
