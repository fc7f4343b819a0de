"""Local standard bases in two variables via Mora's tangent-cone normal form.

Leading terms are taken under the local order (1 largest, then lower total
degree first), so the staircase of leading monomials counts the dimension
of the local quotient ring.  The engine is specialized to two variables:
the leaf is two-dimensional everywhere in this package.

Highest corner.  `standard_basis` and `mora_normal_form` take an optional
max_degree=N and then compute in Q[t1,t2]/m^{N+1}: they drop the terms of
total degree above N from the input, from every S-polynomial and from every
reduction step, which is reduction by the monomials of degree N+1
(Singular's highest corner; Greuel and Pfister, *A Singular Introduction to
Commutative Algebra*, 1.6-1.7).  Mora's ecart rule and the pool of appended
reducers stay: without them a reduction climbs degree by degree up to N.

Why this decides the same local memberships.  The local order is
degree-compatible, so the leading monomial of a series with a term of
degree <= N lies among its terms of least degree, and the leading ideal of
I + m^{N+1} is L(I) + m^{N+1}.  The truncated weak normal form r of f has
no term above N, and u*f - r lies in I + m^{N+1} for a unit u.  If r is
nonzero, its leading monomial has degree <= N and lies outside L(I), so r,
and with it f, lies outside I + m^{N+1}.  Hence r = 0 exactly when f lies
in I + m^{N+1}, the question that the untruncated remainder answers when it
is asked whether it lies in m^{N+1}.  Any standard basis of I + m^{N'+1}
with N' >= N gives the same decision at N.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import inf
from typing import Optional, Sequence

from .errors import DomainError
from .ideals import (
    Budget,
    MonomialOrder,
    _s_polynomial,
    leading_term,
    monic,
    staircase_count,
)
from .jets import Jet2
from .poly import (
    Monomial,
    Polynomial,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
)

LOCAL_ORDER = MonomialOrder("local")


def _struct_key(p: Polynomial):
    """Deterministic tie-break without stringifying coefficients (whose
    integers can be enormous on deep jets)."""
    return tuple(sorted(p.terms.items()))


class _Lead:
    """A pool polynomial with its leading term and its Mora selection key
    (ecart, total degree, structural tie-break), computed once when it joins
    the pool.  `cofactors` rides along for mora_divide."""

    __slots__ = ("poly", "lm", "lc", "degree", "ecart", "key", "cofactors")

    def __init__(self, poly: Polynomial, lead=None, cofactors=None):
        lm, lc = lead or leading_term(poly, LOCAL_ORDER)
        degree = poly.total_degree()
        self.poly, self.lm, self.lc, self.degree = poly, lm, lc, degree
        self.ecart = degree - monomial_degree(lm)
        self.key = (self.ecart, degree, _struct_key(poly))
        self.cofactors = cofactors


def _select(pool: list, lm: Monomial) -> Optional[_Lead]:
    """The first pool entry of least key whose leading monomial divides lm."""
    best = None
    for e in pool:
        if monomial_divides(e.lm, lm) and (best is None or e.key < best.key):
            best = e
    return best


def mora_normal_form(f: Polynomial, gens: Sequence[Polynomial],
                     budget: Optional[Budget] = None,
                     max_degree: Optional[int] = None) -> Polynomial:
    """Mora's weak normal form: for some unit u, u*f - result lies in the
    ideal generated by gens (in the local ring).  Zero iff f is a member
    when gens is a standard basis.  With max_degree=N the ideal is
    <gens> + m^{N+1} (highest corner, see the module docstring), and the
    result has no term of degree above N."""
    if budget is None:
        budget = Budget(cap=500_000, stage="mora")
    if max_degree is not None:
        f = f.truncated(max_degree)
        gens = [g.truncated(max_degree) for g in gens]
    return _normal_form(f, [_Lead(g) for g in gens if not g.is_zero()], budget,
                        max_degree)


def _normal_form(h: Polynomial, pool: list, budget: Budget,
                 max_degree: Optional[int] = None) -> Polynomial:
    """mora_normal_form on a pool of entries, h already truncated at
    max_degree; appends to the pool."""
    while not h.is_zero():
        lm_h, lc_h = leading_term(h, LOCAL_ORDER)
        g = _select(pool, lm_h)
        if g is None:
            return h
        if g.ecart and g.ecart > h.total_degree() - monomial_degree(lm_h):
            pool.append(_Lead(h, (lm_h, lc_h)))
        shift = monomial_div(lm_h, g.lm)
        # a product that stays within the corner needs no per-term test
        cap = max_degree
        if cap is not None and monomial_degree(shift) + g.degree <= cap:
            cap = None
        h = h.sub_mul(shift, lc_h / g.lc, g.poly, cap)
        budget.spend(1, "mora")
    return h


def mora_divide(f: Polynomial, divisors: Sequence[Polynomial],
                budget: Optional[Budget] = None):
    """Mora reduction with cofactor tracking.

    Returns (remainder, u, quotients) with u*f = sum(quotients[i]*divisors[i])
    + remainder exactly, and u a unit of the local ring (nonzero constant
    term).  With a single divisor this realizes division of germs."""
    if budget is None:
        budget = Budget(cap=500_000, stage="mora divide")
    ring = f.ring
    one = Polynomial.constant(ring, 1)
    zero = Polynomial.zero(ring)
    divisors = list(divisors)
    # cofactors of a pool entry: (u, quotient list)
    pool = [_Lead(g, cofactors=(zero, [one if i == j else zero
                                       for j in range(len(divisors))]))
            for i, g in enumerate(divisors) if not g.is_zero()]
    h, u_h, q_h = f, one, [zero] * len(divisors)
    while not h.is_zero():
        lm_h, lc_h = leading_term(h, LOCAL_ORDER)
        g = _select(pool, lm_h)
        if g is None:
            break
        if g.ecart and g.ecart > h.total_degree() - monomial_degree(lm_h):
            pool.append(_Lead(h, (lm_h, lc_h), (u_h, list(q_h))))
        shift, c = monomial_div(lm_h, g.lm), lc_h / g.lc
        u_g, q_g = g.cofactors
        h = h.sub_mul(shift, c, g.poly)
        u_h = u_h.sub_mul(shift, c, u_g)
        q_h = [a.sub_mul(shift, c, b) for a, b in zip(q_h, q_g)]
        budget.spend(1, "mora divide")
    # u_h * f - sum(q_h * divisors) = remainder, with sign conventions below
    u = u_h
    quots = [-q for q in q_h]
    return h, u, quots


def standard_basis(gens: Sequence[Polynomial], budget: Optional[Budget] = None,
                   max_degree: Optional[int] = None) -> list:
    """Buchberger loop with Mora normal form; no pair criteria beyond
    deduplication (the product criterion is unsafe for local orders).
    Pairs are taken in (lcm degree, (i, j)) order.

    With max_degree=N the result, together with the monomials of degree
    N+1, is a standard basis of <gens> + m^{N+1} (module docstring), and a
    basis holding a unit is returned as [1]."""
    if budget is None:
        budget = Budget(cap=500_000, stage="standard basis")
    ring = None
    pool: list[_Lead] = []
    for g in gens:
        if max_degree is not None:
            g = g.truncated(max_degree)
        if g.is_zero():
            continue
        if ring is None:
            ring = g.ring
            if len(ring) != 2:
                raise DomainError("the local engine is specialized to two variables")
        pool.append(_Lead(monic(g, LOCAL_ORDER)))
    # S-polynomials and their reductions lie in m, so only an input unit
    # makes the ideal the whole ring
    if max_degree is not None and any(not any(e.lm) for e in pool):
        return [Polynomial.constant(ring, 1)]
    pairs = [(monomial_degree(monomial_lcm(pool[i].lm, pool[j].lm)), (i, j))
             for i in range(len(pool)) for j in range(i + 1, len(pool))]
    heapify(pairs)
    while pairs:
        budget.spend(1, "standard basis", partial=[e.poly for e in pool])
        _, (i, j) = heappop(pairs)
        a, b = pool[i], pool[j]
        s = _s_polynomial(a.poly, a.lm, a.lc, b.poly, b.lm, b.lc)
        if max_degree is not None:
            s = s.truncated(max_degree)
        h = _normal_form(s, list(pool), budget, max_degree)
        if not h.is_zero():
            new = _Lead(monic(h, LOCAL_ORDER))
            for k, e in enumerate(pool):
                heappush(pairs, (monomial_degree(monomial_lcm(e.lm, new.lm)), (k, len(pool))))
            pool.append(new)
    return _minimalize(pool)


def _minimalize(pool: list) -> list:
    out: list[_Lead] = []
    for e in sorted(pool, key=lambda e: LOCAL_ORDER.key(e.lm), reverse=True):
        if all(not monomial_divides(o.lm, e.lm) for o in out):
            out.append(e)
    return [e.poly for e in out]


def leading_staircase(basis: Sequence[Polynomial]) -> tuple:
    """Minimal generators of the leading-term ideal of a standard basis."""
    monos = sorted({leading_term(g, LOCAL_ORDER)[0] for g in basis},
                   key=lambda m: (monomial_degree(m), m))
    minimal = []
    for m in monos:
        if all(not monomial_divides(m2, m) for m2 in minimal):
            minimal.append(m)
    return tuple(minimal)


def local_quotient_dimension(gens: Sequence[Polynomial],
                             budget: Optional[Budget] = None):
    """dim of the local ring modulo the ideal of the (polynomial) germs;
    inf when the staircase is unbounded."""
    return staircase_at_order(gens, budget)[1]


def local_membership(f: Jet2, gens: Sequence[Jet2], order: Optional[int] = None,
                     budget: Optional[Budget] = None) -> bool:
    """f in the local ideal generated by gens, certified up to the order."""
    if f.is_zero():
        return True
    live = [g for g in gens if not g.is_zero()]
    if not live:
        return False
    order = order or max([f.order] + [g.order for g in live])
    # producer-less jets cap the certifiable order
    for j in [f] + live:
        if not j.can_regenerate():
            order = min(order, j.order)
    basis = standard_basis([g.regenerate(order).poly for g in live], budget,
                           max_degree=order)
    target = f.regenerate(order).poly
    if target.is_zero():
        return True
    return mora_normal_form(target, basis, budget, max_degree=order).is_zero()


@dataclass(frozen=True)
class StabilizationCertificate:
    """Evidence that a truncated local computation saw the whole staircase:
    the staircase agreed at two consecutive truncation orders and fits
    strictly inside the truncation box."""

    orders: tuple
    staircase: tuple
    multiplicity: object
    fits_strictly: bool

    def holds(self) -> bool:
        return self.fits_strictly and self.multiplicity is not inf


def staircase_at_order(polys: Sequence[Polynomial], budget: Optional[Budget] = None):
    """(staircase minimal generators, multiplicity) of the truncations."""
    basis = standard_basis(polys, budget)
    if not basis:
        return (), inf
    lts = leading_staircase(basis)
    return lts, staircase_count(lts, 2)
