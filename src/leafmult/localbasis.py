"""Local standard bases in two variables via Mora's tangent-cone normal form.

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

Memberships.  The local order is degree-compatible, so the leading
monomial of a series with a term of degree <= N lies among its terms of
least degree, and the leading ideal of I + m^{N+1} is L(I) + m^{N+1}.  The
truncated weak normal form r of f has no term above N, and u*f - r lies in
I + m^{N+1} for a unit u.  If r is nonzero, its leading monomial has
degree <= N and lies outside L(I), so r, and with it f, lies outside
I + m^{N+1}.  Hence r = 0 exactly when f lies in I + m^{N+1}.  Any standard
basis of I + m^{N'+1} with N' >= N gives the same decision at N.

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

Mora's ecart rule and appended reducers stay.  Plain reduction on the
corner terminates too (the leading monomial falls through the finite set
of monomials of degree <= N) but climbs degree by degree: t1 against
t1 - t1^2 at N = 40 takes 40 steps, not 2.  On the flat-leaf pair
(y^2-x^3)*(y+1/2*x^2) | (y^2-x^3)*(y-3/2*x^2) at order 84 it took 7.45 s
against 0.21 s, and an exact-leaf benchmark pass (seed 1) 7.8 s against
1.6 s, with 2.1% of its cases past the deadline.
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


def mora_normal_form(f: Polynomial, gens: Sequence[Polynomial], order: int,
                     budget: Optional[Budget] = None) -> Polynomial:
    """Mora's weak normal form modulo m^{order+1}: for some unit u,
    u*f - result lies in <gens> + m^{order+1}, and the result has no term
    of degree above order.  Zero iff f is a member when gens is a standard
    basis (module docstring)."""
    if budget is None:
        budget = Budget(cap=500_000, stage="mora")
    pool = [_Lead(g) for g in (g.truncated(order) for g in gens) if not g.is_zero()]
    return _reduce(f.truncated(order), pool, budget, order, "mora")[0]


def mora_divide(f: Polynomial, divisors: Sequence[Polynomial], order: int,
                budget: Optional[Budget] = None):
    """Mora reduction with cofactor tracking modulo m^{order+1}.

    Returns (remainder, u, quotients) with
    u*f = sum(quotients[i]*divisors[i]) + remainder  mod m^{order+1},
    every part free of terms above order, and u a unit of the local ring
    (nonzero constant term).  With a single divisor this realizes division
    of germs."""
    if budget is None:
        budget = Budget(cap=500_000, stage="mora divide")
    one, zero = Polynomial.constant(f.ring, 1), Polynomial.zero(f.ring)
    divisors = [g.truncated(order) for g in divisors]
    # cofactors of a pool entry: (u, quotient list)
    pool = [_Lead(g, cofactors=(zero, [one if i == j else zero
                                       for j in range(len(divisors))]))
            for i, g in enumerate(divisors) if not g.is_zero()]
    h, (u, quots) = _reduce(f.truncated(order), pool, budget, order, "mora divide",
                            (one, [zero] * len(divisors)))
    return h, u, [-q for q in quots]


def _reduce(h: Polynomial, pool: list, budget: Budget, order: int, stage: str,
            cofactors=None) -> tuple:
    """(Mora's weak normal form of h, cofactors) on a pool of entries, h
    already truncated at order; appends to the pool.  cofactors, when
    given, are (u, quotients) with h = u*f + sum(quotients*divisors), and
    come back updated for the result."""
    while not h.is_zero():
        lm_h, lc_h = leading_term(h, LOCAL_ORDER)
        g = _select(pool, lm_h)
        if g is None:
            break
        if g.ecart and g.ecart > h.total_degree() - monomial_degree(lm_h):
            pool.append(_Lead(h, (lm_h, lc_h), cofactors))
        shift, c = monomial_div(lm_h, g.lm), lc_h / g.lc
        # a product that stays within the corner needs no per-term test
        cap = None if monomial_degree(shift) + g.degree <= order else order
        h = h.sub_mul(shift, c, g.poly, cap)
        if cofactors is not None:
            (u_h, q_h), (u_g, q_g) = cofactors, g.cofactors
            cofactors = (u_h.sub_mul(shift, c, u_g, order),
                         [a.sub_mul(shift, c, b, order) for a, b in zip(q_h, q_g)])
        budget.spend(1, stage)
    return h, cofactors


def standard_basis(gens: Sequence[Polynomial], order: int,
                   budget: Optional[Budget] = None) -> list:
    """Buchberger loop with Mora normal form modulo m^{order+1}; no pair
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
        budget.spend(1, "standard basis", partial=[e.poly for e in pool])
        _, (i, j) = heappop(pairs)
        a, b = pool[i], pool[j]
        s = _s_polynomial(a.poly, a.lm, a.lc, b.poly, b.lm, b.lc).truncated(order)
        h = _reduce(s, list(pool), budget, order, "mora")[0]
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
    order = order if f.can_regenerate() else min(order, f.order)
    return mora_normal_form(f.regenerate(order).poly, basis, order, budget).is_zero()


def local_membership(f: Jet2, gens: Sequence[Jet2], order: Optional[int] = None,
                     budget: Optional[Budget] = None) -> bool:
    """f in the local ideal generated by gens, certified up to the order."""
    live = [g for g in gens if not g.is_zero()]
    order = order or max([f.order] + [g.order for g in live])
    # producer-less jets cap the certifiable order
    order = min([order] + [j.order for j in [f] + live if not j.can_regenerate()])
    basis = standard_basis([g.regenerate(order).poly for g in live], order, budget)
    return corner_member(f, basis, order, budget)
