"""Groebner-basis machinery for global polynomial ideals.

Buchberger with the product and chain criteria (Gebauer-Moeller pair
update) and normal selection; exact arithmetic throughout.  Reduction,
in `poly._divide`, is fraction-free (von zur Gathen and Gerhard, *Modern
Computer Algebra*, ch. 6): it runs on the integer numerators of the
polynomials and scales the working polynomial instead of dividing it.
Budgets guard against blowup: on cap overrun a BudgetExceededError names
the stage that ran out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import inf, lcm
from operator import attrgetter, neg
from typing import Callable, Optional, Sequence

from .errors import BudgetExceededError, DomainError
from .poly import (
    Monomial,
    Polynomial,
    degrevlex_key,
    exact_divide,
    gcd as poly_gcd,
    minimal_generators,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    normalize_leading,
    squarefree_part,
    _Lead,
    _as_univariate,
    _canonical,
    _degrevlex_heap_key,
    _divide,
    _scaled,
    _sub_mul_into,
    _with_unit_coefficient,
)


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order on a ring of fixed size.

    kinds: "degrevlex" and "lex" (global), "local" (negative degrevlex;
    1 is the largest monomial).

    `key(mono)` is the sort key: bigger key = bigger monomial.
    `heap_key(mono)` sorts the other way: a smaller heap key is a bigger
    monomial, so a min-heap pops the largest monomial first.
    """

    kind: str = "degrevlex"
    key: Callable = field(init=False, repr=False, compare=False)
    heap_key: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("degrevlex", "lex", "local"):
            raise DomainError(f"unknown order kind {self.kind!r}")
        key, heap_key = _sort_keys(self.kind)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "heap_key", heap_key)

    def is_global(self) -> bool:
        return self.kind in ("degrevlex", "lex")

    def greater(self, a: Monomial, b: Monomial) -> bool:
        return self.key(a) > self.key(b)


def _sort_keys(kind: str) -> tuple:
    """(key, heap_key) of an order, specialized once per order: monomials
    are compared (total degree, reversed negated exponents) for degrevlex,
    with the degree negated for local, and by exponents for lex.  The heap
    key negates every entry of the key, so it orders the other way."""
    if kind == "lex":
        return tuple, lambda m: tuple(map(neg, m))
    if kind == "degrevlex":
        return degrevlex_key, _degrevlex_heap_key
    return lambda m: (-sum(m), tuple(map(neg, m[::-1]))), lambda m: (sum(m), m[::-1])


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")

# largest radical-membership exponent searched for
EXPONENT_CAP = 64
# the power before which nullstellensatz_exponent asks radical_membership
_RADICAL_CHECK_AT = 8


def leading_term(p: Polynomial, order: MonomialOrder):
    """(monomial, coefficient) of the largest term."""
    m = leading_monomial(p, order)
    return m, Fraction(p.num[m], p.den)


def leading_monomial(p: Polynomial, order: MonomialOrder) -> Monomial:
    if p.is_zero():
        raise DomainError("leading term of zero")
    return max(p.num, key=order.key)


def monic(p: Polynomial, order: MonomialOrder) -> Polynomial:
    if p.is_zero():
        return p
    return _with_unit_coefficient(p, leading_monomial(p, order))


class Budget:
    """Mutable step counter shared along one computation."""

    def __init__(self, cap: int = 200_000, stage: str = ""):
        self.cap = cap
        self.used = 0
        self.stage = stage

    def spend(self, n: int = 1, stage: str = "", _unused=None):
        # the fourth argument is ignored; perfbench/tracer.py still passes it
        self.used += n
        if self.used > self.cap:
            raise BudgetExceededError(
                f"budget of {self.cap} steps exceeded" + (f" in {stage}" if stage else ""),
                stage=stage or self.stage,
            )


@dataclass(frozen=True)
class IdealPresentation:
    """A finite generator list.  Generators are nonzero, deduplicated and
    canonically sorted so equal presentations hash equal."""

    ring: tuple
    generators: tuple = ()

    def __post_init__(self):
        gens = []
        seen = set()
        for g in self.generators:
            if g.ring != self.ring:
                raise DomainError("generator ring does not match ideal ring")
            if g.is_zero():
                continue
            g = normalize_leading(g)
            if g not in seen:
                seen.add(g)
                gens.append(g)
        gens.sort(key=lambda p: (p.total_degree(), len(p.num), str(p)))
        object.__setattr__(self, "generators", tuple(gens))

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def max_degree(self) -> int:
        return max((g.total_degree() for g in self.generators), default=-1)

    def extended(self, extra) -> "IdealPresentation":
        return IdealPresentation(self.ring, self.generators + tuple(extra))

    def __str__(self):
        return "<" + ", ".join(str(g) for g in self.generators) + ">"


@dataclass(frozen=True)
class GroebnerStats:
    """The budget steps one basis computation spends, by stage."""

    pairs_considered: int = 0
    reductions: int = 0


@dataclass(frozen=True)
class GroebnerBasis:
    """`leads` holds each basis element as a `poly._Lead`, found once for
    the normal forms that reduce against it."""

    order: MonomialOrder
    basis: tuple
    stats: GroebnerStats = field(default_factory=GroebnerStats, compare=False)
    leads: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "leads", _leads(self.basis, self.order))

    def leading_monomials(self):
        return [e.lm for e in self.leads]

    def is_unit_ideal(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant() and not self.basis[0].is_zero()


def reduce_poly(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder,
                budget: Optional[Budget] = None, with_quotients: bool = False):
    """Full multivariate division under a global order: returns remainder
    (and quotients when asked).  Deterministic: the first reducer in basis
    order wins.  `poly._divide` with a remainder kept beside the work."""
    quotients = [{} for _ in basis] if with_quotients else None
    rem = _remainder(f, _leads(basis, order), order, budget, quotients)
    if with_quotients:
        return [Polynomial(f.ring, q) for q in quotients], rem
    return rem


def _leads(basis: Sequence[Polynomial], order: MonomialOrder) -> tuple:
    return tuple(_Lead(g, order.key) for g in basis)


def _remainder(f: Polynomial, leads: Sequence[_Lead], order: MonomialOrder,
               budget: Optional[Budget], quotients: Optional[list] = None) -> Polynomial:
    rest: dict = {}
    _, scale = _divide(f, leads, order.heap_key, rest, budget=budget, stage="reduction",
                       quotients=quotients)
    return _scaled(f.ring, rest, scale)


def _s_polynomial(f: Polynomial, mf: Monomial, g: Polynomial, mg: Monomial) -> Polynomial:
    """x^(l-mf) f/cf - x^(l-mg) g/cg with l = lcm(mf, mg), cf and cg the
    coefficients of f at mf and of g at mg (their leading terms).  Since
    f/cf = f.num / f.num[mf], it is computed over the lcm of the two
    leading numerators."""
    a, b = f.num[mf], g.num[mg]
    den = lcm(a, b)
    l = monomial_lcm(mf, mg)
    shift, ka = monomial_div(l, mf), den // a
    acc = {monomial_mul(shift, m): c * ka for m, c in f.num.items()}
    _sub_mul_into(acc, monomial_div(l, mg), den // b, g.num)
    return _canonical(f.ring, acc, den)


def _gm_update(G: list, P: set, new: _Lead, order: MonomialOrder) -> set:
    """Gebauer-Moeller pair update; realizes the product and chain criteria.
    Appends new to G and returns the new pair set."""
    lm = [e.lm for e in G]
    m_new = new.lm
    t = len(G)
    # drop old pairs strictly dominated by the new element
    P = {(i, j) for (i, j) in P
         if not (monomial_divides(m_new, monomial_lcm(lm[i], lm[j]))
                 and monomial_lcm(lm[i], m_new) != monomial_lcm(lm[i], lm[j])
                 and monomial_lcm(lm[j], m_new) != monomial_lcm(lm[i], lm[j]))}
    # group candidate pairs by lcm, keep minimal ones
    lcms = {}
    for i in range(t):
        lcms.setdefault(monomial_lcm(lm[i], m_new), []).append(i)
    new_pairs = set()
    for L in minimal_generators(lcms, key=lambda m: (monomial_degree(m), order.key(m))):
        # product criterion: coprime leading monomials reduce to zero
        if any(monomial_lcm(lm[i], m_new) == monomial_mul(lm[i], m_new) for i in lcms[L]):
            continue
        new_pairs.add((min(lcms[L]), t))
    G.append(new)
    return P | new_pairs


class _BasisCache(dict):
    """The Groebner cache: (ideal, order) -> GroebnerBasis.  `derived`
    holds what the radical layer reads off those bases and their elements,
    squarefree parts, gcds and eliminants, keyed by the operation and its
    arguments.  clear() empties both, so a derived result lives exactly as
    long as the bases: one case, where a caller clears the cache per case."""

    def __init__(self):
        super().__init__()
        self.derived: dict = {}

    def clear(self):
        super().clear()
        self.derived.clear()


_GB_CACHE = _BasisCache()


def groebner(ideal: IdealPresentation, order: MonomialOrder = DEGREVLEX,
             budget: Optional[Budget] = None) -> GroebnerBasis:
    """Reduced Groebner basis; deterministic for fixed input and order.

    Every caller shares `_GB_CACHE`.  A hit charges `budget` the S-pairs and
    reduction steps the basis cost when it was computed, so `budget.used`,
    and whether the budget runs out, do not depend on what ran before."""
    if not order.is_global():
        raise DomainError("groebner requires a global order; use the local engine for local orders")
    cache_key = (ideal, order)
    hit = _GB_CACHE.get(cache_key)
    if hit is not None:
        for stage, n in (("groebner", hit.stats.pairs_considered),
                         ("reduction", hit.stats.reductions)):
            if n and budget is not None:
                budget.spend(n, stage)
        return hit
    budget = budget or Budget()
    # every spend below is one S-pair or one reduction step of this basis
    used_before = budget.used
    G: list[_Lead] = []  # the basis so far, each element with its leading term
    P: set = set()
    pairs_considered = 0
    for g in ideal.generators:
        r = _remainder(g, G, order, budget) if G else g
        if not r.is_zero():
            P = _gm_update(G, P, _Lead(monic(r, order), order.key), order)
    while P:
        pairs_considered += 1
        budget.spend(1, "groebner")
        # normal selection: smallest lcm degree, ties by order then index
        i, j = min(P, key=lambda p: (monomial_degree(m := monomial_lcm(G[p[0]].lm, G[p[1]].lm)),
                                     order.key(m), p))
        P.remove((i, j))
        s = _s_polynomial(G[i].poly, G[i].lm, G[j].poly, G[j].lm)
        r = _remainder(s, G, order, budget)
        if not r.is_zero():
            P = _gm_update(G, P, _Lead(monic(r, order), order.key), order)
    Gmin = minimal_generators(G, key=lambda e: order.key(e.lm), monomial=attrgetter("lm"))
    # interreduce tails
    Gred = []
    for i, e in enumerate(Gmin):
        others = Gmin[:i] + Gmin[i + 1:]
        r = _remainder(e.poly, others, order, budget) if others else e.poly
        Gred.append(monic(r, order))
    Gred.sort(key=lambda g: order.key(leading_monomial(g, order)), reverse=True)
    stats = GroebnerStats(pairs_considered=pairs_considered,
                          reductions=budget.used - used_before - pairs_considered)
    gb = GroebnerBasis(order=order, basis=tuple(Gred), stats=stats)
    _GB_CACHE[cache_key] = gb
    return gb


def normal_form(f: Polynomial, gb: GroebnerBasis,
                budget: Optional[Budget] = None) -> Polynomial:
    """Remainder of multivariate division; zero iff f is in the ideal."""
    return _remainder(f, gb.leads, gb.order, budget)


def member(f: Polynomial, ideal: IdealPresentation,
           budget: Optional[Budget] = None) -> bool:
    if f.is_zero():
        return True
    if ideal.is_zero_ideal():
        return False
    return normal_form(f, groebner(ideal, DEGREVLEX, budget), budget).is_zero()


def extend_ring(ideal: IdealPresentation):
    """A fresh variable `_t` (or `_t1`, ... when the ring has one) appended
    to the ring; returns (new_ring, lifted gens, index)."""
    name = "_t"
    k = 0
    while name in ideal.ring:
        k += 1
        name = f"_t{k}"
    new_ring = ideal.ring + (name,)
    var_map = list(range(len(ideal.ring)))
    lifted = [g.map_ring(new_ring, var_map) for g in ideal.generators]
    return new_ring, lifted, len(new_ring) - 1


def radical_membership(f: Polynomial, ideal: IdealPresentation,
                       budget: Optional[Budget] = None) -> bool:
    """Whether f lies in rad(I), decided in the quotient by the reduced
    degrevlex basis of I where one of two lemmas applies.

    (a) Let T be the variables the basis uses, S ⊆ T those of its leading
    monomials, w the variables of T outside S and z the variables outside
    T.  When the leading monomials include a pure power of every variable
    of S, the standard monomials in T are s*w^a with s one of the D
    standard monomials in S (D the staircase count), so B = Q[T]/(I ∩ Q[T])
    is a free Q[w]-module of rank D, and Q[x]/I = B[z].  A polynomial over
    a ring is nilpotent iff all its coefficients are (Atiyah and Macdonald,
    *Introduction to Commutative Algebra*, Ex. 1.2), and a nilpotent c in B
    has c^D = 0: B embeds in B ⊗ Q(w), an algebra of dimension D over a
    field, where cB ⊋ c^2 B ⊋ ... decreases strictly until it reaches 0.
    So f is in rad(I) iff c^D reduces to zero for every coefficient c of f
    in z, squaring with a reduction after each product.

    (b) Otherwise let d be the gcd of the basis.  When d is not constant,
    I = d*(I/d), so rad(I) = rad(d) ∩ rad(I/d): f is in rad(I) iff
    squarefree(d) divides f and f is in rad(I/d), decided in turn.

    Any other ideal, gcd-free and not zero-dimensional in the variables of
    its leading monomials, is decided by the Rabinowitsch trick: f in
    rad(I) iff 1 in <I, 1 - t*f> in the ring extended by t (Cox, Little
    and O'Shea, Ideals, Varieties, and Algorithms, 4.2).

    Each basis of I and I/d is read under a counter of its own with the
    budget's cap, and charged to the budget as a cache hit only when (a)
    or (b) decides, so the trick spends what it spent alone."""
    if f.is_zero():
        return True
    if ideal.is_zero_ideal():
        return False
    read = []
    while True:
        gb = groebner(ideal, DEGREVLEX, None if budget is None else Budget(budget.cap))
        read.append(ideal)
        leading = gb.leading_monomials()
        support = sorted({i for m in leading for i, e in enumerate(m) if e})
        dim = staircase_count([tuple(m[i] for i in support) for m in leading], len(support))
        if dim is not inf:
            for seen in read:
                groebner(seen, DEGREVLEX, budget)  # a hit: charges what the basis cost
            free = set(range(len(ideal.ring))).difference(*(g.variables_used() for g in gb.basis))
            coefficients = [f]
            for i in sorted(free):
                coefficients = [c for p in coefficients
                                for _, c in sorted(_as_univariate(p, i).items())]
            return all(_power_vanishes(c, dim, gb, budget) for c in coefficients)
        d = reduce(_gcd, gb.basis)
        if d.is_constant():
            break
        # rad(d) is generated by squarefree(d), a Groebner basis of it
        if not _remainder(f, _leads([_squarefree(d)], DEGREVLEX), DEGREVLEX, None).is_zero():
            for seen in read:
                groebner(seen, DEGREVLEX, budget)
            return False
        ideal = _divided(gb, d)
    new_ring, lifted, t_index = extend_ring(ideal)
    var_map = list(range(len(ideal.ring)))
    f_lift = f.map_ring(new_ring, var_map)
    t = Polynomial.variable(new_ring, t_index)
    trick = IdealPresentation(new_ring, tuple(lifted) + (Polynomial.constant(new_ring, 1) - t * f_lift,))
    gb = groebner(trick, DEGREVLEX, budget)
    return gb.is_unit_ideal()


def _power_vanishes(c: Polynomial, dim: int, gb: GroebnerBasis, budget: Optional[Budget]) -> bool:
    """Whether c^dim reduces to zero modulo gb, by squaring with a
    reduction after each product."""
    power = _remainder(Polynomial.constant(c.ring, 1), gb.leads, gb.order, budget)
    base = _remainder(c, gb.leads, gb.order, budget)
    while dim:
        if dim & 1:
            power = _remainder(power * base, gb.leads, gb.order, budget)
        dim >>= 1
        if dim:
            base = _remainder(base * base, gb.leads, gb.order, budget)
    return power.is_zero()


def leading_term_ideal(ideal: IdealPresentation, order: MonomialOrder = DEGREVLEX,
                       budget: Optional[Budget] = None) -> IdealPresentation:
    """Minimal monomial generators of LT(I)."""
    if ideal.is_zero_ideal():
        return IdealPresentation(ideal.ring)
    gb = groebner(ideal, order, budget)
    minimal = minimal_generators(set(gb.leading_monomials()),
                                 key=lambda m: (monomial_degree(m), order.key(m)))
    return IdealPresentation(ideal.ring, tuple(Polynomial.monomial(ideal.ring, m) for m in minimal))


def staircase_count(lt_monomials: Sequence[Monomial], ring_size: int):
    """Number of monomials outside the monomial ideal; inf when unbounded."""
    if any(monomial_degree(m) == 0 for m in lt_monomials):
        return 0
    bounds = []
    for i in range(ring_size):
        pure = [m[i] for m in lt_monomials if all(e == 0 for j, e in enumerate(m) if j != i)]
        if not pure:
            return inf
        bounds.append(min(pure))
    count = 0
    for mono in itertools.product(*(range(b) for b in bounds)):
        if all(not monomial_divides(g, mono) for g in lt_monomials):
            count += 1
    return count


def multiplicity_zero_dim(ideal: IdealPresentation, order: MonomialOrder = DEGREVLEX,
                          budget: Optional[Budget] = None):
    """dim of R/I as a vector space, counted by standard monomials; inf if
    the staircase is unbounded."""
    if ideal.is_zero_ideal():
        return inf
    gb = groebner(ideal, order, budget)
    if gb.is_unit_ideal():
        return 0
    return staircase_count(gb.leading_monomials(), len(ideal.ring))


def ideal_power(ideal: IdealPresentation, n: int) -> IdealPresentation:
    """Generators: all n-fold products of the input generators."""
    if n < 1:
        raise DomainError("ideal power needs n >= 1")
    if n == 1 or ideal.is_zero_ideal():
        return ideal
    prods = []
    for combo in itertools.combinations_with_replacement(ideal.generators, n):
        p = combo[0]
        for q in combo[1:]:
            p = p * q
        prods.append(p)
    return IdealPresentation(ideal.ring, tuple(prods))


def dimension(ideal: IdealPresentation, budget: Optional[Budget] = None) -> int:
    """Krull dimension via maximal independent variable sets of LT(I);
    -1 for the unit ideal."""
    n = len(ideal.ring)
    if ideal.is_zero_ideal():
        return n
    gb = groebner(ideal, DEGREVLEX, budget)
    if gb.is_unit_ideal():
        return -1
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in gb.leading_monomials()]
    best = 0
    for size in range(n, 0, -1):
        for subset in itertools.combinations(range(n), size):
            s = set(subset)
            if all(not sup <= s for sup in supports):
                return size
    return best


def eliminant(gb: GroebnerBasis, var: int, budget: Optional[Budget] = None) -> Polynomial:
    """The monic generator of I ∩ Q[x_var], gb the reduced degrevlex basis
    of a zero-dimensional I: the minimal polynomial of x_var in Q[x]/I.

    The normal forms NF(x_var^k) = NF(x_var * NF(x_var^(k-1))) are the
    classes of the powers in the quotient, of dimension D (the staircase
    count).  The first k at which NF(x_var^k) is a linear combination
    sum c_j NF(x_var^j) of those before it gives x_var^k - sum c_j x_var^j,
    the monic element of I ∩ Q[x_var] of least degree, among at most D + 1
    normal forms.  This is the univariate element of the reduced lex basis
    with x_var smallest, read without that basis (Faugère, Gianni, Lazard
    and Mora, J. Symbolic Comput. 16, 1993).  The reduction steps of the
    normal forms are charged to budget."""
    ring = gb.basis[0].ring
    if staircase_count(gb.leading_monomials(), len(ring)) is inf:
        raise DomainError("eliminant needs a zero-dimensional ideal")
    x = Polynomial.variable(ring, var)
    rows = []  # (pivot, row, relation): row = NF(relation), coefficient 1 at pivot
    power = Polynomial.constant(ring, 1)
    nf = normal_form(power, gb, budget)
    while True:
        row, relation = nf, power
        for pivot, prow, prel in rows:
            if pivot in row.num:
                c = Polynomial.constant(ring, Fraction(row.num[pivot], row.den))
                row, relation = row - c * prow, relation - c * prel
        if row.is_zero():
            return monic(relation, gb.order)
        pivot = leading_monomial(row, gb.order)
        scale = Polynomial.constant(ring, Fraction(row.den, row.num[pivot]))
        rows.append((pivot, row * scale, relation * scale))
        power = x * power
        nf = normal_form(x * nf, gb, budget)


def _derived(key: tuple, compute: Callable):
    """The entry of `_GB_CACHE.derived` at key, computed on first use."""
    table = _GB_CACHE.derived
    value = table.get(key)
    if value is None:
        value = table[key] = compute()
    return value


def _squarefree(p: Polynomial) -> Polynomial:
    """squarefree_part(p), computed once per case."""
    return _derived(("squarefree", p), lambda: squarefree_part(p))


def _gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """gcd(a, b), computed once per case."""
    return _derived(("gcd", a, b), lambda: poly_gcd(a, b))


def _eliminant(gb: GroebnerBasis, var: int, budget: Budget) -> Polynomial:
    """eliminant(gb, var, budget), computed once per case.  A repeat
    charges budget the reduction steps the computation spent, as a
    Groebner cache hit does, so budget.used does not depend on the memo."""
    key = ("eliminant", gb, var)
    hit = _GB_CACHE.derived.get(key)
    if hit is not None:
        poly, steps = hit
        if steps:
            budget.spend(steps, "reduction")
        return poly
    before = budget.used
    poly = eliminant(gb, var, budget)
    _GB_CACHE.derived[key] = poly, budget.used - before
    return poly


def nullstellensatz_exponent(g: Polynomial, ideal: IdealPresentation,
                             budget: Optional[Budget] = None) -> Optional[int]:
    """Least e <= EXPONENT_CAP with g^e in I, found by doubling then binary
    refine; None if no power up to the cap is a member.

    Once g, g^2 and g^4 are outside I, and before g^8 is formed,
    radical_membership decides whether g lies in rad(I).  If not, no power
    of g lies in I, and None is what the doubling up to the cap would
    return, without the costly high powers.  If so, the doubling and the
    refinement go on unchanged, and a member of rad(I) whose least
    exponent is above the cap still gets None.  The exponents the
    pipeline finds on its benchmark inputs are at most 5, so the check
    runs for the candidates about to fail and for the rare exponent 5 to 8.

    The check runs on a counter of its own, capped at the steps the budget
    has left (Budget's default cap without a budget).  When it decides, the
    budget is charged what it spent; when the counter runs out, nothing is
    charged and the search goes on as without the check.  So whenever it
    finishes, the function returns what the search alone returns."""
    if g.is_zero():
        return 1
    if ideal.is_zero_ideal():
        return None
    gb = groebner(ideal, DEGREVLEX, budget)

    reduced = {1: normal_form(g, gb, budget)}

    def power_nf(e: int) -> Polynomial:
        if e in reduced:
            return reduced[e]
        half = e // 2
        r = normal_form(power_nf(half) * power_nf(e - half), gb, budget)
        reduced[e] = r
        return r

    e = 1
    while e <= EXPONENT_CAP:
        if e == _RADICAL_CHECK_AT:
            own = Budget() if budget is None else Budget(budget.cap - budget.used)
            try:
                inside = radical_membership(g, ideal, own)
            except BudgetExceededError:
                inside = True  # undecided: search on, charged nothing
            else:
                if budget is not None:
                    budget.spend(own.used, "radical membership")
            if not inside:
                return None
        if power_nf(e).is_zero():
            break
        e *= 2
    else:
        return None
    lo = e // 2  # known failure (or 0)
    hi = e       # known success
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if power_nf(mid).is_zero():
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class RadicalCertificate:
    """Per-generator Nullstellensatz exponents for the output ideal J:
    exponents[i] is the least verified e with J.generators[i]^e in I."""

    exponents: tuple = ()
    capped: bool = False

    def max_weight(self) -> int:
        """Sum of (e_i - 1) + 1: the membership-transfer exponent."""
        return sum(e - 1 for e in self.exponents) + 1


def _divided(gb: GroebnerBasis, d: Polynomial) -> IdealPresentation:
    """J/d for d dividing every element of J, presented by the reduced
    basis of J divided by d: one presentation for every caller, so the
    cache holds one basis of it."""
    return IdealPresentation(d.ring, tuple(exact_divide(g, d) for g in gb.basis))


def _linear_basis(ideal: IdealPresentation, budget: Budget) -> bool:
    """Whether the reduced basis of ideal is linear.  The basis is read
    under a counter of its own with the budget's cap, and charged to the
    budget as a cache hit only when it is linear."""
    gb = groebner(ideal, DEGREVLEX, Budget(budget.cap))
    if any(g.total_degree() > 1 for g in gb.basis):
        return False
    groebner(ideal, DEGREVLEX, budget)
    return True


def _is_certified_radical(gb: GroebnerBasis, budget: Budget) -> bool:
    """Conservative syntactic radicality tests, on the reduced degrevlex
    basis of J, for the implemented classes: unit, principal squarefree,
    linear, squarefree monomial generators, zero-dimensional with all
    eliminants squarefree, or d*P.  Squarefree parts, the basis gcd and the
    eliminants come from the case's table (`_GB_CACHE.derived`).

    d*P: the reduced basis of J has a nonconstant gcd d that is squarefree,
    the reduced basis of P = J/d is linear and P is not the unit ideal, and
    d is not in P.  Then P is prime, so f = d*h in P gives h in P, and
    (d) ∩ P = d*P = J: an intersection of radical ideals, hence radical
    (Becker and Weispfenning, *Groebner Bases*, §8.7)."""
    basis = gb.basis
    if gb.is_unit_ideal():
        return True
    if len(basis) == 1:
        g = basis[0]
        return _squarefree(g) == normalize_leading(g)
    if all(g.total_degree() <= 1 for g in basis):
        return True
    if all(len(g.num) == 1 and all(e <= 1 for m in g.num for e in m) for g in basis):
        return True
    ring = basis[0].ring
    if staircase_count(gb.leading_monomials(), len(ring)) is not inf:
        return all(_squarefree(el) == el
                   for el in (_eliminant(gb, var, budget) for var in range(len(ring))))
    d = reduce(_gcd, basis)
    if d.is_constant() or _squarefree(d) != normalize_leading(d):
        return False
    gbP = groebner(_divided(gb, d), DEGREVLEX, budget)
    return (not gbP.is_unit_ideal() and all(g.total_degree() <= 1 for g in gbP.basis)
            and not normal_form(d, gbP, budget).is_zero())


def attempt_radical(ideal: IdealPresentation, budget: Optional[Budget] = None):
    """Best-effort radical: returns (J, certificate, status).

    Always I ⊆ J ⊆ rad(I), both inclusions certified (membership for the
    first, per-generator exponents for the second).  Status "exact" when J
    is additionally certified radical (principal / zero-dimensional /
    linear / monomial / d*P cases, `_is_certified_radical`), else
    "partial".

    When a round adds nothing and the basis of J has a nonconstant gcd d,
    the candidates squarefree(d)*g' are offered, g' the generators of the
    best-effort radical of J/d, computed on the same budget: each lies in
    rad(J) ⊆ rad(I) and is certified by its exponent like any other.

    A round searches each distinct candidate once.  A candidate with no
    power in I up to EXPONENT_CAP is searched once per call; a repeat in a
    later round charges the budget the steps that search spent (as a
    Groebner cache hit does).  Squarefree parts, gcds and eliminants are
    computed once per case (`_GB_CACHE.derived`).
    """
    if ideal.is_zero_ideal():
        return ideal, RadicalCertificate(), "exact"
    budget = budget or Budget()
    J = ideal
    exponents: dict[Polynomial, int] = {g: 1 for g in ideal.generators}
    rejected: dict[Polynomial, int] = {}  # candidate -> steps its search spent

    def exponent(c: Polynomial) -> Optional[int]:
        if c in rejected:
            if rejected[c]:
                budget.spend(rejected[c], "reduction")
            return None
        used_before = budget.used
        e = nullstellensatz_exponent(c, ideal, budget=budget)
        if e is None:
            rejected[c] = budget.used - used_before
        return e

    def offer(candidates, gbJ) -> bool:
        """Add to J each distinct candidate outside it with a certified
        exponent."""
        nonlocal J
        grew = False
        for c in dict.fromkeys(map(normalize_leading, candidates)):
            if c.is_constant():
                continue
            if normal_form(c, gbJ, budget).is_zero():
                continue
            e = exponent(c)
            if e is None:
                continue
            exponents[c] = e
            J = J.extended([c])
            grew = True
        return grew

    for _round in range(20):
        gbJ = groebner(J, DEGREVLEX, budget)
        if gbJ.is_unit_ideal():
            break
        candidates = [_squarefree(g) for g in gbJ.basis]
        for g1, g2 in itertools.combinations(gbJ.basis, 2):
            d = _gcd(g1, g2)
            if not d.is_constant():
                candidates.append(d)
                candidates.append(_squarefree(d))
        # the gcd of the whole basis
        d = reduce(_gcd, gbJ.basis) if len(gbJ.basis) > 1 else None
        if len(gbJ.basis) > 2 and not d.is_constant():
            candidates.append(_squarefree(d))
        if staircase_count(gbJ.leading_monomials(), len(J.ring)) is not inf:
            candidates += [_squarefree(_eliminant(gbJ, var, budget)) for var in range(len(J.ring))]
        grew = offer(candidates, gbJ)
        if not grew and d is not None and not d.is_constant():
            # J = d*(J/d): the radical of J/d times squarefree(d) lies in
            # rad(J), which offers the generators d*P needs.  When d is
            # squarefree and J/d has a linear reduced basis, J/d is its own
            # radical and those generators lie in d*(J/d) = J already
            P, sd = _divided(gbJ, d), _squarefree(d)
            if sd != normalize_leading(d) or not _linear_basis(P, budget):
                inner, _, _ = attempt_radical(P, budget)
                grew = offer([sd * g for g in inner.generators], gbJ)
        if not grew:
            break

    # canonical presentation: the reduced basis of the closure
    gbJ = groebner(J, DEGREVLEX, budget)
    J = IdealPresentation(ideal.ring, gbJ.basis)
    # certificate for the final presentation's generators
    cert_exps = []
    capped = False
    for g in J.generators:
        e = exponents.get(g)
        if e is None:
            e = exponent(g)
        if e is None:
            capped = True
            e = EXPONENT_CAP
        cert_exps.append(e)
    # sanity: I ⊆ J
    for g in ideal.generators:
        if not normal_form(g, gbJ, budget).is_zero():
            raise DomainError("radical closure lost a generator")  # pragma: no cover
    status = "exact" if not capped and _is_certified_radical(gbJ, budget) else "partial"
    return J, RadicalCertificate(tuple(cert_exps), capped), status
