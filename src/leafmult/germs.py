"""Local analytic geometry on the leaf: branch decomposition of germs,
branch products and splits (the branches two germs share, the branches on
a variety trace), germ division, and local intersection multiplicity with
closure certificates.

Germs arrive as jets.  Exact-polynomial jets take exact paths (polynomial
factorization over Q, exact division); genuinely transcendental jets go
through truncated-series machinery, except in the splits of restrictions
of global polynomials, which read branches off global factors first.
Division and multiplicity run on the highest corner of `localbasis`: a
division certifies a/b modulo m^{N+1}, and a multiplicity is certified by
a staircase that closes below the corner order (Nakayama).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, inf, lcm
from typing import Callable, Optional, Sequence

from .errors import (
    BudgetExceededError,
    CertificateError,
    DomainError,
    HypothesisError,
    InconclusiveError,
    RegenerationRequest,
)
from .ideals import Budget
from .jets import LEAF_RING, Jet2, _capped_order, cached_producer, linear_substitution
from .localbasis import (  # local_membership is re-exported
    StabilizationCertificate,
    corner_colength,
    local_membership,
    mora_divide,
)
from .poly import Polynomial, _canonical, exact_divide, factor, normalize_leading
from .puiseux import BranchParam, expand, factor_from_param
from .series import QQ, XSeries, YPoly


# branch decomposition regenerates a jet to no higher order than this
MAX_NP_ORDER = 160
# local_multiplicity doubles the corner order up to this cap
MAX_STABILIZATION_ORDER = 96
# shears t1 -> t1 + mu*t2 tried in turn, without and then with a swap
SHEAR_CANDIDATES = (0, 1, -1, 2, -2, 3, -3, 4, -4)


# ---------------------------------------------------------------------------
# frames: linear coordinate changes making germs regular in t2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """t1 -> t1 + shear*t2 (optionally after swapping t1,t2)."""

    swap: bool = False
    shear: Fraction = Fraction(0)

    def push(self, jet: Jet2) -> Jet2:
        out = jet.swap_variables() if self.swap else jet
        if self.shear:
            out = out.substitute_linear(((1, self.shear), (0, 1)))
        return out

    def pull_polynomial(self, p: Polynomial) -> Polynomial:
        """Express a frame-coordinate polynomial in original coordinates:
        t1 -> t1 - shear*t2, then the swap, as one linear substitution."""
        s = -self.shear
        return linear_substitution(p, *((s, 1, 1, 0) if self.swap else (1, s, 0, 1)))


def choose_frame(jet: Jet2) -> Frame:
    """A frame in which the germ is regular in t2 (its lowest form does not
    vanish in the (0,1) direction)."""
    ord_ = jet.vanishing_order()
    if ord_ is None:
        raise DomainError("cannot frame the zero germ")
    # numerators: a positive common factor does not move a zero
    low = {k: c for k, c in jet.poly.num.items() if k[0] + k[1] == ord_}

    def regular_with(swap: bool, shear: Fraction) -> bool:
        # lowest form evaluated at (shear, 1) in the (possibly swapped) frame
        total = 0
        for (a, b), c in low.items():
            if swap:
                a, b = b, a
            total += c * (shear ** a)
        return total != 0

    for swap in (False, True):
        for mu in SHEAR_CANDIDATES:
            if regular_with(swap, Fraction(mu)):
                return Frame(swap=swap, shear=Fraction(mu))
    raise InconclusiveError("no shear candidate makes the germ regular in t2")


def jet_to_ypoly(jet: Jet2) -> YPoly:
    """Frame-coordinate jet as a y-polynomial with per-coefficient x-precision."""
    order = jet.order
    den = jet.poly.den
    by_j: dict[int, dict] = {}
    max_j = 0
    for (a, b), n in jet.poly.num.items():
        by_j.setdefault(b, {})[a] = Fraction(n, den)
        max_j = max(max_j, b)
    exact = jet.as_exact_polynomial()
    cols = []
    for j in range(max_j + 1):
        prec = 10**9 if exact is not None else order - j + 1
        cols.append(XSeries.make(QQ, by_j.get(j, {}), prec))
    return YPoly.make(QQ, cols)


# ---------------------------------------------------------------------------
# jet inversion and germ division
# ---------------------------------------------------------------------------


def jet_inverse(j: Jet2, order: Optional[int] = None) -> Jet2:
    """Multiplicative inverse of a unit jet, by Newton iteration."""
    if not j.is_unit():
        raise DomainError("jet inverse requires a unit (nonzero value at the origin)")
    order = _capped_order(j.order if order is None else order, [j])
    work = j.at_order(order)
    inv0 = Jet2.constant(Fraction(1) / work.value_at_origin(), order)
    two = Jet2.constant(2, order)
    r = inv0
    known = 1
    while known <= order:
        r = (r * (two - work * r)).truncate(order)
        known *= 2
    prod = None
    if j.producer is not None:
        prod = cached_producer(lambda n: jet_inverse(j, n))
    return Jet2(order, r.poly, prod)


def germ_divide(a: Jet2, b: Jet2, order: Optional[int] = None) -> Optional[Jet2]:
    """Quotient a/b as germs at the working order N, capped at the stored
    order of an operand that cannot regenerate; None when b does not divide
    a modulo m^{N+1}.

    Every quotient term is lm(h)/lm(b) for some deg lm(h) <= N, so the
    quotient has no term above N - ord(b) and equals a/b through that
    degree.  It is stored at order N all the same."""
    if b.is_zero():
        raise DomainError("division by the zero germ")
    order = _capped_order(min(a.order, b.order) if order is None else order, [a, b])
    rem, q = mora_divide(a.at_order(order).poly, b.at_order(order).poly, order)
    if not rem.is_zero():
        return None
    pa, pb = a.as_exact_polynomial(), b.as_exact_polynomial()
    # the corner quotient is the polynomial quotient only if it divides
    if pa is not None and pb is not None and q * pb == pa:
        return Jet2.from_polynomial(q, order)
    prod = None
    if a.producer is not None and b.producer is not None:
        def produce(n):
            out = germ_divide(a, b, n)
            if out is None:
                raise InconclusiveError("divisibility lost at higher order")
            return out
        prod = cached_producer(produce)
    return Jet2(order, q, prod)


def germ_divides(a: Jet2, b: Jet2, order: Optional[int] = None) -> bool:
    """True iff b divides a as germs, certified up to the working order."""
    return germ_divide(a, b, order) is not None


# ---------------------------------------------------------------------------
# cycles and branch sets
# ---------------------------------------------------------------------------


@dataclass
class BranchCycle:
    """A conjugacy class of branches: its defining germ factor over Q (in
    original leaf coordinates), its multiplicity as a repeated factor, and
    its parameterization, which holds the ramification index and the
    coefficient field and is computed by parameterize on first read."""

    factor: Jet2
    multiplicity: int
    parameterize: Callable[[], BranchParam] = dfield(repr=False, compare=False)

    @cached_property
    def param(self) -> BranchParam:
        return self.parameterize()

    @property
    def ram_index(self) -> int:
        return self.param.ram

    @property
    def field_degree(self) -> int:
        return self.param.field_degree()

    def order_at_origin(self) -> int:
        v = self.factor.vanishing_order()
        return 0 if v is None else v

    def branch_count(self) -> int:
        return self.field_degree

    def key(self, order: int) -> Polynomial:
        """Canonical truncation for matching cycles across germs."""
        return normalize_leading(self.factor.truncate(order).to_polynomial())

    def describe(self) -> dict:
        return {
            "factor": str(self.factor.to_polynomial()),
            "factor_order": self.factor.order,
            "multiplicity": self.multiplicity,
            "ramification_index": self.ram_index,
            "field_degree": self.field_degree,
            "edge": list(self.param.edge) if self.param.edge else None,
            "field": list(self.param.describe_field()),
            "series": [[e, c] for e, c in self.param.series_table()],
        }


@dataclass
class PuiseuxBranchSet:
    """Full branch decomposition of a germ at the origin."""

    cycles: list
    mu: int
    certified_order: int
    frame: Frame
    source: Jet2

    def describe(self) -> dict:
        return {
            "mu": self.mu,
            "certified_order": self.certified_order,
            "cycles": [c.describe() for c in self.cycles],
        }


def branch_product(cycles: Sequence[BranchCycle], order: int,
                   exponents: Optional[Sequence[int]] = None) -> Jet2:
    """Product of the cycle factors at order, each raised to its
    multiplicity or to the given exponent; exponent 0 skips the cycle."""
    if exponents is None:
        exponents = [c.multiplicity for c in cycles]
    out = Jet2.constant(1, order)
    for cyc, e in zip(cycles, exponents):
        if e:
            out = out * cyc.factor.at_order(order) ** e
    return out


def cycles_on(cycles: Sequence[BranchCycle], jets: Sequence[Jet2]) -> list:
    """The cycles on which every jet vanishes (the factor divides it); a
    zero jet vanishes on all of them and is not divided."""
    nonzero = [j for j in jets if not j.is_zero()]
    return [c for c in cycles if all(germ_divides(j, c.factor) for j in nonzero)]


def _local_factors(p: Polynomial, divisors: Sequence[Polynomial] = ()):
    """(unit_part, [(irreducible local factor, mult)]); local factors vanish
    at the origin, the unit part does not.  The divisors are passed on to
    poly.factor."""
    content, factors = factor(p, divisors)
    unit = Polynomial.constant(LEAF_RING, content)
    local = []
    for fp, mult in factors:
        if fp.constant_value() == 0:
            local.append((fp, mult))
        else:
            unit = unit * fp ** mult
    return unit, local


def _exact_local_factors(jet: Jet2, divisors: Sequence[Polynomial] = ()):
    """_local_factors of an exact jet's polynomial, memoized on the jet.
    The divisors change the speed, never the result, so they are not part
    of the key."""
    memo = getattr(jet, "local_factors", None)
    if memo is None:
        memo = jet.local_factors = _local_factors(jet.as_exact_polynomial(), divisors)
    return memo


def _cycles_of_squarefree_ypoly(w: YPoly, frame: Frame, x_prec: int,
                                source: Jet2) -> list:
    """Expand a y-squarefree, y-regular piece into cycles (multiplicity 1)."""
    # cap the working precision: ramification cannot exceed the y-degree,
    # so this suffices to recover factors at x_prec and keeps exact
    # (infinite-precision) inputs from driving the solver unboundedly
    cap = (w.degree() + 1) * max(x_prec, 4) + 8
    params = expand(w.truncate(cap))
    cycles = []
    for bp in params:
        want = max(2, min(x_prec, bp.series.prec // max(bp.ram, 1)))
        W = factor_from_param(bp, want)
        if W is None:
            raise RegenerationRequest(2 * x_prec + 8)
        factor_orig = frame.pull_polynomial(W)
        jet = _cycle_factor_jet(source, frame, factor_orig, want)
        cycles.append(BranchCycle(jet, 1, lambda bp=bp: bp))
    return cycles


def _exact_factor_cycles(fp: Polynomial, order: int, min_factor_prec: int) -> list:
    """Cycles of an irreducible polynomial over Q, by Newton-Puiseux
    expansion in a frame where it is regular in t2."""
    sub = Jet2.from_polynomial(fp, order)
    frame = choose_frame(sub)
    w = jet_to_ypoly(frame.push(sub).truncate(max(order, fp.total_degree() + min_factor_prec)))
    # factor precision is decoupled from the jet order: cycle jets carry
    # producers, so deeper truncations are regenerated on demand instead of
    # being paid for up front
    x_prec = max(min_factor_prec, fp.total_degree() + 4, 8)
    return _cycles_of_squarefree_ypoly(w, frame, x_prec, sub)


def _cycle_factor_jet(source: Jet2, frame: Frame, factor_orig: Polynomial,
                      x_prec: int) -> Jet2:
    """Jet of a cycle factor with a producer that recomputes the whole
    decomposition at higher order and matches this cycle by truncation."""
    base_order = factor_orig.total_degree() + x_prec
    stored = Jet2.from_polynomial(factor_orig, base_order)
    if source.producer is None:
        return Jet2(base_order, factor_orig)

    def produce(n: int) -> Jet2:
        bs = germ_cycles(source.regenerate(max(2 * n + 4, source.order)),
                         min_factor_prec=n + 1)
        matches = [c for c in bs.cycles
                   if normalize_leading(c.factor.truncate(stored.order).to_polynomial())
                   == normalize_leading(stored.to_polynomial())]
        if len(matches) != 1:
            raise InconclusiveError("cycle could not be re-identified at higher order")
        return matches[0].factor.truncate(n)

    return Jet2(base_order, factor_orig, cached_producer(produce))


def _reduced(nums: list, den: int) -> Optional[tuple]:
    """nums / den with the common factor taken out; None when zero."""
    if not any(nums):
        return None
    g = gcd(den, *nums)
    return [n // g for n in nums], den // g


def weierstrass_jet(f: Jet2) -> tuple:
    """Weierstrass preparation of a jet regular in t2: f = W * U with W
    monic in t2 of degree equal to the vanishing order and U a unit.

    Computed slice by slice in the t1-grading (linear Hensel lifting of the
    coprime splitting f(0, t2) = t2^mu * u0); everything stays over Q.
    Slice k is a polynomial in t2 alone, so working modulo t2^mu is
    truncation at degree mu - 1, and only its t2-degrees up to order - k
    are determined by the truncation of f.  Since U is a unit, the
    truncation of W at the jet order is exactly determined by the
    truncation of f.

    A slice is held as integer numerators by t2-degree over one common
    denominator (the jet's own for the slices of f), so the O(order^3)
    products of the lifting are integer operations; the result is the same
    exact rational jet."""
    order = f.order
    mu = f.vanishing_order()
    if mu is None:
        raise DomainError("cannot prepare the zero germ")
    fd = f.poly.den
    slices: list[list] = [[] for _ in range(order + 1)]
    for (a, b), n in f.poly.num.items():
        row = slices[a]
        if len(row) <= b:
            row.extend([0] * (b + 1 - len(row)))
        row[b] = n
    if len(slices[0]) <= mu or not slices[0][mu]:
        raise DomainError("germ is not regular in t2 at its vanishing order")
    u0n = slices[0][mu:]
    # t * u0 = 1 mod t2^mu, the Bezout cofactor of the splitting
    tn, td = [], 1
    if mu:
        u0 = _canonical(LEAF_RING, {(0, b): n for b, n in enumerate(u0n) if n}, fd)
        t = jet_inverse(Jet2(mu - 1, u0)).poly
        tn, td = [t.num.get((0, b), 0) for b in range(t.total_degree() + 1)], t.den
    W: dict[int, tuple] = {}
    U: dict[int, tuple] = {}
    for k in range(1, order + 1):
        top = order - k
        # rhs = (f_k - sum_a W_a * U_(k-a)) mod t2^(top+1), as acc / den
        products = [(W[a], U[k - a]) for a in range(1, k) if a in W and k - a in U]
        fn = slices[k]
        den = lcm(fd, *(wd * ud for (_, wd), (_, ud) in products))
        acc = [0] * (top + 1)
        scale = den // fd
        for b, n in enumerate(fn):
            acc[b] = n * scale
        for (wn, wd), (un, ud) in products:
            scale = den // (wd * ud)
            for j, w in enumerate(wn[:top + 1]):
                if w:
                    c = w * scale
                    for e, n in enumerate(un[:top + 1 - j], j):
                        acc[e] -= c * n
        # solve W_k*u0 + U_k*t2^mu = rhs with deg W_k < mu; degrees of W_k
        # above top meet no later slice and lie beyond the jet order
        wk = [0] * min(mu, top + 1)
        for i, c in enumerate(tn):
            for d in range(i, len(wk)):
                wk[d] += c * acc[d - i]
        num = [n * td * fd for n in acc]
        for i, w in enumerate(wk):
            if w:
                for e, n in enumerate(u0n[:top + 1 - i], i):
                    num[e] -= w * n
        if any(num[:mu]):
            raise CertificateError("Weierstrass slice failed to divide")  # pragma: no cover
        wk = _reduced(wk, td * den)
        uk = _reduced(num[mu:], td * fd * den)
        if wk:
            W[k] = wk
        if uk:
            U[k] = uk

    def to_jet(lead: tuple, slice_map: dict, jet_order: int) -> Jet2:
        """The jet with t1-degree 0 slice lead and the others slice_map,
        each slice (numerators by t2-degree, denominator)."""
        den = lcm(lead[1], *(d for _, d in slice_map.values()))
        num = {(0, b): n * (den // lead[1]) for b, n in enumerate(lead[0]) if n}
        for a, (nums, d) in slice_map.items():
            num.update(((a, b), n * (den // d)) for b, n in enumerate(nums) if n)
        return Jet2(jet_order, _canonical(LEAF_RING, num, den))

    # the top-mu t2-band of each U slice lies beyond what the truncation of
    # f determines, so U is only certified to order - mu
    return (to_jet(([0] * mu + [1], 1), W, order),
            to_jet((u0n, fd), U, max(order - mu, 0)))


def simplify_local_generator(j: Jet2) -> Jet2:
    """Strip the unit cofactor off a germ when a coordinate direction is
    regular: the local ideal is unchanged and the distinguished polynomial
    is far sparser than the raw jet (important for dense transcendental
    restrictions)."""
    if j.is_zero() or j.is_unit() or j.as_exact_polynomial() is not None:
        return j
    mu = j.vanishing_order()
    if mu is None:
        return j

    def rebuild(transform, restore):
        W, _ = weierstrass_jet(transform(j))
        W = restore(W)
        if j.producer is not None:
            prod = cached_producer(
                lambda n: simplify_local_generator(j.regenerate(n + mu)).truncate(n))
            return Jet2(W.order, W.poly, prod)
        return W

    if j.coefficient(0, mu):
        return rebuild(lambda x: x, lambda x: x)
    if j.coefficient(mu, 0):
        return rebuild(lambda x: x.swap_variables(), lambda x: x.swap_variables())
    return j


def _ypoly_yun(w: YPoly) -> list:
    """Yun squarefree decomposition over the Laurent-series coefficient
    field: [(piece, multiplicity)], pieces monic in y."""
    from .series import ypoly_gcd_monic
    if w.degree() <= 0:
        return []
    d = w.derive_y()
    a = ypoly_gcd_monic(w, d)
    if a.degree() == 0:
        lead = w.coeffs[-1]
        return [(w.scale_series(lead.inverse()), 1)]
    out = []
    b, _ = w.divmod_monic(a)
    c, _ = d.divmod_monic(a)
    i = 1
    while b.degree() > 0:
        c = c - b.derive_y()
        if c.is_zero_known():
            out.append((b, i))
            break
        g = ypoly_gcd_monic(b, c)
        if g.degree() > 0:
            out.append((g, i))
            b, _ = b.divmod_monic(g)
            c, _ = c.divmod_monic(g)
        i += 1
        if i > w.degree() + 2:
            raise InconclusiveError("squarefree decomposition did not terminate")
    return [(p, m) for p, m in out if p.degree() > 0]


def germ_cycles(f: Jet2, min_factor_prec: int = 4,
                divisors: Sequence[Polynomial] = ()) -> PuiseuxBranchSet:
    """Branch decomposition of a nonzero germ vanishing at the origin.  An
    exact germ is factored over Q with the given divisors (poly.factor);
    they change the speed, never the result.  So the branch set is memoized
    on the jet object by min_factor_prec alone (a raise is not), and its
    cycle factors keep what their producers regenerated."""
    memo = getattr(f, "branch_sets", None)
    if memo is None:
        memo = f.branch_sets = {}
    if min_factor_prec not in memo:
        memo[min_factor_prec] = _germ_cycles_uncached(f, min_factor_prec, divisors)
    return memo[min_factor_prec]


def _germ_cycles_uncached(f: Jet2, min_factor_prec: int,
                          divisors: Sequence[Polynomial]) -> PuiseuxBranchSet:
    if f.is_zero():
        raise DomainError("cannot decompose the zero germ")
    order = f.order
    # the cap bounds regeneration, which an exact jet never needs: it is
    # decomposed at its stored order, however high
    cap = max(MAX_NP_ORDER, order) if f.as_exact_polynomial() is not None else MAX_NP_ORDER
    last_error = None
    while order <= cap:
        try:
            return _germ_cycles_once(f, f.at_order(order), min_factor_prec, divisors)
        except RegenerationRequest as e:
            if not f.can_regenerate():
                raise InconclusiveError(
                    "decomposition needs a higher order and the jet has no producer")
            last_error = e
            order = max(2 * order, e.needed_order, order + 4)
    raise BudgetExceededError("branch decomposition exceeded the order cap",
                              stage="puiseux", partial=last_error)


def _germ_cycles_once(source: Jet2, work: Jet2, min_factor_prec: int,
                      divisors: Sequence[Polynomial]) -> PuiseuxBranchSet:
    mu = work.vanishing_order()
    if mu is None:
        raise RegenerationRequest(2 * work.order + 4)
    exact = work.as_exact_polynomial()
    if mu == 0:
        return PuiseuxBranchSet([], 0, work.order, Frame(), source)
    if exact is not None:
        _, local = _exact_local_factors(source, divisors)
        cycles = []
        for fp, mult in local:
            expansion = partial(_exact_factor_cycles, fp, work.order, min_factor_prec)
            # a single cycle of an irreducible polynomial is the polynomial
            # itself: keep it exact
            exact_factor = Jet2.from_polynomial(normalize_leading(fp), work.order)
            if exact_factor.vanishing_order() == 1:
                # a smooth germ is one cycle; the expansion runs only when
                # its parameterization is read
                cycles.append(BranchCycle(exact_factor, mult,
                                          lambda expansion=expansion: expansion()[0].param))
                continue
            sub_cycles = expansion()
            if len(sub_cycles) == 1:
                sub_cycles[0].factor = exact_factor
            for c in sub_cycles:
                c.multiplicity = mult
            cycles.extend(sub_cycles)
        cycles.sort(key=lambda c: (c.order_at_origin(), str(c.factor.to_polynomial())))
        return PuiseuxBranchSet(cycles, mu, work.order, Frame(), source)
    # transcendental path: prepare first so the y-degree is the vanishing
    # order rather than the jet order
    frame = choose_frame(work)
    framed = frame.push(work)
    wjet, _unit = weierstrass_jet(framed)
    w = jet_to_ypoly(wjet)
    pieces = _ypoly_yun(w)
    cycles = []
    for piece, mult in pieces:
        piece_cycles = _cycles_of_squarefree_ypoly(
            piece, frame, max(min_factor_prec, work.order // 2), source)
        for c in piece_cycles:
            c.multiplicity = mult
        cycles.extend(piece_cycles)
    # certification: multiplicities account for the vanishing order
    total = sum(c.multiplicity * c.order_at_origin() for c in cycles)
    if total != mu:
        raise RegenerationRequest(2 * work.order + 8)
    cycles.sort(key=lambda c: (c.order_at_origin(), str(c.factor.to_polynomial())))
    return PuiseuxBranchSet(cycles, mu, work.order, frame, source)


def newton_puiseux(f: Jet2) -> PuiseuxBranchSet:
    """Public entry: full branch decomposition with verification that the
    cycles reproduce the germ."""
    bs = germ_cycles(f)
    verify_reconstruction(bs)
    return bs


def verify_reconstruction(bs: PuiseuxBranchSet):
    """Multiplying out all cycles (with multiplicity) must reproduce the
    germ up to a local unit, checked by exact germ division."""
    order = max(4, bs.certified_order // 2)
    prod = branch_product(bs.cycles, order)
    src = bs.source.at_order(order)
    if prod.is_unit():
        if not src.is_unit() and bs.cycles:
            raise CertificateError("unit reconstruction for a vanishing germ")
        return
    q = germ_divide(src, prod, order)
    if q is None or not q.is_unit():
        raise CertificateError("cycle product does not reproduce the germ")


# ---------------------------------------------------------------------------
# local multiplicity on the highest corner
# ---------------------------------------------------------------------------


def local_multiplicity(f: Jet2, g: Jet2, budget: Optional[Budget] = None):
    """(value, certificate) for dim of the local ring modulo <f, g>.

    Finite only with a closure certificate from one corner standard basis
    (localbasis module docstring); infinite only with a common factor or a
    branch-matching certificate (a common branch through the origin),
    never on budget exhaustion alone."""
    unit = StabilizationCertificate(0, 0, ((0, 0),), 0)
    if f.is_unit() or g.is_unit():
        return 0, unit
    if f.is_zero() and g.is_zero():
        return inf, "both germs are zero"
    pf, pg = f.as_exact_polynomial(), g.as_exact_polynomial()
    if pf is not None and pg is not None:
        if pf.is_zero() or pg.is_zero():
            nz = pg if pf.is_zero() else pf
            if nz.constant_value() != 0:
                return 0, unit
            return inf, "principal local ideal has infinite colength"
        from .poly import gcd as poly_gcd
        d = poly_gcd(pf, pg)
        if not d.is_constant() and d.constant_value() == 0:
            return inf, f"common factor {d}"
    order = min(max(f.order, g.order, 6), MAX_STABILIZATION_ORDER)
    while order <= MAX_STABILIZATION_ORDER:
        # regenerate raises InconclusiveError for a jet without a producer
        cert = corner_colength([j.regenerate(order).poly for j in (f, g)], order, budget)
        if cert is not None:
            return cert.multiplicity, cert
        # no closure: check for a genuinely common branch
        common = _common_cycles(f, g, order)
        if common:
            return inf, f"matched common branch: {common[0][0].factor.to_polynomial()}"
        order = 2 * order
    raise InconclusiveError("local multiplicity did not close below the order cap")


def _common_cycles(f: Jet2, g: Jet2, order: int) -> list:
    """Cycles shared by two germs, as (cycle_f, cycle_g) pairs."""
    try:
        return _matched(germ_cycles(f.at_order(order)), germ_cycles(g.at_order(order)))
    except (InconclusiveError, BudgetExceededError):
        return []


# ---------------------------------------------------------------------------
# branch splits: common branches of two germs, branches on a variety trace
# ---------------------------------------------------------------------------


def _matched(bf: PuiseuxBranchSet, bg: PuiseuxBranchSet) -> list:
    """Cycles of two branch sets that agree by truncation key, as
    (cycle_f, cycle_g) pairs."""
    out = []
    for cf in bf.cycles:
        for cg in bg.cycles:
            k = min(cf.factor.order, cg.factor.order)
            if cf.key(k) == cg.key(k):
                out.append((cf, cg))
    return out


def _split_off(order: int, *parts) -> list:
    """(h, source / h) for each (source, cycles) part, h the branch product
    of the cycles.  Every product is formed before any division, so an error
    regenerating a cycle factor wins over a failed division, which asks for
    a higher order."""
    hs = [branch_product(cycles, order) for _, cycles in parts]
    quotients = [germ_divide(source, h, order) for (source, _), h in zip(parts, hs)]
    if any(q is None for q in quotients):
        raise RegenerationRequest(2 * order + 8)
    return list(zip(hs, quotients))


@dataclass
class GermSplit:
    """fL = h_f * f and gL = h_g * g with h_f, h_g supported exactly on the
    common branches (with each germ's own multiplicities) and f, g sharing
    no branch through the origin."""

    h_f: Jet2
    h_g: Jet2
    f: Jet2
    g: Jet2
    certified_order: int

    def describe(self) -> dict:
        return {
            "h_f": str(self.h_f.to_polynomial()),
            "h_g": str(self.h_g.to_polynomial()),
            "f": str(self.f.to_polynomial()),
            "g": str(self.g.to_polynomial()),
            "certified_order": self.certified_order,
        }


def split_common(fL: Jet2, gL: Jet2) -> GermSplit:
    """Split two germs against their common local branches."""
    if fL.is_zero() or gL.is_zero():
        raise DomainError("split requires nonzero germs")
    order = min(fL.order, gL.order)
    pf, pg = fL.as_exact_polynomial(), gL.as_exact_polynomial()
    if pf is not None and pg is not None:
        return _split_exact(fL, gL, pf, pg, order)
    matched = _matched(germ_cycles(fL), germ_cycles(gL))
    (h_f, f), (h_g, g) = _split_off(order, (fL, [cf for cf, _ in matched]),
                                    (gL, [cg for _, cg in matched]))
    return GermSplit(h_f, h_g, f, g, order)


def _vanishing_factors(p: Polynomial, point, divisors: Sequence[Polynomial]) -> list:
    """[(irreducible factor over Q, multiplicity)] of a global polynomial,
    for the factors that vanish at point; poly.factor with the divisors, so
    a factor is primitive with integer coefficients and the same factor of
    two polynomials compares equal."""
    return [(q, m) for q, m in factor(p, divisors)[1] if q.evaluate(point) == 0]


def _carries_common_branch(j: Jet2, common: Sequence[Jet2]) -> Optional[bool]:
    """Whether the restriction j of a factor lies on the branches of the
    restrictions of the common factors: True when j is one smooth branch
    among theirs, False when it shares none with them, None when it shares
    some but not all, or neither germ of a pair is smooth.

    A smooth germ is one branch, and it is a branch of a germ iff it
    divides it (germ_divides; for two smooth germs either way is enough)."""
    for c in common:
        if j.vanishing_order() == 1:
            if germ_divides(c, j):
                return True
        elif c.vanishing_order() != 1 or germ_divides(j, c):
            return None
    return False


def split_common_global(F: Polynomial, G: Polynomial, fL: Jet2, gL: Jet2,
                        restrict: Callable, point) -> GermSplit:
    """split_common(fL, gL) for the restrictions fL, gL of two global
    polynomials, restrict taking a polynomial to its leaf jet at the
    working order.

    Two exact restrictions keep `_split_exact`.  Otherwise the common
    irreducible factors p of F and G over Q with p(point) = 0 are taken out
    first, each with each polynomial's own multiplicity, together with every
    other factor of F or of G that vanishes at point and whose restriction
    is one branch of a restricted p (x and z-1 both restrict to t1 times a
    unit on the exponential leaf, so x*(z-1) | x*y takes out x*(z-1) from
    F).  The jet-level split runs on the restrictions of what remains, F'
    and G': h_f = restrict(F/F') * sub.h_f, and likewise h_g, with sub the
    split of restrict(F') and restrict(G').  So the local generators are
    restrictions of global cofactors (or their jet-level quotients), and a
    branch carried by two factors neither of which is common
    (x*y | (z-1)*(y-x)) is still found by the jet-level split.  A factor
    that shares only part of its branches with the restricted p, or whose
    sharing the smooth test cannot decide (`_carries_common_branch`),
    falls back to split_common(fL, gL)."""
    if fL.as_exact_polynomial() is not None and gL.as_exact_polynomial() is not None:
        return split_common(fL, gL)
    in_f = _vanishing_factors(F, point, (G,))
    in_g = _vanishing_factors(G, point, (F,))
    common = {p for p, _ in in_f} & {p for p, _ in in_g}
    if not common:
        return split_common(fL, gL)
    jets = [restrict(p) for p in common]

    def carried_part(factors):
        h = Polynomial.constant(F.ring, 1)
        for p, m in factors:
            carried = p in common or _carries_common_branch(restrict(p), jets)
            if carried is None:
                return None
            if carried:
                h = h * p ** m
        return h

    h_f, h_g = carried_part(in_f), carried_part(in_g)
    if h_f is None or h_g is None:
        return split_common(fL, gL)
    sub = split_common(restrict(exact_divide(F, h_f)), restrict(exact_divide(G, h_g)))
    return GermSplit(restrict(h_f) * sub.h_f, restrict(h_g) * sub.h_g, sub.f, sub.g,
                     sub.certified_order)


def _split_exact(fL: Jet2, gL: Jet2, pf: Polynomial, pg: Polynomial,
                 order: int) -> GermSplit:
    """split_common of two exact germs from their factorizations over Q;
    each polynomial is factored with the other as divisor, so a common
    factor is split off by a gcd before anything is left to sympy."""
    _, lf = _exact_local_factors(fL, (pg,))
    _, lg = _exact_local_factors(gL, (pf,))
    gdict = {normalize_leading(p): m for p, m in lg}
    h_f_poly = Polynomial.constant(LEAF_RING, 1)
    h_g_poly = Polynomial.constant(LEAF_RING, 1)
    for p, mf in lf:
        key = normalize_leading(p)
        if key in gdict:
            h_f_poly = h_f_poly * p ** mf
            h_g_poly = h_g_poly * p ** gdict[key]
    h_f = Jet2.from_polynomial(h_f_poly, order)
    h_g = Jet2.from_polynomial(h_g_poly, order)
    f = germ_divide(fL, h_f, order)
    g = germ_divide(gL, h_g, order)
    if f is None or g is None:
        raise CertificateError("exact split division failed")  # pragma: no cover
    return GermSplit(h_f, h_g, f, g, order)


def split_on_variety(fL: Jet2, restrictions: Sequence[Jet2], order: int) -> tuple:
    """Factor a restriction fL into h, carried by its branches on the variety
    trace (where every restriction vanishes), and the cofactor f; returns
    (h, f, those cycles).  An exact fL is factored with the exact
    restrictions as divisors, so the branches it shares with them are split
    off by a gcd before anything is left to sympy."""
    if fL.is_zero():
        raise HypothesisError("restriction of F to the leaf is zero at this order")
    exact = [p for p in (r.as_exact_polynomial() for r in restrictions) if p is not None]
    on_variety = cycles_on(germ_cycles(fL, divisors=exact).cycles, restrictions)
    if not on_variety:
        raise HypothesisError(
            "no factor of the restriction vanishes on the variety trace")
    (h, f), = _split_off(order, (fL, on_variety))
    return h, f, on_variety


def split_on_variety_global(F: Polynomial, restrict: Callable, point,
                            restrictions: Sequence[Jet2], order: int,
                            divisors: Sequence[Polynomial] = ()) -> tuple:
    """split_on_variety of the restriction of a global polynomial F, restrict
    taking a polynomial to its leaf jet at the working order; divisors are
    passed on to poly.factor.

    An exact restriction keeps the jet-level split.  Otherwise the branches
    come from the irreducible factors p of F over Q with p(point) = 0.
    Every branch of restrict(F) is a branch of some restrict(p), so when
    each restrict(p) has vanishing order 1, each is one smooth branch, of
    multiplicity m_F(p), and it lies on the variety trace iff it divides
    every restriction.  Two factors whose restrictions divide each other
    carry one branch (x and z-1 on the exponential leaf), so they are one
    cycle with the multiplicities added; for smooth germs one dividing the
    other is enough.  A cycle's factor is the Weierstrass polynomial of a
    restriction (an exact one when the cycle has one), and its
    parameterization is expanded only when read.  Then h = restrict(P)
    and f = restrict(F/P), P the product of those factors with their
    multiplicities, and no germ is divided.  A factor of higher vanishing
    order falls back to the jet-level split."""
    fL = restrict(F)
    if fL.is_zero():
        raise HypothesisError("restriction of F to the leaf is zero at this order")
    if fL.as_exact_polynomial() is not None:
        return split_on_variety(fL, restrictions, order)
    factors = [(restrict(p), p, m) for p, m in _vanishing_factors(F, point, divisors)]
    if any(j.vanishing_order() != 1 for j, _, _ in factors):
        return split_on_variety(fL, restrictions, order)
    nonzero = [r for r in restrictions if not r.is_zero()]
    carried = Polynomial.constant(F.ring, 1)
    cycles: list[BranchCycle] = []
    # exact restrictions first, so a merged cycle keeps the exact factor
    for j, p, m in sorted(factors, key=lambda f: f[0].as_exact_polynomial() is None):
        if not all(germ_divides(r, j) for r in nonzero):
            continue
        carried = carried * p ** m
        for c in cycles:
            if germ_divides(j, c.factor):
                c.multiplicity += m
                break
        else:
            w = simplify_local_generator(j)
            cycles.append(BranchCycle(w, m, lambda w=w: germ_cycles(w).cycles[0].param))
    if not cycles:
        raise HypothesisError("no factor of the restriction vanishes on the variety trace")
    return restrict(carried), restrict(exact_divide(F, carried)), cycles
