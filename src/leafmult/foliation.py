"""Commuting polynomial vector fields, Lie derivatives, the leafwise
Poisson bracket, and Lie-series expansion of restrictions to the leaf.

The leaf through a nonsingular point p is parameterized by the commuting
flows: the jet coefficient of t1^a t2^b is (V1^a V2^b F)(p) / (a! b!).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Optional, Sequence

from .errors import DomainError, HypothesisError
from .jets import LEAF_RING, Jet2, cached_producer
from .poly import Polynomial, _canonical

DEFAULT_EXTRA_ORDER = 4
# no bound run certifies at a higher jet order, so a trace verifier can
# refuse a larger one before it builds a leaf jet at that order
MAX_CERT_ORDER = 256


class VectorField:
    """A polynomial vector field: one component per ring variable.
    Immutable: `__setattr__` only raises."""

    __slots__ = ("ring", "components")

    def __init__(self, ring: tuple, components: tuple):
        if len(components) != len(ring):
            raise DomainError("component count must equal ring size")
        for c in components:
            if c.ring != ring:
                raise DomainError("component ring mismatch")
        _set_ring(self, ring)
        _set_components(self, components)

    def __setattr__(self, *_):
        raise AttributeError("VectorField is immutable")

    def apply(self, f: Polynomial) -> Polynomial:
        """Lie derivative: sum_i components[i] * df/dx_i."""
        if f.ring != self.ring:
            raise DomainError("polynomial ring does not match vector field ring")
        out = Polynomial.zero(self.ring)
        for i, c in enumerate(self.components):
            if not c.is_zero():
                out = out + c * f.derive(i)
        return out

    def evaluate(self, point) -> list:
        return [c.evaluate(point) for c in self.components]


_set_ring = VectorField.ring.__set__
_set_components = VectorField.components.__set__


def lie_derivative(v: VectorField, f: Polynomial) -> Polynomial:
    return v.apply(f)


def lie_bracket(v1: VectorField, v2: VectorField) -> VectorField:
    """[V1, V2], componentwise V1(V2_i) - V2(V1_i)."""
    comps = tuple(v1.apply(c2) - v2.apply(c1)
                  for c1, c2 in zip(v1.components, v2.components))
    return VectorField(v1.ring, comps)


class CommutationReport:
    __slots__ = ("commute", "witness_index", "witness")

    def __init__(self, commute: bool, witness_index: Optional[int] = None,
                 witness: Optional[Polynomial] = None):
        self.commute = commute
        self.witness_index = witness_index
        self.witness = witness


def check_commute(v1: VectorField, v2: VectorField) -> CommutationReport:
    """True iff every component of the Lie bracket vanishes; on failure the
    first nonzero bracket component is the witness."""
    if v1.ring != v2.ring:
        raise DomainError("vector fields live in different rings")
    for i, comp in enumerate(lie_bracket(v1, v2).components):
        if not comp.is_zero():
            return CommutationReport(False, i, comp)
    return CommutationReport(True)


def _term_list(p: Polynomial) -> list:
    """The terms of p as a sorted list of (monomial, Fraction), a canonical
    sort key."""
    return [(m, Fraction(c, p.den)) for m, c in sorted(p.num.items())]


class FoliationContext:
    """Two commuting fields and a nonsingular base point p.

    Commutation and linear independence of V1(p), V2(p) are verified at
    construction; every leaf operation relies on both.  Iterated Lie
    derivatives are memoized per (F, a, b) and each step V1 p or V2 p per
    polynomial p, and `poisson` reads V1 F and V2 F from that memo; values
    at p per polynomial; leaf jets per (F, order) (a Jet2 is immutable, so
    sharing it is safe); the flow jets (the leaf jets of the coordinate
    functions x_i) and their truncated powers per truncation order;
    budget-free local standard bases per generator set and order.
    """

    def __init__(self, v1: VectorField, v2: VectorField, point: Sequence):
        if v1.ring != v2.ring:
            raise DomainError("vector fields live in different rings")
        self.ring = v1.ring
        self.v1 = v1
        self.v2 = v2
        self.point = tuple(Fraction(x) for x in point)
        if len(self.point) != len(self.ring):
            raise DomainError("point arity does not match ring")
        report = check_commute(v1, v2)
        if not report.commute:
            raise HypothesisError(
                f"vector fields do not commute: bracket component {report.witness_index} "
                f"is {report.witness}", witness=report.witness)
        if not self._independent_at_point():
            raise HypothesisError(
                "base point is singular: V1(p) and V2(p) are linearly dependent")
        self.commutation_verified = True
        self._memo: dict = {}
        self._lie: dict = {}  # (field is V1, p) -> V1 p or V2 p
        self._values: dict = {}  # f -> f(p)
        self._flows: dict = {}  # order -> (phi_i as Polynomial in LEAF_RING, ...)
        self._powers: dict = {}  # (order, i, e) -> phi_i^e truncated at order
        self._bases: dict = {}
        self._jets: dict = {}  # (f, order) -> Jet2
        # coordinates whose levels have not vanished yet, among the first
        # _levels_seen levels (see _flow_degree)
        self._open_coordinates = list(range(len(self.ring)))
        self._levels_seen = 0

    def _independent_at_point(self) -> bool:
        a = self.v1.evaluate(self.point)
        b = self.v2.evaluate(self.point)
        n = len(a)
        for i in range(n):
            for j in range(i + 1, n):
                if a[i] * b[j] - a[j] * b[i] != 0:
                    return True
        return False

    def iterated_derivative(self, f: Polynomial, a: int, b: int) -> Polynomial:
        """V1^a V2^b f, memoized, each step by `_lie_derivative`."""
        key = (f, a, b)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if a == 0 and b == 0:
            value = f
        elif a > 0:
            value = self._lie_derivative(self.v1, self.iterated_derivative(f, a - 1, b))
        else:
            value = self._lie_derivative(self.v2, self.iterated_derivative(f, a, b - 1))
        self._memo[key] = value
        return value

    def _lie_derivative(self, v: VectorField, p: Polynomial) -> Polynomial:
        """v(p) for v one of the two fields, memoized: different (f, a, b)
        often reach the same polynomial (on the exponential leaf every
        V1^a z is z)."""
        key = (v is self.v1, p)
        value = self._lie.get(key)
        if value is None:
            value = self._lie[key] = v.apply(p)
        return value

    def value_at_point(self, f: Polynomial) -> Fraction:
        """f(p), memoized."""
        value = self._values.get(f)
        if value is None:
            value = self._values[f] = f.evaluate(self.point)
        return value

    def local_basis(self, polys: tuple, order: int) -> tuple:
        """Local standard basis of polys (leaf polynomials) modulo
        m^{order+1} under the default budget, memoized; the pairs of one
        pipeline share local generators.  Any standard basis gives the same
        truncated membership decisions, so the memo is keyed by the set of
        generators, and the basis is computed from them in a canonical
        order."""
        gens = tuple(sorted(set(polys), key=_term_list))
        key = (gens, order)
        basis = self._bases.get(key)
        if basis is None:
            from .localbasis import standard_basis
            basis = self._bases[key] = tuple(standard_basis(gens, order=order))
        return basis

    def _flow_jets(self, order: int) -> tuple:
        """phi_i: the leaf jet of the coordinate function x_i at order, as
        polynomials in LEAF_RING, memoized per order.  Read row by row from
        the derivative memo: V2^b x_i, then V1 along the row, and a row (or
        the rows after it) stops at the first derivative that vanishes
        identically, since every later one is a derivative of it."""
        flows = self._flows.get(order)
        if flows is None:
            flows = self._flows[order] = tuple(
                self._coordinate_jet(i, order) for i in range(len(self.ring)))
        return flows

    def _coordinate_jet(self, index: int, order: int) -> Polynomial:
        x = Polynomial.variable(self.ring, index)
        coeffs = {}
        for b in range(order + 1):
            if self.iterated_derivative(x, 0, b).is_zero():
                break
            for a in range(order + 1 - b):
                d = self.iterated_derivative(x, a, b)
                if d.is_zero():
                    break
                v = self.value_at_point(d)
                if v:
                    coeffs[(a, b)] = v / (factorial(a) * factorial(b))
        return Polynomial(LEAF_RING, coeffs)

    def _flow_degree(self, levels: int) -> Optional[int]:
        """D = max_i D_i, where D_i + 1 is the first level at which every
        V1^a V2^b x_i (a + b = level) vanishes identically; None while some
        coordinate has a nonzero derivative on each of the first `levels`
        levels.  Then Phi_t(q) is polynomial in t of degree at most D at
        every point q.  Each level is examined once per context; on the
        exponential leaf no level of z vanishes, so D stays unknown."""
        while self._open_coordinates and self._levels_seen < levels:
            level = self._levels_seen = self._levels_seen + 1
            self._open_coordinates = [
                i for i in self._open_coordinates
                if self._level_is_nonzero(Polynomial.variable(self.ring, i), level)]
        return None if self._open_coordinates else self._levels_seen - 1

    def _level_is_nonzero(self, f: Polynomial, level: int) -> bool:
        # V1^level first: on the exponential leaf the flow jets hold it already
        return any(not self.iterated_derivative(f, a, level - a).is_zero()
                   for a in range(level, -1, -1))

    def _flow_power(self, index: int, e: int, order: int) -> Polynomial:
        """phi_index^e truncated at order, by square-and-multiply on memoized
        halves; zero as soon as e * ord(phi_index) exceeds order, so the
        exponent is never looped over."""
        phi = self._flow_jets(order)[index]
        if e == 1:
            return phi
        low = min((a + b for (a, b) in phi.num), default=order + 1)
        if low * e > order:
            return Polynomial.zero(LEAF_RING)
        key = (order, index, e)
        power = self._powers.get(key)
        if power is None:
            half = self._flow_power(index, e // 2, order)
            power = half.mul(half, order)
            if e % 2:
                power = power.mul(phi, order)
            self._powers[key] = power
        return power

    def _compose_flow(self, f: Polynomial, order: int) -> Polynomial:
        """F(phi) truncated at order: the coefficients of the leaf jet of F.
        F o Phi_t(p) is the Lie series of F along the commuting flows, and
        its truncation depends only on the truncations of the x_i o Phi_t.
        Each term of F enters with its integer numerator, over the lcm of
        the terms' denominators, and the sum is divided by F's denominator
        once.  A monomial keeps the place where it first appears, also when
        its coefficient cancels on the way."""
        acc: dict = {}
        den = 1
        for mono, c in f.num.items():
            term = Polynomial.constant(LEAF_RING, c)
            for i, e in enumerate(mono):
                if e and term:
                    term = term.mul(self._flow_power(i, e, order), order)
            common = lcm(den, term.den)
            if common != den:
                k = common // den
                for m in acc:
                    acc[m] *= k
                den = common
            k = den // term.den
            for m, v in term.num.items():
                acc[m] = acc.get(m, 0) + v * k
        return _canonical(LEAF_RING, {m: v for m, v in acc.items() if v}, den * f.den)

    def leaf_jet(self, f: Polynomial, order: int) -> Jet2:
        """Jet of F restricted to the leaf through p, in flow coordinates,
        memoized per (F, order).

        When the Lie series terminates (all level-k derivatives vanish
        identically for some k <= order) the jet is tagged as an exact
        polynomial, which downstream germ code exploits.

        The coefficients are those of F(phi) (`_compose_flow`).  When F(phi)
        has a nonzero coefficient of total degree order, no level k <= order
        vanishes identically: the level after one that does is made of its
        V1 and V2 derivatives and vanishes too, up to level order.  Then the
        series does not terminate within order.  Otherwise, when the flows
        are polynomial of degree at most D (`_flow_degree`), F o Phi_t(q)
        has t-degree at most deg F * D at every point q, so level
        deg F * D + 1 vanishes identically; if that level is at most order
        the series terminates.  Failing both, the levels of iterated
        derivatives are built up to the first one that vanishes
        identically, if any.
        """
        key = (f, order)
        jet = self._jets.get(key)
        if jet is None:
            jet = self._jets[key] = self._leaf_jet(f, order)
        return jet

    def _leaf_jet(self, f: Polynomial, order: int) -> Jet2:
        if f.ring != self.ring:
            raise DomainError("polynomial ring does not match context ring")
        if order < 0:
            raise DomainError("jet order must be >= 0")
        composed = self._compose_flow(f, order)
        if not any(a + b == order for (a, b) in composed.num):
            degree = self._flow_degree(order)
            if degree is not None and f.total_degree() * degree + 1 <= order:
                return Jet2.from_polynomial(composed, order)
            for level in range(order + 1):
                if all([self.iterated_derivative(f, a, level - a).is_zero()
                        for a in range(level + 1)]):
                    return Jet2.from_polynomial(composed, order)
        return Jet2(order, composed, cached_producer(lambda n: self.leaf_jet(f, n)))

    def poisson(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """Leafwise Poisson bracket V1(f) V2(g) - V2(f) V1(g), the
        derivatives read from the `iterated_derivative` memo."""
        d = self.iterated_derivative
        return d(f, 1, 0) * d(g, 0, 1) - d(f, 0, 1) * d(g, 1, 0)

    def default_jet_order(self, f: Polynomial, g: Polynomial) -> int:
        """Initial truncation order heuristic; consumers re-certify, so this
        only affects how often regeneration kicks in."""
        return 2 * (max(f.total_degree(), 0) + max(g.total_degree(), 0)) + DEFAULT_EXTRA_ORDER
