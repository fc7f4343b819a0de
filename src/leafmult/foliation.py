"""Commuting polynomial vector fields, Lie derivatives, the leafwise
Poisson bracket, and Lie-series expansion of restrictions to the leaf.

The leaf through a nonsingular point p is parameterized by the commuting
flows: the jet coefficient of t1^a t2^b is (V1^a V2^b F)(p) / (a! b!).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence

from .errors import DomainError, HypothesisError
from .jets import Jet2, cached_producer
from .localbasis import standard_basis
from .poly import Polynomial

DEFAULT_EXTRA_ORDER = 4


@dataclass(frozen=True)
class VectorField:
    """A polynomial vector field: one component per ring variable."""

    ring: tuple
    components: tuple

    def __post_init__(self):
        if len(self.components) != len(self.ring):
            raise DomainError("component count must equal ring size")
        for c in self.components:
            if c.ring != self.ring:
                raise DomainError("component ring mismatch")

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


def lie_derivative(v: VectorField, f: Polynomial) -> Polynomial:
    return v.apply(f)


def lie_bracket(v1: VectorField, v2: VectorField) -> VectorField:
    """[V1, V2], componentwise V1(V2_i) - V2(V1_i)."""
    comps = tuple(v1.apply(c2) - v2.apply(c1)
                  for c1, c2 in zip(v1.components, v2.components))
    return VectorField(v1.ring, comps)


@dataclass(frozen=True)
class CommutationReport:
    commute: bool
    witness_index: Optional[int] = None
    witness: Optional[Polynomial] = None


def check_commute(v1: VectorField, v2: VectorField) -> CommutationReport:
    """True iff every component of the Lie bracket vanishes; on failure the
    first nonzero bracket component is the witness."""
    if v1.ring != v2.ring:
        raise DomainError("vector fields live in different rings")
    for i, comp in enumerate(lie_bracket(v1, v2).components):
        if not comp.is_zero():
            return CommutationReport(False, i, comp)
    return CommutationReport(True)


class FoliationContext:
    """Two commuting fields and a nonsingular base point p.

    Commutation and linear independence of V1(p), V2(p) are verified at
    construction; every leaf operation relies on both.  Iterated Lie
    derivatives are memoized per (F, a, b), and budget-free local standard
    bases per generator set and truncation order.
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
        self._bases: dict = {}

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
        """V1^a V2^b f, memoized."""
        key = (f, a, b)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if a == 0 and b == 0:
            value = f
        elif a > 0:
            value = self.v1.apply(self.iterated_derivative(f, a - 1, b))
        else:
            value = self.v2.apply(self.iterated_derivative(f, a, b - 1))
        self._memo[key] = value
        return value

    def local_basis(self, polys: tuple, order: int) -> tuple:
        """Local standard basis of polys (leaf polynomials) modulo
        m^{order+1} under the default budget, memoized; the pairs of one
        pipeline share local generators.  Any standard basis gives the same
        truncated membership decisions, so the memo is keyed by the set of
        generators, and the basis is computed from them in a canonical
        order."""
        gens = tuple(sorted(set(polys), key=lambda p: sorted(p.terms.items())))
        key = (gens, order)
        basis = self._bases.get(key)
        if basis is None:
            basis = self._bases[key] = tuple(standard_basis(gens, max_degree=order))
        return basis

    def leaf_jet(self, f: Polynomial, order: int) -> Jet2:
        """Jet of F restricted to the leaf through p, in flow coordinates.

        When the Lie series terminates (all level-k derivatives vanish
        identically for some k <= order) the jet is tagged as an exact
        polynomial, which downstream germ code exploits.
        """
        if f.ring != self.ring:
            raise DomainError("polynomial ring does not match context ring")
        if order < 0:
            raise DomainError("jet order must be >= 0")
        coeffs = {}
        terminated_at = None
        for level in range(order + 1):
            all_zero = True
            for a in range(level + 1):
                b = level - a
                d = self.iterated_derivative(f, a, b)
                if not d.is_zero():
                    all_zero = False
                    v = d.evaluate(self.point)
                    if v:
                        coeffs[(a, b)] = v / (factorial(a) * factorial(b))
            if all_zero:
                terminated_at = level
                break
        if terminated_at is not None:
            return Jet2.from_polynomial(
                Polynomial(("t1", "t2"), coeffs), order)
        producer = cached_producer(lambda n: self.leaf_jet(f, n))
        return Jet2(order, coeffs, producer)

    def poisson(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """Leafwise Poisson bracket V1(f) V2(g) - V2(f) V1(g)."""
        return self.v1.apply(f) * self.v2.apply(g) - self.v2.apply(f) * self.v1.apply(g)

    def default_jet_order(self, f: Polynomial, g: Polynomial) -> int:
        """Initial truncation order heuristic; consumers re-certify, so this
        only affects how often regeneration kicks in."""
        return 2 * (max(f.total_degree(), 0) + max(g.total_degree(), 0)) + DEFAULT_EXTRA_ORDER
