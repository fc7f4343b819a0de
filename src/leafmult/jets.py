"""Truncated bivariate power series in leaf coordinates (t1, t2).

A Jet2 is a Polynomial in LEAF_RING truncated to a total order, plus an
optional producer: a pure function that re-emits the same germ truncated
to any higher order.  All arithmetic runs on the Polynomial kernel;
operations compose producers, so every derived jet can be regenerated on
demand, which is what stabilization loops rely on.

Jets that are exact polynomials (terminating series) carry the polynomial
on their producer; arithmetic on two such jets stays exact and keeps the
tag, and germ-level code uses it to take truncation-free paths.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

from .errors import DomainError, InconclusiveError
from .poly import Polynomial, _canonical, _over_common_denominator

LEAF_RING = ("t1", "t2")


def cached_producer(fn: Callable[[int], "Jet2"]) -> Callable[[int], "Jet2"]:
    cache: dict[int, Jet2] = {}

    def produce(order: int) -> "Jet2":
        hit = cache.get(order)
        if hit is None:
            hit = fn(order)
            cache[order] = hit
        return hit

    return produce


def _capped_order(order: int, jets: Sequence["Jet2"]) -> int:
    """order, lowered to the stored order of every jet that cannot
    regenerate: a producer-less jet caps what can be certified."""
    return min([order] + [j.order for j in jets if not j.can_regenerate()])


def _poly_producer(p: Polynomial):
    def produce(n: int) -> "Jet2":
        return Jet2.from_polynomial(p, n)

    produce.exact_polynomial = p
    return produce


def linear_substitution(p: Polynomial, m00, m01, m10, m11) -> Polynomial:
    """p(m00*t1 + m01*t2, m10*t1 + m11*t2), one homogeneous component at a
    time on p's integer numerators: with the entries over a common
    denominator q, the term t1^a*t2^b becomes
    q^-(a+b) * (p0*t1 + p1*t2)^a * (p2*t1 + p3*t2)^b, and the component of
    degree d is scaled by q^(D-d) to the common denominator p.den * q^D,
    D the total degree of p."""
    (p0, p1, p2, p3), q = _over_common_denominator(
        [Fraction(m) for m in (m00, m01, m10, m11)])
    rows: dict[tuple, list] = {}

    def row(x: int, y: int, n: int) -> list:
        """Nonzero (t2-degree, coefficient) of (x*t1 + y*t2)^n."""
        key = (x, y, n)
        if key not in rows:
            rows[key] = [(i, c) for i in range(n + 1)
                         if (c := comb(n, i) * x ** (n - i) * y ** i)]
        return rows[key]

    forms: dict[int, list] = {}  # total degree -> [(a, b, numerator)]
    for (a, b), n in p.num.items():
        forms.setdefault(a + b, []).append((a, b, n))
    top = max(forms, default=0)
    num = {}
    for d in sorted(forms):
        out = [0] * (d + 1)
        for a, b, n in forms[d]:
            right = row(p2, p3, b)
            for i, x in row(p0, p1, a):
                nx = n * x
                for j, y in right:
                    out[i + j] += nx * y
        scale = q ** (top - d)
        for j, n in enumerate(out):
            if n:
                num[(d - j, j)] = n * scale
    return _canonical(LEAF_RING, num, p.den * q ** top)


class Jet2:
    """(order, poly, producer): poly is a Polynomial in LEAF_RING with no
    term of total degree above order.  `branch_sets` is the memo of
    germs.germ_cycles, unset until the jet is first decomposed, and
    `local_factors` that of an exact jet's factorization over Q, unset
    until it is first factored."""

    __slots__ = ("order", "poly", "producer", "branch_sets", "local_factors")

    def __init__(self, order: int, coeffs: Mapping | Polynomial,
                 producer: Optional[Callable] = None):
        if order < 0:
            raise DomainError("jet order must be >= 0")
        if isinstance(coeffs, Polynomial):
            if coeffs.ring != LEAF_RING:
                raise DomainError(f"jet polynomial must live in {LEAF_RING}")
            poly = coeffs
        else:
            poly = Polynomial(LEAF_RING, coeffs)
        self.order = order
        self.poly = poly.truncated(order)
        self.producer = producer

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_polynomial(p: Polynomial, order: int) -> "Jet2":
        """Exact jet of a polynomial in t1, t2; regenerable to any order."""
        return Jet2(order, p, producer=_poly_producer(p))

    @staticmethod
    def zero(order: int) -> "Jet2":
        return Jet2.from_polynomial(Polynomial.zero(LEAF_RING), order)

    @staticmethod
    def constant(value, order: int) -> "Jet2":
        return Jet2.from_polynomial(Polynomial.constant(LEAF_RING, value), order)

    # -- queries ----------------------------------------------------------

    @property
    def coeffs(self) -> Mapping:
        """Read-only view of the truncation's terms."""
        return MappingProxyType(self.poly.terms)

    def coefficient(self, a: int, b: int) -> Fraction:
        return Fraction(self.poly.num.get((a, b), 0), self.poly.den)

    def value_at_origin(self) -> Fraction:
        return self.coefficient(0, 0)

    def is_zero(self) -> bool:
        """Zero as far as knowable: exact-polynomial jets answer for the
        germ, others for the stored truncation."""
        p = self.as_exact_polynomial()
        if p is not None:
            return p.is_zero()
        return self.poly.is_zero()

    def is_zero_up_to(self, order: int) -> bool:
        return all(a + b > order for (a, b) in self.poly.num)

    def is_unit(self) -> bool:
        return (0, 0) in self.poly.num

    def vanishing_order(self):
        """Least total degree with a nonzero coefficient; None for the zero jet."""
        if self.poly.is_zero():
            return None
        return min(a + b for (a, b) in self.poly.num)

    def as_exact_polynomial(self) -> Optional[Polynomial]:
        """The underlying polynomial when this jet is a terminating series."""
        return getattr(self.producer, "exact_polynomial", None)

    def to_polynomial(self) -> Polynomial:
        """The truncation as a polynomial (forgets the producer)."""
        return self.poly

    # -- regeneration -----------------------------------------------------

    def truncate(self, order: int) -> "Jet2":
        if order >= self.order:
            return self
        return Jet2(order, self.poly, self.producer)

    def regenerate(self, order: int) -> "Jet2":
        if order <= self.order:
            return self.truncate(order)
        if self.producer is None:
            raise InconclusiveError(
                f"jet stored at order {self.order} has no producer; cannot reach order {order}")
        out = self.producer(order)
        if out.order < order:
            raise InconclusiveError("producer emitted a lower order than requested")
        return out.truncate(order)

    def can_regenerate(self) -> bool:
        return self.producer is not None

    def at_order(self, order: int) -> "Jet2":
        """Regenerated to order when a producer allows; otherwise the stored
        truncation, which may stop below order."""
        return self.regenerate(order) if self.producer is not None else self.truncate(order)

    # -- arithmetic ---------------------------------------------------------
    #
    # op(a, b, max_degree) and op(p, max_degree) are Polynomial operations
    # that return no term above max_degree; max_degree None means exact.

    def _binary(self, other, op) -> "Jet2":
        """op at the smaller order of the two operands."""
        if isinstance(other, (int, Fraction)):
            other = Jet2.constant(other, self.order)
        if not isinstance(other, Jet2):
            return NotImplemented
        order = min(self.order, other.order)
        pa, pb = self.as_exact_polynomial(), other.as_exact_polynomial()
        if pa is not None and pb is not None:
            return Jet2.from_polynomial(op(pa, pb, None), order)
        prod = None
        if self.producer is not None and other.producer is not None:
            a, b = self, other
            prod = cached_producer(lambda n: a.regenerate(n)._binary(b.regenerate(n), op))
        return Jet2(order, op(self.poly.truncated(order), other.poly.truncated(order), order),
                    prod)

    def _unary(self, op, drop: int = 0) -> "Jet2":
        """op on one jet; the result order is `drop` below the input's."""
        order = max(self.order - drop, 0)
        p = self.as_exact_polynomial()
        if p is not None:
            return Jet2.from_polynomial(op(p, None), order)
        prod = None
        if self.producer is not None:
            prod = cached_producer(lambda n: self.regenerate(n + drop)._unary(op, drop))
        return Jet2(order, op(self.poly, order), prod)

    def __add__(self, other):
        return self._binary(other, lambda a, b, n: a + b)

    __radd__ = __add__

    def __neg__(self):
        return self._unary(lambda p, n: -p)

    def __sub__(self, other):
        return self._binary(other, lambda a, b, n: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b, n: b - a)

    def __mul__(self, other):
        return self._binary(other, lambda a, b, n: a.mul(b, n))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative jet power")
        p = self.as_exact_polynomial()
        if p is not None:
            return Jet2.from_polynomial(p ** n, self.order)
        result = Jet2.constant(1, self.order)
        for _ in range(n):
            result = result * self
        return result

    def derivative(self, index: int) -> "Jet2":
        """d/dt_index; the order drops by one."""
        if index not in (0, 1):
            raise DomainError("jet variable index must be 0 or 1")
        return self._unary(lambda p, n: p.derive(index), drop=1)

    def substitute_linear(self, matrix) -> "Jet2":
        """Exact linear change of leaf coordinates:
        new t1 = m00*t1 + m01*t2, new t2 = m10*t1 + m11*t2 substituted in."""
        (m00, m01), (m10, m11) = matrix
        # a linear substitution keeps every term's total degree
        return self._unary(lambda p, n: linear_substitution(p, m00, m01, m10, m11))

    def swap_variables(self) -> "Jet2":
        return self.substitute_linear(((0, 1), (1, 0)))

    # -- comparison (producers excluded) ----------------------------------

    def __eq__(self, other):
        if not isinstance(other, Jet2):
            return NotImplemented
        return self.order == other.order and self.poly == other.poly

    def __hash__(self):
        return hash((self.order, self.poly))

    def __str__(self):
        return f"{self.poly} + O({self.order + 1})"

    def __repr__(self):
        return f"Jet2(order={self.order}, {self.poly!s})"
