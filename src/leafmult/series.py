"""Exact coefficient fields and truncated series for branch expansion.

Three layers live here:

* number fields as towers of simple extensions over Q, with elements kept
  purely algebraically (coefficient vectors modulo a minimal polynomial;
  nothing is ever evaluated numerically);
* univariate polynomial helpers over any such field, including Trager's
  norm-based factorization (the rational base case is ``poly.factor``);
* truncated (Laurent) series in one variable over a field, and polynomials
  in a second variable with such series as coefficients, with explicit
  precision bookkeeping.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Sequence

from .errors import DomainError, InconclusiveError, RegenerationRequest
from .poly import Polynomial, _over_common_denominator, factor


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class QQ:
    """The rationals; elements are Fraction."""

    degree_over_q = 1

    @staticmethod
    def coerce(x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise DomainError(f"cannot coerce {x!r} into QQ")

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        if not a:
            raise DomainError("division by zero in QQ")
        return 1 / a

    @staticmethod
    def is_zero(a):
        return not a

    @staticmethod
    def flatten(a):
        return [a]

    @staticmethod
    def unflatten(vec):
        return vec[0]

    @staticmethod
    def describe():
        return []

    @staticmethod
    def to_str(a):
        return str(a)


QQ = QQ()


class ExtField:
    """Simple extension base(alpha) with alpha a root of an irreducible monic
    minimal polynomial over base.  Elements are coefficient tuples over base,
    length < degree.  Purely symbolic: no embedding is ever chosen."""

    def __init__(self, base, minpoly: Sequence, name: str = "a"):
        minpoly = list(minpoly)
        if len(minpoly) < 3:
            raise DomainError("extension degree must be at least 2")
        lead = minpoly[-1]
        inv_lead = base.inv(lead)
        self.base = base
        self.minpoly = [base.mul(c, inv_lead) for c in minpoly]
        self.deg = len(minpoly) - 1
        self.name = name
        self.degree_over_q = self.deg * base.degree_over_q
        self.zero = (base.zero,) * self.deg
        self.one = tuple([base.one] + [base.zero] * (self.deg - 1))
        self.gen = tuple([base.zero, base.one] + [base.zero] * (self.deg - 2))

    def coerce(self, x):
        if is_element(self, x):
            return x
        if is_element(self.base, x):
            c = x
        else:
            c = self.base.coerce(x)
        return tuple([c] + [self.base.zero] * (self.deg - 1))

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        K = self.base
        n = self.deg
        prod = [K.zero] * (2 * n - 1)
        for i, x in enumerate(a):
            if K.is_zero(x):
                continue
            for j, y in enumerate(b):
                if K.is_zero(y):
                    continue
                prod[i + j] = K.add(prod[i + j], K.mul(x, y))
        # reduce modulo the minimal polynomial (monic)
        for k in range(2 * n - 2, n - 1, -1):
            c = prod[k]
            if K.is_zero(c):
                continue
            prod[k] = K.zero
            for j in range(self.deg):
                prod[k - self.deg + j] = K.sub(prod[k - self.deg + j],
                                               K.mul(c, self.minpoly[j]))
        return tuple(prod[:n])

    def is_zero(self, a):
        return all(self.base.is_zero(x) for x in a)

    def inv(self, a):
        """The Bezout cofactor of a against the minimal polynomial."""
        if self.is_zero(a):
            raise DomainError("division by zero in extension field")
        g, _, t = up_ext_gcd(self.base, self.minpoly, a)
        if len(g) != 1:
            raise DomainError("minimal polynomial is not irreducible")  # pragma: no cover
        return tuple(t + [self.base.zero] * (self.deg - len(t)))

    def flatten(self, a):
        out = []
        for x in a:
            out.extend(self.base.flatten(x))
        return out

    def unflatten(self, vec):
        step = self.base.degree_over_q
        return tuple(self.base.unflatten(vec[i * step:(i + 1) * step])
                     for i in range(self.deg))

    def describe(self):
        chain = self.base.describe()
        chain.append("[" + ", ".join(self.base.to_str(c) for c in self.minpoly) + "]")
        return chain

    def to_str(self, a):
        parts = []
        for i, c in enumerate(a):
            if self.base.is_zero(c):
                continue
            s = self.base.to_str(c)
            parts.append(s if i == 0 else f"({s})*{self.name}^{i}")
        return " + ".join(parts) if parts else "0"


def is_element(field, x) -> bool:
    """Structural check that x is an element of the given tower level."""
    if field is QQ:
        return isinstance(x, Fraction)
    return (isinstance(x, tuple) and len(x) == field.deg
            and all(is_element(field.base, c) for c in x))


# ---------------------------------------------------------------------------
# univariate polynomials over a field: dense lists, low degree first
# ---------------------------------------------------------------------------


def _trim(K, cs):
    cs = list(cs)
    while cs and K.is_zero(cs[-1]):
        cs.pop()
    return cs


def _poly_sub(K, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else K.zero
        y = b[i] if i < len(b) else K.zero
        out.append(K.sub(x, y))
    return _trim(K, out)


def _poly_mul(K, a, b):
    if not a or not b:
        return []
    out = [K.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if K.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = K.add(out[i + j], K.mul(x, y))
    return _trim(K, out)


def _poly_divmod(K, a, b):
    b = _trim(K, b)
    if not b:
        raise DomainError("polynomial division by zero")
    a = list(a)
    inv_lead = K.inv(b[-1])
    q = [K.zero] * max(len(a) - len(b) + 1, 0)
    while len(_trim(K, a)) >= len(b):
        a = _trim(K, a)
        shift = len(a) - len(b)
        c = K.mul(a[-1], inv_lead)
        q[shift] = K.add(q[shift], c)
        for i, y in enumerate(b):
            a[shift + i] = K.sub(a[shift + i], K.mul(c, y))
    return _trim(K, q), _trim(K, a)


def up_monic(K, a):
    a = _trim(K, a)
    if not a:
        return a
    inv = K.inv(a[-1])
    return [K.mul(c, inv) for c in a]


def up_ext_gcd(K, a, b):
    """(g, s, t) with s*a + t*b = g (monic gcd)."""
    r0, r1 = _trim(K, list(a)), _trim(K, list(b))
    s0, s1 = [K.one], []
    t0, t1 = [], [K.one]
    while r1:
        q, r = _poly_divmod(K, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(K, s0, _poly_mul(K, q, s1))
        t0, t1 = t1, _poly_sub(K, t0, _poly_mul(K, q, t1))
    if not r0:
        return [], [], []
    inv = K.inv(r0[-1])
    scale = lambda p: [K.mul(c, inv) for c in p]
    return scale(r0), scale(s0), scale(t0)


def up_gcd(K, a, b):
    a, b = _trim(K, a), _trim(K, b)
    while b:
        _, r = _poly_divmod(K, a, b)
        a, b = b, r
    return up_monic(K, a)


def up_derive(K, a):
    return _trim(K, [K.mul(c, K.coerce(i)) for i, c in enumerate(a)][1:])


def up_compose_shift(K, a, s):
    """a(x + s*gen) for Trager's shift; s rational, gen the extension element."""
    # horner in (x + s*alpha)
    shift = [K.mul(K.coerce(s), K.gen), K.one]  # s*alpha + x
    acc = []
    for c in reversed(a):
        acc = _poly_mul(K, acc, shift)
        if not acc:
            acc = [c]
        else:
            acc[0] = K.add(acc[0], c)
    return acc


def up_squarefree_part(K, a):
    d = up_derive(K, a)
    if not d:
        raise DomainError("squarefree part of a constant in characteristic 0")
    g = up_gcd(K, a, d)
    q, r = _poly_divmod(K, a, g)
    if r:
        raise DomainError("inexact division in squarefree part")  # pragma: no cover
    return up_monic(K, q)


def _sylvester_det(K, rows):
    """Exact determinant by fraction-free elimination over K[x] entries.

    Entries are univariate polynomials over K (dense lists)."""
    n = len(rows)
    m = [[list(e) for e in row] for row in rows]
    sign = 1
    prev = [K.one]
    for k in range(n - 1):
        if not _trim(K, m[k][k]):
            swap = next((i for i in range(k + 1, n) if _trim(K, m[i][k])), None)
            if swap is None:
                return []
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _poly_sub(K, _poly_mul(K, m[k][k], m[i][j]),
                                _poly_mul(K, m[i][k], m[k][j]))
                q, r = _poly_divmod(K, num, prev) if _trim(K, prev) != [K.one] \
                    else (num, [])
                if r:
                    raise DomainError("fraction-free elimination lost exactness")  # pragma: no cover
                m[i][j] = q
            m[i][k] = []
        prev = m[k][k]
    det = m[n - 1][n - 1]
    if sign < 0:
        det = [K.neg(c) for c in det]
    return _trim(K, det)


def _norm_to_subfield(E: ExtField, f):
    """Norm of f in E[x] down to base[x] via a Sylvester resultant in the
    extension generator."""
    K = E.base
    d = E.deg
    # rewrite f = sum_j f_j(x) * gen^j with f_j in base[x]
    by_gen: list[list] = [[] for _ in range(d)]
    for i, c in enumerate(f):
        for j in range(d):
            comp = c[j]
            col = by_gen[j]
            while len(col) <= i:
                col.append(K.zero)
            col[i] = comp
    by_gen = [_trim(K, col) for col in by_gen]
    deg_gen = max((j for j in range(d) if by_gen[j]), default=0)
    # minimal polynomial as polynomial in the generator with base coefficients
    mp = list(E.minpoly)  # full monic list, degree E.deg
    n1 = len(mp) - 1      # degree in generator of minpoly
    n2 = deg_gen          # degree in generator of f
    if n2 == 0:
        # f has base coefficients: norm is f^deg
        out = [K.one]
        for _ in range(E.deg):
            out = _poly_mul(K, out, by_gen[0])
        return out
    size = n1 + n2
    rows = []
    for i in range(n2):
        row = [[] for _ in range(size)]
        for j, c in enumerate(mp):
            row[i + (n1 - j)] = [c]
        rows.append(row)
    for i in range(n1):
        row = [[] for _ in range(size)]
        for j in range(n2 + 1):
            col = by_gen[j] if j < len(by_gen) else []
            row[i + (n2 - j)] = list(col)
        rows.append(row)
    return _sylvester_det(K, rows)


def up_factor(K, a) -> list:
    """Irreducible monic factors with multiplicities over the field K.

    Rational base case by poly.factor; extensions by Trager's norm method."""
    a = _trim(K, a)
    if len(a) <= 1:
        raise DomainError("factorization of a constant")
    if len(a) == 2:
        return [(up_monic(K, a), 1)]
    if K is QQ:
        _, factors = factor(Polynomial(("x",), {(i,): c for i, c in enumerate(a)}))
        out = []
        for f, mult in factors:
            dense = [Fraction(f.num.get((i,), 0), f.den) for i in range(f.total_degree() + 1)]
            out.append((up_monic(QQ, dense), mult))
        out.sort(key=lambda fm: (len(fm[0]), [str(c) for c in fm[0]]))
        return out
    # Trager over a proper extension
    work = up_monic(K, a)
    sqf = up_squarefree_part(K, work)
    factors = _trager_squarefree(K, sqf)
    out = []
    for f in factors:
        mult = 0
        while True:
            q, r = _poly_divmod(K, work, f)
            if r:
                break
            work = q
            mult += 1
        out.append((f, mult))
    return out


def _trager_squarefree(E: ExtField, f) -> list:
    """Irreducible factors of a squarefree monic f over the extension E."""
    for shift in (0, 1, -1, 2, -2, 3, -3, 5, -5, 7):
        shifted = up_compose_shift(E, f, shift) if shift else list(f)
        norm = _norm_to_subfield(E, shifted)
        if not norm:
            continue
        norm = up_monic(E.base, norm)
        d = up_derive(E.base, norm)
        if not d:
            continue
        if len(up_gcd(E.base, norm, d)) != 1:
            continue  # norm not squarefree; try another shift
        base_factors = up_factor(E.base, norm)
        out = []
        rest = list(shifted)
        for h, _ in base_factors:
            lifted = [E.coerce(c) for c in h]
            g = up_gcd(E, rest, lifted)
            if len(g) > 1:
                out.append(g)
                q, r = _poly_divmod(E, rest, g)
                if r:
                    raise DomainError("Trager factor does not divide")  # pragma: no cover
                rest = q
        if len(rest) > 1:
            out.append(up_monic(E, rest))
        if shift:
            out = [up_compose_shift(E, g, -shift) for g in out]
            out = [up_monic(E, g) for g in out]
        total = sum(len(g) - 1 for g in out)
        if total == len(f) - 1:
            return out
    raise InconclusiveError("no squarefree norm shift found for Trager factorization")


# ---------------------------------------------------------------------------
# truncated Laurent series over a field
# ---------------------------------------------------------------------------


def _qq_product(a: tuple, b: tuple, prec: int) -> tuple:
    """The terms below prec of the product of two sorted, nonzero term
    tuples over QQ.  A single term shifts and scales the other operand.
    Otherwise each operand goes over one common denominator, the integer
    numerators of a are convolved, term by term, with the dense numerator
    list of b, and each output exponent becomes one Fraction."""
    if not a or not b:
        return ()
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        (e0, c0), = a
        if c0 == 1:  # Fraction * 1 still pays a gcd per term
            return tuple((e0 + e, c) for e, c in b if e0 + e < prec)
        return tuple((e0 + e, c0 * c) for e, c in b if e0 + e < prec)
    a_nums, a_den = _over_common_denominator([c for _, c in a])
    b_nums, b_den = _over_common_denominator([c for _, c in b])
    b0 = b[0][0]
    lo = a[0][0] + b0
    dense = [0] * (b[-1][0] - b0 + 1)
    for (e, _), n in zip(b, b_nums):
        dense[e - b0] = n
    acc = [0] * max(prec - lo, 0)
    for (e, _), n in zip(a, a_nums):
        m = min(len(dense), prec - e - b0)
        if m <= 0:
            break
        i = e + b0 - lo
        acc[i:i + m] = map(add, acc[i:i + m], map(n.__mul__, dense[:m]))
    den = a_den * b_den
    return tuple((lo + i, Fraction(n, den)) for i, n in enumerate(acc) if n)


class XSeries:
    """Truncated Laurent series: coefficients for exponents < prec, as a
    sorted tuple of (exponent, nonzero element).  Immutable."""

    __slots__ = ("field", "coeffs", "prec")

    def __init__(self, field, coeffs: tuple, prec: int):
        _set_xs_field(self, field)
        _set_xs_coeffs(self, coeffs)
        _set_xs_prec(self, prec)

    def __setattr__(self, *_):
        raise AttributeError("XSeries is immutable")

    def __eq__(self, other):
        if other.__class__ is not XSeries:
            return NotImplemented
        return (self.field, self.coeffs, self.prec) == (other.field, other.coeffs, other.prec)

    def __hash__(self):
        return hash((self.field, self.coeffs, self.prec))

    @staticmethod
    def make(field, items, prec: int) -> "XSeries":
        acc = {}
        for e, c in (items.items() if isinstance(items, dict) else items):
            if e >= prec:
                continue
            c = field.coerce(c) if not is_element(field, c) else c
            if field.is_zero(c):
                continue
            if e in acc:
                acc[e] = field.add(acc[e], c)
                if field.is_zero(acc[e]):
                    del acc[e]
            else:
                acc[e] = c
        return XSeries(field, tuple(sorted(acc.items())), prec)

    @staticmethod
    def zero(field, prec):
        return XSeries(field, (), prec)

    @staticmethod
    def const(field, value, prec):
        return XSeries.make(field, {0: field.coerce(value)}, prec)

    def is_zero_known(self) -> bool:
        return not self.coeffs

    def ord_known(self) -> int:
        """Order of the first known nonzero term; prec when none is stored."""
        return self.coeffs[0][0] if self.coeffs else self.prec

    def coefficient(self, e: int):
        for ee, c in self.coeffs:
            if ee == e:
                return c
        return self.field.zero

    def truncate(self, prec: int) -> "XSeries":
        if prec >= self.prec:
            return XSeries(self.field, self.coeffs, self.prec)
        return XSeries(self.field, tuple((e, c) for e, c in self.coeffs if e < prec), prec)

    def shift(self, k: int) -> "XSeries":
        return XSeries(self.field, tuple((e + k, c) for e, c in self.coeffs), self.prec + k)

    def __add__(self, other: "XSeries") -> "XSeries":
        prec = min(self.prec, other.prec)
        return XSeries.make(self.field, list(self.coeffs) + list(other.coeffs), prec)

    def __neg__(self):
        return XSeries(self.field, tuple((e, self.field.neg(c)) for e, c in self.coeffs),
                       self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "XSeries") -> "XSeries":
        K = self.field
        prec = min(self.prec + other.ord_known(), other.prec + self.ord_known())
        if K is QQ:
            return XSeries(K, _qq_product(self.coeffs, other.coeffs, prec), prec)
        acc = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                if e >= prec:
                    continue
                v = K.mul(c1, c2)
                if e in acc:
                    acc[e] = K.add(acc[e], v)
                else:
                    acc[e] = v
        return XSeries.make(K, acc, prec)

    def scale(self, c) -> "XSeries":
        K = self.field
        c = K.coerce(c) if not is_element(K, c) else c
        return XSeries.make(K, {e: K.mul(v, c) for e, v in self.coeffs}, self.prec)

    def inverse(self) -> "XSeries":
        """Inverse of a series with known nonzero lowest term.

        With u = s^-k * self = c0 + u_1 s + ..., the inverse of u modulo
        s^prec is unique (von zur Gathen & Gerhard, Modern Computer Algebra,
        9.1).  Newton iteration r <- r - r (u r - 1) from r = 1/c0 doubles
        the number of correct terms each round with two products, over every
        field; over QQ those products run on the integer kernel of
        `__mul__`.  A single term c0 s^k maps straight to c0^-1 s^-k.

        Every XSeries stores only exponents below prec (`make` drops the
        rest, and arithmetic, `scale` and `inverse` go through it or keep
        it), so the lowest stored exponent k is below prec and u is known
        to at least one term; the inverse, with lowest exponent -k and
        precision prec - 2k, keeps the invariant."""
        K = self.field
        if not self.coeffs:
            raise DomainError("inverse of a series with no known terms")
        k = self.coeffs[0][0]
        inv0 = K.inv(self.coeffs[0][1])
        prec = self.prec - k  # the precision of u, at least 1
        if len(self.coeffs) == 1:
            return XSeries(K, ((-k, inv0),), prec - k)
        u = self.shift(-k)
        r = XSeries(K, ((0, inv0),), 1)
        while r.prec < prec:
            r = XSeries(K, r.coeffs, min(2 * r.prec, prec))
            # u r = 1 + O(s^n) for the n terms r had: its first term is
            # 1, and the correction starts at s^n, past every term of r
            error = u.truncate(r.prec) * r
            correction = r * XSeries(K, error.coeffs[1:], r.prec)
            r = XSeries(K, r.coeffs + (-correction).coeffs, r.prec)
        return r.shift(-k)

    def __str__(self):
        K = self.field
        parts = [f"{K.to_str(c)}*s^{e}" for e, c in self.coeffs]
        return (" + ".join(parts) if parts else "0") + f" + O(s^{self.prec})"


_set_xs_field = XSeries.field.__set__
_set_xs_coeffs = XSeries.coeffs.__set__
_set_xs_prec = XSeries.prec.__set__


# ---------------------------------------------------------------------------
# polynomials in y with series coefficients
# ---------------------------------------------------------------------------


class YPoly:
    """Polynomial in y over truncated series in x: one XSeries per
    y-degree, low first, trailing zeros trimmed.  Immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: tuple):
        _set_yp_field(self, field)
        _set_yp_coeffs(self, coeffs)

    def __setattr__(self, *_):
        raise AttributeError("YPoly is immutable")

    def __eq__(self, other):
        if other.__class__ is not YPoly:
            return NotImplemented
        return (self.field, self.coeffs) == (other.field, other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    @staticmethod
    def make(field, coeff_list) -> "YPoly":
        cs = list(coeff_list)
        while cs and cs[-1].is_zero_known():
            cs.pop()
        return YPoly(field, tuple(cs))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero_known(self) -> bool:
        return not self.coeffs

    def coefficient(self, j: int) -> XSeries:
        if j < len(self.coeffs):
            return self.coeffs[j]
        return XSeries.zero(self.field, self.min_prec())

    def min_prec(self) -> int:
        return min((c.prec for c in self.coeffs), default=0)

    def truncate(self, prec: int) -> "YPoly":
        return YPoly.make(self.field, [c.truncate(prec) for c in self.coeffs])

    def __add__(self, other: "YPoly") -> "YPoly":
        # absent y-coefficients are exactly zero, so they keep the other
        # side's precision
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for j in range(n):
            a = self.coeffs[j] if j < len(self.coeffs) else None
            b = other.coeffs[j] if j < len(other.coeffs) else None
            if a is None:
                out.append(b)
            elif b is None:
                out.append(a)
            else:
                out.append(a + b)
        return YPoly.make(self.field, out)

    def __neg__(self):
        return YPoly(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def scale_series(self, s: XSeries) -> "YPoly":
        return YPoly.make(self.field, [c * s for c in self.coeffs])

    def derive_y(self) -> "YPoly":
        K = self.field
        out = []
        for j in range(1, len(self.coeffs)):
            out.append(self.coeffs[j].scale(K.coerce(j)))
        return YPoly.make(K, out)

    def eval_series(self, y: XSeries) -> XSeries:
        acc = XSeries.zero(self.field, self.min_prec())
        for c in reversed(self.coeffs):
            acc = acc * y + c
        return acc

    def divmod_monic(self, w: "YPoly"):
        """Division by a y-monic polynomial whose leading series is a unit."""
        lead = w.coeffs[-1]
        inv_lead = lead.inverse()
        dw = w.degree()
        rem = list(self.coeffs)
        if len(rem) <= dw:
            return YPoly.make(self.field, []), YPoly.make(self.field, rem)
        q = [XSeries.zero(self.field, self.min_prec()) for _ in range(len(rem) - dw)]
        for shift in range(len(rem) - dw - 1, -1, -1):
            c = rem[shift + dw] * inv_lead
            q[shift] = c
            for j in range(dw + 1):
                rem[shift + j] = rem[shift + j] - c * w.coeffs[j]
        return YPoly.make(self.field, q), YPoly.make(self.field, rem[:dw])


_set_yp_field = YPoly.field.__set__
_set_yp_coeffs = YPoly.coeffs.__set__


def ypoly_gcd_monic(a: YPoly, b: YPoly) -> YPoly:
    """gcd in (Laurent series field)[y] by the Euclidean algorithm with
    leading-coefficient inversion; result monic in y.

    Raises RegenerationRequest when precision is exhausted."""
    K = a.field
    f, g = a, b
    if f.degree() < g.degree():
        f, g = g, f
    while not g.is_zero_known():
        lead = g.coeffs[-1]
        if lead.prec <= max(lead.ord_known(), 0):  # too little precision to invert the lead
            raise RegenerationRequest(2 * max(lead.prec, 1) + 4)
        gm = g.scale_series(lead.inverse())
        _, r = f.divmod_monic(gm)
        f, g = gm, r
    lead = f.coeffs[-1]
    return f.scale_series(lead.inverse())


def solve_simple_root(g: YPoly, s_prec: int) -> XSeries:
    """The unique series y(s) with y(0)=0 solving g(s, y(s)) = 0 when the
    y-derivative of g at the origin is a unit; Newton iteration doubles the
    certified order each round."""
    K = g.field
    gy = g.derive_y()
    d0 = gy.coefficient(0).coefficient(0)
    if K.is_zero(d0):
        raise DomainError("root is not simple; cannot solve by iteration")
    y = XSeries.zero(K, 1)
    known = 1
    while known < s_prec:
        known = min(2 * known, s_prec)
        yk = XSeries(K, y.coeffs, known)
        gk = g.truncate(known)
        residual = gk.eval_series(yk)
        if residual.is_zero_known():
            y = yk
            continue
        slope = gy.truncate(known).eval_series(yk)
        correction = residual * slope.inverse()
        y = (yk - correction).truncate(known)
    return XSeries(K, y.coeffs, s_prec)
