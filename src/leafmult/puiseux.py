"""Newton polygon branch expansion at cycle level.

The engine decomposes a y-regular germ (given as a polynomial in y with
truncated series coefficients) into cycles: conjugacy classes of ramified
series solutions y(x^(1/e)).  Coefficients are carried as elements of exact
number-field towers, never numerically; the rational-substitution trick
(x = lam*s^e with lam a power of the residual root) keeps each cycle's data
inside the field generated by its own branch, so no splitting field is ever
forced.

A cycle's defining polynomial over the rationals is recovered from the
parameterization by solving, exactly, the linear system that makes a monic
y-polynomial with unknown series coefficients vanish along the branch; the
caller then certifies it by dividing the source germ.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd as igcd
from typing import Optional

from .errors import BudgetExceededError, DomainError, RegenerationRequest
from .poly import Polynomial
from .series import (
    ExtField,
    XSeries,
    YPoly,
    up_factor,
)

MAX_DEPTH = 40


class BranchParam:
    """One cycle's parameterization: x = lam * s^ram, y = series(s), with
    lam a nonzero field element, ord y(s) >= 1 and edge the (q, e) of the
    first polygon edge met."""

    __slots__ = ("field", "ram", "lam", "series", "edge", "depth")

    def __init__(self, field, ram: int, lam, series: XSeries, edge: tuple, depth: int = 0):
        self.field = field
        self.ram = ram
        self.lam = lam
        self.series = series
        self.edge = edge
        self.depth = depth

    def field_degree(self) -> int:
        return self.field.degree_over_q

    def describe_field(self):
        return self.field.describe()

    def series_table(self):
        """Serializable exponent/coefficient table (coefficients as exact
        rational vectors over the field's power basis)."""
        return [(e, [str(c) for c in self.field.flatten(v)])
                for e, v in self.series.coeffs]


def _power(K, base, n: int):
    if n < 0:
        return _power(K, K.inv(base), -n)
    return _powers(K, base, n)[-1]


def _powers(K, base, n: int) -> list:
    """[base^0, ..., base^n], n >= 0."""
    out = [K.one]
    for _ in range(n):
        out.append(K.mul(out[-1], base))
    return out


def _polygon(points):
    """Lower convex hull of (j, ord) points, j ascending; returns vertex list."""
    pts = sorted(points)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the segment
            if (x2 - x1) * (p[1] - y1) <= (p[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def expand(g: YPoly, depth: int = 0) -> list:
    """All branches of g through y(0) = 0, as BranchParam records.

    g must be y-regular at the origin: its y-degree-0 coefficient is nonzero
    (as a series) and some coefficient is a unit.  Branches are separated by
    construction; multiplicity handling is the caller's business (the germ
    layer decomposes into squarefree pieces first)."""
    if depth > MAX_DEPTH:
        raise BudgetExceededError("branch expansion recursion exceeded depth cap",
                                  stage="puiseux")
    K = g.field
    out: list[BranchParam] = []
    coeffs = list(g.coeffs)
    if not coeffs:
        raise DomainError("cannot expand the zero germ")
    # y = 0 branch: present when the constant-in-y coefficient is zero-known
    if coeffs[0].is_zero_known():
        if coeffs[0].prec <= 0:
            raise RegenerationRequest(4)
        out.append(BranchParam(K, 1, K.one, XSeries.zero(K, coeffs[0].prec),
                               edge=(1, 1), depth=depth))
        coeffs = coeffs[1:]
        while coeffs and coeffs[0].is_zero_known():
            # repeated y factor: squarefree callers never hit this, but
            # stay safe and report each sheet once
            coeffs = coeffs[1:]
        if not coeffs:
            return out
        g = YPoly.make(K, coeffs)
        if not g.coeffs:
            return out
        coeffs = list(g.coeffs)
    # regular y-order: least j whose series coefficient is a unit
    m = None
    for j, c in enumerate(coeffs):
        if c.coeffs and c.ord_known() == 0:
            m = j
            break
    if m is None:
        raise RegenerationRequest(2 * g.min_prec() + 4)
    if m == 0:
        return out  # unit germ: no branches through the origin
    pts = []
    for j, c in enumerate(coeffs[:m + 1]):
        if c.coeffs:
            pts.append((j, c.ord_known()))
    hull = _polygon(pts)
    # keep the strictly descending part, from (0, ord_0) to (m, 0)
    for (j1, o1), (j2, o2) in zip(hull, hull[1:]):
        if o2 >= o1:
            continue
        q = o1 - o2
        e = j2 - j1
        d = igcd(q, e)
        q //= d
        e //= d
        length = (j2 - j1) // e
        # residual polynomial in v = (edge coefficient data)
        psi = []
        dline = e * o1 + q * j1
        ok = True
        for t in range(length + 1):
            j = j1 + e * t
            o = (dline - q * j) // e
            c = coeffs[j] if j < len(coeffs) else None
            if c is None or o >= c.prec:
                ok = False
                break
            psi.append(c.coefficient(o))
        if not ok:
            raise RegenerationRequest(2 * g.min_prec() + 4)
        for factor, mult in up_factor(K, psi):
            out.extend(_expand_edge(g, K, q, e, dline, factor, mult, depth))
    return out


def _root_field(K, factor):
    """(field containing a root, the root) for an irreducible monic factor."""
    if len(factor) == 2:
        return K, K.neg(factor[0])
    ext = ExtField(K, factor, name=f"a{K.degree_over_q}")
    return ext, ext.gen


def _expand_edge(g: YPoly, K, q: int, e: int, dline: int, factor, mult: int,
                 depth: int) -> list:
    K2, v0 = _root_field(K, factor)
    # a*e - b*q = 1: x = v0^b s^e, y = s^q (v0^a + y1) keeps data in K2
    a, b = _bezout(e, q)
    lam = _power(K2, v0, b)
    c0 = _power(K2, v0, a)
    gt = _transform(g, K2, lam, c0, q, e, dline)
    prec = gt.min_prec()
    if prec <= 1:
        raise RegenerationRequest(2 * g.min_prec() + 8)
    if mult == 1:
        from .series import solve_simple_root
        y1 = solve_simple_root(gt, prec)
        series = _assemble_series(K2, c0, y1, q)
        return [BranchParam(K2, e, lam, series, edge=(q, e), depth=depth)]
    subs = expand(gt, depth + 1)
    out = []
    for sp in subs:
        K3 = sp.field
        lam_up = K3.coerce(lam) if K3 is not K2 else lam
        c_up = K3.coerce(c0) if K3 is not K2 else c0
        lam_total = K3.mul(lam_up, _power(K3, sp.lam, e))
        lam_q = _power(K3, sp.lam, q)
        inner = XSeries.make(K3, {0: c_up}, sp.series.prec) + sp.series
        series = inner.scale(lam_q).shift(q * sp.ram)
        out.append(BranchParam(K3, e * sp.ram, lam_total, series,
                               edge=(q, e), depth=depth))
    return out


def _assemble_series(K, c0, y1: XSeries, q: int) -> XSeries:
    inner = XSeries.make(K, {0: c0}, y1.prec) + y1
    return inner.shift(q)


def _bezout(e: int, q: int):
    """(a, b) with a*e - b*q = 1 (gcd(e, q) = 1)."""
    # extended euclid on (e, q)
    old_r, r = e, q
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    if old_r != 1:
        raise DomainError("edge exponents not coprime")
    # old_s*e + old_t*q = 1  ->  a = old_s, b = -old_t
    return old_s, -old_t


def _transform(g: YPoly, K2, lam, c0, q: int, e: int, dline: int) -> YPoly:
    """g(lam*s^e, s^q (c0 + y1)) / s^dline over K2, as a YPoly in y1.

    The powers of lam are built once per transform, and the binomial
    weights comb(j, i)*c0^(j-i) once per column."""
    K = g.field
    exps = [o for c in g.coeffs for o, _ in c.coeffs]
    if exps and min(exps) < 0:
        raise DomainError("Puiseux transform of a series with a negative exponent")
    lam_powers = _powers(K2, lam, max(exps, default=0))
    c0_powers = _powers(K2, c0, len(g.coeffs))
    acc: list[dict] = [{} for _ in g.coeffs]
    prec_bound = None
    for j, c in enumerate(g.coeffs):
        this_prec = e * c.prec + q * j - dline
        prec_bound = this_prec if prec_bound is None else min(prec_bound, this_prec)
        if not c.coeffs:
            continue
        weights = [K2.mul(K2.coerce(Fraction(comb(j, i))), c0_powers[j - i])
                   for i in range(j + 1)]
        for o, coeff in c.coeffs:
            up = K2.coerce(coeff) if K is not K2 else coeff
            base = K2.mul(up, lam_powers[o])
            s_exp = e * o + q * j - dline
            for i, w in enumerate(weights):
                d = acc[i]
                d[s_exp] = K2.add(d.get(s_exp, K2.zero), K2.mul(base, w))
    prec_bound = max(prec_bound if prec_bound is not None else 1, 1)
    cols = []
    for i, d in enumerate(acc):
        cols.append(XSeries.make(K2, d, prec_bound))
    return YPoly.make(K2, cols)


# ---------------------------------------------------------------------------
# monic factor recovery over the rationals
# ---------------------------------------------------------------------------


def factor_from_param(bp: BranchParam, x_prec: int) -> Optional[Polynomial]:
    """The monic defining polynomial over Q of the cycle, with series
    coefficients truncated below x_prec; None when the parameterization
    does not carry enough terms (callers regenerate and retry).

    Unknowns a_{j,k} (coefficient of x^k y^j) are solved exactly from the
    requirement that the polynomial vanish along x = lam*s^ram,
    y = series(s)."""
    K = bp.field
    fdeg = K.degree_over_q
    D = bp.ram * fdeg
    s_prec = bp.series.prec
    if x_prec * bp.ram > s_prec:
        return None
    # powers of the series
    powers = [XSeries.const(K, K.one, s_prec)]
    for _ in range(D):
        powers.append(powers[-1] * bp.series)
    lam_pows = _powers(K, bp.lam, x_prec)
    unknowns = [(j, k) for j in range(D) for k in range(x_prec)]
    col_of = {jk: idx for idx, jk in enumerate(unknowns)}
    n_cols = len(unknowns)
    rows = []
    rhs = []
    # equations at s-exponent >= ram*x_prec would involve truncated-away
    # x-coefficients; below that bound they are exact constraints
    use_prec = min(s_prec, powers[D].prec, bp.ram * x_prec)
    for i in range(use_prec):
        row_elems = {}
        for (j, k) in unknowns:
            se = i - bp.ram * k
            if se < 0:
                continue
            coeff = powers[j].coefficient(se)
            if K.is_zero(coeff):
                continue
            row_elems[(j, k)] = K.mul(coeff, lam_pows[k])
        target = powers[D].coefficient(i)
        if not row_elems and K.is_zero(target):
            continue
        flat_rows = [[Fraction(0)] * n_cols for _ in range(fdeg)]
        for jk, val in row_elems.items():
            vec = K.flatten(val)
            for r in range(fdeg):
                flat_rows[r][col_of[jk]] = vec[r]
        tvec = K.flatten(K.neg(target))
        for r in range(fdeg):
            rows.append(flat_rows[r])
            rhs.append(tvec[r])
    sol = _solve_exact(rows, rhs, n_cols)
    if sol is None:
        return None
    terms = {}
    for (j, k), idx in col_of.items():
        if sol[idx]:
            terms[(k, j)] = sol[idx]
    terms[(0, D)] = Fraction(1)
    return Polynomial(("t1", "t2"), terms)


def _solve_exact(rows, rhs, n_cols):
    """Exact Gaussian elimination; any solution (free variables 0), or None
    when inconsistent."""
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(n_cols):
        piv = next((i for i in range(row, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    for i in range(row, len(m)):
        if m[i][n_cols]:
            return None  # inconsistent
    sol = [Fraction(0)] * n_cols
    for r, col in enumerate(pivots):
        sol[col] = m[r][n_cols]
    return sol
