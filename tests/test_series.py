from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from leafmult.errors import DomainError, RegenerationRequest
from leafmult.series import (
    QQ,
    ExtField,
    XSeries,
    YPoly,
    solve_simple_root,
    up_ext_gcd,
    up_factor,
    _poly_mul,
)


def sqrt2_field():
    return ExtField(QQ, [F(-2), F(0), F(1)], name="r2")


class TestFieldTower:
    def test_extension_arithmetic(self):
        E = sqrt2_field()
        a = E.gen
        assert E.mul(a, a) == E.coerce(F(2))
        assert E.mul(E.inv(a), a) == E.one

    def test_tower_arithmetic(self):
        E = sqrt2_field()
        E2 = ExtField(E, [E.coerce(F(-3)), E.zero, E.one], name="r3")
        prod = E2.mul(E2.coerce(E.gen), E2.gen)   # sqrt2 * sqrt3
        assert E2.mul(prod, prod) == E2.coerce(F(6))

    def test_flatten_round_trip(self):
        E = sqrt2_field()
        E2 = ExtField(E, [E.coerce(F(-3)), E.zero, E.one], name="r3")
        x = E2.mul(E2.coerce(E.gen), E2.gen)
        assert E2.unflatten(E2.flatten(x)) == x
        assert len(E2.flatten(x)) == E2.degree_over_q == 4

    def test_describe_chain(self):
        E = sqrt2_field()
        E2 = ExtField(E, [E.coerce(F(-3)), E.zero, E.one], name="r3")
        assert len(E2.describe()) == 2


class TestFactorization:
    def test_rational_base(self):
        # v^4 - 3v^2 + 2 = (v-1)(v+1)(v^2-2)
        factors = up_factor(QQ, [F(2), F(0), F(-3), F(0), F(1)])
        degrees = sorted(len(f) - 1 for f, _ in factors)
        assert degrees == [1, 1, 2]

    def test_splits_over_extension(self):
        E = sqrt2_field()
        factors = up_factor(E, [E.coerce(F(-2)), E.zero, E.one])
        assert sorted(len(f) - 1 for f, _ in factors) == [1, 1]

    def test_multiplicities_over_extension(self):
        E = sqrt2_field()
        p2 = [E.coerce(F(-2)), E.zero, E.one]
        q = _poly_mul(E, _poly_mul(E, p2, p2), [E.coerce(F(-3)), E.one])
        factors = up_factor(E, q)
        assert sorted(m for _, m in factors) == [1, 2, 2]

    def test_tower_factorization(self):
        E = sqrt2_field()
        E2 = ExtField(E, [E.coerce(F(-3)), E.zero, E.one], name="r3")
        factors = up_factor(E2, [E2.coerce(F(-6)), E2.zero, E2.one])
        assert len(factors) == 2  # v^2 - 6 splits as (v - r2 r3)(v + r2 r3)

    def test_ext_gcd(self):
        g, s, t = up_ext_gcd(QQ, [F(-1), F(0), F(1)], [F(1), F(1)])
        # gcd(v^2-1, v+1) = v+1
        assert g == [F(1), F(1)]


class TestXSeries:
    def test_inverse(self):
        one_plus = XSeries.make(QQ, {0: F(1), 1: F(1)}, 8)
        inv = one_plus.inverse()
        assert (one_plus * inv).coefficient(0) == 1
        assert all(inv.coefficient(k) == (-1) ** k for k in range(8))

    def test_laurent_inverse(self):
        s2u = XSeries.make(QQ, {2: F(1), 3: F(1)}, 8)
        inv = s2u.inverse()
        assert inv.coefficient(-2) == 1

    def test_precision_tracking(self):
        a = XSeries.make(QQ, {1: F(1)}, 5)
        b = XSeries.make(QQ, {1: F(1)}, 9)
        assert (a * b).prec == 6  # min(5 + 1, 9 + 1)

    def test_zero_inverse_rejected(self):
        with pytest.raises(DomainError):
            XSeries.zero(QQ, 4).inverse()


class TestSolve:
    def test_quadratic_root(self):
        # y^2 + 2y + s = 0 near the origin
        g = YPoly.make(QQ, [XSeries.make(QQ, {1: F(1)}, 10),
                            XSeries.make(QQ, {0: F(2)}, 10),
                            XSeries.make(QQ, {0: F(1)}, 10)])
        y = solve_simple_root(g, 10)
        assert y.coefficient(1) == F(-1, 2)
        residual = g.eval_series(y)
        assert residual.is_zero_known()


def reference_product(a, b):
    """The schoolbook convolution XSeries.__mul__ ran over every field before
    it had an integer kernel over QQ: one field product per pair of terms
    below the cut-off."""
    K = a.field
    prec = min(a.prec + b.ord_known(), b.prec + a.ord_known())
    acc = {}
    for e1, c1 in a.coeffs:
        for e2, c2 in b.coeffs:
            e = e1 + e2
            if e >= prec:
                continue
            v = K.mul(c1, c2)
            acc[e] = K.add(acc[e], v) if e in acc else v
    return XSeries.make(K, acc, prec)


def reference_inverse(series):
    """The triangular recurrence r_0 = 1/c0, r_n = -(1/c0) sum u_i r_{n-i}
    that XSeries.inverse ran over every field before it became Newton
    iteration on the product."""
    K = series.field
    k = series.coeffs[0][0]
    inv0 = K.inv(series.coeffs[0][1])
    prec = series.prec - k
    tail = [(e - k, c) for e, c in series.coeffs[1:]]
    r = [inv0]
    for n in range(1, prec):
        acc = K.zero
        for i, c in tail:
            if i <= n:
                acc = K.add(acc, K.mul(c, r[n - i]))
        r.append(K.neg(K.mul(inv0, acc)))
    return XSeries.make(K, {n - k: c for n, c in enumerate(r)}, prec - k)


def newton_inverse(series):
    """The Newton iteration r <- r (2 - u r) that XSeries.inverse ran before
    the triangular recurrence, on the reference product so that it shares
    no kernel with the code under test."""
    K = series.field
    if not series.coeffs:
        raise DomainError("inverse of a series with no known terms")
    k = series.coeffs[0][0]
    unit = series.shift(-k)  # ord 0, prec series.prec - k
    c0 = unit.coefficient(0)
    inv0 = K.inv(c0)
    prec = unit.prec
    if prec <= 0:
        raise RegenerationRequest(series.prec + 2 * abs(k) + 1)
    # iterative: r_{n+1} = r_n (2 - u r_n)
    r = XSeries.const(K, inv0, prec)
    two = XSeries.const(K, K.coerce(2), prec)
    known = 1
    while known < prec:
        r = reference_product(r, two - reference_product(unit.truncate(prec), r)).truncate(prec)
        known *= 2
    return r.shift(-k)


SQRT2 = sqrt2_field()
SQRT2_SQRT3 = ExtField(SQRT2, [SQRT2.coerce(F(-3)), SQRT2.zero, SQRT2.one], name="r3")
small_rationals = st.builds(F, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def laurent_series(draw, field):
    """A series over field with lowest term at s^k, k in -3..5, known to
    1..60 terms past it."""
    d = field.degree_over_q
    element = st.lists(small_rationals, min_size=d, max_size=d).map(field.unflatten)
    k = draw(st.integers(-3, 5))
    known = draw(st.integers(1, 60))
    lead = draw(element.filter(lambda c: not field.is_zero(c)))
    tail = draw(st.dictionaries(st.integers(k + 1, k + known), element, max_size=6))
    return XSeries.make(field, {k: lead, **tail}, k + known)


class TestInverseMatchesNewton:
    @settings(max_examples=80, deadline=None)
    @given(laurent_series(QQ))
    def test_rationals(self, s):
        self.check(s)

    @settings(max_examples=25, deadline=None)
    @given(laurent_series(SQRT2_SQRT3))
    def test_two_level_tower(self, s):
        self.check(s)
        assert s.inverse().coeffs == reference_inverse(s).coeffs

    @staticmethod
    def check(s):
        inv = s.inverse()
        ref = newton_inverse(s)
        assert inv.coeffs == ref.coeffs
        assert inv.prec == ref.prec
        k = s.ord_known()
        assert s * inv == XSeries.const(s.field, 1, s.prec - k)


# denominators past 600 bits, as Puiseux expansions on the exponential leaf
# reach (681 bits on the benchmark's seed-1 inputs)
huge_rationals = st.builds(F, st.integers(-2 ** 700, 2 ** 700).filter(bool),
                           st.integers(2 ** 600, 2 ** 700))


@st.composite
def kernel_series(draw, nonzero=False):
    """A series over QQ with lowest exponent k in -6..6, known to
    prec - k = 1..40 terms: no term, a single term, or a sparse or dense
    tail, with small or huge coefficients."""
    coeff = st.one_of(small_rationals.filter(bool), huge_rationals)
    k = draw(st.integers(-6, 6))
    known = draw(st.one_of(st.just(1), st.integers(1, 40)))
    shape = draw(st.sampled_from(["single", "sparse", "dense"] + ([] if nonzero else ["none"])))
    if shape == "none":
        return XSeries.zero(QQ, k + known)
    terms = {k: draw(coeff)}
    if shape == "sparse":
        terms.update(draw(st.dictionaries(st.integers(k + 1, k + known), coeff, max_size=4)))
    elif shape == "dense":
        terms.update({e: draw(coeff) for e in range(k + 1, k + known)})
    return XSeries.make(QQ, terms, k + known)


HUGE = F(3 ** 430 + 1, 2 ** 681)


class TestKernelMatchesReference:
    """XSeries.__mul__ and inverse over QQ run on integer numerators; they
    must give what the Fraction reference gives, term for term."""

    @settings(max_examples=200, deadline=None)
    @given(kernel_series(), kernel_series())
    def test_product(self, a, b):
        got, ref = a * b, reference_product(a, b)
        assert got.coeffs == ref.coeffs
        assert got.prec == ref.prec

    @settings(max_examples=120, deadline=None)
    @given(kernel_series(nonzero=True))
    def test_inverse(self, s):
        got, ref = s.inverse(), reference_inverse(s)
        assert got.coeffs == ref.coeffs
        assert got.prec == ref.prec

    @pytest.mark.parametrize("s", [
        XSeries.make(QQ, {-3: HUGE}, -2),                          # prec - k = 1
        XSeries.make(QQ, {-3: HUGE, -2: F(1, 3)}, 4),              # negative k
        XSeries.make(QQ, {2: F(-5, 7)}, 9),                        # a single term
        XSeries.make(QQ, {0: F(1), 17: HUGE}, 30),                 # a sparse tail
        XSeries.make(QQ, {e: HUGE / (e + 1) for e in range(24)}, 24),  # a dense tail
    ])
    def test_shapes(self, s):
        for other in (s, s.shift(5), XSeries.make(QQ, {1: F(2), 3: HUGE}, 12)):
            assert (s * other).coeffs == reference_product(s, other).coeffs
        assert s.inverse().coeffs == reference_inverse(s).coeffs
        assert s.inverse().prec == reference_inverse(s).prec


def _series_ops(children):
    return st.one_of(
        st.tuples(children, children).map(lambda p: p[0] + p[1]),
        st.tuples(children, children).map(lambda p: p[0] * p[1]),
        st.tuples(children, small_rationals).map(lambda p: p[0].scale(p[1])),
        children.filter(lambda s: s.coeffs).map(XSeries.inverse),
    )


series_expressions = st.recursive(
    st.builds(lambda items, prec: XSeries.make(QQ, items, prec),
              st.dictionaries(st.integers(-4, 12), small_rationals, max_size=5),
              st.integers(-3, 12)),
    _series_ops, max_leaves=8)


class TestPrecisionInvariant:
    """XSeries.inverse relies on it: every stored exponent, the lowest one
    included, is below prec."""

    @settings(max_examples=150, deadline=None)
    @given(series_expressions)
    def test_make_and_arithmetic_keep_exponents_below_prec(self, s):
        assert all(e < s.prec for e, _ in s.coeffs)
        assert [e for e, _ in s.coeffs] == sorted({e for e, _ in s.coeffs})
