"""Weierstrass preparation and rational factorization on the Polynomial
kernel, compared output for output with the dense-list and direct-sympy
versions they replaced."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from leafmult.errors import CertificateError, DomainError
from leafmult.germs import _local_factors, weierstrass_jet
from leafmult.jets import LEAF_RING, Jet2
from leafmult.poly import (
    Polynomial, _factor_certified, _factor_quadratic, factor, parse_polynomial)
from leafmult.series import (
    QQ,
    _poly_divmod,
    _poly_mul,
    _poly_sub,
    _trim,
    up_ext_gcd,
    up_factor,
    up_monic,
)

T = LEAF_RING


def P(text, ring=T):
    return parse_polynomial(text, ring)


# ---------------------------------------------------------------------------
# reference: the versions before this kernel, kept verbatim
# ---------------------------------------------------------------------------


def _ref_weierstrass_jet(f: Jet2) -> tuple:
    order = f.order
    mu = f.vanishing_order()
    if mu is None:
        raise DomainError("cannot prepare the zero germ")
    # x-slices: slice k = list of y-coefficients of the x^k part
    slices: list[list] = [[] for _ in range(order + 1)]
    for (a, b), c in f.coeffs.items():
        col = slices[a]
        while len(col) <= b:
            col.append(Fraction(0))
        col[b] = c
    f0 = _trim(QQ, slices[0])
    if len(f0) < mu + 1 or any(f0[:mu]) or not f0[mu]:
        raise DomainError("germ is not regular in t2 at its vanishing order")
    y_mu = [Fraction(0)] * mu + [Fraction(1)]
    u0 = f0[mu:]
    _, s, t = up_ext_gcd(QQ, y_mu, u0)
    W = {0: y_mu}
    U = {0: u0}
    for k in range(1, order + 1):
        rhs = _trim(QQ, slices[k])
        for a in range(1, k):
            wa = W.get(a)
            ub = U.get(k - a)
            if wa and ub:
                rhs = _poly_sub(QQ, rhs, _poly_mul(QQ, wa, ub))
        if not rhs:
            continue
        # solve W_k*u0 + U_k*y^mu = rhs with deg W_k < mu
        wk = _poly_divmod(QQ, _poly_mul(QQ, t, rhs), y_mu)[1]
        num = _poly_sub(QQ, rhs, _poly_mul(QQ, wk, u0))
        uk, rem = _poly_divmod(QQ, num, y_mu)
        if rem:
            raise CertificateError("Weierstrass slice failed to divide")  # pragma: no cover
        if wk:
            W[k] = wk
        if uk:
            U[k] = uk

    def to_jet(slice_map, jet_order):
        coeffs = {}
        for a, col in slice_map.items():
            for b, c in enumerate(col):
                if c and a + b <= jet_order:
                    coeffs[(a, b)] = c
        return Jet2(jet_order, coeffs)

    # the top-mu y-band of each U slice lies beyond what the truncation of
    # f determines, so U is only certified to order - mu
    return to_jet(W, order), to_jet(U, max(order - mu, 0))


def _ref_sympy_local_factors(p: Polynomial):
    t1, t2 = sympy.symbols("t1 t2")
    expr = sympy.Integer(0)
    for (a, b), c in p.terms.items():
        expr += sympy.Rational(c.numerator, c.denominator) * t1**a * t2**b
    const, factors = sympy.factor_list(sympy.Poly(expr, t1, t2, domain="QQ"))
    unit = Polynomial.constant(LEAF_RING, Fraction(const.p, const.q))
    local = []
    for f, mult in factors:
        terms = {}
        pd = sympy.Poly(f, t1, t2, domain="QQ")
        for mono, c in zip(pd.monoms(), pd.coeffs()):
            terms[tuple(mono)] = Fraction(c.p, c.q)
        fp = Polynomial(LEAF_RING, terms)
        if fp.constant_value() == 0:
            local.append((fp, int(mult)))
        else:
            unit = unit * fp ** int(mult)
    return unit, local


_SYMPY_X = sympy.Symbol("_upx")


def _ref_up_factor_qq(a) -> list:
    a = _trim(QQ, a)
    if len(a) == 2:
        return [(up_monic(QQ, a), 1)]
    p = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(a)],
                   _SYMPY_X, domain="QQ")
    _, factors = p.factor_list()
    out = []
    for f, mult in factors:
        cs = _trim(QQ, [Fraction(c.p, c.q) for c in reversed(f.all_coeffs())])
        if len(cs) > 1:
            out.append((up_monic(QQ, cs), int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), [str(c) for c in fm[0]]))
    return out


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def regular_jets(draw):
    """A jet of order 0-16 regular in t2 at its vanishing order mu (0-5):
    every term has total degree >= mu and the t2^mu coefficient is nonzero."""
    order = draw(st.integers(0, 16))
    mu = draw(st.integers(0, min(5, order)))
    monos = st.tuples(st.integers(0, order), st.integers(0, order)).filter(
        lambda m: mu <= m[0] + m[1] <= order)
    terms = draw(st.dictionaries(monos, coeffs, max_size=12))
    terms[(0, mu)] = draw(coeffs.filter(bool))
    return Jet2(order, terms)


def _as_tuple(jet: Jet2):
    return jet.order, list(jet.poly.terms.items()), jet.producer


class TestWeierstrassMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(regular_jets())
    @example(Jet2(0, {(0, 0): Fraction(3)}))
    @example(Jet2(6, {(0, 0): Fraction(1), (1, 0): Fraction(2), (3, 3): Fraction(-1)}))
    @example(Jet2(5, {(0, 5): Fraction(1), (5, 0): Fraction(1)}))
    @example(Jet2(16, {(0, 2): Fraction(1), (1, 1): Fraction(1), (2, 0): Fraction(-1, 2),
                       (0, 3): Fraction(2), (7, 0): Fraction(1, 3)}))
    def test_same_w_and_u(self, f):
        got = weierstrass_jet(f)
        want = _ref_weierstrass_jet(f)
        # same truncations, same term order, no producers
        assert [_as_tuple(j) for j in got] == [_as_tuple(j) for j in want]

    @settings(max_examples=100, deadline=None)
    @given(regular_jets())
    def test_product_reproduces_the_jet(self, f):
        W, U = weierstrass_jet(f)
        mu = f.vanishing_order()
        assert W.coefficient(0, mu) == 1
        assert all(b < mu or (a, b) == (0, mu) for a, b in W.coeffs)
        # U is certified to order - mu, so W*U matches f to that order
        assert (W * U).truncate(U.order) == f.truncate(U.order)

    def test_not_regular_in_t2(self):
        f = Jet2(6, {(1, 0): Fraction(1), (0, 2): Fraction(1)})
        for prepare in (weierstrass_jet, _ref_weierstrass_jet):
            with pytest.raises(DomainError):
                prepare(f)

    def test_zero_germ(self):
        for prepare in (weierstrass_jet, _ref_weierstrass_jet):
            with pytest.raises(DomainError):
                prepare(Jet2.zero(4))


# the factors products are drawn from: irreducible over Q and nonconstant,
# some vanishing at the origin and some units
BIVARIATE_FACTORS = [P(t) for t in (
    "t1", "t2", "t1 - t2", "t1 + 2*t2", "t1 - t2^2", "t1^2 - t2^3", "t1^2 - 2*t2^2",
    "t1^2 + t2^2", "t2 - t1^3 + t1*t2", "1 + t1", "2 - t2", "1 + t1*t2 + t2^2",
    "t1^3 - 2*t2^5", "3*t1 - 2*t2 + t1^2")]
UNIVARIATE_FACTORS = [P(t, ("x",)) for t in (
    "x", "x - 1", "2*x + 3", "x^2 - 2", "x^2 + x + 1", "x^2 + 1", "3*x^3 - 2",
    "x^4 + 1", "x^2 - 3*x + 1")]


def _products(pool):
    return st.builds(
        lambda chosen, scale: scale * _product(chosen),
        st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)), min_size=1, max_size=4),
        coeffs.filter(bool))


def _product(chosen):
    out = Polynomial.constant(chosen[0][0].ring, 1)
    for f, m in chosen:
        out = out * f ** m
    return out


def _dense(p: Polynomial) -> list:
    return [p.terms.get((i,), Fraction(0)) for i in range(p.total_degree() + 1)]


class TestFactorMatchesReference:
    @settings(max_examples=50, deadline=None)
    @given(_products(BIVARIATE_FACTORS))
    @example(P("t1^2*(t1-t2^2)^3*(1+t1)"))
    @example(P("-1/2*t2*(t1-t2)^2*(t1+2*t2)^2"))
    def test_local_factors(self, p):
        unit, local = _local_factors(p)
        ref_unit, ref_local = _ref_sympy_local_factors(p)
        # same unit, same factors with the same multiplicities in the same order
        assert unit == ref_unit
        assert local == ref_local

    @settings(max_examples=80, deadline=None)
    @given(_products(UNIVARIATE_FACTORS))
    @example(P("x^2*(x^2-2)^2*(x-1)", ("x",)))
    def test_rational_up_factor(self, p):
        a = _dense(p)
        assert up_factor(QQ, a) == _ref_up_factor_qq(a)

    @settings(max_examples=60, deadline=None)
    @given(_products(BIVARIATE_FACTORS))
    def test_factor_reassembles(self, p):
        content, factors = factor(p)
        assert content * _product(factors) == p
        for f, _ in factors:
            assert f.total_degree() >= 1
            assert all(c.denominator == 1 for c in f.terms.values())


def _ref_factor_list(p: Polynomial) -> tuple:
    """sympy.factor_list on p, called directly."""
    gens = [sympy.Symbol(name) for name in p.ring]
    expr = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for g, e in zip(gens, mono):
            term *= g**e
        expr += term
    content, factors = sympy.factor_list(sympy.Poly(expr, *gens, domain="QQ"))
    return Fraction(content.p, content.q), [
        ({tuple(m): Fraction(c.p, c.q) for m, c in f.terms()}, int(mult))
        for f, mult in factors]


@st.composite
def degree_at_most_one(draw):
    """A nonzero polynomial of total degree <= 1 in 1-3 variables; any
    coefficient may be zero or negative, so constants and negative leading
    coefficients are drawn too."""
    ring = ("x", "y", "z")[:draw(st.integers(1, 3))]
    wide = st.fractions(min_value=-12, max_value=12, max_denominator=9)
    monos = [(0,) * len(ring)] + [tuple(int(i == j) for j in range(len(ring)))
                                  for i in range(len(ring))]
    terms = {m: draw(wide) for m in monos}
    p = Polynomial(ring, terms)
    assume(not p.is_zero())
    return p


class TestLinearFactorMatchesSympy:
    @settings(max_examples=300, deadline=None)
    @given(degree_at_most_one())
    @example(P("-3/4*t1 + 2/3*t2 - 5"))
    @example(P("t2 - t1"))
    @example(P("-2/3"))
    @example(P("6*z - 1/2", ("x", "y", "z")))
    def test_same_content_and_factors(self, p):
        content, factors = factor(p)
        ref_content, ref_factors = _ref_factor_list(p)
        # same content; same factors, multiplicities and order
        assert content == ref_content
        assert [(dict(f.terms), m) for f, m in factors] == ref_factors



@st.composite
def products_of_small_factors(draw):
    """c * f1^k1 * ... * fn^kn in 1-3 variables, each fi of 1-3 terms with
    exponents <= 2: repeated, monomial, binomial and content factors are
    all drawn, and so are products that only sympy can split."""
    ring = ("x", "y", "z")[:draw(st.integers(1, 3))]
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool)
    mono = st.tuples(*[st.integers(0, 2)] * len(ring))
    p = Polynomial.constant(ring, draw(coeff))
    for _ in range(draw(st.integers(1, 4))):
        f = Polynomial(ring, draw(st.dictionaries(mono, coeff, min_size=1, max_size=3)))
        p = p * f ** draw(st.integers(1, 3))
    assume(p.total_degree() >= 2 and len(p.terms) <= 40)
    return p


class TestCertifiedFactorMatchesSympy:
    @settings(max_examples=300, deadline=None)
    @given(products_of_small_factors())
    @example(P("t1^2 - t1*t2^2"))
    @example(P("-t1^4 + t1^3 + t1*t2^2 - t2^2"))
    @example(P("-2*x*y^2*z + 4*x^2*z^3", ("x", "y", "z")))
    @example(P("x^6 - 2*x^3 + 1", ("x",)))
    def test_same_content_and_factors(self, p):
        content, factors = factor(p)
        ref_content, ref_factors = _ref_factor_list(p)
        assert content == ref_content
        assert [(dict(f.terms), m) for f, m in factors] == ref_factors

    @pytest.mark.parametrize("text", [
        # what bound and appendix factor on the shipped manifests
        "t1^2 - t1*t2^2", "t1^2 - 2*t1*t2^2", "t1^3 - t1^2*t2^2",
        "t1^3 - t2^2", "-t1^4 + t1^3 + t1*t2^2 - t2^2",
    ])
    def test_certificate_covers_shipped_manifests(self, text):
        p = P(text)
        content, factors = _factor_certified(p)
        ref_content, ref_factors = _ref_factor_list(p)
        assert content == ref_content
        assert [(dict(f.terms), m) for f, m in factors] == ref_factors

    @pytest.mark.parametrize("text", [
        "t1^2 + t2^2",            # binomial of lattice length 2
        "t1^2 - t2^2",            # reducible, but with no certified split
        "t1^2 - 2*t1*t2^2 + t2^4",  # a square: no content in any variable
    ])
    def test_no_certificate_goes_to_sympy(self, text):
        assert _factor_certified(P(text)) is None


@st.composite
def shared_factor_pairs(draw):
    """(p, q) = (c * h^a * f, h^b * g) with h, f, g drawn from
    BIVARIATE_FACTORS (units included), a in 1..3 and b in 0..3."""
    h, f, g = (draw(st.sampled_from(BIVARIATE_FACTORS)) for _ in range(3))
    a, b = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    return draw(coeffs.filter(bool)) * h ** a * f, h ** b * g


@st.composite
def one_variable_quadratics(draw):
    """c * (a1*v + b1) * (a2*v + b2), the second factor the first one half
    the time (a repeated root), or a*v^2 + b*v + c with any b and c; v one
    variable of a ring of 1-3 variables."""
    ring = draw(st.sampled_from([("x",), LEAF_RING, ("x", "y", "z")]))
    v = Polynomial.variable(ring, draw(st.integers(0, len(ring) - 1)))
    wide = st.fractions(min_value=-12, max_value=12, max_denominator=9)
    lead = wide.filter(bool)
    if draw(st.booleans()):
        first = v * draw(lead) + draw(wide)
        second = first if draw(st.booleans()) else v * draw(lead) + draw(wide)
        return first * second * draw(lead)
    return v * v * draw(lead) + v * draw(wide) + draw(wide)


class TestQuadraticMatchesSympy:
    @settings(max_examples=300, deadline=None)
    @given(one_variable_quadratics())
    @example(P("t2^2 - 2"))                    # irrational roots
    @example(P("4*x^2 - 4*x + 1", ("x",)))     # a repeated root
    @example(P("x^2 + 2*x + 1", ("x",)))
    @example(P("x^2 - 3/2*x + 1/2", ("x",)))   # two rational roots
    @example(P("-3/4*z^2 - 1/5", ("x", "y", "z")))  # no real root
    def test_same_content_and_factors(self, p):
        content, factors = factor(p)
        ref_content, ref_factors = _ref_factor_list(p)
        assert content == ref_content
        assert [(dict(f.terms), m) for f, m in factors] == ref_factors

    @settings(max_examples=100, deadline=None)
    @given(one_variable_quadratics())
    def test_decided_without_sympy(self, p):
        # a quadratic with a monomial factor has a certificate first
        assert _factor_certified(p) is not None or _factor_quadratic(p) is not None


# shares no factor with any product of BIVARIATE_FACTORS
COPRIME_DIVISOR = P("t1 + t2 + 7")


class TestDivisorSplitMatchesSympy:
    @settings(max_examples=120, deadline=None)
    @given(shared_factor_pairs())
    # the exact-leaf benchmark inputs (seed 1) on which sympy took longest:
    # restrictions to the flat leaf that share a factor such as t1^3 - t2^2
    @example((P("-1/2*t1^5 - t1^3*t2 + 1/2*t1^2*t2^2 + t2^3"),
              P("1/2*t1^6 - 1/2*t1^3*t2^2 - t1^3*t2 + t2^3")))
    @example((P("1/2*t1^6 - 1/2*t1^3*t2^2 - t1^3*t2 + t2^3"),
              P("-3/2*t1^6 + 3/2*t1^3*t2^2 - t1^3*t2 + t2^3")))
    @example((P("3/2*t1^5 - t1^3*t2 - 3/2*t1^2*t2^2 + t2^3"),
              P("-1/2*t1^5 - t1^3*t2 + 1/2*t1^2*t2^2 + t2^3")))
    @example((P("1/2*t1^3*t2^3 - 1/2*t2^5 - t1^4 + t1*t2^2"),
              P("-2/3*t1^3*t2^3 + 2/3*t2^5 - t1^4 + t1*t2^2")))
    @example((P("(t1^2 + t2^2)^2*(t1 - t2)"), P("(t1^2 + t2^2)*(1 + t1)")))
    def test_same_content_and_factors(self, pair):
        p, q = pair
        ref_content, ref_factors = _ref_factor_list(p)
        for divisors in ([q], [COPRIME_DIVISOR], [COPRIME_DIVISOR, q]):
            content, factors = factor(p, divisors=divisors)
            assert content == ref_content
            assert [(dict(f.terms), m) for f, m in factors] == ref_factors
