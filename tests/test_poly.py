import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from leafmult.errors import DomainError, ParseError, RingMismatchError
from leafmult.poly import (
    Polynomial,
    _gcd_prs,
    exact_divide,
    gcd,
    minimal_generators,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    normalize_leading,
    parse_polynomial,
    squarefree_part,
    _canonical,
    _sub_mul_into,
)

RING = ("x", "y")


def P(text, ring=RING):
    return parse_polynomial(text, ring)


def _sub_mul(f, mono, coeff, g, max_degree=None):
    """f - coeff * x^mono * g by _sub_mul_into, with f and coeff * g
    cleared to their common denominator; f itself for a zero coeff, which
    _sub_mul_into is never given."""
    if not coeff:
        return f
    coeff = Fraction(coeff)
    right = coeff.denominator * g.den
    den = math.lcm(f.den, right)
    acc = {m: c * (den // f.den) for m, c in f.num.items()}
    _sub_mul_into(acc, mono, coeff.numerator * (den // right), g.num, max_degree)
    return _canonical(f.ring, acc, den)


def random_poly(rng, ring=RING, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in ring)
        terms[mono] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(ring, terms)


class TestArithmetic:
    def test_add_cancels(self):
        assert P("x+y") + P("x-y") == P("2*x")

    def test_mul_difference_of_squares(self):
        assert P("x+y") * P("x-y") == P("x^2-y^2")

    def test_add_zero_identity(self):
        p = P("3*x^2*y - 1/2*y + 7")
        assert p + Polynomial.zero(RING) == p

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            P("x") + parse_polynomial("x", ("x", "z"))

    def test_pow(self):
        assert P("x+y") ** 2 == P("x^2 + 2*x*y + y^2")

    def test_scalar_ops(self):
        assert 2 * P("x") - P("x") == P("x")
        assert Fraction(1, 2) * P("2*x") == P("x")


class TestMinimalGenerators:
    ITEMS = [("a", (2, 0)), ("b", (1, 1)), ("c", (1, 1)), ("d", (0, 3)), ("e", (1, 2))]

    @pytest.mark.parametrize("sign, reverse", [(1, False), (-1, True)])
    def test_keeps_the_first_of_each_divisibility_chain(self, sign, reverse):
        # by degree: c repeats b and e is a multiple of b; the descending sort
        # of the negated degree is stable too, so b still comes before c
        got = minimal_generators(self.ITEMS, key=lambda p: sign * sum(p[1]),
                                 monomial=lambda p: p[1], reverse=reverse)
        assert [name for name, _ in got] == ["a", "b", "d"]

    def test_monomials_by_default(self):
        assert minimal_generators([(1, 2), (2, 0), (0, 2)], key=sum) == [(2, 0), (0, 2)]


class TestDerive:
    def test_simple(self):
        assert P("x^2*y").derive(0) == P("2*x*y")

    def test_constant(self):
        assert P("7").derive(0) == P("0")

    def test_multi(self):
        assert P("x^3 + x*y^2").derive(1) == P("2*x*y")

    def test_bad_index(self):
        with pytest.raises(DomainError):
            P("x").derive(5)


class TestEvaluate:
    def test_values(self):
        assert P("x^2+y").evaluate([2, 1]) == 5
        assert Polynomial.zero(RING).evaluate([3, 11]) == 0
        assert (P("x-y") * P("x+y")).evaluate([3, 3]) == 0

    def test_exact_fractions(self):
        assert P("1/3*x").evaluate([Fraction(1, 2), 0]) == Fraction(1, 6)
        with pytest.raises(DomainError):
            P("1/3*x").evaluate([Fraction(1, 2)])
        assert P("1/3*x + y").evaluate([Fraction(3, 4), Fraction(1, 4)]) == Fraction(1, 2)


class TestParsePrint:
    def test_round_trip_examples(self):
        for text in ["0", "1", "-1", "x", "x^2 - y^2", "3/4*x*y - 2", "x^3 + 2*x*y + 5/7"]:
            p = P(text)
            assert parse_polynomial(str(p), RING) == p

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(200):
            p = random_poly(rng)
            assert parse_polynomial(str(p), RING) == p

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            P("2x")

    def test_parens_and_unary(self):
        assert P("-(x - y)^2") == -(P("x-y") ** 2)

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            P("z")


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(monos, coeffs, max_size=5).map(lambda d: Polynomial(RING, d))


class TestReuse:
    """A polynomial renders once, and a monic one is its own normalization."""

    @given(polys, polys)
    def test_cached_rendering_is_a_fresh_one(self, a, b):
        built = [a, Polynomial._raw(RING, dict(a.terms)), a + b, a - b, a * b, -a,
                 a * Fraction(2, 3), a.derive(0), a.truncated(2)]
        for p in built:
            first = str(p)
            assert str(p) is first
            assert first == p._render()
        # building from an operand leaves its rendering as it was
        assert str(a) == a._render() and str(b) == b._render()

    @given(polys)
    def test_monic_is_returned_unchanged(self, p):
        n = normalize_leading(p)
        assert normalize_leading(n) is n

    def test_monic_examples(self):
        p = P("x^2 - 3*y + 1/2")
        assert normalize_leading(p) is p
        assert normalize_leading(P("-2*x^2 + y")) == P("x^2 - 1/2*y")


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(polys, polys, polys)
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60, deadline=None)
    @given(polys, polys, polys)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(polys, polys)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(polys, polys)
    def test_leibniz(self, a, b):
        for i in range(2):
            assert (a * b).derive(i) == a * b.derive(i) + b * a.derive(i)

    @settings(max_examples=60, deadline=None)
    @given(polys, polys, st.integers(0, 7))
    def test_truncated_product(self, a, b, n):
        low = {m: c for m, c in (a * b).terms.items() if sum(m) <= n}
        assert a.mul(b, n) == Polynomial(RING, low) == (a * b).truncated(n)

    @settings(max_examples=80, deadline=None)
    @given(polys, polys, monos, coeffs)
    def test_sub_mul_is_the_four_object_chain(self, f, g, a, c):
        expected = f - Polynomial.monomial(RING, a, c) * g
        got = _sub_mul(f, a, c, g)
        assert got == expected
        assert list(got.terms) == list(expected.terms)
        # terms that cancel are dropped, not kept as zero coefficients
        assert _sub_mul(f + Polynomial.monomial(RING, a, c) * g, a, c, g).terms == f.terms

    @settings(max_examples=80, deadline=None)
    @given(polys, polys, monos, coeffs, st.integers(0, 7))
    @example(P("y^3"), P("1 + x + x^2"), (1, 0), Fraction(1), 2)  # x^3 goes, x^2 stays
    def test_truncated_sub_mul(self, f, g, a, c, n):
        # the products above n are dropped, f's own terms are kept
        product = Polynomial.monomial(RING, a, c) * g
        assert _sub_mul(f, a, c, g, n) == f - product.truncated(n)

    @settings(max_examples=40, deadline=None)
    @given(polys, polys, polys)
    def test_compose_is_termwise_substitution(self, p, q1, q2):
        expected = Polynomial.zero(RING)
        for (e1, e2), c in p.terms.items():
            expected = expected + c * q1 ** e1 * q2 ** e2
        assert p.compose([q1, q2]) == expected


class TestGcd:
    def test_examples(self):
        assert gcd(P("x^2-y^2"), P("x-y")) == P("x-y")
        assert gcd(P("x-y"), P("x+y")) == P("1")

    def test_derived_example(self):
        # gcd(x^2(x-y^2), x(x-2y^2)) = x; oracle: trial-divide both arguments
        # by every candidate factor from their squarefree decompositions.
        a = P("x^2*(x-y^2)")
        b = P("x*(x-2*y^2)")
        g = gcd(a, b)
        assert g == P("x")
        exact_divide(a, g)
        exact_divide(b, g)

    def test_gcd_with_zero(self):
        p = P("2*x^2-2*y^2")
        assert gcd(p, Polynomial.zero(RING)) == normalize_leading(p)

    def test_divides_both_random_products(self):
        rng = random.Random(11)
        basis = [P("x"), P("y"), P("x-y"), P("x+y"), P("x-y^2"), P("x*y-1")]
        for _ in range(40):
            common = [f for f in basis if rng.random() < 0.4]
            a = P("1")
            b = P("1")
            for f in common:
                a = a * f
                b = b * f
            for f in basis:
                if rng.random() < 0.3:
                    a = a * f
                if rng.random() < 0.3:
                    b = b * f
            g = gcd(a, b)
            # g divides both exactly
            exact_divide(a, g)
            exact_divide(b, g)
            # and is divisible by the known common part's squarefree factors
            for f in common:
                exact_divide(g, gcd(g, f))

    def test_three_vars(self):
        ring = ("x", "y", "z")
        a = parse_polynomial("(x+y+z)^2*(x-z)", ring)
        b = parse_polynomial("(x+y+z)*(y+z)", ring)
        assert gcd(a, b) == parse_polynomial("x+y+z", ring)


@st.composite
def gcd_pairs(draw):
    """(common * a, common * b), each of the three a nonzero rational times
    small factors (1-3 terms) to powers 1-2: coprime pairs, monomial and
    integer content, repeated factors and constants; either side may be
    replaced by zero.  In 1-2 variables each takes 0-2 factors with
    exponents <= 2; in 3 variables 0-1 factor with exponents <= 1, because
    the reference PRS runs for seconds to minutes on some larger 3-variable
    draws."""
    ring = ("x", "y", "z")[:draw(st.integers(1, 3))]
    wide = len(ring) < 3
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=3).filter(bool)
    mono = st.tuples(*[st.integers(0, 2 if wide else 1)] * len(ring))
    small = st.dictionaries(mono, coeff, min_size=1, max_size=3).map(
        lambda d: Polynomial(ring, d))

    def product():
        p = Polynomial.constant(ring, draw(coeff))
        for f in draw(st.lists(small, max_size=2 if wide else 1)):
            p = p * f ** draw(st.integers(1, 2))
        return p

    common = product()
    a, b = common * product(), common * product()
    zero = Polynomial.zero(ring)
    return draw(st.sampled_from([(a, b), (a, b), (a, b), (a, zero), (zero, b), (zero, zero)]))


def found_shape_inputs():
    """Six products of three random 3-term factors in x, y, z with 25-36
    terms, each with a partial derivative: the shape on which the primitive
    PRS took from 0.05 s to more than 8 s."""
    ring = ("x", "y", "z")
    rng = random.Random(2026)
    out = []
    while len(out) < 6:
        p = Polynomial.constant(ring, 1)
        for _ in range(3):
            p = p * Polynomial(ring, {tuple(rng.randint(0, 2) for _ in ring):
                                      Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                      for _ in range(3)})
        if 25 <= len(p.terms) <= 36:
            out.append((p, p.derive(len(out) % 3)))
    return out


class TestHeuristicGcd:
    @settings(max_examples=200, deadline=None)
    @given(gcd_pairs())
    @example((P("x*z*(x+y)", ("x", "y", "z")), P("2*x*z*(x-y)", ("x", "y", "z"))))
    @example((P("6*x^2*y"), P("4*x*y^3")))
    @example((P("3"), P("-9/2")))
    def test_equals_prs(self, pair):
        a, b = pair
        assert gcd(a, b) == _gcd_prs(a, b)

    @pytest.mark.parametrize("a, b", found_shape_inputs())
    def test_found_shape_under_a_second(self, a, b):
        start = time.perf_counter()
        g = gcd(a, b)
        assert time.perf_counter() - start < 1.0
        exact_divide(a, g)
        exact_divide(b, g)


XYZ = ("x", "y", "z")
# certified factors (two terms with a primitive exponent difference, or
# degree 1 in a variable with a one-term coefficient), a factor with no
# certificate, and the product of two certified ones
FRONT_END_FACTORS = tuple(P(t, XYZ) for t in (
    "x^2*y+z", "x^2-y^3", "x-y", "y*z-1", "x+y+z-1", "x^2+y^2", "(x-y)*(x+y)"))


@st.composite
def front_end_pairs(draw):
    """(a, b), each a rational times a monomial times 0-2 factors from
    FRONT_END_FACTORS to powers 1-2, with one such factor in common half
    the time: monomial contents, constant rests, certified factors of
    either side dividing the other or not, repeated factors, and rests that
    still need the heuristic gcd."""
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=3).filter(bool)
    factor = st.sampled_from(FRONT_END_FACTORS)

    def side():
        mono = draw(st.tuples(*[st.integers(0, 2)] * 3))
        p = Polynomial.monomial(XYZ, mono, draw(coeff))
        for f in draw(st.lists(factor, max_size=2)):
            p = p * f ** draw(st.integers(1, 2))
        return p

    common = draw(factor) if draw(st.booleans()) else Polynomial.constant(XYZ, 1)
    return side() * common, side() * common


class TestGcdFrontEnd:
    """gcd splits off monomial contents and decides a rest with a
    certificate of irreducibility by one division before GCDHEU."""

    @settings(max_examples=150, deadline=None)
    @given(front_end_pairs())
    @example((P("x^3*y", XYZ), P("x*y^2*z", XYZ)))                  # constant rests
    @example((P("x^2*(x^2*y+z)^2", XYZ), P("y*(x^2*y+z)", XYZ)))    # certified, divides
    @example((P("x^2-y^3", XYZ), P("(x-y)*(x^2+y^2)", XYZ)))        # certified, does not
    @example((P("(x^2+y^2)^2", XYZ), P("z*(x^2+y^2)*(x-y)", XYZ)))  # no certificate
    def test_equals_prs(self, pair):
        a, b = pair
        assert gcd(a, b) == _gcd_prs(a, b)

    @settings(max_examples=60, deadline=None)
    @given(front_end_pairs())
    def test_squarefree_part_matches_sympy(self, pair):
        import sympy

        p = pair[0] * pair[1]
        if p.is_constant():
            return
        ours = _sympy_poly(squarefree_part(p)).monic()
        assert ours == sympy.sqf_part(_sympy_poly(p)).monic()

    def test_small_shapes_skip_the_heuristic_gcd(self, monkeypatch):
        # the shapes of the radical layer: basis elements with a monomial
        # or a linear factor, and linear generators
        import leafmult.poly as poly
        calls = []
        real = poly._heu_gcd

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(poly, "_heu_gcd", counting)
        assert gcd(P("y*z-y", XYZ), P("z-1", XYZ)) == P("z-1", XYZ)
        assert gcd(P("x^2*y-x^2*z+x^2", XYZ), P("x^3", XYZ)) == P("x^2", XYZ)
        assert gcd(P("x-y"), P("x+y")) == P("1")
        assert squarefree_part(P("x^3*y-x^3*z+x^3", XYZ)) == P("x*y-x*z+x", XYZ)
        assert calls == []


def _sympy_poly(p):
    import sympy

    terms = {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()}
    return sympy.Poly.from_dict(terms or {(0,) * len(p.ring): 0},
                                *sympy.symbols(p.ring), domain="QQ")


class TestExactDivide:
    def test_order_key_evaluations_stay_linear_in_the_terms_created(self, monkeypatch):
        # the global-first splits divide powers of z - 1 - x - y times a
        # factor by that factor; a scan for each leading term evaluated the
        # key 21k times here, the heap about once per term the division
        # creates (326 for 570; the 30th power took 12 s with the scan)
        import leafmult.poly as poly
        xyz = ("x", "y", "z")
        k = 8
        p = P("z-1-x-y", xyz) ** k
        b = P("x-y^2", xyz)
        a = p * b
        calls = [0]
        for name in ("degrevlex_key", "_degrevlex_heap_key"):
            def counting(m, real=getattr(poly, name)):
                calls[0] += 1
                return real(m)
            monkeypatch.setattr(poly, name, counting)
        created = [len(a.num)]
        real_cancel = poly._cancel_lead

        def cancel(work, scale, c, shift, lc, reducer, *args, **kwargs):
            created[0] += len(reducer)
            return real_cancel(work, scale, c, shift, lc, reducer, *args, **kwargs)

        monkeypatch.setattr(poly, "_cancel_lead", cancel)
        assert exact_divide(a, b) == p
        assert created[0] > 500
        assert calls[0] <= 2 * created[0]

    @settings(max_examples=100, deadline=None)
    @given(polys, polys.filter(bool))
    def test_divides_a_product(self, p, q):
        assert exact_divide(p * q, q) == p

    @settings(max_examples=100, deadline=None)
    @given(polys, polys.filter(bool), polys, st.booleans())
    @example(P("x^2"), P("x-y^2"), P("0"), False)  # lead divides, the next one does not
    def test_raises_exactly_when_sympy_leaves_a_remainder(self, p, b, r, exact):
        from sympy import div

        a = p * b if exact else p * b + r
        _, rem = div(_sympy_poly(a), _sympy_poly(b))
        if rem.is_zero:
            assert exact_divide(a, b) * b == a
        else:
            with pytest.raises(DomainError):
                exact_divide(a, b)


class TestSquarefree:
    def test_examples(self):
        assert squarefree_part(P("x^3*y^2")) == P("x*y")
        assert squarefree_part(P("x^2-y^2")) == P("x^2-y^2")
        assert squarefree_part(P("(x-y)^2*(x+y)^3")) == P("x^2-y^2")

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            squarefree_part(Polynomial.zero(RING))

    def test_power_stability(self):
        rng = random.Random(3)
        for _ in range(10):
            p = random_poly(rng, max_deg=2, max_terms=3)
            if p.is_zero() or p.is_constant():
                continue
            base = squarefree_part(p)
            for k in range(1, 5):
                assert squarefree_part(p ** k) == base

    def test_divides_original(self):
        p = P("(x-y)^2*(x+2*y)")
        exact_divide(p, squarefree_part(p))


# -- the integer representation -----------------------------------------------
#
# Reference kernels: the Fraction arithmetic every operation below ran on
# before polynomials were held as integer numerators over one denominator,
# on plain {monomial: Fraction} maps.

def _ref_add_into(acc, terms):
    for m, c in terms.items():
        s = acc.get(m, 0) + c
        if s:
            acc[m] = s
        else:
            acc.pop(m, None)


def _ref_add(a, b):
    acc = dict(a)
    _ref_add_into(acc, b)
    return acc


def _ref_neg(a):
    return {m: -c for m, c in a.items()}


def _ref_scale(a, c):
    return {m: k * c for m, k in a.items()} if c else {}


def _ref_mul(a, b, max_degree=None):
    right = [(m, c, sum(m)) for m, c in b.items()]
    acc = {}
    for m1, c1 in a.items():
        room = float("inf") if max_degree is None else max_degree - sum(m1)
        for m2, c2, d2 in right:
            if d2 > room:
                continue
            m = tuple(x + y for x, y in zip(m1, m2))
            prev = acc.get(m)
            if prev is None:
                acc[m] = c1 * c2
            else:
                s = prev + c1 * c2
                if s:
                    acc[m] = s
                else:
                    del acc[m]
    return acc


def _ref_pow(a, n, ring):
    result = {(0,) * len(ring): Fraction(1)}
    base = a
    while n:
        if n & 1:
            result = _ref_mul(result, base)
        base = _ref_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def _ref_sub_mul(f, mono, coeff, g, max_degree=None):
    if not coeff:
        return dict(f)
    acc = dict(f)
    items = g.items()
    if max_degree is not None:
        room = max_degree - sum(mono)
        items = [(m, c) for m, c in items if sum(m) <= room]
    for m, c in items:
        m = tuple(x + y for x, y in zip(mono, m))
        prev = acc.get(m)
        if prev is None:
            acc[m] = -(coeff * c)
        else:
            s = prev - coeff * c
            if s:
                acc[m] = s
            else:
                del acc[m]
    return acc


def _ref_truncated(a, n):
    return {m: c for m, c in a.items() if sum(m) <= n}


def _ref_derive(a, index):
    acc = {}
    for m, c in a.items():
        e = m[index]
        if e:
            dm = m[:index] + (e - 1,) + m[index + 1:]
            acc[dm] = acc.get(dm, Fraction(0)) + c * e
    return {m: c for m, c in acc.items() if c}


def _ref_scaled_to_lead(a, key):
    if not a:
        return a
    lc = a[max(a, key=key)]
    return a if lc == 1 else _ref_scale(a, Fraction(1) / lc)


def _assert_canonical(p):
    assert p.den > 0
    assert all(type(c) is int and c for c in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    if not p.num:
        assert p.den == 1
    assert p.terms == {m: Fraction(c, p.den) for m, c in p.num.items()}


def _matches(p, ref):
    """p is canonical and equals the reference term map, term order included."""
    _assert_canonical(p)
    assert p.terms == ref
    assert list(p.terms) == list(ref)


# wide denominators, so the lcm and gcd paths of every operation are taken
wide_coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
wide_polys = st.dictionaries(monos, wide_coeffs, max_size=6).map(lambda d: Polynomial(RING, d))


class TestIntegerRepresentation:
    """Polynomials are integer numerators over one positive denominator,
    canonical, and every operation agrees with the Fraction kernels."""

    @settings(max_examples=150, deadline=None)
    @given(wide_polys, wide_polys, wide_coeffs, st.integers(0, 6))
    def test_arithmetic_matches_the_fraction_kernels(self, a, b, c, n):
        ta, tb = dict(a.terms), dict(b.terms)
        _matches(a, ta)
        _matches(a + b, _ref_add(ta, tb))
        _matches(a - b, _ref_add(ta, _ref_neg(tb)))
        _matches(-a, _ref_neg(ta))
        _matches(a * c, _ref_scale(ta, c))
        _matches(a * int(c), _ref_scale(ta, Fraction(int(c))))
        _matches(a * b, _ref_mul(ta, tb))
        _matches(a.mul(b, n), _ref_mul(ta, tb, n))
        _matches(a.truncated(n), _ref_truncated(ta, n))
        for i in range(2):
            _matches(a.derive(i), _ref_derive(ta, i))

    @settings(max_examples=80, deadline=None)
    @given(wide_polys, st.integers(0, 4))
    def test_power_matches(self, a, n):
        _matches(a ** n, _ref_pow(dict(a.terms), n, RING))

    @settings(max_examples=120, deadline=None)
    @given(wide_polys, wide_polys, monos, wide_coeffs, st.none() | st.integers(0, 7))
    def test_sub_mul_matches(self, f, g, mono, c, n):
        for coeff in (c, int(c)):
            _matches(_sub_mul(f, mono, coeff, g, n),
                     _ref_sub_mul(dict(f.terms), mono, coeff, dict(g.terms), n))

    @settings(max_examples=120, deadline=None)
    @given(wide_polys, st.sampled_from(["degrevlex", "lex", "local"]))
    def test_leading_coefficient_one(self, p, kind):
        from leafmult.ideals import MonomialOrder, monic
        from leafmult.poly import degrevlex_key

        _matches(normalize_leading(p), _ref_scaled_to_lead(dict(p.terms), degrevlex_key))
        order = MonomialOrder(kind)
        _matches(monic(p, order), _ref_scaled_to_lead(dict(p.terms), order.key))

    @settings(max_examples=120, deadline=None)
    @given(wide_polys, wide_polys)
    def test_equal_by_every_route(self, a, b):
        routes = [
            a,
            Polynomial(RING, a.terms),
            Polynomial(RING, list(a.terms.items())),
            Polynomial._raw(RING, dict(a.terms)),
            parse_polynomial(str(a), RING),
            (a + b) - b,
            (a * 6) * Fraction(1, 6),
            a * Fraction(3, 7) * Fraction(7, 3),
            -(-a),
            a.mul(Polynomial.constant(RING, 1)),
            Polynomial.zero(RING) + a,
        ]
        for p in routes:
            _assert_canonical(p)
            assert p == a and hash(p) == hash(a)
            assert str(p) == str(a)

    def test_canonical_examples(self):
        p = P("1/6*x + 1/3*y")
        assert (p.num, p.den) == ({(1, 0): 1, (0, 1): 2}, 6)
        # a common factor of the numerators that den does not share stays
        q = P("2*x + 4*y")
        assert (q.num, q.den) == ({(1, 0): 2, (0, 1): 4}, 1)
        # cancellation takes the common factor out again
        r = P("1/6*x") + P("1/3*x")
        assert (r.num, r.den) == ({(1, 0): 1}, 2)
        z = P("1/2*x") - P("1/2*x")
        assert (z.num, z.den) == ({}, 1) and z == Polynomial.zero(RING)
        assert P("1/2*x").derive(0) == P("1/2") and P("1/2*x^2").derive(0).den == 1
        assert P("3/4").constant_value() == Fraction(3, 4)
        assert str(P("-3/4*x^2 + 2/3*y - 1")) == "-3/4*x^2 + 2/3*y - 1"


def _exponents(n):
    return st.tuples(*[st.integers(0, 6)] * n)


monomial_pairs = st.integers(1, 4).flatmap(lambda n: st.tuples(_exponents(n), _exponents(n)))
# rational coordinates with denominators 1-12, negative ones included
coordinates = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


def _ref_evaluate(p, point):
    """The value of p at point, one Fraction per term."""
    total = Fraction(0)
    for m, c in p.terms.items():
        for x, e in zip(point, m):
            c *= Fraction(x) ** e
        total += c
    return total


class TestKernelPrimitives:
    """The exponent arithmetic, the cached total degree, the integer
    evaluation and the integer route of `constant` agree with their
    definitions."""

    @settings(max_examples=200, deadline=None)
    @given(monomial_pairs)
    def test_monomial_arithmetic_is_componentwise(self, pair):
        a, b = pair
        n = len(a)
        assert monomial_mul(a, b) == tuple(a[i] + b[i] for i in range(n))
        assert monomial_lcm(a, b) == tuple(max(a[i], b[i]) for i in range(n))
        assert monomial_divides(a, b) is all(a[i] <= b[i] for i in range(n))
        assert monomial_divides(a, monomial_mul(a, b))
        assert monomial_div(monomial_mul(a, b), b) == a
        assert monomial_div(monomial_lcm(a, b), a) == tuple(max(a[i], b[i]) - a[i]
                                                            for i in range(n))

    @settings(max_examples=150, deadline=None)
    @given(wide_polys)
    @example(Polynomial.zero(RING))
    @example(Polynomial.constant(RING, Fraction(-7, 3)))
    def test_total_degree_and_is_constant_by_definition(self, p):
        degree = max((sum(m) for m in p.terms), default=-1)
        assert p.total_degree() == degree
        assert p.total_degree() == degree  # the kept value
        assert p.is_constant() is all(sum(m) == 0 for m in p.terms)
        assert p.is_constant() is (degree <= 0)

    @settings(max_examples=150, deadline=None)
    @given(wide_polys, coordinates, coordinates)
    @example(Polynomial.zero(RING), Fraction(-1, 12), Fraction(5, 7))
    @example(Polynomial.constant(RING, Fraction(-7, 3)), Fraction(1, 2), Fraction(-3))
    @example(Polynomial.constant(RING, 4), Fraction(0), Fraction(-11, 12))
    def test_evaluate_matches_the_fraction_reference(self, p, x, y):
        for point in ([x, y], [int(x), y], (x, int(y))):
            value = p.evaluate(point)
            assert type(value) is Fraction
            assert value == _ref_evaluate(p, point)
        with pytest.raises(DomainError):
            p.evaluate([x])
        with pytest.raises(DomainError):
            p.evaluate([x, y, x])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_exponents(3), wide_coeffs), max_size=6),
           coordinates, coordinates, coordinates)
    def test_evaluate_in_three_variables(self, terms, x, y, z):
        p = Polynomial(("x", "y", "z"), terms)
        assert p.evaluate([x, y, z]) == _ref_evaluate(p, [x, y, z])

    def test_constant_of_every_kind(self):
        for n in range(4):
            ring = ("x", "y", "z")[:n]
            for value in (0, 1, -1, 6, -10 ** 30, True, False,
                          Fraction(-3, 4), Fraction(0), Fraction(8, 2)):
                c = Polynomial.constant(ring, value)
                _assert_canonical(c)
                ref = Polynomial(ring, {(0,) * n: Fraction(value)})
                assert c == ref and hash(c) == hash(ref)
                assert c.is_constant() and c.constant_value() == value
                assert c.total_degree() == (0 if value else -1)


ALL_SLOTS = ("ring", "num", "den", "_terms", "_degree", "_hash", "_str")


def _built_by_every_route(a, b):
    return [
        a + b, a - b, a * b, -a, a * Fraction(2, 3), a.derive(0), a.truncated(1),
        Polynomial(RING, a.terms),
        Polynomial._raw(RING, dict(a.terms)),
        parse_polynomial(str(a), RING),
        Polynomial.constant(RING, 5),
        Polynomial.constant(RING, Fraction(-1, 3)),
        Polynomial.zero(RING),
        Polynomial.variable(RING, 1),
    ]


class TestImmutability:
    """No slot of a polynomial can be assigned, however it was built, and
    the values kept on first read never change equality or the hash."""

    @settings(max_examples=40, deadline=None)
    @given(wide_polys, wide_polys)
    def test_no_slot_can_be_assigned(self, a, b):
        for p in _built_by_every_route(a, b):
            before = (p.ring, dict(p.num), p.den)
            for fill in (False, True):
                if fill:
                    p.terms, p.total_degree(), hash(p), str(p)
                for slot in ALL_SLOTS:
                    with pytest.raises(AttributeError):
                        setattr(p, slot, None)
                with pytest.raises(AttributeError):
                    p.other = 1
            assert (p.ring, p.num, p.den) == before

    @settings(max_examples=80, deadline=None)
    @given(wide_polys, st.permutations(["degree", "hash", "str"]))
    def test_reads_in_any_order_keep_equality_and_hash(self, a, reads):
        fresh = [Polynomial(RING, a.terms), parse_polynomial(str(a), RING),
                 (a * 2) * Fraction(1, 2)]
        read = {"degree": lambda p: p.total_degree(), "hash": hash, "str": str}
        for p in fresh[1:]:
            for r in reads:
                read[r](p)
        q = fresh[0]
        for p in fresh[1:]:
            assert p == q and q == p
            assert hash(p) == hash(q)
            assert p.total_degree() == q.total_degree() == a.total_degree()
            assert str(p) == str(q)
