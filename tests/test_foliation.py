import random
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from leafmult.errors import HypothesisError
from leafmult.foliation import (
    FoliationContext,
    VectorField,
    check_commute,
    lie_derivative,
)
from leafmult.jets import Jet2, cached_producer
from leafmult.poly import Polynomial, parse_polynomial

XY = ("x", "y")
XYZ = ("x", "y", "z")


def vf(ring, *texts):
    return VectorField(tuple(ring), tuple(parse_polynomial(t, ring) for t in texts))


def flat2():
    """Plane foliated by coordinate translations."""
    return FoliationContext(vf(XY, "1", "0"), vf(XY, "0", "1"), (0, 0))


def flat3():
    return FoliationContext(vf(XYZ, "1", "0", "0"), vf(XYZ, "0", "1", "0"), (0, 0, 0))


def exp_leaf():
    """V1 = d/dx + z d/dz, V2 = d/dy; the leaf through (0,0,1) carries z = e^t1."""
    return FoliationContext(vf(XYZ, "1", "0", "z"), vf(XYZ, "0", "1", "0"), (0, 0, 1))


class TestLieDerivative:
    def test_flat(self):
        assert lie_derivative(vf(XY, "1", "0"), parse_polynomial("x^2*y", XY)) \
            == parse_polynomial("2*x*y", XY)

    def test_exponential_direction(self):
        v = vf(XYZ, "1", "0", "z")
        assert lie_derivative(v, parse_polynomial("z", XYZ)) == parse_polynomial("z", XYZ)

    def test_constant_killed(self):
        v = vf(XY, "y^2", "x-1")
        assert lie_derivative(v, Polynomial.constant(XY, 5)).is_zero()


class TestCommutation:
    def test_exp_model_commutes(self):
        assert check_commute(vf(XYZ, "1", "0", "z"), vf(XYZ, "0", "1", "0")).commute

    def test_witness_on_failure(self):
        rep = check_commute(vf(XY, "y", "0"), vf(XY, "0", "x"))
        assert not rep.commute
        assert rep.witness is not None and not rep.witness.is_zero()

    def test_field_commutes_with_itself(self):
        v = vf(XY, "x^2-y", "x*y")
        assert check_commute(v, v).commute

    def test_context_rejects_noncommuting(self):
        with pytest.raises(HypothesisError):
            FoliationContext(vf(XY, "y", "0"), vf(XY, "0", "x"), (1, 1))

    def test_context_rejects_singular_point(self):
        with pytest.raises(HypothesisError):
            FoliationContext(vf(XY, "1", "0"), vf(XY, "2", "0"), (0, 0))


class TestPoisson:
    def test_coordinates(self):
        ctx = flat2()
        assert ctx.poisson(parse_polynomial("x", XY), parse_polynomial("y", XY)) \
            == Polynomial.constant(XY, 1)

    def test_antisymmetry_diag(self):
        ctx = flat2()
        f = parse_polynomial("x^3-2*x*y", XY)
        assert ctx.poisson(f, f).is_zero()

    def test_squares(self):
        ctx = flat2()
        assert ctx.poisson(parse_polynomial("x^2", XY), parse_polynomial("y^2", XY)) \
            == parse_polynomial("4*x*y", XY)

    def test_antisymmetry_and_biderivation_random(self):
        ctx = exp_leaf()
        rng = random.Random(2)
        for _ in range(15):
            f, g, h = (_random_poly(rng, XYZ) for _ in range(3))
            assert ctx.poisson(f, g) == -ctx.poisson(g, f)
            assert ctx.poisson(f, g * h) == g * ctx.poisson(f, h) + h * ctx.poisson(f, g)


def _random_poly(rng, ring, max_deg=2, terms=3):
    acc = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, max_deg) for _ in ring)
        acc[mono] = Fraction(rng.randint(-3, 3))
    return Polynomial(ring, acc)


class TestLeafJet:
    def test_flat_restriction(self):
        ctx = flat3()
        jet = ctx.leaf_jet(parse_polynomial("x^2+y^3", XYZ), 4)
        assert jet.to_polynomial() == parse_polynomial("t1^2+t2^3", ("t1", "t2"))
        assert jet.as_exact_polynomial() is not None

    def test_exponential_flow(self):
        ctx = exp_leaf()
        jet = ctx.leaf_jet(parse_polynomial("z", XYZ), 5)
        for a in range(6):
            assert jet.coefficient(a, 0) == Fraction(1, factorial(a))
        assert jet.coefficient(0, 1) == 0

    def test_constant(self):
        ctx = exp_leaf()
        jet = ctx.leaf_jet(Polynomial.constant(XYZ, Fraction(3, 7)), 3)
        assert jet.to_polynomial() == Polynomial.constant(("t1", "t2"), Fraction(3, 7))

    def test_value_at_origin_is_value_at_p(self):
        ctx = exp_leaf()
        f = parse_polynomial("x*z+y^2-2", XYZ)
        assert ctx.leaf_jet(f, 3).value_at_origin() == f.evaluate(ctx.point)

    def test_morphism_property(self):
        ctx = exp_leaf()
        rng = random.Random(9)
        for _ in range(10):
            f = _random_poly(rng, XYZ)
            g = _random_poly(rng, XYZ)
            n = rng.randint(2, 6)
            jf, jg = ctx.leaf_jet(f, n), ctx.leaf_jet(g, n)
            assert ctx.leaf_jet(f * g, n) == jf * jg
            assert ctx.leaf_jet(f + g, n) == jf + jg

    def test_chart_identity(self):
        # in leaf coordinates the fields become coordinate derivations
        ctx = exp_leaf()
        rng = random.Random(13)
        for _ in range(8):
            f = _random_poly(rng, XYZ)
            n = rng.randint(2, 5)
            assert ctx.leaf_jet(ctx.v1.apply(f), n) == ctx.leaf_jet(f, n + 1).derivative(0)
            assert ctx.leaf_jet(ctx.v2.apply(f), n) == ctx.leaf_jet(f, n + 1).derivative(1)

    def test_bracket_is_leaf_jacobian(self):
        ctx = exp_leaf()
        rng = random.Random(17)
        for _ in range(8):
            f = _random_poly(rng, XYZ)
            g = _random_poly(rng, XYZ)
            n = rng.randint(2, 5)
            jf = ctx.leaf_jet(f, n + 1)
            jg = ctx.leaf_jet(g, n + 1)
            jac = jf.derivative(0) * jg.derivative(1) - jf.derivative(1) * jg.derivative(0)
            assert ctx.leaf_jet(ctx.poisson(f, g), n).truncate(jac.order) == jac

    def test_commuting_order_symmetry(self):
        ctx = exp_leaf()
        f = parse_polynomial("x*z^2 - y*z + x^2", XYZ)
        for a in range(4):
            for b in range(4):
                d1 = ctx.iterated_derivative(f, a, b)
                # apply in the other order
                d2 = f
                for _ in range(a):
                    d2 = ctx.v1.apply(d2)
                for _ in range(b):
                    d2 = ctx.v2.apply(d2)
                assert d1.evaluate(ctx.point) == d2.evaluate(ctx.point)

    def test_producer_regenerates(self):
        ctx = exp_leaf()
        jet = ctx.leaf_jet(parse_polynomial("z", XYZ), 3)
        assert jet.regenerate(8).coefficient(7, 0) == Fraction(1, factorial(7))


def reference_leaf_jet(ctx, f, order):
    """The iterated-derivative loop FoliationContext.leaf_jet ran before flow
    jets were composed; kept as the reference it must agree with."""
    coeffs = {}
    terminated_at = None
    for level in range(order + 1):
        all_zero = True
        for a in range(level + 1):
            b = level - a
            d = ctx.iterated_derivative(f, a, b)
            if not d.is_zero():
                all_zero = False
                v = d.evaluate(ctx.point)
                if v:
                    coeffs[(a, b)] = v / (factorial(a) * factorial(b))
        if all_zero:
            terminated_at = level
            break
    if terminated_at is not None:
        return Jet2.from_polynomial(
            Polynomial(("t1", "t2"), coeffs), order)
    producer = cached_producer(lambda n: reference_leaf_jet(ctx, f, n))
    return Jet2(order, coeffs, producer)


def twisted_leaf():
    """V1 = d/dx + yz d/dz, V2 = d/dy + xz d/dz: the leaves are z = c*e^(xy)."""
    return FoliationContext(vf(XYZ, "1", "0", "y*z"), vf(XYZ, "0", "1", "x*z"), (1, -1, 2))


COMMUTING_PAIRS = {"flat": flat3, "exp": exp_leaf, "twisted": twisted_leaf}


def assert_same_jet(jet, ref):
    assert jet.order == ref.order
    assert jet.poly == ref.poly
    assert (jet.as_exact_polynomial() is None) == (ref.as_exact_polynomial() is None)
    assert jet.as_exact_polynomial() == ref.as_exact_polynomial()


class TestComposedLeafJets:
    @pytest.mark.parametrize("leaf", sorted(COMMUTING_PAIRS))
    @pytest.mark.parametrize("text, order", [
        # e^t1 to order 6 on the exp leaf: the degree-6 coefficient cancels
        ("z - 1 - x - 1/2*x^2 - 1/6*x^3 - 1/24*x^4 - 1/120*x^5 - 1/720*x^6", 6),
        ("x^4*(z - 1)", 4),
        ("x^5 - 3*x^2*y^3 + y", 5),  # degree exactly order
        ("x^5 - 3*x^2*y^3 + y", 6),
        ("x*z - y^2*z^2 + 1/3", 0),
        ("x*z - y^2*z^2 + 1/3", 3),
        ("z^3 - x*y", 7),
    ])
    def test_matches_reference(self, leaf, text, order):
        ctx = COMMUTING_PAIRS[leaf]()
        f = parse_polynomial(text, XYZ)
        jet = ctx.leaf_jet(f, order)
        assert_same_jet(jet, reference_leaf_jet(COMMUTING_PAIRS[leaf](), f, order))
        if jet.can_regenerate():
            ref = reference_leaf_jet(COMMUTING_PAIRS[leaf](), f, order + 3)
            assert_same_jet(jet.regenerate(order + 3), ref)

    def test_cancelled_top_coefficient_takes_the_fallback(self):
        ctx = exp_leaf()
        f = parse_polynomial("z - 1 - x - 1/2*x^2 - 1/6*x^3 - 1/24*x^4 - 1/120*x^5 - 1/720*x^6", XYZ)
        jet = ctx.leaf_jet(f, 6)
        assert jet.poly.is_zero() and jet.as_exact_polynomial() is None
        assert jet.regenerate(7).coefficient(7, 0) == Fraction(1, factorial(7))
        # the iterated derivatives of f decided termination
        assert any(key[0] == f for key in ctx._memo)

    def test_degree_order_polynomial_stays_a_producer_jet(self):
        ctx = flat3()
        f = parse_polynomial("x^5 - 3*x^2*y^3 + y", XYZ)
        assert ctx.leaf_jet(f, 5).as_exact_polynomial() is None
        # decided by the degree-5 coefficient alone: no derivative of f
        # (the memo also holds the coordinate flows' derivatives)
        assert not any(key[0] == f for key in ctx._memo)
        assert ctx.leaf_jet(f, 6).as_exact_polynomial() == parse_polynomial("t1^5 - 3*t1^2*t2^3 + t2", ("t1", "t2"))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(COMMUTING_PAIRS)),
           st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                           st.integers(-3, 3).filter(bool), max_size=4),
           st.integers(0, 7))
    def test_random_polynomials(self, leaf, terms, order):
        f = Polynomial(XYZ, terms)
        jet = COMMUTING_PAIRS[leaf]().leaf_jet(f, order)
        assert_same_jet(jet, reference_leaf_jet(COMMUTING_PAIRS[leaf](), f, order))

    @pytest.mark.parametrize("leaf", ["flat", "exp"])
    def test_oversized_exponent(self, leaf):
        f = parse_polynomial("x^99999999*z", XYZ)
        start = time.perf_counter()
        jet = COMMUTING_PAIRS[leaf]().leaf_jet(f, 8)
        assert time.perf_counter() - start < 2.0
        assert_same_jet(jet, reference_leaf_jet(COMMUTING_PAIRS[leaf](), f, 8))


def quadratic_flow_leaf():
    """V1 = d/dx + y d/dz, V2 = d/dy + x d/dz: z moves along the flows as
    z + y*t1 + x*t2 + t1*t2, so the flows are polynomial of degree 2."""
    return FoliationContext(vf(XYZ, "1", "0", "y"), vf(XYZ, "0", "1", "x"), (1, 2, -1))


XYZW = ("x", "y", "z", "w")


def sheared_leaf():
    """V1 = d/dx + y d/dz, V2 = d/dw: z moves as z + y*t1, so D = 1."""
    return FoliationContext(vf(XYZW, "1", "0", "y", "0"), vf(XYZW, "0", "0", "0", "1"),
                            (0, 0, 0, 0))


# leaf -> the degree D of its flows, None when they are not polynomial
FLOW_DEGREES = {flat3: 1, quadratic_flow_leaf: 2, exp_leaf: None}


class TestLeafJetMemo:
    def test_same_object_within_a_context_only(self):
        ctx = exp_leaf()
        f = parse_polynomial("x*z - y^2", XYZ)
        jet = ctx.leaf_jet(f, 5)
        assert ctx.leaf_jet(f, 5) is jet
        other = exp_leaf().leaf_jet(f, 5)
        assert other is not jet
        assert_same_jet(other, jet)

    def test_regeneration_returns_the_memoized_jet(self):
        ctx = exp_leaf()
        f = parse_polynomial("z", XYZ)
        jet = ctx.leaf_jet(f, 3)
        assert jet.as_exact_polynomial() is None
        assert jet.regenerate(8) is ctx.leaf_jet(f, 8)


class TestExactTagFromFlowDegree:
    @pytest.mark.parametrize("leaf", list(FLOW_DEGREES), ids=lambda leaf: leaf.__name__)
    def test_flow_degree(self, leaf):
        assert leaf()._flow_degree(8) == FLOW_DEGREES[leaf]

    def test_decided_without_derivatives_of_f(self):
        # z - x*y is constant on every leaf; deg F * D + 1 = 5
        f = parse_polynomial("z - x*y", XYZ)
        ctx = quadratic_flow_leaf()
        assert ctx.leaf_jet(f, 5).as_exact_polynomial() == Polynomial.constant(("t1", "t2"), -3)
        assert not any(key[0] == f for key in ctx._memo)
        # below level 5 the level loop decides, as before
        ctx = quadratic_flow_leaf()
        assert ctx.leaf_jet(f, 2).as_exact_polynomial() == Polynomial.constant(("t1", "t2"), -3)
        assert any(key[0] == f for key in ctx._memo)

    def test_top_coefficient_vanishing_at_p_only(self):
        # at y = 0 the t1 coefficient of z vanishes, but V1(z) = y does not
        ctx = sheared_leaf()
        z = parse_polynomial("z", XYZW)
        assert ctx._flow_degree(4) == 1
        jet = ctx.leaf_jet(z, 1)
        assert jet.poly.is_zero() and jet.as_exact_polynomial() is None
        assert_same_jet(jet, reference_leaf_jet(sheared_leaf(), z, 1))
        assert ctx.leaf_jet(z, 2).as_exact_polynomial() is not None

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(FLOW_DEGREES)),
           st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3),
                           st.integers(-3, 3).filter(bool), max_size=4),
           st.integers(0, 9))
    def test_matches_the_level_loop(self, leaf, terms, order):
        # orders run below and above deg F * D + 1 (up to 13 here)
        f = Polynomial(XYZ, terms)
        ctx = leaf()
        jet = ctx.leaf_jet(f, order)
        ref = reference_leaf_jet(leaf(), f, order)
        assert_same_jet(jet, ref)
        if FLOW_DEGREES[leaf] is None:
            assert ctx._flow_degree(order) is None
