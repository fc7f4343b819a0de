"""Fulton's algorithm as an independent oracle for local intersection
multiplicities at the origin.

`fulton` computes I_0(F, G) for plane polynomials from Fulton's axioms
(*Algebraic Curves*, 3.3): I = 0 when F or G is a unit at the origin;
I(y, G) is the order of G(x, 0) at x = 0; I(y*H, G) = I(y, G) + I(H, G);
and I(F, G) = I(F, G/b - x^(s-r)*F/a), a and b the leading coefficients
of F(x, 0) and G(x, 0), which lowers the degree s of G(x, 0) below the
degree r <= s of F(x, 0).  It shares no code with the local standard
basis engine.  A finite I_0(F, G) is at most deg F * deg G (Bezout, after
removing the common factors that do not pass through the origin), so a
running total above that bound proves I_0(F, G) infinite.
"""

from datetime import timedelta
from math import inf

from hypothesis import assume, example, given, settings, strategies as st

from leafmult.germs import local_multiplicity
from leafmult.jets import Jet2
from leafmult.localbasis import local_quotient_dimension
from leafmult.poly import Polynomial, parse_polynomial

T = ("t1", "t2")


def P(text):
    return parse_polynomial(text, T)


def _on_axis(p):
    """{x-exponent: coefficient} of p(x, 0)."""
    return {a: c for (a, b), c in p.terms.items() if b == 0}


def _without_y(p):
    """p / y for a p divisible by y."""
    return Polynomial(T, {(a, b - 1): c for (a, b), c in p.terms.items()})


def fulton(F, G, limit=None):
    """I_0(F, G), the intersection number at the origin (Fulton 3.3);
    inf once the running total passes limit, a bound on any finite value
    (by default the Bezout number deg F * deg G)."""
    if limit is None:
        limit = F.total_degree() * G.total_degree()
    total = 0
    while True:
        if F.constant_value() or G.constant_value():
            return total
        if F.is_zero() or G.is_zero():
            return inf
        f0, g0 = _on_axis(F), _on_axis(G)
        r, s = max(f0, default=-1), max(g0, default=-1)
        if r > s:
            F, G, f0, g0, r, s = G, F, g0, f0, s, r
        if r < 0:  # y divides F
            if s < 0:
                return inf  # y is a common component
            total += min(g0)  # I(y, G) = ord G(x, 0)
            if total > limit:
                return inf
            F = _without_y(F)
            continue
        G = G * (1 / g0[s]) - Polynomial.monomial(T, (s - r, 0), 1 / f0[r]) * F


class TestOracle:
    def test_axioms(self):
        assert fulton(P("t1"), P("t2")) == 1
        assert fulton(P("t1^2"), P("t2^3")) == 6
        assert fulton(P("t2^2-t1^3"), P("t2")) == 3
        assert fulton(P("t1-t2^2"), P("t1-2*t2^2")) == 2
        assert fulton(P("1+t1"), P("t2")) == 0
        assert fulton(P("t1*(t1-t2^2)"), P("t1*(t1-2*t2^2)")) == inf
        assert fulton(P("t2*t1"), P("t2")) == inf
        # Fulton's example: (x^2+y^2)^2 + 3x^2y - y^3 against (x^2+y^2)^3 - 4x^2y^2
        assert fulton(P("(t1^2+t2^2)^2+3*t1^2*t2-t2^3"),
                      P("(t1^2+t2^2)^3-4*t1^2*t2^2")) == 14


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def _vanishing(top, size):
    """Nonzero polynomials through the origin, exponents at most top."""
    monos = st.tuples(st.integers(0, top), st.integers(0, top)).filter(lambda m: m != (0, 0))
    return st.dictionaries(monos, coeffs, min_size=1, max_size=size).map(
        lambda d: Polynomial(T, d)).filter(lambda p: not p.is_zero())


vanishing = _vanishing(3, 4)
# common-factor draws stay small: the oracle proves inf only by running
# its total past the Bezout number
small_vanishing = _vanishing(1, 3)
units = st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                        st.integers(-2, 2), max_size=3).map(
                            lambda d: Polynomial(T, d) + 1).filter(
                                lambda p: p.constant_value() != 0)


def _jet(p):
    return Jet2.from_polynomial(p, max(p.total_degree(), 1))


class TestAgainstLocalEngine:
    """On h*f, h*g with h a unit at the origin raised to a varied power,
    Fulton's number, the corner multiplicity of exact jets and the corner
    colength of the polynomials agree."""

    @settings(max_examples=200, deadline=timedelta(seconds=10))
    @given(vanishing, vanishing, st.integers(1, 3), st.integers(1, 3), units,
           st.integers(0, 2))
    @example(P("t1-2*t2^2"), P("-2*t2^2"), 2, 1, P("1-t1+t2"), 2)  # t1-t2^2, t1-2*t2^2
    @example(P("-t1^3"), P("-t2^3"), 2, 2, P("1+t1*t2"), 1)  # t2^2-t1^3, t1^2-t2^3
    def test_finite(self, f, g, a, b, h, k):
        # pure powers keep most draws free of a common monomial factor
        f, g = f + P(f"t2^{a}"), g + P(f"t1^{b}")
        F, G = h ** k * f, h ** k * g
        # h is a unit at the origin, so a finite I_0(F, G) = I_0(f, g) is at
        # most deg f * deg g
        expected = fulton(F, G, f.total_degree() * g.total_degree())
        assume(expected is not inf)
        assert local_multiplicity(_jet(F), _jet(G))[0] == expected
        assert local_quotient_dimension([F, G]) == expected

    @settings(max_examples=20, deadline=timedelta(seconds=10))
    @given(small_vanishing, small_vanishing, small_vanishing)
    @example(P("t1"), P("t1-t2^2"), P("t1-2*t2^2"))
    def test_common_factor_through_the_origin(self, h, f, g):
        F, G = h * f, h * g
        assert fulton(F, G) == inf
        assert local_multiplicity(_jet(F), _jet(G))[0] == inf
        assert local_quotient_dimension([F, G]) == inf
