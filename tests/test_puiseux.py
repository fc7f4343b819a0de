from fractions import Fraction as F
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from leafmult.errors import DomainError
from leafmult.puiseux import _bezout, _power, _transform
from leafmult.series import QQ, ExtField, XSeries, YPoly

SQRT2 = ExtField(QQ, [F(-2), F(0), F(1)], name="r2")


def reference_transform(g: YPoly, K2, lam, c0, q: int, e: int, dline: int) -> YPoly:
    """The transform with one power of lam per stored coefficient and the
    binomial weights rebuilt per coefficient: the form the kernel had
    before its powers were shared."""
    K = g.field
    acc: list[dict] = []
    prec_bound = None
    for j, c in enumerate(g.coeffs):
        this_prec = e * c.prec + q * j - dline
        prec_bound = this_prec if prec_bound is None else min(prec_bound, this_prec)
        if not c.coeffs:
            continue
        c0_powers = [K2.one]
        while len(c0_powers) <= j:
            c0_powers.append(K2.mul(c0_powers[-1], c0))
        for o, coeff in c.coeffs:
            up = K2.coerce(coeff) if K is not K2 else coeff
            base = K2.mul(up, _power(K2, lam, o))
            s_exp = e * o + q * j - dline
            for i in range(j + 1):
                val = K2.mul(base, K2.coerce(F(comb(j, i))))
                val = K2.mul(val, c0_powers[j - i])
                while len(acc) <= i:
                    acc.append({})
                d = acc[i]
                d[s_exp] = K2.add(d.get(s_exp, K2.zero), val)
    prec_bound = max(prec_bound if prec_bound is not None else 1, 1)
    return YPoly.make(K2, [XSeries.make(K2, d, prec_bound) for d in acc])


small_rationals = st.builds(F, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def column(draw, known):
    """A series with nonnegative exponents known below `known`: no term,
    a few terms, or every term."""
    shape = draw(st.sampled_from(["empty", "sparse", "dense"]))
    if shape == "empty":
        return XSeries.zero(QQ, known)
    if shape == "sparse":
        terms = draw(st.dictionaries(st.integers(0, known - 1), small_rationals, max_size=3))
    else:
        terms = {o: draw(small_rationals) for o in range(known)}
    return XSeries.make(QQ, terms, known)


@st.composite
def edge(draw):
    """Coprime (q, e) of a polygon edge; either sign of b in a*e - b*q = 1."""
    q = draw(st.integers(1, 5))
    e = draw(st.integers(1, 5).filter(lambda e: gcd(q, e) == 1))
    return q, e


@st.composite
def transform_input(draw, K2):
    cols = draw(st.lists(st.integers(1, 12).flatmap(column), min_size=1, max_size=5))
    q, e = draw(edge())
    d = K2.degree_over_q
    v0 = draw(st.lists(small_rationals, min_size=d, max_size=d)
              .map(K2.unflatten).filter(lambda v: not K2.is_zero(v)))
    dline = draw(st.integers(0, 6))
    return YPoly.make(QQ, cols), q, e, v0, dline


class TestTransformMatchesReference:
    """_transform shares the powers of lam over the whole transform and the
    binomial weights over a column; it returns the same YPoly."""

    @settings(max_examples=120, deadline=None)
    @given(transform_input(QQ))
    def test_rationals(self, case):
        self.check(QQ, *case)

    @settings(max_examples=40, deadline=None)
    @given(transform_input(SQRT2))
    def test_one_level_extension(self, case):
        self.check(SQRT2, *case)

    @staticmethod
    def check(K2, g, q, e, v0, dline):
        # x = v0^b s^e, y = s^q (v0^a + y1), as the edge expansion builds them
        a, b = _bezout(e, q)
        lam, c0 = _power(K2, v0, b), _power(K2, v0, a)
        assert _transform(g, K2, lam, c0, q, e, dline) == \
            reference_transform(g, K2, lam, c0, q, e, dline)

    def test_edges_draw_both_signs_of_b(self):
        # lam = v0^b is the inverse of a power when b < 0
        signs = {_bezout(e, q)[1] > 0 for q in range(1, 6) for e in range(1, 6)
                 if gcd(q, e) == 1}
        assert signs == {False, True}
        assert _bezout(1, 1)[1] < 0


def test_negative_exponent_is_refused():
    g = YPoly.make(QQ, [XSeries.make(QQ, {-1: F(1), 0: F(2)}, 4),
                        XSeries.make(QQ, {0: F(1)}, 4)])
    with pytest.raises(DomainError):
        _transform(g, QQ, F(2), F(1), 1, 1, 0)
