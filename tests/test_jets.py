from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from leafmult.errors import InconclusiveError
from leafmult.jets import Jet2, cached_producer
from leafmult.poly import Polynomial, parse_polynomial

T = ("t1", "t2")


def J(text, order=8):
    return Jet2.from_polynomial(parse_polynomial(text, T), order)


class TestJetArith:
    def test_product(self):
        assert J("t1") * J("t2") == J("t1*t2")

    def test_truncated_product(self):
        a = J("1+t1", 2)
        b = J("1-t1", 2)
        assert (a * b).to_polynomial() == parse_polynomial("1-t1^2", T)

    def test_add_zero(self):
        j = J("t1^2-1/2*t2")
        assert j + Jet2.zero(8) == j

    def test_order_is_min(self):
        assert (J("t1", 3) * J("t2", 7)).order == 3

    def test_truncation_drops_high_terms(self):
        j = J("t1^5 + t1", 3)
        assert j.coeffs == {(1, 0): Fraction(1)}

    def test_pow(self):
        assert (J("t1+t2") ** 2) == J("t1^2+2*t1*t2+t2^2")


class TestProducers:
    def test_polynomial_regeneration(self):
        j = J("t1^5 + t1", 3)
        high = j.regenerate(6)
        assert high.coefficient(5, 0) == 1

    def test_composed_producers(self):
        a = J("t1^4+1", 2)
        b = J("t2^4-1", 2)
        prod = a * b
        high = prod.regenerate(8)
        assert high.coefficient(4, 4) == 1

    def test_reemission_matches_stored(self):
        j = J("t1^2*t2 - 3*t1", 5)
        again = j.regenerate(9).truncate(5)
        assert again == j

    def test_no_producer_is_inconclusive(self):
        bare = Jet2(2, {(1, 0): 1})
        with pytest.raises(InconclusiveError):
            bare.regenerate(5)

    def test_exact_polynomial_preserved_by_arith(self):
        a = J("t1+t2")
        b = J("t1-t2")
        assert (a * b).as_exact_polynomial() == parse_polynomial("t1^2-t2^2", T)
        assert (a + b).as_exact_polynomial() == parse_polynomial("2*t1", T)


class TestJetCalculus:
    def test_derivative(self):
        j = J("t1^3+t1*t2^2")
        assert j.derivative(1).to_polynomial() == parse_polynomial("2*t1*t2", T)

    def test_derivative_drops_order(self):
        assert J("t1^2", 4).derivative(0).order == 3

    def test_substitute_linear_shear(self):
        j = J("t2^2")
        sheared = j.substitute_linear(((1, 0), (1, 1)))  # t2 -> t1 + t2
        assert sheared.to_polynomial() == parse_polynomial("t1^2+2*t1*t2+t2^2", T)

    def test_swap(self):
        assert J("t1^2*t2").swap_variables() == J("t1*t2^2")

    def test_vanishing_order(self):
        assert J("t1^2+t2^3").vanishing_order() == 2
        assert Jet2.zero(4).vanishing_order() is None
        assert J("1+t1").vanishing_order() == 0


# -- the jet kernel is the Polynomial kernel, truncated ---------------------

coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
terms = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), coeff, max_size=6)
orders = st.integers(0, 6)
matrices = st.tuples(st.tuples(coeff, coeff), st.tuples(coeff, coeff))


def series_jet(d: dict, scale: Fraction, order: int) -> Jet2:
    """Jet of d + scale*exp(t1 + 2*t2): never terminates when scale != 0,
    so it carries a producer that is not an exact-polynomial tag."""
    def jet_at(n: int) -> Jet2:
        tail = {(a, b): scale * 2 ** b / (factorial(a) * factorial(b))
                for a in range(n + 1) for b in range(n + 1 - a)}
        for k, c in d.items():
            tail[k] = tail.get(k, 0) + c
        return Jet2(n, tail, cached_producer(jet_at))
    return jet_at(order)


exact_jets = st.builds(lambda d, n: Jet2.from_polynomial(Polynomial(T, d), n), terms, orders)
bare_jets = st.builds(Jet2, orders, terms)
kernel_jets = st.one_of(exact_jets, bare_jets)
produced_jets = st.builds(series_jet, terms, coeff.filter(bool), orders)

BINARY = [
    (lambda x, y: x + y, lambda a, b: a + b),
    (lambda x, y: x - y, lambda a, b: a - b),
    (lambda x, y: x * y, lambda a, b: a * b),
]


class TestKernelCollapse:
    @settings(max_examples=60, deadline=None)
    @given(kernel_jets, kernel_jets)
    def test_binary_ops_are_truncated_polynomial_ops(self, x, y):
        order = min(x.order, y.order)
        for jet_op, poly_op in BINARY:
            out = jet_op(x, y)
            assert out.order == order
            assert out.poly == poly_op(x.poly, y.poly).truncated(order)
            px, py = x.as_exact_polynomial(), y.as_exact_polynomial()
            if px is not None and py is not None:
                assert out.as_exact_polynomial() == poly_op(px, py)

    @settings(max_examples=60, deadline=None)
    @given(kernel_jets, st.integers(0, 3), st.integers(0, 1), matrices)
    def test_unary_ops_are_truncated_polynomial_ops(self, x, k, index, matrix):
        (m00, m01), (m10, m11) = matrix
        n1 = Polynomial(T, {(1, 0): m00, (0, 1): m01})
        n2 = Polynomial(T, {(1, 0): m10, (0, 1): m11})
        assert (-x).poly == -x.poly and (-x).order == x.order
        assert (x ** k).poly == (x.poly ** k).truncated(x.order)
        # an exact jet differentiates its polynomial, not the truncation:
        # at order 0 the derivative of t2 is 1, not 0
        px = x.as_exact_polynomial()
        d = x.derivative(index)
        assert d.order == max(x.order - 1, 0)
        assert d.poly == (x.poly if px is None else px).derive(index).truncated(d.order)
        if px is not None:
            assert d.as_exact_polynomial() == px.derive(index)
        s = x.substitute_linear(matrix)
        assert s.order == x.order
        assert s.poly == x.poly.compose([n1, n2]).truncated(x.order)

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(produced_jets, exact_jets), produced_jets, st.integers(1, 4),
           st.integers(0, 1), matrices, st.integers(0, 3))
    def test_results_regenerate_like_their_operands(self, x, y, extra, index, matrix, k):
        n = max(x.order, y.order) + extra
        xn, yn = x.regenerate(n), y.regenerate(n)
        for jet_op, _ in BINARY:
            assert jet_op(x, y).regenerate(n) == jet_op(xn, yn)
        assert (-y).regenerate(n) == -yn
        assert (y ** k).regenerate(n) == yn ** k
        assert y.derivative(index).regenerate(n) == y.regenerate(n + 1).derivative(index)
        assert y.substitute_linear(matrix).regenerate(n) == yn.substitute_linear(matrix)
