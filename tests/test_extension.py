import pytest

from leafmult.errors import HypothesisError
from leafmult.extension import construct_witness, enumerate_monodromic
from leafmult.foliation import FoliationContext, VectorField
from leafmult.germs import branch_product, germ_cycles, germ_divides
from leafmult.ideals import IdealPresentation
from leafmult.jets import Jet2
from leafmult.poly import parse_polynomial

XYZ = ("x", "y", "z")
T = ("t1", "t2")


def flat3():
    v1 = VectorField(XYZ, tuple(parse_polynomial(t, XYZ) for t in ("1", "0", "0")))
    v2 = VectorField(XYZ, tuple(parse_polynomial(t, XYZ) for t in ("0", "1", "0")))
    return FoliationContext(v1, v2, (0, 0, 0))


def P(text):
    return parse_polynomial(text, XYZ)


def ideal(*texts):
    return IdealPresentation(XYZ, tuple(P(t) for t in texts))


def J(text, order=16):
    return Jet2.from_polynomial(parse_polynomial(text, T), order)


class TestEnumerateMonodromic:
    def test_single_cusp_cycle(self):
        bs = germ_cycles(J("t2^2-t1^3"))
        subsets = enumerate_monodromic(bs.cycles)
        assert len(subsets) == 1
        assert subsets[0].choices == (1,)

    def test_double_branch(self):
        bs = germ_cycles(J("t2^2"))
        subsets = enumerate_monodromic(bs.cycles)
        assert len(subsets) == 2
        assert sorted(s.choices for s in subsets) == [(1,), (2,)]

    def test_two_rational_branches(self):
        bs = germ_cycles(J("t2^2-t1^2"))
        subsets = enumerate_monodromic(bs.cycles)
        assert len(subsets) == 3


class TestConstructProduct:
    def test_full_cusp_cycle(self):
        bs = germ_cycles(J("t2^2-t1^3"))
        subsets = enumerate_monodromic(bs.cycles)
        fs = branch_product(bs.cycles, 12, subsets[0].choices)
        assert fs.to_polynomial() == parse_polynomial("t1^3-t2^2", T)

    def test_single_line(self):
        bs = germ_cycles(J("t2"))
        fs = branch_product(bs.cycles, 8, enumerate_monodromic(bs.cycles)[0].choices)
        assert fs.to_polynomial() == parse_polynomial("t2", T)

    def test_pair_of_lines(self):
        bs = germ_cycles(J("t2^2-t1^2"))
        subsets = enumerate_monodromic(bs.cycles)
        full = [s for s in subsets if s.size() == 2][0]
        fs = branch_product(bs.cycles, 8, full.choices)
        from leafmult.poly import normalize_leading
        assert normalize_leading(fs.to_polynomial()) == \
            normalize_leading(parse_polynomial("t2^2-t1^2", T))

    def test_products_divide_source(self):
        src = J("t1*(t2^2-t1^3)", 18)
        bs = germ_cycles(src)
        for s in enumerate_monodromic(bs.cycles):
            if all(c <= 1 for c in s.choices):
                fs = branch_product(bs.cycles, 12, s.choices)
                assert germ_divides(src, fs)


class TestConstructWitness:
    def test_single_sheet(self):
        ctx = flat3()
        w = construct_witness(P("x*(x-y^2)"), ideal("x"), ctx, order=16)
        assert w.mu == 1
        assert w.H.to_polynomial() == parse_polynomial("t1", T)
        assert w.divisibility_checked and w.vanishing_checked
        assert len(w.subsets) <= 2 ** w.mu

    def test_double_sheet(self):
        ctx = flat3()
        w = construct_witness(P("x^2*(x-y^2)"), ideal("x"), ctx, order=16)
        assert w.mu == 2
        assert w.H.to_polynomial() == parse_polynomial("t1^3", T)
        assert len(w.subsets) == 2

    def test_cusp_curve(self):
        ctx = flat3()
        w = construct_witness(P("(y^2-x^3)*(x-1)"), ideal("y^2-x^3"), ctx, order=16)
        assert w.mu == 2
        from leafmult.poly import normalize_leading
        assert normalize_leading(w.H.to_polynomial()) == \
            normalize_leading(parse_polynomial("t2^2-t1^3", T))
        assert w.divisibility_checked and w.vanishing_checked

    def test_rejects_isolated(self):
        ctx = flat3()
        with pytest.raises(HypothesisError):
            construct_witness(P("x"), ideal("x", "y"), ctx)

    def test_rejects_nonmember(self):
        ctx = flat3()
        with pytest.raises(HypothesisError):
            construct_witness(P("y"), ideal("x"), ctx)

    def test_order_bound(self):
        ctx = flat3()
        w = construct_witness(P("x^2*(x-y^2)"), ideal("x"), ctx, order=16)
        assert (w.H.vanishing_order() or 0) <= 2 ** w.mu * (w.h.vanishing_order() or 0)
