import json
import random
from fractions import Fraction
from math import factorial, inf
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from leafmult.errors import DomainError, HypothesisError
from leafmult.germs import (
    MAX_NP_ORDER,
    MAX_STABILIZATION_ORDER,
    branch_product,
    cycles_on,
    germ_cycles,
    germ_divide,
    germ_divides,
    jet_inverse,
    local_membership,
    local_multiplicity,
    newton_puiseux,
    split_common,
    split_on_variety,
)
from leafmult.foliation import FoliationContext, VectorField
from leafmult.jets import Jet2
from leafmult.poly import Polynomial, normalize_leading, parse_polynomial

T = ("t1", "t2")


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3), max_size=4,
).map(lambda d: Polynomial(T, d))


def J(text, order=12):
    return Jet2.from_polynomial(parse_polynomial(text, T), order)


def transcendental_exp(order=12):
    """e^t1 - 1 as a jet with a producer (a genuinely non-polynomial germ)."""
    def produce(n):
        coeffs = {}
        fact = 1
        for a in range(1, n + 1):
            fact *= a
            coeffs[(a, 0)] = Fraction(1, fact)
        return Jet2(n, coeffs, produce)
    return produce(order)


class TestJetInverse:
    def test_geometric(self):
        inv = jet_inverse(J("1-t1", 6))
        assert all(inv.coefficient(a, 0) == 1 for a in range(7))

    def test_nonunit_rejected(self):
        with pytest.raises(DomainError):
            jet_inverse(J("t1"))

    def test_product_is_one(self):
        j = J("1+2*t1-t2+t1*t2", 8)
        assert (j * jet_inverse(j)).to_polynomial() == Polynomial.constant(T, 1)

    def test_stored_order_caps_a_jet_without_producer(self):
        # 1 + t1 is known only to order 3, so its inverse is too
        inv = jet_inverse(Jet2(3, parse_polynomial("1+t1", T)), 8)
        assert inv.order == 3
        assert inv.to_polynomial() == parse_polynomial("1-t1+t1^2-t1^3", T)


class TestGermDivide:
    def test_exact_polynomial(self):
        q = germ_divide(J("t1^2-t1*t2^2"), J("t1"))
        assert q.to_polynomial() == parse_polynomial("t1-t2^2", T)

    def test_exact_only_when_the_polynomials_divide(self):
        # at order 6 the corner quotient of t1^2*(1+t1^9) by t1^2 is 1,
        # which is not the polynomial quotient: the result stays a jet
        q = germ_divide(J("t1^2*(1+t1^9)", 6), J("t1^2", 6))
        assert q.as_exact_polynomial() is None
        assert q.regenerate(12).to_polynomial() == parse_polynomial("1+t1^9", T)
        q = germ_divide(J("t1^2*(1+t1^3)"), J("t1^2"))
        assert q.as_exact_polynomial() == parse_polynomial("1+t1^3", T)

    def test_unit_divisor(self):
        q = germ_divide(J("t1"), J("1+t1"))
        # t1/(1+t1) = t1 - t1^2 + t1^3 - ...
        assert q.coefficient(1, 0) == 1 and q.coefficient(2, 0) == -1

    def test_exact_jet_by_a_constant_stays_exact(self):
        # a unit divisor goes through corner division like any other: the
        # quotient of an exact jet by a nonzero constant divides exactly, so
        # it keeps the exact tag
        q = germ_divide(J("t1^2 - 3*t2 + 1"), J("-2/3"))
        assert q.as_exact_polynomial() == parse_polynomial("-3/2*t1^2 + 9/2*t2 - 3/2", T)
        assert q.order == 12

    def test_germ_but_not_poly_division(self):
        # t1 + t1^2 = t1 * (1 + t1): divides t1^2 as a germ
        q = germ_divide(J("t1^2"), J("t1+t1^2"))
        assert q is not None
        check = q * J("t1+t1^2")
        assert (check - J("t1^2")).is_zero_up_to(q.order)

    def test_nondivisible(self):
        assert germ_divide(J("t2"), J("t1")) is None
        assert not germ_divides(J("t1+t2^2"), J("t1"))

    def test_cusp_power(self):
        h = J("(t2^2-t1^3)^2", 16)
        hp = J("t2^2-t1^3", 16)
        q = germ_divide(h, hp)
        assert q is not None
        assert (q - hp).is_zero_up_to(10)

    def test_stored_order_caps_a_dividend_without_producer(self):
        # t1*e^t1 is known only to order 6: the quotient by t1 is stated at
        # order 6, not at the order asked for
        a = Jet2(6, {(k + 1, 0): Fraction(1, factorial(k)) for k in range(6)})
        q = germ_divide(a, J("t1"), 10)
        assert q.order == 6
        assert q.to_polynomial() == Polynomial(T, {(k, 0): Fraction(1, factorial(k))
                                                   for k in range(6)})

    @settings(max_examples=150, deadline=None)
    @given(small_polys, small_polys, st.integers(0, 8), st.booleans(), st.booleans())
    # the quotient of an earlier kernel had a stray -9/4*t1^2 from its unit
    @example(parse_polynomial("3/2*t1^3 + 3/2*t1*t2 + t2", T),
             parse_polynomial("1/3*t1^2*t2^2 + 3/2*t1 - 1", T), 2, True, True)
    # a unit divisor
    @example(parse_polynomial("2 + t1 - 1/3*t2^2", T),
             parse_polynomial("t1*t2 - 1/3*t2^2 + t1^3", T), 2, False, True)
    def test_quotient_is_exact_through_n_minus_ord_b(self, b, c, n, exact_a, exact_b):
        # a = b*c: every quotient term is lm(h)/lm(b) with deg lm(h) <= n, so
        # the quotient is c through degree n - ord(b) and zero above
        assume(not b.truncated(n).is_zero())
        a_jet = Jet2.from_polynomial(b * c, n) if exact_a else Jet2(n, b * c)
        b_jet = Jet2.from_polynomial(b, n) if exact_b else Jet2(n, b)
        q = germ_divide(a_jet, b_jet, n)
        if q.as_exact_polynomial() is None:
            ord_b = min(sum(m) for m in b.terms)
            assert q.to_polynomial() == c.truncated(n - ord_b)


class TestLocalMultiplicity:
    def test_catalog(self):
        assert local_multiplicity(J("t1"), J("t2"))[0] == 1
        assert local_multiplicity(J("t1^2"), J("t2^3"))[0] == 6
        assert local_multiplicity(J("t2^2-t1^3"), J("t2"))[0] == 3
        assert local_multiplicity(J("t1-t2^2"), J("t1-2*t2^2"))[0] == 2

    def test_certificates_present(self):
        value, cert = local_multiplicity(J("t1-t2^2"), J("t1-2*t2^2"))
        assert value == 2
        assert cert.holds()
        # m^2 lies in <t1 - t2^2, t1 - 2*t2^2>: every monomial of degree 2
        # is a leading monomial below the corner order
        assert cert.closure == 2 <= cert.order
        assert cert.staircase == ((1, 0), (0, 2))

    def test_unit_gives_zero(self):
        assert local_multiplicity(J("1+t1"), J("t2"))[0] == 0

    def test_common_factor_infinite(self):
        value, why = local_multiplicity(J("t1*(t1-t2^2)"), J("t1*(t1-2*t2^2)"))
        assert value == inf

    def test_symmetric_and_matches_staircase(self):
        rng = random.Random(6)
        pool = ["t1^2-t2^3", "t1*t2-t1^3", "t2^2+t1^2", "t1^3-t2^4", "t1+t2^2"]
        for _ in range(10):
            a, b = rng.sample(pool, 2)
            va, _ = local_multiplicity(J(a), J(b))
            vb, _ = local_multiplicity(J(b), J(a))
            assert va == vb

    def test_additivity(self):
        f = J("t1-t2^3", 16)
        g1 = J("t2-t1^2", 16)
        g2 = J("t2+t1^2", 16)
        m1, _ = local_multiplicity(f, g1)
        m2, _ = local_multiplicity(f, g2)
        m12, _ = local_multiplicity(f, g1 * g2)
        assert m12 == m1 + m2

    def test_transcendental_pair(self):
        f = transcendental_exp(10)
        value, cert = local_multiplicity(f, J("t2", 10))
        assert value == 1


class TestLocalMembership:
    def test_member(self):
        assert local_membership(J("t1^2"), [J("t1"), J("t2")])
        assert local_membership(J("t1"), [J("t1+t1^2")])

    def test_nonmember(self):
        assert not local_membership(J("t2"), [J("t1+t1^2")])
        assert not local_membership(J("t1"), [J("t1^2"), J("t2^2")])

    def test_order_zero_is_an_order(self):
        # t1 lies in (t1^2) + m but not in (t1^2) + m^2
        assert local_membership(J("t1"), [J("t1^2")], 0)
        assert not local_membership(J("t1"), [J("t1^2")], 1)


class TestNewtonPuiseux:
    def test_cusp(self):
        bs = newton_puiseux(J("t2^2-t1^3", 16))
        assert len(bs.cycles) == 1
        c = bs.cycles[0]
        assert c.ram_index == 2 and c.multiplicity == 1
        assert bs.mu == 2

    def test_two_lines(self):
        bs = newton_puiseux(J("t2^2-t1^2", 12))
        assert len(bs.cycles) == 2
        assert all(c.ram_index == 1 and c.multiplicity == 1 for c in bs.cycles)
        assert bs.mu == 2

    def test_double_line(self):
        bs = newton_puiseux(J("t2^2", 12))
        assert len(bs.cycles) == 1
        assert bs.cycles[0].multiplicity == 2
        assert bs.mu == 2

    def test_vertical_branch(self):
        bs = newton_puiseux(J("t1", 8))
        assert len(bs.cycles) == 1
        assert bs.cycles[0].order_at_origin() == 1

    def test_irrational_pair_is_one_cycle(self):
        bs = newton_puiseux(J("t2^2-2*t1^2", 12))
        assert len(bs.cycles) == 1
        assert bs.cycles[0].field_degree == 2
        assert bs.cycles[0].branch_count() == 2

    def test_poly_irreducible_with_two_germ_branches(self):
        bs = newton_puiseux(J("t2^2-t1^2-t1^3", 14))
        assert len(bs.cycles) == 2

    def test_reconstruction_random_products(self):
        rng = random.Random(11)
        pool = [parse_polynomial(t, T) for t in
                ["t1", "t2", "t1-t2^2", "t2-t1^2", "t2^2-t1^3", "t1+t2"]]
        for _ in range(8):
            parts = rng.sample(pool, rng.randint(1, 3))
            p = Polynomial.constant(T, 1)
            for q in parts:
                p = p * q ** rng.randint(1, 2)
            bs = newton_puiseux(Jet2.from_polynomial(p, 18))
            total = sum(c.multiplicity * c.order_at_origin() for c in bs.cycles)
            assert total == bs.mu == p.total_degree() if False else total == bs.mu

    def test_transcendental_smooth_germ(self):
        bs = newton_puiseux(transcendental_exp(10))
        assert len(bs.cycles) == 1
        assert bs.cycles[0].multiplicity == 1
        assert bs.mu == 1


class TestSplitCommon:
    def test_flat_example(self):
        s = split_common(J("t1*(t1-t2^2)", 14), J("t1*(t1-2*t2^2)", 14))
        assert s.h_f.to_polynomial() == parse_polynomial("t1", T)
        assert s.h_g.to_polynomial() == parse_polynomial("t1", T)
        assert s.f.to_polynomial() == parse_polynomial("t1-t2^2", T)
        assert s.g.to_polynomial() == parse_polynomial("t1-2*t2^2", T)

    def test_different_multiplicities(self):
        s = split_common(J("t1^2*t2", 12), J("t1*t2^2", 12))
        assert s.h_f.to_polynomial() == parse_polynomial("t1^2*t2", T)
        assert s.h_g.to_polynomial() == parse_polynomial("t1*t2^2", T)
        assert s.f.is_unit() and s.g.is_unit()

    def test_coprime(self):
        s = split_common(J("t1", 10), J("t2", 10))
        assert s.h_f.is_unit() and s.h_g.is_unit()
        assert s.f.to_polynomial() == parse_polynomial("t1", T)

    def test_contract_products(self):
        fL, gL = J("t1^2*(t1-t2^2)", 16), J("t1*(t1-2*t2^2)", 16)
        s = split_common(fL, gL)
        assert ((s.h_f * s.f) - fL).is_zero_up_to(s.certified_order)
        assert ((s.h_g * s.g) - gL).is_zero_up_to(s.certified_order)
        value, _ = local_multiplicity(s.f, s.g)
        assert value == 2

    def test_transcendental_split(self):
        f = transcendental_exp(12)           # unit * t1
        g = J("t1*(t1-t2^2)", 12)
        s = split_common(f, g)
        # common branch t1 = 0
        assert s.h_f.vanishing_order() == 1
        assert s.h_g.vanishing_order() == 1
        assert s.f.is_unit()
        value, _ = local_multiplicity(s.f, s.g)
        assert value == 0


class TestFactorMultiplicities:
    def test_mixed(self):
        bs = newton_puiseux(J("t1^2*(t1-t2^2)", 14))
        mults = [c.multiplicity for c in bs.cycles]
        assert min(mults) == 1 and max(mults) == 2
        reduced = branch_product(bs.cycles, bs.certified_order, [1] * len(bs.cycles))
        # t1*(t1 - t2^2) with each factor normalized to leading coefficient 1
        assert reduced.to_polynomial() == parse_polynomial("t1*t2^2-t1^2", T)
        assert bs.mu == 3
        assert sum(c.multiplicity * c.branch_count() for c in bs.cycles) == 3

    def test_single_line(self):
        bs = newton_puiseux(J("t1", 8))
        assert [c.multiplicity for c in bs.cycles] == [1]
        reduced = branch_product(bs.cycles, bs.certified_order, [1])
        assert reduced.to_polynomial() == parse_polynomial("t1", T)

    def test_cusp_squared(self):
        h = J("(t2^2-t1^3)^2", 20)
        bs = newton_puiseux(h)
        assert [c.multiplicity for c in bs.cycles] == [2]
        assert bs.mu == 4
        # h divides reduced^K
        reduced = branch_product(bs.cycles, bs.certified_order, [1])
        assert germ_divides(reduced ** 2, h)

    def test_reduced_is_squarefree(self):
        from leafmult.poly import squarefree_part
        bs = newton_puiseux(J("t1^3*t2^2", 12))
        red = branch_product(bs.cycles, bs.certified_order, [1] * len(bs.cycles)).to_polynomial()
        assert squarefree_part(red) == red or \
            squarefree_part(red) == parse_polynomial("t1*t2", T)


class TestBranchProduct:
    def test_exponent_zero_skips_a_cycle(self):
        bs = newton_puiseux(J("t1^2*(t1-t2^2)", 14))
        by_mult = {c.multiplicity: i for i, c in enumerate(bs.cycles)}
        only_t1 = [0] * len(bs.cycles)
        only_t1[by_mult[2]] = 3
        assert branch_product(bs.cycles, 10, only_t1).to_polynomial() == \
            parse_polynomial("t1^3", T)
        assert branch_product(bs.cycles, 10, [0] * len(bs.cycles)).to_polynomial() == \
            parse_polynomial("1", T)

    def test_default_exponents_are_the_multiplicities(self):
        h = J("t1^2*(t1-t2^2)*(t2^2-t1^3)^3", 20)
        bs = newton_puiseux(h)
        mults = [c.multiplicity for c in bs.cycles]
        assert sorted(mults) == [1, 2, 3]
        full = branch_product(bs.cycles, 20)
        assert full.to_polynomial() == branch_product(bs.cycles, 20, mults).to_polynomial()
        # the product reproduces the germ up to a unit
        q = germ_divide(h, full)
        assert q is not None and q.is_unit()


class TestSplitOnVariety:
    def test_cofactor_times_h_is_the_restriction(self):
        fL = J("t1^2*(t1-t2^2)*(t2-t1^2)", 16)
        h, f, cycles = split_on_variety(fL, [J("t1", 16), J("t1*t2", 16)], 16)
        assert [c.factor.to_polynomial() for c in cycles] == [parse_polynomial("t1", T)]
        assert h.to_polynomial() == parse_polynomial("t1^2", T)
        assert ((h * f) - fL).is_zero_up_to(16)
        assert f.to_polynomial() == parse_polynomial("t1*t2-t2^3-t1^3+t1^2*t2^2", T)

    def test_zero_restrictions_do_not_filter(self):
        fL = J("t1*(t1-t2^2)", 12)
        _, _, cycles = split_on_variety(fL, [Jet2.zero(12), J("t1-t2^2", 12)], 12)
        assert [c.factor.to_polynomial() for c in cycles] == \
            [normalize_leading(parse_polynomial("t1-t2^2", T))]

    def test_no_cycle_on_the_trace(self):
        with pytest.raises(HypothesisError):
            split_on_variety(J("t1*(t1-t2^2)", 12), [J("t2", 12)], 12)

    def test_zero_restriction_of_F(self):
        with pytest.raises(HypothesisError):
            split_on_variety(Jet2.zero(12), [J("t1", 12)], 12)

    def test_cycles_on(self):
        bs = newton_puiseux(J("t1*t2*(t1-t2^2)", 14))
        on = cycles_on(bs.cycles, [J("t1*(t1-t2^2)", 14), J("t1^2+t1*t2", 14)])
        assert [c.factor.to_polynomial() for c in on] == [parse_polynomial("t1", T)]
        assert cycles_on(bs.cycles, []) == bs.cycles


class TestOrderCaps:
    def test_exact_jet_above_the_decomposition_cap(self):
        jet = J("t1*(t1-t2^2)", 200)
        assert jet.order > MAX_NP_ORDER
        bs = germ_cycles(jet)
        assert sorted(str(c.factor.to_polynomial()) for c in bs.cycles) == \
            sorted(str(normalize_leading(parse_polynomial(t, T))) for t in ("t1", "t1-t2^2"))
        assert all(c.multiplicity == 1 for c in bs.cycles)

    def test_exact_jets_above_the_stabilization_cap(self):
        f, g = J("t1-t2^2", 200), J("t1-2*t2^2", 200)
        assert f.order > MAX_STABILIZATION_ORDER
        value, cert = local_multiplicity(f, g)
        assert value == 2 and cert.holds()


class TestCrossEngineOracle:
    def test_local_equals_global_when_origin_is_the_only_zero(self):
        # when the pair cuts out exactly the origin, the local quotient
        # dimension agrees with the global staircase count
        from leafmult.ideals import (IdealPresentation, attempt_radical,
                                     multiplicity_zero_dim)
        cases = [
            ("t1", "t2"),
            ("t1^2", "t2^3"),
            ("t1^2-t2^3", "t2^2"),
            ("t1^3", "t1*t2+t2^4"),
        ]
        for ftext, gtext in cases:
            f, g = parse_polynomial(ftext, T), parse_polynomial(gtext, T)
            I = IdealPresentation(T, (f, g))
            rad, _, status = attempt_radical(I)
            assert status == "exact"
            # origin-only: the radical is the maximal ideal
            assert set(str(p) for p in rad.generators) == {"t1", "t2"}
            local, _ = local_multiplicity(Jet2.from_polynomial(f, 16),
                                          Jet2.from_polynomial(g, 16))
            assert local == multiplicity_zero_dim(I), (ftext, gtext)


class TestBranchSubstitution:
    def test_parameterization_annihilates_source(self):
        # substituting a cycle's parameterization into the defining germ
        # gives zero up to the certified order
        from leafmult.germs import germ_cycles
        bs = germ_cycles(J("t2^2-t1^3", 16))
        cyc = bs.cycles[0]
        bp = cyc.param
        assert bp is not None
        K = bp.field
        lam_pow = {0: K.one}
        src = bs.frame.push(bs.source)
        prec = bp.series.prec
        residual = {}
        series_pows = {0: {0: K.one}}

        def series_power(j):
            if j not in series_pows:
                prev = series_power(j - 1)
                out = {}
                for e1, c1 in prev.items():
                    for e2, c2 in bp.series.coeffs:
                        e = e1 + e2
                        if e >= prec:
                            continue
                        out[e] = K.add(out.get(e, K.zero), K.mul(c1, c2))
                series_pows[j] = out
            return series_pows[j]

        for (i, jdeg), c in src.coeffs.items():
            lam_i = lam_pow.setdefault(i, None)
            if lam_i is None:
                lam_i = K.one
                for _ in range(i):
                    lam_i = K.mul(lam_i, bp.lam)
                lam_pow[i] = lam_i
            base = K.mul(K.coerce(c), lam_i)
            for e, v in series_power(jdeg).items():
                s_exp = bp.ram * i + e
                if s_exp >= prec:
                    continue
                residual[s_exp] = K.add(residual.get(s_exp, K.zero), K.mul(base, v))
        assert all(K.is_zero(v) for v in residual.values())


class TestInconclusive:
    def test_producerless_jets_raise_inconclusive(self):
        from leafmult.errors import InconclusiveError
        # staircase cannot fit in the stored order and nothing can regenerate
        bare_f = Jet2(3, {(2, 0): Fraction(1)})
        bare_g = Jet2(3, {(0, 3): Fraction(1)})
        with pytest.raises(InconclusiveError):
            local_multiplicity(bare_f, bare_g)

    def test_infinite_needs_a_matched_branch(self):
        from math import inf
        value, why = local_multiplicity(J("t1*(t1-t2^2)", 16), J("t1*(t1+t2^2)", 16))
        assert value == inf
        assert "t1" in str(why)


class TestExtensionFieldCycles:
    def test_irrational_ramified_cycle(self):
        # (t2^2 - 2 t1^2)^2 + t1^5: a single cycle, ramified and quadratic
        # over the rationals, whose defining polynomial is the source itself
        src = J("(t2^2-2*t1^2)^2 + t1^5", 24)
        bs = newton_puiseux(src)
        assert len(bs.cycles) == 1
        c = bs.cycles[0]
        assert c.ram_index == 2
        assert c.field_degree == 2
        assert c.multiplicity == 1
        assert c.branch_count() == 2
        assert bs.mu == 4


def _expanded_exact_cycles(jet, min_factor_prec=4):
    """The exact path of germ_cycles with every irreducible factor expanded
    by Newton-Puiseux, smooth ones included."""
    from leafmult.germs import (
        _cycles_of_squarefree_ypoly,
        _local_factors,
        choose_frame,
        jet_to_ypoly,
    )
    order = jet.order
    _, local = _local_factors(jet.as_exact_polynomial())
    cycles = []
    for fp, mult in local:
        sub = Jet2.from_polynomial(fp, order)
        frame = choose_frame(sub)
        w = jet_to_ypoly(frame.push(sub).truncate(max(order, fp.total_degree() + min_factor_prec)))
        x_prec = max(min_factor_prec, fp.total_degree() + 4, 8)
        sub_cycles = _cycles_of_squarefree_ypoly(w, frame, x_prec, sub)
        if len(sub_cycles) == 1:
            sub_cycles[0].factor = Jet2.from_polynomial(normalize_leading(fp), order)
        for c in sub_cycles:
            c.multiplicity = mult
        cycles.extend(sub_cycles)
    cycles.sort(key=lambda c: (c.order_at_origin(), str(c.factor.to_polynomial())))
    return cycles


_COEFFS = st.sampled_from([Fraction(n, d) for n, d in ((1, 1), (-1, 1), (2, 1), (-2, 1),
                                                        (1, 2), (-3, 2), (3, 1))])


@st.composite
def _smooth_factor(draw):
    if draw(st.booleans()):
        # v - a*w^k + c*t1*t2
        v, w = draw(st.sampled_from([("t1", "t2"), ("t2", "t1")]))
        a, k = draw(_COEFFS), draw(st.integers(1, 3))
        c = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 3)]))
        return parse_polynomial(f"{v} - ({a})*{w}^{k} + ({c})*t1*t2", T)
    return parse_polynomial(f"t1 + ({draw(_COEFFS)})*t2", T)


_local_factor = st.one_of(_smooth_factor(), st.just(parse_polynomial("t2^2 - t1^3", T)))
_unit = st.sampled_from([parse_polynomial(t, T) for t in ("1", "3", "1 + t1", "2 - t1*t2 + t2^2")])


class TestSmoothFactorShortcut:
    """A smooth exact factor is one cycle without a Newton-Puiseux
    expansion; its parameterization is expanded when first read."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(_local_factor, st.integers(1, 2)), min_size=1, max_size=3),
           _unit)
    def test_matches_the_expansion_of_every_factor(self, factors, unit):
        p = unit
        for fp, e in factors:
            p = p * fp ** e
        jet = Jet2.from_polynomial(p, 16)
        got = germ_cycles(jet).cycles
        want = _expanded_exact_cycles(jet)
        assert len(got) == len(want)
        for c, r in zip(got, want):
            assert c.factor.to_polynomial() == r.factor.to_polynomial()
            assert c.factor.order == r.factor.order
            assert c.multiplicity == r.multiplicity
            assert c.describe() == r.describe()

    def test_expansion_runs_when_the_parameterization_is_read(self, monkeypatch):
        import leafmult.germs as germs
        calls = []
        real = germs.expand

        def counting(w):
            calls.append(w)
            return real(w)

        monkeypatch.setattr(germs, "expand", counting)
        bs = germ_cycles(J("(t1-t2^2)*(t2^2-t1^3)", 16))
        assert len(calls) == 1   # the cusp, which is not smooth
        smooth, = [c for c in bs.cycles if c.order_at_origin() == 1]
        assert smooth.factor.to_polynomial() == normalize_leading(parse_polynomial("t1 - t2^2", T))
        param = smooth.param
        assert len(calls) == 2
        assert smooth.param is param and smooth.ram_index == 1 == smooth.field_degree
        assert len(calls) == 2


class TestBranchSetMemo:
    """germ_cycles keeps its result on the jet, by min_factor_prec; the
    divisors are not part of the key, since they never change the result."""

    def test_second_call_returns_the_same_set(self):
        jet = exponential_leaf().leaf_jet(parse_polynomial("(z-1-y)*x", XYZ), 12)
        bs = germ_cycles(jet)
        assert germ_cycles(jet) is bs
        assert germ_cycles(jet, min_factor_prec=5) is not bs
        fresh = exponential_leaf().leaf_jet(parse_polynomial("(z-1-y)*x", XYZ), 12)
        assert fresh == jet and fresh is not jet
        assert germ_cycles(fresh).describe() == bs.describe()

    def test_exact_jet_with_divisors(self):
        jet = J("t1*(t1-t2^2)*(t2^2-t1^3)", 16)
        bs = germ_cycles(jet, divisors=(parse_polynomial("t1-t2^2", T),))
        assert germ_cycles(jet) is bs
        assert bs.describe() == germ_cycles(J("t1*(t1-t2^2)*(t2^2-t1^3)", 16)).describe()

    def test_a_call_that_raises_raises_again(self):
        from leafmult.errors import InconclusiveError
        jet = Jet2(2, {(2, 0): Fraction(1), (0, 3): Fraction(1)})  # no producer
        for _ in range(2):
            with pytest.raises(InconclusiveError, match="no producer"):
                germ_cycles(jet)
        assert not jet.branch_sets

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(_local_factor, st.integers(1, 2)), min_size=1, max_size=3),
           _unit, st.lists(st.lists(_local_factor, min_size=1, max_size=2), max_size=2))
    def test_divisors_change_the_speed_never_the_result(self, factors, unit, divisors):
        p = unit
        for fp, e in factors:
            p = p * fp ** e
        ds = []
        for group in divisors:
            d = Polynomial.constant(T, 1)
            for fp in group:
                d = d * fp
            ds.append(d)
        with_divisors = germ_cycles(Jet2.from_polynomial(p, 16), divisors=ds)
        assert with_divisors.describe() == germ_cycles(Jet2.from_polynomial(p, 16)).describe()


def _count_factorizations(monkeypatch):
    """The polynomials germs factors over Q from here on."""
    import leafmult.germs as germs
    factored = []
    real = germs._local_factors

    def counting(p, divisors=()):
        factored.append(p)
        return real(p, divisors)

    monkeypatch.setattr(germs, "_local_factors", counting)
    return factored


class TestExactFactorMemo:
    """An exact jet is factored over Q once: split_common and then
    split_on_variety read the factorization kept on the jet, whatever
    divisors each passed."""

    def test_split_then_variety_factor_each_jet_once(self, monkeypatch):
        factored = _count_factorizations(monkeypatch)
        fL, gL = J("t1*(t1-t2^2)", 14), J("t1*(t1-2*t2^2)", 14)
        split_common(fL, gL)
        split_on_variety(fL, [fL, gL], 14)
        split_on_variety(gL, [fL, gL], 14)
        assert factored == [fL.as_exact_polynomial(), gL.as_exact_polynomial()]
        fresh = J("t1*(t1-t2^2)", 14)
        assert germ_cycles(fresh).describe() == germ_cycles(fL).describe()
        assert len(factored) == 3

    @pytest.mark.parametrize("f,g", [
        ("x*(x-y^2)", "x*(x-2*y^2)"),
        ("(y^2-x^3)*(x-1/2*y^3)", "(y^2-x^3)*(x+2/3*y^3)"),
    ])
    def test_one_factorization_per_exact_restriction(self, monkeypatch, f, g):
        from leafmult.pairs import nonisolated_bound
        factored = _count_factorizations(monkeypatch)
        def vf(*texts):
            return VectorField(XYZ, tuple(parse_polynomial(t, XYZ) for t in texts))
        ctx = FoliationContext(vf("1", "0", "0"), vf("0", "1", "0"), (0, 0, 0))
        nonisolated_bound(parse_polynomial(f, XYZ), parse_polynomial(g, XYZ), ctx)
        # the restrictions of F and G, each factored once
        assert len(factored) == len(set(factored)) == 2


PINNED_GERMS = json.loads((Path(__file__).resolve().parent / "data"
                           / "pinned_germ_cycles.json").read_text())
XYZ = ("x", "y", "z")


def exponential_leaf():
    def vf(*texts):
        return VectorField(XYZ, tuple(parse_polynomial(t, XYZ) for t in texts))
    return FoliationContext(vf("1", "0", "z"), vf("0", "1", "0"), (0, 0, 1))


class TestPinnedGermCycles:
    """germ_cycles(...).describe() of restrictions to the exponential leaf,
    pinned from the Fraction series kernel: the restrictions of F and G in
    the transcendental-leaf benchmark inputs of seed 1 at their default jet
    order, and (z-1-y)*x, (z-1-y)*y at orders 12, 24, 48 and 96.  Every
    Puiseux expansion, series product and inverse behind them must give
    the same branches, term for term."""

    @pytest.mark.parametrize("entry", PINNED_GERMS,
                             ids=[f"{e['poly']}@{e['order']}" for e in PINNED_GERMS])
    def test_describe_matches_pin(self, entry):
        jet = exponential_leaf().leaf_jet(parse_polynomial(entry["poly"], XYZ), entry["order"])
        assert germ_cycles(jet).describe() == entry["describe"]
