import itertools
import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from leafmult.errors import BudgetExceededError, DomainError
from leafmult.ideals import (
    _GB_CACHE,
    DEGREVLEX,
    EXPONENT_CAP,
    LEX,
    Budget,
    IdealPresentation,
    MonomialOrder,
    attempt_radical,
    dimension,
    eliminant,
    groebner,
    ideal_power,
    leading_monomial,
    leading_term,
    leading_term_ideal,
    member,
    multiplicity_zero_dim,
    normal_form,
    nullstellensatz_exponent,
    radical_membership,
    reduce_poly,
)
from leafmult.poly import Polynomial, monomial_div, monomial_divides, parse_polynomial

RING = ("x", "y")


def P(text, ring=RING):
    return parse_polynomial(text, ring)


def ideal(*texts, ring=RING):
    return IdealPresentation(ring, tuple(parse_polynomial(t, ring) for t in texts))


class TestOrders:
    def test_degrevlex(self):
        o = DEGREVLEX
        assert o.greater((2, 0), (1, 1))  # x^2 > xy
        assert o.greater((1, 1), (0, 2))  # xy > y^2
        assert o.greater((1, 0), (0, 1))  # x > y
        assert o.greater((0, 1), (0, 0))  # global: 1 smallest

    def test_lex(self):
        assert LEX.greater((1, 0), (0, 5))

    def test_local_one_largest(self):
        o = MonomialOrder("local")
        assert o.greater((0, 0), (1, 0))
        assert o.greater((1, 0), (2, 0))
        assert o.greater((1, 0), (0, 1))

    def test_degrevlex_three_vars(self):
        # classic: x*z vs y^2 under degrevlex with x>y>z
        o = DEGREVLEX
        assert o.greater((0, 2, 0), (1, 0, 1))


def _reference_key(order, mono):
    """MonomialOrder.key as written before it was specialized per order."""
    e = tuple(mono) if order.permutation is None else tuple(mono[i] for i in order.permutation)
    if order.kind == "degrevlex":
        return (sum(e), tuple(-x for x in reversed(e)))
    if order.kind == "lex":
        return e
    return (-sum(e), tuple(-x for x in reversed(e)))


class TestOrderKey:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["degrevlex", "lex", "local"]), st.data())
    def test_key_matches_reference(self, kind, data):
        n = data.draw(st.integers(1, 4))
        perm = data.draw(st.none() | st.permutations(range(n)).map(tuple))
        order = MonomialOrder(kind, perm)
        monos = data.draw(st.lists(st.tuples(*[st.integers(0, 5)] * n),
                                   min_size=1, max_size=6))
        for m in monos:
            assert order.key(m) == _reference_key(order, m)
        # the key function is not part of the order's identity
        assert order == MonomialOrder(kind, perm)
        assert hash(order) == hash(MonomialOrder(kind, perm))

    @pytest.mark.parametrize("kind", ["degrevlex", "lex", "local"])
    def test_heap_key_reverses_key(self, kind):
        # on every permutation of three variables the heap key ranks the
        # monomials of degree below 3 in each variable the other way round
        monos = list(itertools.product(range(3), repeat=3))
        for perm in [None, *itertools.permutations(range(3))]:
            order = MonomialOrder(kind, perm)
            assert sorted(monos, key=order.heap_key) == sorted(monos, key=order.key)[::-1]


def _reference_reduce_poly(f, basis, order, budget):
    """reduce_poly as written before the reduction step was fused."""
    lead = [leading_term(g, order) for g in basis]
    quots = [Polynomial.zero(f.ring) for _ in basis]
    r_terms = {}
    work = f
    while not work.is_zero():
        m, c = leading_term(work, order)
        hit = None
        for i, (lm, lc) in enumerate(lead):
            if monomial_divides(lm, m):
                hit = (i, lm, lc)
                break
        if hit is None:
            r_terms[m] = c
            work = work - Polynomial.monomial(f.ring, m, c)
        else:
            i, lm, lc = hit
            factor = Polynomial.monomial(f.ring, monomial_div(m, lm), c / lc)
            work = work - factor * basis[i]
            quots[i] = quots[i] + factor
            budget.spend(1, "reduction")
    return quots, Polynomial(f.ring, r_terms)


def _ref_reduce_poly(f, basis, order, budget):
    """reduce_poly on Fraction term maps, as it ran before polynomials were
    held as integer numerators: (quotient term maps, remainder term map)."""
    key = order.key
    lead = [(m, g.terms[m]) for g in basis for m in (max(g.terms, key=key),)]
    quots = [{} for _ in basis]
    r_terms = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=key)
        for i, (lm, lc) in enumerate(lead):
            if monomial_divides(lm, m):
                break
        else:
            r_terms[m] = work.pop(m)
            continue
        shift, q = monomial_div(m, lm), work[m] / lc
        for gm, gc in basis[i].terms.items():
            gm = tuple(x + y for x, y in zip(shift, gm))
            s = work.get(gm, 0) - q * gc
            if s:
                work[gm] = s
            else:
                work.pop(gm, None)
        quots[i][shift] = quots[i].get(shift, 0) + q
        budget.spend(1, "reduction")
    return [{m: c for m, c in t.items() if c} for t in quots], r_terms


global_polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               st.fractions(min_value=-3, max_value=3, max_denominator=3),
                               max_size=4).map(lambda d: Polynomial(RING, d))


wide_global_polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                    st.fractions(min_value=-20, max_value=20, max_denominator=12),
                                    max_size=5).map(lambda d: Polynomial(RING, d))


three_variable_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    max_size=4).map(lambda d: Polynomial(("x", "y", "z"), d))
# the orders eliminant builds: the eliminated variable compares last
PERMUTED_ORDERS = [MonomialOrder(kind, tuple(i for i in range(3) if i != var) + (var,))
                   for kind in ("lex", "degrevlex") for var in range(3)]


class TestReducePolyMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(global_polys, st.lists(global_polys.filter(bool), min_size=1, max_size=3),
           st.sampled_from([DEGREVLEX, LEX]))
    def test_same_quotients_remainder_and_steps(self, f, basis, order):
        got_budget, ref_budget = Budget(), Budget()
        got = reduce_poly(f, basis, order, got_budget, with_quotients=True)
        ref = _reference_reduce_poly(f, basis, order, ref_budget)
        assert got == ref
        assert list(got[1].terms) == list(ref[1].terms)
        assert got_budget.used == ref_budget.used

    @settings(max_examples=120, deadline=None)
    @given(three_variable_polys,
           st.lists(three_variable_polys.filter(bool), min_size=1, max_size=3),
           st.sampled_from(PERMUTED_ORDERS))
    def test_permuted_orders_on_three_variables(self, f, basis, order):
        got_budget, ref_budget = Budget(), Budget()
        got = reduce_poly(f, basis, order, got_budget, with_quotients=True)
        ref = _reference_reduce_poly(f, basis, order, ref_budget)
        assert got == ref
        assert list(got[1].terms) == list(ref[1].terms)
        assert got_budget.used == ref_budget.used

    def test_order_key_evaluations_stay_linear_in_the_terms_created(self, monkeypatch):
        # the rejected radical candidate z-1-x-y of this ideal is searched by
        # reducing its powers; a scan for each leading term evaluated the key
        # 427k times on the 16th power, the heap evaluates it about once per
        # term the reduction creates (7.3k for 8.1k terms)
        import leafmult.ideals as ideals
        xyz = ("x", "y", "z")
        gb = groebner(ideal("(z-1-x-y)*(y-x^3)", "(z-1-x-y)*(y+1/2*x^3)", ring=xyz))
        f = P("z-1-x-y", xyz) ** 16
        order = MonomialOrder("degrevlex")
        calls = [0]
        for name in ("key", "heap_key"):
            def counting(m, real=getattr(order, name)):
                calls[0] += 1
                return real(m)
            object.__setattr__(order, name, counting)
        created = [len(f.num)]
        real_cancel = ideals._cancel_lead

        def cancel(work, scale, c, shift, lc, reducer, *args, **kwargs):
            created[0] += len(reducer)
            return real_cancel(work, scale, c, shift, lc, reducer, *args, **kwargs)

        monkeypatch.setattr(ideals, "_cancel_lead", cancel)
        got = reduce_poly(f, gb.basis, order)
        assert created[0] > 5000
        assert calls[0] <= 2 * created[0]
        assert got == normal_form(f, gb)

    @settings(max_examples=120, deadline=None)
    @given(wide_global_polys, st.lists(wide_global_polys.filter(bool), min_size=1, max_size=3),
           st.sampled_from([DEGREVLEX, LEX]), st.booleans())
    def test_fraction_kernel_reference(self, f, basis, order, groebner_basis):
        # the integer kernel scales the working polynomial and takes out its
        # content; the Fraction kernel divides: same remainder, term order,
        # quotients and steps, on a raw list and on a reduced basis
        if groebner_basis:
            basis = list(groebner(IdealPresentation(RING, tuple(basis)), order).basis)
        got_budget, ref_budget = Budget(), Budget()
        quots, rem = reduce_poly(f, basis, order, got_budget, with_quotients=True)
        ref_quots, ref_rem = _ref_reduce_poly(f, basis, order, ref_budget)
        assert rem.terms == ref_rem and list(rem.terms) == list(ref_rem)
        assert [q.terms for q in quots] == ref_quots
        assert got_budget.used == ref_budget.used
        assert reduce_poly(f, basis, order) == rem


class TestGroebner:
    def test_already_basis(self):
        gb = groebner(ideal("x", "y"))
        assert set(gb.basis) == {P("x"), P("y")}

    def test_spair_reduction(self):
        gb = groebner(ideal("x^2+y^2", "x^2-y^2"))
        assert set(gb.basis) == {P("x^2"), P("y^2")}

    def test_unit(self):
        gb = groebner(ideal("1"))
        assert gb.is_unit_ideal()

    def test_deterministic(self):
        a = groebner(ideal("x^2+y^2", "x^2-y^2"))
        b = groebner(IdealPresentation(RING, (P("x^2-y^2"), P("x^2+y^2"))))
        assert a.basis == b.basis

    def test_budget_error_carries_partial(self):
        big = ideal("x^3-2*x*y", "x^2*y-2*y^2+x")
        with pytest.raises(BudgetExceededError) as e:
            groebner(big, DEGREVLEX, Budget(cap=1))
        assert e.value.stage
        gb = groebner(big)
        assert len(gb.basis) >= 2

    def test_local_order_rejected(self):
        with pytest.raises(DomainError):
            groebner(ideal("x"), MonomialOrder("local"))

    def test_stats_count_each_basis_on_a_shared_budget(self):
        first = ideal("x^3-2*x*y", "x^2*y-2*y^2+x")
        second = ideal("x^2+y^2", "x^2-y^2")
        alone = groebner(second, DEGREVLEX, Budget()).stats
        shared = Budget()
        a = groebner(first, DEGREVLEX, shared).stats
        b = groebner(second, DEGREVLEX, shared).stats
        assert a.reductions > 0 and b.reductions > 0
        assert b.reductions == alone.reductions
        assert a.reductions + a.pairs_considered + b.reductions + b.pairs_considered \
            == shared.used


class _StageBudget(Budget):
    """A budget that also counts what it spends per stage."""

    def __init__(self, cap: int = 200_000):
        super().__init__(cap)
        self.by_stage = {}

    def spend(self, n=1, stage=""):
        self.by_stage[stage] = self.by_stage.get(stage, 0) + n
        super().spend(n, stage)


class TestNoFractionViews:
    """Groebner bases, normal forms, standard bases and corner normal forms
    run on integer numerators: none of them builds a polynomial's Fraction
    view (`Polynomial.terms`)."""

    def test_kernels_build_no_fraction_view(self, monkeypatch):
        from leafmult.localbasis import (
            local_quotient_dimension,
            mora_divide,
            mora_normal_form,
            standard_basis,
        )

        T = ("t1", "t2")
        ideals = [ideal("x^2 - 1/3*y", "2/5*x*y^2 - x + 7/4*y"),
                  ideal("3/2*x^3 - y^2", "x*y - 5/6", "1/7*y^3 + x")]
        probes = [P("x^4*y - 2/9*x*y^3 + 1/5"), P("x^3 - 1/3*x*y"), P("0")]
        local = [parse_polynomial(t, T) for t in
                 ("t1^2 - 1/3*t2^3 + 2/5*t1*t2^2", "3/4*t2^2 + t1^3 - 1/6*t1*t2")]
        local_probe = parse_polynomial("t1^4 - 2/7*t2^5 + 3/5*t1*t2", T)
        unit = parse_polynomial("2/3 + t1 - 1/5*t2^2", T)
        original = Polynomial._fraction_view
        built = []

        def counting(p):
            built.append(str(p))
            return original(p)

        # the terms getter builds the view through _fraction_view, once
        monkeypatch.setattr(Polynomial, "_fraction_view", counting)
        _GB_CACHE.clear()
        for I in ideals:
            for order in (DEGREVLEX, LEX):
                gb = groebner(I, order, Budget())
                for f in probes:
                    normal_form(f, gb, Budget())
                    reduce_poly(f, gb.basis, order)
            member(probes[1], I, Budget())
        for n in (3, 6):
            basis = standard_basis(local, n, Budget())
            mora_normal_form(local_probe, basis, n, Budget())
            mora_divide(local_probe, unit, n, Budget())
        # tangent cones t1^2 and t2*(3/4*t2 - 1/6*t1) share no line: 2*2
        assert local_quotient_dimension(local) == 4
        assert built == []
        # the counter sees a build when there is one
        assert P("1/2*x").terms and built == ["1/2*x"]


class TestSharedCache:
    """Budgeted calls read the cache too; a hit charges what the basis cost
    to compute, stage by stage."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(global_polys.filter(bool), min_size=1, max_size=3),
           st.sampled_from([DEGREVLEX, LEX]))
    def test_hit_spends_as_a_cold_computation(self, gens, order):
        I = IdealPresentation(RING, tuple(gens))
        _GB_CACHE.clear()
        cold = _StageBudget()
        gb = groebner(I, order, cold)
        warm = _StageBudget()
        assert groebner(I, order, warm) is gb
        assert warm.used == cold.used
        assert warm.by_stage == cold.by_stage
        for cap in range(cold.used + 2):
            if cap < cold.used:
                with pytest.raises(BudgetExceededError):
                    groebner(I, order, Budget(cap=cap))
            else:
                assert groebner(I, order, Budget(cap=cap)) is gb
        for cap in {max(cold.used - 1, 0), cold.used}:
            _GB_CACHE.clear()
            if cap < cold.used:
                with pytest.raises(BudgetExceededError):
                    groebner(I, order, Budget(cap=cap))
            else:
                assert groebner(I, order, Budget(cap=cap)) == gb

    def test_unbudgeted_hit_is_shared(self):
        _GB_CACHE.clear()
        I = ideal("x^3-2*x*y", "x^2*y-2*y^2+x")
        gb = groebner(I)
        budget = Budget()
        assert groebner(I, DEGREVLEX, budget) is gb
        assert budget.used == gb.stats.pairs_considered + gb.stats.reductions > 0


class TestNormalForm:
    def test_examples(self):
        assert normal_form(P("x^2"), groebner(ideal("x"))).is_zero()
        assert normal_form(P("x+y"), groebner(ideal("x-y"))) == P("2*y")
        assert normal_form(P("1"), groebner(ideal("x", "y"))) == P("1")

    def test_member_iff_certified_combination(self):
        rng = random.Random(5)
        pool = [P("x^2-y"), P("x*y-1"), P("y^3-x")]
        for _ in range(25):
            I = IdealPresentation(RING, tuple(g for g in pool if rng.random() < 0.7) or (pool[0],))
            gb = groebner(I)
            f = sum((g * P(str(rng.randint(-2, 2))) for g in I.generators),
                    Polynomial.zero(RING))
            quots, rem = reduce_poly(f, gb.basis, gb.order, with_quotients=True)
            assert rem.is_zero() == member(f, I)
            recombined = sum((q * b for q, b in zip(quots, gb.basis)), rem)
            assert recombined == f


class TestRadicalMembership:
    def test_examples(self):
        assert radical_membership(P("x"), ideal("x^2"))
        assert not radical_membership(P("y"), ideal("x^2"))
        assert radical_membership(P("x+y"), ideal("x^2", "y^2"))

    def test_binomial_cube_oracle(self):
        f = P("x+y")
        assert member(f ** 3, ideal("x^2", "y^2"))


def _rabinowitsch_membership(f, I, budget=None):
    """radical_membership as a Rabinowitsch basis alone: f in rad(I) iff 1
    in <I, 1 - t*f> in the ring extended by t."""
    if f.is_zero():
        return True
    if I.is_zero_ideal():
        return False
    new_ring = I.ring + ("_t",)
    var_map = list(range(len(I.ring)))
    t = Polynomial.variable(new_ring, len(I.ring))
    trick = IdealPresentation(new_ring, tuple(g.map_ring(new_ring, var_map) for g in I.generators)
                              + (Polynomial.constant(new_ring, 1) - t * f.map_ring(new_ring, var_map),))
    return groebner(trick, DEGREVLEX, budget).is_unit_ideal()


XYZ = ("x", "y", "z")


@st.composite
def _small_poly(draw, variables, max_degree):
    """A polynomial in XYZ on the given variable indices, of total degree at
    most max_degree (zero when max_degree < 0)."""
    monos = [m for m in itertools.product(range(max_degree + 1), repeat=3)
             if sum(m) <= max_degree and all(i in variables for i, e in enumerate(m) if e)]
    if not monos:
        return Polynomial.zero(XYZ)
    terms = draw(st.dictionaries(st.sampled_from(monos), st.integers(-3, 3).filter(bool),
                                 max_size=3))
    return Polynomial(XYZ, terms)


@st.composite
def radical_cases(draw):
    """(f, I): I is zero-dimensional in x, y with z free, or in x, y, z, or
    a few generators over x, y, z with no such structure; in x, y sometimes
    squared (not radical); sometimes made the unit ideal.  f lies in the
    base ideal (so in rad(I)), is arbitrary on the ideal's variables, uses
    z, or is a constant."""
    kind = draw(st.sampled_from(["xy", "xyz", "free"]))
    variables = {"xy": (0, 1), "xyz": (0, 1, 2), "free": (0, 1, 2)}[kind]
    base = []
    if kind == "free":
        base = draw(st.lists(_small_poly(variables, 2), min_size=1, max_size=2))
    else:
        for i in variables:
            d = draw(st.integers(1, 2 if kind == "xyz" else 3))
            pure = Polynomial.monomial(XYZ, tuple(d if j == i else 0 for j in range(3)))
            base.append(pure + draw(_small_poly(variables, d - 1)))
        base += draw(st.lists(_small_poly(variables, 2), max_size=1))
    B = IdealPresentation(XYZ, tuple(base))
    if B.is_zero_ideal():
        B = IdealPresentation(XYZ, (Polynomial.variable(XYZ, 0),))
    I = B
    # squared in three variables or from cubics, the Rabinowitsch basis can
    # take minutes
    if kind == "xy" and B.max_degree() <= 2 and draw(st.booleans()):
        I = ideal_power(B, 2)
    if draw(st.integers(0, 9)) == 0:
        I = I.extended([Polynomial.constant(XYZ, 1)])
    f_kind = draw(st.sampled_from(["member", "any", "uses z", "constant"]))
    if f_kind == "member":
        f = sum((draw(_small_poly(variables, 1)) * g for g in B.generators), Polynomial.zero(XYZ))
    elif f_kind == "any":
        f = draw(_small_poly(variables, 2))
    elif f_kind == "uses z":
        f = draw(_small_poly((0, 1, 2), 2)) + Polynomial.variable(XYZ, 2)
    else:
        f = Polynomial.constant(XYZ, draw(st.integers(-2, 2)))
    return f, I


class TestRadicalMembershipByPower:
    """radical_membership decides in the quotient algebra where the basis
    of I is zero-dimensional in the variables it and f use, with the answer
    of a Rabinowitsch basis; elsewhere it spends what that basis spends."""

    @settings(max_examples=80, deadline=None)
    @given(radical_cases())
    def test_matches_the_rabinowitsch_basis(self, case):
        f, I = case
        _GB_CACHE.clear()
        budget = Budget(cap=10 ** 7)
        got = radical_membership(f, I, budget)
        built_t = any("_t" in key[0].ring for key in _GB_CACHE)
        ref_budget = Budget(cap=10 ** 7)
        assert got == _rabinowitsch_membership(f, I, ref_budget)
        if built_t:
            assert budget.used == ref_budget.used

    @pytest.mark.parametrize("f,gens,expected", [
        ("x+y", ("x^2", "y^2"), True),
        ("x*y-y", ("x^2", "y^3-x*y"), True),
        ("y-1", ("x^2", "y^2"), False),
        ("3", ("x^2", "y^2"), False),
        ("3", ("x^2", "x-1"), True),
    ])
    def test_zero_dimensional_in_its_variables_builds_no_extended_basis(self, f, gens, expected):
        _GB_CACHE.clear()
        assert radical_membership(P(f, XYZ), ideal(*gens, ring=XYZ)) is expected
        assert not any("_t" in key[0].ring for key in _GB_CACHE)

    def test_free_variable_takes_the_rabinowitsch_basis(self):
        _GB_CACHE.clear()
        assert not radical_membership(P("z", XYZ), ideal("x^2", "y^2", ring=XYZ))
        assert any("_t" in key[0].ring for key in _GB_CACHE)

    def test_quotient_charges_the_same_on_a_cold_and_a_warm_cache(self):
        I, f = ideal("x^2", "y^3-x*y", ring=XYZ), P("x*y-y", XYZ)
        _GB_CACHE.clear()
        cold, warm = Budget(), Budget()
        assert radical_membership(f, I, cold)
        assert radical_membership(f, I, warm)
        assert warm.used == cold.used > 0
        with pytest.raises(BudgetExceededError):
            radical_membership(f, I, Budget(cap=cold.used - 1))


class TestLeadingTermIdeal:
    def test_lex_example(self):
        lt = leading_term_ideal(ideal("x+y^2", "y^3"), LEX)
        assert set(lt.generators) == {P("x"), P("y^3")}

    def test_trivial(self):
        assert set(leading_term_ideal(ideal("x", "y")).generators) == {P("x"), P("y")}
        assert set(leading_term_ideal(ideal("x^2-y^2")).generators) == {P("x^2")}


class TestMultiplicity:
    def test_staircase_examples(self):
        assert multiplicity_zero_dim(ideal("x^2", "y^3")) == 6
        assert multiplicity_zero_dim(ideal("x", "y")) == 1
        assert multiplicity_zero_dim(ideal("x^2+y^2", "x^2-y^2")) == 4

    def test_infinite(self):
        assert multiplicity_zero_dim(ideal("x")) == inf

    def test_unit(self):
        assert multiplicity_zero_dim(ideal("1")) == 0

    def test_mult_equals_lt_mult_across_orders(self):
        rng = random.Random(17)
        for _ in range(20):
            I = _random_zero_dim(rng, RING)
            m_drl = multiplicity_zero_dim(I, DEGREVLEX)
            m_lex = multiplicity_zero_dim(I, LEX)
            assert m_drl == m_lex
            lt = leading_term_ideal(I, DEGREVLEX)
            assert multiplicity_zero_dim(lt, DEGREVLEX) == m_drl


class TestIdealPower:
    def test_examples(self):
        sq = ideal_power(ideal("x", "y"), 2)
        assert set(sq.generators) == {P("x^2"), P("x*y"), P("y^2")}
        I = ideal("x^2-y", "y^3")
        assert ideal_power(I, 1) == I
        q = ideal_power(ideal("x^2", "y^2"), 2)
        assert set(q.generators) == {P("x^4"), P("x^2*y^2"), P("y^4")}

    def test_lt_power_inclusion(self):
        # every generator of LT(K)^n is a member of LT(K^n)
        rng = random.Random(23)
        for _ in range(12):
            K = _random_zero_dim(rng, RING)
            for n in (2, 3):
                ltK_n = ideal_power(leading_term_ideal(K), n)
                lt_Kn = leading_term_ideal(ideal_power(K, n))
                for g in ltK_n.generators:
                    m = leading_monomial(g, DEGREVLEX)
                    assert any(
                        all(a <= b for a, b in zip(leading_monomial(h, DEGREVLEX), m))
                        for h in lt_Kn.generators
                    )

    def test_power_multiplicity_lemma(self):
        # K' containing K^n has multiplicity at most n^m * mult(K)
        rng = random.Random(29)
        for _ in range(10):
            m_vars = rng.choice([2, 3])
            ring = ("x", "y", "z")[:m_vars]
            K = _random_zero_dim(rng, ring)
            mult_K = multiplicity_zero_dim(K)
            for n in (2, 3):
                Kn = ideal_power(K, n)
                assert multiplicity_zero_dim(Kn) <= n ** m_vars * mult_K


def _random_zero_dim(rng, ring):
    """Zero-dimensional ideal: pure powers plus random noise below them."""
    gens = []
    n = len(ring)
    for i in range(n):
        d = rng.randint(1, 3)
        mono = tuple(d if j == i else 0 for j in range(n))
        p = Polynomial.monomial(ring, mono)
        for _ in range(rng.randint(0, 2)):
            em = tuple(rng.randint(0, d - 1) for _ in range(n))
            p = p + Polynomial.monomial(ring, em, Fraction(rng.randint(-3, 3)))
        gens.append(p)
    return IdealPresentation(ring, tuple(gens))


class TestDimension:
    def test_examples(self):
        assert dimension(ideal("x")) == 1
        assert dimension(ideal("x", "y")) == 0
        assert dimension(ideal("1")) == -1

    def test_zero_ideal(self):
        assert dimension(IdealPresentation(RING)) == 2


class TestEliminant:
    def test_univariate_extraction(self):
        I = ideal("x^2-y", "y^2-1")
        ex = eliminant(I, 0)
        assert ex is not None and ex.variables_used() == {0}
        assert ex == P("x^4-1")
        ey = eliminant(I, 1)
        assert ey == P("y^2-1")


class TestNullstellensatzExponent:
    def test_search(self):
        assert nullstellensatz_exponent(P("x"), ideal("x^2")) == 2
        assert nullstellensatz_exponent(P("x"), ideal("x^7")) == 7
        assert nullstellensatz_exponent(P("x"), ideal("x")) == 1
        assert nullstellensatz_exponent(P("y"), ideal("x^2")) is None
        assert nullstellensatz_exponent(P("x"), ideal("x^70")) is None


def _doubling_search(g, I, budget=None):
    """nullstellensatz_exponent as it ran before radical_membership decided
    rejected candidates: doubling up to EXPONENT_CAP, then binary refine."""
    if g.is_zero():
        return 1
    if I.is_zero_ideal():
        return None
    gb = groebner(I, DEGREVLEX, budget)
    reduced = {1: normal_form(g, gb, budget)}

    def power_nf(e):
        if e not in reduced:
            half = e // 2
            reduced[e] = normal_form(power_nf(half) * power_nf(e - half), gb, budget)
        return reduced[e]

    e = 1
    while e <= EXPONENT_CAP:
        if power_nf(e).is_zero():
            break
        e *= 2
    else:
        return None
    lo, hi = e // 2, e
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if power_nf(mid).is_zero():
            hi = mid
        else:
            lo = mid
    return hi


@st.composite
def exponent_cases(draw):
    """(g, I) in XYZ.  I is <x^a, y^b> (zero-dimensional in x, y, z free)
    or <x^a, x^(a-1)*y^b> (for a > 1 V(I) is the plane x = 0),
    sometimes with a multiple of a generator added or made the unit ideal.
    g is in rad(I) with a known least exponent (x + c*y against <x^a, y^b>
    needs a + b - 1, up to 9; x*(1 + c*y) against the other needs a), or
    outside it (it moves z, or y where V(I) is a plane, or is a nonzero
    constant)."""
    x, y, z = (Polynomial.variable(XYZ, i) for i in range(3))
    a, b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    c = Polynomial.constant(XYZ, draw(st.sampled_from([1, -2, Fraction(1, 3)])))
    plane = draw(st.booleans())
    gens = [x ** a, x ** (a - 1) * y ** b if plane else y ** b]
    if draw(st.booleans()):
        gens.append(gens[0] * (z + c))
    I = IdealPresentation(XYZ, tuple(gens))
    if draw(st.integers(0, 9)) == 0:
        I = I.extended([Polynomial.constant(XYZ, 1)])
    kind = draw(st.sampled_from(["in radical"] * 3 + ["moves z", "moves y", "constant"]))
    if kind == "in radical":
        g = x * (Polynomial.constant(XYZ, 1) + c * y) if plane else x + c * y
    elif kind == "moves z":
        g = z + c * x
    elif kind == "moves y":
        g = y + c * x * z if plane else y - Polynomial.constant(XYZ, 1)
    else:
        g = c
    return g, I


class TestRadicalPreCheck:
    """nullstellensatz_exponent asks radical_membership before it forms g^8
    and returns None for a candidate outside rad(I): the answer of the
    doubling search up to EXPONENT_CAP, without its powers."""

    @settings(max_examples=100, deadline=5000)
    @given(exponent_cases())
    def test_matches_the_doubling_search(self, case):
        g, I = case
        _GB_CACHE.clear()
        got = nullstellensatz_exponent(g, I, Budget(cap=10 ** 7))
        assert got == _doubling_search(g, I)

    def test_rejected_candidate_forms_no_power_above_the_fourth(self, monkeypatch):
        # the slowest rejected search of a transcendental-leaf pass: the
        # doubling reduced x+y-z+1 to its 64th power (1607 steps)
        import leafmult.ideals as ideals
        I = ideal("x^4 + x^3*y - x^3*z + x^3 + 2*x*y + 2*y^2 - 2*y*z + 2*y",
                  "x^4 + x^3*y - x^3*z + x^3 - x*y - y^2 + y*z - y", ring=XYZ)
        g = P("x+y-z+1", XYZ)
        reduced, decided = [], []
        real_nf, real_rm = ideals.normal_form, ideals.radical_membership

        def counting_nf(f, gb, budget=None):
            reduced.append(f.total_degree())
            return real_nf(f, gb, budget)

        def counting_rm(f, ideal, budget=None):
            decided.append(real_rm(f, ideal, budget))
            return decided[-1]

        monkeypatch.setattr(ideals, "normal_form", counting_nf)
        monkeypatch.setattr(ideals, "radical_membership", counting_rm)
        _GB_CACHE.clear()
        assert nullstellensatz_exponent(g, I, Budget(cap=10 ** 7)) is None
        assert decided == [False]
        # g, g^2 and g^4; the Rabinowitsch basis reduces by reduce_poly
        assert reduced == [1, 2, 4]

    @pytest.mark.parametrize("g,gens,expected", [
        ("x+y", ("x^3", "y^3"), 5),
        ("z", ("x^2", "y^2"), None),
        ("x", ("x^5", "x^4*y"), 5),
    ])
    def test_exhausted_check_falls_back_to_the_search(self, monkeypatch, g, gens, expected):
        # a check that runs out of its own counter decides nothing and is
        # charged nothing: the search alone answers, for what it spends
        import leafmult.ideals as ideals
        g, I = P(g, XYZ), ideal(*gens, ring=XYZ)
        checks = []

        def exhausted(f, ideal, budget=None):
            checks.append(f)
            budget.spend(budget.cap - budget.used + 1, "groebner")

        monkeypatch.setattr(ideals, "radical_membership", exhausted)
        _GB_CACHE.clear()
        budget, ref_budget = Budget(), Budget()
        assert nullstellensatz_exponent(g, I, budget) == expected
        assert checks == [g]
        assert _doubling_search(g, I, ref_budget) == expected
        assert budget.used == ref_budget.used


class TestAttemptRadical:
    def test_principal(self):
        J, cert, status = attempt_radical(ideal("x^2"))
        assert set(J.generators) == {P("x")} and status == "exact"
        assert cert.exponents == (2,)

    def test_zero_dimensional(self):
        J, cert, status = attempt_radical(ideal("x^2", "y^2"))
        assert set(J.generators) == {P("x"), P("y")} and status == "exact"
        assert sorted(cert.exponents) == [2, 2]
        assert cert.max_weight() == 3

    def test_principal_squarefree_part(self):
        J, _, status = attempt_radical(ideal("x^2*(x-y^2)^2"))
        # x*(x - y^2), normalized to leading coefficient 1 under degrevlex
        assert set(J.generators) == {P("x*y^2-x^2")} and status == "exact"

    def test_gcd_closure_case(self):
        # x^2, x*y^2 generate x*<x, y^2>; the radical is <x>
        J, cert, status = attempt_radical(ideal("x^2", "x*y^2"))
        assert set(J.generators) == {P("x")} and status == "exact"

    def test_curve_times_maximal(self):
        ring = ("x", "y", "z")
        I = ideal("x*y^2-x^4", "y^3-x^3*y", ring=ring)
        J, cert, status = attempt_radical(I)
        assert status == "exact"
        assert set(J.generators) == {parse_polynomial("x^3-y^2", ring)}

    def test_inclusions_certified(self):
        rng = random.Random(31)
        for _ in range(10):
            base = _random_zero_dim(rng, RING)
            I = ideal_power(base, rng.choice([1, 2]))
            J, cert, status = attempt_radical(I)
            # I subset J
            for g in I.generators:
                assert member(g, J)
            # J subset rad(I), generator-wise
            for g, e in zip(J.generators, cert.exponents):
                assert member(g ** e, I)
                assert radical_membership(g, I)

    def test_exact_means_membership_equivalence(self):
        rng = random.Random(37)
        I = ideal("x^2", "y^3")
        J, _, status = attempt_radical(I)
        assert status == "exact"
        probes = [P("x"), P("y"), P("x+y"), P("x*y-x"), P("x+1"), P("y^2-2")]
        for f in probes:
            assert radical_membership(f, I) == member(f, J)

    def test_rejected_candidate_searched_once_and_charged_again(self, monkeypatch):
        # z - 1 has no power in I and comes back in every round; its search
        # runs once, and each repeat charges the steps a new search would.
        # The closure (z-1)*<x, y> is certified radical as d*P.  The search
        # of z - 1 ends in radical_membership before its 8th power, and
        # <x, y> is linear, so its radical is not searched (108 steps; 79
        # with the search up to z - 1 to the 64th and that radical)
        import leafmult.ideals as ideals
        xyz = ("x", "y", "z")
        I = ideal("(z-1)*(y-x^2)", "(z-1)*(y+x^2)", ring=xyz)
        calls = []
        real = ideals.nullstellensatz_exponent

        def counting(g, ideal, budget=None):
            calls.append(g)
            return real(g, ideal, budget)

        monkeypatch.setattr(ideals, "nullstellensatz_exponent", counting)
        _GB_CACHE.clear()
        budget = Budget()
        J, cert, status = attempt_radical(I, budget)
        assert budget.used == 108
        assert set(J.generators) == {P("x*z-x", xyz), P("y*z-y", xyz)}
        assert cert.exponents == (2, 1) and status == "exact"
        assert calls.count(P("z-1", xyz)) == 1
        assert len(calls) == len(set(calls))
        for cap in (106, 107):
            with pytest.raises(BudgetExceededError):
                attempt_radical(I, Budget(cap=cap))
        assert attempt_radical(I, Budget(cap=108))[0] == J


class TestRadicalCertificateOfAProduct:
    """J = d*P is certified radical when d is squarefree, P is linear and
    not the unit ideal, and d is not in P.  Each verdict is checked against
    radical_membership: a certified J holds every probe in its radical, and
    each refused J misses a witness that its radical holds."""

    @staticmethod
    def _certified(*gens):
        from leafmult.ideals import _is_certified_radical
        from leafmult.poly import squarefree_part
        return _is_certified_radical(ideal(*gens, ring=XYZ), Budget(), squarefree_part)

    def test_line_times_a_point_is_certified(self):
        J = ideal("(z-1)*x", "(z-1)*y", ring=XYZ)
        assert self._certified("(z-1)*x", "(z-1)*y")
        for probe in ("(z-1)*x", "(z-1)*(x+y)", "x", "z-1", "(z-1)^2*y", "x*y"):
            f = P(probe, XYZ)
            assert radical_membership(f, J) == member(f, J), probe

    @pytest.mark.parametrize("gens,witness", [
        (("x^2", "x*y"), "x"),                        # d in P: not radical
        (("(z-1)^2*x", "(z-1)^2*y"), "(z-1)*x"),      # d not squarefree
        (("(z-1)*x", "(z-1)*y^2"), "(z-1)*y"),        # P not linear
    ])
    def test_refused_products_are_not_radical(self, gens, witness):
        assert not self._certified(*gens)
        f = P(witness, XYZ)
        J = ideal(*gens, ring=XYZ)
        assert radical_membership(f, J) and not member(f, J)

    def test_attempt_radical_reaches_the_product(self):
        I = ideal("(z-1-x-y)*(y-x^3)", "(z-1-x-y)*(y+1/2*x^3)", ring=XYZ)
        J, cert, status = attempt_radical(I)
        assert status == "exact"
        h = P("z-1-x-y", XYZ)
        assert member(h * P("x", XYZ), J) and member(h * P("y", XYZ), J)
        for g, e in zip(J.generators, cert.exponents):
            assert member(g ** e, I)
