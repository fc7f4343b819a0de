import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from leafmult.errors import HypothesisError, InconclusiveError, RegenerationRequest
from leafmult.foliation import MAX_CERT_ORDER, FoliationContext, VectorField
from leafmult.germs import local_multiplicity
from leafmult.ideals import (
    _GB_CACHE,
    Budget,
    GroebnerBasis,
    IdealPresentation,
    MonomialOrder,
    radical_membership,
)
from leafmult.jets import Jet2
from leafmult.localbasis import corner_member
from leafmult.pairs import (
    TRANSVERSE_RETRIES,
    BoundLedger,
    NoetherianPair,
    PipelineOptions,
    find_transverse_pair,
    isolated_locus_reduction,
    jacobian_extension,
    make_pair,
    nonisolated_bound,
    poisson_extension,
    radical_extension,
)
from leafmult.poly import Polynomial, parse_polynomial

XYZ = ("x", "y", "z")
T = ("t1", "t2")


def flat3():
    v1 = VectorField(XYZ, tuple(parse_polynomial(t, XYZ) for t in ("1", "0", "0")))
    v2 = VectorField(XYZ, tuple(parse_polynomial(t, XYZ) for t in ("0", "1", "0")))
    return FoliationContext(v1, v2, (0, 0, 0))


def exp_leaf():
    v1 = VectorField(XYZ, tuple(parse_polynomial(t, XYZ) for t in ("1", "0", "z")))
    v2 = VectorField(XYZ, tuple(parse_polynomial(t, XYZ) for t in ("0", "1", "0")))
    return FoliationContext(v1, v2, (0, 0, 1))


def P(text, ring=XYZ):
    return parse_polynomial(text, ring)


def ideal(*texts, ring=XYZ):
    return IdealPresentation(ring, tuple(parse_polynomial(t, ring) for t in texts))


def J(text, order=14):
    return Jet2.from_polynomial(parse_polynomial(text, T), order)


class TestMakePair:
    def test_restriction_pair(self):
        ctx = flat3()
        F, G = P("x*(x-y^2)"), P("x*(x-2*y^2)")
        pair = make_pair(ideal("x*(x-y^2)", "x*(x-2*y^2)"),
                         [ctx.leaf_jet(F, 12), ctx.leaf_jet(G, 12)], ctx)
        assert pair.cert_order == 12

    def test_rejects_non_containment(self):
        ctx = flat3()
        with pytest.raises(HypothesisError) as e:
            make_pair(ideal("x"), [J("t1^2")], ctx)
        assert e.value.witness == P("x")

    def test_zero_ideal_always_valid(self):
        ctx = flat3()
        pair = make_pair(IdealPresentation(XYZ), [J("t1^5")], ctx)
        assert pair.ideal.is_zero_ideal()


class TestRadicalExtension:
    def test_principal_square(self):
        ctx = flat3()
        pair = make_pair(ideal("x^2"), [ctx.leaf_jet(P("x^2"), 10)], ctx)
        out, step = radical_extension(pair)
        assert set(out.ideal.generators) == {P("x")}
        assert step.transfer == (4, 0)
        assert step.evidence["exponents"] == [2]
        assert out.radical_exact

    def test_identity_is_elided(self):
        ctx = flat3()
        pair = make_pair(ideal("x"), [ctx.leaf_jet(P("x"), 10)], ctx)
        out, step = radical_extension(pair)
        assert step is None
        assert out.radical_exact

    def test_two_squares(self):
        ctx = flat3()
        pair = make_pair(ideal("x^2", "y^2"),
                         [ctx.leaf_jet(P("x^2"), 10), ctx.leaf_jet(P("y^2"), 10)], ctx)
        out, step = radical_extension(pair)
        assert set(out.ideal.generators) == {P("x"), P("y")}
        assert step.transfer == (9, 0)
        assert step.evidence["weight"] == 3


class TestPoissonExtension:
    def test_coordinates_give_unit(self):
        ctx = flat3()
        pair = make_pair(ideal("x", "y"),
                         [ctx.leaf_jet(P("x"), 10), ctx.leaf_jet(P("y"), 10)], ctx)
        out, step = poisson_extension(pair, P("x"), P("y"))
        assert step.transfer == (1, 1)
        assert any(g.is_constant() for g in out.ideal.generators)

    def test_self_bracket_is_zero(self):
        ctx = flat3()
        pair = make_pair(ideal("x", "y"),
                         [ctx.leaf_jet(P("x"), 10), ctx.leaf_jet(P("y"), 10)], ctx)
        out, step = poisson_extension(pair, P("x"), P("x"))
        assert step.evidence["bracket"] == "0"
        assert set(out.ideal.generators) == set(pair.ideal.generators)

    def test_squares_bracket(self):
        ctx = flat3()
        pair = make_pair(ideal("x^2", "y^2"),
                         [ctx.leaf_jet(P("x^2"), 10), ctx.leaf_jet(P("y^2"), 10)], ctx)
        out, step = poisson_extension(pair, P("x^2"), P("y^2"))
        assert step.evidence["bracket"] == "4*x*y"
        jets = [j.to_polynomial() for j in out.local_gens]
        assert parse_polynomial("4*t1*t2", T) in jets
        # numerical check of the bracket transfer on this example:
        # mult<t1^2, t2^2> = 4 <= mult<t1^2, t2^2, 4 t1 t2> + 1 = 3 + 1
        m_before, _ = local_multiplicity(J("t1^2"), J("t2^2"))
        assert m_before == 4

    def test_membership_required(self):
        ctx = flat3()
        pair = make_pair(ideal("x"), [ctx.leaf_jet(P("x"), 10)], ctx)
        with pytest.raises(HypothesisError):
            poisson_extension(pair, P("y"), P("x"))


class TestFindTransversePair:
    def test_maximal_ideal(self):
        ctx = flat3()
        pair = make_pair(ideal("x", "y"),
                         [ctx.leaf_jet(P("x"), 10), ctx.leaf_jet(P("y"), 10)], ctx)
        found = find_transverse_pair(pair)
        assert found is not None

    def test_single_sheet_has_none(self):
        ctx = flat3()
        pair = make_pair(ideal("x"), [ctx.leaf_jet(P("x"), 10)], ctx)
        assert find_transverse_pair(pair) is None

    def test_two_parabolas(self):
        ctx = flat3()
        pair = make_pair(ideal("x-y^2", "y-x^2"),
                         [ctx.leaf_jet(P("x-y^2"), 10), ctx.leaf_jet(P("y-x^2"), 10)],
                         ctx)
        assert find_transverse_pair(pair) is not None


def _reference_transverse_pair(pair, options=PipelineOptions(), salt=0, budget=None):
    """The transverse search with no answer known in advance: every draw's
    bracket from poisson, every decision from a Rabinowitsch basis."""
    gens = pair.ideal.generators
    rng = options.rng_for("transverse", salt)
    for _ in range(TRANSVERSE_RETRIES):
        a = [Fraction(rng.randint(-3, 3)) for _ in gens]
        b = [Fraction(rng.randint(-3, 3)) for _ in gens]
        F = sum((c * g for c, g in zip(a, gens)), Polynomial.zero(pair.ideal.ring))
        G = sum((c * g for c, g in zip(b, gens)), Polynomial.zero(pair.ideal.ring))
        if F.is_zero() or G.is_zero():
            continue
        bracket = pair.ctx.poisson(F, G)
        if bracket.is_zero():
            continue
        if not radical_membership(bracket, pair.ideal, budget):
            return F, G
    return None


@st.composite
def transverse_cases(draw):
    """(ctx, ideal, salt): 1-4 small generators on the flat or the
    exponential leaf, half the time shifted to vanish at the base point."""
    ctx = draw(st.sampled_from([flat3, exp_leaf]))()
    mono = st.tuples(*[st.integers(0, 2)] * 3).filter(lambda m: sum(m) <= 2)
    coeff = st.integers(-2, 2).filter(bool)
    gen = st.dictionaries(mono, coeff, min_size=1, max_size=3).map(lambda d: Polynomial(XYZ, d))
    gens = draw(st.lists(gen, min_size=1, max_size=4))
    if draw(st.booleans()):
        gens = [g - g.evaluate(ctx.point) for g in gens]
    ideal_ = IdealPresentation(XYZ, tuple(gens))
    assume(not ideal_.is_zero_ideal())
    return ctx, ideal_, draw(st.integers(0, 3))


def _count_decisions(monkeypatch):
    """Count poisson and radical_membership calls from here on."""
    import leafmult.pairs as pairs
    calls = {"poisson": 0, "radical_membership": 0}
    poisson, membership = FoliationContext.poisson, pairs.radical_membership

    def counted_poisson(ctx, f, g):
        calls["poisson"] += 1
        return poisson(ctx, f, g)

    def counted_membership(*args, **kwargs):
        calls["radical_membership"] += 1
        return membership(*args, **kwargs)

    monkeypatch.setattr(FoliationContext, "poisson", counted_poisson)
    monkeypatch.setattr(pairs, "radical_membership", counted_membership)
    return calls


class TestTransverseShortcuts:
    """find_transverse_pair returns what the search without shortcuts
    returns, and skips the work whose answer it knows."""

    @settings(max_examples=40, deadline=None)
    @given(transverse_cases())
    def test_matches_the_reference(self, case):
        ctx, ideal_, salt = case
        pair = NoetherianPair(ideal_, (), ctx, 8)
        options = PipelineOptions(seed=salt)
        assert find_transverse_pair(pair, options, salt) == \
            _reference_transverse_pair(pair, options, salt)

    @pytest.mark.parametrize("leaf", [flat3, exp_leaf])
    def test_one_generator_computes_no_bracket(self, monkeypatch, leaf):
        calls = _count_decisions(monkeypatch)
        pair = NoetherianPair(ideal("x*(x-y^2)"), (), leaf(), 8)
        assert find_transverse_pair(pair) is None
        assert calls == {"poisson": 0, "radical_membership": 0}

    def test_bracket_nonzero_at_the_point_needs_no_basis(self, monkeypatch):
        calls = _count_decisions(monkeypatch)
        pair = NoetherianPair(ideal("x-y^2", "y-x^2"), (), flat3(), 8)
        found = find_transverse_pair(pair)
        assert calls["radical_membership"] == 0
        assert found is not None and found == _reference_transverse_pair(pair)

    def test_ideal_excluding_the_point_still_decides_by_basis(self, monkeypatch):
        calls = _count_decisions(monkeypatch)
        # V(x-1, y) misses p = 0, so a bracket nonzero at p proves nothing
        pair = NoetherianPair(ideal("x-1", "y"), (), flat3(), 8)
        assert pair.point_excluded()
        assert find_transverse_pair(pair) is not None
        assert calls["radical_membership"] >= 1

    def test_budget_of_a_bracket_decided_at_the_point(self):
        _GB_CACHE.clear()
        budget = Budget(cap=10 ** 7)
        report = nonisolated_bound(P("x-y^2"), P("y-x^2"), flat3(), budget=budget)
        assert report.bound == 1
        # deciding the bracket 1 - 4*x*y by a Rabinowitsch basis spends 56;
        # the local basis closes at degree 1 and is lowered there, so its
        # one pair and two corner steps are no longer spent
        assert budget.used == 32


class TestBracketsDecidedInTheQuotient:
    """On these inputs the radical ideals of the chain are zero-dimensional
    in x, y with z free, so every transverse check is decided by a power of
    the bracket modulo the basis, and no basis is built with the extra
    variable _t of the Rabinowitsch trick."""

    @pytest.mark.parametrize("f,g", [
        ("(y^2-x^3)*(x-y^2)", "(y^2-x^3)*(x-2*y^2)"),
        ("(y^2-x^3)*(x-1/2*y^3)", "(y^2-x^3)*(x+2/3*y^3)"),
    ])
    def test_no_extended_basis(self, monkeypatch, f, g):
        calls = _count_decisions(monkeypatch)
        _GB_CACHE.clear()
        nonisolated_bound(P(f), P(g), flat3())
        assert calls["radical_membership"] >= 1
        assert not any("_t" in key[0].ring for key in _GB_CACHE)

    def test_budget_of_brackets_decided_by_a_power(self):
        _GB_CACHE.clear()
        budget = Budget(cap=10 ** 7)
        report = nonisolated_bound(P("(y^2-x^3)*(x-1/2*y^3)"), P("(y^2-x^3)*(x+2/3*y^3)"),
                                   flat3(), budget=budget)
        assert report.direct_value == 3
        assert not any("_t" in key[0].ring for key in _GB_CACHE)
        # deciding its brackets by Rabinowitsch bases spent 670; rejecting
        # radical candidates in the quotient before their 8th power, where
        # the search went on to the 64th, adds 24 to the 542 it spent then;
        # lowering its closed local corners saves 4 (562).  Reading the
        # round's staircase and the closure's basis without charging them
        # again, dividing J/d on the reduced basis and searching each
        # candidate of a round once saves 146
        assert budget.used == 416


class TestNoRabinowitschOrLexBasis:
    """On the exponential-leaf catalog case every radical decision is made
    in the quotient by a degrevlex basis: radical membership splits off
    common factors and reads curves such as <z - 1, y^2 - x> as free
    modules over their free variable, and eliminants come from normal
    forms.  So no basis is built with the extra variable _t of the
    Rabinowitsch trick, and none under lex."""

    def test_catalog_case(self, monkeypatch):
        calls = _count_decisions(monkeypatch)
        _GB_CACHE.clear()
        report = nonisolated_bound(P("(z-1)*(x-y^2)"), P("(z-1)*(x-2*y^2)"), exp_leaf())
        assert (report.bound, report.direct_value) == (36, 2)
        assert calls["radical_membership"] >= 1
        assert not any("_t" in key[0].ring for key in _GB_CACHE)
        assert {order.kind for _, order in _GB_CACHE} == {"degrevlex"}


class TestOncePerCase:
    """The radical layer computes each squarefree part, gcd and eliminant
    once per case, in a table that `_GB_CACHE.clear()` empties.  So a case
    run twice, with the cache cleared and a fresh context in between,
    computes the same ones and spends the same budget both times, and the
    cache's items are still the Groebner bases."""

    def test_second_run_computes_the_same(self, monkeypatch):
        import leafmult.ideals as ideals
        computed = {"squarefree_part": [], "poly_gcd": [], "eliminant": []}
        for name, seen in computed.items():
            def counting(*args, real=getattr(ideals, name), seen=seen):
                seen.append(args[:2])  # (p,), (a, b) or (gb, var)
                return real(*args)
            monkeypatch.setattr(ideals, name, counting)
        runs = []
        for _ in range(2):
            _GB_CACHE.clear()
            budget = Budget(cap=10 ** 7)
            report = nonisolated_bound(P("(z-1)*(x-y^2)"), P("(z-1)*(x-2*y^2)"), exp_leaf(),
                                       budget=budget)
            runs.append(({name: len(seen) for name, seen in computed.items()},
                         budget.used, report.bound))
            for seen in computed.values():
                assert len(seen) == len(set(seen))
                seen.clear()
            assert all(isinstance(J, IdealPresentation) and isinstance(order, MonomialOrder)
                       and isinstance(gb, GroebnerBasis) for (J, order), gb in _GB_CACHE.items())
        assert runs[0] == runs[1]
        assert all(runs[0][0].values())


@st.composite
def generator_probes(draw):
    """(local generators, order, probe): the probe is a nonzero rational
    multiple of one generator, or has its support with coefficients
    scaled term by term."""
    mono = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda m: 0 < sum(m) <= 3)
    coeff = st.integers(-3, 3).filter(bool)
    leaf_poly = st.dictionaries(mono, coeff, min_size=1, max_size=3).map(
        lambda d: Polynomial(T, d))
    order = draw(st.integers(4, 8))
    gens = tuple(Jet2.from_polynomial(p, order)
                 for p in draw(st.lists(leaf_poly, min_size=1, max_size=3)))
    c = draw(st.fractions(-5, 5, max_denominator=4).filter(bool))
    probe = draw(st.sampled_from(gens)) * c
    if draw(st.booleans()):
        scaled = {m: v * (k + 1) for k, (m, v) in enumerate(sorted(probe.poly.terms.items()))}
        probe = Jet2.from_polynomial(Polynomial(T, scaled), order)
    return gens, order, probe


class TestGeneratorMultiples:
    """A multiple of a local generator is a local member without a standard
    basis; every other probe goes through Mora."""

    @pytest.mark.parametrize("c", [-1, Fraction(1, 3), 7])
    def test_multiples_need_no_basis(self, c):
        ctx = flat3()
        gens = (J("t1-t2^2"), J("t1^2-2*t2^3"))
        pair = NoetherianPair(ideal("x-y^2"), gens, ctx, 14)
        assert all(pair.local_member(g * c) for g in gens)
        assert not ctx._bases

    @settings(max_examples=40, deadline=None)
    @given(generator_probes())
    def test_agrees_with_corner_member(self, case):
        gens, order, probe = case
        pair = NoetherianPair(IdealPresentation(XYZ), gens, flat3(), order)
        assert pair.local_member(probe) == \
            corner_member(probe, pair.local_basis(), pair.cert_order)

    def test_other_probes_go_through_mora(self, monkeypatch):
        import leafmult.pairs as pairs
        calls = []
        monkeypatch.setattr(pairs, "corner_member",
                            lambda *args: calls.append(args) or corner_member(*args))
        ctx = flat3()
        pair = NoetherianPair(ideal("x-y^2"), (J("t1-t2^2"),), ctx, 14)
        # same support, coefficients not proportional
        assert not pair.local_member(J("t1-2*t2^2"))
        assert len(calls) == 1 and ctx._bases
        # a multiple of a generator at its stored order 10 that regenerates,
        # at the certificate order 14, to a germ outside the local ideal
        germ = parse_polynomial("2*t1^2-2*t2^3+t2^11", T)
        probe = Jet2(10, parse_polynomial("2*t1^2-2*t2^3", T),
                     producer=lambda n: Jet2.from_polynomial(germ, n))
        pair = NoetherianPair(ideal("x^2-y^3"), (J("t1^2-t2^3", order=10),), ctx, 14)
        assert not pair.local_member(probe)
        assert len(calls) == 2


class TestIsolatedLocusReduction:
    def test_transversal_point(self):
        ctx = flat3()
        pair = make_pair(ideal("x", "y"),
                         [ctx.leaf_jet(P("x"), 10), ctx.leaf_jet(P("y"), 10)], ctx)
        out, steps, completed = isolated_locus_reduction(pair)
        assert completed
        assert len(steps) <= 2
        assert out.point_excluded()
        ledger = BoundLedger(steps=list(steps))
        assert ledger.composed_bound(0) == 1

    def test_nonisolated_sheet_stops_immediately(self):
        ctx = flat3()
        pair = make_pair(ideal("x"), [ctx.leaf_jet(P("x"), 10)], ctx)
        out, steps, completed = isolated_locus_reduction(pair)
        assert completed and steps == []
        assert out.nonisolated_certified

    def test_square_sheet_one_radical_step(self):
        ctx = flat3()
        pair = make_pair(ideal("x^2"), [ctx.leaf_jet(P("x^2"), 10)], ctx)
        out, steps, completed = isolated_locus_reduction(pair)
        assert completed
        assert [s.kind for s in steps] == ["radical"]
        assert set(out.ideal.generators) == {P("x")}


class TestJacobianExtension:
    def _nonisolated_state(self):
        ctx = flat3()
        F, G = P("x*(x-y^2)"), P("x*(x-2*y^2)")
        fL = ctx.leaf_jet(F, 14)
        gL = ctx.leaf_jet(G, 14)
        from leafmult.germs import split_common
        s = split_common(fL, gL)
        pair = make_pair(ideal("x*(x-y^2)", "x*(x-2*y^2)"), [s.f, s.g], ctx)
        state, steps, completed = isolated_locus_reduction(pair)
        assert completed and state.radical_exact and state.nonisolated_certified
        return ctx, state, F

    def test_flat_model_example(self):
        ctx, state, F = self._nonisolated_state()
        assert set(state.ideal.generators) == {P("x")}
        out, step = jacobian_extension(state, F)
        ev = step.evidence
        assert ev["k"] == 1 and ev["K"] == 1 and ev["mu"] == 1
        assert ev["worst_case_factor"] == 2
        assert ev["certified_exponent"] == 1
        assert step.transfer == (1, 0)
        assert P("2*x-y^2") in set(out.ideal.generators) or \
            any("y^2" in str(g) for g in out.ideal.generators)
        # variety strictly shrinks: x stays, y^2 appears
        from leafmult.ideals import dimension
        assert dimension(out.ideal) < dimension(state.ideal)

    def test_requires_radical(self):
        ctx = flat3()
        F = P("x^2")
        pair = make_pair(ideal("x^2"), [ctx.leaf_jet(F, 10)], ctx)
        pair.nonisolated_certified = True
        with pytest.raises(HypothesisError):
            jacobian_extension(pair, F)

    def test_worst_case_factor_formula(self):
        # single squarefree branch: K=1 -> paper factor 2; h = t1^2: K=2 -> 8
        assert 1 * 2 ** 1 == 2
        assert 2 * 2 ** 2 == 8


class TestNonisolatedBound:
    def test_flat_pipeline_e1(self):
        ctx = flat3()
        report = nonisolated_bound(P("x*(x-y^2)"), P("x*(x-2*y^2)"), ctx)
        assert report.ledger.status == "point-excluded"
        assert report.direct_value == 2
        assert report.bound is not None and report.bound >= 2
        kinds = [s.kind for s in report.ledger.steps]
        assert "jacobian" in kinds

    def test_isolated_fallback(self):
        ctx = flat3()
        report = nonisolated_bound(P("x"), P("y"), ctx)
        assert report.ledger.status == "point-excluded"
        assert report.bound == 1
        assert report.direct_value == 1
        assert all(s.kind != "jacobian" for s in report.ledger.steps)

    def test_equal_inputs_rejected(self):
        ctx = flat3()
        with pytest.raises(HypothesisError):
            nonisolated_bound(P("x*(x-y^2)"), P("x*(x-y^2)"), ctx)

    def test_soundness_on_catalog(self):
        ctx = flat3()
        cases = [
            ("x*(x-y^2)", "x*(x-2*y^2)", 2),
            ("x^2*(x-y^2)", "x*(x-2*y^2)", 2),
            ("x*(x-y^3)", "x*(x+y^3)", 3),
            ("x*(y-x^2)", "x*(y+x^2)", 2),
            ("y*(y-x^2)", "y*(y+x^2)", 2),
        ]
        for ftext, gtext, expected in cases:
            report = nonisolated_bound(P(ftext), P(gtext), ctx)
            assert report.ledger.status == "point-excluded", (ftext, gtext)
            assert report.direct_value == expected, (ftext, gtext)
            assert report.bound >= expected

    def test_exponential_leaf_isolated(self):
        ctx = exp_leaf()
        report = nonisolated_bound(P("z-1"), P("y"), ctx)
        assert report.ledger.status == "point-excluded"
        assert report.bound == 1
        assert report.direct_value == 1

    def test_double_sheet_and_cusp_branches(self):
        ctx = flat3()
        rep = nonisolated_bound(P("x^2*(x-y^2)"), P("x^2*(x-2*y^2)"), ctx)
        assert rep.ledger.status == "point-excluded"
        assert rep.direct_value == 2 and rep.bound >= 2
        jac = [s for s in rep.ledger.steps if s.kind == "jacobian"]
        assert jac and jac[0].evidence["K"] == 2
        rep2 = nonisolated_bound(P("(y^2-x^3)*(x-y^2)"), P("(y^2-x^3)*(x-2*y^2)"), ctx)
        assert rep2.ledger.status == "point-excluded"
        assert rep2.direct_value == 2 and rep2.bound >= 2

    def test_transcendental_common_branch(self):
        ctx = exp_leaf()
        rep = nonisolated_bound(P("(z-1)*(x-y^2)"), P("(z-1)*(x-2*y^2)"), ctx)
        assert rep.ledger.status == "point-excluded"
        assert rep.direct_value == 2
        assert rep.bound >= 2
        assert any(s.kind == "jacobian" for s in rep.ledger.steps)

    def test_transcendental_parabolas_within_the_corner(self):
        # local membership is decided modulo m^{N+1}; computed past the
        # certified order N, one normal form of this case ran for minutes
        ctx = exp_leaf()
        start = time.monotonic()
        rep = nonisolated_bound(P("(z-1)*(y-x^2)"), P("(z-1)*(y+x^2)"), ctx)
        assert time.monotonic() - start < 30
        assert rep.ledger.status == "point-excluded"
        assert (rep.direct_value, rep.bound) == (2, 20)

    def test_direct_value_is_charged_to_the_budget(self, monkeypatch):
        import leafmult.pairs as pairs
        calls = []
        real = pairs.local_multiplicity

        def recording(f, g, budget=None):
            before = budget.used
            out = real(f, g, budget)
            calls.append((budget, budget.used - before))
            return out

        monkeypatch.setattr(pairs, "local_multiplicity", recording)
        budget = Budget(cap=1_000_000)
        nonisolated_bound(P("x*(x-y^2)"), P("x*(x-2*y^2)"), flat3(), budget=budget)
        assert calls and all(b is budget and spent > 0 for b, spent in calls)

    def test_trace_structure(self):
        ctx = flat3()
        report = nonisolated_bound(P("x*(x-y^2)"), P("x*(x-2*y^2)"), ctx)
        data = report.describe()
        assert data["final_status"] == "point-excluded"
        assert data["ledger"]["steps"]
        assert "split" in data


def _steps(report):
    return [(s.kind, *s.transfer) for s in report.ledger.steps]


R, JAC, PO = "radical", "jacobian", "poisson"


class TestCertificateOrder:
    """The certificate order comes from the direct value: one run at the
    default jet order certifies bounds far above it (pairs module
    docstring)."""

    @pytest.mark.parametrize("leaf, f, g, bound, steps", [
        (flat3, "(y^2-x^3)*(x-y)", "(y^2-x^3)*(x+3*y)", 320,
         [(R, 4, 0), (JAC, 1, 0), (R, 16, 0), (PO, 1, 1), (R, 4, 0), (PO, 1, 1), (R, 1, 0)]),
        (flat3, "(y^2-x^3)*(y-x^3)", "(y^2-x^3)*(y+2/3*x^3)", 180,
         [(R, 4, 0), (JAC, 1, 0), (R, 9, 0), (PO, 1, 1), (R, 4, 0), (PO, 1, 1), (R, 1, 0)]),
        (exp_leaf, "(z-1)*(x-y^3)", "(z-1)*(x+y^3)", 189,
         [(R, 9, 0), (PO, 1, 1), (R, 4, 0), (JAC, 1, 0), (R, 1, 0), (PO, 1, 1), (R, 4, 0),
          (PO, 1, 1), (R, 1, 0)]),
    ])
    def test_one_run_at_the_default_order(self, monkeypatch, leaf, f, g, bound, steps):
        import leafmult.pairs as pairs
        orders = []
        real = pairs._nonisolated_bound_once

        def spy(F, G, ctx, order, *rest):
            orders.append(order)
            return real(F, G, ctx, order, *rest)

        monkeypatch.setattr(pairs, "_nonisolated_bound_once", spy)
        ctx = leaf()
        F, G = P(f), P(g)
        report = nonisolated_bound(F, G, ctx)
        assert orders == [ctx.default_jet_order(F, G)]
        assert report.trace["jet_order"] == ctx.default_jet_order(F, G)
        assert report.ledger.status == "point-excluded"
        assert report.bound == bound
        assert _steps(report) == steps

    def test_bound_stands_in_for_an_unknown_direct_value(self, monkeypatch):
        import leafmult.pairs as pairs

        def inconclusive(f, g, budget=None):
            raise InconclusiveError("no direct value")

        monkeypatch.setattr(pairs, "local_multiplicity", inconclusive)
        report = nonisolated_bound(P("x*(x-y^2)"), P("x*(x-2*y^2)"), flat3())
        assert report.ledger.status == "point-excluded"
        assert report.direct_value is None
        # order 16 is not above the bound 16, so the run is redone at 32
        assert (report.bound, report.trace["jet_order"]) == (16, 32)

    def test_no_run_above_the_certificate_order_cap(self, monkeypatch):
        import leafmult.pairs as pairs
        orders = []
        real = pairs._nonisolated_bound_once

        def spy(F, G, ctx, order, *rest):
            orders.append(order)
            return real(F, G, ctx, order, *rest)

        def regenerate(F, G, ctx, order, *rest):
            orders.append(order)
            raise RegenerationRequest(MAX_CERT_ORDER + 1)

        F, G = P("x*(x-y^2)"), P("x*(x-2*y^2)")
        monkeypatch.setattr(pairs, "_nonisolated_bound_once", spy)
        at_cap = PipelineOptions(jet_order=MAX_CERT_ORDER)
        assert nonisolated_bound(F, G, flat3(), at_cap).bound == 16
        with pytest.raises(InconclusiveError, match="certificate order cap"):
            nonisolated_bound(F, G, flat3(), PipelineOptions(jet_order=MAX_CERT_ORDER + 1))
        monkeypatch.setattr(pairs, "_nonisolated_bound_once", regenerate)
        with pytest.raises(InconclusiveError, match="certificate order cap"):
            nonisolated_bound(F, G, flat3())
        assert max(orders) == MAX_CERT_ORDER


def _without_timings(data):
    if isinstance(data, dict):
        return {k: _without_timings(v) for k, v in data.items() if k != "timings"}
    if isinstance(data, list):
        return [_without_timings(v) for v in data]
    return data


class TestBudgetedRunsShareTheCache:
    """A budgeted pipeline reads the Groebner cache like an unbudgeted one:
    on a cold and then a warm cache it reports what the unbudgeted run
    reports and spends the same steps."""

    @pytest.mark.parametrize("leaf,f,g", [
        (flat3, "x*(x-y^2)", "x*(x-2*y^2)"),
        (exp_leaf, "(z-1)*(x-y^2)", "(z-1)*(x-2*y^2)"),
    ])
    def test_cold_then_warm(self, leaf, f, g):
        _GB_CACHE.clear()
        reports, used = [], []
        for _ in range(2):
            budget = Budget(cap=10 ** 7)
            reports.append(_without_timings(
                nonisolated_bound(P(f), P(g), leaf(), budget=budget).describe()))
            used.append(budget.used)
        plain = _without_timings(nonisolated_bound(P(f), P(g), leaf()).describe())
        assert reports == [plain, plain]
        assert used[0] == used[1] > 0


def _jacobian_evidence(report):
    return [r["step"]["evidence"] for r in report.trace["rounds"] if r["stage"] == "jacobian"]


class TestBranchSplits:
    def test_e1_split_and_jacobian_evidence(self):
        report = nonisolated_bound(P("x*(x-y^2)"), P("x*(x-2*y^2)"), flat3())
        split = report.trace["split"]
        assert (split["h_f"], split["h_g"], split["f"], split["g"]) == \
            ("t1", "t1", "-t2^2 + t1", "-2*t2^2 + t1")
        [ev] = _jacobian_evidence(report)
        assert ev["reduced_factor"] == "t1"
        assert ev["local_generators"] == ["-t2^2 + t1", "-2*t2^2 + t1", "t1"]
        assert ev["removed_branches"] == ["t1"]

    def test_pair_split_on_variety(self):
        ctx, state, F = TestJacobianExtension()._nonisolated_state()
        assert [j.to_polynomial() for j in state.restrictions()] == \
            [ctx.leaf_jet(g, state.cert_order).to_polynomial() for g in state.ideal.generators]
        h, f, cycles = state.split_on_variety(F)
        assert h.to_polynomial() == parse_polynomial("t1", T)
        assert f.to_polynomial() == parse_polynomial("t1-t2^2", T)
        assert [c.multiplicity for c in cycles] == [1]

    # On the exponential leaf (z = e^t1) the branch t1 = 0 is shared, but
    # no global factor of F and G carries it: split_common finds it by
    # matching Puiseux cycles of the two restrictions.
    def test_common_line_not_a_global_factor(self):
        report = nonisolated_bound(P("x*y"), P("(z-1)*(y-x)"), exp_leaf())
        assert report.ledger.status == "point-excluded"
        assert report.bound == 234
        assert report.direct_value == 1        # I(t2, t2 - t1) = 1
        assert report.trace["split"]["h_f"] == "t1"
        assert report.trace["split"]["h_g"] == "-t1"
        assert _steps(report) == [("radical", 9, 0), ("poisson", 1, 1), ("radical", 25, 0),
                                  ("jacobian", 1, 0), ("poisson", 1, 1), ("radical", 1, 0)]
        [ev] = _jacobian_evidence(report)
        assert ev["removed_branches"] == ["t1"]

    def test_common_line_with_parabola_cofactors(self):
        report = nonisolated_bound(P("x*(y-x^2)"), P("(z-1)*(y+x^2)"), exp_leaf())
        assert report.ledger.status == "point-excluded"
        assert report.bound == 528
        assert report.direct_value == 2        # I(t2 - t1^2, t2 + t1^2) = 2
        assert report.trace["split"]["h_f"] == "t1"
        assert _steps(report) == [
            ("radical", 16, 0), ("poisson", 1, 1), ("radical", 16, 0), ("poisson", 1, 1),
            ("radical", 1, 0), ("jacobian", 1, 0), ("radical", 1, 0), ("poisson", 1, 1),
            ("radical", 1, 0)]


# Exponential-leaf shapes that raised "cycle could not be re-identified" or
# ended with no direct value while common branches came from matched
# Puiseux cycles, with their direct values
GLOBAL_SPLIT_SHAPES = [
    ("(z-1)*(y-2*x^3)", "(z-1)*(y-3*x^3)", 3),
    ("(z-1)^2*(x-y^2)", "(z-1)*(x-2*y^2)", 2),
    ("(z-1-y)*(x-y^3)", "(z-1-y)*(x-2*y^3)", 3),
    ("(z-1-x-y)*(x-1/2*y^3)", "(z-1-x-y)*(x+y^3)", 3),
    ("(z-1-y)^2*(x-y)", "(z-1-y)*(x+y)", 1),
    ("(z-1-y)*x", "(z-1-y)*y", 1),
]
COFACTOR_PARAMETERS = [Fraction(n, d) * s for n, d in ((1, 1), (2, 1), (1, 2), (3, 2))
                       for s in (1, -1)]


@st.composite
def common_factor_draws(draw):
    """(e*h*f, h*g, k) on the exponential leaf: h a global factor through the
    base point, f = v - a*w^k and g = v - b*w^k with a != b, so the
    multiplicity left after h is taken out is k.  When h is a power of z-1,
    e may be x or x+z-1, a factor of one side only on the branch of h."""
    h = draw(st.sampled_from(["z-1", "z-1-y", "z-1-x-y", "(z-1)^2", "(z-1-y)^2"]))
    e = draw(st.sampled_from(["1", "x", "x+z-1"])) if h in ("z-1", "(z-1)^2") else "1"
    v, w = draw(st.sampled_from([("x", "y"), ("y", "x")]))
    k = draw(st.integers(1, 3))
    a, b = draw(st.lists(st.sampled_from(COFACTOR_PARAMETERS), min_size=2, max_size=2,
                         unique=True))
    return f"({e})*({h})*({v}-({a})*{w}^{k})", f"({h})*({v}-({b})*{w}^{k})", k


class TestGlobalFirstSplits:
    """On the exponential leaf the common branches and the variety-trace
    branches come from the global factors of F and G."""

    def test_two_factors_on_one_branch_are_one_cycle(self):
        # x and z-1 both restrict to t1 times a unit: as two cycles of
        # multiplicity 1 the Jacobian step removes neither branch
        report = nonisolated_bound(P("x*(z-1)*(y-x^2)"), P("x*(z-1)*(y+x^2)"), exp_leaf())
        assert report.ledger.status == "point-excluded"
        assert (report.direct_value, report.bound) == (2, 162)
        [ev] = _jacobian_evidence(report)
        assert (ev["k"], ev["K"], ev["reduced_factor"]) == (2, 2, "t1")

    @pytest.mark.parametrize("f,g,direct,bound", [
        ("x*(z-1)", "x*y", 0, 1),
        ("x*(z-1)*(y-x^2)", "x*(y+x^2)", 2, 17),
        ("x^2*(z-1)", "(z-1)*y", 0, 4),
    ])
    def test_factor_on_a_common_branch_goes_with_it(self, f, g, direct, bound):
        # a factor of one side only whose restriction is a unit times that
        # of a common factor (x and z-1, both t1 times a unit) is on a
        # common branch: the split is the jet-level one
        from leafmult.germs import germ_divides, split_common, split_common_global
        ctx, order = exp_leaf(), 16
        F, G = P(f), P(g)
        fL, gL = ctx.leaf_jet(F, order), ctx.leaf_jet(G, order)
        got = split_common_global(F, G, fL, gL, lambda p: ctx.leaf_jet(p, order), ctx.point)
        want = split_common(fL, gL)
        # split_common's quotients are right only below the order less
        # that of the divisor (germ_divide), so compare at a lower order
        for name in ("h_f", "h_g", "f", "g"):
            a, b = getattr(got, name), getattr(want, name)
            assert germ_divides(a, b, order - 4) and germ_divides(b, a, order - 4), name
        report = nonisolated_bound(F, G, ctx)
        assert report.ledger.status == "point-excluded"
        assert (report.direct_value, report.bound) == (direct, bound)

    @pytest.mark.parametrize("f,g,direct", GLOBAL_SPLIT_SHAPES,
                             ids=[f"{f}|{g}" for f, g, _ in GLOBAL_SPLIT_SHAPES])
    def test_shapes_end_point_excluded(self, f, g, direct):
        report = nonisolated_bound(P(f), P(g), exp_leaf())
        assert report.ledger.status == "point-excluded"
        assert report.direct_value == direct
        assert report.bound >= direct

    def test_local_generators_are_restricted_cofactors(self):
        ctx = exp_leaf()
        report = nonisolated_bound(P("(z-1-y)*(x-y^3)"), P("(z-1-y)*(x-2*y^3)"), ctx)
        # poly.factor gives the factor y-z+1, so the cofactors are -(x-y^3)
        # and -(x-2*y^3)
        split = report.trace["split"]
        assert (split["f"], split["g"]) == ("t2^3 - t1", "2*t2^3 - t1")
        order = report.trace["jet_order"]
        assert split["h_f"] == str(ctx.leaf_jet(P("y-z+1"), order).to_polynomial())

    def test_variety_split_from_global_factors(self):
        from leafmult.germs import split_on_variety_global
        ctx, order = exp_leaf(), 16
        F, G = P("(z-1-y)*(x-y^2)"), P("(z-1-y)*(x-2*y^2)")
        restrict = lambda p: ctx.leaf_jet(p, order)
        h, f, cycles = split_on_variety_global(F, restrict, ctx.point,
                                               [restrict(F), restrict(G)], order)
        assert h == restrict(P("y-z+1")) and f == restrict(P("y^2-x"))
        [cycle] = cycles
        assert cycle.multiplicity == 1
        # the Weierstrass polynomial t2 - (e^t1 - 1), read as one smooth branch
        assert cycle.factor.to_polynomial() == \
            (Jet2.from_polynomial(parse_polynomial("t2", T), order)
             - restrict(P("z-1"))).to_polynomial()
        described = cycle.describe()
        assert (described["ramification_index"], described["field_degree"]) == (1, 1)

    @settings(max_examples=20, deadline=10000)
    @given(common_factor_draws())
    def test_direct_value_and_bound_on_common_factor_draws(self, case):
        f, g, k = case
        report = nonisolated_bound(P(f), P(g), exp_leaf())
        assert report.ledger.status == "point-excluded"
        assert report.direct_value == k
        assert report.bound >= k


class TestChainInvariants:
    def test_monotone_chain_and_pair_preservation(self, returned_pairs):
        self._check_chain(returned_pairs, flat3(), "x*(x-y^2)", "x*(x-2*y^2)", 14)

    def test_monotone_chain_on_the_exponential_leaf(self, returned_pairs):
        self._check_chain(returned_pairs, exp_leaf(), "(z-1)*(x-y^2)", "(z-1)*(x-2*y^2)", 16)

    @staticmethod
    def _check_chain(chain, ctx, f, g, order):
        # every produced chain is increasing on both sides: old global
        # generators stay members, old local generators stay in the new
        # local ideal
        import leafmult.pairs as pairs
        from leafmult.germs import local_membership, split_common
        from leafmult.ideals import member
        F, G = P(f), P(g)
        s = split_common(ctx.leaf_jet(F, order), ctx.leaf_jet(G, order))
        state = pairs.make_pair(IdealPresentation(XYZ, (F, G)), [s.f, s.g], ctx)
        state, _, _ = isolated_locus_reduction(state)
        state, step = pairs.jacobian_extension(state, F)
        isolated_locus_reduction(state)
        assert len(chain) >= 5
        # the Jacobian pair, which appends the reduced factor locally, is
        # recorded, so the checks below cover the step on both sides
        assert any(pair is state for pair in chain)
        assert str(state.local_gens[-1].to_polynomial()) == step.evidence["reduced_factor"]
        for pair in chain:
            # the radical and Poisson steps no longer check this themselves
            pairs.verify_pair(pair)
        for before, after in zip(chain, chain[1:]):
            # the premise of the certificate order (pairs module docstring):
            # a step only appends local generators
            assert after.local_gens[:len(before.local_gens)] == before.local_gens
            for g in before.ideal.generators:
                assert member(g, after.ideal), (str(g), str(after.ideal))
            for jet in before.local_gens:
                assert local_membership(jet, after.local_gens, before.cert_order)


class TestLocalBasisMemo:
    def test_shared_within_a_context_only(self, monkeypatch):
        import leafmult.localbasis as localbasis
        computed = []
        real = localbasis.standard_basis

        def counting(polys, **kwargs):
            computed.append(polys)
            return real(polys, **kwargs)

        monkeypatch.setattr(localbasis, "standard_basis", counting)
        gens = (J("t1-t2^2"), J("t1-2*t2^2"))
        ctx = flat3()
        a = NoetherianPair(ideal("x-y^2", "x-2*y^2"), gens, ctx, 14)
        b = NoetherianPair(ideal("x-y^2", "x-2*y^2", "x^2"), gens, ctx, 14)
        basis = a.local_basis()
        assert b.local_basis() is basis
        assert len(computed) == 1
        # the same generators in another order, or repeated, share the basis
        permuted = NoetherianPair(ideal("x-y^2", "x-2*y^2"), gens[::-1] + gens[:1], ctx, 14)
        assert permuted.local_basis() is basis
        assert len(computed) == 1
        # another truncation order is another ideal
        lower = NoetherianPair(ideal("x-y^2", "x-2*y^2"), gens, ctx, 10)
        assert lower.local_basis() is not basis
        assert len(computed) == 2
        # immutable, so no pair can corrupt the basis it shares
        assert isinstance(basis, tuple)
        fresh = NoetherianPair(ideal("x-y^2", "x-2*y^2"), gens, flat3(), 14)
        assert fresh.local_basis() == basis
        assert fresh.local_basis() is not basis
        assert len(computed) == 3


def _pinned(name):
    return json.loads((Path(__file__).resolve().parent / "data" / name).read_text())


def _pinned_output(entry, ctx):
    """nonisolated_bound in a fresh context with a cold Groebner cache: the
    report without its timings, or the exception type and text."""
    _GB_CACHE.clear()
    try:
        report = nonisolated_bound(P(entry["f"]), P(entry["g"]), ctx).describe()
    except Exception as e:
        got = {"error": [type(e).__name__, str(e)]}
    else:
        report.pop("timings")
        got = {"report": json.loads(json.dumps(report))}
    return {"f": entry["f"], "g": entry["g"], **got}


PINNED_OUTPUTS = _pinned("pinned_transcendental_outputs.json")
PINNED_EXACT_OUTPUTS = _pinned("pinned_exact_outputs.json")


class TestPinnedTranscendentalOutputs:
    """The 14 exponential-leaf inputs of the transcendental-leaf benchmark
    workload, seed 1, give the pinned outputs.  These runs decompose the
    same leaf jet more than once and search the same rejected radical
    candidate in several rounds."""

    @pytest.mark.parametrize("entry", PINNED_OUTPUTS,
                             ids=[f"{e['f']}|{e['g']}" for e in PINNED_OUTPUTS])
    def test_output_matches_pin(self, entry):
        assert _pinned_output(entry, exp_leaf()) == entry


class TestPinnedExactOutputs:
    """The 47 flat-leaf inputs of the exact-leaf benchmark workload, seed 1,
    give the pinned outputs.  Their transverse searches run on one-generator
    ideals and on brackets decided at the base point, and their pairs test
    multiples of their own local generators."""

    @pytest.mark.parametrize("entry", PINNED_EXACT_OUTPUTS,
                             ids=[f"{e['f']}|{e['g']}" for e in PINNED_EXACT_OUTPUTS])
    def test_output_matches_pin(self, entry):
        assert _pinned_output(entry, flat3()) == entry
