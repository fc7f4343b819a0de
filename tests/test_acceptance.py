"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible under pytest -s or in
the captured output summary) and enforces its stated runtime budget with
exact assertions; nothing here is tolerance-calibrated after the fact.
"""

import random
import time
from fractions import Fraction
from math import factorial

import pytest

from leafmult.extension import construct_witness
from leafmult.foliation import FoliationContext, VectorField
from leafmult.germs import local_multiplicity
from leafmult.ideals import IdealPresentation
from leafmult.jets import Jet2
from leafmult.pairs import (
    BoundLedger,
    isolated_locus_reduction,
    make_pair,
    nonisolated_bound,
    verify_pair,
)
from leafmult.poly import Polynomial, parse_polynomial
from leafmult.verify import run_suite

XYZ = ("x", "y", "z")
T = ("t1", "t2")


def P(text, ring=XYZ):
    return parse_polynomial(text, ring)


def vf(*texts, ring=XYZ):
    return VectorField(ring, tuple(parse_polynomial(t, ring) for t in texts))


def flat3():
    return FoliationContext(vf("1", "0", "0"), vf("0", "1", "0"), (0, 0, 0))


def exp_leaf():
    return FoliationContext(vf("1", "0", "z"), vf("0", "1", "0"), (0, 0, 1))


def J(text, order=14):
    return Jet2.from_polynomial(parse_polynomial(text, T), order)


def report_line(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture
def criterion(request):
    """Prints the PASS/FAIL line even when the assertion fails."""
    state = {"ok": False}
    yield state
    number, name = state.get("id", ("?", request.node.name))
    report_line(number, name, state["ok"])


def test_criterion_1_worked_pipeline_e1(criterion):
    criterion["id"] = (1, "worked pipeline example E1")
    t0 = time.monotonic()
    ctx = flat3()
    F, G = P("x*(x-y^2)"), P("x*(x-2*y^2)")
    # independent oracle: eliminate to <t1, t2^2>
    direct, cert = local_multiplicity(J("t1-t2^2"), J("t1-2*t2^2"))
    assert direct == 2
    report = nonisolated_bound(F, G, ctx)
    assert report.ledger.status == "point-excluded"
    assert report.bound is not None and report.bound >= 2
    assert report.direct_value == 2
    jac_steps = [s for s in report.ledger.steps if s.kind == "jacobian"]
    assert len(jac_steps) >= 1
    removed = jac_steps[0].evidence["removed_branches"]
    assert any("t1" == r for r in removed)
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"E1 took {elapsed:.1f}s"
    criterion["ok"] = True


def test_criterion_2_noetherian_leaf_e2(criterion):
    criterion["id"] = (2, "non-algebraic leaf jets and chart invariants")
    ctx = exp_leaf()
    jet = ctx.leaf_jet(P("z"), 12)
    for a in range(13):
        assert jet.coefficient(a, 0) == Fraction(1, factorial(a))
    # 200 randomized morphism/chart cases at exact equality
    rng = random.Random("acceptance-2")
    cases = 0
    while cases < 200:
        f = _random_poly(rng, XYZ)
        g = _random_poly(rng, XYZ)
        if f.is_zero() or g.is_zero():
            continue
        n = rng.randint(1, 8)
        jf, jg = ctx.leaf_jet(f, n), ctx.leaf_jet(g, n)
        assert ctx.leaf_jet(f * g, n) == jf * jg
        assert ctx.leaf_jet(f + g, n) == jf + jg
        assert ctx.leaf_jet(ctx.v1.apply(f), n) == ctx.leaf_jet(f, n + 1).derivative(0)
        assert ctx.leaf_jet(ctx.v2.apply(f), n) == ctx.leaf_jet(f, n + 1).derivative(1)
        cases += 1
    criterion["ok"] = True


def _random_poly(rng, ring, max_deg=2, terms=3):
    acc = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, max_deg) for _ in ring)
        acc[mono] = Fraction(rng.randint(-3, 3))
    return Polynomial(ring, acc)


def test_criterion_3_lemma_suites(criterion):
    criterion["id"] = (3, "randomized lemma suites")
    t0 = time.monotonic()
    for name in ("power-lemma", "ideal-power", "lt-facts", "poisson-lemma"):
        rep = run_suite(name, seed=0, count=100)
        assert rep.passed(), f"{name}: {rep.violations[:3]}"
        assert rep.cases == 100
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"suites took {elapsed:.1f}s"
    criterion["ok"] = True


def test_criterion_4_local_multiplicity_catalog(criterion):
    criterion["id"] = (4, "local multiplicity catalog")
    catalog = [
        ("t1", "t2", 1),
        ("t1^2", "t2^3", 6),
        ("t2^2-t1^3", "t2", 3),
        ("t1-t2^2", "t1-2*t2^2", 2),
    ]
    for ftext, gtext, expected in catalog:
        value, cert = local_multiplicity(J(ftext), J(gtext))
        assert value == expected, (ftext, gtext, value)
        assert cert.holds()
        assert cert.closure <= cert.order
    criterion["ok"] = True


def test_criterion_5_appendix_witnesses(criterion):
    criterion["id"] = (5, "on-leaf witnesses")
    ctx = flat3()
    cases = [
        (P("x*(x-y^2)"), IdealPresentation(XYZ, (P("x"),)), 1, "t1"),
        (P("x^2*(x-y^2)"), IdealPresentation(XYZ, (P("x"),)), 2, "t1^3"),
        (P("(y^2-x^3)*(x-1)"), IdealPresentation(XYZ, (P("y^2-x^3"),)), 2, None),
    ]
    for F, ideal, mu_expected, h_text in cases:
        t0 = time.monotonic()
        w = construct_witness(F, ideal, ctx, order=16)
        assert w.certificate_order >= 16
        assert w.divisibility_checked and w.vanishing_checked
        assert w.mu == mu_expected
        assert len(w.subsets) <= 2 ** w.mu
        if h_text is not None:
            assert w.H.to_polynomial() == parse_polynomial(h_text, T)
        elapsed = time.monotonic() - t0
        assert elapsed < 10, f"witness took {elapsed:.1f}s"
    criterion["ok"] = True


def test_criterion_6_isolated_regression(criterion):
    criterion["id"] = (6, "isolated-case regression")
    ctx = flat3()
    pair = make_pair(IdealPresentation(XYZ, (P("x"), P("y"))),
                     [ctx.leaf_jet(P("x"), 10), ctx.leaf_jet(P("y"), 10)], ctx)
    state, steps, completed = isolated_locus_reduction(pair)
    assert completed
    assert len(steps) <= 2
    assert any(g.is_constant() and not g.is_zero() for g in state.ideal.generators)
    ledger = BoundLedger(steps=list(steps))
    bound = ledger.composed_bound(0)
    assert bound == 1
    direct, _ = local_multiplicity(ctx.leaf_jet(P("x"), 10), ctx.leaf_jet(P("y"), 10))
    assert direct == 1 == bound
    criterion["ok"] = True


def test_criterion_7_soundness_sweep(criterion, returned_pairs):
    criterion["id"] = (7, "soundness sweep over the manifest catalog")
    flat = flat3()
    expl = exp_leaf()
    catalog = [
        (flat, "x*(x-y^2)", "x*(x-2*y^2)", 2),
        (flat, "x", "y", 1),
        (flat, "x-y^2", "y-x^2", 1),
        (flat, "x^2*(x-y^2)", "x*(x-2*y^2)", 2),
        (flat, "x*(x-y^3)", "x*(x+y^3)", 3),
        (flat, "x*(y-x^2)", "x*(y+x^2)", 2),
        (flat, "y*(y-x^2)", "y*(y+x^2)", 2),
        (flat, "(y^2-x^3)*x", "(y^2-x^3)*y", 1),
        (flat, "(x-y^2)*(x-2*y^2)", "(x-y^2)*(x-3*y^2)", 2),
        (expl, "z-1", "y", 1),
        (expl, "z-1", "x+y", 1),
        (flat, "x^2*(x-y^2)", "x^2*(x-2*y^2)", 2),
        (flat, "(y^2-x^3)*(x-y^2)", "(y^2-x^3)*(x-2*y^2)", 2),
        (expl, "(z-1)*(x-y^2)", "(z-1)*(x-2*y^2)", 2),
    ]
    assert len(catalog) >= 10
    for ctx, ftext, gtext, expected in catalog:
        returned_pairs.clear()
        report = nonisolated_bound(P(ftext), P(gtext), ctx)
        assert report.ledger.status == "point-excluded", (ftext, gtext)
        assert report.direct_value == expected, (ftext, gtext, report.direct_value)
        assert report.bound is not None
        assert report.direct_value <= report.bound, (ftext, gtext)
        # only make_pair and the Jacobian step check the pair containment;
        # every pair the pipeline builds satisfies it all the same
        assert len(returned_pairs) >= 3, (ftext, gtext)
        for pair in returned_pairs:
            verify_pair(pair)
    criterion["ok"] = True
