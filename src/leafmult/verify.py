"""Randomized verification suites for the multiplicity-transfer lemmas,
plus offline re-verification of emitted traces.

Each suite draws seeded random instances, computes both sides of its
inequality with exact arithmetic, and records any violation verbatim; a
violation is a release blocker, not a tolerance question.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dfield
from fractions import Fraction
from math import inf

from .errors import ParseError
from .ideals import (
    DEGREVLEX,
    LEX,
    IdealPresentation,
    groebner,
    ideal_power,
    leading_monomial,
    leading_term_ideal,
    member,
    multiplicity_zero_dim,
    normal_form,
)
from .jets import Jet2
from .localbasis import local_membership, local_quotient_dimension
from .foliation import MAX_CERT_ORDER
from .manifest import ProblemManifest
from .poly import Polynomial, monomial_divides, parse_polynomial

T = ("t1", "t2")


@dataclass
class SuiteReport:
    suite: str
    cases: int
    violations: list = dfield(default_factory=list)

    def passed(self) -> bool:
        return not self.violations

    def describe(self) -> dict:
        return {"suite": self.suite, "cases": self.cases,
                "violations": self.violations}


def _rng(seed, name: str) -> random.Random:
    return random.Random(f"{seed}|{name}")


def _random_vanishing_poly(rng, ring=T, max_deg=2, terms=2) -> Polynomial:
    acc = {}
    n = len(ring)
    for _ in range(rng.randint(1, terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(n))
        if sum(mono) == 0:
            mono = tuple(1 if i == 0 else 0 for i in range(n))
        acc[mono] = Fraction(rng.randint(-3, 3) or 1)
    return Polynomial(ring, acc)


def _finite_local_ideal(rng):
    """Generators with pure-power anchors so the colength is finite."""
    a = rng.randint(1, 3)
    b = rng.randint(1, 3)
    g1 = Polynomial.monomial(T, (a, 0)) + _random_vanishing_poly(rng) * rng.randint(0, 1)
    g2 = Polynomial.monomial(T, (0, b)) + _random_vanishing_poly(rng) * rng.randint(0, 1)
    return [g1, g2]


def suite_power_lemma(seed, count: int) -> SuiteReport:
    """f^n in K implies mult K <= n * mult <K, f> (local germs)."""
    rng = _rng(seed, "power-lemma")
    report = SuiteReport("power-lemma", count)
    for case in range(count):
        g = _random_vanishing_poly(rng)
        n = rng.randint(1, 3)
        anchors = _finite_local_ideal(rng)
        gens = [g ** n] + anchors
        f = g + sum((Fraction(rng.randint(-2, 2)) * h for h in anchors),
                    Polynomial.zero(T))
        m_k = local_quotient_dimension(gens)
        if m_k is inf:
            continue
        m_ext = local_quotient_dimension(gens + [f])
        if not m_k <= n * m_ext:
            report.violations.append({
                "case": case, "K": [str(p) for p in gens], "f": str(f),
                "n": n, "mult_K": m_k, "mult_ext": m_ext})
    return report


def suite_ideal_power(seed, count: int) -> SuiteReport:
    """K' containing K^n has mult K' <= n^m * mult K (zero-dimensional)."""
    rng = _rng(seed, "ideal-power")
    report = SuiteReport("ideal-power", count)
    for case in range(count):
        m_vars = rng.choice([2, 2, 3])
        ring = ("x", "y", "z")[:m_vars]
        gens = []
        for i in range(m_vars):
            d = rng.randint(1, 2)
            p = Polynomial.monomial(ring, tuple(d if j == i else 0 for j in range(m_vars)))
            if rng.random() < 0.5:
                extra = tuple(rng.randint(0, d - 1) for _ in range(m_vars))
                p = p + Polynomial.monomial(ring, extra, Fraction(rng.randint(-2, 2) or 1))
            gens.append(p)
        K = IdealPresentation(ring, tuple(gens))
        mult_K = multiplicity_zero_dim(K)
        if mult_K is inf:
            continue
        n = rng.randint(1, 3)
        Kn = ideal_power(K, n)
        extras = tuple(g for g in Kn.generators if rng.random() < 0.3)
        K_prime = Kn.extended(extras)
        mult_Kp = multiplicity_zero_dim(K_prime)
        if not mult_Kp <= n ** m_vars * mult_K:
            report.violations.append({
                "case": case, "K": [str(g) for g in K.generators], "n": n,
                "mult_K": mult_K, "mult_Kprime": mult_Kp})
    return report


def suite_lt_facts(seed, count: int) -> SuiteReport:
    """mult K = mult LT(K) for every order tested, and each generator of
    LT(K)^n lies in LT(K^n)."""
    rng = _rng(seed, "lt-facts")
    report = SuiteReport("lt-facts", count)
    for case in range(count):
        gens = []
        for i in range(2):
            d = rng.randint(1, 3)
            p = Polynomial.monomial(T, tuple(d if j == i else 0 for j in range(2)))
            for _ in range(rng.randint(0, 2)):
                extra = (rng.randint(0, d), rng.randint(0, d))
                if sum(extra) < d + (extra[i] == d):
                    p = p + Polynomial.monomial(T, extra, Fraction(rng.randint(-2, 2) or 1))
            gens.append(p)
        K = IdealPresentation(T, tuple(gens))
        mults = set()
        for order in (DEGREVLEX, LEX):
            m = multiplicity_zero_dim(K, order)
            mults.add(m)
            lt = leading_term_ideal(K, order)
            if multiplicity_zero_dim(lt, order) != m:
                report.violations.append({"case": case, "K": [str(g) for g in gens],
                                          "reason": "mult(LT) mismatch"})
        if len(mults) > 1:
            report.violations.append({"case": case, "K": [str(g) for g in gens],
                                      "reason": "order-dependent multiplicity",
                                      "values": sorted(str(m) for m in mults)})
        n = rng.randint(2, 3)
        lt_pow = ideal_power(leading_term_ideal(K, DEGREVLEX), n)
        lt_of_pow = leading_term_ideal(ideal_power(K, n), DEGREVLEX)
        lms = [leading_monomial(h, DEGREVLEX) for h in lt_of_pow.generators]
        for g in lt_pow.generators:
            mg = leading_monomial(g, DEGREVLEX)
            if not any(monomial_divides(lm, mg) for lm in lms):
                report.violations.append({"case": case, "reason": "LT power escape",
                                          "monomial": str(g)})
    return report


def suite_poisson_lemma(seed, count: int) -> SuiteReport:
    """mult K <= mult <K, {f,g}> + 1 for f, g in K, with the leafwise
    bracket realized as the coordinate Jacobian determinant."""
    rng = _rng(seed, "poisson-lemma")
    report = SuiteReport("poisson-lemma", count)
    for case in range(count):
        gens = _finite_local_ideal(rng)
        K = gens
        m_k = local_quotient_dimension(K)
        if m_k is inf:
            continue
        combos = []
        for _ in range(2):
            c = Polynomial.zero(T)
            for g in gens:
                factor = _random_vanishing_poly(rng, max_deg=1, terms=1) \
                    if rng.random() < 0.4 else \
                    Polynomial.constant(T, Fraction(rng.randint(-2, 2)))
                c = c + factor * g
            combos.append(c)
        f, g = combos
        bracket = f.derive(0) * g.derive(1) - f.derive(1) * g.derive(0)
        m_ext = local_quotient_dimension(K + [bracket])
        if not m_k <= m_ext + 1:
            report.violations.append({
                "case": case, "K": [str(p) for p in K],
                "f": str(f), "g": str(g), "bracket": str(bracket),
                "mult_K": m_k, "mult_ext": m_ext})
    return report


SUITES = {
    "power-lemma": suite_power_lemma,
    "ideal-power": suite_ideal_power,
    "lt-facts": suite_lt_facts,
    "poisson-lemma": suite_poisson_lemma,
}


def run_suite(name: str, seed=0, count: int = 100) -> SuiteReport:
    if name not in SUITES:
        raise ParseError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    return SUITES[name](seed, count)


def run_all_suites(seed=0, count: int = 100) -> list:
    return [run_suite(name, seed, count) for name in sorted(SUITES)]


# ---------------------------------------------------------------------------
# trace re-verification
# ---------------------------------------------------------------------------


@dataclass
class TraceCheck:
    step: int
    kind: str
    ok: bool
    detail: str = ""


# Legitimate jacobian evidence has small K and mu (the pipeline searches up
# to K*2^K exponents); the cap keeps a forged trace from asking for 2^huge.
_MAX_EXPONENT = 4096


def _jacobian_scale(ev: dict):
    """The jacobian transfer factor re-derived from its evidence: min(n,
    K*2^K) for a certified exponent n, else K*2^max(K, mu); None when the
    evidence is malformed (multiplicities need 1 <= k <= K)."""
    k, K, mu, n = ev.get("k"), ev.get("K"), ev.get("mu"), ev.get("certified_exponent")
    if not all(isinstance(v, int) for v in (k, K, mu)) \
            or not (1 <= k <= K <= _MAX_EXPONENT and 0 <= mu <= _MAX_EXPONENT):
        return None
    if n is None:
        return K * 2 ** max(K, mu)
    if not isinstance(n, int) or not 1 <= n <= _MAX_EXPONENT:
        return None
    return min(n, K * 2 ** K)


def _typed(value, shape) -> bool:
    """value has the JSON shape: a type or a tuple of types (an int is never
    a bool), a range of ints, [shape] for a list, or a dict of required keys
    and their shapes."""
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(
            key in value and _typed(value[key], inner) for key, inner in shape.items())
    if isinstance(shape, list):
        return isinstance(value, list) and all(_typed(v, shape[0]) for v in value)
    if isinstance(shape, range):
        return _typed(value, int) and value in shape
    return isinstance(value, shape) and not isinstance(value, bool)


# What each step kind's check reads, with its shape; exponents and the local
# order are capped so a forged trace cannot ask for g^huge or for a leaf jet
# of huge order.  The other evidence keys (radical status, worst-case factor,
# basis, removed branches) are informational.
_EXPONENT = range(1, _MAX_EXPONENT + 1)
_ORDER = range(0, MAX_CERT_ORDER + 1)  # a jet order the pipeline can certify at
_STEP = {"transfer": {"scale": int, "offset": int}, "degrees": {"before": int, "after": int}}
_EVIDENCE = {
    "radical": {"generators": [str], "exponents": [_EXPONENT], "weight": int},
    "poisson": {"F": str, "G": str, "bracket": str},
    "jacobian": {"F": str, "k": _EXPONENT, "K": int, "mu": int,
                 "certified_exponent": (int, type(None)), "derivatives": [str],
                 "reduced_factor": str, "local_generators": [str], "local_order": _ORDER},
}
_TRACE = {"manifest": dict, "report": {"inputs": {"F": str, "G": str}, "ledger": {"steps": list}}}


def verify_trace(trace: dict) -> list:
    """Re-check every certificate recorded in a bound trace: membership of
    radical exponents, recomputed brackets, derivative sets and the
    containment of their restrictions in the local ideal, local exponent
    memberships at a local order above the direct value (the bound when it
    is null), every transfer re-derived from its evidence, the soundness of
    each step, the final exclusion of the base point, and the bound against
    the direct value.

    A trace without its manifest, report, inputs or ledger raises
    ParseError; a step with a missing or ill-typed field fails its own
    check."""
    checks: list[TraceCheck] = []
    if not _typed(trace, _TRACE):
        raise ParseError("a trace needs its manifest, and a report with the inputs F and G "
                         "and the ledger steps")
    manifest = ProblemManifest.from_dict(trace["manifest"])
    report = trace["report"]
    inputs = report["inputs"]
    steps = report["ledger"]["steps"]
    excluded_status = report.get("final_status") == "point-excluded"
    direct = report.get("direct_value")
    # a point-excluded trace claims a bound; its local memberships modulo
    # m^{N+1} are exact once N is above the colength of the local ideal,
    # which the direct value caps (pairs module docstring), else the bound
    colength_cap = None
    if excluded_status:
        colength_cap = report.get("bound") if direct is None else direct
    ring = manifest.variables
    ctx = manifest.context()
    F = parse_polynomial(inputs["F"], ring)
    G = parse_polynomial(inputs["G"], ring)
    current = IdealPresentation(ring, (F, G))
    malformed = False
    for idx, step in enumerate(steps):
        kind = step.get("kind") if isinstance(step, dict) else None
        shape = dict(_STEP, evidence=_EVIDENCE[kind]) if kind in _EVIDENCE else None
        if shape is None or not _typed(step, shape):
            detail = "missing or ill-typed step field" if shape else f"unknown step kind {kind}"
            checks.append(TraceCheck(idx, str(kind), False, detail))
            malformed = True
            continue
        ev = step["evidence"]
        if kind == "radical":
            new = IdealPresentation(ring, tuple(parse_polynomial(t, ring)
                                                for t in ev["generators"]))
            gb = groebner(current)
            ok = True
            detail = ""
            for gtext, e in zip(ev["generators"], ev["exponents"]):
                g = parse_polynomial(gtext, ring)
                if not normal_form(g ** e, gb).is_zero():
                    ok, detail = False, f"{gtext}^{e} is not a member"
                    break
            if ok:
                for g in current.generators:
                    if not member(g, new):
                        ok, detail = False, f"lost generator {g}"
                        break
            if ok and len(ev["exponents"]) != len(ev["generators"]):
                ok, detail = False, "exponent count does not match the generators"
            M = ev["weight"]
            if ok and M != sum(e - 1 for e in ev["exponents"]) + 1:
                ok, detail = False, "weight does not match the exponents"
            if ok and step["transfer"] != {"scale": M * M, "offset": 0}:
                ok, detail = False, "transfer does not match the exponent weight"
            checks.append(TraceCheck(idx, kind, ok, detail))
            current = new
        elif kind == "poisson":
            Fp = parse_polynomial(ev["F"], ring)
            Gp = parse_polynomial(ev["G"], ring)
            ok = member(Fp, current) and member(Gp, current)
            detail = "" if ok else "combination is not an ideal member"
            bracket = ctx.poisson(Fp, Gp)
            if ok and str(bracket) != ev["bracket"]:
                ok, detail = False, "bracket mismatch"
            if ok and step["transfer"] != {"scale": 1, "offset": 1}:
                ok, detail = False, "transfer is not m -> m + 1"
            checks.append(TraceCheck(idx, kind, ok, detail))
            if not bracket.is_zero():
                current = current.extended([bracket])
        elif kind == "jacobian":
            Fp = parse_polynomial(ev["F"], ring)
            ok = member(Fp, current)
            detail = "" if ok else "F is not an ideal member"
            k = ev["k"]
            expected = set()
            for a in range(k + 1):
                d = ctx.iterated_derivative(Fp, a, k - a)
                if not d.is_zero() and not member(d, current):
                    expected.add(str(d))
            if ok and expected != set(ev["derivatives"]):
                ok, detail = False, "derivative set mismatch"
            scale = _jacobian_scale(ev)
            if ok and scale is None:
                ok, detail = False, "malformed exponent evidence"
            if ok and step["transfer"] != {"scale": scale, "offset": 0}:
                ok, detail = False, "transfer does not match the exponent evidence"
            n = ev.get("certified_exponent")
            order = ev["local_order"]
            if ok and _typed(colength_cap, int) and order <= colength_cap:
                ok, detail = False, f"local order {order} is not above {colength_cap}"
            if ok:
                local = [Jet2.from_polynomial(parse_polynomial(t, T), order)
                         for t in ev["local_generators"]]
                reduced = Jet2.from_polynomial(
                    parse_polynomial(ev["reduced_factor"], T), order)
                # the step's one containment claim: the derivatives, added
                # globally, restrict into the local ideal with the reduced factor
                for t in ev["derivatives"]:
                    d = ctx.leaf_jet(parse_polynomial(t, ring), order)
                    if not local_membership(d, local + [reduced], order):
                        ok, detail = False, f"restriction of {t} is not in the local ideal"
                        break
            if ok and n is not None:
                if not local_membership(reduced ** n, local, order):
                    ok, detail = False, "certified exponent fails re-verification"
            checks.append(TraceCheck(idx, kind, ok, detail))
            current = current.extended([parse_polynomial(t, ring)
                                        for t in ev["derivatives"]])
        # the pipeline never reports point-excluded through an unsound step
        if excluded_status and checks[-1].ok and step.get("sound") is not True:
            checks[-1] = TraceCheck(idx, kind, False, "step is not marked sound")
    if excluded_status:
        excluded = any(g.evaluate(ctx.point) != 0 for g in current.generators)
        checks.append(TraceCheck(len(checks), "final",
                                 excluded,
                                 "" if excluded else "point not excluded by final ideal"))
        bound = report.get("bound")
        m = None
        if not malformed:
            m = 0
            for step in reversed(steps):
                m = step["transfer"]["scale"] * m + step["transfer"]["offset"]
        if m != bound:
            ok, detail = False, f"recomputed {m} != {bound}"
        elif not _typed(direct, (int, type(None))):
            ok, detail = False, f"malformed direct value {direct!r}"
        elif direct is not None and not bound >= direct:
            ok, detail = False, f"bound {bound} is below the direct value {direct}"
        else:
            ok, detail = True, ""
        checks.append(TraceCheck(len(checks), "bound", ok, detail))
    return checks
