"""Noetherian pairs and the multiplicity-bound pipeline.

A pair couples a global polynomial ideal I with a local ideal of leaf
germs containing I's restriction.  Three extensions (radical, Poisson
bracket, Jacobian) each enlarge the pair while transferring a multiplicity
bound backwards through an affine map m -> a*m + b; once some global
generator is nonzero at the base point the local multiplicity at the end
of the chain is zero and the composed maps bound the original one.

The pair containment I|_L in the local ideal holds by construction after
a radical or Poisson step: restriction to the leaf is a ring homomorphism,
each step appends the restrictions of its new global generators, and no
local generator is dropped.  The Jacobian step adds F's derivatives
globally but only the reduced factor locally, so it checks containment
for the new generators; make_pair checks it for all of them.  Every step
records the evidence behind its transfer factors, so a trace can be
re-checked offline.

Local membership is decided modulo m^{N+1} at the certificate order N,
and it is exact once N reaches the colength of the local ideal
(Greuel-Pfister, A Singular Introduction to Commutative Algebra, 6.4: an
ideal of colength mu contains m^mu).  One order serves the whole chain:
- the radical, Poisson and Jacobian steps only append to the local
  generators, so the local ideals of the chain increase;
- the first local ideal is (f, g), or (fL, gL) on the isolated path,
  where h_f is a unit; its colength is the direct value d;
- so every local ideal of the chain has colength mu <= d and contains
  m^d, and membership modulo m^{N+1} is exact once N >= d.
A run certifies at order N > d, or N > bound when the direct value is
unknown, and otherwise reruns at the order it needs, up to MAX_CERT_ORDER.

Four decisions are made without computing a new basis:
- a transverse search finds nothing when the pairwise brackets of the
  generators all vanish, since the bracket is bilinear and antisymmetric;
- a bracket nonzero at the base point p lies outside rad(I) when every
  generator of I vanishes at p, since rad(I) vanishes on V(I);
- a bracket is decided in the quotient by the reduced basis of I
  (ideals.radical_membership): a common factor d of the basis is split
  off, since rad(I) = rad(d) ∩ rad(I/d), and when the leading monomials
  have a pure power of each of their variables, with staircase count D,
  the bracket lies in rad(I) iff the D-th power of each of its
  coefficients in the variables the basis does not use reduces to zero;
  a Rabinowitsch basis is built only for a gcd-free ideal whose leading
  monomials are not zero-dimensional in their variables;
- a nonzero rational multiple of a local generator is a local member.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dfield
from fractions import Fraction
from itertools import combinations
from math import inf
from typing import Optional, Sequence

from .errors import (
    BudgetExceededError,
    CertificateError,
    DomainError,
    HypothesisError,
    InconclusiveError,
    RegenerationRequest,
)
from .foliation import MAX_CERT_ORDER, FoliationContext
from .germs import (
    branch_product,
    cycles_on,
    local_multiplicity,
    split_common_global,
    split_on_variety_global,
)
from .ideals import (
    Budget,
    IdealPresentation,
    attempt_radical,
    member,
    radical_membership,
)
from .jets import Jet2, _capped_order
from .localbasis import corner_member
from .poly import Polynomial


# random combinations tried before concluding there is no transverse pair
TRANSVERSE_RETRIES = 12
# doublings of the jet order before the pipeline gives up
REGENERATION_RETRIES = 4


@dataclass(frozen=True)
class PipelineOptions:
    seed: int = 0
    jet_order: Optional[int] = None

    def rng_for(self, stage: str, salt: int) -> random.Random:
        # string seeding hashes stably across processes, unlike tuple hash
        return random.Random(f"{self.seed}|{stage}|{salt}")


@dataclass
class NoetherianPair:
    """(I, local ideal) with the containment I|_L in the local ideal
    certified up to cert_order."""

    ideal: IdealPresentation
    local_gens: tuple
    ctx: FoliationContext
    cert_order: int
    radical_exact: bool = False
    nonisolated_certified: bool = False
    _local_basis: Optional[tuple] = dfield(default=None, repr=False, compare=False)

    def point_excluded(self) -> bool:
        return any(self.ctx.value_at_point(g) != 0 for g in self.ideal.generators)

    def local_basis(self) -> tuple:
        """Standard basis of the local generators modulo m^{cert_order+1},
        cached here and shared through the context; the generators are
        first stripped of unit cofactors (same ideal)."""
        if self._local_basis is None:
            from .germs import simplify_local_generator
            polys = []
            for j in self.local_gens:
                s = simplify_local_generator(j).at_order(self.cert_order)
                if not s.is_zero():
                    polys.append(s.to_polynomial())
            self._local_basis = self.ctx.local_basis(tuple(polys), self.cert_order)
        return self._local_basis

    def restrictions(self) -> list:
        """Leaf jets of the global generators at the certificate order."""
        return [self.ctx.leaf_jet(g, self.cert_order) for g in self.ideal.generators]

    def split_on_variety(self, F: Polynomial) -> tuple:
        """(h, f, cycles): F's restriction split into the factor carried by
        the variety trace of the ideal and its cofactor; F is factored with
        the global generators as divisors."""
        return split_on_variety_global(
            F, lambda p: self.ctx.leaf_jet(p, self.cert_order), self.ctx.point,
            self.restrictions(), self.cert_order, self.ideal.generators)

    def local_member(self, jet: Jet2) -> bool:
        """Membership in the local ideal, certified up to cert_order (or the
        probe's own stored order when it cannot regenerate)."""
        if self._multiple_of_generator(jet):
            return True
        return corner_member(jet, self.local_basis(), self.cert_order)

    def _multiple_of_generator(self, jet: Jet2) -> bool:
        """jet is a nonzero rational multiple of a local generator stored at
        the same order, so it is a member without a standard basis.  A probe
        that would regenerate above its stored order is left to Mora, since
        the multiple holds only for the stored truncation."""
        if jet.can_regenerate() and jet.order < self.cert_order:
            return False
        num = jet.poly.num
        return any(g.order == jet.order and _proportional(num, g.poly.num)
                   for g in self.local_gens)

    def describe(self) -> dict:
        return {
            "global_generators": [str(g) for g in self.ideal.generators],
            "local_generators": [str(j.to_polynomial()) for j in self.local_gens],
            "certificate_order": self.cert_order,
            "radical_exact": self.radical_exact,
            "nonisolated_certified": self.nonisolated_certified,
        }


def _proportional(a: dict, b: dict) -> bool:
    """a = c*b for a rational c != 0, as numerator maps (so also for the
    polynomials they are the numerators of): every a[k]/b[k] is a[m]/b[m]."""
    if not a or a.keys() != b.keys():
        return False
    m = next(iter(b))
    x, y = a[m], b[m]
    return all(a[k] * y == x * v for k, v in b.items())


def make_pair(ideal: IdealPresentation, local_gens: Sequence[Jet2],
              ctx: FoliationContext, cert_order: Optional[int] = None) -> NoetherianPair:
    """Validate the defining containment: every global generator's leaf jet
    reduces to zero modulo the local generators, up to the certificate
    order."""
    local_gens = tuple(local_gens)
    if cert_order is None:
        cert_order = max((j.order for j in local_gens), default=8)
    cert_order = _capped_order(cert_order, local_gens)
    pair = NoetherianPair(ideal, local_gens, ctx, cert_order)
    verify_pair(pair)
    return pair


def verify_pair(pair: NoetherianPair, generators: Optional[Sequence[Polynomial]] = None):
    """The restrictions of the generators (all global generators by default)
    lie in the local ideal, up to the certificate order."""
    if generators is None:
        generators = pair.ideal.generators
    for g in generators:
        if not pair.local_member(pair.ctx.leaf_jet(g, pair.cert_order)):
            raise HypothesisError(
                f"pair containment fails: restriction of {g} is not in the local ideal",
                witness=g)


@dataclass
class LedgerStep:
    """One controllable inclusion: mult(before) <= a*mult(after) + b."""

    kind: str
    transfer: tuple
    evidence: dict
    degrees: tuple
    sound: bool = True

    def apply(self, m):
        a, b = self.transfer
        return a * m + b

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "transfer": {"scale": self.transfer[0], "offset": self.transfer[1]},
            "evidence": self.evidence,
            "degrees": {"before": self.degrees[0], "after": self.degrees[1]},
            "sound": self.sound,
        }


@dataclass
class BoundLedger:
    steps: list = dfield(default_factory=list)
    status: str = "in-progress"   # point-excluded | exhausted-budget | radical-partial

    def composed_bound(self, final_mult: int = 0):
        m = final_mult
        for step in reversed(self.steps):
            m = step.apply(m)
        return m

    def all_sound(self) -> bool:
        return all(s.sound for s in self.steps)

    def describe(self) -> dict:
        return {"status": self.status,
                "steps": [s.describe() for s in self.steps]}


@dataclass
class BoundReport:
    bound: Optional[int]
    ledger: BoundLedger
    direct_value: Optional[object]
    trace: dict

    def describe(self) -> dict:
        out = dict(self.trace)
        out["bound"] = self.bound
        out["direct_value"] = None if self.direct_value in (None, inf) \
            else int(self.direct_value)
        out["ledger"] = self.ledger.describe()
        return out


# ---------------------------------------------------------------------------
# the three controllable inclusions
# ---------------------------------------------------------------------------


def radical_extension(pair: NoetherianPair, budget: Optional[Budget] = None):
    """Radical of the global side; the local side gains the new generators'
    restrictions.  Transfer: m -> M^2 m with M = sum(e_i - 1) + 1 over the
    certified exponents (two leaf variables).

    Returns (new_pair, step) with step None when nothing changed and the
    transfer is the identity."""
    J, cert, status = attempt_radical(pair.ideal, budget)
    M = cert.max_weight()
    changed = set(J.generators) != set(pair.ideal.generators)
    if not changed and M == 1:
        out = NoetherianPair(pair.ideal, pair.local_gens, pair.ctx, pair.cert_order,
                             radical_exact=(status == "exact"),
                             nonisolated_certified=pair.nonisolated_certified)
        return out, None
    new_jets = [pair.ctx.leaf_jet(g, pair.cert_order) for g in J.generators
                if not member(g, pair.ideal)] if changed else []
    new_local = pair.local_gens + tuple(j for j in new_jets if not j.is_zero())
    out = NoetherianPair(J, new_local, pair.ctx, pair.cert_order,
                         radical_exact=(status == "exact"))
    step = LedgerStep(
        kind="radical",
        transfer=(M * M, 0),
        evidence={
            "generators": [str(g) for g in J.generators],
            "exponents": list(cert.exponents),
            "status": status,
            "weight": M,
        },
        degrees=(pair.ideal.max_degree(), J.max_degree()),
        sound=not cert.capped,
    )
    return out, step


def poisson_extension(pair: NoetherianPair, F: Polynomial, G: Polynomial,
                      budget: Optional[Budget] = None):
    """Adjoin the leafwise Poisson bracket of two ideal members to both
    sides.  Transfer: m -> m + 1."""
    for h in (F, G):
        if not member(h, pair.ideal, budget=budget):
            raise HypothesisError(f"poisson extension requires membership: {h} not in I",
                                  witness=h)
    bracket = pair.ctx.poisson(F, G)
    J = pair.ideal.extended([bracket]) if not bracket.is_zero() else pair.ideal
    jet = pair.ctx.leaf_jet(bracket, pair.cert_order)
    new_local = pair.local_gens + ((jet,) if not jet.is_zero() else ())
    out = NoetherianPair(J, new_local, pair.ctx, pair.cert_order)
    step = LedgerStep(
        kind="poisson",
        transfer=(1, 1),
        evidence={"F": str(F), "G": str(G), "bracket": str(bracket)},
        degrees=(pair.ideal.max_degree(), J.max_degree()),
    )
    return out, step


def jacobian_extension(pair: NoetherianPair, F: Polynomial,
                       budget: Optional[Budget] = None):
    """Adjoin all order-k iterated flow derivatives of F globally and the
    reduced common factor locally; k is the minimal multiplicity of a
    factor of F's restriction supported on the variety trace.

    Transfer: the smaller of the certified direct exponent (least n with
    reduced^n in the local ideal) and the worst-case formula K*2^K."""
    if not member(F, pair.ideal, budget=budget):
        raise HypothesisError(f"jacobian extension requires membership: {F} not in I")
    if not pair.radical_exact:
        raise HypothesisError("jacobian extension requires a radical-certified ideal")
    if not pair.nonisolated_certified:
        raise HypothesisError(
            "jacobian extension requires certified non-isolated intersections")
    h, f, cycles = pair.split_on_variety(F)
    if not pair.local_member(f):
        raise HypothesisError("cofactor of the variety branches is not in the local ideal")
    k = min(c.multiplicity for c in cycles)
    K = max(c.multiplicity for c in cycles)
    mu = h.vanishing_order()
    order = pair.cert_order
    reduced = branch_product(cycles, order, [1] * len(cycles))
    # global side: all order-k iterated derivatives
    new_gens = []
    for a in range(k + 1):
        d = pair.ctx.iterated_derivative(F, a, k - a)
        if not d.is_zero() and not member(d, pair.ideal, budget=budget):
            new_gens.append(d)
    J = pair.ideal.extended(new_gens)
    new_local = pair.local_gens + (reduced,)
    # transfer: certified search first, formula as fallback
    worst_case_factor = K * 2 ** K
    certified_n = None
    power = Jet2.constant(1, order)
    for n in range(1, max(worst_case_factor, K * 2 ** mu) + 1):
        power = power * reduced
        if pair.local_member(power):
            certified_n = n
            break
    if certified_n is not None:
        factor_used = min(certified_n, worst_case_factor)
        evidence_kind = "certified-exponent-search"
    else:
        factor_used = K * 2 ** max(K, mu)
        evidence_kind = "worst-case-formula"
    out = NoetherianPair(J, new_local, pair.ctx, pair.cert_order,
                         nonisolated_certified=False)
    # the old generators lie in the old local ideal, which the new one contains
    verify_pair(out, new_gens)
    _assert_strict_progress(pair, cycles, k, new_gens)
    step = LedgerStep(
        kind="jacobian",
        transfer=(factor_used, 0),
        evidence={
            "F": str(F),
            "k": k,
            "K": K,
            "mu": mu,
            "worst_case_factor": worst_case_factor,
            "certified_exponent": certified_n,
            "basis": evidence_kind,
            "derivatives": [str(g) for g in new_gens],
            "reduced_factor": str(reduced.to_polynomial()),
            "removed_branches": [str(c.factor.to_polynomial()) for c in cycles
                                 if c.multiplicity == k],
            "local_generators": [str(j.to_polynomial()) for j in pair.local_gens],
            "local_order": pair.cert_order,
        },
        degrees=(pair.ideal.max_degree(), J.max_degree()),
    )
    return out, step


def _assert_strict_progress(pair: NoetherianPair, cycles, k: int, new_gens):
    """The order-k derivatives must not all vanish on each minimal-
    multiplicity cycle; this is what shrinks the variety trace."""
    if not new_gens:
        raise CertificateError("jacobian step produced no new generators")
    jets = [pair.ctx.leaf_jet(g, pair.cert_order) for g in new_gens]
    if cycles_on([c for c in cycles if c.multiplicity == k], jets):
        raise CertificateError(
            "jacobian step failed to remove a minimal-multiplicity branch")


# ---------------------------------------------------------------------------
# transverse pairs and the isolated-locus reduction
# ---------------------------------------------------------------------------


def find_transverse_pair(pair: NoetherianPair,
                         options: PipelineOptions = PipelineOptions(),
                         salt: int = 0, budget: Optional[Budget] = None):
    """Random rational combinations F, G of the generators whose bracket
    escapes the radical; None when all retries fail (evidence that every
    intersection is non-isolated).

    The bracket is bilinear and antisymmetric, so a draw's bracket is a
    combination of the generators' pairwise brackets, and when these all
    vanish no draw can succeed.  When every generator vanishes at the base
    point p, a bracket nonzero at p does not vanish on V(I) and so lies
    outside rad(I) without a Rabinowitsch basis."""
    gens = pair.ideal.generators
    if not gens:
        raise DomainError("transverse search needs a nonzero ideal")
    pairwise = ((i, j, pair.ctx.poisson(gens[i], gens[j]))
                for i, j in combinations(range(len(gens)), 2))
    brackets = [(i, j, bij) for i, j, bij in pairwise if not bij.is_zero()]
    if not brackets:
        return None
    zero = Polynomial.zero(pair.ideal.ring)
    point_on_variety = not pair.point_excluded()
    rng = options.rng_for("transverse", salt)
    for _ in range(TRANSVERSE_RETRIES):
        a = [Fraction(rng.randint(-3, 3)) for _ in gens]
        b = [Fraction(rng.randint(-3, 3)) for _ in gens]
        F = sum((c * g for c, g in zip(a, gens)), zero)
        G = sum((c * g for c, g in zip(b, gens)), zero)
        if F.is_zero() or G.is_zero():
            continue
        bracket = sum(((a[i] * b[j] - a[j] * b[i]) * bij for i, j, bij in brackets), zero)
        if bracket.is_zero():
            continue
        if point_on_variety and bracket.evaluate(pair.ctx.point):
            return F, G
        if not radical_membership(bracket, pair.ideal, budget):
            return F, G
    return None


def isolated_locus_reduction(pair: NoetherianPair,
                             options: PipelineOptions = PipelineOptions(),
                             budget: Optional[Budget] = None):
    """Alternate radical and Poisson extensions until no transverse pair
    exists; the final ideal is radical-certified and its variety is the
    non-isolated locus (up to the search evidence).

    Returns (pair, steps, completed)."""
    steps = []
    cap = 2 * len(pair.ideal.ring)
    state = pair
    for it in range(cap):
        state, rstep = radical_extension(state, budget)
        if rstep is not None:
            steps.append(rstep)
        if state.ideal.is_zero_ideal():
            state.nonisolated_certified = True
            return state, steps, True
        found = find_transverse_pair(state, options, salt=it, budget=budget)
        if found is None:
            state.nonisolated_certified = True
            return state, steps, True
        state, pstep = poisson_extension(state, found[0], found[1], budget)
        steps.append(pstep)
    return state, steps, False


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


def nonisolated_bound(F: Polynomial, G: Polynomial, ctx: FoliationContext,
                      options: PipelineOptions = PipelineOptions(),
                      budget: Optional[Budget] = None) -> BoundReport:
    """Bound the multiplicity at p of the pair of restrictions with their
    common branches removed.  Falls back to the isolated path automatically
    when the restrictions share no branch through p."""
    t0 = time.monotonic()
    order = ctx.default_jet_order(F, G) if options.jet_order is None else options.jet_order
    last_exc = None
    for attempt in range(REGENERATION_RETRIES):
        if order > MAX_CERT_ORDER:
            raise InconclusiveError(
                f"jet order {order} is above the certificate order cap {MAX_CERT_ORDER}")
        try:
            return _nonisolated_bound_once(F, G, ctx, order, options, budget, t0)
        except RegenerationRequest as e:
            last_exc = e
            order = max(2 * order, e.needed_order)
    raise InconclusiveError(f"pipeline did not stabilize: {last_exc}")


def _nonisolated_bound_once(F, G, ctx, order, options, budget, t0) -> BoundReport:
    fL = ctx.leaf_jet(F, order)
    gL = ctx.leaf_jet(G, order)
    if fL.is_zero() or gL.is_zero():
        raise HypothesisError("a restriction to the leaf vanishes at this order")
    split = split_common_global(F, G, fL, gL, lambda p: ctx.leaf_jet(p, order), ctx.point)
    if split.f.is_unit() and split.g.is_unit():
        raise HypothesisError("common branch set equals germ: nothing remains to bound")
    trace: dict = {
        "inputs": {"F": str(F), "G": str(G), "point": [str(c) for c in ctx.point]},
        "jet_order": order,
        "split": split.describe(),
        "rounds": [],
    }
    try:
        direct, _cert = local_multiplicity(split.f, split.g, budget)
    except (InconclusiveError, BudgetExceededError):
        direct = None
    if direct is inf:
        raise HypothesisError(
            "remaining branches still meet: the multiplicity to bound is not finite")
    isolated_path = split.h_f.is_unit()
    if isolated_path:
        local0 = [fL, gL]
    else:
        local0 = [split.f, split.g]
    ideal0 = IdealPresentation(ctx.ring, (F, G))
    state = make_pair(ideal0, local0, ctx, cert_order=order)
    ledger = BoundLedger()
    branch_budget = 1 if isolated_path else max(split.h_f.vanishing_order() or 1, 1)
    status = None
    for jround in range(branch_budget + 1):
        round_info = {"round": jround, "stage": "isolated-locus-reduction"}
        state, steps, completed = isolated_locus_reduction(state, options, budget)
        ledger.steps.extend(steps)
        round_info["ideal"] = state.describe()
        trace["rounds"].append(round_info)
        if not completed:
            status = "exhausted-budget"
            break
        if state.point_excluded():
            status = "point-excluded"
            break
        if isolated_path:
            status = "exhausted-budget"
            break
        if not state.radical_exact:
            status = "radical-partial"
            break
        if jround == branch_budget:
            status = "exhausted-budget"
            break
        state, jstep = jacobian_extension(state, F, budget)
        ledger.steps.append(jstep)
        trace["rounds"].append({"round": jround, "stage": "jacobian",
                                "step": jstep.describe(),
                                "ideal": state.describe()})
        if state.point_excluded():
            status = "point-excluded"
            break
    ledger.status = status or "exhausted-budget"
    if not ledger.all_sound() and ledger.status == "point-excluded":
        ledger.status = "radical-partial"
    bound = ledger.composed_bound(0) if ledger.status == "point-excluded" else None
    # Every local ideal of the chain contains the first, whose colength is
    # the direct value (module docstring), so membership modulo m^{order+1}
    # is exact once order > direct.  Without a direct value the bound, which
    # no transfer m -> a*m + b (a >= 1, b >= 0) lets an intermediate exceed,
    # stands in for it.
    if bound is not None:
        needed = bound if direct is None else direct
        if order <= needed:
            raise RegenerationRequest(needed + 4)
    trace["timings"] = {"seconds": time.monotonic() - t0}
    trace["final_status"] = ledger.status
    report = BoundReport(bound=bound, ledger=ledger,
                         direct_value=direct, trace=trace)
    if bound is not None and direct not in (None, inf) and direct > bound:
        raise CertificateError(
            f"soundness violation: direct value {direct} exceeds bound {bound}")
    return report
