import random
from fractions import Fraction
from math import inf

from hypothesis import assume, example, given, settings, strategies as st

from leafmult.errors import BudgetExceededError
from leafmult.ideals import Budget
from leafmult.localbasis import (
    closure_degree,
    corner_colength,
    leading_staircase,
    local_quotient_dimension,
    mora_divide,
    mora_normal_form,
    standard_basis,
)
from leafmult.poly import (
    Polynomial,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    parse_polynomial,
)

T = ("t1", "t2")
# a corner order above every degree the fixed examples below reach
N = 10


def P(text):
    return parse_polynomial(text, T)


class TestMoraNormalForm:
    def test_member_of_maximal(self):
        assert mora_normal_form(P("t1^2"), [P("t1"), P("t2")], N).is_zero()

    def test_unit_multiple(self):
        # t1 + t1^2 = t1 * unit, so t1 is a member of <t1 + t1^2>
        assert mora_normal_form(P("t1"), [P("t1+t1^2")], N).is_zero()

    def test_nonmember(self):
        r = mora_normal_form(P("t2"), [P("t1+t1^2")], N)
        assert not r.is_zero()

    def test_local_leading_term(self):
        # under the local order the lowest-degree term leads
        r = mora_normal_form(P("t1^2"), [P("t1^3")], N)
        assert r == P("t1^2")
        assert mora_normal_form(P("t1^3"), [P("t1^2")], N).is_zero()


class TestStandardBasis:
    def test_monomials(self):
        assert standard_basis([P("t1^2"), P("t2^3")], N) == [P("t1^2"), P("t2^3")]
        assert local_quotient_dimension([P("t1^2"), P("t2^3")]) == 6

    def test_maximal_ideal(self):
        assert local_quotient_dimension([P("t1"), P("t2")]) == 1

    def test_unit_ideal_dimension_zero(self):
        assert local_quotient_dimension([P("1+t1")]) == 0

    def test_tangent_parabolas(self):
        # t1 - t2^2 and t1 - 2 t2^2 meet with multiplicity 2
        assert local_quotient_dimension([P("t1-t2^2"), P("t1-2*t2^2")]) == 2

    def test_cusp_with_axis(self):
        assert local_quotient_dimension([P("t2^2-t1^3"), P("t2")]) == 3

    def test_principal_is_infinite(self):
        assert local_quotient_dimension([P("t1-t2^2")]) == inf

    def test_global_vs_local_difference(self):
        # 1 - t1 is a local unit: the ideal is everything near the origin
        assert local_quotient_dimension([P("t1*(1-t1)"), P("t2")]) == 1

    def test_symmetry(self):
        rng = random.Random(4)
        for _ in range(10):
            f = _random_vanishing(rng)
            g = _random_vanishing(rng)
            a = local_quotient_dimension([f, g])
            b = local_quotient_dimension([g, f])
            assert a == b


def _random_vanishing(rng, max_deg=3):
    acc = {}
    for _ in range(rng.randint(1, 4)):
        mono = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        if mono == (0, 0):
            continue
        acc[mono] = Fraction(rng.randint(-3, 3))
    p = Polynomial(T, acc)
    return p if not p.is_zero() else P("t1")


class TestStaircase:
    def test_reports_minimal_generators(self):
        gens = [P("t1^2"), P("t1*t2"), P("t2^3"), P("t1^2*t2")]
        lts = leading_staircase(standard_basis(gens, N))
        assert set(lts) == {(2, 0), (1, 1), (0, 3)}
        assert closure_degree(lts, N) == 3
        assert local_quotient_dimension(gens) == 4  # 1, t1, t2, t2^2


# ---------------------------------------------------------------------------
# reference: the untruncated local division kernel, kept verbatim (leading
# terms under the local order written out) as an oracle for the decisions
# the corner kernel makes modulo m^{N+1}.
# ---------------------------------------------------------------------------


def _ref_key(e):
    return (-sum(e), tuple(-x for x in reversed(e)))


def _ref_leading_term(p):
    m = max(p.terms, key=_ref_key)
    return m, p.terms[m]


def _ref_ecart(p):
    lm, _ = _ref_leading_term(p)
    return p.total_degree() - monomial_degree(lm)


def _ref_struct_key(p):
    return tuple(sorted(p.terms.items()))


def _ref_monic(p):
    if p.is_zero():
        return p
    _, c = _ref_leading_term(p)
    return p * (Fraction(1) / c)


def _ref_mora_normal_form(f, gens, budget):
    h = f
    pool = [g for g in gens if not g.is_zero()]
    while not h.is_zero():
        lm_h, lc_h = _ref_leading_term(h)
        divisors = [g for g in pool if monomial_divides(_ref_leading_term(g)[0], lm_h)]
        if not divisors:
            return h
        g = min(divisors, key=lambda q: (_ref_ecart(q), q.total_degree(), _ref_struct_key(q)))
        if _ref_ecart(g) > _ref_ecart(h):
            pool.append(h)
        lm_g, lc_g = _ref_leading_term(g)
        h = h - Polynomial.monomial(h.ring, monomial_div(lm_h, lm_g), lc_h / lc_g) * g
        budget.spend(1, "mora")
    return h


def _ref_standard_basis(gens, budget):
    ring = None
    G = []
    for g in gens:
        if g.is_zero():
            continue
        if ring is None:
            ring = g.ring
        G.append(_ref_monic(g))
    if not G:
        return []
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    while pairs:
        budget.spend(1, "standard basis")
        def lcm_of(p):
            return monomial_lcm(_ref_leading_term(G[p[0]])[0],
                                _ref_leading_term(G[p[1]])[0])
        i, j = min(pairs, key=lambda p: (monomial_degree(lcm_of(p)), p))
        pairs.remove((i, j))
        lm_i, lc_i = _ref_leading_term(G[i])
        lm_j, lc_j = _ref_leading_term(G[j])
        l = monomial_lcm(lm_i, lm_j)
        s = (Polynomial.monomial(ring, monomial_div(l, lm_i), Fraction(1) / lc_i) * G[i]
             - Polynomial.monomial(ring, monomial_div(l, lm_j), Fraction(1) / lc_j) * G[j])
        h = _ref_mora_normal_form(s, G, budget)
        if not h.is_zero():
            G.append(_ref_monic(h))
            t = len(G) - 1
            pairs |= {(k, t) for k in range(t)}
    out = []
    for g in sorted(G, key=lambda q: _ref_key(_ref_leading_term(q)[0]), reverse=True):
        lg = _ref_leading_term(g)[0]
        if all(not monomial_divides(_ref_leading_term(h)[0], lg) for h in out):
            out.append(g)
    return out


def _reference(fn, *args):
    """fn under a small budget; examples the reference cannot finish are
    skipped."""
    budget = Budget(cap=100)
    try:
        return fn(*args, budget)
    except BudgetExceededError:
        assume(False)


def _reference_member(target, gens, n):
    """target in <gens> + m^{n+1}, decided by the untruncated reference:
    its remainder is zero or has no term of degree <= n."""
    rem = _reference(lambda t, g, b: _ref_mora_normal_form(t, _ref_standard_basis(g, b), b),
                     target, gens)
    return rem.is_zero() or min(sum(m) for m in rem.terms) > n


def _reference_closure(gens, n):
    """(least k <= n with m^k in the ideal, colength) from the untruncated
    reference, (None, None) when there is no such k."""
    basis = _reference(_ref_standard_basis, gens)
    lts = [_ref_leading_term(g)[0] for g in basis]
    for k in range(n + 1):
        if all(any(monomial_divides(m, (a, k - a)) for m in lts) for a in range(k + 1)):
            count = sum(1 for a in range(k) for b in range(k - a)
                        if not any(monomial_divides(m, (a, b)) for m in lts))
            return k, count
    return None, None


local_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
local_monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
local_polys = st.dictionaries(local_monos, local_coeffs, max_size=4).map(
    lambda d: Polynomial(T, d))
orders = st.integers(0, 8)


class TestKernelMatchesReference:
    """The corner kernel at several orders N makes the decisions of the
    untruncated reference kernel: membership in I + m^{N+1}, the colength
    once the staircase closes by N, and the division identity modulo
    m^{N+1}."""

    @settings(max_examples=120, deadline=None)
    @given(local_polys, st.lists(local_polys, min_size=1, max_size=3), orders)
    def test_mora_normal_form(self, f, gens, n):
        expected = _reference_member(f, gens, n)
        r = mora_normal_form(f, standard_basis(gens, n), n)
        assert r.is_zero() or r.total_degree() <= n
        assert r.is_zero() == expected

    @settings(max_examples=80, deadline=None)
    @given(local_polys, local_polys, orders)
    def test_mora_divide(self, f, d, n):
        rem, q = mora_divide(f, d, n)
        assert all(p.is_zero() or p.total_degree() <= n for p in [rem, q])
        assert (f - q * d - rem).truncated(n).is_zero()
        if not d.is_zero():
            # one generator is a standard basis: the remainder decides
            assert rem.is_zero() == _reference_member(f, [d], n)

    @settings(max_examples=120, deadline=None)
    @given(st.lists(local_polys, min_size=1, max_size=3), orders)
    # found by random search: inputs whose basis depends on the pair order
    # and on when a reduced polynomial joins the Mora pool
    @example([P("2*t1*t2^2 + 3/2*t2^2"), P("1/2*t1*t2^2 - t2^3 - 3/2*t2^2"),
              P("-t1^2 - 3/2*t1*t2 - 1/2*t2")], 4)
    @example([P("2*t1^2*t2^2 + t1^2*t2"), P("3/2*t2^3 + 3"),
              P("1/2*t1*t2^3 - 1/2*t1^2*t2 - 3*t1")], 4)
    def test_standard_basis(self, gens, n):
        closure, colength = _reference_closure(gens, n)
        cert = corner_colength(gens, n)
        if closure is None:
            assert cert is None
        else:
            assert (cert.closure, cert.multiplicity) == (closure, colength)
            assert cert.holds()


    def test_order_key_evaluations_stay_linear_in_the_terms_created(self, monkeypatch):
        # a member with many terms on the corner of order 16: a scan for
        # each leading term evaluated the local key 7382 times, the heap
        # about once per term the reduction creates (398 for 570)
        import leafmult.localbasis as localbasis
        from leafmult.ideals import MonomialOrder
        n = 16
        basis = standard_basis([P("t1-t2^2+t1*t2"), P("t2^3-t1^2")], n)
        f = P("(1+t1+t2)^12*(t1-t2^2+t1*t2) + (2-t1)^12*(t2^3-t1^2)")
        order = MonomialOrder("local")
        calls = [0]
        for name in ("key", "heap_key"):
            def counting(m, real=getattr(order, name)):
                calls[0] += 1
                return real(m)
            object.__setattr__(order, name, counting)
        created = [len(f.truncated(n).num)]
        real_cancel = localbasis._cancel_lead

        def cancel(work, scale, c, shift, lc, reducer, *args, **kwargs):
            created[0] += len(reducer)
            return real_cancel(work, scale, c, shift, lc, reducer, *args, **kwargs)

        monkeypatch.setattr(localbasis, "_cancel_lead", cancel)
        monkeypatch.setattr(localbasis, "LOCAL_ORDER", order)
        budget = Budget()
        assert mora_normal_form(f, basis, n, budget).is_zero()
        assert budget.used == 146
        assert created[0] > 500
        assert calls[0] <= 2 * created[0]


class TestStepBound:
    """Every corner reduction step lowers the leading monomial among the
    (N+1)(N+2)/2 monomials of degree <= N, so no normal form or division
    spends more budget steps than that."""

    @settings(max_examples=150, deadline=None)
    @given(local_polys, st.lists(local_polys, min_size=1, max_size=3), st.integers(0, 12))
    @example(P("t1"), [P("t1-t1^2")], 12)
    # the remainder climbs t1^2, t1^3, ... to the corner: 40 steps
    @example(P("t1"), [P("t1-t1^2")], 40)
    def test_mora_normal_form(self, f, gens, n):
        budget = Budget(cap=10**6)
        mora_normal_form(f, gens, n, budget)
        assert budget.used <= (n + 1) * (n + 2) // 2

    @settings(max_examples=150, deadline=None)
    @given(local_polys, local_polys, st.integers(0, 12))
    def test_mora_divide(self, f, d, n):
        budget = Budget(cap=10**6)
        mora_divide(f, d, n, budget)
        assert budget.used <= (n + 1) * (n + 2) // 2


class TestHighestCorner:
    """Membership decisions on the corner are those of the untruncated
    reference kernel above, followed by the check that decided local
    membership before: the remainder is zero or has no term of degree
    <= N."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(local_polys, min_size=1, max_size=3),
           st.lists(local_polys, min_size=3, max_size=3), local_polys, st.integers(0, 7))
    @example([P("t2")], [P("0")] * 3, P("t1^3"), 3)  # a term exactly at the corner
    # t1*t2 - t2*(t1 - t2^2) = t2^3 lies one degree beyond the corner
    @example([P("t1 - t2^2")], [P("0")] * 3, P("t1*t2"), 2)
    # non-homogeneous generators: remainders climb toward the corner
    @example([P("t1-t1^2+t2^3"), P("t2^2+t1^3")], [P("t2"), P("1+t1"), P("0")],
             P("t1^2*t2^2"), 4)
    def test_membership_matches_untruncated_kernel(self, gens, cofactors, extra, n):
        target = extra
        for c, g in zip(cofactors, gens):
            target = target + c * g
        expected = _reference_member(target, gens, n)
        basis = standard_basis(gens, n)
        assert all(g.total_degree() <= n for g in basis)
        got = mora_normal_form(target, basis, n)
        assert got.total_degree() <= n
        assert got.is_zero() == expected

    def test_unit_collapses_to_one(self):
        gens = [P("t1^3"), P("1 - t1 + t2^2")]
        assert standard_basis(gens, 5) == [P("1")]
        assert mora_normal_form(P("t1 + t2^5"), [P("1")], 5).is_zero()
