"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials are immutable and hashable: a ring is an ordered tuple of
variable names, and a polynomial is a map from exponent tuples to nonzero
integer numerators, `num`, over one positive common denominator, `den`.
The pair is canonical: gcd(den, *num) == 1, and the zero polynomial has
den == 1, so equal polynomials have equal (num, den).  Arithmetic runs on
the integers and takes the common factor out of each result.  `terms` is
the same polynomial as a map to `Fraction` coefficients; it, the total
degree, the hash and the string are set on first read, and every slot is
set through its member descriptor.  All arithmetic is exact; nothing here
ever rounds.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, le, neg, sub
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DomainError, ParseError, RingMismatchError

Monomial = tuple  # exponent tuple, one entry per ring variable


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True iff a | b componentwise."""
    return all(map(le, a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b, assuming divisibility."""
    return tuple(map(sub, a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def monomial_degree(a: Monomial) -> int:
    return sum(a)


def minimal_generators(items: Iterable, key, monomial=lambda m: m, reverse: bool = False) -> list:
    """The items, in the stable sort by key (descending with reverse),
    whose monomial no item kept before it divides: the minimal generators
    of their monomial ideal when the sort puts each divisor first."""
    out, kept = [], []
    for item in sorted(items, key=key, reverse=reverse):
        m = monomial(item)
        if all(not monomial_divides(k, m) for k in kept):
            out.append(item)
            kept.append(m)
    return out


def degrevlex_key(m: Monomial) -> tuple:
    """Sort key of degrevlex: total degree, then reversed negated exponents;
    a bigger key is a bigger monomial."""
    return (sum(m), tuple(map(neg, m[::-1])))


def _degrevlex_heap_key(m: Monomial) -> tuple:
    """degrevlex_key with every entry negated: a min-heap pops the largest
    monomial first."""
    return (-sum(m), m[::-1])


def _add_into(acc: dict, num: Mapping[Monomial, int], k: int = 1) -> None:
    """acc += k * num in place, dropping the coefficients that cancel."""
    for m, c in num.items():
        s = acc.get(m, 0) + k * c
        if s:
            acc[m] = s
        else:
            acc.pop(m, None)


def _sub_mul_into(acc: dict, mono: Monomial, coeff: int, num: Mapping[Monomial, int],
                  max_degree: Optional[int] = None) -> None:
    """acc -= coeff * x^mono * num in place, dropping the coefficients that
    cancel and the products of total degree above max_degree; one pass over
    num."""
    items = num.items()
    if max_degree is not None:
        room = max_degree - sum(mono)
        items = [(m, c) for m, c in items if sum(m) <= room]
    for m, c in items:
        m = tuple(map(add, mono, m))
        prev = acc.get(m)
        if prev is None:
            acc[m] = -(coeff * c)
        else:
            s = prev - coeff * c
            if s:
                acc[m] = s
            else:
                del acc[m]


class _Lead:
    """A reducer of `_divide`: a nonzero polynomial with its leading
    monomial under a sort key, the integer numerator there and its total
    degree, computed once."""

    __slots__ = ("poly", "lm", "lc", "degree")

    def __init__(self, poly: "Polynomial", key):
        self.poly = poly
        self.lm = max(poly.num, key=key)
        self.lc = poly.num[self.lm]
        self.degree = poly.total_degree()


def _cancel_lead(work: dict, scale: tuple, c: int, shift: Monomial, lc: int,
                 reducer: Mapping[Monomial, int], max_degree: Optional[int] = None,
                 rest: Optional[dict] = None) -> tuple:
    """One fraction-free reduction step, in place.  work and rest (a
    remainder kept beside it) are integer maps that stand for
    (work + rest) * num / den, (num, den) = scale.  The term c*x^m of work
    is cancelled by x^shift * reducer, whose coefficient at m/shift is lc:
    work becomes s*work - t*x^shift*reducer with s = |lc|/gcd(lc, c) and
    t = s*c/lc, the products of total degree above max_degree dropped, and
    rest is scaled by s too.  When s != 1 the content k of work and rest is
    then taken out.  Returns the new scale, (num*k, den*s) in lowest terms,
    so the maps now stand for the old value less
    (c/lc) * (num/den) * x^shift * reducer."""
    g = math.gcd(lc, c)
    s, t = lc // g, c // g
    if s < 0:
        s, t = -s, -t
    maps = (work, rest) if rest else (work,)
    if s != 1:
        for d in maps:
            for m in d:
                d[m] *= s
    _sub_mul_into(work, shift, t, reducer, max_degree)
    if s == 1:
        return scale
    k = math.gcd(*work.values(), *(rest.values() if rest else ()))
    if k > 1:
        for d in maps:
            for m in d:
                d[m] //= k
    else:
        k = 1
    num, den = scale[0] * k, scale[1] * s
    g = math.gcd(num, den)
    return num // g, den // g


def _divide(h: "Polynomial", reducers: Sequence[_Lead], heap_key, rest: Optional[dict] = None,
            max_degree: Optional[int] = None, budget=None, stage: str = "",
            quotients: Optional[list] = None) -> tuple:
    """The package's one multivariate division loop (Monagan and Pearce,
    "Polynomial division using dynamic arrays, heaps, and packed exponent
    vectors", CASC 2007).  Each step cancels the leading term c*x^m of the
    working polynomial with c/lc * x^shift times the first reducer whose
    leading monomial divides m, and spends one step of budget, if given,
    under stage; quotients, when given, holds one map per reducer, which
    gets the rational coefficient of each step at its shift (no shift
    repeats, since the leads decrease).  When no reducer divides m,
    the term moves to rest, or, with rest None, the division stops.  With
    max_degree, the products of total degree above it are dropped.

    Returns (work, scale): h equals the quotient part plus
    (work + rest) * scale[0] / scale[1] throughout (`_cancel_lead`).

    The leading monomial comes from a heap, whose min is the largest
    monomial under heap_key (a monomial order, global or local).  Every
    monomial of work has an entry.  The other terms of x^shift * reducer
    lie below m, so the leads strictly decrease, and after a step only the
    shifted terms still in work need an entry.  A popped monomial no
    longer in work is stale (cancelled, or handled through an earlier
    entry) and is skipped.  So each pop is the monomial a scan of work
    would find, and the remainder, its term order, the quotients and the
    steps are those of a scan."""
    work = dict(h.num)
    scale = (1, h.den)
    heap = [(heap_key(m), m) for m in work]
    heapify(heap)
    while heap:
        m = heappop(heap)[1]
        if m not in work:
            continue
        for i, g in enumerate(reducers):
            if all(map(le, g.lm, m)):
                break
        else:
            if rest is None:
                break
            rest[m] = work.pop(m)
            continue
        shift, c = tuple(map(sub, m, g.lm)), work[m]
        if quotients is not None:
            quotients[i][shift] = Fraction(c * scale[0] * g.poly.den, scale[1] * g.lc)
        # a product that stays within max_degree needs no per-term test
        cap = None if max_degree is None or sum(shift) + g.degree <= max_degree else max_degree
        scale = _cancel_lead(work, scale, c, shift, g.lc, g.poly.num, cap, rest)
        for t in g.poly.num:
            t = tuple(map(add, shift, t))
            if t in work:
                heappush(heap, (heap_key(t), t))
        if budget is not None:
            budget.spend(1, stage)
    return work, scale


def _scaled(ring: tuple, num: dict, scale: tuple) -> "Polynomial":
    """The polynomial num * scale[0] / scale[1], num an integer map."""
    if scale[0] != 1:
        num = {m: c * scale[0] for m, c in num.items()}
    return _canonical(ring, num, scale[1])


def _over_common_denominator(values) -> tuple:
    """(numerators, den) with each value = numerator / den, den the lcm of
    the denominators, for a sequence of Fractions (or ints)."""
    den = math.lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


def _from_fractions(terms: Mapping[Monomial, Fraction]) -> tuple:
    """(num, den) of a term map with nonzero rational (or int) values.  den
    is the lcm of the denominators, so no prime of it divides every
    numerator: the pair is canonical."""
    nums, den = _over_common_denominator(terms.values())
    return dict(zip(terms, nums)), den


class Polynomial:
    """A polynomial with exact rational coefficients, held as integer
    numerators over one common denominator (module docstring).

    The zero polynomial has an empty numerator map.  Two polynomials are
    equal iff their rings, denominators and numerator maps coincide.  The
    Fraction view, the total degree, the hash and the string are set on
    first use, each slot through its member descriptor (`_make`);
    `__setattr__` only raises.
    """

    __slots__ = ("ring", "num", "den", "_terms", "_degree", "_hash", "_str")

    def __init__(self, ring: Sequence[str], terms: Mapping[Monomial, Fraction] | Iterable = ()):
        ring = tuple(ring)
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, Fraction] = {}
        n = len(ring)
        for mono, coeff in items:
            mono = tuple(int(e) for e in mono)
            if len(mono) != n:
                raise DomainError(f"monomial arity {len(mono)} != ring size {n}")
            if any(e < 0 for e in mono):
                raise DomainError("negative exponent in monomial")
            coeff = Fraction(coeff)
            if coeff:
                prev = acc.get(mono)
                if prev is None:
                    acc[mono] = coeff
                else:
                    s = prev + coeff
                    if s:
                        acc[mono] = s
                    else:
                        del acc[mono]
        num, den = _from_fractions(acc)
        _set_ring(self, ring)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(ring: Sequence[str]) -> "Polynomial":
        return _make(tuple(ring), {}, 1)

    @staticmethod
    def constant(ring: Sequence[str], value) -> "Polynomial":
        ring = tuple(ring)
        if type(value) is int:
            return _make(ring, {(0,) * len(ring): value} if value else {}, 1)
        c = Fraction(value)
        if not c:
            return _make(ring, {}, 1)
        return _make(ring, {(0,) * len(ring): c.numerator}, c.denominator)

    @staticmethod
    def variable(ring: Sequence[str], index: int) -> "Polynomial":
        ring = tuple(ring)
        n = len(ring)
        if not 0 <= index < n:
            raise DomainError(f"variable index {index} out of range for ring of size {n}")
        return _make(ring, {tuple(1 if i == index else 0 for i in range(n)): 1}, 1)

    @staticmethod
    def monomial(ring: Sequence[str], mono: Monomial, coeff=1) -> "Polynomial":
        return Polynomial(ring, {tuple(mono): Fraction(coeff)})

    @classmethod
    def _raw(cls, ring, terms: dict) -> "Polynomial":
        """Internal: build from a term dict with nonzero Fraction (or int)
        coefficients on valid monomials."""
        return _make(ring, *_from_fractions(terms))

    # -- basic queries -------------------------------------------------

    @property
    def terms(self) -> dict:
        """The coefficients as Fractions, {monomial: num[monomial] / den};
        built on first read and kept.  Read only."""
        try:
            return self._terms
        except AttributeError:
            return self._fraction_view()

    def _fraction_view(self) -> dict:
        den = self.den
        t = {m: Fraction(n, den) for m, n in self.num.items()}
        _set_terms(self, t)
        return t

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return not any(map(any, self.num))

    def constant_value(self) -> Fraction:
        """Coefficient of the constant monomial."""
        return Fraction(self.num.get((0,) * len(self.ring), 0), self.den)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial.  Kept on first read."""
        try:
            return self._degree
        except AttributeError:
            d = max(map(sum, self.num)) if self.num else -1
            _set_degree(self, d)
            return d

    def degree_in(self, index: int) -> int:
        if not self.num:
            return -1
        return max(m[index] for m in self.num)

    def variables_used(self) -> set:
        used = set()
        for m in self.num:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.ring, self.den, frozenset(self.num.items())))
            _set_hash(self, h)
            return h

    # -- arithmetic ----------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(f"ring {self.ring} != ring {other.ring}")

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other over the lcm of the denominators."""
        da, db = self.den, other.den
        den = math.lcm(da, db)
        ka = den // da
        acc = {m: c * ka for m, c in self.num.items()} if ka != 1 else dict(self.num)
        _add_into(acc, other.num, sign * (den // db))
        return _canonical(self.ring, acc, den)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.ring, {m: -c for m, c in self.num.items()}, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial(self.ring)
            k = other.numerator
            return _canonical(self.ring, {m: c * k for m, c in self.num.items()},
                              self.den * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.mul(other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        result = Polynomial.constant(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def mul(self, other: "Polynomial", max_degree: Optional[int] = None) -> "Polynomial":
        """Product, without the terms of total degree above max_degree."""
        self._check_ring(other)
        acc: dict[Monomial, int] = {}
        right = other.num.items()
        if max_degree is not None:
            graded = [(m, c, sum(m)) for m, c in right]
        for m1, c1 in self.num.items():
            if max_degree is not None:
                room = max_degree - sum(m1)
                right = [(m2, c2) for m2, c2, d2 in graded if d2 <= room]
            for m2, c2 in right:
                m = tuple(map(add, m1, m2))
                prev = acc.get(m)
                if prev is None:
                    acc[m] = c1 * c2
                else:
                    s = prev + c1 * c2
                    if s:
                        acc[m] = s
                    else:
                        del acc[m]
        return _canonical(self.ring, acc, self.den * other.den)

    def truncated(self, max_degree: int) -> "Polynomial":
        """The terms of total degree at most max_degree."""
        if self.total_degree() <= max_degree:
            return self
        return _canonical(self.ring, {m: c for m, c in self.num.items()
                                      if sum(m) <= max_degree}, self.den)

    # -- calculus and evaluation ----------------------------------------

    def derive(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to the given variable."""
        n = len(self.ring)
        if not 0 <= index < n:
            raise DomainError(f"variable index {index} out of range for ring of size {n}")
        acc: dict[Monomial, int] = {}
        for m, c in self.num.items():
            e = m[index]
            if e:
                acc[m[:index] + (e - 1,) + m[index + 1:]] = c * e
        return _canonical(self.ring, acc, self.den)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point, on the integers: with q the lcm
        of its denominators, N = q * point and d the total degree, it is
        sum(num[m] * N^m * q^(d - |m|)) / (den * q^d)."""
        if len(point) != len(self.ring):
            raise DomainError("point arity does not match ring")
        if not self.num:
            return Fraction(0)
        nums, q = _over_common_denominator([Fraction(x) for x in point])
        deg = self.total_degree()
        total = 0
        for m, c in self.num.items():
            for n, e in zip(nums, m):
                if e:
                    c *= n ** e
            if q != 1:
                c *= q ** (deg - sum(m))
            total += c
        return Fraction(total, self.den * q ** deg)

    def compose(self, targets: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute targets[i] for variable i.  Targets share one ring."""
        if len(targets) != len(self.ring):
            raise DomainError("substitution arity does not match ring")
        if not targets:
            raise DomainError("empty ring")
        out_ring = targets[0].ring
        powers = [[Polynomial.constant(out_ring, 1)] for _ in targets]
        out = Polynomial.zero(out_ring)
        for m, c in self.terms.items():
            term = Polynomial.constant(out_ring, c)
            for t, e, pw in zip(targets, m, powers):
                while len(pw) <= e:
                    pw.append(pw[-1] * t)
                if e:
                    term = term * pw[e]
            out = out + term
        return out

    def map_ring(self, new_ring: Sequence[str], var_map: Sequence[int]) -> "Polynomial":
        """Reinterpret in a larger ring: variable i becomes new_ring[var_map[i]]."""
        new_ring = tuple(new_ring)
        n = len(new_ring)
        acc = {}
        for m, c in self.num.items():
            nm = [0] * n
            for i, e in enumerate(m):
                nm[var_map[i]] += e
            acc[tuple(nm)] = c
        return _make(new_ring, acc, self.den)

    # -- printing --------------------------------------------------------

    def __str__(self) -> str:
        # rendered once: presentations sort their generators by it, and
        # traces render the same polynomials again
        try:
            return self._str
        except AttributeError:
            s = self._render()
            _set_str(self, s)
            return s

    def _render(self) -> str:
        if not self.num:
            return "0"
        den = self.den
        parts = []
        for m, c in sorted(self.num.items(), key=lambda t: degrevlex_key(t[0]), reverse=True):
            factors = []
            for name, e in zip(self.ring, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = _fmt_coeff(abs(c), den)
            elif abs(c) == den:
                body = "*".join(factors)
            else:
                body = _fmt_coeff(abs(c), den) + "*" + "*".join(factors)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.ring!r}, {str(self)!r})"


def _make(ring: tuple, num: dict, den: int) -> Polynomial:
    """Internal: a polynomial from canonical (num, den): nonzero integer
    numerators on valid monomials, den > 0, gcd(den, *num) == 1."""
    p = Polynomial.__new__(Polynomial)
    _set_ring(p, ring)
    _set_num(p, num)
    _set_den(p, den)
    return p


# the slots' member descriptors, bound once: cheaper than object.__setattr__
_set_ring = Polynomial.ring.__set__
_set_num = Polynomial.num.__set__
_set_den = Polynomial.den.__set__
_set_terms = Polynomial._terms.__set__
_set_degree = Polynomial._degree.__set__
_set_hash = Polynomial._hash.__set__
_set_str = Polynomial._str.__set__


def _canonical(ring: tuple, num: dict, den: int) -> Polynomial:
    """Internal: num / den with the common factor of den and the numerators
    taken out; num has nonzero integer values and den > 0."""
    if den != 1:
        if not num:
            den = 1
        else:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {m: c // g for m, c in num.items()}
                den //= g
    return _make(ring, num, den)


def _fmt_coeff(n: int, den: int) -> str:
    """The text of the rational n / den, n >= 0."""
    g = math.gcd(n, den)
    if g == den:
        return str(n // g)
    return f"{n // g}/{den // g}"


# -- parsing --------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at position {pos}: {text[pos:pos+10]!r}")
            break
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    """Recursive descent over `+ - * ^`, parentheses, rational literals and
    variable names.  No implicit multiplication."""

    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.pos = 0
        self.ring = tuple(ring)
        self.index = {name: i for i, name in enumerate(self.ring)}

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, got {val!r}")

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input at token {val!r}")
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Polynomial:
        sign = 1
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                if val == "-":
                    sign = -sign
            else:
                break
        p = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, expo = self.take()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer")
            p = p ** expo
        return p if sign > 0 else -p

    def atom(self) -> Polynomial:
        kind, val = self.take()
        if kind == "int":
            num = val
            kind2, nxt = self.peek()
            if kind2 == "op" and nxt == "/":
                self.take()
                kind3, den = self.take()
                if kind3 != "int" or den == 0:
                    raise ParseError("malformed rational literal")
                return Polynomial.constant(self.ring, Fraction(num, den))
            return Polynomial.constant(self.ring, num)
        if kind == "name":
            if val not in self.index:
                raise ParseError(f"unknown variable {val!r} in ring {self.ring}")
            return Polynomial.variable(self.ring, self.index[val])
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected token {val!r}")


def parse_polynomial(text: str, ring: Sequence[str]) -> Polynomial:
    """Parse the canonical text syntax.  Round-trips with str() exactly."""
    return _Parser(_tokenize(text), ring).parse()


# -- gcd and squarefree machinery ------------------------------------------
#
# `gcd` splits off the monomial contents and decides a rest with a
# certificate of irreducibility by one division.  The other inputs go to
# the heuristic gcd GCDHEU of Char, Geddes and Gonnet (J. Symb. Comput.
# 1989; Geddes, Czapor and Labahn, Algorithms for Computer Algebra,
# section 7.7) on integer coefficients: evaluate the last variable at an
# integer xi, take the gcd of the images recursively, rebuild a candidate
# from its symmetric xi-adic digits and keep it when its primitive part
# divides both inputs.  With xi >= 2*min(|a|, |b|) + 2 (max norms of the
# primitive inputs) a candidate that divides both is the gcd.  After
# HEU_GCD_TRIES values of xi the primitive PRS below decides.

HEU_GCD_TRIES = 6


def _as_univariate(p: Polynomial, index: int) -> dict[int, Polynomial]:
    """View p as a polynomial in variable `index`; coefficients keep the ring
    (with exponent 0 in that variable)."""
    coeffs: dict[int, dict] = {}
    for m, c in p.num.items():
        e = m[index]
        rest = m[:index] + (0,) + m[index + 1:]
        coeffs.setdefault(e, {})[rest] = c
    return {e: _canonical(p.ring, t, p.den) for e, t in coeffs.items()}


def leading_coeff_in(p: Polynomial, index: int) -> Polynomial:
    d = p.degree_in(index)
    uni = _as_univariate(p, index)
    return uni.get(d, Polynomial.zero(p.ring))


def pseudo_rem(a: Polynomial, b: Polynomial, index: int) -> Polynomial:
    """Pseudo-remainder of a by b in variable `index` (b nonzero there)."""
    db = b.degree_in(index)
    lb = leading_coeff_in(b, index)
    r = a
    while not r.is_zero() and r.degree_in(index) >= db:
        dr = r.degree_in(index)
        lr = leading_coeff_in(r, index)
        shift = Polynomial.monomial(a.ring, tuple(dr - db if i == index else 0
                                                  for i in range(len(a.ring))))
        r = r * lb - b * lr * shift
    return r


def exact_divide(a: Polynomial, b: Polynomial) -> Polynomial:
    """Quotient a/b when the division is exact; DomainError otherwise."""
    if b.is_zero():
        raise DomainError("division by zero polynomial")
    if a.is_zero():
        return a
    a._check_ring(b)
    quotient: dict = {}
    work, _ = _divide(a, [_Lead(b, degrevlex_key)], _degrevlex_heap_key, quotients=[quotient])
    if work:
        raise DomainError("inexact polynomial division")
    return Polynomial._raw(a.ring, quotient)


def _content_wrt(p: Polynomial, index: int, gcd_of=None) -> Polynomial:
    """gcd of the coefficients of p viewed in variable `index`, taken with
    gcd_of (default gcd)."""
    gcd_of = gcd_of or gcd
    uni = _as_univariate(p, index)
    cont = Polynomial.zero(p.ring)
    for e in sorted(uni):
        cont = gcd_of(cont, uni[e])
        if cont.is_constant() and not cont.is_zero():
            break
    return cont


def _int_content(p: Polynomial) -> Fraction:
    """Positive rational c with p/c integer-coefficient and primitive."""
    if not p.num:
        return Fraction(1)
    return Fraction(math.gcd(*p.num.values()), p.den)


def _with_unit_coefficient(p: Polynomial, m: Monomial) -> Polynomial:
    """p divided by its (nonzero) coefficient at m; p itself when that is 1.
    The coefficient is num[m] / den, so the quotient is num / num[m]."""
    c = p.num[m]
    if c == p.den:
        return p
    if c < 0:
        return _canonical(p.ring, {k: -v for k, v in p.num.items()}, -c)
    return _canonical(p.ring, p.num, c)


def normalize_leading(p: Polynomial) -> Polynomial:
    """Scale so the degrevlex leading coefficient is 1."""
    if p.is_zero():
        return p
    return _with_unit_coefficient(p, max(p.num, key=degrevlex_key))


def gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """A gcd of a and b, normalized to leading coefficient 1 (degrevlex).

    gcd(a, 0) is normalized a; gcd(0, 0) = 0.  Otherwise a = x^la * u and
    b = x^lb * v with u and v free of monomial factors, and the gcd is
    x^min(la, lb) times gcd(u, v), which is 1 when u or v is constant.  When
    u (or v) has a certificate of irreducibility (`_certified_irreducible`,
    the one `factor` trusts), gcd(u, v) is u if one `exact_divide` of v by
    u, which stops at the first leading term u's does not divide, leaves
    nothing, and 1 otherwise.  Only the other rests go to the heuristic gcd
    and its PRS fallback.  The normalized gcd is unique, so the route never
    changes the result.
    """
    if a.ring != b.ring:
        raise RingMismatchError(f"ring {a.ring} != ring {b.ring}")
    if a.is_zero() or b.is_zero():
        return normalize_leading(a + b)
    (la, u), (lb, v) = _monomial_content(a), _monomial_content(b)
    g = _gcd_of_rests(u, v)
    low = tuple(map(min, la, lb))
    if not any(low):
        return g
    # x^low * g has the leading coefficient of g
    return _make(a.ring, {monomial_mul(m, low): c for m, c in g.num.items()}, g.den)


def _monomial_content(p: Polynomial) -> tuple:
    """(l, q) with p = x^l * q and q free of monomial factors, p nonzero."""
    low = tuple(min(e) for e in zip(*p.num))
    if not any(low):
        return low, p
    return low, _make(p.ring, {monomial_div(m, low): c for m, c in p.num.items()}, p.den)


def _gcd_of_rests(u: Polynomial, v: Polynomial) -> Polynomial:
    """gcd() of two nonzero polynomials free of monomial factors."""
    one = Polynomial.constant(u.ring, 1)
    if u.is_constant() or v.is_constant():
        return one
    for p, q in ((u, v), (v, u)):
        if _certified_irreducible(p):
            try:
                exact_divide(q, p)
            except DomainError:
                return one
            return normalize_leading(p)
    h = _heu_gcd(_primitive_ints(u), _primitive_ints(v))
    if h is None:
        return _gcd_prs(u, v)
    return normalize_leading(_make(u.ring, h, 1))


def _primitive_ints(p: Polynomial) -> dict:
    """The terms of p / _int_content(p), with int coefficients."""
    c = math.gcd(*p.num.values())
    return {m: v // c for m, v in p.num.items()}


def _heu_gcd(a: dict, b: dict) -> Optional[dict]:
    """gcd of two nonzero integer term maps, integer content included, up
    to sign; None when HEU_GCD_TRIES evaluation points all fail.  Every
    level takes out the contents of its inputs and multiplies their gcd back
    into its result: the images a(xi), b(xi) are not primitive, and a
    candidate short of their common content still divides both inputs."""
    ca, cb = math.gcd(*a.values()), math.gcd(*b.values())
    content = math.gcd(ca, cb)
    zero = (0,) * len(next(iter(a)))
    a = {m: c // ca for m, c in a.items()}
    b = {m: c // cb for m, c in b.items()}
    if a.keys() == {zero} or b.keys() == {zero}:
        return {zero: content}
    index = max(i for p in (a, b) for m in p for i, e in enumerate(m) if e)
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    for _ in range(HEU_GCD_TRIES):
        images = _evaluate_at(a, index, xi), _evaluate_at(b, index, xi)
        g = _heu_gcd(*images) if all(images) else None
        if g is not None:
            h = _interpolate(g, index, xi)
            c = math.gcd(*h.values())
            h = {m: v // c for m, v in h.items()}
            if _int_divides(h, a) and _int_divides(h, b):
                return {m: v * content for m, v in h.items()}
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _evaluate_at(p: dict, index: int, xi: int) -> dict:
    """p with variable `index` set to the integer xi."""
    powers = [1]
    out: dict = {}
    for m, c in p.items():
        e = m[index]
        if e:
            while len(powers) <= e:
                powers.append(powers[-1] * xi)
            m = m[:index] + (0,) + m[index + 1:]
            c *= powers[e]
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _interpolate(g: dict, index: int, xi: int) -> dict:
    """The polynomial whose value at variable `index` = xi is g, with every
    coefficient a digit of the symmetric base-xi expansion of g's."""
    half = xi // 2
    out = {}
    for m, c in g.items():
        e = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[m[:index] + (e,) + m[index + 1:]] = d
            c = (c - d) // xi
            e += 1
    return out


def _int_divides(h: dict, a: dict) -> bool:
    """True iff the primitive integer h divides a, in Z[x] or, by Gauss's
    lemma, in Q[x]: divide lex-leading terms, each quotient exponent within
    the degrees of a less those of h."""
    room = [max(ea) - max(eh) for ea, eh in zip(zip(*a), zip(*h))]
    if min(room) < 0:
        return False
    hm = max(h)
    hc = h[hm]
    r = dict(a)
    while r:
        rm = max(r)
        q, rem = divmod(r[rm], hc)
        qm = tuple(x - y for x, y in zip(rm, hm))
        if rem or any(not 0 <= e <= k for e, k in zip(qm, room)):
            return False
        for m, c in h.items():
            m = tuple(map(add, qm, m))
            s = r.get(m, 0) - q * c
            if s:
                r[m] = s
            else:
                del r[m]
    return True


def _gcd_prs(a: Polynomial, b: Polynomial) -> Polynomial:
    """gcd() by primitive-part/content recursion on the last active
    variable and a primitive PRS in it; exact, and slow on inputs with many
    terms in three variables.  The fallback of the heuristic gcd."""
    if a.is_zero() or b.is_zero():
        return normalize_leading(a + b)
    used = a.variables_used() | b.variables_used()
    if not used:
        return Polynomial.constant(a.ring, 1)
    index = max(used)
    if a.degree_in(index) == 0 or b.degree_in(index) == 0:
        # one argument is free of the main variable: gcd divides contents
        ca = _content_wrt(a, index, _gcd_prs) if a.degree_in(index) > 0 else a
        cb = _content_wrt(b, index, _gcd_prs) if b.degree_in(index) > 0 else b
        return _gcd_prs(ca, cb)
    ca = _content_wrt(a, index, _gcd_prs)
    cb = _content_wrt(b, index, _gcd_prs)
    pa = exact_divide(a, ca)
    pb = exact_divide(b, cb)
    # primitive PRS in the main variable
    f, g = pa, pb
    if f.degree_in(index) < g.degree_in(index):
        f, g = g, f
    while True:
        r = pseudo_rem(f, g, index)
        if r.is_zero():
            if g.degree_in(index) > 0:
                g = exact_divide(g, _content_wrt(g, index, _gcd_prs))
            break
        if r.degree_in(index) == 0:
            g = Polynomial.constant(a.ring, 1)
            break
        r = exact_divide(r, _content_wrt(r, index, _gcd_prs))
        r = r * (Fraction(1) / _int_content(r))
        f, g = g, r
    result = _gcd_prs(ca, cb) * g
    return normalize_leading(result)


def squarefree_part(p: Polynomial) -> Polynomial:
    """Product of the distinct irreducible factors of p, leading coeff 1.

    Computed as p / gcd(p, dp/dx_1, ..., dp/dx_n); valid over Q (char 0).
    Each gcd takes `gcd`'s route: a monomial factor of p and a derivative
    share their monomial content, and a certified factor is tested by one
    division, so the small shapes the radical layer asks about (x^3*(y - z
    + 1), (z - 1)*y) never reach the heuristic gcd.
    """
    if p.is_zero():
        raise DomainError("squarefree_part of the zero polynomial")
    if p.is_constant():
        return Polynomial.constant(p.ring, 1)
    g = p
    for i in sorted(p.variables_used()):
        g = gcd(g, p.derive(i))
        if g.is_constant():
            break
    if g.is_constant():
        return normalize_leading(p)
    return normalize_leading(exact_divide(p, g))


# -- factorization with certificates -----------------------------------------
#
# Splitting off the monomial content and then the content in one variable
# leaves pieces that are often irreducible by one of two certificates: degree
# 1 in a variable in which the piece is primitive, or two terms whose exponent
# difference is a primitive vector (the Newton polytope is a segment of
# lattice length 1, so by Ostrowski's theorem any factorization has a monomial
# factor, and the piece has none).  A polynomial with a piece that has no
# certificate is split by its gcd with each divisor the caller names, and the
# parts are factored in turn; only a part with neither a certificate nor a
# split goes to sympy.  No gcd with a derivative is tried: on the polynomials
# the pipeline factors it certifies few more of them.


def _split_pair(a: Polynomial, b: Polynomial) -> Optional[list]:
    fa = _split_certified(a)
    if fa is None:
        return None
    fb = _split_certified(b)
    return None if fb is None else fa + fb


def _split_certified(q: Polynomial) -> Optional[list]:
    """Irreducible factors of q, each up to a constant and repeated by its
    multiplicity, for q with no monomial factor; None when a piece has no
    certificate."""
    if q.is_constant():
        return []
    if _certified_irreducible(q):
        return [q]
    used = sorted(q.variables_used())
    for i in used:
        if q.degree_in(i) == 1:
            c = _content_of_piece(q, i)
            return [q] if c.is_constant() else _split_pair(c, exact_divide(q, c))
    for i in used:
        c = _content_of_piece(q, i)
        if not c.is_constant():
            return _split_pair(c, exact_divide(q, c))
    return None


def _certified_irreducible(q: Polynomial) -> bool:
    """Whether q, nonconstant with no monomial factor, has a certificate of
    irreducibility: two terms whose exponent difference is primitive, or
    degree 1 in a variable in which some coefficient has one term (so q is
    primitive in it, `_monomial_coefficient`)."""
    if len(q.num) == 2:
        a, b = q.num
        if math.gcd(*(x - y for x, y in zip(a, b))) == 1:
            return True
    return any(q.degree_in(i) == 1 and _monomial_coefficient(q, i) for i in q.variables_used())


def _monomial_coefficient(q: Polynomial, index: int) -> bool:
    """Whether some coefficient of q in variable `index` has one term: one
    monomial of q has that exponent of the variable."""
    return 1 in Counter(m[index] for m in q.num).values()


def _content_of_piece(q: Polynomial, index: int) -> Polynomial:
    """Content of q in variable `index`, for q with no monomial factor.  A
    coefficient with one term has only monomial divisors, and a monomial
    content would divide q, so the content is 1 then and no gcd is taken."""
    if _monomial_coefficient(q, index):
        return Polynomial.constant(q.ring, 1)
    return _content_wrt(q, index)


def _dense(terms: Mapping[Monomial, Fraction], n: int) -> list:
    """sympy's dense recursive representation of a polynomial in n variables
    (first variable outermost, leading coefficient first), by which sympy
    orders the factors it returns."""
    if not terms:
        zero = []
        for _ in range(n - 1):
            zero = [zero]
        return zero
    if n == 1:
        return [terms.get((e,), 0) for e in range(max(terms)[0], -1, -1)]
    rows: dict[int, dict] = {}
    for m, c in terms.items():
        rows.setdefault(m[0], {})[m[1:]] = c
    return [_dense(rows.get(e, {}), n - 1) for e in range(max(rows), -1, -1)]


def _in_sympy_form(p: Polynomial, pieces) -> tuple:
    """(content, [(factor, multiplicity)]) of a nonzero p, as sympy's
    factor_list returns it, from its irreducible factors given as (f, mult)
    with each f up to a constant."""
    mults: dict = {}
    for f, mult in pieces:
        # primitive with integer coefficients and a positive lex-leading
        # coefficient, as sympy returns its factors
        content = _int_content(f)
        f = f * (1 / (-content if f.num[max(f.num)] < 0 else content))
        mults[f] = mults.get(f, 0) + mult
    # the factors are integer polynomials: den == 1
    factors = sorted(mults.items(), key=lambda fm: (
        fm[0].degree_in(0) + 1, fm[1], _dense(fm[0].num, len(p.ring))))
    top = max(p.num)
    content = Fraction(p.num[top], p.den)
    for f, mult in factors:
        content /= f.num[max(f.num)] ** mult
    return content, factors


def _factor_certified(p: Polynomial) -> Optional[tuple]:
    """factor() of a nonzero p, as sympy returns it, when every irreducible
    factor has a certificate; None otherwise."""
    ring = p.ring
    low, rest = _monomial_content(p)
    pieces = _split_certified(rest)
    if pieces is None:
        return None
    return _in_sympy_form(p, [(Polynomial.variable(ring, i), e) for i, e in enumerate(low) if e]
                          + [(f, 1) for f in pieces])


def _factor_by_divisors(p: Polynomial, divisors: Sequence[Polynomial]) -> Optional[tuple]:
    """factor() of a nonzero p from the first divisor whose gcd with p is a
    proper factor g: the factors of g and of p/g, each factored with the
    same divisors; None when no divisor splits p."""
    for d in divisors:
        g = gcd(p, d)
        if 0 < g.total_degree() < p.total_degree():
            _, fg = factor(g, divisors)
            _, fq = factor(exact_divide(p, g), divisors)
            return _in_sympy_form(p, fg + fq)
    return None


def _factor_quadratic(p: Polynomial) -> Optional[tuple]:
    """factor() of a nonzero p of degree 2 in its one variable: with the
    coefficients a, b, c cleared to integers, two linear factors
    2a*x + b -+ sqrt(b^2 - 4ac) when the discriminant is a square, and p
    itself otherwise; None for any other p."""
    used = p.variables_used()
    if len(used) != 1:
        return None
    i, = used
    if p.degree_in(i) != 2:
        return None
    # the numerators over the common denominator: scaling a, b, c scales
    # the discriminant by a square and the factors by a constant
    by_degree = {m[i]: c for m, c in p.num.items()}
    a, b, c = (by_degree.get(e, 0) for e in (2, 1, 0))
    disc = b * b - 4 * a * c
    root = math.isqrt(disc) if disc >= 0 else -1
    if root * root != disc:
        return _in_sympy_form(p, [(p, 1)])
    x = Polynomial.variable(p.ring, i)
    return _in_sympy_form(p, [(x * (2 * a) + (b - root), 1), (x * (2 * a) + (b + root), 1)])


def factor(p: Polynomial, divisors: Sequence[Polynomial] = ()) -> tuple:
    """(content, [(factor, multiplicity)]): p = content * prod(factor **
    multiplicity), factors irreducible over Q, primitive with integer
    coefficients, in sympy's factor_list order.  A quadratic in one
    variable is decided by its discriminant.  Any other polynomial with a
    factor that has no certificate of irreducibility is first split by its
    gcd with each of the divisors (polynomials in p's ring that likely share
    factors with p); they change the speed, never the result.  sympy, the
    package's one use of it, is imported only for a part with neither a
    certificate nor a split, so that commands which factor nothing harder
    start without it."""
    if not p.is_zero():
        found = _factor_certified(p)
        if found is None:
            found = _factor_quadratic(p)
        if found is None:
            found = _factor_by_divisors(p, divisors)
        if found is not None:
            return found
    import sympy

    gens = [sympy.Symbol(name) for name in p.ring]
    rep = {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()}
    content, factors = sympy.factor_list(sympy.Poly.from_dict(rep, *gens, domain="QQ"))
    out = []
    for f, mult in factors:
        terms = {tuple(m): Fraction(c.p, c.q) for m, c in f.terms()}
        out.append((Polynomial._raw(p.ring, terms), int(mult)))
    return Fraction(content.p, content.q), out
