"""On-leaf witness construction over monodromy-stable branch subsets.

For a polynomial F in an ideal I whose intersections with the foliation
are all non-isolated, the restriction factors as f*h with h carried by the
variety trace.  Multiplying, over every branch subset stable under the
x-monodromy (always a union of whole cycles, with multiplicities), the
monic products of the chosen branches yields a function H on the leaf that
divides h^(2^mu) and vanishes on the variety trace; both facts are checked
here by certified jet division, never assumed.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .errors import CertificateError, HypothesisError
from .foliation import FoliationContext
from .germs import branch_product, cycles_on, germ_cycles, germ_divides, split_on_variety
from .ideals import IdealPresentation, member
from .jets import Jet2
from .pairs import find_transverse_pair, make_pair
from .poly import Polynomial

# leaf-jet order of the witness construction unless the caller sets one
WITNESS_JET_ORDER = 16


class MonodromicSubset:
    """A sub-multiset of the branch cycles: per cycle, a chosen multiplicity
    between 0 and its multiplicity in the branch set (not all zero).
    Whole-cycle choices are exactly the monodromy-stable subsets."""

    __slots__ = ("choices",)

    def __init__(self, choices: tuple):
        self.choices = choices  # one integer per cycle

    def size(self) -> int:
        return sum(self.choices)

    def describe(self) -> list:
        return list(self.choices)


def enumerate_monodromic(cycles: Sequence) -> list:
    """All nonempty sub-multisets built from whole cycles.

    The count is prod(multiplicity + 1) - 1, at most 2^mu - 1."""
    ranges = [range(c.multiplicity + 1) for c in cycles]
    out = []
    for choices in itertools.product(*ranges):
        if any(choices):
            out.append(MonodromicSubset(tuple(choices)))
    return out


class ExtensionWitness:
    """H with its two checked certificates: divisibility of h^(2^mu) by H
    on the leaf, and vanishing of H on every branch of the variety trace."""

    __slots__ = ("H", "subsets", "mu", "certificate_order", "h", "cycles",
                 "divisibility_checked", "vanishing_checked")

    def __init__(self, H: Jet2, subsets: list, mu: int, certificate_order: int, h: Jet2,
                 cycles: Optional[list] = None, divisibility_checked: bool = False,
                 vanishing_checked: bool = False):
        self.H = H
        self.subsets = subsets
        self.mu = mu
        self.certificate_order = certificate_order
        self.h = h
        self.cycles = [] if cycles is None else cycles
        self.divisibility_checked = divisibility_checked
        self.vanishing_checked = vanishing_checked

    def describe(self) -> dict:
        return {
            "H": str(self.H.to_polynomial()),
            "mu": self.mu,
            "subset_count": len(self.subsets),
            "subsets": [s.describe() for s in self.subsets],
            "cycles": [c.describe() for c in self.cycles],
            "certificate_order": self.certificate_order,
            "h": str(self.h.to_polynomial()),
            "divisibility_checked": self.divisibility_checked,
            "vanishing_checked": self.vanishing_checked,
        }


def construct_witness(F: Polynomial, ideal: IdealPresentation, ctx: FoliationContext,
                      order: int = WITNESS_JET_ORDER) -> ExtensionWitness:
    """Build H = product of the branch products over all monodromic subsets
    of the variety-supported factor of F's restriction, and check both
    certificates.  Hypotheses (membership and non-isolatedness) are
    rejected before any computation."""
    if not member(F, ideal):
        raise HypothesisError("witness construction requires F in the ideal")
    if ideal.is_zero_ideal():
        raise HypothesisError("witness construction needs a nonzero ideal")
    restrictions = [ctx.leaf_jet(g, order) for g in ideal.generators]
    nonzero = [j for j in restrictions if not j.is_zero()]
    if not nonzero:
        raise HypothesisError("the variety trace is the whole leaf")
    pair = make_pair(ideal, restrictions, ctx, cert_order=order)
    if find_transverse_pair(pair) is not None:
        raise HypothesisError(
            "isolated intersections detected: the witness hypotheses fail")
    h, f, cycles = split_on_variety(ctx.leaf_jet(F, order), restrictions, order)
    mu = h.vanishing_order()
    if mu is None or mu == 0:
        raise HypothesisError("the variety-supported factor does not vanish at p")
    subsets = enumerate_monodromic(cycles)
    if len(subsets) > 2 ** mu:
        raise CertificateError(
            f"{len(subsets)} monodromic subsets exceed the 2^mu bound {2 ** mu}")
    H = Jet2.constant(1, order)
    for s in subsets:
        H = H * branch_product(cycles, order, s.choices)
    witness = ExtensionWitness(H=H, subsets=subsets, mu=mu,
                               certificate_order=order, h=h, cycles=list(cycles))
    # certificate 1: H divides h^(2^mu) on the leaf
    target = h.at_order(order) ** (2 ** mu)
    if not germ_divides(target, H, order):
        raise CertificateError("witness does not divide the required power")
    witness.divisibility_checked = True
    # certificate 2: H vanishes on every branch of the variety trace, the
    # branches of the first nonzero restriction on which the others vanish
    for cyc in cycles_on(germ_cycles(nonzero[0]).cycles, nonzero[1:]):
        if not germ_divides(H, cyc.factor):
            raise CertificateError(
                f"witness does not vanish on the branch {cyc.factor.to_polynomial()}")
    witness.vanishing_checked = True
    ordH = H.vanishing_order() or 0
    if ordH > 2 ** mu * mu:
        raise CertificateError("witness order exceeds the subset-count bound")
    return witness

