"""Structured errors shared across the package."""

from __future__ import annotations


class LeafmultError(Exception):
    """Base class for all package errors."""


class RingMismatchError(LeafmultError):
    """Two polynomials from different rings were combined."""


class ParseError(LeafmultError):
    """Polynomial or manifest text failed to parse."""


class DomainError(LeafmultError):
    """An operation received an input outside its mathematical domain
    (zero polynomial where nonzero required, bad variable index, ...)."""


class HypothesisError(LeafmultError):
    """A geometric hypothesis failed: non-commuting fields, singular base
    point, pair containment failure, missing precondition of a step."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BudgetExceededError(LeafmultError):
    """A computation hit its configured resource cap; `stage` names where."""

    def __init__(self, message, stage=""):
        super().__init__(message)
        self.stage = stage


class RegenerationRequest(LeafmultError):
    """A truncated-series computation needs its inputs at a higher order.

    Drivers that hold producers catch this, re-emit jets at ``needed_order``
    and retry.
    """

    def __init__(self, needed_order, message=""):
        super().__init__(message or f"need jets regenerated at order {needed_order}")
        self.needed_order = needed_order


class InconclusiveError(LeafmultError):
    """A certified answer could not be produced at the available order and
    no producer is available to regenerate inputs.  Distinct from an
    'infinite' answer, which is only ever returned with a branch-matching
    certificate."""


class CertificateError(LeafmultError):
    """An internal certificate that should hold by construction failed.
    Indicates an implementation bug, never a property of the input."""
