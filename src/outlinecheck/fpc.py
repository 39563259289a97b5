"""The clerk and expert interface between the kernel and certificates.

A certificate is an opaque value: the kernel never inspects it, it only
threads it through the predicates of an `FpcDefinition`.  Clerks accompany
invertible rules and merely transform the certificate; experts accompany
choice rules and return the alternatives the kernel is allowed to try, in
order.  Every predicate must be pure: same inputs, same outputs, and no
mutation of the certificate or of anything reachable from it.

Returning an empty list forbids the corresponding rule outright, which is
how a certificate format expresses budgets and gating.
"""

from __future__ import annotations

from typing import Any, Sequence, Union

from .syntax import Index, Term

Certificate = Any


# -- option values returned by experts


class _AnyFrozen:
    def __repr__(self) -> str:
        return "<any-frozen>"


ANY_FROZEN = _AnyFrozen()
IndexOption = Union[Index, _AnyFrozen]


class _Fresh:
    def __repr__(self) -> str:
        return "<fresh>"


FRESH = _Fresh()
TermOption = Union[Term, _Fresh]


class FpcDefinition:
    """Base class; the default behaviour forbids everything.

    Subclasses override the predicates they care about.  Alternatives are
    returned as sequences and tried by the kernel in the given order.
    """

    # -- asynchronous clerks

    def andl_clerk(self, cert: Certificate) -> Sequence[Certificate]:
        return ()

    def orl_clerk(self, cert: Certificate) -> Sequence[tuple[Certificate, Certificate]]:
        return ()

    def exl_clerk(self, cert: Certificate) -> Sequence[Certificate]:
        return ()

    def eql_clerk(self, cert: Certificate) -> Sequence[Certificate]:
        return ()

    def ttl_clerk(self, cert: Certificate) -> Sequence[Certificate]:
        return ()

    def ffl_clerk(self, cert: Certificate) -> Sequence[Certificate]:
        return ()

    def impr_clerk(self, cert: Certificate) -> Sequence[Certificate]:
        return ()

    def allr_clerk(self, cert: Certificate) -> Sequence[Certificate]:
        return ()

    def store_clerk(self, cert: Certificate) -> Sequence[tuple[Certificate, Index]]:
        """Consulted when a formula moves to the store; computes its index."""
        return ()

    # -- experts

    def decide_expert(self, cert: Certificate) -> Sequence[tuple[Certificate, Index]]:
        return ()

    def decide_right_expert(self, cert: Certificate) -> Sequence[Certificate]:
        return ()

    def initial_expert(self, cert: Certificate) -> Sequence[IndexOption]:
        return ()

    def or_expert(self, cert: Certificate) -> Sequence[tuple[Certificate, int]]:
        """Alternatives are (continuation, side) with side 1 or 2."""
        return ()

    def and_expert(self, cert: Certificate) -> Sequence[tuple[Certificate, Certificate]]:
        return ()

    def some_expert(self, cert: Certificate) -> Sequence[tuple[Certificate, TermOption]]:
        """Witness choices for right existentials and left universals."""
        return ()

    def true_expert(self, cert: Certificate) -> Sequence[Certificate]:
        return ()

    def unfold_left_expert(self, cert: Certificate) -> Sequence[Certificate]:
        return ()

    def unfold_right_expert(self, cert: Certificate) -> Sequence[Certificate]:
        return ()

    def ind_expert(self, cert: Certificate) -> Sequence[Certificate]:
        """Certificates for the invariance premise of an obvious induction.

        The kernel synthesises the invariant itself and discharges the left
        premise canonically, so that premise takes no certificate.
        """
        return ()
