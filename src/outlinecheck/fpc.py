"""The clerk and expert interface between the kernel and certificates.

A certificate is an opaque value: the kernel never inspects it, it only
threads it through the predicates of an `FpcDefinition`.  The interface
holds only the five predicates at which a certificate makes a choice: the
clerk that names a stored hypothesis, and the experts for deciding, for
unfolding a fixed point on the left and on the right, and for the obvious
induction.  Each returns the alternatives the kernel may try, as any
iterable, which the kernel draws in order only as its search asks, so they
may be made lazily.  Every predicate must be pure: same inputs, same
outputs, and no mutation of the certificate or of anything reachable from it.

Returning no alternative forbids the corresponding rule outright, which is
how a certificate format expresses budgets and gating.  Every other rule
the kernel fires by itself, passing the certificate through unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence

from .syntax import Index

Certificate = object


class FpcDefinition:
    """Base class; the default behaviour forbids every choice.

    Subclasses override the predicates they care about.  Alternatives are
    returned as any iterable and tried by the kernel in the given order.
    """

    def store_clerk(self, cert: Certificate) -> Sequence[tuple[Certificate, Index]]:
        """Consulted when a formula moves to the store; computes its index."""
        return ()

    def decide_expert(self, cert: Certificate) -> Sequence[tuple[Certificate, Index]]:
        """Store entries a border sequent may decide on (decideL)."""
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
