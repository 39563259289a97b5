"""Proof traces: replayable records of accepted checks.

A trace is a tree of rule records.  Each record names the rule and the
choice data it consumed: a witness term (fully resolved), a store index,
a disjunct side, or which obvious invariant an induction used, its
flavour (0 folds the stored atomic hypotheses, 1 is bare); replay
computes the principal formula and the invariant itself.  Traces are
serialised one record per line, in preorder, with an explicit child
count, so a file can be parsed without lookahead:

    (rule NCHILDREN TERM INDEX INVARIANT SIDE)

Absent fields are written as `nil`; every other field is written as its
repr, the concrete syntax that `syntax` owns and reads back.  A record
holds only terms, indexes and integers, so reading a trace needs no
definition table.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .syntax import (
    SExp, Term, TraceFormatError, index_from_sexp, int_from_sexp, parse_sexp, term_from_sexp,
)

# every rule's premise count and the fields its record carries:
# asynchronous, border, then synchronous rules
RULES: dict[str, tuple[int, tuple[str, ...]]] = {
    "andL": (1, ()), "orL": (2, ()), "exL": (1, ("term",)), "eqL": (1, ()),
    "eqL_clash": (0, ()), "ttL": (1, ()), "ffL": (0, ()),
    "storeL": (1, ("index",)), "freeze": (1, ("index",)), "unfoldL": (1, ()),
    "induct_obvious": (1, ("term", "invariant")),
    "impR": (1, ()), "allR": (1, ("term",)), "storeR": (1, ()),
    "decideL": (1, ("index",)), "decideR": (1, ()),
    "orR": (1, ("side",)), "andR": (2, ()), "exR": (1, ("term",)),
    "eqR": (0, ()), "ttR": (0, ()), "unfoldR": (1, ()), "initial": (0, ("index",)),
    "allL": (1, ("term",)), "impL": (2, ()), "releaseL": (1, ()), "releaseR": (1, ()),
}


class TraceNode(namedtuple("TraceNode", "rule children term index invariant side",
                           defaults=((), None, None, None, None))):
    """One record and its premises, built as cheaply as a tuple and equal to
    the plain tuple of its fields.  `invariant` is the flavour, a slot of
    synthesize_obvious_invariants; a field the rule lacks is None."""

    __slots__ = ()

    def walk(self) -> Iterator[TraceNode]:
        """The records of this subtree in preorder, off an explicit stack."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def count_rule(trace: TraceNode, rule: str) -> int:
    return sum(1 for n in trace.walk() if n.rule == rule)


def trace_to_lines(trace: TraceNode) -> list[str]:
    return [f"({n.rule} {len(n.children)} "
            + " ".join("nil" if v is None else repr(v)
                       for v in (n.term, n.index, n.invariant, n.side))
            + ")" for n in trace.walk()]


def trace_from_lines(lines: list[str], defs=None) -> TraceNode:
    """Read a trace in one pass over its lines, parsing each distinct line
    once and counting the records still owed, `need`: a record when none is
    owed is surplus, and any owed at the end leave the trace truncated.  An
    error names its line, blank lines counted: in a file that `--trace`
    wrote, replay's record number.  The tree is then built last record
    first.  Nothing reads `defs`, kept for callers that still pass one."""
    memo: dict[SExp, Term] = {}  # shared by every record: see term_from_sexp
    lists: dict[tuple, tuple] = {}  # shared by every record: see parse_sexp
    seen: dict[str, tuple] = {}
    records: list[tuple] = []
    need = 1
    for i, line in enumerate(lines, 1):
        if not line.strip():
            continue
        fields = seen.get(line)
        try:
            if not need:
                raise TraceFormatError("surplus record after the end of the proof")
            if fields is None:
                rec = parse_sexp(line, lists)
                if not isinstance(rec, tuple) or len(rec) != 6 or not isinstance(rec[0], str):
                    raise TraceFormatError(f"bad record shape: {rec!r}")
                rule, ncs, tm, ixs, invs, sds = rec
                if rule not in RULES:
                    raise TraceFormatError(f"unknown rule: {rule}")
                n = int_from_sexp(ncs)
                if n < 0:
                    raise TraceFormatError(f"negative premise count: {n}")
                fields = seen[line] = (
                    rule, n,
                    None if tm == "nil" else term_from_sexp(tm, memo),
                    None if ixs == "nil" else index_from_sexp(ixs),
                    None if invs == "nil" else int_from_sexp(invs),
                    None if sds == "nil" else int_from_sexp(sds))
        except TraceFormatError as e:
            raise TraceFormatError(f"line {i}: {e}") from None
        need += fields[1] - 1
        records.append(fields)
    if need:
        raise TraceFormatError(f"line {len(lines) + 1}: truncated trace: {need} records missing")
    done: list[TraceNode] = []
    for rule, n, term, index, invariant, side in reversed(records):
        children = tuple(reversed(done[len(done) - n:]))
        del done[len(done) - n:]
        done.append(TraceNode(rule, children, term, index, invariant, side))
    return done[0]
