"""Proof-outline certificates: budgeted "induct, then chain lemmas" checking.

An outline gives three budgets — decides `d`, left unfolds `uA`, right
unfolds `uS` — and optionally a lemma supply.  The FPC below answers the
five choices the kernel asks a certificate about (see `fpc`): on the way in
(invertible phase) every fixed point may be frozen under the next
hypothesis serial, unfolded within `uA`, or taken as the induction target
with the obvious invariant; once an induction has fired, no further
induction is offered.  At a border sequent, deciding on a lemma or a
stored hypothesis consumes one unit of `d`.  Under right focus a fixed
point may unfold within `uS`.  The kernel decides the rest by itself:
deciding on the stored goal is always allowed, a fixed point may close
against any stored atom (an atomic lemma too, without spending `d` and
whatever the lemma supply), and witnesses are fresh metavariables that its
backtracking resolves.

Concrete syntax (shipped with each theorem):

    (induction D UA US)
    (induction D (lemmas N1 ... Nk) UA US)
    (tree T D UA US)      with T ::= NAME | (NAME T1 ... Tn)

The lemma supply is (i) everything previously proved, in table order,
(ii) the listed names, or (iii) a tree of names: a decide may use any
currently exposed root, which then exposes that node's children for the
conjunctive subproofs.  Tree decides are bounded by the tree itself; in
tree form `d` budgets only decides on stored hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .fpc import Certificate, FpcDefinition
from .syntax import (
    Hyp, Index, LemmaName, SExp, Sym, TraceFormatError, int_from_sexp, parse_sexp, sym,
)


class OutlineError(Exception):
    pass


# lemma-supply tree: a name with subtrees exposed once the name is used
Tree = tuple[Sym, tuple["Tree", ...]]


@dataclass(frozen=True)
class OutlineState:
    """The certificate: what parse_outline reads, and what the kernel
    threads through an outline check."""
    d: int
    uA: int
    uS: int
    inducted: bool
    hyps: int  # highest allocated hypothesis serial
    # lemma supply: a tuple of names, or the exposed trees in tree mode;
    # None until initial_state puts in the whole lemma table
    supply: Union[None, tuple[Sym, ...], tuple[Tree, ...]]
    tree_mode: bool


def _budget(s: SExp, what: str) -> int:
    try:
        n = int_from_sexp(s)
    except TraceFormatError:
        raise OutlineError(f"{what} budget must be a number, got {s!r}") from None
    if n < 0:
        raise OutlineError(f"{what} budget must be nonnegative, got {n}")
    return n


def _tree(s: SExp) -> Tree:
    if isinstance(s, str):
        return (sym(s), ())
    if isinstance(s, tuple) and s and isinstance(s[0], str):
        return (sym(s[0]), tuple(_tree(x) for x in s[1:]))
    raise OutlineError(f"malformed lemma tree: {s!r}")


def parse_outline(text: str) -> OutlineState:
    """Parse the concrete certificate syntax (see the module docstring)
    into the state a check starts from."""
    try:
        s = parse_sexp(text)
    except TraceFormatError as e:
        raise OutlineError(f"unreadable certificate: {e}") from None
    if not isinstance(s, tuple) or not s or not isinstance(s[0], str):
        raise OutlineError(f"unreadable certificate: {text!r}")
    head = s[0]
    if head == "induction" and len(s) == 4:
        d, a, u, supply = s[1], s[2], s[3], None
    elif head == "induction" and len(s) == 5:
        names = s[2]
        if not (isinstance(names, tuple) and names and names[0] == "lemmas"
                and all(isinstance(n, str) for n in names[1:])):
            raise OutlineError(f"malformed lemma list: {names!r}")
        d, a, u, supply = s[1], s[3], s[4], tuple(sym(n) for n in names[1:])
    elif head == "tree" and len(s) == 5:
        d, a, u, supply = s[2], s[3], s[4], (_tree(s[1]),)
    else:
        raise OutlineError(f"unrecognised certificate form: {text!r}")
    return OutlineState(_budget(d, "decide"), _budget(a, "async unfold"),
                        _budget(u, "sync unfold"), False, 0, supply, head == "tree")


def initial_state(cert: OutlineState, table: Sequence[Sym]) -> OutlineState:
    """Bind a parsed certificate to the lemma table: a supply of None
    becomes the whole table, and any other may name only lemmas in it."""
    if cert.supply is None:
        return OutlineState(cert.d, cert.uA, cert.uS, False, 0, tuple(table), False)
    available = set(table)
    todo = list(reversed(cert.supply))
    while todo:
        name = todo.pop()
        if cert.tree_mode:
            name, kids = name
            todo.extend(reversed(kids))
        if name not in available:
            raise OutlineError(f"unknown lemma in certificate: {name.name}")
    return cert


class OutlineFpc(FpcDefinition):
    """Clerks and experts realising the outline policy on OutlineState.
    Each builds the next state directly: on this hot path
    dataclasses.replace costs more than twice as much."""

    def store_clerk(self, cert):
        n = cert.hyps + 1
        nxt = OutlineState(cert.d, cert.uA, cert.uS, cert.inducted, n,
                           cert.supply, cert.tree_mode)
        return ((nxt, Hyp(n)),)

    # border
    def decide_expert(self, cert):
        out: list[tuple[Certificate, Index]] = []
        if cert.tree_mode:
            trees: tuple[Tree, ...] = cert.supply
            for i, (name, kids) in enumerate(trees):
                rest = trees[:i] + kids + trees[i + 1:]
                out.append((OutlineState(cert.d, cert.uA, cert.uS, cert.inducted,
                                         cert.hyps, rest, True), LemmaName(name)))
        if cert.d <= 0:
            return out or ()
        nxt = OutlineState(cert.d - 1, cert.uA, cert.uS, cert.inducted,
                           cert.hyps, cert.supply, cert.tree_mode)
        if not cert.tree_mode:
            out += ((nxt, LemmaName(n)) for n in cert.supply)
        out += ((nxt, Hyp(k)) for k in range(1, cert.hyps + 1))
        return out

    # fixed points
    def unfold_left_expert(self, cert):
        if cert.uA <= 0:
            return ()
        return (OutlineState(cert.d, cert.uA - 1, cert.uS, cert.inducted,
                             cert.hyps, cert.supply, cert.tree_mode),)

    def unfold_right_expert(self, cert):
        if cert.uS <= 0:
            return ()
        return (OutlineState(cert.d, cert.uA, cert.uS - 1, cert.inducted,
                             cert.hyps, cert.supply, cert.tree_mode),)

    def ind_expert(self, cert):
        if cert.inducted:
            return ()
        return (OutlineState(cert.d, cert.uA, cert.uS, True,
                             cert.hyps, cert.supply, cert.tree_mode),)


OUTLINE_FPC = OutlineFpc()
