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
tree form `d` budgets only decides on stored hypotheses.  The supply holds
the store indexes themselves, built once: `LemmaName`s, or in tree form
(`LemmaName`, subtrees) pairs, so each entry tells its own form.
"""

from __future__ import annotations

from typing import Sequence, Union

from .fpc import FpcDefinition
from .syntax import (
    Hyp, LemmaName, Record, SExp, Sym, TraceFormatError, _set, int_from_sexp, parse_sexp,
    sym,
)


class OutlineError(Exception):
    pass


# lemma-supply tree: a lemma's index with subtrees exposed once it is used
Tree = tuple[LemmaName, tuple["Tree", ...]]


class OutlineState(Record):
    """The certificate: what parse_outline reads, and what the kernel
    threads through an outline check.  `hyps` holds the indexes the store
    clerk handed out, in serial order.  `supply` holds LemmaNames, each
    decided on for one unit of `d`, or the exposed trees, each used up by
    a free decide; it is None until initial_state puts in the lemma table."""
    __slots__ = __match_args__ = ("d", "uA", "uS", "inducted", "hyps", "supply")

    def __init__(self, d: int, uA: int, uS: int, inducted: bool, hyps: tuple[Hyp, ...],
                 supply: Union[None, tuple[LemmaName, ...], tuple[Tree, ...]]) -> None:
        _set(self, "d", d)
        _set(self, "uA", uA)
        _set(self, "uS", uS)
        _set(self, "inducted", inducted)
        _set(self, "hyps", hyps)
        _set(self, "supply", supply)


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
        return (LemmaName(sym(s)), ())
    if isinstance(s, tuple) and s and isinstance(s[0], str):
        return (LemmaName(sym(s[0])), tuple(_tree(x) for x in s[1:]))
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
        d, a, u, supply = s[1], s[3], s[4], tuple(LemmaName(sym(n)) for n in names[1:])
    elif head == "tree" and len(s) == 5:
        d, a, u, supply = s[2], s[3], s[4], (_tree(s[1]),)
    else:
        raise OutlineError(f"unrecognised certificate form: {text!r}")
    return OutlineState(_budget(d, "decide"), _budget(a, "async unfold"),
                        _budget(u, "sync unfold"), False, (), supply)


def initial_state(cert: OutlineState, table: Sequence[Sym]) -> OutlineState:
    """Bind a parsed certificate to the lemma table: a supply of None
    becomes the whole table, and any other may name only lemmas in it."""
    if cert.supply is None:
        return OutlineState(cert.d, cert.uA, cert.uS, False, (),
                            tuple(LemmaName(n) for n in table))
    available = set(table)
    todo = list(reversed(cert.supply))
    while todo:
        ix = todo.pop()
        if ix.__class__ is tuple:
            ix, kids = ix
            todo.extend(reversed(kids))
        if ix.name not in available:
            raise OutlineError(f"unknown lemma in certificate: {ix.name.name}")
    return cert


class OutlineFpc(FpcDefinition):
    """Clerks and experts realising the outline policy on OutlineState.
    Each builds the next state directly, with OutlineState's own
    __init__: this is a hot path."""

    def store_clerk(self, cert):
        ix = Hyp(len(cert.hyps) + 1)
        return ((OutlineState(cert.d, cert.uA, cert.uS, cert.inducted, cert.hyps + (ix,),
                              cert.supply), ix),)

    # border: the supply in order, then the hypotheses, each built when asked for
    def decide_expert(self, cert):
        d, uA, uS, inducted, hyps, supply = (cert.d, cert.uA, cert.uS, cert.inducted,
                                             cert.hyps, cert.supply)
        spent = OutlineState(d - 1, uA, uS, inducted, hyps, supply) if d > 0 else None
        for i, ix in enumerate(supply):
            if ix.__class__ is tuple:  # a tree: free, and used up
                ix, kids = ix
                yield OutlineState(d, uA, uS, inducted, hyps,
                                   supply[:i] + kids + supply[i + 1:]), ix
            elif spent is not None:
                yield spent, ix
        if spent is not None:
            yield from ((spent, ix) for ix in hyps)

    # fixed points
    def unfold_left_expert(self, cert):
        if cert.uA <= 0:
            return ()
        return (OutlineState(cert.d, cert.uA - 1, cert.uS, cert.inducted,
                             cert.hyps, cert.supply),)

    def unfold_right_expert(self, cert):
        if cert.uS <= 0:
            return ()
        return (OutlineState(cert.d, cert.uA, cert.uS - 1, cert.inducted,
                             cert.hyps, cert.supply),)

    def ind_expert(self, cert):
        if cert.inducted:
            return ()
        return (OutlineState(cert.d, cert.uA, cert.uS, True,
                             cert.hyps, cert.supply),)


OUTLINE_FPC = OutlineFpc()
