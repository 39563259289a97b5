"""Proof-outline certificates: budgeted "induct, then chain lemmas" checking.

An outline gives three budgets — decides `d`, left unfolds `uA`, right
unfolds `uS` — and optionally a lemma supply.  The FPC below elaborates an
outline as follows: on the way in (invertible phase) every fixed point may
be frozen, unfolded within `uA`, or taken as the induction target with the
obvious invariant; once an induction has fired, no further induction is
offered.  At a border sequent, deciding on the stored goal is always
allowed, while deciding on a lemma or a stored hypothesis consumes one
unit of `d`.  Under right focus a fixed point may close against any frozen
atom or unfold within `uS`.  Witnesses are always fresh metavariables; the
kernel's backtracking resolves them.

Concrete syntax (shipped with each theorem):

    (induction D UA US)
    (induction D (lemmas N1 ... Nk) UA US)
    (tree T D UA US)      with T ::= NAME | (NAME T1 ... Tn)

The lemma supply is (i) everything previously proved, (ii) the listed
names, or (iii) a tree of names: a decide may use any currently exposed
root, which then exposes that node's children for the conjunctive
subproofs.  Tree decides are bounded by the tree itself; in tree form `d`
budgets only decides on stored hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Union

from .fpc import ANY_FROZEN, FRESH, Certificate, FpcDefinition
from .syntax import Hyp, Index, LemmaName, Sym, sym
from .trace import SExp, TraceFormatError, parse_sexp


class OutlineError(Exception):
    pass


# lemma-supply tree: a name with subtrees exposed once the name is used
Tree = tuple[Sym, tuple["Tree", ...]]


@dataclass(frozen=True)
class Induction:
    d: int
    uA: int
    uS: int


@dataclass(frozen=True)
class WithLemmas:
    d: int
    names: tuple[Sym, ...]
    uA: int
    uS: int


@dataclass(frozen=True)
class LemmaTree:
    root: Tree
    d: int
    uA: int
    uS: int


OutlineCert = Union[Induction, WithLemmas, LemmaTree]


def _budget(s: SExp, what: str) -> int:
    if not isinstance(s, str):
        raise OutlineError(f"{what} budget must be a number, got {s!r}")
    try:
        n = int(s)
    except ValueError:
        raise OutlineError(f"{what} budget must be a number, got {s!r}") from None
    if n < 0:
        raise OutlineError(f"{what} budget must be nonnegative, got {n}")
    return n


def _tree(s: SExp) -> Tree:
    if isinstance(s, str):
        return (sym(s), ())
    if isinstance(s, list) and s and isinstance(s[0], str):
        return (sym(s[0]), tuple(_tree(x) for x in s[1:]))
    raise OutlineError(f"malformed lemma tree: {s!r}")


def parse_outline(text: str) -> OutlineCert:
    """Parse the concrete certificate syntax; see the module docstring."""
    try:
        s = parse_sexp(text)
    except TraceFormatError as e:
        raise OutlineError(f"unreadable certificate: {e}") from None
    if not isinstance(s, list) or not s or not isinstance(s[0], str):
        raise OutlineError(f"unreadable certificate: {text!r}")
    head = s[0]
    if head == "induction" and len(s) == 4:
        return Induction(_budget(s[1], "decide"), _budget(s[2], "async unfold"),
                         _budget(s[3], "sync unfold"))
    if head == "induction" and len(s) == 5:
        names = s[2]
        if not (isinstance(names, list) and names and names[0] == "lemmas"
                and all(isinstance(n, str) for n in names[1:])):
            raise OutlineError(f"malformed lemma list: {names!r}")
        return WithLemmas(_budget(s[1], "decide"),
                          tuple(sym(n) for n in names[1:]),
                          _budget(s[3], "async unfold"),
                          _budget(s[4], "sync unfold"))
    if head == "tree" and len(s) == 5:
        return LemmaTree(_tree(s[1]), _budget(s[2], "decide"),
                         _budget(s[3], "async unfold"),
                         _budget(s[4], "sync unfold"))
    raise OutlineError(f"unrecognised certificate form: {text!r}")


# ---------------------------------------------------------------------------
# threaded state


@dataclass(frozen=True)
class OutlineState:
    """The certificate the kernel threads through an outline check."""
    d: int
    uA: int
    uS: int
    inducted: bool
    hyps: int  # highest allocated hypothesis serial
    # lemma supply: None = the whole table, a tuple of names, or exposed trees
    supply: Union[None, tuple[Sym, ...], tuple[Tree, ...]]
    tree_mode: bool
    table: tuple[Sym, ...]


def initial_state(cert: OutlineCert, table: Sequence[Sym]) -> OutlineState:
    table = tuple(table)
    available = set(table)

    def check_names(names) -> None:
        for n in names:
            if n not in available:
                raise OutlineError(f"unknown lemma in certificate: {n.name}")

    match cert:
        case Induction(d=d, uA=a, uS=s):
            return OutlineState(d, a, s, False, 0, None, False, table)
        case WithLemmas(d=d, names=ns, uA=a, uS=s):
            check_names(ns)
            return OutlineState(d, a, s, False, 0, ns, False, table)
        case LemmaTree(root=t, d=d, uA=a, uS=s):
            def walk(node: Tree) -> None:
                check_names((node[0],))
                for c in node[1]:
                    walk(c)
            walk(t)
            return OutlineState(d, a, s, False, 0, (t,), True, table)
    raise OutlineError(f"not an outline certificate: {cert!r}")


class OutlineFpc(FpcDefinition):
    """Clerks and experts realising the outline policy on OutlineState."""

    # invertible rules pass the state through
    def andl_clerk(self, cert):
        return (cert,)

    def orl_clerk(self, cert):
        return ((cert, cert),)

    def exl_clerk(self, cert):
        return (cert,)

    def eql_clerk(self, cert):
        return (cert,)

    def ttl_clerk(self, cert):
        return (cert,)

    def ffl_clerk(self, cert):
        return (cert,)

    def impr_clerk(self, cert):
        return (cert,)

    def allr_clerk(self, cert):
        return (cert,)

    def store_clerk(self, cert):
        n = cert.hyps + 1
        return ((replace(cert, hyps=n), Hyp(n)),)

    # border
    def decide_expert(self, cert):
        out: list[tuple[Certificate, Index]] = []
        if cert.tree_mode:
            trees: tuple[Tree, ...] = cert.supply
            for i, (name, kids) in enumerate(trees):
                rest = trees[:i] + kids + trees[i + 1:]
                out.append((replace(cert, supply=rest), LemmaName(name)))
            if cert.d > 0:
                nxt = replace(cert, d=cert.d - 1)
                for k in range(1, cert.hyps + 1):
                    out.append((nxt, Hyp(k)))
            return out
        if cert.d <= 0:
            return ()
        nxt = replace(cert, d=cert.d - 1)
        names = cert.table if cert.supply is None else cert.supply
        for n in names:
            out.append((nxt, LemmaName(n)))
        for k in range(1, cert.hyps + 1):
            out.append((nxt, Hyp(k)))
        return out

    def decide_right_expert(self, cert):
        return (cert,)

    # synchronous experts
    def initial_expert(self, cert):
        return (ANY_FROZEN,)

    def or_expert(self, cert):
        return ((cert, 1), (cert, 2))

    def and_expert(self, cert):
        return ((cert, cert),)

    def some_expert(self, cert):
        return ((cert, FRESH),)

    def true_expert(self, cert):
        return (cert,)

    def unfold_left_expert(self, cert):
        if cert.uA <= 0:
            return ()
        return (replace(cert, uA=cert.uA - 1),)

    def unfold_right_expert(self, cert):
        if cert.uS <= 0:
            return ()
        return (replace(cert, uS=cert.uS - 1),)

    def ind_expert(self, cert):
        if cert.inducted:
            return ()
        return (replace(cert, inducted=True),)


OUTLINE_FPC = OutlineFpc()
