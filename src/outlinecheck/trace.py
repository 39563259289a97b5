"""Proof traces: replayable records of accepted checks.

A trace is a tree of rule records.  Each record names the rule, the
principal formula it acted on (fully resolved), and whatever choice data
the rule consumed: a witness term, a store index, a disjunct side, or an
induction invariant.  Traces are serialised one record per line, in
preorder, with an explicit child count, so a file can be parsed without
lookahead:

    (rule NCHILDREN PRINCIPAL TERM INDEX INVARIANT SIDE)

Absent fields are written as `nil`.  Terms and formulas are s-expressions;
fixed-point atoms reference their definition by name, so deserialising
needs the definition table of the session that produced the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .syntax import (
    FF, SELF, TT, All, And, App, Bound, Definition, EVar, Eq, Ex, Ff, Formula,
    Hyp, Imp, Index, InvariantAbs, LemmaName, MVar, MuAtom, Or, Term, Tt, sym,
)

# every rule's premise count and the fields its record carries besides the
# principal formula: asynchronous, border, then synchronous rules
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
ALL_RULES = frozenset(RULES)


@dataclass(frozen=True)
class TraceNode:
    rule: str
    children: tuple["TraceNode", ...] = ()
    formula: Optional[Formula] = None
    term: Optional[Term] = None
    index: Optional[Index] = None
    invariant: Optional[InvariantAbs] = None
    side: Optional[int] = None

    def walk(self) -> Iterator["TraceNode"]:
        yield self
        for c in self.children:
            yield from c.walk()


def count_rule(trace: TraceNode, rule: str) -> int:
    return sum(1 for n in trace.walk() if n.rule == rule)


# ---------------------------------------------------------------------------
# s-expressions


def term_to_sexp(t: Term) -> str:
    match t:
        case EVar(id=i, level=lv):
            return f"(ev {i} {lv})"
        case MVar(id=i, level=lv):
            return f"(mv {i} {lv})"
        case Bound(index=j):
            return f"(bv {j})"
        case App(head=h, args=()):
            return h.name
        case App(head=h, args=ts):
            return f"({h.name} {' '.join(term_to_sexp(x) for x in ts)})"
    raise TypeError(f"not a term: {t!r}")


def formula_to_sexp(f: Formula) -> str:
    match f:
        case Eq(l=l, r=r):
            return f"(eq {term_to_sexp(l)} {term_to_sexp(r)})"
        case And(a=a, b=b):
            return f"(and {formula_to_sexp(a)} {formula_to_sexp(b)})"
        case Or(a=a, b=b):
            return f"(or {formula_to_sexp(a)} {formula_to_sexp(b)})"
        case Imp(a=a, b=b):
            return f"(imp {formula_to_sexp(a)} {formula_to_sexp(b)})"
        case All(body=b):
            return f"(all {formula_to_sexp(b)})"
        case Ex(body=b):
            return f"(ex {formula_to_sexp(b)})"
        case MuAtom(defn=d, args=ts):
            name = "%self" if d is SELF else d.name.name
            inner = "".join(" " + term_to_sexp(x) for x in ts)
            return f"(mu {name}{inner})"
        case Tt():
            return "tt"
        case Ff():
            return "ff"
    raise TypeError(f"not a formula: {f!r}")


def index_to_sexp(ix: Index) -> str:
    match ix:
        case LemmaName(name=n):
            return f"(lemma {n.name})"
        case Hyp(serial=k):
            return f"(hyp {k})"
    raise TypeError(f"not an index: {ix!r}")


def node_to_sexp(n: TraceNode) -> str:
    parts = [
        n.rule,
        str(len(n.children)),
        formula_to_sexp(n.formula) if n.formula is not None else "nil",
        term_to_sexp(n.term) if n.term is not None else "nil",
        index_to_sexp(n.index) if n.index is not None else "nil",
        f"(inv {n.invariant.arity} {formula_to_sexp(n.invariant.body)})"
        if n.invariant is not None else "nil",
        str(n.side) if n.side is not None else "nil",
    ]
    return f"({' '.join(parts)})"


def trace_to_lines(trace: TraceNode) -> list[str]:
    lines: list[str] = []

    def emit(n: TraceNode) -> None:
        lines.append(node_to_sexp(n))
        for c in n.children:
            emit(c)

    emit(trace)
    return lines


# ---------------------------------------------------------------------------
# parsing

SExp = Union[str, list]


class TraceFormatError(Exception):
    pass


def _tokenize(line: str) -> list[str]:
    return line.replace("(", " ( ").replace(")", " ) ").split()


def _read(tokens: list[str], pos: int) -> tuple[SExp, int]:
    if pos >= len(tokens):
        raise TraceFormatError("unexpected end of record")
    tok = tokens[pos]
    if tok == "(":
        out: list[SExp] = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read(tokens, pos)
            out.append(item)
        if pos >= len(tokens):
            raise TraceFormatError("unbalanced parentheses")
        return out, pos + 1
    if tok == ")":
        raise TraceFormatError("unexpected ')'")
    return tok, pos + 1


def parse_sexp(line: str) -> SExp:
    tokens = _tokenize(line)
    out, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise TraceFormatError(f"trailing tokens in record: {line!r}")
    return out


def _int(s: SExp) -> int:
    if not isinstance(s, str):
        raise TraceFormatError(f"expected an integer, got {s!r}")
    try:
        return int(s)
    except ValueError:
        raise TraceFormatError(f"expected an integer, got {s!r}") from None


def term_from_sexp(s: SExp) -> Term:
    if isinstance(s, str):
        return App(sym(s), ())
    if not s or not isinstance(s[0], str):
        raise TraceFormatError(f"bad term: {s!r}")
    head = s[0]
    if head == "ev" and len(s) == 3:
        return EVar(_int(s[1]), _int(s[2]))
    if head == "mv" and len(s) == 3:
        return MVar(_int(s[1]), _int(s[2]))
    if head == "bv" and len(s) == 2:
        return Bound(_int(s[1]))
    return App(sym(head), tuple(term_from_sexp(x) for x in s[1:]))


def formula_from_sexp(s: SExp, defs: dict[str, Definition]) -> Formula:
    if s == "tt":
        return TT
    if s == "ff":
        return FF
    if not isinstance(s, list) or not s or not isinstance(s[0], str):
        raise TraceFormatError(f"bad formula: {s!r}")
    head = s[0]
    if head == "eq" and len(s) == 3:
        return Eq(term_from_sexp(s[1]), term_from_sexp(s[2]))
    if head in ("and", "or", "imp") and len(s) == 3:
        a = formula_from_sexp(s[1], defs)
        b = formula_from_sexp(s[2], defs)
        return {"and": And, "or": Or, "imp": Imp}[head](a, b)
    if head in ("all", "ex") and len(s) == 2:
        body = formula_from_sexp(s[1], defs)
        return All(body) if head == "all" else Ex(body)
    if head == "mu" and len(s) >= 2 and isinstance(s[1], str):
        name = s[1]
        args = tuple(term_from_sexp(x) for x in s[2:])
        if name == "%self":
            return MuAtom(SELF, args)
        d = defs.get(name)
        if d is None:
            raise TraceFormatError(f"unknown definition in trace: {name}")
        return MuAtom(d, args)
    raise TraceFormatError(f"bad formula: {s!r}")


def index_from_sexp(s: SExp) -> Index:
    if isinstance(s, list) and len(s) == 2 and s[0] == "lemma" and isinstance(s[1], str):
        return LemmaName(sym(s[1]))
    if isinstance(s, list) and len(s) == 2 and s[0] == "hyp":
        return Hyp(_int(s[1]))
    raise TraceFormatError(f"bad index: {s!r}")


def trace_from_lines(lines: list[str], defs: dict[str, Definition]) -> TraceNode:
    records = [parse_sexp(ln) for ln in lines if ln.strip()]
    pos = 0

    def build() -> TraceNode:
        nonlocal pos
        if pos >= len(records):
            raise TraceFormatError("truncated trace")
        rec = records[pos]
        pos += 1
        if not isinstance(rec, list) or len(rec) != 7 or not isinstance(rec[0], str):
            raise TraceFormatError(f"bad record shape: {rec!r}")
        rule, ncs, fm, tm, ixs, invs, sds = rec
        if rule not in ALL_RULES:
            raise TraceFormatError(f"unknown rule: {rule}")
        n = _int(ncs)
        formula = None if fm == "nil" else formula_from_sexp(fm, defs)
        term = None if tm == "nil" else term_from_sexp(tm)
        index = None if ixs == "nil" else index_from_sexp(ixs)
        inv = None
        if invs != "nil":
            if not (isinstance(invs, list) and len(invs) == 3 and invs[0] == "inv"):
                raise TraceFormatError(f"bad invariant: {invs!r}")
            inv = InvariantAbs(_int(invs[1]), formula_from_sexp(invs[2], defs))
        side = None if sds == "nil" else _int(sds)
        children = tuple(build() for _ in range(n))
        return TraceNode(rule, children, formula, term, index, inv, side)

    out = build()
    if pos != len(records):
        raise TraceFormatError("extra records after trace root")
    return out
