"""Theorem-file dialect: parsing, elaboration, and the session driver.

A `.thm` file is a sequence of declarations:

    Kind nat type.
    Type z nat.
    Type s nat -> nat.
    Define plus : nat -> nat -> nat -> prop by
      plus z N N ;
      plus (s M) N (s P) := plus M N P.
    Theorem plus0com : forall N, is_nat N -> plus N z N.
    ship "(induction 1 0 1)".

`%` starts a line comment.  Formulas are built from `forall`/`exists`
(with multiple binders before the comma), `->`, `\\/`, `/\\`, `=`, `true`,
`false`, and application; `->` binds loosest and associates right, then
`\\/`, then `/\\`.  Capitalised or not, a name in a theorem statement must
be bound by a quantifier or declared; in a definition clause, any name
that is not a declared constructor or predicate, nor bound by an enclosing
quantifier, is a clause variable.  Each quantifier and each clause scopes
its own names, so a name may be reused at another sort under another
binder.

Elaboration compiles each Define into a least-fixed-point body by Clark
completion — one disjunct per clause, existentially closing the clause
variables over equations against the head patterns.  Building the
`Definition` refuses a recursive call in a negative position.  Sorts are
first order and checked throughout.

A session checks the theorems in file order; each accepted theorem joins
the lemma table (under its name) for the ones after it.
"""

from __future__ import annotations

import itertools
import re
from collections import ChainMap
from collections.abc import Callable

from . import kernel
from .kernel import Accepted, OutOfBudget, Rejected, ResourceLimits
from .outline import OUTLINE_FPC, OutlineError, initial_state, parse_outline
from .syntax import (
    FF, TT, All, And, App, Definition, EVar, Eq, Ex, Ff, Formula, Imp, Index,
    LemmaName, MuAtom, Or, Record, StructuralError, Term, Tt, _chain,
    close_binders, sym,
)
from .trace import TraceNode

# ---------------------------------------------------------------------------
# surface syntax trees (positions are deliberately not part of equality)


class STerm(Record):
    """A term, or as a formula an atom whose head names its predicate."""
    __slots__ = __match_args__ = ("head", "args")
    head: str
    args: tuple[STerm, ...]


STerm.__init__.__defaults__ = ((),)


class SEq(Record):
    __slots__ = __match_args__ = ("l", "r")
    l: STerm
    r: STerm


class SBin(Record):
    """A binary connective: `op` is the core And, Or or Imp."""
    __slots__ = __match_args__ = ("op", "a", "b")
    op: Callable[[Formula, Formula], Formula]
    a: SFormula
    b: SFormula


class SQuant(Record):
    """A quantifier over `names`: `binder` is the core All or Ex."""
    __slots__ = __match_args__ = ("binder", "names", "body")
    binder: Callable[[Formula], Formula]
    names: tuple[str, ...]
    body: SFormula


# `true` and `false` parse straight to the core TT and FF
SFormula = STerm | SEq | SBin | SQuant | Tt | Ff


class KindDecl(Record):
    __slots__ = __match_args__ = ("name",)
    name: str


class TypeDecl(Record):
    __slots__ = __match_args__ = ("names", "arg_sorts", "result")
    names: tuple[str, ...]
    arg_sorts: tuple[str, ...]
    result: str


class SClause(Record):
    __slots__ = __match_args__ = ("head_args", "body")
    head_args: tuple[STerm, ...]
    body: SFormula | None


class DefineDecl(Record):
    __slots__ = __match_args__ = ("name", "arg_sorts", "clauses")
    name: str
    arg_sorts: tuple[str, ...]
    clauses: tuple[SClause, ...]


class TheoremDecl(Record):
    __slots__ = __match_args__ = ("name", "statement", "ship")
    name: str
    statement: SFormula
    ship: str


Decl = KindDecl | TypeDecl | DefineDecl | TheoremDecl


class TheoremFile(Record):
    __slots__ = __match_args__ = ("decls",)
    decls: tuple[Decl, ...]


# ---------------------------------------------------------------------------
# lexer


class ParseError(Exception):
    """A parse error at `offset` into `text`, reported by line and column."""

    def __init__(self, msg: str, text: str, offset: int) -> None:
        self.line = text.count("\n", 0, offset) + 1
        self.col = offset - text.rfind("\n", 0, offset)
        super().__init__(f"{self.line}:{self.col}: {msg}")


_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<string>"[^"]*")
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<punct>:=|->|/\\|\\/|[.,:;()=])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"Kind", "Type", "Define", "Theorem", "ship", "by",
             "type", "prop", "forall", "exists", "true", "false"}


class _Tok(Record):
    __slots__ = __match_args__ = ("kind", "text", "offset")  # kind: ident, string, punct, eof


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        group = m.lastgroup
        if group == "string":
            toks.append(_Tok("string", m.group(0)[1:-1], pos))
        elif group == "ident" or group == "punct":
            toks.append(_Tok(group, m.group(0), pos))
        pos = m.end()
    toks.append(_Tok("eof", "", pos))
    return toks


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.toks = _lex(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, msg: str) -> ParseError:
        return ParseError(msg, self.text, self.peek().offset)

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise self.fail(f"expected {want!r}, found {t.text or t.kind!r}")
        return self.next()

    def at(self, kind: str, text: str) -> bool:
        t = self.peek()
        return t.kind == kind and t.text == text

    def eat(self, kind: str, text: str) -> bool:
        if self.at(kind, text):
            self.next()
            return True
        return False

    # -- declarations

    def file(self) -> TheoremFile:
        decls: list[Decl] = []
        while self.peek().kind != "eof":
            decls.append(self.decl())
        return TheoremFile(tuple(decls))

    def decl(self) -> Decl:
        t = self.peek()
        parse = {"Kind": self.kind_decl, "Type": self.type_decl,
                 "Define": self.define_decl, "Theorem": self.theorem_decl}.get(t.text)
        if t.kind != "ident" or parse is None:
            raise self.fail("expected a declaration (Kind, Type, Define, Theorem)")
        self.next()
        return parse()

    def name(self) -> str:
        t = self.peek()
        if t.kind != "ident" or t.text in _KEYWORDS:
            raise self.fail("expected a name")
        return self.next().text

    def kind_decl(self) -> KindDecl:
        n = self.name()
        self.expect("ident", "type")
        self.expect("punct", ".")
        return KindDecl(n)

    def sort_arrow(self) -> tuple[tuple[str, ...], str]:
        sorts = [self.sort_name()]
        while self.eat("punct", "->"):
            sorts.append(self.sort_name())
        return tuple(sorts[:-1]), sorts[-1]

    def sort_name(self) -> str:
        t = self.peek()
        if t.kind == "ident" and (t.text == "prop" or t.text not in _KEYWORDS):
            return self.next().text
        raise self.fail("expected a sort name")

    def type_decl(self) -> TypeDecl:
        names = [self.name()]
        while self.eat("punct", ","):
            names.append(self.name())
        args, res = self.sort_arrow()
        self.expect("punct", ".")
        return TypeDecl(tuple(names), args, res)

    def define_decl(self) -> DefineDecl:
        n = self.name()
        self.expect("punct", ":")
        args, res = self.sort_arrow()
        if res != "prop":
            raise self.fail("a definition must end in prop")
        clauses: list[SClause] = []
        if not self.eat("punct", "."):
            self.expect("ident", "by")
            if not self.eat("punct", "."):
                clauses.append(self.clause(n))
                while self.eat("punct", ";"):
                    clauses.append(self.clause(n))
                self.expect("punct", ".")
        return DefineDecl(n, args, tuple(clauses))

    def clause(self, defname: str) -> SClause:
        t = self.peek()
        head = self.term()
        if head.head != defname:
            raise ParseError(f"clause head {head.head!r} does not match the "
                             f"definition {defname!r}", self.text, t.offset)
        body = self.formula() if self.eat("punct", ":=") else None
        return SClause(head.args, body)

    def theorem_decl(self) -> TheoremDecl:
        n = self.name()
        self.expect("punct", ":")
        stmt = self.formula()
        self.expect("punct", ".")
        self.expect("ident", "ship")
        s = self.expect("string")
        self.expect("punct", ".")
        return TheoremDecl(n, stmt, s.text)

    # -- formulas: imp (right) < or (left) < and (left) < unit

    def formula(self) -> SFormula:
        if self.at("ident", "forall") or self.at("ident", "exists"):
            binder = All if self.next().text == "forall" else Ex
            names = [self.name()]
            while not self.eat("punct", ","):
                names.append(self.name())
            return SQuant(binder, tuple(names), self.formula())
        a = self.f_or()
        if self.eat("punct", "->"):
            return SBin(Imp, a, self.formula())
        return a

    def f_or(self) -> SFormula:
        a = self.f_and()
        while self.eat("punct", "\\/"):
            a = SBin(Or, a, self.f_and())
        return a

    def f_and(self) -> SFormula:
        a = self.f_unit()
        while self.eat("punct", "/\\"):
            a = SBin(And, a, self.f_unit())
        return a

    def f_unit(self) -> SFormula:
        if self.eat("ident", "true"):
            return TT
        if self.eat("ident", "false"):
            return FF
        if self.at("punct", "("):
            # a parenthesised formula, or a parenthesised term before '='
            save = self.pos
            self.next()
            inner = self.formula()
            self.expect("punct", ")")
            if self.at("punct", "="):
                self.pos = save
                l = self.term_primary()
                self.expect("punct", "=")
                return SEq(l, self.term())
            return inner
        l = self.term()
        if self.eat("punct", "="):
            return SEq(l, self.term())
        return l

    # -- terms: application by juxtaposition

    def term(self) -> STerm:
        head = self.term_primary()
        args: list[STerm] = []
        while (self.peek().kind == "ident" and self.peek().text not in _KEYWORDS) \
                or self.at("punct", "("):
            args.append(self.term_primary())
        if not args:
            return head
        if head.args:
            raise self.fail("a compound term cannot be applied further")
        return STerm(head.head, tuple(args))

    def term_primary(self) -> STerm:
        if self.eat("punct", "("):
            t = self.term()
            self.expect("punct", ")")
            return t
        t = self.peek()
        if t.kind == "ident" and t.text not in _KEYWORDS:
            return STerm(self.next().text)
        raise self.fail("expected a term")


def parse_file(text: str) -> TheoremFile:
    return _Parser(text).file()


# ---------------------------------------------------------------------------
# elaboration


class ElabError(Exception):
    pass


def con(name: str, *args: Term) -> App:
    """The application of the constructor `name` to args."""
    return App(sym(name), args)


class Elaborated(Record):
    __slots__ = __match_args__ = ("definitions", "theorems", "goals")
    definitions: dict[str, Definition]
    theorems: list[TheoremDecl]
    goals: dict[str, Formula]


class _Elab:
    """Elaborates declarations in order.  Every bound name (quantifier
    binder, clause variable, definition parameter) is elaborated to a
    placeholder eigenvariable, whose sort var_sorts records, and
    syntax.close_binders turns the placeholders into positional binders
    where the binder is built, so no placeholder reaches a check."""

    def __init__(self) -> None:
        self.sorts: set[str] = set()
        self.constructors: dict[str, tuple[tuple[str, ...], str]] = {}
        self.definitions: dict[str, Definition] = {}
        self.def_sorts: dict[str, tuple[str, ...]] = {}
        self.var_sorts: dict[EVar, str | None] = {}
        self.ids = itertools.count()

    def placeholder(self) -> EVar:
        return EVar(next(self.ids), 0)

    # -- terms.  env maps a bound name to its placeholder, innermost binder
    # first.  Its last map holds a clause's variables: each is made at its
    # first use, under whatever quantifiers that use sits, and is then seen
    # by the whole clause.  me is the definition being built, None in a theorem.

    def term(self, t: STerm, env: ChainMap[str, EVar],
             expected: str | None, me: Definition | None) -> Term:
        v = env.get(t.head)
        if v is None and me is not None and not t.args \
                and t.head not in self.constructors:
            if t.head in self.definitions:
                raise ElabError(f"predicate {t.head} used as a term")
            v = env.maps[-1][t.head] = self.placeholder()
        if v is not None:
            if t.args:
                raise ElabError(f"variable {t.head} cannot take arguments")
            seen = self.var_sorts.get(v)
            if seen is None:
                self.var_sorts[v] = expected
            elif expected is not None and seen != expected:
                raise ElabError(f"{t.head} used at sorts {seen} and {expected}")
            return v
        ctor = self.constructors.get(t.head)
        if ctor is None:
            raise ElabError(f"undeclared symbol: {t.head}")
        arg_sorts, res = ctor
        if expected is not None and res != expected:
            raise ElabError(f"{t.head} has sort {res}, expected {expected}")
        if len(t.args) != len(arg_sorts):
            raise ElabError(f"{t.head} expects {len(arg_sorts)} arguments,"
                            f" got {len(t.args)}")
        return con(t.head, *(self.term(a, env, s, me)
                             for a, s in zip(t.args, arg_sorts)))

    def term_sort(self, t: STerm, env: ChainMap[str, EVar]) -> str | None:
        if t.head in env:
            return self.var_sorts.get(env[t.head])
        ctor = self.constructors.get(t.head)
        return ctor[1] if ctor else None

    # -- formulas

    def formula(self, f: SFormula, env: ChainMap[str, EVar],
                me: Definition | None) -> Formula:
        match f:
            case Tt() | Ff():
                return f
            case SEq(l=l, r=r):
                s = self.term_sort(l, env) or self.term_sort(r, env)
                lt = self.term(l, env, s, me)
                return Eq(lt, self.term(r, env, s, me))
            case SBin(op=op, a=a, b=b):
                return op(self.formula(a, env, me), self.formula(b, env, me))
            case SQuant(binder=q, names=ns, body=b):
                ps = [self.placeholder() for _ in ns]
                inner = self.formula(b, env.new_child(dict(zip(ns, ps))), me)
                return close_binders(inner, ps, q)
            case STerm(head=p, args=ts):
                if p in env and not ts:
                    raise ElabError(f"{p} is a term variable, not a predicate")
                dref = self.definitions.get(p)
                if dref is None:
                    raise ElabError(f"undeclared predicate: {p}")
                arg_sorts = self.def_sorts[p]
                if len(ts) != len(arg_sorts):
                    raise ElabError(f"{p} expects {len(arg_sorts)} arguments,"
                                    f" got {len(ts)}")
                return MuAtom(dref, tuple(
                    self.term(a, env, s, me)
                    for a, s in zip(ts, arg_sorts)))
        raise TypeError(f"not a surface formula: {f!r}")

    # -- declarations

    def kind(self, d: KindDecl) -> None:
        if d.name in self.sorts:
            raise ElabError(f"duplicate kind: {d.name}")
        self.sorts.add(d.name)

    def typedecl(self, d: TypeDecl) -> None:
        for s in list(d.arg_sorts) + [d.result]:
            if s not in self.sorts:
                raise ElabError(f"undeclared sort: {s}")
        for n in d.names:
            if n in self.constructors or n in self.definitions:
                raise ElabError(f"duplicate symbol: {n}")
            self.constructors[n] = (d.arg_sorts, d.result)

    def define(self, d: DefineDecl) -> None:
        if d.name in self.definitions or d.name in self.constructors:
            raise ElabError(f"duplicate symbol: {d.name}")
        for s in d.arg_sorts:
            if s not in self.sorts:
                raise ElabError(f"undeclared sort: {s}")
        arity = len(d.arg_sorts)
        self.def_sorts[d.name] = d.arg_sorts
        params = [self.placeholder() for _ in range(arity)]

        # Clark completion: one disjunct per clause, existentially closing
        # the clause variables over equations against the head patterns.
        # The definition is in the table while its body is elaborated, so a
        # recursive call is an atom of it like a call to an earlier one.
        def completion(me: Definition) -> Formula:
            self.definitions[d.name] = me
            disjuncts: list[Formula] = []
            for c in d.clauses:
                if len(c.head_args) != arity:
                    raise ElabError(f"clause of {d.name} has {len(c.head_args)}"
                                    f" head arguments, expected {arity}")
                env: ChainMap[str, EVar] = ChainMap()
                parts: list[Formula] = [
                    Eq(p, self.term(h, env, s, me))
                    for p, h, s in zip(params, c.head_args, d.arg_sorts)]
                if c.body is not None:
                    parts.append(self.formula(c.body, env, me))
                disjuncts.append(close_binders(_chain(And, parts, TT),
                                               list(env.maps[-1].values()), Ex, params))
            return _chain(Or, disjuncts, FF)

        try:
            Definition(sym(d.name), arity, completion)
        except StructuralError as e:  # a recursive call in a negative position
            raise ElabError(str(e)) from None

    def theorem(self, d: TheoremDecl, names: set[str]) -> Formula:
        if d.name in names:
            raise ElabError(f"duplicate theorem name: {d.name}")
        return self.formula(d.statement, ChainMap(), None)


def elaborate(file: TheoremFile) -> Elaborated:
    el = _Elab()
    theorems: list[TheoremDecl] = []
    goals: dict[str, Formula] = {}
    for d in file.decls:
        match d:
            case KindDecl():
                el.kind(d)
            case TypeDecl():
                el.typedecl(d)
            case DefineDecl():
                el.define(d)
            case TheoremDecl():
                goals[d.name] = el.theorem(d, set(goals))
                theorems.append(d)
    return Elaborated(el.definitions, theorems, goals)


# ---------------------------------------------------------------------------
# session driver


class TheoremResult(Record):
    __slots__ = __match_args__ = (
        "name", "outcome", "detail", "steps", "goal", "trace", "lemmas")
    name: str
    outcome: str  # "ok" | "fail" | "budget"
    detail: str
    steps: int
    goal: Formula
    trace: TraceNode | None
    lemmas: tuple[tuple[Index, Formula], ...]


TheoremResult.__init__.__defaults__ = (None, ())


def run_session(file: TheoremFile, limits: ResourceLimits | None = None,
                stop_on_failure: bool = False) -> list[TheoremResult]:
    """Check every theorem in order, accumulating accepted ones as lemmas."""
    el = elaborate(file)
    lemmas: list[tuple[Index, Formula]] = []
    results: list[TheoremResult] = []
    for thm in el.theorems:
        goal = el.goals[thm.name]
        table = tuple(ix.name for ix, _ in lemmas)
        try:
            cert = initial_state(parse_outline(thm.ship), table)
        except OutlineError as e:
            r = TheoremResult(thm.name, "fail", f"bad certificate: {e}", 0, goal)
        else:
            match kernel.check(lemmas, goal, cert, OUTLINE_FPC, limits):
                case Accepted(trace=tr, steps=n):
                    r = TheoremResult(thm.name, "ok", "", n, goal, tr, tuple(lemmas))
                    lemmas.append((LemmaName(sym(thm.name)), goal))
                case Rejected(steps=n):
                    r = TheoremResult(thm.name, "fail",
                                      "no proof within the certificate", n, goal)
                case OutOfBudget(steps=n):
                    r = TheoremResult(thm.name, "budget", "step limit reached", n, goal)
        results.append(r)
        if stop_on_failure and r.outcome != "ok":
            break
    return results
