"""Terms, formulas and least-fixed-point definitions, plus the store
indexes and the obvious-invariant synthesis that the kernel and the
replayer share.

Terms are first order.  Eigenvariables (EVar) are introduced by right
universals and left existentials; metavariables (MVar) stand for terms yet
to be determined.  Both carry a scope level: levels grow as quantifier rules
fire along a branch, and an MVar of level k may never end up bound to a term
mentioning an EVar of a strictly larger level.

Bound variables inside formula binders use positional (de Bruijn) indices.
A `Bound` never escapes its binder in a well-formed formula.  A definition
body and an invariant are open formulas alike: parameter i appears as
Bound(depth + i).  `instantiate` is the one substitution: it opens a
binder's body, unfolds a definition and applies an invariant.  Other
modules do not number binders: they build a formula over named
eigenvariables and bind them with close_binders.
A definition is built from its body as a function of itself, so a recursive
call is an atom of the definition wherever it is written.

This module also owns the concrete syntax: every term, formula and index
prints as an s-expression, at any depth.  A trace file holds terms,
indexes and integers, which the readers at the end of the module read
back; formulas print only in messages.
"""

from __future__ import annotations

from operator import attrgetter, is_
from collections.abc import Callable, Iterator, Sequence

# ---------------------------------------------------------------------------
# records, and how terms and formulas print


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, a field of a record."""


_set = object.__setattr__  # sets a field of a record as it is built


class Record:
    """An immutable record: its fields, its `__match_args__`, are slots set
    once, positionally or by keyword, by an __init__ made from their names
    with the class unless it writes its own; defaults are that function's
    __defaults__.  It equals a record of its own class with equal fields,
    hashes by them and its class, and prints as Class(field=value, ...)."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        names = cls.__match_args__
        cls._key = attrgetter(*names, "__class__")
        if "__match_args__" in cls.__dict__ and "__init__" not in cls.__dict__:
            ns = {"_set": _set}
            exec(f"def __init__(self, {', '.join(names)}):\n"
                 + "".join(f"    _set(self, {n!r}, {n})\n" for n in names), ns)
            cls.__init__ = ns["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name: str, *_: object) -> None:
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


def _sexp(root: Term | Formula) -> str:
    """Print a term or formula: a node prints after its parts, off an
    explicit stack, so depth costs no recursion.  A ground application
    keeps its printed form."""
    done: list[str] = []
    stack: list[tuple[object, str | None, int]] = [(root, None, 0)]
    while stack:
        x, head, n = stack.pop()
        if head is not None:  # the n parts of x are printed
            k = len(done) - n
            s = f"({' '.join((head, *done[k:]))})"
            del done[k:]
            if x.__class__ is App and x.ground:
                object.__setattr__(x, "_repr", s)
            done.append(s)
            continue
        c = x.__class__
        if c is App and x._repr is None:
            head, parts = x.head.name, x.args
        elif c is Eq:
            head, parts = "eq", (x.l, x.r)
        elif c is And or c is Or or c is Imp:
            head, parts = c.tag, (x.a, x.b)
        elif c is All or c is Ex:
            head, parts = c.tag, (x.body,)
        elif c is MuAtom:
            head, parts = f"mu {x.defn.name.name}", x.args
        else:
            done.append(repr(x))
            continue
        stack.append((x, head, len(parts)))
        stack += ((p, None, 0) for p in reversed(parts))
    return done[0]


# ---------------------------------------------------------------------------
# symbols

_SYMBOLS: dict[str, "Sym"] = {}


class Sym(Record):
    """An interned constant or constructor name."""

    __slots__ = __match_args__ = ("name",)
    name: str

    def __repr__(self) -> str:
        return self.name


def sym(name: str) -> Sym:
    """Intern `name`.  The same string always yields the same Sym."""
    s = _SYMBOLS.get(name)
    if s is None:
        s = Sym(name)
        _SYMBOLS[name] = s
    return s


# ---------------------------------------------------------------------------
# terms

# Every term carries two flags: `closed` (no Bound inside) and `ground`
# (no EVar, MVar or Bound inside).  A walk that only rewrites variables of
# some kind returns a subterm whose flag rules them out as it is.

# A variable prints as (%tag id level): no constructor name starts with `%`.
# An EVar never equals an MVar: equality compares classes first.  The hash
# is the id alone, so hashing builds nothing; an EVar and an MVar of one id
# share it and still differ.

class _Var(Record):
    __slots__ = __match_args__ = ("id", "level")

    closed = True
    ground = False

    def __hash__(self) -> int:
        return self.id

    def __repr__(self) -> str:
        return f"({self.tag} {self.id} {self.level})"


class EVar(_Var):
    __slots__ = ()
    tag = "%ev"


class MVar(_Var):
    __slots__ = ()
    tag = "%mv"


class Bound(Record):
    """A positional reference to an enclosing binder (0 = innermost)."""

    __slots__ = __match_args__ = ("index",)

    closed = False
    ground = False

    def __repr__(self) -> str:
        return f"(%bv {self.index})"


# the one shared instance of each ground application built so far
_GROUND: dict[tuple, "App"] = {}


class App(Record):
    """A constructor application, immutable like the other terms.  Its
    flags are computed once, from its arguments' flags; its hash, and a
    ground one's printed form, are kept once computed.  A ground
    application is interned: building an equal one returns the shared
    instance.  Identity is only a fast path of equality, which falls back
    to comparing structure.  Non-ground terms are not interned.
    """

    __slots__ = ("head", "args", "closed", "ground", "_hash", "_repr")
    __match_args__ = ("head", "args")
    __init__ = object.__init__  # __new__ builds it

    def __new__(cls, head: Sym, args: tuple["Term", ...] = ()) -> "App":
        closed = ground = True
        for a in args:
            if not a.ground:
                ground = False
                if not a.closed:
                    closed = False
                    break
        if ground:
            key = (head, args)
            t = _GROUND.get(key)
            if t is not None:
                return t
        t = object.__new__(cls)
        _init = object.__setattr__
        _init(t, "head", head)
        _init(t, "args", args)
        _init(t, "closed", closed)
        _init(t, "ground", ground)
        _init(t, "_hash", None)
        _init(t, "_repr", None if args else head.name)
        if ground:
            _GROUND[key] = t
        return t

    def __reduce__(self):
        return App, (self.head, self.args)

    def __eq__(self, other: object) -> bool:
        """Structure, compared off an explicit stack, so depth costs no
        recursion.  Each pair's heads, symbols equal by name, are compared
        before its arguments."""
        if self is other:
            return True
        if other.__class__ is not App:
            return NotImplemented
        x, y, stack = self, other, []
        while True:
            h, k = x.head, y.head
            if h is not k and h.name != k.name or len(x.args) != len(y.args):
                return False
            for s, t in zip(x.args, y.args):
                if s is not t:
                    if s.__class__ is App and t.__class__ is App:
                        stack.append((s, t))
                    elif s != t:
                        return False
            if not stack:
                return True
            x, y = stack.pop()

    def __hash__(self) -> int:
        """Kept once computed.  The unhashed applications below are hashed
        first, off an explicit stack, so depth costs no recursion."""
        h = self._hash
        if h is None:
            stack = [self]
            while stack:
                t = stack[-1]
                for a in t.args:
                    if a.__class__ is App and a._hash is None:
                        stack.append(a)
                if stack[-1] is t:  # all below t are hashed; self goes last
                    stack.pop()
                    object.__setattr__(t, "_hash", h := hash((t.head, t.args)))
        return h

    def __repr__(self) -> str:
        return self._repr if self._repr is not None else _sexp(self)


Term = EVar | MVar | Bound | App


def con(name: str, *args: Term) -> App:
    """Convenience constructor application."""
    return App(sym(name), tuple(args))


# ---------------------------------------------------------------------------
# formulas


class Definition(Record):
    """A least-fixed-point predicate definition, mu B.

    It is built from B, its body as a function of the definition itself,
    called once: a recursive call is an atom of the definition from the
    moment it is written.  The body is a formula over `arity` parameters;
    parameter i appears as Bound(depth + i) under `depth` intervening
    binders.  The body takes no part in equality so a definition can be
    compared and hashed cheaply by name.  A body that is no formula, or
    that holds a free variable or anything input_vars refuses, is refused.
    """

    __slots__ = ("name", "arity", "body")
    __match_args__ = ("name", "arity")
    body: Formula

    def __init__(self, name: Sym, arity: int,
                 make_body: Callable[[Definition], Formula]) -> None:
        _set(self, "name", name)
        _set(self, "arity", arity)
        body = make_body(self)
        if input_vars((), body, self):
            raise StructuralError(f"the body of {self.name} holds a free variable")
        _set(self, "body", body)

    def __repr__(self) -> str:
        return f"<def {self.name}/{self.arity}>"


class Eq(Record):
    __slots__ = __match_args__ = ("l", "r")
    __repr__ = _sexp


# A connective prints as (tag operands...).

class _Binary(Record):
    __slots__ = __match_args__ = ("a", "b")
    __repr__ = _sexp


class And(_Binary):
    __slots__ = ()
    tag = "and"


class Or(_Binary):
    __slots__ = ()
    tag = "or"


class Imp(_Binary):
    __slots__ = ()
    tag = "imp"


class _Quantifier(Record):
    __slots__ = __match_args__ = ("body",)
    __repr__ = _sexp


class All(_Quantifier):
    __slots__ = ()
    tag = "all"


class Ex(_Quantifier):
    __slots__ = ()
    tag = "ex"


class MuAtom(Record):
    __slots__ = __match_args__ = ("defn", "args")
    __repr__ = _sexp


class Tt(Record):
    __slots__ = ()

    def __repr__(self) -> str:
        return "tt"


class Ff(Record):
    __slots__ = ()

    def __repr__(self) -> str:
        return "ff"


TT = Tt()
FF = Ff()

Formula = Eq | And | Or | Imp | All | Ex | MuAtom | Tt | Ff


class StructuralError(Exception):
    """An ill-formed term, formula or rule application."""


# ---------------------------------------------------------------------------
# substitution of bound variables

def _shift_term(t: Term, by: int) -> Term:
    """Raise every positional index in a (binder-free) term by `by`."""
    if by == 0 or t.closed:
        return t
    if isinstance(t, Bound):
        return Bound(t.index + by)
    return App(t.head, tuple(_shift_term(x, by) for x in t.args))


def term_subst_bound(t: Term, args: tuple[Term, ...], depth: int) -> Term:
    """Replace Bound(depth + i) by args[i] lifted to the local depth; shift
    higher indices down.  A term it leaves unchanged comes back as it is."""
    if t.closed:
        return t
    if t.__class__ is Bound:
        j = t.index
        if j < depth:
            return t
        if j < depth + len(args):
            a = args[j - depth]
            return a if a.closed else _shift_term(a, depth)
        return Bound(j - len(args))
    ys = tuple([x if x.closed else term_subst_bound(x, args, depth) for x in t.args])
    return t if all(map(is_, ys, t.args)) else App(t.head, ys)


def instantiate(f: Formula, args: tuple[Term, ...]) -> Formula:
    """The formula f denotes with args[i] for its free Bound(i): a binder's
    body opened, a definition body unfolded, an invariant applied, or a
    formula read under an environment.  It is the one substitution.  A
    subformula or subterm it leaves unchanged comes back as it is."""
    return _subst(f, args, 0) if args else f


def _subst(f: Formula, args: tuple[Term, ...], depth: int) -> Formula:
    """instantiate under `depth` binders, where args[i] is Bound(depth + i)."""
    c = f.__class__
    if c is MuAtom:
        ys = tuple([x if x.closed else term_subst_bound(x, args, depth) for x in f.args])
        return f if all(map(is_, ys, f.args)) else MuAtom(f.defn, ys)
    if c is Eq:
        l = f.l if f.l.closed else term_subst_bound(f.l, args, depth)
        r = f.r if f.r.closed else term_subst_bound(f.r, args, depth)
        return f if l is f.l and r is f.r else Eq(l, r)
    if c is And or c is Or or c is Imp:
        a, b = _subst(f.a, args, depth), _subst(f.b, args, depth)
        return f if a is f.a and b is f.b else c(a, b)
    if c is All or c is Ex:
        body = _subst(f.body, args, depth + 1)
        return f if body is f.body else c(body)
    if c is Tt or c is Ff:
        return f
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# invariants

def body_with_invariant(d: Definition, inv: Formula) -> Formula:
    """B S: the definition body, open like it, with the invariant for its
    recursive calls."""
    return map_terms(d.body, lambda t, _: t,
                     lambda e, ts: instantiate(inv, ts) if e is d else MuAtom(e, ts))


def close_term(t: Term, mapping: dict[EVar, int], depth: int) -> Term:
    """Abstract eigenvariables: e becomes Bound(depth + mapping[e])."""
    if t.ground:
        return t
    match t:
        case EVar():
            i = mapping.get(t)
            return t if i is None else Bound(depth + i)
        case App(head=h, args=ts):
            return App(h, tuple(close_term(x, mapping, depth) for x in ts))
        case _:
            return t


def close_binders(f: Formula, names: Sequence[EVar],
                  binder: Callable[[Formula], Formula],
                  params: Sequence[EVar] = ()) -> Formula:
    """Wrap `f` in one `binder` per eigenvariable of `names`, outermost
    first, binding its occurrences; beneath the k new binders params[i]
    becomes Bound(k + i), as a definition body wants its parameters."""
    k = len(names)
    mapping = {z: k - 1 - j for j, z in enumerate(names)}
    mapping.update((p, k + i) for i, p in enumerate(params))
    body = map_terms(f, lambda t, depth: close_term(t, mapping, depth))
    for _ in range(k):
        body = binder(body)
    return body


# ---------------------------------------------------------------------------
# traversal helpers

def term_vars(t: Term) -> Iterator[EVar | MVar]:
    if t.ground:
        return
    match t:
        case EVar() | MVar():
            yield t
        case App(args=ts):
            for x in ts:
                yield from term_vars(x)


def input_vars(lemmas: Sequence[tuple[Index, Formula]], goal: Formula,
               me: Definition | None = None) -> set[EVar | MVar]:
    """The variables free in a check's goal and lemmas, or in the body of
    `me` as it is built, checked before any step or record: TypeError on a
    node that is no formula; StructuralError on an atom of the wrong arity,
    on a Bound that no binder (nor, in a body, parameter) binds, and on an
    atom of `me` left of an odd number of implications, since the obvious
    induction is sound only for monotone definitions."""
    out: set[EVar | MVar] = set()
    params = 0 if me is None else me.arity
    # (node, polarity, binders above it); a term's polarity is None
    stack: list[tuple] = [(f, True, 0) for f in (goal, *(g for _, g in lemmas))]
    while stack:
        f, positive, depth = stack.pop()
        c = f.__class__
        if positive is None:
            if c is App:
                stack += ((t, None, depth) for t in f.args if not t.ground)
            elif c is not Bound:
                out.add(f)
            elif f.index >= depth + params:
                raise StructuralError(f"no binder binds {f!r}")
        elif c is Eq:
            stack += ((t, None, depth) for t in (f.l, f.r) if not t.ground)
        elif c is And or c is Or:
            stack += ((f.b, positive, depth), (f.a, positive, depth))
        elif c is Imp:
            stack += ((f.b, positive, depth), (f.a, not positive, depth))
        elif c is All or c is Ex:
            stack.append((f.body, positive, depth + 1))
        elif c is MuAtom:
            if len(f.args) != f.defn.arity:
                raise StructuralError(f"{f.defn.name} expects {f.defn.arity} arguments, "
                                      f"got {len(f.args)}")
            if f.defn is me and not positive:
                raise StructuralError(f"{me.name} recurses in a negative position")
            stack += ((t, None, depth) for t in f.args if not t.ground)
        elif c is not Tt and c is not Ff:
            raise TypeError(f"not a formula: {f!r}")
    return out


def input_evars(lemmas: Sequence[tuple[Index, Formula]], goal: Formula) -> set[EVar]:
    """The eigenvariables free in a check's inputs: constants no rule may
    make again.  Beyond what input_vars refuses, a metavariable there raises
    StructuralError: search would bind it and replay hold it inert."""
    vs = input_vars(lemmas, goal)
    for v in vs:
        if v.__class__ is MVar:
            raise StructuralError(f"metavariable {v!r} in a check's inputs")
    return vs


def map_terms(f: Formula, fn: Callable[[Term, int], Term],
              atom: Callable[[Definition, tuple[Term, ...]], Formula] | None = None,
              depth: int = 0) -> Formula:
    """Rebuild `f` with every term t replaced by fn(t, depth), where depth
    counts the binders enclosing t (`depth` of them enclose `f` itself).
    With `atom`, an atom MuAtom(d, ts) becomes atom(d, ts') once its
    arguments are rewritten; without it, it stays an atom of d."""
    c = f.__class__
    if c is Eq:
        return Eq(fn(f.l, depth), fn(f.r, depth))
    if c is And or c is Or or c is Imp:
        return c(map_terms(f.a, fn, atom, depth), map_terms(f.b, fn, atom, depth))
    if c is All or c is Ex:
        return c(map_terms(f.body, fn, atom, depth + 1))
    if c is MuAtom:
        ts = tuple(fn(x, depth) for x in f.args)
        return MuAtom(f.defn, ts) if atom is None else atom(f.defn, ts)
    if c is Tt or c is Ff:
        return f
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# the store of lemmas and hypotheses


class LemmaName(Record):
    __slots__ = __match_args__ = ("name",)
    name: Sym

    def __repr__(self) -> str:
        return f"(lemma {self.name})"


class Hyp(Record):
    __slots__ = __match_args__ = ("serial",)
    serial: int

    def __repr__(self) -> str:
        return f"(hyp {self.serial})"


Index = LemmaName | Hyp

Store = tuple[tuple[Index, Formula], ...]
Rhs = tuple[str, Formula]  # ("un", f) unstored or ("st", f) stored goal


def store_lookup(store: Store, ix: Index) -> Formula | None:
    k = ix.__class__
    for jx, f in store:
        if jx.__class__ is k and (jx is ix or jx == ix):
            return f
    return None


def map_sequent(store: Store, theta: tuple[Formula, ...], rhs: Rhs,
                fn: Callable[[Term, int], Term]
                ) -> tuple[Store, tuple[Formula, ...], Rhs]:
    """Rewrite the terms of a sequent (store, workbench and right-hand
    side) with map_terms."""
    return (tuple((ix, map_terms(f, fn)) for ix, f in store),
            tuple(map_terms(f, fn) for f in theta), (rhs[0], map_terms(rhs[1], fn)))


# ---------------------------------------------------------------------------
# obvious invariant synthesis

# head symbol bundling the fresh eigenvariables of an invariance premise
# into a trace record's term slot
YS_HEAD = sym("%ys")


def _chain(op: Callable[[Formula, Formula], Formula],
           parts: Sequence[Formula], empty: Formula) -> Formula:
    """parts joined by the connective `op`, nested to the right; `empty`
    when there are none."""
    if not parts:
        return empty
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = op(p, out)
    return out


def synthesize_obvious_invariants(
    store: Store,
    target_args: tuple[Term, ...],
    goal: Formula,
) -> tuple[Formula | None, Formula | None]:
    """The obvious invariants for inducting on an atom with the given
    (resolved) arguments, under the given (resolved) store and goal, in two
    fixed slots; a trace record names the one it used by its slot, its
    flavour.

    Abstracting the fixed point out of the sequent gives

        S = fun xs -> forall zs, (xs = ts /\\ H1 /\\ ... /\\ Hk) => R

    with zs the eigenvariables of the sequent, Hi the stored atomic
    hypotheses and R the goal: slot 0, an open formula over xs with no
    other free variable.  Slot 1 keeps the hypotheses out of the
    invariant, so it is empty (None) when there is none to fold.  A slot
    is also empty where synthesis is refused: both when a stored
    hypothesis is not atomic or an undetermined metavariable occurs in the
    goal or the target, slot 0 alone when one occurs in a hypothesis.
    """
    hyps = [(ix, f) for ix, f in store if isinstance(ix, Hyp)]
    if not all(isinstance(f, (MuAtom, Eq)) for _, f in hyps):
        return None, None
    seen = input_vars((), goal).union(*map(term_vars, target_args))
    if any(isinstance(v, MVar) for v in seen):
        return None, None
    hyp_vars = input_vars(hyps, TT)

    def build(facts: list[Formula], free: set) -> Formula:
        zs = sorted(free, key=lambda e: (e.id, e.level))
        # parameter i is Bound(len(zs) + i) beneath zs's binders: synthesis makes no id
        eqs: list[Formula] = [Eq(Bound(len(zs) + i), t) for i, t in enumerate(target_args)]
        return close_binders(Imp(_chain(And, eqs + facts, TT), goal), zs, All)

    folded = (None if any(isinstance(v, MVar) for v in hyp_vars)
              else build([f for _, f in hyps], seen | hyp_vars))
    return folded, build([], seen) if hyps else None


# ---------------------------------------------------------------------------
# reading the concrete syntax back: the readers below invert the reprs of
# terms, indexes and integers, all a trace record holds.

SExp = str | tuple


class TraceFormatError(Exception):
    pass


def _tokenize(line: str) -> list[str]:
    return line.replace("(", " ( ").replace(")", " ) ").split()


def parse_sexp(line: str, lists: dict[tuple, tuple] | None = None) -> SExp:
    """Read one s-expression off an explicit stack.  Lists come back as
    tuples, so an s-expression can key a memo.  `lists` keeps one instance
    of each list read, found by its atoms and the identity of its sublists;
    calls that read one trace share it, so a memo finds a list that an
    earlier line spelled by identity, without comparing two deep tuples,
    which Python does recursively."""
    if lists is None:
        lists = {}
    items: list[SExp] = []
    key: list = []  # items, each sublist by its identity
    stack: list[tuple[list, list]] = []
    for tok in _tokenize(line):
        if tok == "(":
            stack.append((items, key))
            items, key = [], []
        elif tok != ")":
            items.append(tok)
            key.append(tok)
        elif stack:
            done = lists.setdefault(tuple(key), tuple(items))
            items, key = stack.pop()
            items.append(done)
            key.append(id(done))
        else:
            raise TraceFormatError("unexpected ')'")
    if stack:
        raise TraceFormatError("unbalanced parentheses")
    if not items:
        raise TraceFormatError("unexpected end of record")
    if len(items) > 1:
        raise TraceFormatError(f"trailing tokens in record: {line!r}")
    return items[0]


def int_from_sexp(s: SExp) -> int:
    """Read an integer spelled as the writer prints one, str(n): `01`,
    `+1`, `1_0` and digits other than ASCII's are refused."""
    try:
        n = int(s)
    except (TypeError, ValueError):
        pass
    else:
        if str(n) == s:
            return n
    raise TraceFormatError(f"expected an integer, got {s!r}")


def term_from_sexp(s: SExp, memo: dict[SExp, Term] | None = None) -> Term:
    """Read a term off an explicit stack: an application is built after
    its arguments, so depth costs no recursion.  Calls that read one trace
    share `memo`, which maps every s-expression read so far to its term, so
    a numeral that many records spell is built once."""
    if memo is None:
        memo = {}
    done: list[Term] = []
    stack: list[SExp | None] = [s]
    while stack:
        x = stack.pop()
        if x is None:  # the arguments of the list below are the last terms done
            x = stack.pop()
            k = len(done) - len(x) + 1
            t = App(sym(x[0]), tuple(done[k:]))
            del done[k:]
        else:
            t = memo.get(x)
            if t is not None:
                done.append(t)
                continue
            if isinstance(x, str):
                t = App(sym(x), ())
            elif not x or not isinstance(x[0], str):
                raise TraceFormatError(f"bad term: {x!r}")
            elif x[0] == "%ev" and len(x) == 3:
                t = EVar(int_from_sexp(x[1]), int_from_sexp(x[2]))
            elif x[0] == "%mv" and len(x) == 3:
                t = MVar(int_from_sexp(x[1]), int_from_sexp(x[2]))
            elif x[0] == "%bv" and len(x) == 2:
                t = Bound(int_from_sexp(x[1]))
            else:
                stack += (x, None)
                stack += x[:0:-1]
                continue
        memo[x] = t
        done.append(t)
    return done[0]


def index_from_sexp(s: SExp) -> Index:
    if isinstance(s, tuple) and len(s) == 2 and s[0] == "lemma" and isinstance(s[1], str):
        return LemmaName(sym(s[1]))
    if isinstance(s, tuple) and len(s) == 2 and s[0] == "hyp":
        return Hyp(int_from_sexp(s[1]))
    raise TraceFormatError(f"bad index: {s!r}")
