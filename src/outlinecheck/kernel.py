"""The proof-search kernel.

The kernel runs a focused sequent search over three phases:

* asynchronous: invertible rules fire on a workbench of formulas and on the
  unstored right-hand side;
* border: with an empty workbench and a stored goal, a decide rule focuses
  either on a store entry or on the goal;
* synchronous: left or right focus applies non-invertible rules until the
  focus is released back to the asynchronous phase or the branch closes.

The certificate is asked only where an outline can choose: which store
entry to decide on, which index a stored formula gets, whether a fixed
point may be unfolded on either side, and whether the obvious induction
may fire (see `fpc`).  Every other rule fires by itself with the
certificate unchanged: the invertible rules, decideR, ttR and ffL always;
orR tries side 1, then side 2; exR and allL take a fresh metavariable;
initial tries each stored atom of the same definition, in store order.

Search is one loop, in `check`, over a goal stack and a choice-point
stack, as a logic-programming machine runs one.  A goal is a frame
(phase, store, ...), and a phase calls no other: it returns None when no
rule applies, (record, premise goals...) when its rule fires one way, or
a lazy generator of such tuples when the rule has alternatives.  For a
generator the loop pushes a choice point; when a goal fails it rewinds
the trail to the newest one and draws its next alternative, so
alternatives are explored depth first, in the order they are yielded.
Each rule fired conses its record, (rule, term, index, invariant, side),
onto a list, which is then the proof in reverse preorder: `_finalize`
builds the trace from it in one pass, each node once, with its terms
resolved.  Metavariable bindings live in a single trailed store shared
along a branch.  The case-analysis substitution of the left equality
rule is a field of every goal instead, `sigma`: its premise goes on with
the same store, workbench and goal, and every unification reads their
terms under it, so it cannot leak into sibling branches.  Only the
induction builds the sequent under it, rebuilding what a binding changes.

Search never substitutes into a formula.  It reads each one under an
environment: the closed terms that its free positional variables stand
for.  The workbench holds (formula, environment) pairs, and the unstored
right-hand side carries its own.  exL, allR, exR and allL push their fresh
variable onto the environment; unfoldL and unfoldR continue into the
definition body, whose recursive atoms already name the definition, with
the atom's arguments as the environment; the invariance premise of the
induction reads B S and S, both open like a definition body, under its
fresh eigenvariables ys; releasing focus hands the environment over.  A
formula is built only where it is stored (storeL, freeze, storeR) or
handed to invariant synthesis, so the store and a stored goal hold
concrete formulas only.  eqL, eqR and initial hand the unifier their
terms with the environment, and it reads them under it; unfoldR builds
an atom's arguments only once an unfold is granted.  Replay reads its
focused formulas under an environment too, but it builds each term it
compares with term_subst_bound and shares no code with the unifier, and
its asynchronous phase opens and unfolds eagerly: it checks these paths
independently.

A least fixed point on the left can be frozen (stored), unfolded, or
treated by the obvious induction: the kernel abstracts the fixed point out
of the surrounding sequent, in two flavours, one folding the stored atomic
hypotheses into the invariant (0) and one keeping the invariant bare (1),
and its record names the flavour it used.  The bare one, the smaller
formula, is tried first; where it is too weak, the folded one is tried
next.  The left premise of this induction is provable by construction
(instantiate the abstraction at the original arguments, reflexivity for the
equations, initial steps for the folded hypotheses, and an identity for the
goal), so the kernel discharges it after checking exactly those side
conditions and records only the invariance premise.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .fpc import Certificate, FpcDefinition
from .syntax import (
    YS_HEAD, All, And, App, EVar, Eq, Ex, Ff, Formula, Imp, Index, MuAtom,
    MVar, Or, Record, Store, StructuralError, Term, Tt, body_with_invariant,
    input_evars, instantiate, map_sequent, store_lookup, synthesize_obvious_invariants,
    term_subst_bound,
)
from .trace import RULES, TraceNode
from .unify import CLASH, OK, BindingStore, Env, Sigma


class ResourceLimits(Record):
    __slots__ = __match_args__ = ("max_steps",)
    max_steps: int


ResourceLimits.__init__.__defaults__ = (1_000_000,)


class Accepted(Record):
    __slots__ = __match_args__ = ("trace", "steps")
    trace: TraceNode
    steps: int


class Rejected(Record):
    __slots__ = __match_args__ = ("steps",)
    steps: int


class OutOfBudget(Record):
    __slots__ = __match_args__ = ("steps",)
    steps: int


CheckResult = Accepted | Rejected | OutOfBudget


class OutOfBudgetError(Exception):
    pass


class _Ctx:
    __slots__ = ("fpc", "binds", "max_steps", "steps")

    def __init__(self, fpc: FpcDefinition, max_steps: int, first: int) -> None:
        self.fpc = fpc
        self.binds = BindingStore(first)
        self.max_steps = max_steps
        self.steps = 0  # counted by check's loop and by _atom_right, the same way


# ---------------------------------------------------------------------------
# search

# `env[i]` is the closed term for Bound(i) at a formula's top, and
# `instantiate` builds the formula it denotes.  The right-hand side is a
# triple (kind, formula, env); a stored goal is built, so its env is empty.
# The goal frames are
#   (_async, store, theta, rhs, cert, level, sigma)
#   (_left_focus, store, focus, env, goal, cert, level, sigma)
#   (_right_focus, store, focus, env, cert, level, sigma)
# and a phase returns what `check` documents.


def _inst(t: Term, env: Env) -> Term:
    """The term t denotes under env."""
    return t if t.closed else term_subst_bound(t, env, 0)


def _async(ctx: _Ctx, frame: tuple):
    _, store, theta, rhs, cert, level, sigma = frame
    if theta:
        (c, env), rest = theta[0], theta[1:]
        k = c.__class__
        if k is Eq:
            out, sigma2 = ctx.binds.unify_case_split(c.l, c.r, sigma, env)
            if out is CLASH:
                return ("eqL_clash", None, None, None, None),
            if out is OK:
                return (("eqL", None, None, None, None),
                        (_async, store, rest, rhs, cert, level, sigma2))
            return None  # a scope-indeterminate equation fails the branch
        if k is And:
            return (("andL", None, None, None, None),
                    (_async, store, ((c.a, env), (c.b, env)) + rest, rhs, cert, level, sigma))
        if k is Ex:
            e = EVar(next(ctx.binds.ids), level + 1)
            return (("exL", e, None, None, None),
                    (_async, store, ((c.body, (e,) + env),) + rest, rhs, cert, level + 1,
                     sigma))
        if k is MuAtom:
            return _atom_left(ctx, store, c, env, rest, rhs, cert, level, sigma)
        if k is Or:
            return (("orL", None, None, None, None),
                    (_async, store, ((c.a, env),) + rest, rhs, cert, level, sigma),
                    (_async, store, ((c.b, env),) + rest, rhs, cert, level, sigma))
        if k is Tt:
            return ("ttL", None, None, None, None), (_async, store, rest, rhs, cert, level, sigma)
        if k is Ff:
            return ("ffL", None, None, None, None),
        if k is Imp or k is All:
            return _store(ctx, "storeL", instantiate(c, env), store, rest, rhs, cert, level,
                          sigma)
        return None

    kind, f, env = rhs
    if kind == "un":
        k = f.__class__
        if k is Imp:
            return (("impR", None, None, None, None),
                    (_async, store, ((f.a, env),), ("un", f.b, env), cert, level, sigma))
        if k is All:
            e = EVar(next(ctx.binds.ids), level + 1)
            return (("allR", e, None, None, None),
                    (_async, store, (), ("un", f.body, (e,) + env), cert, level + 1, sigma))
        return (("storeR", None, None, None, None),
                (_async, store, (), ("st", instantiate(f, env), ()), cert, level, sigma))
    return _decide(ctx, store, f, cert, level, sigma)


def _atom_left(ctx: _Ctx, store: Store, c: MuAtom, env: Env, rest, rhs, cert: Certificate,
               level: int, sigma: Sigma) -> Iterator[tuple]:
    fpc = ctx.fpc
    binds = ctx.binds
    d = c.defn
    ts = tuple([_inst(x, env) for x in c.args])
    # induction
    for kr in fpc.ind_expert(cert):
        targs = tuple(binds.resolve(x, sigma) for x in ts)
        rstore, _, (_, goal_f) = map_sequent(
            store, (), (rhs[0], instantiate(rhs[1], rhs[2])),
            lambda t, _: binds.resolve(t, sigma))
        invs = synthesize_obvious_invariants(rstore, targs, goal_f)
        for k in (1, 0):
            inv = invs[k]
            if inv is None:
                continue
            ys = tuple(EVar(next(binds.ids), level + 1) for _ in range(d.arity))
            # the invariance premise: store ; B S ys |- S ys, read under ys
            yield (("induct_obvious", App(YS_HEAD, ys), None, k, None),
                   (_async, store, ((body_with_invariant(d, inv), ys),), ("un", inv, ys), kr,
                    level + 1, sigma))
    yield from _store(ctx, "freeze", MuAtom(d, ts), store, rest, rhs, cert, level, sigma)
    # unfold
    for k1 in fpc.unfold_left_expert(cert):
        yield (("unfoldL", None, None, None, None),
               (_async, store, ((d.body, ts),) + rest, rhs, k1, level, sigma))


def _store(ctx: _Ctx, rule: str, f: Formula, store: Store, rest, rhs, cert: Certificate,
           level: int, sigma: Sigma) -> Iterator[tuple]:
    """storeL or freeze: f goes into the store under each index offered."""
    for k1, ix in ctx.fpc.store_clerk(cert):
        if store_lookup(store, ix) is not None:
            raise StructuralError(f"duplicate store index {ix!r}")
        yield (rule, None, ix, None, None), (_async, store + ((ix, f),), rest, rhs, k1, level,
                                             sigma)


def _decide(ctx: _Ctx, store: Store, f: Formula, cert: Certificate, level: int,
            sigma: Sigma) -> Iterator[tuple]:
    """The border sequent: decide on a store entry, then on the goal."""
    for k1, ix in ctx.fpc.decide_expert(cert):
        g = store_lookup(store, ix)
        if g is not None:
            yield (("decideL", None, ix, None, None),
                   (_left_focus, store, g, (), f, k1, level, sigma))
    yield ("decideR", None, None, None, None), (_right_focus, store, f, (), cert, level, sigma)


def _left_focus(ctx: _Ctx, frame: tuple):
    _, store, focus, env, goal, cert, level, sigma = frame
    k = focus.__class__
    if k is All:
        t = MVar(next(ctx.binds.ids), level)
        return (("allL", t, None, None, None),
                (_left_focus, store, focus.body, (t,) + env, goal, cert, level, sigma))
    if k is Imp:
        return (("impL", None, None, None, None),
                (_right_focus, store, focus.a, env, cert, level, sigma),
                (_left_focus, store, focus.b, env, goal, cert, level, sigma))
    # positive focus: release back to the asynchronous phase
    return (("releaseL", None, None, None, None),
            (_async, store, ((focus, env),), ("st", goal, ()), cert, level, sigma))


def _right_focus(ctx: _Ctx, frame: tuple):
    _, store, focus, env, cert, level, sigma = frame
    k = focus.__class__
    if k is Ex:
        t = MVar(next(ctx.binds.ids), level)
        return (("exR", t, None, None, None),
                (_right_focus, store, focus.body, (t,) + env, cert, level, sigma))
    if k is Eq:
        if ctx.binds.unify(focus.l, focus.r, sigma, env):
            return ("eqR", None, None, None, None),
        return None
    if k is And:
        return (("andR", None, None, None, None),
                (_right_focus, store, focus.a, env, cert, level, sigma),
                (_right_focus, store, focus.b, env, cert, level, sigma))
    if k is MuAtom:
        return _atom_right(ctx, store, focus, env, cert, level, sigma)
    if k is Or:
        return iter(((("orR", None, None, None, 1),
                      (_right_focus, store, focus.a, env, cert, level, sigma)),
                     (("orR", None, None, None, 2),
                      (_right_focus, store, focus.b, env, cert, level, sigma))))
    if k is Tt:
        return ("ttR", None, None, None, None),
    if k is Imp or k is All:
        return (("releaseR", None, None, None, None),
                (_async, store, (), ("un", focus, env), cert, level, sigma))
    return None  # ff has no right rule


def _atom_right(ctx: _Ctx, store: Store, focus: MuAtom, env: Env, cert: Certificate,
                level: int, sigma: Sigma) -> Iterator[tuple]:
    """initial on each stored atom of the same definition, one step each,
    then unfoldR."""
    binds = ctx.binds
    d, ts = focus.defn, focus.args
    for ix, g in store:
        if g.__class__ is MuAtom and g.defn is d:
            ctx.steps += 1
            if ctx.steps > ctx.max_steps:
                raise OutOfBudgetError
            if binds.unify_args(ts, g.args, sigma, env):
                yield ("initial", None, ix, None, None),
    for k1 in ctx.fpc.unfold_right_expert(cert):
        args = tuple([_inst(x, env) for x in ts])
        yield ("unfoldR", None, None, None, None), (_right_focus, store, d.body, args, k1, level,
                                                    sigma)


# ---------------------------------------------------------------------------
# finalisation and entry point


def _finalize(binds: BindingStore, records) -> TraceNode:
    """Build the trace of a finished search from its records, newest
    first: in reverse preorder a node's premises are built before it,
    first premise on top.  Each node is built once, its term resolved, by
    tuple.__new__, as TraceNode() is a Python-level call."""
    done: list[TraceNode] = []
    while records is not None:
        (rule, term, index, invariant, side), records = records
        n = RULES[rule][0]
        kids = () if n == 0 else (done.pop(),) if n == 1 else (done.pop(), done.pop())
        if term is not None:
            term = binds.resolve(term)
        done.append(tuple.__new__(TraceNode, (rule, kids, term, index, invariant, side)))
    return done[0]


def check(lemmas: Sequence[tuple[Index, Formula]], goal: Formula,
          cert: Certificate, fpc: FpcDefinition,
          limits: ResourceLimits | None = None) -> CheckResult:
    """Search for a proof of `goal` under the lemma store, as directed by
    the certificate.  Returns Accepted with a replayable trace, Rejected
    when the certificate's alternatives are exhausted, or OutOfBudget when
    the step limit is hit first.

    One step starts each goal: its phase returns None (the goal fails),
    (record, premises...) or a generator of those, its alternatives.  A
    choice point is (alternatives, goals, records, trail mark); the bottom
    one has none and rewinds the trail to where the search began."""
    limits = limits or ResourceLimits()
    store = tuple(lemmas)
    top = max((v.id for v in input_evars(store, goal)), default=0)
    ctx = _Ctx(fpc, limits.max_steps, top + 1)
    binds = ctx.binds
    trail = binds.trail
    max_steps = ctx.max_steps
    goals = ((_async, store, (), ("un", goal, ()), cert, 0, {}), None)
    records = None
    choices = [(iter(()), None, None, 0)]
    try:
        while goals is not None:
            frame, goals = goals
            ctx.steps += 1
            if ctx.steps > max_steps:
                raise OutOfBudgetError
            out = frame[0](ctx, frame)
            if out is not None and out.__class__ is not tuple:
                choices.append((out, goals, records, len(trail)))
                out = next(out, None)
            while out is None:
                alts, goals, records, mark = choices[-1]
                if len(trail) != mark:
                    binds.undo(mark)
                out = next(alts, None)
                if out is None:
                    choices.pop()
                    if not choices:
                        return Rejected(ctx.steps)
            records = (out[0], records)
            n = len(out)
            if n == 2:
                goals = (out[1], goals)
            elif n == 3:
                goals = (out[1], (out[2], goals))
    except OutOfBudgetError:
        return OutOfBudget(ctx.steps)
    return Accepted(_finalize(binds, records), ctx.steps)
