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

Alternatives are explored depth first with full backtracking: every prove
function is a generator of records, so an exhausted inner premise can
pull the next solution of an outer one.  A record is a plain tuple,
(rule, premises, *fields) with the fields `trace.RULES` lists; `_finalize`
builds the trace of the proof found from its records, each node once,
with its terms resolved.  Metavariable bindings live in a single trailed
store shared along a branch.  The case-analysis substitution of the left
equality rule is an argument of the prove functions instead, `sigma`: its
premise goes on with the same store, workbench and goal, and every
unification reads their terms under it, so it cannot leak into sibling
branches.  Only the induction builds the sequent under it, resolving
every formula.

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
an atom's arguments only once an unfold is granted.  Replay opens and
unfolds eagerly, so it checks these paths independently.

A least fixed point on the left can be frozen (stored), unfolded, or
treated by the obvious induction: the kernel abstracts the fixed point out
of the surrounding sequent, in two flavours, one folding the stored atomic
hypotheses into the invariant (0) and one keeping the invariant bare (1),
and its record names the flavour it used.  The left premise of this
induction is provable by construction (instantiate the abstraction at the
original arguments, reflexivity for the equations, initial steps for the
folded hypotheses, and an identity for the goal), so the kernel discharges
it after checking exactly those side conditions and records only the
invariance premise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .fpc import Certificate, FpcDefinition
from .syntax import (
    YS_HEAD, All, And, App, EVar, Eq, Ex, Ff, Formula, Imp, Index, MuAtom,
    MVar, Or, Store, StructuralError, Term, Tt, body_with_invariant, input_vars,
    instantiate, map_sequent, store_lookup, synthesize_obvious_invariants,
    term_subst_bound,
)
from .trace import RULES, TraceNode
from .unify import CLASH, OK, BindingStore, Env, Sigma


@dataclass(frozen=True)
class ResourceLimits:
    max_steps: int = 1_000_000


@dataclass(frozen=True)
class Accepted:
    trace: TraceNode
    steps: int


@dataclass(frozen=True)
class Rejected:
    steps: int


@dataclass(frozen=True)
class OutOfBudget:
    steps: int


CheckResult = Union[Accepted, Rejected, OutOfBudget]


class OutOfBudgetError(Exception):
    pass


class _Ctx:
    __slots__ = ("fpc", "binds", "max_steps", "steps")

    def __init__(self, fpc: FpcDefinition, max_steps: int) -> None:
        self.fpc = fpc
        self.binds = BindingStore()
        self.max_steps = max_steps
        self.steps = 0

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise OutOfBudgetError


# ---------------------------------------------------------------------------
# search

# `env[i]` is the closed term for Bound(i) at a formula's top, and
# `instantiate` builds the formula it denotes.  The right-hand side is a
# triple (kind, formula, env); a stored goal is built, so its env is empty.

Record = tuple  # (rule, premises, *fields), fields as trace.RULES lists them


def _inst(t: Term, env: Env) -> Term:
    """The term t denotes under env."""
    return t if t.closed else term_subst_bound(t, env, 0)


def _async(ctx: _Ctx, store: Store, theta: tuple[tuple[Formula, Env], ...],
           rhs: tuple[str, Formula, Env], cert: Certificate, level: int,
           sigma: Sigma) -> Iterator[Record]:
    ctx.tick()
    fpc = ctx.fpc
    binds = ctx.binds
    if theta:
        (c, env), rest = theta[0], theta[1:]
        match c:
            case And(a=a, b=b):
                for t in _async(ctx, store, ((a, env), (b, env)) + rest, rhs, cert, level,
                                sigma):
                    yield ("andL", (t,))
            case Or(a=a, b=b):
                for t1 in _async(ctx, store, ((a, env),) + rest, rhs, cert, level, sigma):
                    for t2 in _async(ctx, store, ((b, env),) + rest, rhs, cert, level, sigma):
                        yield ("orL", (t1, t2))
            case Ex(body=b):
                e = EVar(next(binds.ids), level + 1)
                for t in _async(ctx, store, ((b, (e,) + env),) + rest, rhs, cert, level + 1,
                                sigma):
                    yield ("exL", (t,), e)
            case Eq(l=l, r=r):
                cp = binds.mark()
                out, sigma2 = binds.unify_case_split(l, r, sigma, env)
                if out is CLASH:
                    yield ("eqL_clash", ())
                elif out is OK:
                    for t in _async(ctx, store, rest, rhs, cert, level, sigma2):
                        yield ("eqL", (t,))
                    binds.undo(cp)
                # a scope-indeterminate equation fails the branch
            case Tt():
                for t in _async(ctx, store, rest, rhs, cert, level, sigma):
                    yield ("ttL", (t,))
            case Ff():
                yield ("ffL", ())
            case MuAtom(defn=d, args=ts):
                ts = tuple([_inst(x, env) for x in ts])
                # induction
                for kr in fpc.ind_expert(cert):
                    targs = tuple(binds.resolve(x, sigma) for x in ts)
                    rstore, _, (_, goal_f) = map_sequent(
                        store, (), (rhs[0], instantiate(rhs[1], rhs[2])),
                        lambda t, _: binds.resolve(t, sigma))
                    for k, inv in enumerate(synthesize_obvious_invariants(rstore, targs, goal_f)):
                        if inv is None:
                            continue
                        ys = tuple(EVar(next(binds.ids), level + 1) for _ in range(d.arity))
                        # the invariance premise: store ; B S ys |- S ys, read under ys
                        for t2 in _async(ctx, store, ((body_with_invariant(d, inv), ys),),
                                         ("un", inv, ys), kr, level + 1, sigma):
                            yield ("induct_obvious", (t2,), App(YS_HEAD, ys), k)
                # freeze
                for k1, ix in fpc.store_clerk(cert):
                    if store_lookup(store, ix) is not None:
                        raise StructuralError(f"duplicate store index {ix!r}")
                    for t in _async(ctx, store + ((ix, MuAtom(d, ts)),), rest, rhs, k1, level,
                                    sigma):
                        yield ("freeze", (t,), ix)
                # unfold
                for k1 in fpc.unfold_left_expert(cert):
                    for t in _async(ctx, store, ((d.body, ts),) + rest, rhs, k1, level, sigma):
                        yield ("unfoldL", (t,))
            case Imp() | All():
                for k1, ix in fpc.store_clerk(cert):
                    if store_lookup(store, ix) is not None:
                        raise StructuralError(f"duplicate store index {ix!r}")
                    for t in _async(ctx, store + ((ix, instantiate(c, env)),), rest, rhs, k1,
                                    level, sigma):
                        yield ("storeL", (t,), ix)
        return

    kind, f, env = rhs
    if kind == "un":
        match f:
            case Imp(a=a, b=b):
                for t in _async(ctx, store, ((a, env),), ("un", b, env), cert, level, sigma):
                    yield ("impR", (t,))
            case All(body=b):
                e = EVar(next(binds.ids), level + 1)
                for t in _async(ctx, store, (), ("un", b, (e,) + env), cert, level + 1,
                                sigma):
                    yield ("allR", (t,), e)
            case _:
                for t in _async(ctx, store, (), ("st", instantiate(f, env), ()), cert, level,
                                sigma):
                    yield ("storeR", (t,))
        return

    # border sequent: decide
    for k1, ix in fpc.decide_expert(cert):
        g = store_lookup(store, ix)
        if g is None:
            continue
        for t in _left_focus(ctx, store, g, (), f, k1, level, sigma):
            yield ("decideL", (t,), ix)
    for t in _right_focus(ctx, store, f, (), cert, level, sigma):
        yield ("decideR", (t,))


def _left_focus(ctx: _Ctx, store: Store, focus: Formula, env: Env,
                goal: Formula, cert: Certificate, level: int,
                sigma: Sigma) -> Iterator[Record]:
    ctx.tick()
    match focus:
        case All(body=b):
            t = MVar(next(ctx.binds.ids), level)
            for tr in _left_focus(ctx, store, b, (t,) + env, goal, cert, level, sigma):
                yield ("allL", (tr,), t)
        case Imp(a=a, b=b):
            for t1 in _right_focus(ctx, store, a, env, cert, level, sigma):
                for t2 in _left_focus(ctx, store, b, env, goal, cert, level, sigma):
                    yield ("impL", (t1, t2))
        case _:
            # positive focus: release back to the asynchronous phase
            for t in _async(ctx, store, ((focus, env),), ("st", goal, ()), cert, level, sigma):
                yield ("releaseL", (t,))


def _right_focus(ctx: _Ctx, store: Store, focus: Formula, env: Env,
                 cert: Certificate, level: int, sigma: Sigma) -> Iterator[Record]:
    ctx.tick()
    binds = ctx.binds
    match focus:
        case Or(a=a, b=b):
            for side, sub in ((1, a), (2, b)):
                for t in _right_focus(ctx, store, sub, env, cert, level, sigma):
                    yield ("orR", (t,), side)
        case And(a=a, b=b):
            for t1 in _right_focus(ctx, store, a, env, cert, level, sigma):
                for t2 in _right_focus(ctx, store, b, env, cert, level, sigma):
                    yield ("andR", (t1, t2))
        case Ex(body=b):
            t = MVar(next(binds.ids), level)
            for tr in _right_focus(ctx, store, b, (t,) + env, cert, level, sigma):
                yield ("exR", (tr,), t)
        case Eq(l=l, r=r):
            cp = binds.mark()
            if binds.unify(l, r, sigma, env):
                yield ("eqR", ())
                binds.undo(cp)
        case Tt():
            yield ("ttR", ())
        case Ff():
            return
        case MuAtom(defn=d, args=ts):
            for ix, g in store:
                if not (isinstance(g, MuAtom) and g.defn is d):
                    continue
                ctx.tick()
                cp = binds.mark()
                if binds.unify_args(ts, g.args, sigma, env):
                    yield ("initial", (), ix)
                    binds.undo(cp)
            for k1 in ctx.fpc.unfold_right_expert(cert):
                args = tuple([_inst(x, env) for x in ts])
                for t in _right_focus(ctx, store, d.body, args, k1, level, sigma):
                    yield ("unfoldR", (t,))
        case Imp() | All():
            for t in _async(ctx, store, (), ("un", focus, env), cert, level, sigma):
                yield ("releaseR", (t,))


# ---------------------------------------------------------------------------
# finalisation and entry point


def _finalize(binds: BindingStore, root: Record) -> TraceNode:
    """Build the trace of a finished search from its records, each node
    once, with the metavariables of its term resolved; the walk runs off an
    explicit stack, premises first."""
    done: list[TraceNode] = []
    stack = [(root, False)]
    while stack:
        rec, premises_done = stack.pop()
        if not premises_done:
            stack.append((rec, True))
            stack += ((c, False) for c in reversed(rec[1]))
            continue
        rule, premises, *vals = rec
        n = len(premises)
        kids = tuple(done[len(done) - n:])
        del done[len(done) - n:]
        fields = dict(zip(RULES[rule][1], vals))
        if "term" in fields:
            fields["term"] = binds.resolve(fields["term"])
        done.append(TraceNode(rule, kids, **fields))
    return done[0]


def check(lemmas: Sequence[tuple[Index, Formula]], goal: Formula,
          cert: Certificate, fpc: FpcDefinition,
          limits: Optional[ResourceLimits] = None) -> CheckResult:
    """Search for a proof of `goal` under the lemma store, as directed by
    the certificate.  Returns Accepted with a replayable trace, Rejected
    when the certificate's alternatives are exhausted, or OutOfBudget when
    the step limit is hit first."""
    limits = limits or ResourceLimits()
    ctx = _Ctx(fpc, limits.max_steps)
    store = tuple(lemmas)
    # a variable free in the inputs is a constant that no rule may make again
    ids = [v.id for v in input_vars(store, goal)]
    ctx.binds.ids = itertools.count(max(ids, default=0) + 1)
    try:
        for tr in _async(ctx, store, (), ("un", goal, ()), cert, 0, {}):
            return Accepted(_finalize(ctx.binds, tr), ctx.steps)
    except OutOfBudgetError:
        return OutOfBudget(ctx.steps)
    if ctx.binds.trail:
        raise StructuralError("bindings survived an exhausted search")
    return Rejected(ctx.steps)
