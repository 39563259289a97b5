"""Search-free verification of proof traces.

A trace produced by the kernel records, for every rule, the choice data
the rule consumed, with all metavariable bindings of the final solution
already substituted in.  Replaying is therefore deterministic: starting
from the original lemmas and goal, the replayer computes each rule's
principal formula from the sequent it has reached, each record must name
exactly the rule that applies to it, witnesses are read from the record
(after scope checks), and leaves are closed by syntactic comparisons.
A failure names its record by its line in the trace file.

Metavariables that survive in a finished trace were never constrained; the
replayer treats them as inert constants.  The left equality rule is the
one place where the replayer recomputes something: the case-analysis
substitution on eigenvariables, which it derives from the recorded
equation and applies to the premise (the kernel reads under it instead).
A recorded clash leaf must exhibit a rigid disagreement, so it stays
sound even on tampered traces.
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    YS_HEAD, All, And, App, EVar, Eq, Ex, Ff, Formula, Imp, MVar, MuAtom,
    Or, Rhs, Store, Term, Tt, apply_invariant, body_with_invariant,
    input_vars, map_sequent, open_binder, store_lookup,
    synthesize_obvious_invariants, term_vars, unfold_mu,
)
from .trace import RULES, TraceNode

OK = "ok"
CLASH = "clash"
STUCK = "stuck"


class ReplayError(Exception):
    pass


# ---------------------------------------------------------------------------
# eigenvariable-only unification on concrete terms


def _sigma_walk(t: Term, sigma: dict[EVar, Term]) -> Term:
    while isinstance(t, EVar) and t in sigma:
        t = sigma[t]
    return t


def _sigma_apply(t: Term, sigma: dict[EVar, Term]) -> Term:
    if t.ground:
        return t
    t = _sigma_walk(t, sigma)
    if isinstance(t, App) and not t.ground:
        return App(t.head, tuple(_sigma_apply(x, sigma) for x in t.args))
    return t


def _occurs(e: EVar, t: Term, sigma: dict[EVar, Term]) -> bool:
    if t.ground:
        return False
    t = _sigma_walk(t, sigma)
    if isinstance(t, EVar):
        return t == e
    if isinstance(t, App):
        return any(_occurs(e, x, sigma) for x in t.args)
    return False


def match_evars(a: Term, b: Term) -> tuple[str, Optional[dict[EVar, Term]]]:
    """Unify two concrete terms with eigenvariables flexible and
    metavariables inert.  Returns (OK, sigma), (CLASH, None) when a rigid
    disagreement is found regardless of undetermined parts, or
    (STUCK, None) when the problem cannot be decided."""
    sigma: dict[EVar, Term] = {}

    def go(x: Term, y: Term) -> str:
        x = _sigma_walk(x, sigma)
        y = _sigma_walk(y, sigma)
        if x == y:
            return OK
        if isinstance(x, EVar):
            if _occurs(x, y, sigma):
                return CLASH
            sigma[x] = y
            return OK
        if isinstance(y, EVar):
            if _occurs(y, x, sigma):
                return CLASH
            sigma[y] = x
            return OK
        if isinstance(x, MVar) or isinstance(y, MVar):
            return STUCK
        if not (isinstance(x, App) and isinstance(y, App)):
            raise ReplayError("positional variable in a replayed equation")
        if x.head is not y.head or len(x.args) != len(y.args):
            return CLASH
        stuck = False
        for u, v in zip(x.args, y.args):
            out = go(u, v)
            if out is CLASH:
                return CLASH
            if out is STUCK:
                stuck = True
        return STUCK if stuck else OK

    out = go(a, b)
    if out is not OK:
        return out, None
    return OK, {e: _sigma_apply(t, sigma) for e, t in sigma.items()}


# ---------------------------------------------------------------------------
# replay proper


class _Replay:
    def __init__(self, store: Store, goal: Formula, trace: TraceNode) -> None:
        self.node = trace  # the record being replayed, for a failure to name
        # an eigenvariable free in the inputs is a constant no rule may make
        self.used_evars = {v.id for v in input_vars(store, goal) if isinstance(v, EVar)}

    # -- checks

    def need(self, cond: bool, msg: str) -> None:
        if not cond:
            raise ReplayError(msg)

    def expect(self, node: TraceNode, rules: tuple[str, ...],
               formula: Formula) -> None:
        """The record is one of `rules`, those that apply to `formula`, with
        the premises and exactly the fields trace.RULES gives it: an extra
        field is tampering even if nothing reads it."""
        if node.rule not in rules:
            raise ReplayError(f"expected {' or '.join(rules)} on the principal formula {formula!r}")
        nchildren, fields = RULES[node.rule]
        if len(node.children) != nchildren:
            raise ReplayError(f"expected {nchildren} premises, found {len(node.children)}")
        for name in ("term", "index", "invariant", "side"):
            if (getattr(node, name) is None) == (name in fields):
                what = "missing" if name in fields else "unexpected"
                raise ReplayError(f"{what} {name} field")

    def fresh_eigen(self, t: Term, level: int) -> EVar:
        self.need(isinstance(t, EVar), "term is not an eigenvariable")
        self.need(t.level == level, f"eigenvariable level {t.level} != {level}")
        self.need(t.id not in self.used_evars, "eigenvariable reused")
        self.used_evars.add(t.id)
        return t

    def scoped_witness(self, t: Term, level: int) -> Term:
        # a Bound here escapes every binder, and the binders that invariant
        # synthesis adds would capture it
        self.need(t.closed, "witness holds a bound variable")
        for v in term_vars(t):
            if isinstance(v, EVar):
                self.need(v.id in self.used_evars and v.level <= level,
                          "witness uses an out-of-scope eigenvariable")
            else:
                self.need(v.level <= level,
                          "witness uses an out-of-scope metavariable")
        return t

    def invariance_eigen(self, node: TraceNode, arity: int, level: int
                         ) -> tuple[Term, ...]:
        t = node.term
        self.need(isinstance(t, App) and t.head == YS_HEAD and len(t.args) == arity,
                  "malformed eigenvariable bundle on an induction record")
        return tuple(self.fresh_eigen(y, level + 1) for y in t.args)

    # -- phases

    def r_async(self, store: Store, theta: tuple[Formula, ...], rhs: Rhs,
                level: int, node: TraceNode) -> None:
        self.node = node
        if theta:
            c, rest = theta[0], theta[1:]
            match c:
                case And(a=a, b=b):
                    self.expect(node, ("andL",), c)
                    self.r_async(store, (a, b) + rest, rhs, level, node.children[0])
                case Or(a=a, b=b):
                    self.expect(node, ("orL",), c)
                    self.r_async(store, (a,) + rest, rhs, level, node.children[0])
                    self.r_async(store, (b,) + rest, rhs, level, node.children[1])
                case Ex():
                    self.expect(node, ("exL",), c)
                    e = self.fresh_eigen(node.term, level + 1)
                    self.r_async(store, (open_binder(c, e),) + rest, rhs,
                                 level + 1, node.children[0])
                case Eq(l=l, r=r):
                    self.expect(node, ("eqL", "eqL_clash"), c)
                    out, sigma = match_evars(l, r)
                    if node.rule == "eqL_clash":
                        self.need(out is CLASH, "recorded clash is not rigid")
                        return
                    self.need(out is OK, "recorded equation does not unify")
                    if sigma:
                        store, rest, rhs = map_sequent(
                            store, rest, rhs, lambda t, _: _sigma_apply(t, sigma))
                    self.r_async(store, rest, rhs, level, node.children[0])
                case Tt():
                    self.expect(node, ("ttL",), c)
                    self.r_async(store, rest, rhs, level, node.children[0])
                case Ff():
                    self.expect(node, ("ffL",), c)
                case MuAtom(defn=d, args=ts):
                    self.expect(node, ("freeze", "unfoldL", "induct_obvious"), c)
                    if node.rule == "freeze":
                        self.r_store(store, c, rest, rhs, level, node)
                    elif node.rule == "unfoldL":
                        self.r_async(store, (unfold_mu(d, ts),) + rest, rhs,
                                     level, node.children[0])
                    else:
                        good = synthesize_obvious_invariants(store, ts, rhs[1])
                        self.need(node.invariant in good,
                                  "invariant is not one this sequent yields")
                        inv = good[good.index(node.invariant)]  # ours, not the reader's
                        ys = self.invariance_eigen(node, d.arity, level)
                        self.r_async(store, (body_with_invariant(d, inv, ys),),
                                     ("un", apply_invariant(inv, ys)),
                                     level + 1, node.children[0])
                case Imp() | All():
                    self.expect(node, ("storeL",), c)
                    self.r_store(store, c, rest, rhs, level, node)
            return

        kind, f = rhs
        if kind == "un":
            match f:
                case Imp(a=a, b=b):
                    self.expect(node, ("impR",), f)
                    self.r_async(store, (a,), ("un", b), level, node.children[0])
                case All():
                    self.expect(node, ("allR",), f)
                    e = self.fresh_eigen(node.term, level + 1)
                    self.r_async(store, (), ("un", open_binder(f, e)),
                                 level + 1, node.children[0])
                case _:
                    self.expect(node, ("storeR",), f)
                    self.r_async(store, (), ("st", f), level, node.children[0])
            return

        self.expect(node, ("decideL", "decideR"), f)
        if node.rule == "decideR":
            self.r_right(store, f, level, node.children[0])
            return
        g = store_lookup(store, node.index)
        self.need(g is not None, "decide on an absent index")
        self.r_left(store, g, f, level, node.children[0])

    def r_store(self, store: Store, c: Formula, theta: tuple[Formula, ...], rhs: Rhs,
                level: int, node: TraceNode) -> None:
        self.need(store_lookup(store, node.index) is None, "store index already used")
        self.r_async(store + ((node.index, c),), theta, rhs, level, node.children[0])

    def r_left(self, store: Store, focus: Formula, goal: Formula,
               level: int, node: TraceNode) -> None:
        self.node = node
        match focus:
            case All():
                self.expect(node, ("allL",), focus)
                w = self.scoped_witness(node.term, level)
                self.r_left(store, open_binder(focus, w), goal, level,
                            node.children[0])
            case Imp(a=a, b=b):
                self.expect(node, ("impL",), focus)
                self.r_right(store, a, level, node.children[0])
                self.r_left(store, b, goal, level, node.children[1])
            case _:
                self.expect(node, ("releaseL",), focus)
                self.r_async(store, (focus,), ("st", goal), level,
                             node.children[0])

    def r_right(self, store: Store, focus: Formula, level: int,
                node: TraceNode) -> None:
        self.node = node
        match focus:
            case Or(a=a, b=b):
                self.expect(node, ("orR",), focus)
                self.need(node.side in (1, 2), "orR side is neither 1 nor 2")
                sub = a if node.side == 1 else b
                self.r_right(store, sub, level, node.children[0])
            case And(a=a, b=b):
                self.expect(node, ("andR",), focus)
                self.r_right(store, a, level, node.children[0])
                self.r_right(store, b, level, node.children[1])
            case Ex():
                self.expect(node, ("exR",), focus)
                w = self.scoped_witness(node.term, level)
                self.r_right(store, open_binder(focus, w), level,
                             node.children[0])
            case Eq(l=l, r=r):
                self.expect(node, ("eqR",), focus)
                self.need(l == r, "right equality is not reflexive when replayed")
            case Tt():
                self.expect(node, ("ttR",), focus)
            case MuAtom(defn=d, args=ts):
                self.expect(node, ("initial", "unfoldR"), focus)
                if node.rule == "initial":
                    g = store_lookup(store, node.index)
                    self.need(isinstance(g, MuAtom) and g.defn is d
                              and g.args == ts,
                              "initial step does not match its store entry")
                else:
                    self.r_right(store, unfold_mu(d, ts), level,
                                 node.children[0])
            case Imp() | All():
                self.expect(node, ("releaseR",), focus)
                self.r_async(store, (), ("un", focus), level, node.children[0])
            case Ff():
                raise ReplayError("ff has no right rule")


def explain_failure(lemmas, goal: Formula, trace: TraceNode) -> Optional[str]:
    """Replay a trace; None when it checks out, else a reason it does not,
    naming the failing record by its line in the trace file (preorder)."""
    store = tuple(lemmas)
    replay = _Replay(store, goal, trace)
    try:
        replay.r_async(store, (), ("un", goal), 0, trace)
    except ReplayError as e:
        reason = str(e)
    except RecursionError:
        return "trace nests too deeply for this checker"
    except (TypeError, AttributeError) as e:
        reason = f"malformed trace: {e}"
    else:
        return None
    node = replay.node
    if not isinstance(node, TraceNode):  # no record to name
        return reason
    # the records before the failing one in preorder have all replayed
    n = next(i for i, m in enumerate(trace.walk(), 1) if m is node)
    return f"record {n} ({node.rule}): {reason}"


def verify_trace(lemmas, goal: Formula, trace: TraceNode) -> bool:
    return explain_failure(lemmas, goal, trace) is None
