"""Search-free verification of proof traces.

A trace produced by the kernel records, for every rule, the choice data
the rule consumed, with all metavariable bindings of the final solution
already substituted in.  Replaying is therefore deterministic: starting
from the original lemmas and goal, the replayer computes each rule's
principal formula from the sequent it has reached, each record must name
exactly the rule that applies to it, witnesses are read from the record
(after scope checks), and leaves are closed by syntactic comparisons.
An induction record names which of the obvious invariants it used, its
flavour; the replayer synthesizes that invariant from the sequent itself.
Replay never backtracks, so it is one loop over the records in the order
a trace file lists them, with a stack of the premises still to prove: no
trace is too deep for it, and a failure names its record by its line.

Metavariables that survive in a finished trace were never constrained; the
replayer treats them as inert constants.  The left equality rule is the
one place where the replayer recomputes something: the case-analysis
substitution on eigenvariables, which it derives from the recorded
equation and applies to the premise (the kernel reads under it instead).
A recorded clash leaf must exhibit a rigid disagreement, so it stays
sound even on tampered traces.
"""

from __future__ import annotations

from collections.abc import Callable

from .syntax import (
    YS_HEAD, All, And, App, EVar, Eq, Ex, Ff, Formula, Imp, MVar, MuAtom,
    Or, Rhs, Store, Term, Tt, body_with_invariant, input_evars, instantiate,
    map_sequent, store_lookup, synthesize_obvious_invariants, term_vars,
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


def match_evars(a: Term, b: Term) -> tuple[str, dict[EVar, Term] | None]:
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

# a premise to prove: the phase that replays its record, and the sequent
Frame = tuple[Callable, tuple]


class _Replay:
    """Each phase checks one record against the sequent it is handed and
    returns the record's premises as frames, first premise first."""

    def __init__(self, store: Store, goal: Formula) -> None:
        self.used_evars = {v.id for v in input_evars(store, goal)}

    # -- checks

    def need(self, cond: bool, msg: str) -> None:
        if not cond:
            raise ReplayError(msg)

    def expect(self, node: TraceNode, rules: tuple[str, ...],
               formula: Formula) -> None:
        """The record is one of `rules`, those that apply to `formula`, with
        exactly the fields trace.RULES gives it: an extra field is tampering
        even if nothing reads it.  Its premises are counted by the loop."""
        if node.rule not in rules:
            raise ReplayError(f"expected {' or '.join(rules)} on the principal formula {formula!r}")
        fields = RULES[node.rule][1]
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
                level: int, node: TraceNode) -> tuple[Frame, ...] | None:
        if theta:
            c, rest = theta[0], theta[1:]
            match c:
                case And(a=a, b=b):
                    self.expect(node, ("andL",), c)
                    return (self.r_async, (store, (a, b) + rest, rhs, level)),
                case Or(a=a, b=b):
                    self.expect(node, ("orL",), c)
                    return ((self.r_async, (store, (a,) + rest, rhs, level)),
                            (self.r_async, (store, (b,) + rest, rhs, level)))
                case Ex(body=b):
                    self.expect(node, ("exL",), c)
                    e = self.fresh_eigen(node.term, level + 1)
                    return (self.r_async, (store, (instantiate(b, (e,)),) + rest, rhs, level + 1)),
                case Eq(l=l, r=r):
                    self.expect(node, ("eqL", "eqL_clash"), c)
                    out, sigma = match_evars(l, r)
                    if node.rule == "eqL_clash":
                        self.need(out is CLASH, "recorded clash is not rigid")
                        return ()
                    self.need(out is OK, "recorded equation does not unify")
                    if sigma:
                        store, rest, rhs = map_sequent(
                            store, rest, rhs, lambda t, _: _sigma_apply(t, sigma))
                    return (self.r_async, (store, rest, rhs, level)),
                case Tt():
                    self.expect(node, ("ttL",), c)
                    return (self.r_async, (store, rest, rhs, level)),
                case Ff():
                    self.expect(node, ("ffL",), c)
                    return ()
                case MuAtom(defn=d, args=ts):
                    self.expect(node, ("freeze", "unfoldL", "induct_obvious"), c)
                    if node.rule == "unfoldL":
                        return (self.r_async,
                                (store, (instantiate(d.body, ts),) + rest, rhs, level)),
                    if node.rule == "induct_obvious":
                        k = node.invariant
                        self.need(k.__class__ is int and 0 <= k < 2,
                                  "invariant flavour is neither 0 nor 1")
                        inv = synthesize_obvious_invariants(store, ts, rhs[1])[k]
                        self.need(inv is not None, "invariant is not one this sequent yields")
                        ys = self.invariance_eigen(node, d.arity, level)
                        b_s = body_with_invariant(d, inv)
                        return (self.r_async, (store, (instantiate(b_s, ys),),
                                               ("un", instantiate(inv, ys)), level + 1)),
                case Imp() | All():
                    self.expect(node, ("storeL",), c)
                case _:
                    return None  # no formula: the loop fails closed
            # freeze or storeL: c goes into the store at the record's index
            self.need(store_lookup(store, node.index) is None, "store index already used")
            return (self.r_async, (store + ((node.index, c),), rest, rhs, level)),

        kind, f = rhs
        if kind == "un":
            match f:
                case Imp(a=a, b=b):
                    self.expect(node, ("impR",), f)
                    return (self.r_async, (store, (a,), ("un", b), level)),
                case All(body=b):
                    self.expect(node, ("allR",), f)
                    e = self.fresh_eigen(node.term, level + 1)
                    return (self.r_async, (store, (), ("un", instantiate(b, (e,))), level + 1)),
                case _:
                    self.expect(node, ("storeR",), f)
                    return (self.r_async, (store, (), ("st", f), level)),

        self.expect(node, ("decideL", "decideR"), f)
        if node.rule == "decideR":
            return (self.r_right, (store, f, level)),
        g = store_lookup(store, node.index)
        self.need(g is not None, "decide on an absent index")
        return (self.r_left, (store, g, f, level)),

    def r_left(self, store: Store, focus: Formula, goal: Formula,
               level: int, node: TraceNode) -> tuple[Frame, ...]:
        match focus:
            case All(body=b):
                self.expect(node, ("allL",), focus)
                w = self.scoped_witness(node.term, level)
                return (self.r_left, (store, instantiate(b, (w,)), goal, level)),
            case Imp(a=a, b=b):
                self.expect(node, ("impL",), focus)
                return ((self.r_right, (store, a, level)),
                        (self.r_left, (store, b, goal, level)))
            case _:
                self.expect(node, ("releaseL",), focus)
                return (self.r_async, (store, (focus,), ("st", goal), level)),

    def r_right(self, store: Store, focus: Formula, level: int,
                node: TraceNode) -> tuple[Frame, ...] | None:
        match focus:
            case Or(a=a, b=b):
                self.expect(node, ("orR",), focus)
                self.need(node.side in (1, 2), "orR side is neither 1 nor 2")
                return (self.r_right, (store, a if node.side == 1 else b, level)),
            case And(a=a, b=b):
                self.expect(node, ("andR",), focus)
                return ((self.r_right, (store, a, level)),
                        (self.r_right, (store, b, level)))
            case Ex(body=b):
                self.expect(node, ("exR",), focus)
                w = self.scoped_witness(node.term, level)
                return (self.r_right, (store, instantiate(b, (w,)), level)),
            case Eq(l=l, r=r):
                self.expect(node, ("eqR",), focus)
                self.need(l == r, "right equality is not reflexive when replayed")
                return ()
            case Tt():
                self.expect(node, ("ttR",), focus)
                return ()
            case MuAtom(defn=d, args=ts):
                self.expect(node, ("initial", "unfoldR"), focus)
                if node.rule == "unfoldR":
                    return (self.r_right, (store, instantiate(d.body, ts), level)),
                g = store_lookup(store, node.index)
                self.need(isinstance(g, MuAtom) and g.defn is d and g.args == ts,
                          "initial step does not match its store entry")
                return ()
            case Imp() | All():
                self.expect(node, ("releaseR",), focus)
                return (self.r_async, (store, (), ("un", focus), level)),
            case Ff():
                raise ReplayError("ff has no right rule")


def explain_failure(lemmas, goal: Formula, trace: TraceNode) -> str | None:
    """Replay a trace; None when it checks out, else a reason it does not,
    naming the failing record by its line in the trace file, the cursor `n`.
    Each record in preorder pops the premise it proves and pushes the ones
    its phase returns, first premise on top.  A record has as many children
    as its phase returns premises, so records and premises run out together."""
    store = tuple(lemmas)
    replay = _Replay(store, goal)
    pending: list[Frame] = [(replay.r_async, (store, (), ("un", goal), 0))]
    n, node = 0, trace
    try:
        for n, node in enumerate(trace.walk(), 1):
            phase, args = pending.pop()
            premises = phase(*args, node)
            if len(premises) != len(node.children):  # None has no len
                raise ReplayError(
                    f"expected {len(premises)} premises, found {len(node.children)}")
            pending.extend(reversed(premises))
    except ReplayError as e:
        reason = str(e)
    except RecursionError:  # the term walks still recurse on a term's depth
        reason = "term nests too deeply for this checker"
    except (TypeError, AttributeError) as e:
        reason = f"malformed trace: {e}"
    else:
        return None
    if not isinstance(node, TraceNode):  # no record to name
        return reason
    return f"record {n} ({node.rule}): {reason}"


def verify_trace(lemmas, goal: Formula, trace: TraceNode) -> bool:
    return explain_failure(lemmas, goal, trace) is None
