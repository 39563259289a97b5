"""First-order unification over a trailed binding store.

Two entry points matter to the kernel:

* `unify` treats eigenvariables as rigid constants.  It backs the right
  equality and initial rules, where binding an eigenvariable would be
  unsound; `unify_args` unifies initial's argument tuples under one
  checkpoint.

* `unify_case_split` additionally treats eigenvariables as substitutable.
  It backs the left equality rule, where the most general unifier acts as a
  case analysis on the branch.  Eigenvariable assignments are returned as an
  explicit substitution rather than stored, so they hold on one premise
  without leaking into sibling branches.  The outcome is three-way:
  a clash means no unifier exists (the branch is vacuous), while `stuck`
  reports a scope-indeterminate problem the kernel must treat as failure.

Both read an eigenvariable through `sigma`, the case splits made so far
on the branch, as they read a metavariable through its binding.  `sigma`
is triangular (`walk` follows chains) and never changed in place, since an
outer premise still reads it; a metavariable bound under it holds the
substituted term, so a sibling premise sees the same term.

Both read a positional variable Bound(i) as `env[i]`, where `env` holds
the closed terms that the free positional variables of a formula read
under an environment stand for.  The kernel hands over such a formula's
terms as they are; a term is built under `env` only where a binding or an
eigenvariable assignment stores it.

The occurs check is always on.  An MVar at level k is never bound to a term
containing an EVar of level > k; metavariables of too-high level occurring
in a candidate binding are pruned to fresh ones at the lower level.
"""

from __future__ import annotations

import itertools
from operator import is_

from .syntax import (
    App, Bound, EVar, MVar, StructuralError, Term, term_subst_bound,
)

OK = "ok"
CLASH = "clash"
STUCK = "stuck"

Sigma = dict[EVar, Term]  # a branch's eigenvariable assignments
Env = tuple[Term, ...]  # env[i] is the closed term Bound(i) stands for


def _read(t: Bound, env: Env) -> Term:
    if t.index < len(env):
        return env[t.index]
    raise StructuralError("positional variable reached the unifier")


class StaleCheckpointError(Exception):
    """Undo was asked to rewind past the current trail."""


class BindingStore:
    """Metavariable bindings plus an undo trail.

    Checkpoints from `mark` must be undone in LIFO order; rewinding past a
    checkpoint that has already been undone is a structural error.

    `ids` numbers the variables a check makes, pruning's too, counting
    from `first`: the caller gives an id above every id its terms hold, as
    kernel.check does for its inputs, and no variable is made twice.
    """

    __slots__ = ("bindings", "trail", "ids")

    def __init__(self, first: int) -> None:
        self.bindings: dict[int, Term] = {}
        self.trail: list[int] = []
        self.ids = itertools.count(first)

    # -- checkpoints

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, checkpoint: int) -> None:
        if checkpoint > len(self.trail):
            raise StaleCheckpointError(
                f"checkpoint {checkpoint} is ahead of trail length {len(self.trail)}")
        while len(self.trail) > checkpoint:
            del self.bindings[self.trail.pop()]

    # -- resolution

    def walk(self, t: Term, sigma: Sigma | None = None) -> Term:
        """Follow bindings, and sigma's eigenvariable assignments if given,
        at the head only."""
        while True:
            if t.__class__ is MVar:
                b = self.bindings.get(t.id)
            elif sigma and t.__class__ is EVar:
                b = sigma.get(t)
            else:
                return t
            if b is None:
                return t
            t = b

    def resolve(self, t: Term, sigma: Sigma | None = None) -> Term:
        """Substitute all bindings, and sigma if given, recursively.  A
        term no binding changes comes back as it is."""
        if t.ground:
            return t
        t = self.walk(t, sigma)
        if t.__class__ is App and not t.ground:
            ys = tuple([self.resolve(x, sigma) for x in t.args])
            return t if all(map(is_, ys, t.args)) else App(t.head, ys)
        return t

    def _bind(self, v: MVar, t: Term) -> None:
        self.bindings[v.id] = t
        self.trail.append(v.id)

    # -- unification: `env` gives the free Bound(i) of both sides

    def unify(self, a: Term, b: Term, sigma: Sigma | None = None, env: Env = ()) -> bool:
        """Rigid-eigenvariable unification of a and b read under sigma and
        env; restores the store on failure."""
        cp = len(self.trail)
        if self._unify(a, b, sigma, False, env) is OK:
            return True
        if len(self.trail) != cp:
            self.undo(cp)
        return False

    def unify_args(self, xs: tuple[Term, ...], ys: tuple[Term, ...],
                   sigma: Sigma | None = None, env: Env = ()) -> bool:
        """`unify` of each xs[i] with ys[i], all under one checkpoint: on
        any failure the store is restored to what it was before xs[0]."""
        cp = len(self.trail)
        for x, y in zip(xs, ys):
            if self._unify(x, y, sigma, False, env) is not OK:
                if len(self.trail) != cp:
                    self.undo(cp)
                return False
        return True

    def unify_case_split(self, a: Term, b: Term, sigma: Sigma | None = None,
                         env: Env = ()):
        """Unification for left equality, of a and b read under sigma and env.

        Returns (OK, sigma') with sigma' a new dict, sigma's assignments
        plus the eigenvariables this call assigns, or (CLASH, None) /
        (STUCK, None).  Metavariable bindings made on success stay in the
        store, resolved under sigma'; on non-success the store is restored.
        """
        cp = self.mark()
        sigma = dict(sigma) if sigma else {}
        out = self._unify(a, b, sigma, True, env)
        if out is not OK:
            self.undo(cp)
            return out, None
        if sigma:
            for key in self.trail[cp:]:
                self.bindings[key] = self.resolve(self.bindings[key], sigma)
        return OK, sigma

    # -- internals: `split` is true under unify_case_split, where sigma is
    # the dict being built and an eigenvariable may be assigned in it; a
    # term is built under env only where a binding stores it

    def _unify(self, a: Term, b: Term, sigma: Sigma | None, split: bool, env: Env) -> str:
        # each side read as `walk` reads it, inline: a Bound through env, a
        # metavariable through its binding, an eigenvariable through sigma
        bindings = self.bindings
        ka = a.__class__
        if ka is Bound:
            a = env[a.index] if a.index < len(env) else _read(a, env)
            ka = a.__class__
        while ka is not App:
            x = bindings.get(a.id) if ka is MVar else sigma.get(a) if sigma else None
            if x is None:
                break
            a, ka = x, x.__class__
        kb = b.__class__
        if kb is Bound:
            b = env[b.index] if b.index < len(env) else _read(b, env)
            kb = b.__class__
        while kb is not App:
            x = bindings.get(b.id) if kb is MVar else sigma.get(b) if sigma else None
            if x is None:
                break
            b, kb = x, x.__class__
        if a is b:
            return OK
        if ka is App and kb is App:
            if a.ground and b.ground:
                return OK if a == b else CLASH
            if a.head is not b.head or len(a.args) != len(b.args):
                return CLASH
            for x, y in zip(a.args, b.args):
                out = self._unify(x, y, sigma, split, env)
                if out is not OK:
                    return out
            return OK
        if ka is kb and a == b:
            return OK
        if ka is MVar:
            return self._bind_mvar(a, b, sigma, split, env)
        if kb is MVar:
            return self._bind_mvar(b, a, sigma, split, env)
        if split and ka is EVar:
            return self._bind_evar(a, b, sigma, env)
        if split and kb is EVar:
            return self._bind_evar(b, a, sigma, env)
        return CLASH  # distinct rigid constants, or one against an application

    def _bind_mvar(self, v: MVar, t: Term, sigma: Sigma | None, split: bool,
                   env: Env) -> str:
        # occurs and scope scan over the resolved view of t, pruning any
        # metavariable whose level exceeds v's
        out = self._scan(v, t, sigma, split, env)
        if out is not OK:
            if split and isinstance(self.walk(t, sigma), EVar):
                # the flexible side can absorb the binding instead
                return self._bind_evar(self.walk(t, sigma), v, sigma, env)
            return out
        if not t.closed:
            t = term_subst_bound(t, env, 0)
        # a split's bindings are resolved under its final sigma
        self._bind(v, self.resolve(t, sigma) if sigma and not split else t)
        return OK

    def _scan(self, v: MVar, t: Term, sigma: Sigma | None, split: bool, env: Env) -> str:
        if t.ground:
            return OK
        t = self.walk(_read(t, env) if t.__class__ is Bound else t, sigma)
        match t:
            case MVar():
                if t.id == v.id:
                    return CLASH  # occurs check
                if t.level > v.level:
                    self._bind(t, MVar(next(self.ids), v.level))
                return OK
            case EVar(level=lv):
                if lv > v.level:
                    return STUCK if split else CLASH
                return OK
            case App(args=ts):
                for x in ts:
                    out = self._scan(v, x, sigma, split, env)
                    if out is not OK:
                        return out
        return OK

    def _bind_evar(self, e: EVar, t: Term, sigma: Sigma, env: Env) -> str:
        if self._occurs_evar(e, t, sigma, env):
            return CLASH
        sigma[e] = t if t.closed else term_subst_bound(t, env, 0)
        return OK

    def _occurs_evar(self, e: EVar, t: Term, sigma: Sigma, env: Env) -> bool:
        if t.ground:
            return False
        t = self.walk(_read(t, env) if t.__class__ is Bound else t, sigma)
        match t:
            case EVar():
                return t == e
            case App(args=ts):
                return any(self._occurs_evar(e, x, sigma, env) for x in ts)
            case _:
                return False
