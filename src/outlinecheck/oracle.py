"""Brute-force evaluation of ground fixed-point queries.

This module is the test harness's ground truth: it evaluates a ground atom
bottom-up, by iterating the immediate-consequence step of all definitions
over a finite term universe (the subterm closure of the query arguments).
Quantifiers in definition bodies range over that universe too.

A True verdict is always sound.  A False verdict is sound whenever every
derivation of the atom only passes through arguments that are subterms of
the query — the case for the structurally recursive definitions this
oracle is used on.  Unknown means the fuel ran out before saturation.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Union

from .syntax import (
    All, And, App, Definition, Eq, Ex, Ff, Formula, Imp, MuAtom, Or,
    Term, Tt, instantiate, map_terms,
)

UNKNOWN = "unknown"

Verdict = Union[bool, str]

Fact = tuple[str, tuple[Term, ...]]


def _given(d: Definition, defs: list[Definition]) -> Definition:
    """d, if it is one of defs: saturation derives no fact of any other."""
    if not any(e is d for e in defs):
        raise ValueError(f"{d.name} is not among the definitions given")
    return d


# Saturation is deterministic for a given definition list and universe, so
# its history is shared between queries: the cache maps (definitions,
# universe) to the round in which each fact was first derived, the number
# of rounds run, and a flag telling whether the last round added nothing.
# Definitions are keyed by identity, since two sessions may define the same
# name differently; each entry holds its definitions, so no id in a key can
# be reused while the entry lives.  Only the most recent definition list is
# kept: a query under another list empties the cache, so it cannot grow
# with every session a process checks.
_SAT_CACHE: dict[tuple, tuple[tuple[Definition, ...], dict[Fact, int], int, bool]] = {}


def _saturation(defs: list[Definition], terms: list[Term], fuel: int
                ) -> tuple[dict[Fact, int], int, bool]:
    key = (tuple(map(id, defs)), tuple(terms))
    if next(iter(_SAT_CACHE), (None,))[0] != key[0]:  # a list not checked yet
        _SAT_CACHE.clear()
        for d in defs:  # each atom of each body must be of a definition given
            map_terms(d.body, lambda t, _: t, lambda e, ts: MuAtom(_given(e, defs), ts))
    _, first, rounds, done = _SAT_CACHE.get(key, (None, {}, 0, False))
    if done or rounds >= fuel:
        return first, rounds, done
    first = dict(first)  # a cut-short round must not reach the cache

    def holds(f: Formula) -> bool:
        match f:
            case Tt():
                return True
            case Ff():
                return False
            case Eq(l=l, r=r):
                return l == r
            case And(a=a, b=b):
                return holds(a) and holds(b)
            case Or(a=a, b=b):
                return holds(a) or holds(b)
            case Imp(a=a, b=b):
                return (not holds(a)) or holds(b)
            case Ex(body=b):
                return any(holds(instantiate(b, (t,))) for t in terms)
            case All(body=b):
                return all(holds(instantiate(b, (t,))) for t in terms)
            case MuAtom(defn=d, args=ts):
                return (d.name.name, ts) in first
        raise TypeError(f"not a formula: {f!r}")

    while rounds < fuel and not done:
        added = False
        for d in defs:
            for args in product(terms, repeat=d.arity):
                fact = (d.name.name, args)
                if fact in first:
                    continue
                # a body's recursive atoms are atoms of d, which holds()
                # looks up among the facts derived so far
                if holds(instantiate(d.body, args)):
                    first[fact] = rounds
                    added = True
        rounds += 1
        done = not added
    _SAT_CACHE[key] = (tuple(defs), first, rounds, done)
    return first, rounds, done


def eval_ground(defs: Iterable[Definition], atom: MuAtom, fuel: int) -> Verdict:
    """Evaluate a ground atom by saturation; see the module docstring.
    `defs` must hold the atom's definition and every one their bodies call."""
    if not all(a.ground for a in atom.args):
        raise ValueError("the oracle evaluates ground atoms only")
    if len(atom.args) != atom.defn.arity:
        raise ValueError(f"{atom.defn.name} expects {atom.defn.arity} arguments, "
                         f"got {len(atom.args)}")
    defs = list(defs)
    _given(atom.defn, defs)

    universe: set[Term] = set()
    todo = list(atom.args)
    while todo:
        t = todo.pop()
        universe.add(t)
        todo += t.args if t.__class__ is App else ()
    terms = sorted(universe, key=repr)
    goal: Fact = (atom.defn.name.name, atom.args)

    first, rounds, done = _saturation(defs, terms, fuel)
    if first.get(goal, fuel) < fuel:
        return True
    if done and rounds <= fuel:
        return False
    return UNKNOWN
