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
    SELF, All, And, App, Definition, Eq, Ex, Ff, Formula, Imp, MuAtom, Or,
    Term, Tt, open_binder, term_vars, unfold_mu,
)

UNKNOWN = "unknown"

Verdict = Union[bool, str]

Fact = tuple[str, tuple[Term, ...]]


def _subterms(t: Term, out: set[Term]) -> None:
    out.add(t)
    if isinstance(t, App):
        for a in t.args:
            _subterms(a, out)


def _is_ground(t: Term) -> bool:
    return not any(True for _ in term_vars(t))


# Saturation is deterministic for a given definition list and universe, so
# its round-by-round history is shared between queries: the cache maps
# (definitions, universe) to the cumulative fact set after each round plus a
# flag telling whether a fixed point was reached at the last round.  A
# definition is keyed by its body as well as its name, since two sessions
# may define the same name differently.  Only the most recent definition
# list is kept: a query under another list empties the cache, so it cannot
# grow with every session a process checks.
_SAT_CACHE: dict[tuple, tuple[list[frozenset[Fact]], bool]] = {}


def _saturation(defs: list[Definition], terms: list[Term], fuel: int
                ) -> tuple[list[frozenset[Fact]], bool]:
    key = (tuple((d.name, d.body) for d in defs), tuple(terms))
    if next(iter(_SAT_CACHE), key)[0] != key[0]:
        _SAT_CACHE.clear()
    rounds, done = _SAT_CACHE.get(key, ([], False))
    if done or len(rounds) >= fuel:
        return rounds, done
    facts: set[Fact] = set(rounds[-1]) if rounds else set()

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
            case Ex():
                return any(holds(open_binder(f, t)) for t in terms)
            case All():
                return all(holds(open_binder(f, t)) for t in terms)
            case MuAtom(defn=d, args=ts):
                if d is SELF:
                    raise ValueError("recursive marker outside its definition")
                return (d.name.name, ts) in facts
        raise TypeError(f"not a formula: {f!r}")

    while len(rounds) < fuel and not done:
        added = False
        for d in defs:
            for args in product(terms, repeat=d.arity):
                fact = (d.name.name, args)
                if fact in facts:
                    continue
                # unfolding replaces recursive markers with named atoms,
                # which holds() looks up in the current fact set
                if holds(unfold_mu(d, args)):
                    facts.add(fact)
                    added = True
        rounds.append(frozenset(facts))
        done = not added
    _SAT_CACHE[key] = (rounds, done)
    return rounds, done


def eval_ground(defs: Iterable[Definition], atom: MuAtom, fuel: int) -> Verdict:
    """Evaluate a ground atom by saturation; see the module docstring."""
    if atom.defn is SELF or not all(_is_ground(a) for a in atom.args):
        raise ValueError("the oracle evaluates ground atoms only")

    universe: set[Term] = set()
    for a in atom.args:
        _subterms(a, universe)
    terms = sorted(universe, key=repr)
    goal: Fact = (atom.defn.name.name, atom.args)

    rounds, done = _saturation(list(defs), terms, fuel)
    for i, facts in enumerate(rounds[:fuel]):
        if goal in facts:
            return True
        if done and i == len(rounds) - 1:
            return False
    return UNKNOWN
