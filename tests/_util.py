"""Shared helpers for the test suite."""

from __future__ import annotations

import pathlib
from typing import Optional, Sequence

from outlinecheck import (
    OUTLINE_FPC,
    Accepted,
    CheckResult,
    Formula,
    Index,
    ResourceLimits,
    Term,
    con,
    elaborate,
    initial_state,
    kernel,
    parse_file,
    parse_outline,
)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "plus.thm"


def num(n: int) -> Term:
    """The numeral n as a successor tower."""
    t: Term = con("z")
    for _ in range(n):
        t = con("s", t)
    return t


def load_plus():
    return parse_file(CORPUS.read_text())


def elab_plus():
    return elaborate(load_plus())


def check_outline(
    el,
    goal: Formula,
    cert_text: str,
    lemmas: Sequence[tuple[Index, Formula]] = (),
    max_steps: int = 500_000,
) -> CheckResult:
    """Check `goal` under an outline certificate with the given lemma store."""
    table = tuple(ix.name for ix, _ in lemmas)
    cert = initial_state(parse_outline(cert_text), table)
    return kernel.check(lemmas, goal, cert, OUTLINE_FPC,
                        ResourceLimits(max_steps=max_steps))


def accepted(result: CheckResult) -> bool:
    return isinstance(result, Accepted)


def count_rule(trace, rule: str) -> int:
    """How many records of `trace` name `rule`."""
    return sum(n.rule == rule for n in trace.walk())


def session_lemmas(results) -> list[tuple[Index, Formula]]:
    """The lemma store after a run_session, from the last result's view."""
    from outlinecheck import LemmaName, sym

    out = []
    for r in results:
        if r.outcome == "ok":
            out.append((LemmaName(sym(r.name)), r.goal))
    return out
