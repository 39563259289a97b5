"""Outline certificates: grammar, state threading, budget policies."""

from __future__ import annotations

import ast
import pathlib
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from outlinecheck import (
    Accepted,
    MuAtom,
    OUTLINE_FPC,
    OutlineError,
    OutlineState,
    Rejected,
    count_rule,
    initial_state,
    outline,
    parse_outline,
    sym,
)
from outlinecheck.syntax import Hyp, LemmaName

from _util import check_outline, elab_plus, num


# -- grammar


def test_parse_plain_induction():
    assert parse_outline("(induction 1 0 1)") == OutlineState(
        1, 0, 1, False, (), None)


def test_parse_with_lemmas():
    c = parse_outline("(induction 2 (lemmas plus0com plusscom) 1 0)")
    assert c == OutlineState(
        2, 1, 0, False, (), (LemmaName(sym("plus0com")), LemmaName(sym("plusscom"))))


def test_parse_tree():
    c = parse_outline("(tree (a b (c d)) 1 2 3)")
    la, lb, lc, ld = (LemmaName(sym(n)) for n in "abcd")
    assert c.supply == ((la, ((lb, ()), (lc, ((ld, ()),)))),)
    assert (c.d, c.uA, c.uS) == (1, 2, 3)


def test_parse_empty_lemma_list_means_no_lemma_decides():
    assert parse_outline("(induction 1 (lemmas) 0 1)") == OutlineState(
        1, 0, 1, False, (), ())


def test_parse_is_whitespace_insensitive():
    assert parse_outline("  ( induction   1  0   1 ) ") == OutlineState(
        1, 0, 1, False, (), None)


@pytest.mark.parametrize("bad", [
    "(induction -1 0 0)",
    "(induction 1 0)",
    "(induction a b c)",
    "(inducton 1 0 1)",
    "induction 1 0 1",
    "()",
    "(tree 1 2 3)",
    "(induction 0_1 0 0)",  # int() takes these three; the reader does not
    "(induction 0 +0 0)",
    "(induction 0 0 \u0661)",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(OutlineError):
        parse_outline(bad)


# -- state construction


def test_unknown_lemma_name_rejected_at_check_time():
    cert = parse_outline("(induction 1 (lemmas nemo) 0 0)")
    with pytest.raises(OutlineError, match="nemo"):
        initial_state(cert, ())


def test_unknown_tree_lemma_rejected():
    cert = parse_outline("(tree (a b) 0 0 0)")
    with pytest.raises(OutlineError):
        initial_state(cert, (sym("a"),))


# -- expert policies


def _state(text="(induction 1 0 1)", table=()):
    return initial_state(parse_outline(text), table)


def test_decide_offers_lemmas_then_hypotheses():
    st0 = _state("(induction 1 0 0)", (sym("l1"), sym("l2")))
    [(st1, _)] = OUTLINE_FPC.store_clerk(st0)
    [(st2, _)] = OUTLINE_FPC.store_clerk(st1)
    alts = list(OUTLINE_FPC.decide_expert(st2))
    assert [ix for _, ix in alts] == [
        LemmaName(sym("l1")), LemmaName(sym("l2")), Hyp(1), Hyp(2)]
    assert all(c.d == 0 for c, _ in alts)


def test_decide_exhausted_budget_offers_nothing():
    assert list(OUTLINE_FPC.decide_expert(_state("(induction 0 3 3)"))) == []


def test_lemma_list_restricts_supply():
    table = (sym("l1"), sym("l2"))
    st0 = initial_state(parse_outline("(induction 1 (lemmas l2) 0 0)"), table)
    alts = OUTLINE_FPC.decide_expert(st0)
    assert [ix for _, ix in alts] == [LemmaName(sym("l2"))]


def test_tree_decide_exposes_children_and_is_free():
    table = (sym("a"), sym("b"), sym("c"))
    st0 = initial_state(parse_outline("(tree (a b c) 0 0 0)"), table)
    [(st1, ix)] = OUTLINE_FPC.decide_expert(st0)
    assert ix == LemmaName(sym("a"))
    assert [ix for _, ix in OUTLINE_FPC.decide_expert(st1)] == [
        LemmaName(sym("b")), LemmaName(sym("c"))]


def test_unfold_budgets_gate_experts():
    st0 = _state("(induction 0 0 0)")
    assert OUTLINE_FPC.unfold_left_expert(st0) == ()
    assert OUTLINE_FPC.unfold_right_expert(st0) == ()
    st1 = _state("(induction 0 2 3)")
    [(nxt)] = OUTLINE_FPC.unfold_left_expert(st1)
    assert (nxt.uA, nxt.uS) == (1, 3)
    [(nxt)] = OUTLINE_FPC.unfold_right_expert(st1)
    assert (nxt.uA, nxt.uS) == (2, 2)


def test_induction_offered_once():
    st0 = _state()
    [st1] = OUTLINE_FPC.ind_expert(st0)
    assert st1.inducted
    assert OUTLINE_FPC.ind_expert(st1) == ()


def test_store_allocates_increasing_serials():
    st0 = _state()
    [(st1, ix1)] = OUTLINE_FPC.store_clerk(st0)
    [(st2, ix2)] = OUTLINE_FPC.store_clerk(st1)
    assert (ix1, ix2) == (Hyp(1), Hyp(2))


def test_only_the_store_clerk_builds_an_index():
    # the supply's LemmaNames are built with the certificate, and each Hyp
    # once, by the store clerk that hands it out
    tree = ast.parse(pathlib.Path(outline.__file__).read_text(encoding="utf-8"))
    builders = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for n in ast.walk(fn) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id == "Hyp"}
    assert builders == {"store_clerk"}
    [fpc] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "OutlineFpc"]
    named = {(fn.name, n.id) for fn in fpc.body if isinstance(fn, ast.FunctionDef)
             for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id in ("LemmaName", "Hyp")}
    assert named == {("store_clerk", "Hyp")}


def test_large_decide_budget_stays_cheap():
    # each border offers the lemma and every hypothesis stored so far; a
    # suspended decide that held them all made memory grow with the square
    # of the budget
    el = elab_plus()
    is_nat = el.definitions["is_nat"]
    lemmas = [(LemmaName(sym("a")), MuAtom(is_nat, (num(0),)))]
    goal = MuAtom(is_nat, (num(1),))
    tracemalloc.start()
    try:
        r = check_outline(el, goal, "(induction 500 0 1)", lemmas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(r, Accepted) and r.steps == 2021
    assert peak < 8_000_000


# -- initial closes against any stored atom, atomic lemmas included, outside
# the decide budget and the lemma supply


def test_initial_reaches_atomic_lemmas_outside_the_supply():
    el = elab_plus()
    is_nat = el.definitions["is_nat"]
    lemmas = [(LemmaName(sym("two")), MuAtom(is_nat, (num(2),)))]
    goal = MuAtom(is_nat, (num(3),))
    r = check_outline(el, goal, "(induction 0 (lemmas) 0 1)", lemmas)
    assert isinstance(r, Accepted)
    assert count_rule(r.trace, "decideL") == 0
    assert count_rule(r.trace, "initial") == 1
    r = check_outline(el, goal, "(induction 0 (lemmas) 0 0)", lemmas)
    assert isinstance(r, Rejected)


# -- refinement property: if a lemma list suffices, the unrestricted
# certificate with the same budgets does too


def test_lemma_list_refinement_on_corpus():
    el = elab_plus()
    results = {}
    lemmas = []
    from outlinecheck import LemmaName as LN

    for name in ("plus_total", "plus_determ", "plus0com", "plusscom"):
        goal = el.goals[name]
        cert = {"plus_total": "(induction 1 0 1)",
                "plus_determ": "(induction 1 1 0)",
                "plus0com": "(induction 1 0 1)",
                "plusscom": "(induction 1 0 1)"}[name]
        r = check_outline(el, goal, cert, lemmas)
        assert isinstance(r, Accepted)
        lemmas.append((LN(sym(name)), goal))
    goal = el.goals["pluscom"]
    listed = check_outline(
        el, goal, "(induction 2 (lemmas plus0com plusscom) 1 0)", lemmas)
    assert isinstance(listed, Accepted)
    unrestricted = check_outline(el, goal, "(induction 2 1 0)", lemmas)
    assert isinstance(unrestricted, Accepted)


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9),
       st.integers(min_value=0, max_value=9))
def test_parse_print_budget_roundtrip(d, a, s):
    c = parse_outline(f"(induction {d} {a} {s})")
    assert (c.d, c.uA, c.uS, c.supply) == (d, a, s, None)
