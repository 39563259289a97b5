"""Outline certificates: grammar, state threading, budget policies."""

from __future__ import annotations

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
    parse_outline,
    sym,
)
from outlinecheck.syntax import Hyp, LemmaName

from _util import check_outline, elab_plus, num


# -- grammar


def test_parse_plain_induction():
    assert parse_outline("(induction 1 0 1)") == OutlineState(
        1, 0, 1, False, 0, None, False)


def test_parse_with_lemmas():
    c = parse_outline("(induction 2 (lemmas plus0com plusscom) 1 0)")
    assert c == OutlineState(
        2, 1, 0, False, 0, (sym("plus0com"), sym("plusscom")), False)


def test_parse_tree():
    c = parse_outline("(tree (a b (c d)) 1 2 3)")
    assert c.tree_mode
    assert c.supply == (
        (sym("a"), ((sym("b"), ()), (sym("c"), ((sym("d"), ()),)))),)
    assert (c.d, c.uA, c.uS) == (1, 2, 3)


def test_parse_empty_lemma_list_means_no_lemma_decides():
    assert parse_outline("(induction 1 (lemmas) 0 1)") == OutlineState(
        1, 0, 1, False, 0, (), False)


def test_parse_is_whitespace_insensitive():
    assert parse_outline("  ( induction   1  0   1 ) ") == OutlineState(
        1, 0, 1, False, 0, None, False)


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
    st0 = OutlineState(st0.d, st0.uA, st0.uS, st0.inducted, 2, st0.supply, st0.tree_mode)
    alts = OUTLINE_FPC.decide_expert(st0)
    assert [ix for _, ix in alts] == [
        LemmaName(sym("l1")), LemmaName(sym("l2")), Hyp(1), Hyp(2)]
    assert all(c.d == 0 for c, _ in alts)


def test_decide_exhausted_budget_offers_nothing():
    assert OUTLINE_FPC.decide_expert(_state("(induction 0 3 3)")) == ()


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
    assert (c.d, c.uA, c.uS, c.supply, c.tree_mode) == (d, a, s, None, False)
