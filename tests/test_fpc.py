"""Clerk/expert interface contracts."""

from __future__ import annotations

from outlinecheck import FpcDefinition, Hyp, LemmaName, sym


def test_default_definition_forbids_every_rule():
    fpc = FpcDefinition()
    cert = object()
    assert fpc.store_clerk(cert) == ()
    assert fpc.decide_expert(cert) == ()
    assert fpc.unfold_left_expert(cert) == ()
    assert fpc.unfold_right_expert(cert) == ()
    assert fpc.ind_expert(cert) == ()


def test_index_values_are_hashable_and_distinct():
    assert Hyp(1) == Hyp(1)
    assert Hyp(1) != Hyp(2)
    assert LemmaName(sym("a")) == LemmaName(sym("a"))
    assert LemmaName(sym("a")) != Hyp(1)
    assert len({Hyp(1), Hyp(1), LemmaName(sym("a"))}) == 2

