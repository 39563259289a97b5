"""Clerk/expert interface contracts."""

from __future__ import annotations

from outlinecheck import FpcDefinition, Hyp, LemmaName, sym
from outlinecheck.fpc import ANY_FROZEN, FRESH


def test_default_definition_forbids_every_rule():
    fpc = FpcDefinition()
    cert = object()
    assert fpc.andl_clerk(cert) == ()
    assert fpc.orl_clerk(cert) == ()
    assert fpc.exl_clerk(cert) == ()
    assert fpc.eql_clerk(cert) == ()
    assert fpc.ttl_clerk(cert) == ()
    assert fpc.ffl_clerk(cert) == ()
    assert fpc.impr_clerk(cert) == ()
    assert fpc.allr_clerk(cert) == ()
    assert fpc.store_clerk(cert) == ()
    assert fpc.decide_expert(cert) == ()
    assert fpc.decide_right_expert(cert) == ()
    assert fpc.initial_expert(cert) == ()
    assert fpc.or_expert(cert) == ()
    assert fpc.and_expert(cert) == ()
    assert fpc.some_expert(cert) == ()
    assert fpc.true_expert(cert) == ()
    assert fpc.unfold_left_expert(cert) == ()
    assert fpc.unfold_right_expert(cert) == ()
    assert fpc.ind_expert(cert) == ()


def test_index_values_are_hashable_and_distinct():
    assert Hyp(1) == Hyp(1)
    assert Hyp(1) != Hyp(2)
    assert LemmaName(sym("a")) == LemmaName(sym("a"))
    assert LemmaName(sym("a")) != Hyp(1)
    assert len({Hyp(1), Hyp(1), LemmaName(sym("a"))}) == 2


def test_option_markers_are_singletons():
    assert repr(ANY_FROZEN) == "<any-frozen>"
    assert repr(FRESH) == "<fresh>"
