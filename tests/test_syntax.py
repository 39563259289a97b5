"""Terms, formulas, substitution and invariant application."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from outlinecheck import (
    FF,
    SELF,
    TT,
    All,
    And,
    App,
    Bound,
    Definition,
    EVar,
    Eq,
    Ex,
    Hyp,
    Imp,
    InvariantAbs,
    LemmaName,
    MVar,
    MuAtom,
    Or,
    StructuralError,
    con,
    formula_subst_bound,
    fresh_evar,
    fresh_mvar,
    open_binder,
    sym,
    unfold_mu,
)
from outlinecheck.syntax import (
    apply_invariant,
    body_with_invariant,
    close_term,
    formula_from_sexp,
    index_from_sexp,
    invariant_from_sexp,
    map_terms,
    parse_sexp,
    term_from_sexp,
    term_subst_bound,
)

from _util import num


def test_sym_interning():
    assert sym("plus") is sym("plus")
    assert sym("plus") is not sym("plusx")


def test_fresh_vars_are_distinct():
    a, b = fresh_evar(1), fresh_evar(1)
    assert a != b
    assert fresh_mvar(2).level == 2


def test_open_binder_substitutes_innermost():
    f = All(Ex(Eq(Bound(0), Bound(1))))
    e = fresh_evar(1)
    opened = open_binder(f, e)
    assert opened == Ex(Eq(Bound(0), e))


def test_open_binder_rejects_non_binder():
    with pytest.raises(StructuralError):
        open_binder(TT, con("z"))


def test_term_subst_shifts_higher_indices_down():
    # Under one removed binder, references above the cut drop by one.
    t = con("s", Bound(0), Bound(1))
    assert term_subst_bound(t, (con("z"),), 0) == con("s", con("z"), Bound(0))


def test_term_subst_lifts_args_under_binders():
    # An argument mentioning positional variables must be raised past the
    # binders it is pushed under, not captured by them.
    # Parameter 0 sits at depth 1; inside the Ex it appears as Bound(2).
    inner = Ex(Eq(Bound(2), Bound(0)))
    f = formula_subst_bound(inner, (Bound(2),), 1)
    assert f == Ex(Eq(Bound(4), Bound(0)))


def test_apply_invariant_under_own_binders():
    # Invariant with parameters x0 x1, body forall w. x0 = x1.
    inv = InvariantAbs(2, All(Eq(Bound(1), Bound(2))))
    a, b = fresh_evar(1), fresh_evar(1)
    assert apply_invariant(inv, (a, b)) == All(Eq(a, b))


def test_apply_invariant_with_positional_args():
    # Arguments that are themselves positional variables (as happens when
    # an invariant replaces a recursive call inside a definition body whose
    # clause variables are still bound) must come out referring to the same
    # binders after passing under the invariant's own quantifier.
    inv = InvariantAbs(1, All(Eq(Bound(1), Bound(0))))
    out = apply_invariant(inv, (Bound(4),))
    assert out == All(Eq(Bound(5), Bound(0)))


def _is_nat() -> Definition:
    #  is_nat x := x = z \/ exists n, x = s n /\ is_nat n
    body = Or(
        Eq(Bound(0), con("z")),
        Ex(And(Eq(Bound(1), con("s", Bound(0))), MuAtom(SELF, (Bound(0),)))),
    )
    return Definition(sym("is_nat"), 1, body)


def test_unfold_mu_ground():
    d = _is_nat()
    two = num(2)
    f = unfold_mu(d, (two,))
    assert f == Or(
        Eq(two, con("z")),
        Ex(And(Eq(two, con("s", Bound(0))), MuAtom(d, (Bound(0),)))),
    )


def test_unfold_mu_arity_mismatch():
    with pytest.raises(StructuralError):
        unfold_mu(_is_nat(), (con("z"), con("z")))


def test_body_with_invariant_replaces_recursive_calls():
    d = _is_nat()
    inv = InvariantAbs(1, Eq(Bound(0), Bound(0)))
    f = body_with_invariant(d, inv, (con("z"),))
    assert f == Or(
        Eq(con("z"), con("z")),
        Ex(And(Eq(con("z"), con("s", Bound(0))), Eq(Bound(0), Bound(0)))),
    )


def test_body_with_invariant_invariant_binders_do_not_capture():
    # The recursive call sits under the clause's existential binder, and the
    # invariant adds a universal binder of its own: the call's argument must
    # still refer to the existential binder afterwards.
    d = _is_nat()
    inv = InvariantAbs(1, All(Eq(Bound(1), Bound(0))))
    f = body_with_invariant(d, inv, (con("z"),))
    second = f.b.body.b  # inside Ex, right conjunct
    assert second == All(Eq(Bound(1), Bound(0)))


def test_self_outside_definition_rejected():
    with pytest.raises(StructuralError):
        formula_subst_bound(MuAtom(SELF, (Bound(0),)), (con("z"),))


def test_close_formula_abstracts_eigenvariables():
    a, b = fresh_evar(1), fresh_evar(2)
    f = Imp(Eq(a, b), All(Eq(a, Bound(0))))
    closed = map_terms(f, lambda t, depth: close_term(t, {a: 1, b: 0}, depth))
    assert closed == Imp(Eq(Bound(1), Bound(0)), All(Eq(Bound(2), Bound(0))))


# -- property: substitution commutes with numeral structure


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_subst_on_ground_terms_is_identity(n, m):
    t = con("pair", num(n), num(m))
    assert term_subst_bound(t, (con("q"),), 0) == t


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=4))
def test_lift_then_substitute_roundtrip(idx, depth):
    # Substituting Bound(depth) by Bound(idx) under `depth` binders yields
    # the argument lifted by depth.
    t = Bound(depth)
    out = term_subst_bound(t, (Bound(idx),), depth)
    assert out == Bound(idx + depth)


# -- concrete syntax: reprs are what trace records hold, and read back


def test_reprs_spell_trace_syntax():
    plus = Definition(sym("plus"), 3, TT)
    assert repr(EVar(3, 1)) == "(ev 3 1)"
    assert repr(MVar(4, 0)) == "(mv 4 0)"
    assert repr(Bound(0)) == "(bv 0)"
    assert repr(con("s", con("z"))) == "(s z)"
    assert repr(MuAtom(plus, (con("z"),) * 3)) == "(mu plus z z z)"
    assert repr(MuAtom(SELF, (Bound(0),))) == "(mu %self (bv 0))"
    assert repr(Imp(All(Eq(Bound(0), con("z"))), Ex(Or(TT, FF)))) == (
        "(imp (all (eq (bv 0) z)) (ex (or tt ff)))")
    assert repr(And(TT, TT)) == "(and tt tt)"
    assert repr(Hyp(2)) == "(hyp 2)"
    assert repr(LemmaName(sym("plus_total"))) == "(lemma plus_total)"
    assert repr(InvariantAbs(1, Eq(Bound(0), Bound(0)))) == "(inv 1 (eq (bv 0) (bv 0)))"


_NAMES = st.sampled_from(["z", "s", "cons", "pair"])
_NUMS = st.integers(min_value=0, max_value=99)
_DEFS = {"p": Definition(sym("p"), 2, TT), "q": Definition(sym("q"), 0, TT)}

_terms = st.recursive(
    st.one_of(st.builds(EVar, _NUMS, _NUMS), st.builds(MVar, _NUMS, _NUMS),
              st.builds(Bound, _NUMS), _NAMES.map(lambda n: App(sym(n)))),
    lambda kids: st.builds(lambda n, ts: App(sym(n), tuple(ts)),
                           _NAMES, st.lists(kids, min_size=1, max_size=3)),
    max_leaves=8)
_formulas = st.recursive(
    st.one_of(st.just(TT), st.just(FF), st.builds(Eq, _terms, _terms),
              st.builds(MuAtom, st.sampled_from([_DEFS["p"], _DEFS["q"], SELF]),
                        st.lists(_terms, max_size=3).map(tuple))),
    lambda kids: st.one_of(st.builds(And, kids, kids), st.builds(Or, kids, kids),
                           st.builds(Imp, kids, kids), st.builds(All, kids),
                           st.builds(Ex, kids)),
    max_leaves=8)
_indices = st.one_of(st.builds(Hyp, _NUMS), _NAMES.map(lambda n: LemmaName(sym(n))))


@given(_terms, _formulas, _indices, st.builds(InvariantAbs, _NUMS, _formulas))
def test_readers_invert_reprs(t, f, ix, inv):
    assert term_from_sexp(parse_sexp(repr(t))) == t
    assert formula_from_sexp(parse_sexp(repr(f)), _DEFS) == f
    assert index_from_sexp(parse_sexp(repr(ix))) == ix
    assert invariant_from_sexp(parse_sexp(repr(inv)), _DEFS) == inv
