"""Focused-search kernel: phases, fixed points, induction, traces."""

from __future__ import annotations

import pytest

from outlinecheck import (
    FF,
    TT,
    Accepted,
    All,
    And,
    Bound,
    Eq,
    Ex,
    FpcDefinition,
    Imp,
    MuAtom,
    Or,
    Rejected,
    OutOfBudget,
    ResourceLimits,
    con,
    count_rule,
    kernel,
    synthesize_obvious_invariants,
)
from outlinecheck.syntax import EVar, Hyp, InvariantAbs, apply_invariant

from _util import check_outline, elab_plus, num


@pytest.fixture(scope="module")
def el():
    return elab_plus()


def _defs(el):
    return el.definitions


def plus_atom(el, a, b, c):
    return MuAtom(_defs(el)["plus"], (num(a), num(b), num(c)))


def is_nat_atom(el, n):
    return MuAtom(_defs(el)["is_nat"], (num(n),))


# -- trivial goals


def test_reflexivity():
    assert isinstance(check_outline(None, Eq(num(3), num(3)), "(induction 0 0 0)"), Accepted)


def test_distinct_constructors_rejected():
    assert isinstance(check_outline(None, Eq(num(3), num(4)), "(induction 0 0 0)"), Rejected)


def test_truth_and_conjunction():
    assert isinstance(check_outline(None, And(TT, Eq(num(0), num(0))), "(induction 0 0 0)"), Accepted)


def test_falsehood_rejected():
    assert isinstance(check_outline(None, FF, "(induction 3 3 3)"), Rejected)


def test_disjunction_tries_both_sides():
    r = check_outline(None, Or(Eq(num(1), num(2)), Eq(num(5), num(5))), "(induction 0 0 0)")
    assert isinstance(r, Accepted)
    [orr] = [n for n in r.trace.walk() if n.rule == "orR"]
    assert orr.side == 2


def test_existential_witness_found():
    goal = Ex(Eq(con("s", Bound(0)), num(4)))
    r = check_outline(None, goal, "(induction 0 0 0)")
    assert isinstance(r, Accepted)
    [exr] = [n for n in r.trace.walk() if n.rule == "exR"]
    assert exr.term == num(3)


def test_implication_stores_hypothesis_and_closes():
    goal = Imp(Eq(num(1), num(2)), FF)
    # 1 = 2 is absurd: the stored equation closes the branch by case analysis
    # after a decide.
    r = check_outline(None, goal, "(induction 1 0 0)")
    assert isinstance(r, Accepted)
    assert count_rule(r.trace, "eqL_clash") == 1


def test_universal_introduces_eigenvariable():
    goal = All(Eq(Bound(0), Bound(0)))
    r = check_outline(None, goal, "(induction 0 0 0)")
    assert isinstance(r, Accepted)
    assert count_rule(r.trace, "allR") == 1


def test_eigenvariable_of_the_goal_is_never_made_again():
    # forall X, X = (%ev 1 1) is false: (%ev 1 1) is a fixed constant, so the
    # eigenvariable that allR makes must be another one
    goal = All(Eq(Bound(0), EVar(1, 1)))
    assert isinstance(check_outline(None, goal, "(induction 0 0 0)"), Rejected)


# -- fixed points


def test_ground_unfold_right(el):
    r = check_outline(el, plus_atom(el, 2, 3, 5), "(induction 0 0 12)")
    assert isinstance(r, Accepted)
    assert count_rule(r.trace, "unfoldR") == 3


def test_ground_wrong_sum_rejected(el):
    r = check_outline(el, plus_atom(el, 2, 3, 6), "(induction 0 0 12)")
    assert isinstance(r, Rejected)


def test_unfold_budget_gates_right_unfolds(el):
    r = check_outline(el, plus_atom(el, 2, 3, 5), "(induction 0 0 2)")
    assert isinstance(r, Rejected)


def test_left_fixed_point_closed_by_freeze_and_initial(el):
    goal = Imp(is_nat_atom(el, 2), is_nat_atom(el, 2))
    r = check_outline(el, goal, "(induction 0 0 0)")
    assert isinstance(r, Accepted)
    assert count_rule(r.trace, "freeze") == 1
    assert count_rule(r.trace, "initial") == 1


def test_step_limit_reported(el):
    r = check_outline(el, plus_atom(el, 2, 3, 5), "(induction 0 0 12)", max_steps=10)
    assert isinstance(r, OutOfBudget)


# -- induction


def test_accepted_induction_has_exactly_one_record(el):
    goal = el.goals["plus_total"]
    r = check_outline(el, goal, "(induction 1 0 1)")
    assert isinstance(r, Accepted)
    assert count_rule(r.trace, "induct_obvious") == 1


def test_zero_decide_budget_means_zero_decides(el):
    for name, goal in el.goals.items():
        r = check_outline(el, goal, "(induction 0 3 3)")
        if isinstance(r, Accepted):
            assert count_rule(r.trace, "decideL") == 0


def test_induction_node_records_invariant(el):
    r = check_outline(el, el.goals["plus_total"], "(induction 1 0 1)")
    assert isinstance(r, Accepted)
    [ind] = [n for n in r.trace.walk() if n.rule == "induct_obvious"]
    assert ind.invariant is not None
    assert ind.invariant.arity == _defs(el)["is_nat"].arity


def test_synthesized_invariant_applies_to_target(el):
    # For goal  is_nat m ⊢ exists p, plus m n p  the folded invariant at the
    # target arguments must reproduce the sequent.
    m = EVar(1, 1)
    n = EVar(2, 1)
    d = _defs(el)["plus"]
    goal = Ex(MuAtom(d, (m, n, Bound(0))))
    invs = synthesize_obvious_invariants((), (m,), goal)
    assert invs, "at least the hypothesis-free variant must be offered"
    inst = apply_invariant(invs[0], (m,))
    assert isinstance(inst, All)


def test_obvious_induction_refused_with_non_atomic_hypothesis(el):
    store = ((Hyp(1), Imp(TT, TT)),)
    invs = synthesize_obvious_invariants(store, (EVar(1, 1),), TT)
    assert invs == []


# -- hygiene: rejected searches leave no bindings behind (asserted inside
# kernel.check; this exercises the assertion on a search with many choice
# points)


def test_rejected_search_restores_state(el):
    goal = Imp(is_nat_atom(el, 3), plus_atom(el, 2, 3, 6))
    r = check_outline(el, goal, "(induction 2 2 6)")
    assert isinstance(r, Rejected)


def test_default_fpc_forbids_everything(el):
    # every choice is forbidden, so a fixed point cannot be unfolded; rules
    # that take no certificate choice still fire: storeR, decideR, eqR
    limits = ResourceLimits(max_steps=1000)
    r = kernel.check((), is_nat_atom(el, 0), object(), FpcDefinition(), limits)
    assert isinstance(r, Rejected)
    r = kernel.check((), Eq(num(0), num(0)), object(), FpcDefinition(), limits)
    assert isinstance(r, Accepted)
    assert r.steps == 3
