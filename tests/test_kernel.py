"""Focused-search kernel: phases, fixed points, induction, traces."""

from __future__ import annotations

import ast
import hashlib
import itertools
import pathlib
from collections import Counter

import pytest

from outlinecheck import (
    FF,
    TT,
    Accepted,
    All,
    And,
    Bound,
    Definition,
    Eq,
    Ex,
    FpcDefinition,
    Imp,
    LemmaName,
    MuAtom,
    Or,
    STUCK,
    BindingStore,
    Rejected,
    OutOfBudget,
    ResourceLimits,
    StructuralError,
    TraceNode,
    con,
    elaborate,
    eval_ground,
    explain_failure,
    instantiate,
    kernel,
    parse_file,
    replay,
    run_session,
    syntax,
    sym,
    synthesize_obvious_invariants,
    trace_from_lines,
    trace_to_lines,
    unify,
    verify_trace,
)
from outlinecheck.syntax import EVar, Hyp, MVar

from _util import CORPUS, check_outline, count_rule, elab_plus, num


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


def test_step_cap_cuts_at_the_same_step_from_both_counting_sites(el):
    # check's loop counts each goal and initial counts each candidate atom;
    # a cap of k ends the search at step k + 1, whichever site it falls on
    names = [t.name for t in el.theorems]
    lemmas = [(LemmaName(sym(n)), el.goals[n]) for n in names[:names.index("plus0com")]]
    run = lambda k: check_outline(el, el.goals["plus0com"], "(induction 1 0 1)", lemmas, k)
    full = run(1000)
    assert isinstance(full, Accepted) and full.steps == 147
    n = full.steps
    assert [run(k) for k in range(n)] == [OutOfBudget(k + 1) for k in range(n)]
    last = run(n)
    assert isinstance(last, Accepted) and last.steps == n


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
    assert ind.invariant == 0  # the flavour that folds the stored hypotheses


def test_folded_invariant_tried_after_the_bare_one_fails(monkeypatch):
    # inducting on plus M N P with is_nat N stored, the bare invariant drops
    # is_nat N, so its base case (is_nat of a fresh N) fails; the folded one,
    # tried next, keeps it
    text = CORPUS.read_text(encoding="utf-8") + (
        "Theorem plus_is_nat : forall N, is_nat N -> forall M P, plus M N P -> is_nat P.\n"
        'ship "(induction 1 0 1)".\n')
    el = elaborate(parse_file(text))
    goal = el.goals["plus_is_nat"]
    r = check_outline(el, goal, "(induction 1 0 1)")
    assert isinstance(r, Accepted)
    [ind] = [n for n in r.trace.walk() if n.rule == "induct_obvious"]
    assert ind.invariant == 0
    # replay synthesizes at that record's sequent, which yields both slots
    slots = []

    def spy(*args):
        slots.append(synthesize_obvious_invariants(*args))
        return slots[-1]

    monkeypatch.setattr(replay, "synthesize_obvious_invariants", spy)
    assert verify_trace((), goal, r.trace)
    assert [(f is not None, b is not None) for f, b in slots] == [(True, True)]

    # a kernel that never offers the folded flavour where the bare one exists
    def bare_where_there_is_one(*args):
        folded, bare = synthesize_obvious_invariants(*args)
        return (folded, None) if bare is None else (None, bare)

    monkeypatch.setattr(kernel, "synthesize_obvious_invariants", bare_where_there_is_one)
    assert isinstance(check_outline(el, goal, "(induction 1 0 1)"), Rejected)


def test_synthesized_invariant_applies_to_target(el):
    # For goal  is_nat m ⊢ exists p, plus m n p  the folded invariant at the
    # target arguments must reproduce the sequent.
    m = EVar(1, 1)
    n = EVar(2, 1)
    d = _defs(el)["plus"]
    goal = Ex(MuAtom(d, (m, n, Bound(0))))
    folded, bare = synthesize_obvious_invariants((), (m,), goal)
    # with no hypothesis to fold, the bare slot would repeat the folded one
    assert bare is None
    # an open formula over the one parameter, (%bv 2) under the two binders
    assert repr(folded) == (
        "(all (all (imp (eq (%bv 2) (%bv 1)) (ex (mu plus (%bv 2) (%bv 1) (%bv 0))))))")
    inst = instantiate(folded, (m,))
    assert isinstance(inst, All)


def test_obvious_induction_refused_with_non_atomic_hypothesis(el):
    store = ((Hyp(1), Imp(TT, TT)),)
    invs = synthesize_obvious_invariants(store, (EVar(1, 1),), TT)
    assert invs == (None, None)


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


class _OneIndexFpc(FpcDefinition):
    def store_clerk(self, cert):
        return ((cert, Hyp(1)),)


def test_a_second_formula_stored_under_one_index_raises(el):
    # the second freeze is offered the index the first one took
    goal = Imp(is_nat_atom(el, 0), Imp(is_nat_atom(el, 0), is_nat_atom(el, 0)))
    with pytest.raises(StructuralError, match=r"^duplicate store index \(hyp 1\)$"):
        kernel.check((), goal, object(), _OneIndexFpc())


def test_a_scope_indeterminate_equation_fails_its_branch(monkeypatch):
    # X = s E, with X from outside E's scope, is neither solvable nor
    # absurd: eqL is stuck there, and the branch fails instead of closing
    text = CORPUS.read_text(encoding="utf-8") + (
        'Theorem stuck : (forall X, exists E, X = s E) -> false.\n'
        'ship "(induction 1 0 0)".\n')
    outcomes = []
    split = BindingStore.unify_case_split

    def spy(self, *args):
        out = split(self, *args)
        outcomes.append(out[0])
        return out

    monkeypatch.setattr(BindingStore, "unify_case_split", spy)
    r = run_session(parse_file(text))[-1]
    assert (r.name, r.outcome, r.steps) == ("stuck", "fail", 26)
    assert outcomes[-1] is STUCK


# -- the focus phases read formulas under an environment: exR and allL push
# their metavariable, unfoldR enters the definition body with the atom's
# arguments, and only unified leaves and released formulas are instantiated

_ENV_THM = """
Kind nat type.
Type z nat.
Type s nat -> nat.

Define is_nat : nat -> prop by
  is_nat z ;
  is_nat (s N) := is_nat N.

% the recursive call sits under two existentials, next to a call of is_nat
Define half : nat -> nat -> prop by
  half z z ;
  half (s z) z ;
  half (s (s N)) (s H) := is_nat N /\\ half N H.

Define edge : nat -> nat -> prop by
  edge z (s z) ;
  edge z (s (s z)) ;
  edge (s (s z)) (s (s (s z))).

Define path : nat -> nat -> prop by
  path X Z := edge X Y /\\ edge Y Z.

Theorem half_five : half (s (s (s (s (s z))))) (s (s z)).
ship "(induction 0 0 9)".

Theorem two_step : forall X Y Z, edge X Y -> edge Y Z -> path X Z.
ship "(induction 1 0 1)".

Theorem reach : path z (s (s (s z))).
ship "(induction 1 0 1)".
"""


@pytest.fixture(scope="module")
def env_el():
    return elaborate(parse_file(_ENV_THM))


def _accepted_and_replayed(el, name, cert, lemmas=()):
    lemmas = [(LemmaName(sym(n)), el.goals[n]) for n in lemmas]
    r = check_outline(el, el.goals[name], cert, lemmas)
    assert isinstance(r, Accepted), r
    back = trace_from_lines(trace_to_lines(r.trace))
    assert back == r.trace
    assert verify_trace(lemmas, el.goals[name], back)
    return r.trace


def test_unfold_right_under_two_existentials(env_el):
    trace = _accepted_and_replayed(env_el, "half_five", "(induction 0 0 9)")
    # half 5 2 -> half 3 1 -> half 1 0, each through the recursive clause's
    # two existentials, with is_nat unfolded inside half's body
    witnesses = [n.term for n in trace.walk() if n.rule == "exR"]
    assert witnesses[:2] == [num(3), num(1)]
    assert count_rule(trace, "unfoldR") == 9


def test_lemma_with_three_foralls_backtracks_into_its_consequent(env_el):
    _accepted_and_replayed(env_el, "two_step", "(induction 1 0 1)")
    trace = _accepted_and_replayed(env_el, "reach", "(induction 1 0 1)", ["two_step"])
    # edge z Y first gives Y = 1, and edge 1 3 fails; impL backtracks into
    # its first premise for Y = 2
    assert [n.term for n in trace.walk() if n.rule == "allL"] == [num(0), num(2), num(3)]
    assert count_rule(trace, "impL") == 2


# -- the left equality rule's substitution is read by its premise's
# unifications and never written into the sequent; a metavariable bound
# under it holds the substituted term for the sibling premises

# exists X, (forall Y W, Y = s W -> W = z -> X = Y) /\ X = n
_BRANCH_BODY = All(All(Imp(Eq(Bound(1), con("s", Bound(0))),
                           Imp(Eq(Bound(0), num(0)), Eq(Bound(2), Bound(1))))))

# the trace of the kernel that rewrote the sequent under each case split
_BRANCH_TRACE = [
    "(storeR 1 nil nil nil nil)",
    "(decideR 1 nil nil nil nil)",
    "(exR 1 (s z) nil nil nil)",
    "(andR 2 nil nil nil nil)",
    "(releaseR 1 nil nil nil nil)",
    "(allR 1 (%ev 2 1) nil nil nil)",
    "(allR 1 (%ev 3 2) nil nil nil)",
    "(impR 1 nil nil nil nil)",
    "(eqL 1 nil nil nil nil)",
    "(impR 1 nil nil nil nil)",
    "(eqL 1 nil nil nil nil)",
    "(storeR 1 nil nil nil nil)",
    "(decideR 1 nil nil nil nil)",
    "(eqR 0 nil nil nil nil)",
    "(eqR 0 nil nil nil nil)",
]


def test_binding_made_under_a_case_split_reaches_the_sibling_premise():
    # the first conjunct splits Y := s W, then W := z, and binds X to what Y
    # stands for there, s z; the second conjunct reads X with no split
    goal = Ex(And(_BRANCH_BODY, Eq(Bound(0), num(1))))
    r = check_outline(None, goal, "(induction 0 0 0)")
    assert isinstance(r, Accepted) and r.steps == 15
    assert trace_to_lines(r.trace) == _BRANCH_TRACE
    assert verify_trace([], goal, r.trace)
    r = check_outline(None, Ex(And(_BRANCH_BODY, Eq(Bound(0), num(2)))), "(induction 0 0 0)")
    assert r == Rejected(15)


# atoms of a binary p given fewer arguments, wherever they sit
_P = Definition(sym("p"), 2, lambda _: TT)
_ARITY = "^p expects 2 arguments, got [01]$"


def _lemma(f):
    return [(LemmaName(sym("l")), f)]


@pytest.mark.parametrize("goal, lemmas, error, match", [
    (Or(FF, MuAtom(_P, ())), [], StructuralError, _ARITY),
    (FF, _lemma(Imp(TT, MuAtom(_P, ()))), StructuralError, _ARITY),
    (Ex(Or(TT, MuAtom(_P, (Bound(0),)))), [], StructuralError, _ARITY),
    (FF, _lemma(All(Imp(TT, MuAtom(_P, (Bound(0),))))), StructuralError, _ARITY),
    (Ex(Ex(MuAtom(_P, (Bound(1),)))), [], StructuralError, _ARITY),
    # search never reaches the atom: orR proves tt on side 1
    (Or(TT, MuAtom(_P, ())), [], StructuralError, _ARITY),
    # a lemma that the proof of tt never decides on
    (TT, _lemma(MuAtom(_P, ())), StructuralError, _ARITY),
    (con("z"), [], TypeError, "^not a formula: z$"),
    # unchecked, replay would accept storeR, decideR, eqR on this goal
    (Eq(Bound(0), Bound(0)), [], StructuralError, r"^no binder binds \(%bv 0\)$"),
    (FF, _lemma(All(Eq(Bound(0), Bound(1)))), StructuralError,
     r"^no binder binds \(%bv 1\)$"),
    # unchecked, search would bind the metavariable and accept; replay would refuse
    (Eq(MVar(1, 0), con("z")), [], StructuralError,
     r"^metavariable \(%mv 1 0\) in a check's inputs$"),
    (TT, _lemma(Ex(MuAtom(_P, (Bound(0), MVar(1, 0))))), StructuralError,
     r"^metavariable \(%mv 1 0\) in a check's inputs$"),
], ids=["or-ff", "lemma-imp", "under-ex", "lemma-under-all", "under-two-ex",
        "or-tt", "lemma-never-decided", "term-goal", "unbound-bv", "lemma-unbound-bv",
        "mvar", "lemma-mvar"])
def test_ill_formed_input_raises_before_any_step_or_record(goal, lemmas, error, match):
    # with a step limit of 0 the first step ends the search as OutOfBudget
    with pytest.raises(error, match=match):
        check_outline(None, goal, "(induction 1 0 0)", lemmas, max_steps=0)
    # a first record that fits no goal here would be named as the failure
    for replay in (explain_failure, verify_trace):
        with pytest.raises(error, match=match):
            replay(lemmas, goal, TraceNode("ffL"))


@pytest.mark.parametrize("cert", ["(induction 0 0 0)", "(induction 0 0 1)"])
def test_atom_of_the_wrong_arity_raises_where_the_inputs_enter(el, cert):
    # without unfolding, search used to reject this goal in 3 steps; with
    # one unfold, it raised only once search reached the atom
    goal = MuAtom(_defs(el)["is_nat"], (num(0), num(0)))
    match = "^is_nat expects 1 arguments, got 2$"
    for lemmas, g in (([], goal), (_lemma(Imp(goal, TT)), TT)):
        with pytest.raises(StructuralError, match=match):
            check_outline(el, g, cert, lemmas, max_steps=0)
        for replay in (explain_failure, verify_trace):
            with pytest.raises(StructuralError, match=match):
                replay(lemmas, g, TraceNode("ffL"))
    with pytest.raises(ValueError, match=match):
        eval_ground(_defs(el).values(), goal, 5)


_FREE = "^the body of c holds a free variable$"
_NEGATIVE = "^c recurses in a negative position$"


@pytest.mark.parametrize("arity, body, match", [
    # a rule may make a body's variable again as its fresh one: allR opens
    # forall X, c X with (%ev 1 1), which would then prove c X := X = (%ev 1 1)
    (1, lambda c: Eq(Bound(0), EVar(1, 1)), _FREE),
    (1, lambda c: Eq(Bound(0), MVar(1, 0)), _FREE),
    # no unfold can meet such an atom: the definition is refused whole
    (1, lambda c: MuAtom(c, (Bound(0), Bound(0))), "^c expects 1 arguments, got 2$"),
    (1, lambda c: Or(TT, Ex(MuAtom(_P, (Bound(1),)))), _ARITY),
    # were c := c -> false built, check would accept c under (induction 2 1 1),
    # then ff with the lemma c, and replay would agree with both
    (0, lambda c: Imp(MuAtom(c, ()), FF), _NEGATIVE),
    (1, lambda c: And(TT, Imp(Ex(Or(FF, MuAtom(c, (Bound(0),)))), TT)), _NEGATIVE),
    (0, lambda c: Eq(Bound(0), con("z")), r"^no binder binds \(%bv 0\)$"),
    (1, lambda c: Ex(Eq(Bound(2), Bound(0))), r"^no binder binds \(%bv 2\)$"),
], ids=["free-evar", "free-mvar", "arity-self", "arity-other", "c-implies-false",
        "negative-under-ex", "unbound-bv", "unbound-bv-under-ex"])
def test_ill_formed_body_refused_when_built(arity, body, match):
    with pytest.raises(StructuralError, match=match):
        Definition(sym("c"), arity, body)


def test_recursion_left_of_two_implications_builds():
    c = Definition(sym("c"), 1, lambda c: Imp(Imp(MuAtom(c, (Bound(0),)), FF), FF))
    assert c.body == Imp(Imp(MuAtom(c, (Bound(0),)), FF), FF)


# -- search pinned beyond the shipped certificates: every outline cell of the
# corpus, verdict, step count and trace text, under one digest

# the digest of the kernel that opened binders and unfolded definitions
# eagerly, with each induction record's invariant written as its flavour:
# reading formulas under an environment must not move it
_GRID_SHA256 = "a8caa7a5f413d98562446fd556a7f4bceec838d46eed72ff10554b36d5847d72"


def _grid_digest() -> tuple[str, Counter]:
    el = elab_plus()
    names = [t.name for t in el.theorems]
    h = hashlib.sha256()
    classes: Counter = Counter()
    for i, name in enumerate(names):
        lemmas = [(LemmaName(sym(n)), el.goals[n]) for n in names[:i]]
        for d, a, s in itertools.product(range(4), repeat=3):
            r = check_outline(el, el.goals[name], f"(induction {d} {a} {s})",
                              lemmas, max_steps=500)
            text = "\n".join(trace_to_lines(r.trace)) if isinstance(r, Accepted) else ""
            cls = type(r).__name__
            h.update(repr((name, d, a, s, cls, r.steps, text)).encode())
            classes[cls] += 1
    return h.hexdigest(), classes


def test_grid_search_pinned():
    digest, classes = _grid_digest()
    assert classes == {"Accepted": 71, "Rejected": 69, "OutOfBudget": 180}
    assert digest == _GRID_SHA256


def test_search_opens_no_binder():
    # search reads every formula under an environment; only replay opens
    # binders eagerly, so a replayed trace checks search independently: no
    # `instantiate` call takes a binder's body (`.body`, or a name a pattern
    # binds with `body=` or an assignment takes from `.body`), and the
    # induction hands its fresh eigenvariables `ys` to no `instantiate`
    # call, only as an environment
    tree = ast.parse(pathlib.Path(kernel.__file__).read_text(encoding="utf-8"))
    assert any(isinstance(n, ast.Attribute) and n.attr == "body"
               for n in ast.walk(tree))  # the reads the check follows are there
    bodies = {p.name for n in ast.walk(tree) if isinstance(n, ast.MatchClass)
              for a, p in zip(n.kwd_attrs, n.kwd_patterns) if a == "body"}
    bodies |= {t.id for n in ast.walk(tree) if isinstance(n, ast.Assign)
               and isinstance(n.value, ast.Attribute) and n.value.attr == "body"
               for t in n.targets if isinstance(t, ast.Name)}
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name) and n.func.id == "instantiate"]
    assert calls
    opened = [n.lineno for c in calls for n in ast.walk(c)
              if isinstance(n, ast.Attribute) and n.attr == "body"
              or isinstance(n, ast.Name) and n.id in bodies | {"ys"}]
    assert not opened


def test_search_is_a_loop_over_goals():
    # a phase returns its premises as goal frames and only check's loop
    # runs them: no function calls a phase, so no proof is too deep
    tree = ast.parse(pathlib.Path(kernel.__file__).read_text(encoding="utf-8"))
    phases = {"_async", "_left_focus", "_right_focus"}
    calls = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name) and n.func.id in phases]
    assert not calls
    framed = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id in phases}
    assert framed == phases


def _builds_a_term(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_inst"
               for n in ast.walk(node))


def test_search_builds_no_term_it_unifies():
    # eqL, eqR and initial hand the unifier a formula's terms with its
    # environment; only a binding the unifier stores is built
    tree = ast.parse(pathlib.Path(kernel.__file__).read_text(encoding="utf-8"))
    calls = 0
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        built = {m.id for n in ast.walk(fn) if isinstance(n, ast.Assign) and _builds_a_term(n.value)
                 for t in n.targets for m in ast.walk(t) if isinstance(m, ast.Name)}
        for n in ast.walk(fn):
            if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr in ("unify", "unify_args", "unify_case_split")):
                continue
            calls += 1
            for arg in (*n.args, *(k.value for k in n.keywords)):
                assert not _builds_a_term(arg), (n.lineno, ast.unparse(arg))
                assert not (isinstance(arg, ast.Name) and arg.id in built), (n.lineno, arg.id)
    assert calls == 3  # eqL, eqR and initial


def test_one_policy_numbers_variables():
    # search and the unifier make a variable only with the store's next id,
    # which check starts above its inputs; in syntax, only the trace reader
    # builds one, with the id it reads
    made = 0
    for mod in (kernel, unify):
        tree = ast.parse(pathlib.Path(mod.__file__).read_text(encoding="utf-8"))
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) \
                    and n.func.id in ("EVar", "MVar"):
                made += 1
                i = n.args[0]
                assert (isinstance(i, ast.Call) and isinstance(i.func, ast.Name)
                        and i.func.id == "next" and isinstance(i.args[0], ast.Attribute)
                        and i.args[0].attr == "ids"), (mod.__name__, n.lineno, ast.unparse(n))
    assert made == 6  # exL, allR, the induction's ys, allL, exR and pruning
    tree = ast.parse(pathlib.Path(syntax.__file__).read_text(encoding="utf-8"))
    builders = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for n in ast.walk(fn) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id in ("EVar", "MVar")}
    assert builders == {"term_from_sexp"}
