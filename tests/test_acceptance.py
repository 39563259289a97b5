"""Acceptance suite: one test per advertised guarantee.

Each test prints a single PASS line when its criterion holds, so a verbose
run reads as a checklist:

1. corpus reproduction under the shipped certificates, end to end, < 5 s;
2. minimal budget triples for the two totality/determinacy theorems found
   by exhaustive grid search and frozen as regression values;
3. four negative controls on the lemma-dependent theorem;
4. kernel verdicts on ground atoms match the brute-force evaluator exactly
   (343 + 7 queries);
5. every accepted proof replays from its trace, and 100 random single-field
   trace mutations are all rejected;
6. acceptance is monotone over the 4x4x4 budget grid (no accepted triple
   dominated by a rejected one; cells hitting the step cap are treated as
   unresolved);
7. randomized unify/mark/undo sequences leave the binding store equal to a
   from-scratch replay.
"""

from __future__ import annotations

import random
import time

import pytest

from outlinecheck import (
    Accepted,
    BindingStore,
    LemmaName,
    MuAtom,
    OutOfBudget,
    Rejected,
    ResourceLimits,
    eval_ground,
    parse_file,
    run_session,
    sym,
    verify_trace,
)

from _util import CORPUS, check_outline, elab_plus, load_plus, num


@pytest.fixture(scope="module")
def el():
    return elab_plus()


@pytest.fixture(scope="module")
def session():
    results = run_session(load_plus(), ResourceLimits(max_steps=1_000_000))
    assert all(r.outcome == "ok" for r in results)
    return results


def _lemmas(el, *names):
    return [(LemmaName(sym(n)), el.goals[n]) for n in names]


def test_criterion_1_corpus_reproduction(el):
    t0 = time.time()
    r1 = check_outline(el, el.goals["plus0com"], "(induction 1 0 1)")
    r2 = check_outline(el, el.goals["plusscom"], "(induction 1 0 1)")
    both = _lemmas(el, "plus0com", "plusscom")
    r3 = check_outline(el, el.goals["pluscom"], "(induction 2 1 0)", both)
    elapsed = time.time() - t0
    assert isinstance(r1, Accepted)
    assert isinstance(r2, Accepted)
    assert isinstance(r3, Accepted)
    assert elapsed < 5.0, f"corpus took {elapsed:.2f}s"
    print(f"\ncriterion 1 (corpus reproduction in {elapsed:.2f}s): PASS")


def _grid_minimals(el, name, lemmas, bound=3, max_steps=500_000):
    accepted = []
    for d in range(bound + 1):
        for uA in range(bound + 1):
            for uS in range(bound + 1):
                r = check_outline(el, el.goals[name],
                                  f"(induction {d} {uA} {uS})", lemmas,
                                  max_steps=max_steps)
                if isinstance(r, Accepted):
                    accepted.append((d, uA, uS))
    return [a for a in accepted
            if not any(b != a and all(x <= y for x, y in zip(b, a))
                       for b in accepted)]


def test_criterion_2_minimal_budgets_by_grid_search(el):
    # Regression values: the least accepting triples under pointwise order.
    assert _grid_minimals(el, "plus_total", []) == [(1, 0, 1)]
    assert _grid_minimals(el, "plus_determ", _lemmas(el, "plus_total")) == [(1, 1, 0)]
    print("\ncriterion 2 (minimal budgets (1,0,1) and (1,1,0)): PASS")


def test_criterion_3_negative_controls(el):
    goal = el.goals["pluscom"]
    both = _lemmas(el, "plus0com", "plusscom")
    # (a) empty lemma table
    assert isinstance(check_outline(el, goal, "(induction 2 1 0)", []), Rejected)
    # (b) insufficient budgets
    assert isinstance(check_outline(el, goal, "(induction 1 0 0)", both), Rejected)
    # (c) lemma list naming only one of the two needed lemmas
    assert isinstance(
        check_outline(el, goal, "(induction 2 (lemmas plus0com) 1 0)", both),
        Rejected)
    # (d) tampered statement: swap two variables in one atom
    src = CORPUS.read_text().replace("plus N M S -> plus M N S",
                                     "plus S M N -> plus M N S")
    assert src != CORPUS.read_text()
    results = run_session(parse_file(src), ResourceLimits(max_steps=1_000_000))
    assert {r.name: r.outcome for r in results}["pluscom"] == "fail"
    print("\ncriterion 3 (four negative controls rejected): PASS")


def test_criterion_4_oracle_equivalence(el):
    defs = el.definitions.values()
    plus = el.definitions["plus"]
    is_nat = el.definitions["is_nat"]
    queries = [MuAtom(plus, (num(a), num(b), num(c)))
               for a in range(7) for b in range(7) for c in range(7)]
    queries += [MuAtom(is_nat, (num(a),)) for a in range(7)]
    disagreements = []
    for atom in queries:
        truth = eval_ground(defs, atom, 40)
        assert truth in (True, False)
        verdict = check_outline(el, atom, "(induction 0 0 14)")
        if isinstance(verdict, Accepted) is not truth:
            disagreements.append(atom)
    assert not disagreements
    print(f"\ncriterion 4 (oracle equivalence on {len(queries)} queries): PASS")


def test_criterion_5_replay_soundness(session):
    for r in session:
        assert verify_trace(r.lemmas, r.goal, r.trace), r.name
    from test_trace_replay import _all_paths, _mutate

    rng = random.Random(424242)
    rejected = 0
    guard = 0
    while rejected < 100:
        guard += 1
        assert guard < 1000
        r = rng.choice(session)
        path = rng.choice(list(_all_paths(r.trace)))
        field = rng.choice(["rule", "formula", "term", "index", "invariant", "side"])
        mutant = _mutate(r.trace, path, field, rng)
        if mutant == r.trace:
            continue
        assert not verify_trace(r.lemmas, r.goal, mutant), (r.name, path, field)
        rejected += 1
    print("\ncriterion 5 (replay sound; 100/100 mutations rejected): PASS")


def test_criterion_6_budget_monotonicity(el):
    cap = 200_000
    lemmas = []
    for name, goal in el.goals.items():
        verdicts = {}
        for d in range(4):
            for uA in range(4):
                for uS in range(4):
                    r = check_outline(el, goal, f"(induction {d} {uA} {uS})",
                                      lemmas, max_steps=cap)
                    if not isinstance(r, OutOfBudget):
                        verdicts[(d, uA, uS)] = isinstance(r, Accepted)
        bad = [(a, b) for a, va in verdicts.items() if va
               for b, vb in verdicts.items() if not vb
               if all(x <= y for x, y in zip(a, b))]
        assert not bad, f"{name}: accepted {bad[0][0]} dominated by rejected {bad[0][1]}"
        lemmas.append((LemmaName(sym(name)), goal))
    print("\ncriterion 6 (budget monotonicity on the 4x4x4 grid): PASS")


def test_criterion_7_backtracking_hygiene():
    from test_unify import _random_term, _scratch_replay
    from outlinecheck.syntax import EVar, MVar, Term

    rng = random.Random(11223344)
    store = BindingStore(10_000)
    pool: list[Term] = [MVar(5000 + i, 1) for i in range(12)]
    pool += [EVar(6000 + i, 1) for i in range(4)]
    frames: list[tuple[object, int]] = []
    ops: list[tuple[Term, Term]] = []
    for _ in range(10_000):
        r = rng.random()
        if r < 0.15:
            frames.append((store.mark(), len(ops)))
        elif r < 0.25 and frames:
            cp, n = frames.pop(rng.randrange(len(frames)))
            frames = [(c, k) for (c, k) in frames if k <= n]
            store.undo(cp)
            del ops[n:]
        else:
            a = _random_term(rng, pool)
            b = _random_term(rng, pool)
            if store.unify(a, b):
                ops.append((a, b))
    model = _scratch_replay(ops)
    for v in pool:
        assert store.resolve(v) == model.resolve(v)
    print("\ncriterion 7 (10^4-op unify/mark/undo replay agreement): PASS")
