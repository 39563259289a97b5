"""Trace serialization and search-free replay verification."""

from __future__ import annotations

import ast
import pathlib
import random
import re
import sys

import pytest

import outlinecheck
from outlinecheck import (
    Accepted,
    MuAtom,
    ResourceLimits,
    TraceFormatError,
    TraceNode,
    count_rule,
    elaborate,
    explain_failure,
    parse_file,
    run_session,
    trace_from_lines,
    trace_to_lines,
    verify_trace,
)
from outlinecheck.syntax import (
    FF, TT, All, And, App, Bound, EVar, Eq, Ex, Hyp, Imp, LemmaName, MVar, Or,
    parse_sexp, sym, term_vars,
)
from outlinecheck.trace import RULES

from _util import CORPUS, check_outline, elab_plus, load_plus, num


@pytest.fixture(scope="module")
def session():
    results = run_session(load_plus(), ResourceLimits(max_steps=1_000_000))
    assert all(r.outcome == "ok" for r in results)
    return results


@pytest.fixture(scope="module")
def el():
    return elab_plus()


@pytest.fixture(scope="module")
def all_accepted():
    """The accepted theorems of the corpus and of bench/theorems: the 21
    whose traces `acheck --trace` writes."""
    files = [CORPUS, *sorted((CORPUS.parent.parent / "bench" / "theorems").glob("*.thm"))]
    return [r for f in files for r in run_session(parse_file(f.read_text()))
            if r.outcome == "ok"]


# -- serialization


def test_round_trip_on_all_corpus_traces(session):
    for r in session:
        lines = trace_to_lines(r.trace)
        back = trace_from_lines(lines)
        assert back == r.trace


def test_records_have_six_fields(session):
    # rule, premise count, term, index, invariant, side: no principal formula
    for r in session:
        for ln in trace_to_lines(r.trace):
            rec = parse_sexp(ln)
            assert len(rec) == 6 and rec[0] in RULES, ln


def test_malformed_records_rejected():
    with pytest.raises(TraceFormatError):
        trace_from_lines(["(eqR 0 nil nil nil)"])  # 5 fields
    with pytest.raises(TraceFormatError):  # 7 fields: a principal formula
        trace_from_lines(["(eqR 0 (eq z z) nil nil nil nil)"])
    with pytest.raises(TraceFormatError):
        trace_from_lines(["(mystery 0 nil nil nil nil)"])
    with pytest.raises(TraceFormatError):
        trace_from_lines(["(impR 1 nil nil nil nil)"])  # truncated
    with pytest.raises(TraceFormatError):
        trace_from_lines(["(eqR -1 nil nil nil nil)"])
    with pytest.raises(TraceFormatError):  # int() takes 0_1; the writer prints 1
        trace_from_lines(["(initial 0 nil (hyp 0_1) nil nil)"])
    with pytest.raises(TraceFormatError):
        trace_from_lines(["(eqR 0 nil nil nil nil)",
                          "(eqR 0 nil nil nil nil)"])  # extra record


@pytest.mark.parametrize("lines, msg", [
    (["(mystery 0 nil nil nil nil)"], "line 1: unknown rule: mystery"),
    (["(impR 1 nil nil nil nil)", "", "(eqR x nil nil nil nil)"],
     "line 3: expected an integer, got 'x'"),
    (["(eqR -1 nil nil nil nil)"], "line 1: negative premise count: -1"),
    (["(impR 1 nil nil nil nil)"], "line 2: truncated trace: 1 records missing"),
    ([], "line 1: truncated trace: 1 records missing"),
    # a complete proof with one record after it, once read as truncated
    (["(eqR 0 nil nil nil nil)", "", "(allR 1 (%ev 1 1) nil nil nil)"],
     "line 3: surplus record after the end of the proof"),
], ids=["rule", "integer-after-a-blank-line", "negative", "truncated", "empty", "surplus"])
def test_reader_names_the_refused_line(lines, msg):
    with pytest.raises(TraceFormatError) as e:
        trace_from_lines(lines)
    assert str(e.value) == msg


def test_old_format_invariant_field_rejected():
    # an induction record names its invariant's flavour; a formula there is
    # the format that spelled the invariant out
    with pytest.raises(TraceFormatError, match=r"expected an integer, got \('inv'"):
        trace_from_lines(
            ["(induct_obvious 0 nil nil (inv 1 (mu is_nat (%bv 0))) nil)"])


# the bare invariant, the second of the two this sequent yields once
# plus N M P is inducted on with is_nat N stored: folding is_nat N in does
# not prove the theorem under this outline
_BARE = ("Theorem bare : forall N M P, is_nat N -> plus N M P -> is_nat M -> is_nat P.\n"
         'ship "(induction 1 0 1)".\n')


def test_bare_flavour_traced_replayed_and_guarded():
    el = elaborate(parse_file(CORPUS.read_text() + _BARE))
    goal = el.goals["bare"]
    r = check_outline(el, goal, "(induction 1 0 1)")
    assert isinstance(r, Accepted)
    lines = trace_to_lines(r.trace)
    [k] = [i for i, ln in enumerate(lines, 1) if ln.startswith("(induct_obvious ")]
    assert lines[k - 1].endswith(" nil 1 nil)")
    back = trace_from_lines(lines)
    assert back == r.trace and explain_failure((), goal, back) is None
    lines[k - 1] = lines[k - 1].replace(" nil 1 nil)", " nil 0 nil)")
    reason = explain_failure((), goal, trace_from_lines(lines))
    # the folded invariant exists here, so replay goes on under it and
    # fails at a later record
    m = re.match(r"record (\d+) \(", reason or "")
    assert m and int(m[1]) > k, reason


@pytest.mark.parametrize("flavour, reason", [
    ("2", "invariant flavour is neither 0 nor 1"),
    ("-1", "invariant flavour is neither 0 nor 1"),
    # plus_total stores no hypothesis before its induction: nothing to fold,
    # so the bare slot is empty
    ("1", "invariant is not one this sequent yields"),
])
def test_corrupted_flavour_names_its_record(session, flavour, reason):
    r = session[0]
    assert r.name == "plus_total"
    lines = trace_to_lines(r.trace)
    [k] = [i for i, ln in enumerate(lines, 1) if ln.startswith("(induct_obvious ")]
    assert lines[k - 1].endswith(" nil 0 nil)")
    lines[k - 1] = lines[k - 1].replace(" nil 0 nil)", f" nil {flavour} nil)")
    assert explain_failure(r.lemmas, r.goal, trace_from_lines(lines)) == (
        f"record {k} (induct_obvious): {reason}")


def test_traces_read_with_no_definition_table_replay(all_accepted):
    # a record holds terms, indexes and integers only, and replay builds
    # each invariant itself from the flavour a record names
    assert len(all_accepted) == 21
    for r in all_accepted:
        tree = trace_from_lines(trace_to_lines(r.trace))
        assert explain_failure(r.lemmas, r.goal, tree) is None, r.name


@pytest.mark.parametrize("name", ["ev", "mv"])
def test_constructor_named_like_a_variable_round_trips(name):
    # variables print with a `%` sigil, so a constructor may take their tags
    text = (CORPUS.parent.parent / "bench" / "theorems" / "list.thm").read_text()
    file = parse_file(text.replace("cons", name))
    done = [r for r in run_session(file) if r.outcome == "ok"]
    assert len(done) == 4
    for r in done:
        lines = trace_to_lines(r.trace)
        tree = trace_from_lines(lines)
        assert tree == r.trace and verify_trace(r.lemmas, r.goal, tree), r.name
    assert any(f"({name} " in ln for r in done for ln in trace_to_lines(r.trace))


def _tt_chain():
    # a proof of tt -> tt -> ... -> z = z: an impR/ttL pair per antecedent,
    # closed by storeR, decideR and eqR
    z = App(sym("z"), ())
    goal = Eq(z, z)
    chain = TraceNode("storeR", (TraceNode("decideR", (TraceNode("eqR"),)),))
    for _ in range(9_999):
        goal = Imp(TT, goal)
        chain = TraceNode("impR", (TraceNode("ttL", (chain,)),))
    return goal, trace_to_lines(chain)


def test_twenty_thousand_record_chain_needs_no_recursion():
    goal, lines = _tt_chain()
    assert len(lines) == 20_001
    back = trace_from_lines(lines)
    # compare the written lines: dataclass == on the trees would recurse
    assert trace_to_lines(back) == lines
    assert count_rule(back, "ttL") == 9_999
    assert explain_failure((), goal, back) is None
    # the last ttL, renamed, fails at its own line
    k = len(lines) - 3
    bad = list(lines)
    bad[k - 1] = bad[k - 1].replace("(ttL ", "(andL ", 1)
    assert explain_failure((), goal, trace_from_lines(bad)) == (
        f"record {k} (andL): expected ttL on the principal formula tt")


def test_mismatch_on_a_deep_formula_quotes_it_at_the_default_limit():
    # the message quotes a principal formula 10,000 connectives deep
    assert sys.getrecursionlimit() == 1000
    goal, lines = _tt_chain()
    bad = [lines[0].replace("(impR ", "(andL ", 1)] + lines[1:]
    assert explain_failure((), goal, trace_from_lines(bad)) == (
        "record 1 (andL): expected impR on the principal formula "
        + "(imp tt " * 9_999 + "(eq z z)" + ")" * 9_999)


# -- replay


def test_all_corpus_traces_replay(session):
    for r in session:
        assert verify_trace(r.lemmas, r.goal, r.trace), r.name


def test_replay_is_deterministic(session):
    for r in session:
        a = explain_failure(r.lemmas, r.goal, r.trace)
        b = explain_failure(r.lemmas, r.goal, r.trace)
        assert a is None and b is None


def test_trace_for_wrong_goal_rejected(session, el):
    donor = session[0]
    other = el.goals["plus_determ"]
    assert not verify_trace(donor.lemmas, other, donor.trace)


def test_deep_trace_replays_at_the_default_limit(el):
    # a valid trace of 3,310 records: search, reading and replaying it are
    # all loops along it
    goal = MuAtom(el.definitions["plus"], (num(300), num(1), num(301)))
    r = check_outline(el, goal, "(induction 0 0 302)", max_steps=1_000_000)
    assert isinstance(r, Accepted)
    lines = trace_to_lines(r.trace)
    assert len(lines) == 3310
    assert explain_failure((), goal, trace_from_lines(lines)) is None


@pytest.mark.parametrize("name, args, cert, records", [
    ("plus", (1000, 1, 1001), "(induction 0 0 1002)", 11010),
    ("is_nat", (2000,), "(induction 0 0 2001)", 10005),
])
def test_thousands_of_layers_round_trip_at_the_default_limit(el, name, args, cert, records):
    # check, serialise, re-parse and replay, each a loop along the proof
    assert sys.getrecursionlimit() == 1000
    goal = MuAtom(el.definitions[name], tuple(num(n) for n in args))
    r = check_outline(el, goal, cert, max_steps=1_000_000)
    assert isinstance(r, Accepted)
    lines = trace_to_lines(r.trace)
    assert len(lines) == records
    back = trace_from_lines(lines)
    assert trace_to_lines(back) == lines
    assert explain_failure((), goal, back) is None


def test_replay_catches_truncated_trace(session):
    r = session[0]
    cut = r.trace._replace(children=())
    assert explain_failure(r.lemmas, r.goal, cut) == (
        f"record 1 ({r.trace.rule}): expected 1 premises, found 0")
    # a premise that is no record at all has no line to name
    junk = r.trace._replace(children=(None,))
    assert explain_failure(r.lemmas, r.goal, junk).startswith("malformed trace: ")


# -- random single-field mutations must all be rejected


def _mutate(node: TraceNode, path: list[int], field: str, rng: random.Random) -> TraceNode:
    if path:
        i, rest = path[0], path[1:]
        kids = list(node.children)
        kids[i] = _mutate(kids[i], rest, field, rng)
        return node._replace(children=tuple(kids))
    rule, term = node.rule, node.term
    index, invariant, side = node.index, node.invariant, node.side
    if field == "rule":
        rule = rng.choice(sorted(RULES.keys() - {rule}))
    elif field == "term":
        term = num(9) if term is None or term != num(9) else num(8)
    elif field == "index":
        index = Hyp(97) if index != Hyp(97) else Hyp(98)
    elif field == "invariant":
        invariant = 1 if invariant == 0 else 0
    elif field == "side":
        side = 1 if side != 1 else 2
    return TraceNode(rule, node.children, term, index, invariant, side)


def _all_paths(node: TraceNode, prefix=()):
    yield list(prefix)
    for i, c in enumerate(node.children):
        yield from _all_paths(c, prefix + (i,))


def test_hundred_random_mutations_rejected(session):
    rng = random.Random(987)
    rejected = 0
    attempts = 0
    while rejected < 100 and attempts < 500:
        r = rng.choice(session)
        paths = list(_all_paths(r.trace))
        path = rng.choice(paths)
        field = rng.choice(["rule", "term", "index", "invariant", "side"])
        mutant = _mutate(r.trace, path, field, rng)
        if mutant == r.trace:
            continue
        attempts += 1
        assert not verify_trace(r.lemmas, r.goal, mutant), (
            r.name, path, field)
        rejected += 1
    assert rejected == 100


@pytest.fixture(scope="module")
def varied_traces(el):
    """(lemmas, goal, trace) for plus 4 1 5, is_nat 6 and one theorem from
    each file of bench/theorems: between them every rule but ttL, ttR and
    releaseR, which no corpus proof uses."""
    out = []
    for name, args in (("plus", (4, 1, 5)), ("is_nat", (6,))):
        goal = MuAtom(el.definitions[name], tuple(num(n) for n in args))
        r = check_outline(el, goal, f"(induction 0 0 {args[-1] + 2})")
        assert isinstance(r, Accepted)
        out.append(((), goal, r.trace))
    theorems = CORPUS.parent.parent / "bench" / "theorems"
    for file, name in (("list", "app_assoc"), ("order", "lt_trans"),
                       ("parity", "even_odd_false")):
        r, = [r for r in run_session(parse_file((theorems / f"{file}.thm").read_text()))
              if r.name == name]
        assert r.outcome == "ok"
        out.append((r.lemmas, r.goal, r.trace))
    return out


def _still_a_proof(trace: TraceNode, path: list[int], field: str) -> bool:
    """Whether _mutate leaves a proof: a store index renamed where no record
    reads it, or for a witness a metavariable that no other record names,
    one search never constrained, so any closed term serves as well."""
    node = trace
    for i in path:
        node = node.children[i]
    if field == "index" and node.rule in ("freeze", "storeL"):
        return sum(n.index == node.index for n in node.walk()) == 1
    if field == "term" and node.rule in ("allL", "exR") and isinstance(node.term, MVar):
        return sum(n.term is not None and node.term in term_vars(n.term)
                   for n in trace.walk()) == 1
    return False


def test_every_single_field_mutation_rejected_unless_still_a_proof(varied_traces):
    # each mutant is refused, except those that are still proofs
    rng = random.Random(29)
    mutants = proofs = 0
    for lemmas, goal, trace in varied_traces:
        for path in _all_paths(trace):
            for field in ("rule", "term", "index", "invariant", "side"):
                mutant = _mutate(trace, path, field, rng)
                assert mutant != trace
                proof = _still_a_proof(trace, path, field)
                assert verify_trace(lemmas, goal, mutant) is proof, (goal, path, field)
                mutants += 1
                proofs += proof
    assert mutants == 5 * sum(len(trace_to_lines(t)) for _, _, t in varied_traces)
    assert proofs == 3
    used = {n.rule for _, _, t in varied_traces for n in t.walk()}
    assert RULES.keys() - used == {"ttL", "ttR", "releaseR"}


def _free_positions(text: str) -> list[str]:
    """The (%bv i) of a printed formula that escape its binders."""
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    binders: list[bool] = []  # per open parenthesis, whether it opens a binder
    free = []
    for i, tok in enumerate(toks):
        if tok == "(":
            binders.append(toks[i + 1] in ("ex", "all"))
        elif tok == ")":
            binders.pop()
        elif tok == "%bv" and int(toks[i + 1]) >= sum(binders):
            free.append(f"(%bv {toks[i + 1]})")
    return free


def test_refused_focus_formula_is_quoted_as_replay_computed_it(el):
    # under right focus replay reads a formula under an environment; a
    # refusal still quotes it whole, with its free positions filled in
    assert _free_positions("(mu p (%bv 0) (ex (%bv 0) (%bv 1)))") == ["(%bv 0)", "(%bv 1)"]
    goal = MuAtom(el.definitions["plus"], (num(4), num(1), num(5)))
    r = check_outline(el, goal, "(induction 0 0 6)")
    lines = trace_to_lines(r.trace)
    quoted = {}
    for k, line in enumerate(lines, 1):
        rule = line[1:].split(" ", 1)[0]
        if rule not in ("orR", "andR", "exR", "eqR", "unfoldR", "initial"):
            continue
        bad = list(lines)
        bad[k - 1] = line.replace(f"({rule} ", "(impL ", 1)
        reason = explain_failure((), goal, trace_from_lines(bad))
        assert reason.startswith(f"record {k} (impL): expected "), reason
        quoted[rule] = formula = reason.split(" on the principal formula ", 1)[1]
        assert not _free_positions(formula), reason
    assert quoted.keys() == {"orR", "andR", "exR", "eqR", "unfoldR"}
    # an equation, a conjunction and an atom hold no binder, so no %bv at all
    assert not any("%bv" in quoted[rule] for rule in ("andR", "eqR", "unfoldR"))
    # the first record after the first unfold quotes plus's body at 4 1 5
    k = next(k for k, line in enumerate(lines, 1) if line.startswith("(unfoldR ")) + 1
    bad = list(lines)
    bad[k - 1] = bad[k - 1].replace("(orR ", "(impL ", 1)
    body = outlinecheck.instantiate(el.definitions["plus"].body, goal.args)
    assert explain_failure((), goal, trace_from_lines(bad)).endswith(
        f"expected orR on the principal formula {body!r}")


def test_replaying_a_right_focus_trace_builds_no_formula(el, monkeypatch):
    # plus 30 1 31 is proved in right focus alone: exR's witness and
    # unfoldR's arguments go into the environment, so no body is built
    goal = MuAtom(el.definitions["plus"], (num(30), num(1), num(31)))
    r = check_outline(el, goal, "(induction 0 0 32)")
    assert isinstance(r, Accepted) and count_rule(r.trace, "unfoldR") == 31
    calls = []
    real = outlinecheck.replay.instantiate
    monkeypatch.setattr(outlinecheck.replay, "instantiate",
                        lambda *a: calls.append(a) or real(*a))
    assert explain_failure((), goal, r.trace) is None
    assert calls == []


# -- replay checks in one place that a record carries the fields its rule uses


def _replace_at(node: TraceNode, path: list[int], **changes) -> TraceNode:
    if not path:
        return node._replace(**changes)
    kids = list(node.children)
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], **changes)
    return node._replace(children=tuple(kids))


def test_missing_field_named_by_its_rule(session):
    reached = set()
    for r in session:
        done = set()
        for k, path in enumerate(_all_paths(r.trace), 1):
            node = r.trace
            for i in path:
                node = node.children[i]
            for field in RULES[node.rule][1]:
                if (node.rule, field) in done:
                    continue
                done.add((node.rule, field))
                mutant = _replace_at(r.trace, path, **{field: None})
                assert explain_failure(r.lemmas, r.goal, mutant) == (
                    f"record {k} ({node.rule}): missing {field} field"), (r.name, path)
        reached |= done
    # the corpus reaches every rule that carries a field
    assert reached == {(rule, f) for rule, (_, fs) in RULES.items() for f in fs}


@pytest.mark.parametrize("statement, cert, rule", [
    ("exists X, X = X", "(induction 0 0 0)", "exR"),
    ("(forall X, X = X) -> z = z", "(induction 1 0 0)", "allL"),
])
def test_witness_holding_a_bound_variable_rejected(statement, cert, rule):
    prelude = CORPUS.read_text().split("Define plus")[0]
    file = parse_file(prelude + f'Theorem t : {statement}.\nship "{cert}".\n')
    [r] = run_session(file)
    assert r.outcome == "ok"
    # the witness is a metavariable nothing constrains: write (%bv 7) for it
    lines = [re.sub(r"\(%mv \d+ \d+\)", "(%bv 7)", ln)
             for ln in trace_to_lines(r.trace)]
    k = lines.index(f"({rule} 1 (%bv 7) nil nil nil)") + 1
    forged = trace_from_lines(lines)
    assert explain_failure(r.lemmas, r.goal, forged) == (
        f"record {k} ({rule}): witness holds a bound variable")


# -- rules the corpus never fires: each is traced, replays from its lines,
# and is rejected once its record names another rule of the same shape

_RARE_RULES = {
    "ffL": ("false -> is_nat (s z)", "(induction 0 0 0)"),
    "ttL": ("true -> is_nat z", "(induction 0 0 1)"),
    "ttR": ("true", "(induction 0 0 0)"),
    "releaseR": ("is_nat (s z) \\/ (forall X, is_nat X -> is_nat X)",
                 "(induction 0 0 0)"),
}


@pytest.mark.parametrize("rule", sorted(_RARE_RULES))
def test_rare_rule_traced_replayed_and_guarded(rule):
    statement, cert = _RARE_RULES[rule]
    prelude = CORPUS.read_text().split("Define plus")[0]
    file = parse_file(prelude + f'Theorem t : {statement}.\nship "{cert}".\n')
    [r] = run_session(file)
    assert r.outcome == "ok" and count_rule(r.trace, rule) >= 1
    lines = trace_to_lines(r.trace)
    assert verify_trace(r.lemmas, r.goal, trace_from_lines(lines))
    i = next(i for i, n in enumerate(r.trace.walk()) if n.rule == rule)
    other = next(o for o in RULES if o != rule and RULES[o] == RULES[rule])
    lines[i] = lines[i].replace(f"({rule} ", f"({other} ", 1)
    reason = explain_failure(r.lemmas, r.goal, trace_from_lines(lines))
    assert reason.startswith(
        f"record {i + 1} ({other}): expected {rule} on the principal formula ")


def test_release_under_a_witness_replays():
    # right focus releases `forall Y, Y = X -> Y = z` read under exR's
    # witness z: what the asynchronous phase gets is built with it
    prelude = CORPUS.read_text().split("Define plus")[0]
    statement = "exists X, X = z /\\ (forall Y, Y = X -> Y = z)"
    file = parse_file(prelude + f'Theorem t : {statement}.\nship "(induction 0 0 0)".\n')
    [r] = run_session(file)
    assert r.outcome == "ok" and count_rule(r.trace, "releaseR") == 1
    assert explain_failure(r.lemmas, r.goal, trace_from_lines(trace_to_lines(r.trace))) is None


# -- tampering with recorded equality reasoning is caught


def test_clash_claims_require_rigid_disagreement(session):
    # Rewrite some eqL_clash node into an eqL node (and vice versa would drop
    # a premise); the replayer recomputes the case split and must disagree.
    for r in session:
        for i, n in enumerate(r.trace.walk()):
            if n.rule == "eqL_clash":
                lines = trace_to_lines(r.trace)
                bad = [ln.replace("(eqL_clash 0", "(eqL_clash 1", 1)
                       if ln.startswith("(eqL_clash 0") else ln for ln in lines]
                with pytest.raises(TraceFormatError):
                    trace_from_lines(bad)
                return


def test_eigenvariable_of_the_goal_cannot_be_claimed_fresh():
    # forall X, X = (%ev 1 1) is false: (%ev 1 1) is a fixed constant that
    # no rule may introduce again, so allR may not claim it for X
    lines = ["(allR 1 (%ev 1 1) nil nil nil)",
             "(storeR 1 nil nil nil nil)",
             "(decideR 1 nil nil nil nil)",
             "(eqR 0 nil nil nil nil)"]
    goal = All(Eq(Bound(0), EVar(1, 1)))
    assert explain_failure((), goal, trace_from_lines(lines)) == (
        "record 1 (allR): eigenvariable reused")


# exists X, (X = z -> false) /\ (forall Y, X = s Y -> false) is false over
# nat, and the kernel rejects it; a witness of another sort refutes both
# equations by a rigid clash, and replay takes it, knowing no binder's sort
_ILL_SORTED = ["(storeR 1 nil nil nil nil)", "(decideR 1 nil nil nil nil)",
               "(exR 1 {} nil nil nil)", "(andR 2 nil nil nil nil)",
               "(releaseR 1 nil nil nil nil)", "(impR 1 nil nil nil nil)",
               "(eqL_clash 0 nil nil nil nil)", "(releaseR 1 nil nil nil nil)",
               "(allR 1 (%ev 1 1) nil nil nil)", "(impR 1 nil nil nil nil)",
               "(eqL_clash 0 nil nil nil nil)"]


@pytest.mark.xfail(strict=True, reason="replay does not check the sorts of witnesses")
@pytest.mark.parametrize("path, witness", [
    (CORPUS, "foo"),  # not even a declared constructor
    (CORPUS.parent.parent / "bench" / "theorems" / "list.thm", "empty"),
], ids=["undeclared", "list"])
def test_witness_of_another_sort_rejected(path, witness):
    prelude = re.split(r"^Theorem", path.read_text(), flags=re.M)[0]
    el = elaborate(parse_file(
        prelude + "Theorem t : exists X, (X = z -> false) /\\"
        " (forall Y, X = s Y -> false).\n"))
    lines = [ln.format(witness) for ln in _ILL_SORTED]
    trace = trace_from_lines(lines)
    assert explain_failure((), el.goals["t"], trace) is not None


def _node(rule, *children, **fields):
    return TraceNode(rule, children, **fields)


_L = LemmaName(sym("l"))


@pytest.mark.parametrize("lemmas, goal, focus", [
    ((), FF, _node("ttR")),
    ((), Or(FF, FF), _node("orR", _node("ttR"), side=1)),
    ((), And(TT, FF), _node("andR", _node("ttR"), _node("ttR"))),
    ((), Ex(FF), _node("exR", _node("ttR"), term=App(sym("z"), ()))),
    # the lemma ff => ff holds, but its antecedent has no proof
    (((_L, Imp(FF, FF)),), FF,
     _node("impL", _node("ttR"), _node("releaseL", _node("ffL")))),
], ids=["goal", "orR", "andR", "exR", "impL"])
def test_right_focus_on_ff_rejected(lemmas, goal, focus):
    # ff has no right rule: whatever record claims one, replay refuses it
    decide = (_node("decideR", focus) if focus.rule != "impL"
              else _node("decideL", focus, index=_L))
    reason = explain_failure(lemmas, goal, _node("storeR", decide))
    assert reason is not None and reason.endswith("ff has no right rule"), reason


def test_term_deeper_than_the_limit_names_its_record():
    # replay's term walks still recurse on a term's depth: a witness deeper
    # than the limit is refused at its record, and no RecursionError escapes
    w = MVar(7, 0)
    for _ in range(3_000):
        w = App(sym("s"), (w,))
    trace = _node("storeR", _node("decideR", _node("exR", _node("eqR"), term=w)))
    assert explain_failure((), Ex(Eq(Bound(0), Bound(0))), trace) == (
        "record 3 (exR): term nests too deeply for this checker")


def test_failure_names_the_tampered_line(session):
    # a record renamed to a rule that does not apply fails at its own line:
    # every record before it in the file has replayed
    for r in session:
        lines = trace_to_lines(r.trace)
        for k in range(1, len(lines) + 1, 7):
            rule = lines[k - 1][1:].split(" ", 1)[0]
            other = "ttR" if rule != "ttR" else "ffL"
            bad = list(lines)
            bad[k - 1] = bad[k - 1].replace(f"({rule} ", f"({other} ", 1)
            reason = explain_failure(r.lemmas, r.goal, trace_from_lines(bad))
            assert reason.startswith(f"record {k} ({other}): expected "), (
                r.name, k, reason)


# -- the trusted base stands alone


def _package_imports(path: pathlib.Path):
    """Names of the outlinecheck modules a source file imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "outlinecheck":
                    yield parts[1] if len(parts) > 1 else parts[0]
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "outlinecheck":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                yield parts[0]
            else:
                yield from (alias.name for alias in node.names)


def _import_time_counters(path: pathlib.Path):
    """Lines where a source file makes an itertools.count when it is
    imported: anywhere but inside a function body."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
             and n.module == "itertools" for a in n.names if a.name == "count"}
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.append(node.args)  # defaults run at import
            todo.extend(getattr(node, "decorator_list", ()))
            continue
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id in names
                or isinstance(node.func, ast.Attribute) and node.func.attr == "count"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "itertools"):
            yield node.lineno
        todo.extend(ast.iter_child_nodes(node))


def test_trusted_base_imports_only_itself():
    # read the source: importing any module runs the package __init__,
    # which loads the kernel, so sys.modules cannot show this
    trusted = {"syntax", "trace", "replay"}
    pkg = pathlib.Path(outlinecheck.__file__).parent
    for name in sorted(trusted):
        imported = set(_package_imports(pkg / f"{name}.py"))
        assert imported <= trusted, (name, imported - trusted)
        # a counter shared by the whole process would make what a check
        # outputs depend on the checks before it
        assert not list(_import_time_counters(pkg / f"{name}.py")), name
    # the oracle is the tests' ground truth: it shares no code with search
    # or replay, only the formulas they all read
    assert set(_package_imports(pkg / "oracle.py")) <= {"syntax"}


def test_replay_is_a_loop_along_the_trace():
    # a phase returns its premises as frames and only explain_failure's
    # loop runs them: no phase calls another, so no trace is too deep
    tree = ast.parse((pathlib.Path(outlinecheck.__file__).parent / "replay.py")
                     .read_text(encoding="utf-8"))
    phases = {"r_async", "r_left", "r_right"}
    calls = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
             and (isinstance(n.func, ast.Attribute) and n.func.attr in phases
                  or isinstance(n.func, ast.Name) and n.func.id in phases)]
    assert not calls
    framed = {n.attr for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and n.attr in phases}
    assert framed == phases
