"""Trace serialization and search-free replay verification."""

from __future__ import annotations

import ast
import pathlib
import random
import re
import sys
from dataclasses import replace

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
    FF, TT, All, And, App, Bound, EVar, Eq, Ex, Hyp, Imp, InvariantAbs,
    LemmaName, MVar, Or, parse_sexp, sym,
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


# -- serialization


def test_round_trip_on_all_corpus_traces(session, el):
    for r in session:
        lines = trace_to_lines(r.trace)
        back = trace_from_lines(lines, el.definitions)
        assert back == r.trace


def test_records_have_six_fields(session):
    # rule, premise count, term, index, invariant, side: no principal formula
    for r in session:
        for ln in trace_to_lines(r.trace):
            rec = parse_sexp(ln)
            assert len(rec) == 6 and rec[0] in RULES, ln


def test_malformed_records_rejected(el):
    with pytest.raises(TraceFormatError):
        trace_from_lines(["(eqR 0 nil nil nil)"], el.definitions)  # 5 fields
    with pytest.raises(TraceFormatError):  # 7 fields: a principal formula
        trace_from_lines(["(eqR 0 (eq z z) nil nil nil nil)"], el.definitions)
    with pytest.raises(TraceFormatError):
        trace_from_lines(["(mystery 0 nil nil nil nil)"], el.definitions)
    with pytest.raises(TraceFormatError):
        trace_from_lines(["(impR 1 nil nil nil nil)"], el.definitions)  # truncated
    with pytest.raises(TraceFormatError):
        trace_from_lines(["(eqR -1 nil nil nil nil)"], el.definitions)
    with pytest.raises(TraceFormatError):
        trace_from_lines(
            ["(eqR 0 nil nil nil nil)", "(eqR 0 nil nil nil nil)"],
            el.definitions)  # extra record


def test_unknown_definition_name_rejected(el):
    with pytest.raises(TraceFormatError, match="unknown definition in trace: ghost"):
        trace_from_lines(
            ["(induct_obvious 0 nil nil (inv 1 (mu ghost (%bv 0))) nil)"],
            el.definitions)


def test_traces_read_under_another_elaboration_replay(session, el):
    # the table a trace is read under is an elaboration of its own: replay
    # goes on with the invariants it synthesizes, not the ones it read
    for r in session:
        tree = trace_from_lines(trace_to_lines(r.trace), el.definitions)
        assert explain_failure(r.lemmas, r.goal, tree) is None, r.name


@pytest.mark.parametrize("name", ["ev", "mv"])
def test_constructor_named_like_a_variable_round_trips(name):
    # variables print with a `%` sigil, so a constructor may take their tags
    text = (CORPUS.parent.parent / "bench" / "theorems" / "list.thm").read_text()
    file = parse_file(text.replace("cons", name))
    defs = elaborate(file).definitions
    done = [r for r in run_session(file) if r.outcome == "ok"]
    assert len(done) == 4
    for r in done:
        lines = trace_to_lines(r.trace)
        tree = trace_from_lines(lines, defs)
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
    back = trace_from_lines(lines, {})
    # compare the written lines: dataclass == on the trees would recurse
    assert trace_to_lines(back) == lines
    assert count_rule(back, "ttL") == 9_999
    assert explain_failure((), goal, back) is None
    # the last ttL, renamed, fails at its own line
    k = len(lines) - 3
    bad = list(lines)
    bad[k - 1] = bad[k - 1].replace("(ttL ", "(andL ", 1)
    assert explain_failure((), goal, trace_from_lines(bad, {})) == (
        f"record {k} (andL): expected ttL on the principal formula tt")


def test_mismatch_on_a_deep_formula_quotes_it_at_the_default_limit():
    # the message quotes a principal formula 10,000 connectives deep
    assert sys.getrecursionlimit() == 1000
    goal, lines = _tt_chain()
    bad = [lines[0].replace("(impR ", "(andL ", 1)] + lines[1:]
    assert explain_failure((), goal, trace_from_lines(bad, {})) == (
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
    # a valid trace of 3,310 records: search still recurses along it and
    # needs a raised limit, but reading and replaying it are loops
    goal = MuAtom(el.definitions["plus"], (num(300), num(1), num(301)))
    default = sys.getrecursionlimit()
    sys.setrecursionlimit(5000)
    try:
        r = check_outline(el, goal, "(induction 0 0 302)", max_steps=1_000_000)
        assert isinstance(r, Accepted)
        lines = trace_to_lines(r.trace)
    finally:
        sys.setrecursionlimit(default)
    assert len(lines) == 3310
    assert explain_failure((), goal, trace_from_lines(lines, el.definitions)) is None


def test_replay_catches_truncated_trace(session):
    r = session[0]
    cut = replace(r.trace, children=())
    assert explain_failure(r.lemmas, r.goal, cut) == (
        f"record 1 ({r.trace.rule}): expected 1 premises, found 0")
    # a premise that is no record at all has no line to name
    junk = replace(r.trace, children=(None,))
    assert explain_failure(r.lemmas, r.goal, junk).startswith("malformed trace: ")


# -- random single-field mutations must all be rejected


def _mutate(node: TraceNode, path: list[int], field: str, rng: random.Random) -> TraceNode:
    if path:
        i, rest = path[0], path[1:]
        kids = list(node.children)
        kids[i] = _mutate(kids[i], rest, field, rng)
        return replace(node, children=tuple(kids))
    rule, term = node.rule, node.term
    index, invariant, side = node.index, node.invariant, node.side
    if field == "rule":
        rule = rng.choice(sorted(RULES.keys() - {rule}))
    elif field == "term":
        term = num(9) if term is None or term != num(9) else num(8)
    elif field == "index":
        index = Hyp(97) if index != Hyp(97) else Hyp(98)
    elif field == "invariant":
        invariant = InvariantAbs(1, TT)
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


# -- replay checks in one place that a record carries the fields its rule uses


def _replace_at(node: TraceNode, path: list[int], **changes) -> TraceNode:
    if not path:
        return replace(node, **changes)
    kids = list(node.children)
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], **changes)
    return replace(node, children=tuple(kids))


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
    forged = trace_from_lines(lines, elaborate(file).definitions)
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
    defs = elaborate(file).definitions
    lines = trace_to_lines(r.trace)
    assert verify_trace(r.lemmas, r.goal, trace_from_lines(lines, defs))
    i = next(i for i, n in enumerate(r.trace.walk()) if n.rule == rule)
    other = next(o for o in RULES if o != rule and RULES[o] == RULES[rule])
    lines[i] = lines[i].replace(f"({rule} ", f"({other} ", 1)
    reason = explain_failure(r.lemmas, r.goal, trace_from_lines(lines, defs))
    assert reason.startswith(
        f"record {i + 1} ({other}): expected {rule} on the principal formula ")


# -- tampering with recorded equality reasoning is caught


def test_clash_claims_require_rigid_disagreement(session, el):
    # Rewrite some eqL_clash node into an eqL node (and vice versa would drop
    # a premise); the replayer recomputes the case split and must disagree.
    for r in session:
        for i, n in enumerate(r.trace.walk()):
            if n.rule == "eqL_clash":
                lines = trace_to_lines(r.trace)
                bad = [ln.replace("(eqL_clash 0", "(eqL_clash 1", 1)
                       if ln.startswith("(eqL_clash 0") else ln for ln in lines]
                with pytest.raises(TraceFormatError):
                    trace_from_lines(bad, el.definitions)
                return


def test_eigenvariable_of_the_goal_cannot_be_claimed_fresh():
    # forall X, X = (%ev 1 1) is false: (%ev 1 1) is a fixed constant that
    # no rule may introduce again, so allR may not claim it for X
    lines = ["(allR 1 (%ev 1 1) nil nil nil)",
             "(storeR 1 nil nil nil nil)",
             "(decideR 1 nil nil nil nil)",
             "(eqR 0 nil nil nil nil)"]
    goal = All(Eq(Bound(0), EVar(1, 1)))
    assert explain_failure((), goal, trace_from_lines(lines, {})) == (
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
    trace = trace_from_lines(lines, el.definitions)
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


def test_failure_names_the_tampered_line(session, el):
    # a record renamed to a rule that does not apply fails at its own line:
    # every record before it in the file has replayed
    for r in session:
        lines = trace_to_lines(r.trace)
        for k in range(1, len(lines) + 1, 7):
            rule = lines[k - 1][1:].split(" ", 1)[0]
            other = "ttR" if rule != "ttR" else "ffL"
            bad = list(lines)
            bad[k - 1] = bad[k - 1].replace(f"({rule} ", f"({other} ", 1)
            reason = explain_failure(r.lemmas, r.goal,
                                     trace_from_lines(bad, el.definitions))
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
