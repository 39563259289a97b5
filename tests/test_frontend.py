"""Theorem-file parsing, elaboration, and the session driver."""

from __future__ import annotations

import pytest

from outlinecheck import (
    ElabError,
    FF,
    ParseError,
    ResourceLimits,
    elaborate,
    parse_file,
    run_session,
)
from outlinecheck.frontend import SBin, SEq, SQuant, STerm
from outlinecheck.syntax import (
    All, And, Bound, Definition, EVar, Eq, Ex, Imp, MuAtom, Or, con,
    input_vars, sym,
)

from _util import CORPUS, load_plus


PRELUDE = """\
Kind nat type.
Type z nat.
Type s nat -> nat.
"""


# -- parsing


def test_corpus_parses_with_expected_declarations():
    f = load_plus()
    kinds = [d for d in f.decls if type(d).__name__ == "KindDecl"]
    types = [d for d in f.decls if type(d).__name__ == "TypeDecl"]
    defines = [d for d in f.decls if type(d).__name__ == "DefineDecl"]
    theorems = [d for d in f.decls if type(d).__name__ == "TheoremDecl"]
    assert len(kinds) == 1
    assert sum(len(t.names) for t in types) == 2
    assert len(defines) == 2
    assert [t.name for t in theorems] == [
        "plus_total", "plus_determ", "plus0com", "plusscom", "pluscom"]


def test_empty_file_parses():
    f = parse_file("")
    assert f.decls == ()


def test_comments_are_ignored():
    f = parse_file("% nothing here\n% at all\n")
    assert f.decls == ()


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse_file("Kind nat type\nType z nat.")
    assert "2:" in str(e.value)


@pytest.mark.parametrize("src, msg", [
    ("Kind nat type\nType z nat.", "2:1: expected '.', found 'Type'"),
    ('Kind nat type.\nship "a\nb" ?', "3:4: unexpected character '?'"),
    ("Kind nat type.\nDefine p : nat -> prop by q z.",
     "2:27: clause head 'q' does not match the definition 'p'"),
], ids=["parser", "lexer-after-a-string-of-two-lines", "clause-head"])
def test_parse_error_positions_pinned(src, msg):
    with pytest.raises(ParseError) as e:
        parse_file(src)
    assert str(e.value) == msg


def test_undeclared_symbol_in_theorem_rejected():
    src = PRELUDE + 'Theorem t : foo z.\nship "(induction 0 0 0)".\n'
    with pytest.raises(ElabError, match="foo"):
        elaborate(parse_file(src))


def test_arity_mismatch_rejected():
    src = PRELUDE + (
        "Define p : nat -> prop by p z.\n"
        'Theorem t : p z z.\nship "(induction 0 0 0)".\n')
    with pytest.raises(ElabError):
        elaborate(parse_file(src))


def test_roundtrip_preserves_operator_structure():
    src = PRELUDE + (
        "Define p : nat -> prop by p z.\n"
        "Theorem t : forall A B, (p A -> p B) -> p A \\/ p B /\\ A = B.\n"
        'ship "(induction 0 0 0)".\n')
    a, b = STerm("A"), STerm("B")
    pa, pb = STerm("p", (a,)), STerm("p", (b,))
    # -> is right-associative and binds loosest, then \/, then /\, then =
    assert parse_file(src).decls[-1].statement == SQuant(
        All, ("A", "B"),
        SBin(Imp, SBin(Imp, pa, pb), SBin(Or, pa, SBin(And, pb, SEq(a, b)))))


# -- Clark completion


def _definitions(src: str):
    return elaborate(parse_file(src)).definitions


def test_is_nat_completion_shape():
    d = _definitions(PRELUDE + "Define is_nat : nat -> prop by\n"
                     "  is_nat z ;\n  is_nat (s N) := is_nat N.\n")["is_nat"]
    assert d.arity == 1
    assert d.body == Definition(sym("is_nat"), 1, lambda is_nat: Or(
        Eq(Bound(0), con("z")),
        Ex(And(Eq(Bound(1), con("s", Bound(0))), MuAtom(is_nat, (Bound(0),)))),
    )).body


def test_plus_completion_shape():
    d = _definitions(PRELUDE + "Define plus : nat -> nat -> nat -> prop by\n"
                     "  plus z N N ;\n  plus (s M) N (s P) := plus M N P.\n")["plus"]
    assert d.arity == 3
    base, step = d.body.a, d.body.b
    # base: exists N, (x0 = z /\ x1 = N /\ x2 = N)
    assert isinstance(base, Ex)
    # step: exists M N P, (x0 = s M /\ x1 = N /\ x2 = s P) /\ plus M N P
    assert isinstance(step, Ex) and isinstance(step.body, Ex)


def _atoms(f):
    stack = [f]
    while stack:
        match stack.pop():
            case MuAtom() as a:
                yield a
            case And(a=a, b=b) | Or(a=a, b=b) | Imp(a=a, b=b):
                stack += (a, b)
            case All(body=b) | Ex(body=b):
                stack.append(b)


def test_recursive_atoms_of_an_elaborated_body_are_its_definition():
    defs = _definitions(PRELUDE + "Define is_nat : nat -> prop by\n"
                        "  is_nat z ;\n  is_nat (s N) := is_nat N.\n"
                        "Define half : nat -> nat -> prop by\n  half z z ;\n"
                        "  half (s (s M)) (s N) := is_nat M /\\ half M N.\n")
    for d in defs.values():
        atoms = list(_atoms(d.body))
        assert any(a.defn is d for a in atoms)
        assert all(a.defn is defs[a.defn.name.name] for a in atoms)
    assert {a.defn for a in _atoms(defs["half"].body)} == {defs["is_nat"], defs["half"]}


def test_quantifiers_scope_their_own_names():
    # the same name at two sorts under two binders
    src = PRELUDE + (
        "Kind list type.\nType nil list.\n"
        "Define is_nat : nat -> prop by is_nat z.\n"
        "Define is_list : list -> prop by is_list nil.\n"
        "Theorem t : (forall X, is_nat X -> true) /\\ (forall X, is_list X -> true).\n"
        'ship "(induction 0 0 0)".\n')
    goal = elaborate(parse_file(src)).goals["t"]
    assert isinstance(goal, And) and isinstance(goal.a, All) and isinstance(goal.b, All)


def test_quantified_name_is_not_a_clause_variable():
    el = elaborate(parse_file(PRELUDE + (
        "Define is_nat : nat -> prop by is_nat z.\n"
        "Define q : nat -> prop by q X := exists Y, is_nat Y.\n")))
    is_nat = el.definitions["is_nat"]
    assert el.definitions["q"].body == Ex(And(Eq(Bound(1), Bound(0)),
                                              Ex(MuAtom(is_nat, (Bound(0),)))))


def test_clause_variable_first_met_under_a_quantifier_is_one_variable():
    el = elaborate(parse_file(PRELUDE + (
        "Define le : nat -> nat -> prop by le z N.\n"
        "Define t : nat -> prop by t X := (exists Y, le Y Z) /\\ le X Z.\n"
        "Theorem u : forall X, t X -> exists Y, le Y X.\n"
        'ship "(induction 0 0 0)".\n')))
    le = el.definitions["le"]
    # two outer existentials, X (%bv 1) and Z (%bv 0); the parameter is (%bv 2)
    assert el.definitions["t"].body == Ex(Ex(And(
        Eq(Bound(2), Bound(1)),
        And(Ex(MuAtom(le, (Bound(0), Bound(1)))), MuAtom(le, (Bound(1), Bound(0)))))))
    for d in el.definitions.values():
        assert not any(isinstance(v, EVar) for v in input_vars((), d.body, d))
    for f in el.goals.values():
        assert not any(isinstance(v, EVar) for v in input_vars((), f))


def test_zero_clause_definition_compiles_to_false():
    d = _definitions(PRELUDE + "Define never : nat -> prop.\n")["never"]
    assert d.body == FF


def test_negative_recursion_rejected():
    src = PRELUDE + ("Define bad : nat -> prop by\n"
                     "  bad N := bad N -> false.\n")
    with pytest.raises(ElabError):
        elaborate(parse_file(src))


def test_doubly_negated_recursion_accepted():
    # left of two arrows a recursive call is positive again: the check
    # tracks polarity, not merely the left of a `->`
    src = PRELUDE + ("Define p : nat -> prop by\n"
                     "  p z ;\n  p (s N) := (p N -> false) -> false.\n")
    assert elaborate(parse_file(src)).definitions["p"].arity == 1


def test_clause_order_does_not_change_acceptance():
    flipped = CORPUS.read_text().replace(
        "plus z N N ;\n  plus (s M) N (s P) := plus M N P.",
        "plus (s M) N (s P) := plus M N P ;\n  plus z N N.")
    assert flipped != CORPUS.read_text()
    results = run_session(parse_file(flipped), ResourceLimits(max_steps=1_000_000))
    assert [r.outcome for r in results] == ["ok"] * 5


# -- sessions


def test_corpus_session_all_accepted():
    results = run_session(load_plus(), ResourceLimits(max_steps=1_000_000))
    assert [(r.name, r.outcome) for r in results] == [
        ("plus_total", "ok"), ("plus_determ", "ok"), ("plus0com", "ok"),
        ("plusscom", "ok"), ("pluscom", "ok")]


def test_lemma_table_grows_only_with_accepted_theorems():
    results = run_session(load_plus(), ResourceLimits(max_steps=1_000_000))
    last = results[-1]
    assert [ix.name.name for ix, _ in last.lemmas] == [
        "plus_total", "plus_determ", "plus0com", "plusscom"]


def test_reordering_starves_dependent_theorem():
    src = CORPUS.read_text()
    blocks = src.split("\n\nTheorem ")
    head, thms = blocks[0], ["Theorem " + b.strip() for b in blocks[1:]]
    # move the final theorem (needs the two before it) to the front
    reordered = head + "\n\n" + "\n\n".join([thms[-1]] + thms[:-1]) + "\n"
    results = run_session(parse_file(reordered), ResourceLimits(max_steps=1_000_000))
    by_name = {r.name: r.outcome for r in results}
    assert by_name["pluscom"] == "fail"
    assert by_name["plus0com"] == "ok"


def test_trivially_true_theorem():
    src = PRELUDE + 'Theorem t : z = z.\nship "(induction 0 0 0)".\n'
    [r] = run_session(parse_file(src))
    assert r.outcome == "ok"


def test_bad_ship_string_fails_that_theorem_only():
    src = PRELUDE + ('Theorem t : z = z.\nship "(bogus)".\n'
                     'Theorem u : z = z.\nship "(induction 0 0 0)".\n')
    results = run_session(parse_file(src))
    assert [r.outcome for r in results] == ["fail", "ok"]
    assert "certificate" in results[0].detail


def test_unknown_lemma_in_ship_fails_cleanly():
    src = PRELUDE + 'Theorem t : z = z.\nship "(induction 1 (lemmas ghost) 0 0)".\n'
    [r] = run_session(parse_file(src))
    assert r.outcome == "fail"


def test_stop_on_failure_halts_session():
    src = PRELUDE + ('Theorem t : z = s z.\nship "(induction 0 0 0)".\n'
                     'Theorem u : z = z.\nship "(induction 0 0 0)".\n')
    results = run_session(parse_file(src), stop_on_failure=True)
    assert len(results) == 1
    assert results[0].outcome == "fail"
