"""Terms, formulas, substitution and invariant application."""

from __future__ import annotations

import ast
import pathlib
import sys

import pytest
from hypothesis import given, strategies as st

from outlinecheck import (
    FF,
    TT,
    Accepted,
    All,
    And,
    App,
    Bound,
    Definition,
    EVar,
    Eq,
    Ex,
    FrozenInstanceError,
    Hyp,
    Imp,
    LemmaName,
    MVar,
    MuAtom,
    Or,
    ResourceLimits,
    TraceFormatError,
    con,
    instantiate,
    run_session,
    sym,
    synthesize_obvious_invariants,
    trace_from_lines,
    trace_to_lines,
    verify_trace,
)
from outlinecheck import syntax
from outlinecheck.syntax import (
    body_with_invariant,
    close_term,
    index_from_sexp,
    int_from_sexp,
    map_terms,
    parse_sexp,
    term_from_sexp,
    term_subst_bound,
)

from _util import check_outline, elab_plus, load_plus, num


def test_sym_interning():
    assert sym("plus") is sym("plus")
    assert sym("plus") is not sym("plusx")


def test_fresh_vars_are_distinct():
    a, b = EVar(1, 1), EVar(2, 1)
    assert a != b
    assert MVar(3, 2).level == 2
    # the two kinds never meet, even with equal fields
    assert EVar(1, 1) != MVar(1, 1)


def test_an_evar_and_an_mvar_of_one_id_share_a_hash_and_stay_apart():
    e, m = EVar(3, 1), MVar(3, 1)
    assert hash(e) == hash(m)
    assert e != m and m != e and not e == m
    assert len({e, m}) == 2
    assert {e: "e", m: "m"}[e] == "e" and {e: "e", m: "m"}[MVar(3, 1)] == "m"
    # equality still compares the level
    assert EVar(3, 1) == e and EVar(3, 2) != e


def test_open_binder_substitutes_innermost():
    f = All(Ex(Eq(Bound(0), Bound(1))))
    e = EVar(1, 1)
    opened = instantiate(f.body, (e,))
    assert opened == Ex(Eq(Bound(0), e))


def test_term_subst_shifts_higher_indices_down():
    # Under one removed binder, references above the cut drop by one.
    t = con("s", Bound(0), Bound(1))
    assert term_subst_bound(t, (con("z"),), 0) == con("s", con("z"), Bound(0))


def test_term_subst_lifts_args_under_binders():
    # An argument mentioning positional variables must be raised past the
    # binders it is pushed under, not captured by them.
    # Under the All, parameter 0 is Bound(1); inside the Ex it is Bound(2).
    inv = All(Ex(Eq(Bound(2), Bound(0))))
    f = instantiate(inv, (Bound(2),))
    assert f == All(Ex(Eq(Bound(4), Bound(0))))


def test_apply_invariant_under_own_binders():
    # Invariant with parameters x0 x1, body forall w. x0 = x1.
    inv = All(Eq(Bound(1), Bound(2)))
    a, b = EVar(1, 1), EVar(2, 1)
    assert instantiate(inv, (a, b)) == All(Eq(a, b))


def test_apply_invariant_with_positional_args():
    # Arguments that are themselves positional variables (as happens when
    # an invariant replaces a recursive call inside a definition body whose
    # clause variables are still bound) must come out referring to the same
    # binders after passing under the invariant's own quantifier.
    inv = All(Eq(Bound(1), Bound(0)))
    out = instantiate(inv, (Bound(4),))
    assert out == All(Eq(Bound(5), Bound(0)))


def _is_nat() -> Definition:
    #  is_nat x := x = z \/ exists n, x = s n /\ is_nat n
    return Definition(sym("is_nat"), 1, lambda is_nat: Or(
        Eq(Bound(0), con("z")),
        Ex(And(Eq(Bound(1), con("s", Bound(0))), MuAtom(is_nat, (Bound(0),)))),
    ))


def test_recursive_atoms_of_a_built_body_are_the_definition():
    d = _is_nat()
    assert d.body.b.body.b.defn is d
    atom = instantiate(d.body, (num(2),)).b.body.b
    assert atom == MuAtom(d, (Bound(0),)) and atom.defn is d


@pytest.mark.parametrize("make_body, what", [
    (lambda p: con("z"), "z"),
    (lambda p: Or(TT, p), "<def p/1>"),
], ids=["term", "definition"])
def test_body_that_is_no_formula_raises_when_built(make_body, what):
    with pytest.raises(TypeError, match=f"^not a formula: {what}$"):
        Definition(sym("p"), 1, make_body)


def test_unfold_mu_ground():
    d = _is_nat()
    two = num(2)
    f = instantiate(d.body, (two,))
    assert f == Or(
        Eq(two, con("z")),
        Ex(And(Eq(two, con("s", Bound(0))), MuAtom(d, (Bound(0),)))),
    )


def test_body_with_invariant_replaces_recursive_calls():
    d = _is_nat()
    inv = Eq(Bound(0), Bound(0))
    f = instantiate(body_with_invariant(d, inv), (con("z"),))
    assert f == Or(
        Eq(con("z"), con("z")),
        Ex(And(Eq(con("z"), con("s", Bound(0))), Eq(Bound(0), Bound(0)))),
    )


def test_body_with_invariant_invariant_binders_do_not_capture():
    # The recursive call sits under the clause's existential binder, and the
    # invariant adds a universal binder of its own: the call's argument must
    # still refer to the existential binder afterwards.
    d = _is_nat()
    inv = All(Eq(Bound(1), Bound(0)))
    f = instantiate(body_with_invariant(d, inv), (con("z"),))
    second = f.b.body.b  # inside Ex, right conjunct
    assert second == All(Eq(Bound(1), Bound(0)))


def test_synthesis_parameters_avoid_the_sequent_eigenvariables():
    # the parameter for the target (%ev 1 0) must not be (%ev 1 0) itself,
    # which the invariant abstracts as one of the sequent's eigenvariables
    goal = Eq(EVar(1, 0), EVar(2, 0))
    want = "(all (all (imp (eq (%bv 2) (%bv 1)) (eq (%bv 1) (%bv 0)))))"
    for _ in range(2):
        folded, bare = synthesize_obvious_invariants((), (EVar(1, 0),), goal)
        assert (repr(folded), bare) == (want, None)


def test_synthesis_slots_are_fixed():
    # a hypothesis holding a metavariable empties the folded slot 0 and
    # leaves the bare invariant in slot 1; once the metavariable is a term,
    # both slots fill and slot 1 holds the same bare invariant
    p = Definition(sym("p"), 2, lambda _: TT)
    target, goal = (EVar(1, 1),), MuAtom(p, (EVar(1, 1), EVar(2, 1)))
    slots = synthesize_obvious_invariants(
        ((Hyp(1), MuAtom(p, (EVar(2, 1), MVar(3, 1)))),), target, goal)
    assert slots[0] is None and slots[1] is not None
    folded, bare = synthesize_obvious_invariants(
        ((Hyp(1), MuAtom(p, (EVar(2, 1), con("z")))),), target, goal)
    assert bare == slots[1]
    assert folded is not None and folded != bare


def test_close_formula_abstracts_eigenvariables():
    a, b = EVar(1, 1), EVar(2, 2)
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
    plus = Definition(sym("plus"), 3, lambda _: TT)
    assert repr(EVar(3, 1)) == "(%ev 3 1)"
    assert repr(MVar(4, 0)) == "(%mv 4 0)"
    assert repr(Bound(0)) == "(%bv 0)"
    assert repr(con("s", con("z"))) == "(s z)"
    assert repr(MuAtom(plus, (con("z"),) * 3)) == "(mu plus z z z)"
    assert repr(Imp(All(Eq(Bound(0), con("z"))), Ex(Or(TT, FF)))) == (
        "(imp (all (eq (%bv 0) z)) (ex (or tt ff)))")
    assert repr(And(TT, TT)) == "(and tt tt)"
    assert repr(Hyp(2)) == "(hyp 2)"
    assert repr(LemmaName(sym("plus_total"))) == "(lemma plus_total)"


_NAMES = st.sampled_from(["z", "s", "cons", "pair"])
_NUMS = st.integers(min_value=0, max_value=99)

_terms = st.recursive(
    st.one_of(st.builds(EVar, _NUMS, _NUMS), st.builds(MVar, _NUMS, _NUMS),
              st.builds(Bound, _NUMS), _NAMES.map(lambda n: App(sym(n)))),
    lambda kids: st.builds(lambda n, ts: App(sym(n), tuple(ts)),
                           _NAMES, st.lists(kids, min_size=1, max_size=3)),
    max_leaves=8)
_indices = st.one_of(st.builds(Hyp, _NUMS), _NAMES.map(lambda n: LemmaName(sym(n))))


@given(_terms, _indices, st.integers())
def test_readers_invert_reprs(t, ix, n):
    assert term_from_sexp(parse_sexp(repr(t))) == t
    assert index_from_sexp(parse_sexp(repr(ix))) == ix
    assert int_from_sexp(repr(n)) == n


@pytest.mark.parametrize("spelling", ["01", "+1", "1_0", "\u0663", "-0", "1.0", "(1)"])
def test_integers_spelled_otherwise_are_refused(spelling):
    # int() takes the first five; the writer prints none of these
    with pytest.raises(TraceFormatError, match="expected an integer"):
        int_from_sexp(parse_sexp(spelling))
    with pytest.raises(TraceFormatError):
        index_from_sexp(parse_sexp(f"(hyp {spelling})"))


# -- term representation: cached flags, shared ground terms


def _check_flags(t) -> tuple[bool, bool]:
    """closed and ground recomputed from scratch, checked at every node."""
    if isinstance(t, App):
        kids = [_check_flags(x) for x in t.args]
        flags = (all(c for c, _ in kids), all(g for _, g in kids))
    else:
        flags = (not isinstance(t, Bound), False)
    assert (t.closed, t.ground) == flags, t
    return flags


@given(_terms)
def test_flags_match_a_fresh_recomputation(t):
    _check_flags(t)


def test_equal_ground_terms_are_one_object():
    assert num(5) is num(5)
    assert con("pair", num(1), con("z")) is con("pair", num(1), con("z"))
    for build in (lambda: con("s", EVar(7, 0)), lambda: con("s", MVar(7, 0)),
                  lambda: con("pair", num(2), Bound(0))):
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)


def test_equality_does_not_rely_on_sharing():
    old = num(3)
    syntax._GROUND.clear()  # later builds no longer meet the old instances
    new = num(3)
    assert new is not old and new == old and hash(new) == hash(old)
    assert new != num(4) and con("s", new) == num(4)


# -- property: instantiate means what a term map over the formula means

_p2 = Definition(sym("p"), 2, lambda _: TT)
_open_terms = st.recursive(
    st.one_of(st.builds(Bound, st.integers(min_value=0, max_value=4)),
              st.builds(EVar, _NUMS, _NUMS), _NAMES.map(lambda n: App(sym(n)))),
    lambda kids: st.builds(lambda n, ts: App(sym(n), tuple(ts)),
                           _NAMES, st.lists(kids, min_size=1, max_size=2)),
    max_leaves=4)
_open_formulas = st.recursive(
    st.one_of(st.just(TT), st.just(FF), st.builds(Eq, _open_terms, _open_terms),
              st.builds(lambda a, b: MuAtom(_p2, (a, b)), _open_terms, _open_terms)),
    lambda kids: st.one_of(*(st.builds(c, kids, kids) for c in (And, Or, Imp)),
                           *(st.builds(c, kids) for c in (All, Ex))),
    max_leaves=6)


def _instantiate_by_term_map(f, args):
    """Reference: instantiate as a rewrite of every term of f."""
    return map_terms(f, lambda t, d: t if t.closed else term_subst_bound(t, args, d))


@given(_open_formulas, st.lists(_open_terms, max_size=3).map(tuple))
def test_instantiate_agrees_with_a_term_map(f, args):
    assert instantiate(f, args) == _instantiate_by_term_map(f, args)
    # every Bound(i) of f is at most 4, so under five arguments none stays
    # free; a formula with no free Bound comes back as it is, and so does
    # each part of one that is left unchanged
    closed = instantiate(f, tuple(num(i) for i in range(5)))
    assert instantiate(closed, args) is closed
    pair = instantiate(And(closed, f), args)
    assert pair.a is closed and pair.b == _instantiate_by_term_map(f, args)


@given(_open_formulas)
def test_map_terms_returns_what_it_leaves_alone_as_it_is(f):
    # a case split or a resolve rebuilds only the formulas it changes
    assert map_terms(f, lambda t, _: t) is f
    closed = instantiate(f, tuple(num(i) for i in range(5)))
    pair = _instantiate_by_term_map(And(closed, f), (num(7),))
    assert pair.a is closed and pair.b == instantiate(f, (num(7),))


_ground_terms = st.recursive(
    _NAMES.map(lambda n: App(sym(n))),
    lambda kids: st.builds(lambda n, ts: App(sym(n), tuple(ts)),
                           _NAMES, st.lists(kids, min_size=1, max_size=3)),
    max_leaves=8)


def _spell(t) -> str:
    """Reference printer: a ground term's trace spelling, from scratch."""
    if not t.args:
        return t.head.name
    return "(" + " ".join([t.head.name] + [_spell(x) for x in t.args]) + ")"


def _rebuild(t):
    return App(t.head, tuple(_rebuild(x) for x in t.args))


@given(_ground_terms, st.booleans())
def test_kept_printed_form_matches_a_fresh_spelling(t, print_first):
    if print_first:
        assert repr(t) == _spell(t)
    syntax._GROUND.clear()  # the rebuilt term shares no node with t
    u = _rebuild(t)
    for term in (u, con("pair", t, u), t):
        assert repr(term) == _spell(term)
        assert repr(term) is repr(term)  # kept, not spelled again


def test_deep_terms_print_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() == 1000
    t = num(3000)
    assert repr(t) == "(s " * 3000 + "z" + ")" * 3000
    assert repr(t) is repr(t)
    # every ground subterm keeps its printed form; a term over a variable
    # is spelled afresh, around the kept forms of its ground parts
    assert t.args[0]._repr == "(s " * 2999 + "z" + ")" * 2999
    u = MVar(1, 0)
    for _ in range(3000):
        u = con("pair", u, num(1))
    assert repr(u) == "(pair " * 3000 + "(%mv 1 0)" + " (s z))" * 3000


def test_deep_formulas_print_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() == 1000
    p = Definition(sym("p"), 1, lambda _: TT)
    f = MuAtom(p, (num(3000),))
    for _ in range(1000):
        f = All(Or(Eq(Bound(0), con("z")), Imp(TT, Ex(And(f, FF)))))
    assert repr(f) == (
        "(all (or (eq (%bv 0) z) (imp tt (ex (and " * 1000
        + "(mu p " + repr(num(3000)) + ")" + " ff)))))" * 1000)


def test_terms_cannot_be_assigned():
    t = con("s", con("z"))
    with pytest.raises(FrozenInstanceError):
        t.head = sym("z")
    with pytest.raises(FrozenInstanceError):
        t.ground = False
    with pytest.raises(FrozenInstanceError):
        del t.args
    assert t == con("s", con("z")) and t.ground


@pytest.mark.parametrize("rec, field", [
    (Eq(con("z"), con("z")), "l"), (And(TT, FF), "b"), (All(TT), "body"), (EVar(1, 0), "id"),
    (Hyp(1), "serial"), (LemmaName(sym("l")), "name"), (ResourceLimits(), "max_steps")])
def test_records_cannot_be_assigned(rec, field):
    before = getattr(rec, field)
    with pytest.raises(FrozenInstanceError):
        setattr(rec, field, None)
    with pytest.raises(FrozenInstanceError):
        delattr(rec, field)
    assert getattr(rec, field) is before


def test_records_compare_by_class_and_fields():
    assert And(TT, FF) == And(TT, FF) and hash(And(TT, FF)) == hash(And(TT, FF))
    assert And(TT, FF) != Or(TT, FF) and All(TT) != Ex(TT) and Hyp(1) != Hyp(2)
    assert ResourceLimits(max_steps=5) == ResourceLimits(5) != ResourceLimits()
    assert repr(ResourceLimits(5)) == "ResourceLimits(max_steps=5)"
    assert len({Hyp(1), Hyp(1), LemmaName(sym("l"))}) == 2
    assert Accepted(None, steps=2) == Accepted(trace=None, steps=2)
    for args, kw in [((None,), {}), ((None, 1, 2), {}), ((None, 1), {"steps": 1}),
                     ((None,), {"stps": 1})]:
        with pytest.raises(TypeError):
            Accepted(*args, **kw)


def _record_classes(cls=syntax.Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_classes(sub)


def test_every_record_class_builds_one_way():
    # every class whose __init__ is made from its fields: positional and
    # keyword construction agree, a wrong field set names the class that
    # made the __init__, and fields cannot be assigned
    made = 0
    for cls in _record_classes():
        init = cls.__init__
        if getattr(init, "__code__", None) is None or init.__code__.co_filename != "<string>":
            continue
        made += 1
        names = cls.__match_args__
        owner = next(c for c in cls.__mro__ if "__init__" in c.__dict__).__qualname__
        assert init.__qualname__ == f"{owner}.__init__"
        values = tuple(range(1, len(names) + 1))
        a, b = cls(*values), cls(**dict(zip(names, values)))
        assert a == b and hash(a) == hash(b) and a.__class__ is cls
        required = len(names) - len(init.__defaults__ or ())
        wrong = [(values, {"nofield": 0}), (values + (0,), {})]
        if required:
            wrong.append((values[:required - 1], {}))
        for args, kw in wrong:
            with pytest.raises(TypeError, match=rf"^{owner}\.__init__\(\)"):
                cls(*args, **kw)
        with pytest.raises(FrozenInstanceError):
            setattr(a, names[0], 0)
    assert made >= 30


def test_records_write_no_field_setting_init():
    # a record's __init__ is made from its fields; one written by hand must
    # do more than set them, so a second way to build a record cannot grow
    # back
    src = pathlib.Path(syntax.__file__).resolve().parent
    records = {cls.__name__ for cls in _record_classes()}

    def sets_a_field(st):
        if isinstance(st, ast.Expr) and isinstance(st.value, ast.Constant):
            return True  # a docstring
        f = st.value.func if isinstance(st, ast.Expr) and isinstance(st.value, ast.Call) else None
        return (isinstance(f, ast.Name) and f.id == "_set"
                or isinstance(f, ast.Attribute) and f.attr == "__init__"
                and isinstance(f.value, ast.Call) and isinstance(f.value.func, ast.Name)
                and f.value.func.id == "super")

    written = []
    for path in sorted(src.glob("*.py")):
        for c in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(c, ast.ClassDef) or c.name not in records:
                continue
            for fn in c.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    written.append(c.name)
                    assert not all(map(sets_a_field, fn.body)), (path.name, fn.lineno)
    assert written == ["Definition"]


def test_first_hash_of_a_deep_term_with_a_variable_does_not_recurse():
    # a term with a variable is not interned, so nothing hashed it as it
    # was built: its first hash fills the applications below it first
    assert sys.getrecursionlimit() == 1000

    def deep():
        u = MVar(1, 0)
        for _ in range(3000):
            u = con("s", u)
        return u

    u, v = deep(), deep()
    assert u is not v and hash(u) == hash(v) and u == v
    assert len({u, v, con("s", u)}) == 2
    w = MVar(1, 0)
    for _ in range(100):
        w = con("pair", w, w)  # 2**100 paths, 101 applications: each is hashed once
    assert hash(w) == w._hash


def _deep_trace(n: int):
    el = elab_plus()
    goal = MuAtom(el.definitions["plus"], (num(n), num(1), num(n + 1)))
    res = check_outline(el, goal, f"(induction 0 0 {n + 2})")
    assert isinstance(res, Accepted)
    return goal, trace_to_lines(res.trace)


def test_numeral_tampered_by_one_s_is_rejected():
    goal, lines = _deep_trace(6)
    tampered = 0
    for i, line in enumerate(lines):
        if "(s z)" not in line:
            continue
        bad = lines[:i] + [line.replace("(s z)", "(s (s z))", 1)] + lines[i + 1:]
        assert not verify_trace((), goal, trace_from_lines(bad)), i
        tampered += 1
    assert tampered > 10
    assert verify_trace((), goal, trace_from_lines(lines))


def _terms_of(node):
    """Every subterm of every record's term field."""
    out = []

    def collect(t):
        out.append(t)
        for x in getattr(t, "args", ()):
            collect(x)

    for n in node.walk():
        if n.term is not None:
            collect(n.term)
    return out


def test_read_trace_spells_each_term_once():
    # within one read, a term that several records spell is one object:
    # ground numerals, and non-ground terms over the same eigenvariables
    _, lines = _deep_trace(12)
    assert sum(f" {num(1)!r} nil nil nil)" in ln for ln in lines) > 5
    traces = [lines] + [trace_to_lines(r.trace) for r in run_session(
        load_plus(), ResourceLimits(max_steps=1_000_000))]
    for tr in traces:
        by_spelling: dict[str, set[int]] = {}
        for t in _terms_of(trace_from_lines(tr)):
            by_spelling.setdefault(repr(t), set()).add(id(t))
        assert all(len(ids) == 1 for ids in by_spelling.values())
