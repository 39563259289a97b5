"""Binding store: unification, case analysis, and checkpoint discipline."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from outlinecheck import BindingStore, CLASH, OK, STUCK, StaleCheckpointError, con, syntax
from outlinecheck.syntax import App, Bound, EVar, MVar, StructuralError, Term, term_subst_bound

from _util import num


def ev(i, lv=1):
    return EVar(i, lv)


def mv(i, lv=1):
    return MVar(i, lv)


def test_unify_ground_equal():
    b = BindingStore(1)
    assert b.unify(num(3), num(3))
    assert not b.unify(num(3), num(4))


def test_ground_numerals_compare_at_any_depth():
    # equality compares structure off a stack: two 2,000-layer numerals
    # that differ only at the bottom, and the same numeral built twice
    # once the interned instances are forgotten, meet no recursion limit
    for forget in (False, True):
        old = num(2000)
        if forget:
            syntax._GROUND.clear()
        new, short = num(2000), num(1999)
        assert (new is old) is not forget
        assert new == old and old == new and not new != old
        assert new != short and short != new and new != con("s", con("s", short))
        assert BindingStore(1).unify(new, old)
        assert not BindingStore(1).unify(new, short)
        assert not BindingStore(2).unify(con("pair", new, mv(1)), con("pair", short, con("z")))


def test_unify_binds_mvar():
    b = BindingStore(2)
    x = mv(1)
    assert b.unify(x, num(2))
    assert b.resolve(x) == num(2)


def test_resolve_returns_a_term_no_binding_changes_as_it_is():
    # the kernel's induction and _finalize rebuild only what a binding changed
    b = BindingStore(5)
    t = con("pair", con("s", mv(1)), con("pair", ev(2), num(3)))
    assert b.resolve(t) is t
    assert b.resolve(t, {ev(4): num(1)}) is t
    assert b.unify(mv(3), num(2))
    u = con("pair", con("s", mv(1)), mv(3))
    out = b.resolve(u)
    assert out == con("pair", con("s", mv(1)), num(2))
    assert out.args[0] is u.args[0]


def test_unify_occurs_check():
    b = BindingStore(2)
    x = mv(1)
    assert not b.unify(x, con("s", x))


def test_unify_failure_restores_bindings():
    b = BindingStore(3)
    x, y = mv(1), mv(2)
    # s(x) vs s(z) binds x, then z vs s(y) fails; x must be unbound again.
    assert not b.unify(con("pair", x, con("z")), con("pair", con("z"), con("s", y)))
    assert b.resolve(x) == x
    assert b.resolve(y) == y


def test_level_restriction_blocks_deep_eigenvariable():
    # An MVar at level 1 may not capture an EVar from level 2.
    b = BindingStore(3)
    x = mv(1, lv=1)
    deep = ev(2, lv=2)
    assert not b.unify(x, deep)


def test_mark_undo_roundtrip():
    b = BindingStore(2)
    x = mv(1)
    cp = b.mark()
    assert b.unify(x, num(1))
    b.undo(cp)
    assert b.resolve(x) == x


def test_stale_checkpoint_detected():
    b = BindingStore(2)
    cp = b.mark()
    assert b.unify(mv(1), num(1))
    b.undo(cp)
    with pytest.raises(StaleCheckpointError):
        b.undo(cp + 1 if isinstance(cp, int) else cp)


def test_case_split_ok_produces_substitution():
    b = BindingStore(2)
    e = ev(1)
    verdict, sigma = b.unify_case_split(con("s", e), con("s", num(2)))
    assert verdict is OK
    assert sigma == {e: num(2)}


def test_case_split_clash_on_constructors():
    b = BindingStore(1)
    verdict, sigma = b.unify_case_split(con("z"), con("s", num(0)))
    assert verdict is CLASH
    assert sigma is None


def test_case_split_stuck_on_deep_eigenvariable_under_constructor():
    # A metavariable from an outer scope meets s(e) where e is deeper: the
    # binding would escape e's scope, but nothing rigid disagrees either, so
    # no branch may be closed.
    b = BindingStore(3)
    verdict, sigma = b.unify_case_split(mv(1, lv=1), con("s", ev(2, lv=2)))
    assert verdict is STUCK
    assert sigma is None


def test_case_split_eigenvariable_clash_under_constructor():
    # e = s e is cyclic for a rigid eigenvariable: genuinely absurd.
    b = BindingStore(2)
    e = ev(1)
    verdict, _ = b.unify_case_split(e, con("s", e))
    assert verdict is CLASH


# -- the branch substitution: both entry points read eigenvariables through
# the case splits a branch has made, and neither changes the dict they get


def test_unify_reads_through_a_chain_of_the_branch_substitution():
    b = BindingStore(4)
    e1, e2, x = ev(1), ev(2), mv(3)
    sigma = {e1: e2, e2: con("s", num(1))}
    assert b.unify(con("s", e1), num(3), sigma)
    assert not b.unify(e1, num(1), sigma)
    assert b.unify(x, con("pair", e1, e2), sigma)
    # the binding holds the substituted term, for a sibling premise that
    # reads under another substitution
    assert b.bindings[x.id] == con("pair", num(2), num(2))
    assert sigma == {e1: e2, e2: con("s", num(1))}


def test_unify_keeps_scope_through_the_branch_substitution():
    # e1 is at X's level, but it stands for e2, which is deeper
    b = BindingStore(5)
    x = mv(3, lv=1)
    sigma = {ev(1, lv=1): con("s", ev(2, lv=2))}
    assert not b.unify(x, ev(1, lv=1), sigma)
    assert not b.unify(con("s", x), con("s", ev(1, lv=1)), sigma)
    assert b.trail == [] and b.bindings == {}
    # at e2's level the same binding is fine
    assert b.unify(mv(4, lv=2), ev(1, lv=1), sigma)
    assert b.resolve(mv(4, lv=2)) == con("s", ev(2, lv=2))


def test_unify_never_binds_an_eigenvariable():
    b = BindingStore(3)
    e1, e2 = ev(1), ev(2)
    sigma = {e2: num(0)}
    assert not b.unify(e1, num(0), sigma)
    assert not b.unify(num(0), e1, sigma)
    assert not b.unify(e1, e2, sigma)
    assert b.unify(e2, num(0), sigma)
    assert sigma == {e2: num(0)}
    assert b.trail == []


def test_case_split_composes_with_the_incoming_substitution():
    b = BindingStore(4)
    e1, e2, x = ev(1), ev(2), mv(3)
    incoming = {e1: con("s", e2)}
    verdict, sigma = b.unify_case_split(e1, con("s", num(0)), incoming)
    assert verdict is OK
    # triangular: the old assignment stays as it was, the new one is added
    assert sigma == {e1: con("s", e2), e2: num(0)}
    assert incoming == {e1: con("s", e2)}
    assert b.resolve(e1, sigma) == num(1)
    # a metavariable the split binds holds the term under the final sigma
    verdict, sigma2 = b.unify_case_split(con("pair", x, e2), con("pair", e1, num(0)), incoming)
    assert verdict is OK and sigma2 == sigma
    assert b.bindings[x.id] == num(1)
    assert incoming == {e1: con("s", e2)}
    # a clash leaves the incoming dict as it was too
    verdict, _ = b.unify_case_split(e1, num(0), incoming)
    assert verdict is CLASH
    assert incoming == {e1: con("s", e2)}


def _unify_either(b: BindingStore, split: bool, x: Term, y: Term, sigma=None, env=()) -> bool:
    return (b.unify_case_split(x, y, sigma, env)[0] is OK if split
            else b.unify(x, y, sigma, env))


@pytest.mark.parametrize("split", [False, True])
def test_pruning_takes_no_id_an_input_or_binding_holds(split):
    # binding X (level 0) to s(Y) with Y at level 1 prunes Y to a fresh
    # level-0 metavariable: the store's first id, above every id its terms hold
    b = BindingStore(6)
    x = mv(1, lv=0)
    assert _unify_either(b, split, x, con("s", mv(5)))
    out = b.resolve(x)  # no cycle X = s(X), so this terminates
    assert out == con("s", MVar(6, 0))
    assert next(b.ids) == 7
    # a later pruning, after a binding, takes the next id
    b = BindingStore(4)
    assert b.unify(mv(1, lv=0), con("z"))
    assert _unify_either(b, split, mv(2, lv=0), con("s", mv(3)))
    assert b.resolve(mv(2, lv=0)) == con("s", MVar(4, 0))
    assert next(b.ids) == 5
    # the environment holds terms too: Y is read through Bound(0)
    b = BindingStore(4)
    assert _unify_either(b, split, x, con("s", Bound(0)), env=(mv(2), mv(3, lv=0)))
    assert b.bindings[2] == MVar(4, 0)  # read as stored: mv(2) made again would cycle
    assert next(b.ids) == 5


@pytest.mark.parametrize("split", [False, True])
def test_pruning_takes_no_id_the_branch_substitution_holds(split):
    # e2 stands for pair(Y, W), Y deeper than X: pruning Y takes the first
    # id, above the ids sigma's images hold
    b = BindingStore(10)
    x, y, w = mv(1, lv=0), mv(9, lv=1), mv(3, lv=0)
    assert _unify_either(b, split, x, ev(2), {ev(2): con("pair", y, w)})
    assert b.resolve(x) == con("pair", MVar(10, 0), w)
    assert next(b.ids) == 11


def test_case_split_pruning_takes_no_id_the_incoming_substitution_holds():
    # the split reads nothing through ev(2), but its premise goes on under
    # sigma', which maps ev(2) to mv(6): the store counts from above 6
    b = BindingStore(7)
    x = mv(1, lv=0)
    incoming = {ev(2): mv(6, lv=0)}
    verdict, sigma = b.unify_case_split(x, con("s", mv(5)), incoming)
    assert verdict is OK and sigma == incoming
    assert b.resolve(x) == con("s", MVar(7, 0))
    assert next(b.ids) == 8


def test_unify_args_undoes_earlier_arguments_when_a_later_one_clashes():
    b = BindingStore(4)
    z, x, y = mv(1), mv(2), mv(3)
    assert b.unify(z, num(0))
    # x binds, then 1 = 3 clashes: x's binding goes, z's stays
    assert not b.unify_args((x, num(1)), (num(2), num(3)))
    assert b.trail == [1]
    assert b.resolve(x) == x and b.resolve(z) == num(0)
    # on success every argument's binding stays
    assert b.unify_args((x, y), (num(2), con("s", x)))
    assert b.resolve(y) == num(3)


@pytest.mark.parametrize("call", [
    lambda b: b.unify(Bound(1), num(0), None, (num(0),)),
    lambda b: b.unify(con("s", num(0)), con("s", Bound(0))),
    lambda b: b.unify(mv(1), con("s", Bound(1)), None, (num(0),)),
    lambda b: b.unify_args((num(0), Bound(2)), (num(0), num(1)), None, (ev(1), ev(2))),
    lambda b: b.unify_case_split(ev(1), con("s", Bound(1)), None, (num(0),)),
], ids=["head", "argument", "scan", "args", "occurs"])
def test_a_positional_variable_past_the_environment_raises(call):
    b = BindingStore(3)
    with pytest.raises(StructuralError, match="^positional variable reached the unifier$"):
        call(b)


# -- reading under an environment: every entry point, given terms with
# Bound(i) and env, does what it does on the terms built under env


_POOL = (ev(1, 1), ev(2, 2), mv(3, 1), mv(4, 2), mv(5, 0))
_E1, _E2 = _POOL[:2]
_HOLDS_BOTH = (con("pair", _E1, _E2),)  # an environment entry


def _term(draw, leaf, depth: int = 3) -> Term:
    if depth and draw(st.integers(0, 2)):
        head, n = draw(st.sampled_from([("s", 1), ("pair", 2)]))
        return con(head, *(_term(draw, leaf, depth - 1) for _ in range(n)))
    return draw(leaf)


def _variant(draw, t: Term, leaf) -> Term:
    # t's skeleton, cut short here and there, with new leaves: unifying it
    # with t goes deep and binds
    if isinstance(t, App) and t.args and draw(st.integers(0, 2)):
        return App(t.head, tuple(_variant(draw, x, leaf) for x in t.args))
    return draw(leaf)


@st.composite
def _problems(draw):
    var = st.sampled_from(_POOL)
    closed = st.one_of(var, st.just(num(0)))
    env = tuple(_term(draw, closed) for _ in range(draw(st.integers(1, 3))))
    # eigenvariables inside an entry make the occurs check and the scope
    # check read through the environment
    env += _HOLDS_BOTH
    bound = st.one_of(st.just(Bound(len(env) - 1)), st.integers(0, len(env) - 1).map(Bound))
    leaf = st.one_of(var, st.just(num(0)), bound)
    # positional variables weigh more on one side and variables on the
    # other, so that bindings hold what the environment gives
    n = draw(st.integers(1, 3))
    xs = tuple(_term(draw, st.one_of(bound, leaf)) for _ in range(n))
    ys = tuple(_variant(draw, x, st.one_of(var, leaf)) for x in xs)
    if draw(st.booleans()):
        xs, ys = ys, xs
    # a case split made earlier on the branch: ev(1) stands for a term
    # without it
    image = st.one_of(st.sampled_from(_POOL[1:]), st.just(num(0)))
    sigma = {_E1: _term(draw, image)} if draw(st.booleans()) else None
    return env, xs, ys, sigma


@pytest.mark.parametrize("entry", ["unify", "unify_args", "unify_case_split"])
@settings(max_examples=150, deadline=None)
@given(problem=_problems())
# the occurs check, the scope check, a binding and an assignment, each of
# them only through the environment
@example(problem=(_HOLDS_BOTH, (_E1,), (con("s", Bound(0)),), None))
@example(problem=(_HOLDS_BOTH, (mv(3, 1),), (con("s", Bound(0)),), None))
@example(problem=(_HOLDS_BOTH, (mv(4, 2),), (con("s", Bound(0)),), None))
@example(problem=((num(0),), (_E2,), (con("s", Bound(0)),), None))
def test_reading_under_the_environment_is_unifying_the_built_terms(entry, problem):
    env, xs, ys, sigma = problem
    if entry != "unify_args":
        xs, ys = xs[:1], ys[:1]
    built = [tuple(term_subst_bound(t, env, 0) for t in side) for side in (xs, ys)]
    results = []
    for (a, b), e in (((xs, ys), env), (built, ())):
        # as under kernel.check, fresh ids start above every input
        store = BindingStore(len(_POOL) + 1)
        if entry == "unify":
            out = store.unify(a[0], b[0], sigma, e)
        elif entry == "unify_args":
            out = store.unify_args(a, b, sigma, e)
        else:
            out = store.unify_case_split(a[0], b[0], sigma, e)
        results.append((out, store.bindings, store.trail, next(store.ids)))
    assert results[0] == results[1]


# -- randomized checkpoint-replay oracle -------------------------------------
#
# Run a long random sequence of unify / mark / undo operations against the
# real store while replaying the same operations on a pencil-and-paper model
# that re-executes the surviving operations from scratch after every undo.
# The two must agree on every resolution, and a fully unwound store must be
# empty.


def _random_term(rng: random.Random, vars_pool: list[Term], depth: int = 0) -> Term:
    r = rng.random()
    if r < 0.35 and vars_pool:
        return rng.choice(vars_pool)
    if r < 0.55 or depth >= 3:
        return num(rng.randrange(3))
    return con(
        rng.choice(["s", "pair", "node"]),
        *[_random_term(rng, vars_pool, depth + 1) for _ in range(rng.randrange(1, 3))],
    )


def _scratch_replay(ops: list[tuple[Term, Term]]) -> BindingStore:
    b = BindingStore(10_000)  # above the ids of every pool it replays
    for a, c in ops:
        b.unify(a, c)
    return b


def test_randomized_mark_undo_matches_scratch_replay():
    rng = random.Random(20260826)
    store = BindingStore(10_000)
    pool: list[Term] = [mv(1000 + i) for i in range(12)] + [ev(2000 + i) for i in range(4)]
    frames: list[tuple[object, int]] = []  # (checkpoint, surviving-op count)
    ops: list[tuple[Term, Term]] = []      # successful unifications, in order
    for step in range(10_000):
        r = rng.random()
        if r < 0.15:
            frames.append((store.mark(), len(ops)))
        elif r < 0.25 and frames:
            cp, n = frames.pop(rng.randrange(len(frames)))
            # Undoing an older frame invalidates the ones above it.
            frames = [(c, k) for (c, k) in frames if k <= n]
            store.undo(cp)
            del ops[n:]
        else:
            a = _random_term(rng, pool)
            b = _random_term(rng, pool)
            if store.unify(a, b):
                ops.append((a, b))
        if step % 500 == 0:
            model = _scratch_replay(ops)
            for v in pool:
                assert store.resolve(v) == model.resolve(v)
    model = _scratch_replay(ops)
    for v in pool:
        assert store.resolve(v) == model.resolve(v)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_unify_is_symmetric_on_numerals(n, m):
    assert BindingStore(1).unify(num(n), num(m)) == (n == m)
