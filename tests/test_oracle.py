"""Ground-truth evaluator for ground fixed-point queries."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from outlinecheck import (
    Bound, EVar, MVar, MuAtom, UNKNOWN, elaborate, eval_ground, oracle,
    parse_file,
)

from _util import CORPUS, elab_plus, num


@pytest.fixture(autouse=True)
def cold_cache():
    """Every test starts without saturations left by the tests before it."""
    oracle._SAT_CACHE.clear()


@pytest.fixture(scope="module")
def el():
    return elab_plus()


def _plus(el, a, b, c):
    return MuAtom(el.definitions["plus"], (num(a), num(b), num(c)))


def _is_nat(el, n):
    return MuAtom(el.definitions["is_nat"], (num(n),))


def test_plus_2_3_5_true(el):
    assert eval_ground(el.definitions.values(), _plus(el, 2, 3, 5), 20) is True


def test_plus_2_3_6_false(el):
    assert eval_ground(el.definitions.values(), _plus(el, 2, 3, 6), 20) is False


def test_is_nat_z_true_in_one_round(el):
    assert eval_ground(el.definitions.values(), _is_nat(el, 0), 1) is True


def test_fuel_exhaustion_reports_unknown(el):
    assert eval_ground(el.definitions.values(), _plus(el, 2, 3, 5), 1) is UNKNOWN


_CONNECTIVES = """\
Kind nat type.
Type z nat.
Type s nat -> nat.
Define tt_ff : nat -> prop by
  tt_ff z := true ;
  tt_ff (s N) := false.
Define imp : nat -> nat -> prop by
  imp X Y := X = z -> Y = z.
Define nosucc : nat -> nat -> prop by
  nosucc X Y := forall W, W = s X -> false.
"""


@pytest.mark.parametrize("name, truth", [
    ("tt_ff", lambda a: a == 0),
    ("imp", lambda a, b: a != 0 or b == 0),
    # W ranges over the subterms of the query's arguments, which hold s X
    # exactly when Y is above X
    ("nosucc", lambda a, b: b <= a),
])
def test_true_false_implication_and_forall_bodies(name, truth):
    defs = elaborate(parse_file(_CONNECTIVES)).definitions
    d = defs[name]
    for ns in itertools.product(range(3), repeat=d.arity):
        atom = MuAtom(d, tuple(map(num, ns)))
        assert eval_ground(defs.values(), atom, 10) is truth(*ns), ns


def test_definition_not_given_is_refused(el):
    # plus z (s z) (s z) holds, but no plus facts are derived without plus
    with pytest.raises(ValueError, match="^plus is not among the definitions given$"):
        eval_ground([el.definitions["is_nat"]], _plus(el, 0, 1, 1), 20)
    assert eval_ground(el.definitions.values(), _plus(el, 0, 1, 1), 20) is True


def test_body_calling_a_definition_not_given_is_refused():
    defs = elaborate(parse_file(
        "Kind nat type.\nType z nat.\nType s nat -> nat.\n"
        "Define p : nat -> prop by p z.\n"
        "Define q : nat -> prop by q N := p N.\n")).definitions
    q_z = MuAtom(defs["q"], (num(0),))
    with pytest.raises(ValueError, match="^p is not among the definitions given$"):
        eval_ground([defs["q"]], q_z, 10)
    assert eval_ground(defs.values(), q_z, 10) is True


def test_non_ground_query_rejected(el):
    for var in (MVar(1, 0), EVar(2, 0), Bound(0)):
        bad = MuAtom(el.definitions["is_nat"], (var,))
        with pytest.raises(ValueError):
            eval_ground(el.definitions.values(), bad, 5)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=6))
def test_plus_agrees_with_arithmetic(el, a, b, c):
    expect = (a + b == c)
    assert eval_ground(el.definitions.values(), _plus(el, a, b, c), 40) is expect


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=30))
def test_verdicts_never_flip_with_more_fuel(el, a, b, c, fuel):
    atom = _plus(el, a, b, c)
    defs = el.definitions.values()
    early = eval_ground(defs, atom, fuel)
    late = eval_ground(defs, atom, fuel + 10)
    if early is not UNKNOWN:
        assert late is early


def test_redefined_name_is_not_served_from_cache():
    src = ("Kind nat type.\nType z nat.\nType s nat -> nat.\n"
           "Define plus : nat -> nat -> nat -> prop by\n"
           "  plus z N {base} ;\n  plus (s M) N (s P) := plus M N P.\n")

    def plus_1_1_2(base):
        defs = elaborate(parse_file(src.format(base=base))).definitions
        return eval_ground(defs.values(),
                           MuAtom(defs["plus"], (num(1), num(1), num(2))), 20)

    # same name and universe; only the base clause differs
    assert plus_1_1_2("N") is True
    assert plus_1_1_2("z") is False


def test_cache_keeps_only_the_latest_definition_list():
    text = CORPUS.read_text()
    for i in range(50):
        defs = elaborate(parse_file(
            text.replace("plus", f"plus{i}").replace("is_nat", f"is_nat{i}"))
        ).definitions
        query = MuAtom(defs[f"plus{i}"], (num(1), num(1), num(2)))
        assert eval_ground(defs.values(), query, 20) is True
    last = tuple(defs.values())
    assert oracle._SAT_CACHE
    assert {key[0] for key in oracle._SAT_CACHE} == {tuple(map(id, last))}
    # an entry holds its definitions, so no id in its key can be reused
    assert all(entry[0] == last for entry in oracle._SAT_CACHE.values())
