"""Unification, merging, and the feature-value algebra."""

from fractions import Fraction

import pytest

from souschef import MergeFailure, StructuralError
from souschef.features import (
    Bindings, Compound, MatchResult, Num, PatternUnit, Struct, Sym, Text,
    TransientStructure, Unit, ValueSet, Var, match, merge, normalize_num,
    nums_equal, unify, vars_of,
)

import reference_match


def test_bindings_are_immutable():
    b = Bindings()
    with pytest.raises(AttributeError):
        b.extra = 1


def test_bind_and_walk_chain():
    b = Bindings().bind("a", Var("b")).bind("b", Sym("x"))
    assert b.walk(Var("a")) == Sym("x")
    assert b.substitute(ValueSet([Var("a"), Num(Fraction(1))])) == \
        ValueSet([Sym("x"), Num(Fraction(1))])


def test_substitute_rebuilds_only_what_changes():
    b = Bindings().bind("a", Sym("x"))
    ids = ValueSet([Num(Fraction(1)), Num(Fraction(2))])
    nested = Compound("f", (ids, Struct({"k": Var("z")})), (("w", Sym("y")),))
    for value in (ids, nested, Struct({"k": ids})):
        assert b.substitute(value) is value
    changed = Compound("f", (ids, Var("a")), (("w", Var("a")),))
    got = b.substitute(changed)
    assert got == Compound("f", (ids, Sym("x")), (("w", Sym("x")),))
    assert got.args[0] is ids
    assert b.substitute(Struct({"k": Var("a"), "j": ids})) == \
        Struct({"k": Sym("x"), "j": ids})


def test_bind_occurs_check_rejects_cycles():
    b = Bindings()
    assert b.bind("a", ValueSet([Var("a")])) is None


def test_walk_reports_a_cycle_it_is_handed():
    # bind's occurs check never builds one; a mapping given directly can
    b = Bindings({"a": Var("b"), "b": Var("c"), "c": Var("a")})
    with pytest.raises(StructuralError, match="binding cycle"):
        b.walk(Var("a"))
    assert Bindings({"a": Var("b"), "b": Sym("x")}).walk(Var("a")) == Sym("x")
    # unify walks the bindings it is handed with the same check
    with pytest.raises(StructuralError, match="binding cycle"):
        unify(Compound("f", (Var("a"),), ()), Compound("f", (Sym("x"),), ()), b)


def test_bind_leaves_its_source_unchanged():
    b = Bindings().bind("a", Sym("x"))
    c = b.bind("b", Sym("y"))
    assert len(b) == 1 and b.lookup("b") is None
    assert c.lookup("a") == Sym("x") and c.lookup("b") == Sym("y")


def test_rebinding_raises():
    b = Bindings().bind("a", Sym("x"))
    with pytest.raises(StructuralError):
        b.bind("a", Sym("y"))


def test_unify_variable_binds_target():
    envs = unify(Var("x"), Sym("butter"), Bindings())
    assert len(envs) == 1
    assert envs[0].lookup("x") == Sym("butter")


def test_unify_scalars():
    b = Bindings()
    assert unify(Sym("a"), Sym("a"), b)
    assert not unify(Sym("a"), Sym("b"), b)
    assert unify(Text("hi"), Text("hi"), b)
    assert not unify(Text("hi"), Sym("hi"), b)
    assert unify(Num(Fraction(3)), Num(Fraction(3)), b)
    assert not unify(Num(Fraction(3)), Num(Fraction(4)), b)


def test_unify_numbers_respect_units():
    b = Bindings()
    assert unify(Num(Fraction(1), "kg"), Num(Fraction(1000), "g"), b)
    assert not unify(Num(Fraction(1), "kg"), Num(Fraction(1), "g"), b)
    assert not unify(Num(Fraction(1), "g"), Num(Fraction(1), "minute"), b)


def test_normalize_num_dimensions():
    assert normalize_num(Num(Fraction(2), "tablespoon")) == ("mass", Fraction(34))
    assert normalize_num(Num(Fraction(1), "hour")) == ("time", Fraction(60))
    assert normalize_num(Num(Fraction(7))) == (None, Fraction(7))
    with pytest.raises(StructuralError):
        normalize_num(Num(Fraction(1), "furlong"))
    assert nums_equal(Num(Fraction(5), "g"), Num(Fraction(1), "teaspoon"))


def test_unify_struct_subsumes_superset():
    pattern = Struct([("min", Var("lo"))])
    target = Struct([("min", Num(Fraction(15))), ("max", Num(Fraction(20)))])
    envs = unify(pattern, target, Bindings())
    assert len(envs) == 1
    assert envs[0].lookup("lo") == Num(Fraction(15))
    # the other way around a required field is missing
    assert not unify(target, pattern, Bindings())


def test_unify_value_set_is_subset_matching():
    pattern = ValueSet([Var("x"), Sym("a")])
    target = ValueSet([Sym("a"), Sym("b"), Sym("c")])
    envs = unify(pattern, target, Bindings())
    found = {env.lookup("x") for env in envs}
    assert found == {Sym("b"), Sym("c")}
    # pattern bigger than target cannot embed
    assert not unify(target, ValueSet([Sym("a")]), Bindings())


def test_unify_compound_matches_name_and_arity():
    pat = Compound("meets", (Var("a"), Var("b")), ())
    tgt = Compound("meets", (Sym("t0"), Sym("t1")), ())
    envs = unify(pat, tgt, Bindings())
    assert len(envs) == 1
    assert envs[0].lookup("a") == Sym("t0")
    assert not unify(pat, Compound("lb", (Sym("t0"), Sym("t1")), ()), Bindings())
    assert not unify(pat, Compound("meets", (Sym("t0"),), ()), Bindings())


def test_vars_of_walks_nested_values():
    value = Struct([("items", ValueSet([Var("a"), Num(Fraction(1))])),
                    ("unit", Var("b"))])
    assert vars_of(value) == {"a", "b"}


def _ts(*units):
    return TransientStructure((Unit("root"),) + units)


def test_merge_unions_value_sets_and_keeps_scalars():
    ts = _ts(Unit("u1", (("meaning", ValueSet([Sym("old")])),
                         ("cat", Sym("food")))))
    contribution = [PatternUnit(Sym("u1"),
                                (("meaning", ValueSet([Sym("new")])),
                                 ("cat", Sym("food"))))]
    unit = merge(contribution, ts, Bindings()).unit("u1")
    assert unit.get("meaning") == ValueSet([Sym("old"), Sym("new")])
    assert unit.get("cat") == Sym("food")
    # the input structure is untouched
    assert ts.unit("u1").get("meaning") == ValueSet([Sym("old")])


def test_merge_conflicting_scalar_fails():
    ts = _ts(Unit("u1", (("cat", Sym("food")),)))
    contribution = [PatternUnit(Sym("u1"), (("cat", Sym("tool")),))]
    with pytest.raises(MergeFailure):
        merge(contribution, ts, Bindings())


def test_merge_unnamed_contributing_unit_raises():
    # comprehension names every unit a contribution writes before merging
    contribution = [PatternUnit(Var("np"), (("cat", Sym("food")),))]
    with pytest.raises(StructuralError):
        merge(contribution, _ts(), Bindings())
    with pytest.raises(StructuralError):
        merge(contribution, _ts(), Bindings({"np": Var("np~1")}))
    named = merge(contribution, _ts(), Bindings({"np": Sym("unit-np~1")}))
    assert named.unit("unit-np~1").get("cat") == Sym("food")


def test_match_binds_unit_and_reports_touched_tokens():
    root = Unit("root", (("form", ValueSet([
        Compound("string", (Sym("t0-mix"), Text("mix")), ()),
        Compound("string", (Sym("t1-it"), Text("it")), ()),
    ])),))
    ts = TransientStructure((root,))
    pattern = [PatternUnit(Var("t"), (("form", ValueSet([
        Compound("string", (Var("t"), Text("mix")), ()),
    ])),))]
    results = match(pattern, ts)
    assert len(results) == 1
    assert isinstance(results[0], MatchResult)
    assert results[0].bindings.lookup("t") == Sym("t0-mix")
    assert results[0].touched_tokens == frozenset({"t0-mix"})


def test_match_requires_every_unit():
    root = Unit("root", (("form", ValueSet([
        Compound("string", (Sym("t0-mix"), Text("mix")), ()),
    ])),))
    ts = TransientStructure((root,))
    pattern = [
        PatternUnit(Var("w"), (("form", ValueSet([
            Compound("string", (Var("w"), Text("mix")), ())])),)),
        PatternUnit(Var("v"), (("lex-class", Sym("noun")),)),
    ]
    assert match(pattern[:1], ts)  # the token unit alone matches
    assert match(pattern, ts) == []


def test_value_set_match_screens_targets_like_unify():
    # the index screen before each fact trial must keep exactly unify's
    # results
    def f(name, *args):
        return Compound(name, args, ())

    facts = ValueSet([
        f("string", Sym("t0-beat"), Text("beat")),
        f("lemma", Sym("t0-beat"), Text("beat")),
        f("string", Sym("t1-it"), Text("it")),
        f("meets", Sym("t0-beat"), Sym("t1-it")),
        f("meets", Sym("t1-it"), Sym("t0-beat")),
        f("string", Sym("t2-beat"), Text("beat"), Sym("extra")),
        f("string", Sym("t3-sym"), Sym("beat")),
        f("string", Sym("t4-var"), Var("w")),
    ])
    bound = Bindings().bind("a", Sym("t0-beat"))
    patterns = [
        f("string", Var("t"), Text("beat")),
        f("string", Var("t"), Var("w2")),
        f("meets", Var("a"), Var("b")),
        f("meets", Var("b"), Var("a")),
        f("string", Var("a"), Text("it")),
        f("lemma", Var("a"), Var("w3")),
        Var("whole"),
    ]
    for p in patterns:
        reference = []
        for t in facts:
            for env in unify(p, t, bound):
                if env not in reference:
                    reference.append(env)
        assert unify(ValueSet([p]), facts, bound) == reference, p
    # a token unit's form facts, screened through the root's index, match
    # as the interpretive matcher's do, and unify as its unify does
    ts = TransientStructure((Unit("root", (("form", facts),)),))
    for p in patterns[:-1]:
        for q in patterns[:-1]:
            pair = ValueSet([p, q])
            assert unify(pair, facts, bound) == \
                reference_match.unify(pair, facts, bound), (p, q)
            unit = [PatternUnit(Var("t"), (("form", pair),))]
            assert match(unit, ts) == reference_match.match(unit, ts), (p, q)


def test_value_set_subset_keeps_bindings_that_differ_by_type():
    # Sym("1") and Num(1) print alike but are different values
    envs = unify(ValueSet([Var("x")]), ValueSet([Sym("1"), Num(Fraction(1))]),
                 Bindings())
    assert [e.lookup("x") for e in envs] == [Sym("1"), Num(Fraction(1))]


def test_value_set_equality_follows_member_equality():
    def f(*args):
        return Compound("f", args, ())

    assert ValueSet([f(Sym("1"))]) != ValueSet([f(Num(Fraction(1)))])
    ab = Struct([("a", Sym("x")), ("b", Sym("y"))])
    ba = Struct([("b", Sym("y")), ("a", Sym("x"))])
    assert ab == ba
    assert ValueSet([ab]) == ValueSet([ba])
    assert hash(ValueSet([ab])) == hash(ValueSet([ba]))
    assert len(ValueSet([ab, ba])) == 1


def _same_as_reference(pattern, ts) -> list:
    """match's results, checked against the interpretive matcher's."""
    results = match(pattern, ts)
    assert results == reference_match.match(pattern, ts)
    return results


def _bound(results, name) -> list:
    return [r.bindings.lookup(name) for r in results]


def test_match_compares_numbers_after_unit_normalisation():
    ts = _ts(Unit("u1", (("mass", Num(Fraction(1000), "g")),)),
             Unit("u2", (("mass", Num(Fraction(1), "g")),)))
    pattern = [PatternUnit(Var("u"), (("mass", Num(Fraction(1), "kg")),))]
    assert _bound(_same_as_reference(pattern, ts), "u") == [Sym("u1")]


def test_match_takes_value_set_members_to_distinct_targets():
    ts = _ts(Unit("u1", (("ids", ValueSet([Sym("a"), Sym("b"), Sym("c")])),)))
    pair = [PatternUnit(Var("u"), (("ids", ValueSet([Var("x"), Var("y")])),))]
    results = _same_as_reference(pair, ts)
    assert [(r.bindings.lookup("x").name, r.bindings.lookup("y").name)
            for r in results] == [("a", "b"), ("a", "c"), ("b", "a"),
                                  ("b", "c"), ("c", "a"), ("c", "b")]
    # a literal member takes its own target, so ?x cannot reuse it
    single = _ts(Unit("u1", (("ids", ValueSet([Sym("a")])),)))
    with_literal = [PatternUnit(Var("u"), (
        ("ids", ValueSet([Var("x"), Sym("a")])),))]
    assert _same_as_reference(with_literal, single) == []


def test_match_reads_a_struct_as_a_superset():
    range_value = Struct([("min", Num(Fraction(15))), ("max", Num(Fraction(20)))])
    ts = _ts(Unit("u1", (("value", range_value),)))
    low = [PatternUnit(Var("u"), (("value", Struct([("min", Var("lo"))])),))]
    assert _bound(_same_as_reference(low, ts), "lo") == [Num(Fraction(15))]
    other = [PatternUnit(Var("u"), (("value", Struct([("mid", Var("m"))])),))]
    assert _same_as_reference(other, ts) == []


def test_match_binds_a_state_variable_when_it_is_met_again():
    # ?x takes u1's state variable ?r~1; meeting ?x again binds ?r~1
    ts = _ts(Unit("u1", (("referent", Var("r~1")), ("mark", Sym("one")))),
             Unit("u2", (("referent", Sym("bowl")),)),
             Unit("u3", (("referent", Compound("f", (Var("r~1"),), ())),)))
    pattern = [PatternUnit(Var("a"), (("referent", Var("x")),
                                      ("mark", Sym("one")))),
               PatternUnit(Var("b"), (("referent", Var("x")),))]
    results = _same_as_reference(pattern, ts)
    envs = [dict(r.bindings.items()) for r in results]
    assert {"a": Sym("u1"), "x": Var("r~1"), "b": Sym("u2"),
            "r~1": Sym("bowl")} in envs
    # u1 itself is used, and u3 would bind ?r~1 to a term holding it
    assert _bound(results, "b") == [Sym("u2")]


def test_match_drops_a_match_an_absent_group_finds():
    def f(name, *args):
        return Compound(name, args, ())

    root = Unit("root", (("form", ValueSet([
        f("string", Sym("t0-the"), Text("the")),
        f("string", Sym("t1-butter"), Text("butter")),
        f("string", Sym("t2-sugar"), Text("sugar")),
        f("meets", Sym("t0-the"), Sym("t1-butter")),
        f("meets", Sym("t1-butter"), Sym("t2-sugar")),
    ])),))
    ts = TransientStructure((root,))
    after_no_the = [PatternUnit(Var("t"), (("form", ValueSet([
        f("string", Var("t"), Var("w")),
        Compound("absent", (f("string", Var("d"), Text("the")),
                            f("meets", Var("d"), Var("t"))), ()),
    ])),))]
    results = _same_as_reference(after_no_the, ts)
    # t1-butter follows "the"; ?d is local to the group and binds nothing
    assert _bound(results, "t") == [Sym("t0-the"), Sym("t2-sugar")]
    assert _bound(results, "d") == [None, None]


def test_match_guard_equals_two_pattern_variables():
    ts = _ts(Unit("u1", (("p", Sym("a")), ("q", Sym("a")))),
             Unit("u2", (("p", Sym("a")), ("q", Sym("b")))),
             Unit("u3", (("p", ValueSet([Sym("a")])),
                         ("q", ValueSet([Sym("a"), Sym("b")])))))
    pattern = [PatternUnit(Var("u"), (
        ("p", Var("a")), ("q", Var("b")),
        ("guard", ValueSet([Compound("equals", (Var("a"), Var("b")), ())])),
    ))]
    # ?a's value must subsume ?b's: equal symbols, or a subset
    assert _bound(_same_as_reference(pattern, ts), "u") == \
        [Sym("u1"), Sym("u3")]
