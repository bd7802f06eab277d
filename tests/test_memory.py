"""Ontology lookups, discourse memory, and procedural attachments."""

from fractions import Fraction

import pytest

from souschef import InputError, Ontology, UnknownConceptError, advance_plot, resolve_entity
from souschef.features import FAILURE, Num, Struct, Sym, Text
from souschef.memory import (
    AccessibleEntity, PersonalDynamicMemory, make_registry, parse_number_text,
)


def test_is_a_walks_transitively(ontology):
    assert ontology.is_a("white-sugar", "sugar")
    assert ontology.is_a("white-sugar", "food")
    assert ontology.is_a("white-sugar", "white-sugar")
    assert not ontology.is_a("white-sugar", "flour")
    assert not ontology.is_a("nonsense", "food")


def test_feature_lookup_inherits_from_ancestors(ontology):
    assert ontology.feature("dough", "baked-form") == "cookie"
    assert ontology.feature("butter", "preferred-container") == "medium-bowl"
    assert ontology.feature("beat", "default-tool") == "mixer"
    with pytest.raises(UnknownConceptError):
        ontology.lookup("no-such-concept")


def test_ontology_rejects_unknown_parent_and_cycles():
    with pytest.raises(InputError):
        Ontology({"a": {"is-a": ["ghost"]}})
    with pytest.raises(InputError, match="is-a cycle through a: a -> b -> a"):
        Ontology({"a": {"is-a": ["b"]}, "b": {"is-a": ["a"]}})
    with pytest.raises(InputError, match="is-a cycle through c: b -> c -> c"):
        Ontology({"a": {}, "b": {"is-a": ["a", "c"]}, "c": {"is-a": ["c"]}})


def test_lookup_merges_a_diamond_in_walk_order():
    # d reaches a through b and c; a merges once, before b, and c, the
    # later parent, overrides b; d's own entries override both
    ontology = Ontology({
        "a": {"features": {"x": "a", "y": "a", "z": "a"}},
        "b": {"is-a": ["a"], "features": {"x": "b", "y": "b"}},
        "c": {"is-a": ["a"], "features": {"y": "c"}},
        "d": {"is-a": ["b", "c"], "features": {"z": "d"}},
    })
    assert ontology.lookup("d") == {"x": "b", "y": "c", "z": "d"}
    assert ontology.is_a("d", "a") and not ontology.is_a("b", "c")
    # a lookup is the caller's copy
    ontology.lookup("d")["x"] = "changed"
    assert ontology.feature("d", "x") == "b"


def test_parse_number_text_words_and_fractions():
    assert parse_number_text("ten") == Fraction(10)
    assert parse_number_text("3/4") == Fraction(3, 4)
    assert parse_number_text("175") == Fraction(175)
    assert parse_number_text("plenty") is None


def test_registry_procedures(ontology):
    reg = make_registry(ontology)

    def call(name, *args):
        return reg[name](list(args))

    assert call("parse-number", Text("ten")) == Num(Fraction(10))
    assert call("parse-number", Text("soon")) == FAILURE
    rng = call("parse-range", Text("15-20"))
    assert isinstance(rng, Struct)
    assert rng.get("min") == Num(Fraction(15))
    looked = call("lookup-in-ontology", Sym("dough"))
    assert looked.get("baked-form") == Sym("cookie")


def _node(*entries):
    accessible = tuple(AccessibleEntity(ids, concept, i)
                       for i, (ids, concept) in enumerate(entries))
    from souschef.memory import PlotNode
    return PlotNode(0, accessible, "ks-0")


def test_resolve_entity_prefers_most_recent(ontology, kitchen):
    ks, _ = kitchen
    sugar = [e for e in ks.entities.values() if e.kind == "white-sugar"][0]
    flour = [e for e in ks.entities.values() if e.kind == "wheat-flour"][0]
    node = _node(((sugar.serial,), "white-sugar"), ((flour.serial,), "wheat-flour"))
    assert resolve_entity(node, ks, ontology, concept="food") == \
        (sugar.serial,)
    assert resolve_entity(node, ks, ontology, concept="flour") == \
        (flour.serial,)
    assert resolve_entity(node, ks, ontology, concept="tool") is None


def test_resolve_entity_exclusion(ontology, kitchen):
    ks, _ = kitchen
    sugar = [e for e in ks.entities.values() if e.kind == "white-sugar"][0]
    flour = [e for e in ks.entities.values() if e.kind == "wheat-flour"][0]
    node = _node(((sugar.serial,), "white-sugar"), ((flour.serial,), "wheat-flour"))
    assert resolve_entity(node, ks, ontology, concept="food",
                          exclude=(sugar.serial,)) == (flour.serial,)


def test_resolve_entity_promotes_food_to_its_container(ontology, sim_state):
    ks, portion, bowl = sim_state
    node = _node(((portion,), "butter"))
    assert resolve_entity(node, ks, ontology, concept="container") == (bowl,)


@pytest.fixture()
def sim_state(ontology, kitchen):
    """A kitchen where 100 g butter sits in a medium bowl on the counter."""
    from souschef import KitchenSimulator

    ks, config = kitchen
    sim = KitchenSimulator(ontology, config)
    result = sim.apply("fetch-and-proportion",
                       {"concept": Sym("butter"), "quantity": Num(Fraction(100)),
                        "unit": Sym("g"), "target-container": Sym("medium-bowl")},
                       ks)
    portion = int(result.outputs["resultant"].value)
    bowl = result.state.parent_of(portion).serial
    return result.state, portion, bowl


def test_resolve_entity_min_contents_property(ontology, sim_state):
    ks, portion, bowl = sim_state
    node = _node(((bowl,), "medium-bowl"))
    assert resolve_entity(node, ks, ontology, concept="container",
                          properties={"min-contents": 1}) == (bowl,)
    assert resolve_entity(node, ks, ontology, concept="container",
                          properties={"min-contents": 2}) is None


def test_advance_plot_pushes_new_entities_to_front(ontology, sim_state):
    ks, portion, bowl = sim_state
    pdm = PersonalDynamicMemory(ontology, "ks-0")
    advance_plot(pdm, ks, [((portion,), "butter")], 0, event="fetch butter")
    advance_plot(pdm, ks, [((bowl,), "medium-bowl")], 1, event="note bowl")
    node = pdm.current
    assert node.accessible[0].ids == (bowl,)
    assert node.accessible[1].ids == (portion,)
    assert len(pdm.plot) == 3
    assert resolve_entity(node, ks, ontology, concept="butter") == (portion,)
