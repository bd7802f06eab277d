"""Kitchen simulator: entity tree, primitive semantics, conservation."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from souschef import (
    PRIMITIVES, InputError, KitchenSimulator, SimulationError,
    StructuralError, content_hash, execute_plan, initial_kitchen, load_plan,
)
import souschef.kitchen as kitchen_module
from souschef.features import Num, Struct, Sym

from conftest import DATA, fresh_kitchen

GOLD_SEEDS = (None, 1, 2, 3, 7)


@pytest.fixture()
def sim(ontology):
    return KitchenSimulator(ontology)


def serial_of(state, kind):
    hits = [e for e in state.entities.values() if e.kind == kind]
    assert hits, f"no {kind} in state"
    return hits[0].serial


def test_default_kitchen_layout():
    ks, config = initial_kitchen()
    names = [name for name, _ in ks.locations]
    assert names == ["pantry", "fridge", "freezer", "counter-top", "oven",
                     "tool-drawer"]
    pantry = ks.location("pantry")
    kinds = {ks.entities[s].kind for s in pantry.contents}
    assert "white-sugar" in kinds and "wheat-flour" in kinds
    assert ks.location("counter-top").contents == ()
    assert config["portion-grams"]["tablespoon"] == 17


def test_kitchen_config_rejects_unknown_keys():
    # a retired or misspelled knob must not be ignored in silence
    for key in ("durations", "burn_factor"):
        with pytest.raises(InputError, match=key):
            initial_kitchen({"config": {key: 1}})
        with pytest.raises(InputError, match=key):
            KitchenSimulator(None, {key: 1})
    # nested tables still take new entries
    _, config = initial_kitchen({"config": {"portion-grams": {"cup": 240}}})
    assert config["portion-grams"] == {"tablespoon": 17, "teaspoon": 5,
                                       "cup": 240}


def test_content_hash_ignores_serial_assignment_order():
    spec_a = {"locations": {"pantry": [{"kind": "white-sugar", "grams": 10},
                                       {"kind": "butter", "grams": 20}]}}
    spec_b = {"locations": {"pantry": [{"kind": "butter", "grams": 20},
                                       {"kind": "white-sugar", "grams": 10}]}}
    ks_a, _ = initial_kitchen(spec_a)
    ks_b, _ = initial_kitchen(spec_b)
    assert content_hash(ks_a) == content_hash(ks_b)
    spec_c = {"locations": {"pantry": [{"kind": "butter", "grams": 21},
                                       {"kind": "white-sugar", "grams": 10}]}}
    ks_c, _ = initial_kitchen(spec_c)
    assert content_hash(ks_a) != content_hash(ks_c)


def test_fetch_and_proportion_splits_stock(sim):
    ks, _ = initial_kitchen()
    before = ks.total_composition()
    result = sim.apply("fetch-and-proportion",
                       {"concept": Sym("butter"), "quantity": Num(Fraction(100)),
                        "unit": Sym("g"), "target-container": Sym("medium-bowl")},
                       ks)
    after = result.state
    assert after.total_composition() == before
    portion = after.need(int(result.outputs["resultant"].value))
    assert portion.kind == "butter"
    assert portion.grams == Fraction(100)
    bowl = after.parent_of(portion.serial)
    assert bowl.kind == "medium-bowl"
    assert bowl.serial in after.location("counter-top").contents
    stock = [e for e in after.entities.values()
             if e.kind == "butter" and e.serial != portion.serial]
    assert sum(e.grams for e in stock) == Fraction(400)
    # the input state is untouched
    assert ks.total_composition() == before
    assert ks.location("counter-top").contents == ()


def test_fetch_rejects_insufficient_stock(sim):
    ks, _ = initial_kitchen()
    with pytest.raises(SimulationError):
        sim.apply("fetch-and-proportion",
                  {"concept": Sym("butter"), "quantity": Num(Fraction(9999)),
                   "unit": Sym("g"), "target-container": Sym("medium-bowl")},
                  ks)
    with pytest.raises(SimulationError):
        sim.apply("fetch-and-proportion",
                  {"concept": Sym("caviar"), "quantity": Num(Fraction(5)),
                   "unit": Sym("g"), "target-container": Sym("medium-bowl")},
                  ks)


def test_fetch_requires_mass_unit(sim):
    ks, _ = initial_kitchen()
    with pytest.raises(SimulationError):
        sim.apply("fetch-and-proportion",
                  {"concept": Sym("butter"), "quantity": Num(Fraction(5)),
                   "unit": Sym("minute"), "target-container": Sym("medium-bowl")},
                  ks)


@pytest.mark.parametrize("unit", ["cup", "minute"])
def test_fetch_rejects_unsupported_units(sim, unit):
    # an unknown unit and a known non-mass unit fail alike
    ks, _ = initial_kitchen()
    with pytest.raises(SimulationError) as err:
        sim.apply("fetch-and-proportion",
                  {"concept": Sym("butter"), "quantity": Num(Fraction(1)),
                   "unit": Sym(unit), "target-container": Sym("medium-bowl")},
                  ks)
    assert err.value.reason == "unsupported-unit"


def _fetch(sim, ks, concept, grams, bowl="medium-bowl"):
    result = sim.apply("fetch-and-proportion",
                       {"concept": Sym(concept), "quantity": Num(Fraction(grams)),
                        "unit": Sym("g"), "target-container": Sym(bowl)}, ks)
    return result.state, int(result.outputs["resultant"].value)


def test_combine_merges_bowl_contents_into_dough(sim):
    ks, _ = initial_kitchen()
    ks, butter = _fetch(sim, ks, "butter", 100)
    ks, flour = _fetch(sim, ks, "wheat-flour", 200)
    bowl = ks.parent_of(ks.need(butter).serial).serial
    ks = sim.apply("transfer-contents",
                   {"source": Num(Fraction(flour)),
                    "destination": Num(Fraction(bowl))}, ks).state
    result = sim.apply("combine-homogeneous",
                       {"target": Num(Fraction(bowl)),
                        "tool": Sym("wooden-spoon")}, ks)
    merged = result.state.need(int(result.outputs["resultant"].value))
    assert merged.kind == "dough"
    assert merged.prop("mixed-state") == "homogeneous"
    assert dict(merged.composition) == {"butter": Fraction(100),
                                        "wheat-flour": Fraction(200)}
    assert result.state.total_composition() == ks.total_composition()


def test_combine_without_flour_makes_generic_mixture(sim):
    ks, _ = initial_kitchen()
    ks, butter = _fetch(sim, ks, "butter", 50)
    ks, sugar = _fetch(sim, ks, "white-sugar", 30)
    bowl = ks.parent_of(butter).serial
    ks = sim.apply("transfer-contents",
                   {"source": Num(Fraction(sugar)),
                    "destination": Num(Fraction(bowl))}, ks).state
    result = sim.apply("combine-homogeneous", {"target": Num(Fraction(bowl))}, ks)
    merged = result.state.need(int(result.outputs["resultant"].value))
    assert merged.kind == "mixture"


def test_beat_requires_available_tool(sim):
    ks, _ = initial_kitchen()
    ks, butter = _fetch(sim, ks, "butter", 50)
    with pytest.raises(SimulationError):
        sim.apply("beat", {"items": Num(Fraction(butter)),
                           "tool": Sym("stand-blender")}, ks)
    result = sim.apply("beat", {"items": Num(Fraction(butter)),
                                "tool": Sym("mixer"),
                                "end-state": Sym("fluffy")}, ks)
    beaten = result.state.need(int(result.outputs["resultant"].value))
    assert beaten.prop("mixed-state") == "fluffy"


def test_melt_sets_temperature(sim):
    ks, _ = initial_kitchen()
    ks, butter = _fetch(sim, ks, "butter", 50)
    result = sim.apply("melt", {"item": Num(Fraction(butter))}, ks)
    melted = result.state.need(butter)
    assert melted.prop("temperature") == Fraction(40)


def test_portion_and_arrange_counts_and_remainder(sim):
    ks, _ = initial_kitchen()
    ks, flour = _fetch(sim, ks, "wheat-flour", 100)
    result = sim.apply("portion-and-arrange",
                       {"source-item": Num(Fraction(flour)),
                        "portion-unit": Sym("tablespoon"),
                        "destination": Sym("counter-top")}, ks)
    serials = [int(m.value) for m in result.outputs["portions"]]
    assert len(serials) == 5  # 100 g / 17 g per tablespoon
    for s in serials:
        assert result.state.need(s).grams == Fraction(17)
    leftover = result.state.need(flour)
    assert leftover.grams == Fraction(100 - 5 * 17)
    assert result.state.total_composition() == ks.total_composition()


def test_preheat_then_bake_transforms_dough_to_cookies(sim, ontology):
    ks, _ = initial_kitchen()
    ks, butter = _fetch(sim, ks, "butter", 100)
    ks, flour = _fetch(sim, ks, "wheat-flour", 200)
    bowl = ks.parent_of(butter).serial
    ks = sim.apply("transfer-contents",
                   {"source": Num(Fraction(flour)),
                    "destination": Num(Fraction(bowl))}, ks).state
    combine = sim.apply("combine-homogeneous", {"target": Num(Fraction(bowl))}, ks)
    ks, dough = combine.state, int(combine.outputs["resultant"].value)
    ks = sim.apply("preheat-oven",
                   {"device": Sym("oven"),
                    "temperature": Num(Fraction(175), "degrees-C")}, ks).state
    assert ks.location("oven").prop("temperature") == Fraction(175)

    baked = sim.apply("bake", {"target": Num(Fraction(dough)),
                               "oven": Sym("oven"),
                               "duration": Num(Fraction(15), "minute")}, ks)
    cookie = baked.state.need(dough)
    assert cookie.kind == "cookie"
    assert cookie.prop("baked") == "baked"
    assert baked.warnings == ()


def test_bake_without_preheat_warns_or_fails(sim):
    ks, _ = initial_kitchen()
    ks, flour = _fetch(sim, ks, "wheat-flour", 100)
    result = sim.apply("bake", {"target": Num(Fraction(flour)),
                                "oven": Sym("oven"),
                                "duration": Num(Fraction(10), "minute")}, ks)
    assert any("preheat" in w for w in result.warnings)
    with pytest.raises(SimulationError):
        sim.apply("bake", {"target": Num(Fraction(flour)),
                           "oven": Sym("oven"),
                           "duration": Num(Fraction(10), "minute")}, ks,
                  preheat_required=True)


def test_overlong_bake_burns(sim):
    ks, _ = initial_kitchen()
    ks, butter = _fetch(sim, ks, "butter", 100)
    ks, flour = _fetch(sim, ks, "wheat-flour", 200)
    bowl = ks.parent_of(butter).serial
    ks = sim.apply("transfer-contents",
                   {"source": Num(Fraction(flour)),
                    "destination": Num(Fraction(bowl))}, ks).state
    combine = sim.apply("combine-homogeneous", {"target": Num(Fraction(bowl))}, ks)
    ks, dough = combine.state, int(combine.outputs["resultant"].value)
    ks = sim.apply("preheat-oven",
                   {"device": Sym("oven"),
                    "temperature": Num(Fraction(175), "degrees-C")}, ks).state
    # dough carries max-bake-minutes 20; 1.5x over the limit burns
    burned = sim.apply("bake", {"target": Num(Fraction(dough)),
                                "oven": Sym("oven"),
                                "duration": Num(Fraction(45), "minute")}, ks)
    assert burned.state.need(dough).prop("baked") == "burned"


def test_bake_duration_range_uses_struct(sim):
    duration = Struct([("min", Num(Fraction(15), "minute")),
                       ("max", Num(Fraction(20), "minute"))])
    minutes = sim.duration_of("bake", {"duration": duration})
    assert minutes == Fraction(35, 2)


def test_line_with_consumes_liner_and_tags_container(sim):
    ks, _ = initial_kitchen()
    fetched = sim.apply("fetch-container", {"concept": Sym("baking-sheet")}, ks)
    ks = fetched.state
    sheet = int(fetched.outputs["fetched"].value)
    papers_before = len([e for e in ks.entities.values()
                         if e.kind == "parchment-paper"])
    lined = sim.apply("line-with", {"container": Num(Fraction(sheet)),
                                    "liner": Sym("parchment-paper")}, ks)
    assert lined.state.need(sheet).prop("lined-with") == "parchment-paper"
    papers_after = len([e for e in lined.state.entities.values()
                        if e.kind == "parchment-paper"])
    assert papers_after == papers_before - 1


def test_line_with_rejects_a_container_or_food_liner(sim):
    # dropping a bowl that holds butter would leave the butter in no
    # container, still counted by total_composition but not hashed
    ks, _ = initial_kitchen()
    ks, butter = _fetch(sim, ks, "butter", 100)
    bowl = ks.parent_of(butter).serial
    fetched = sim.apply("fetch-container", {"concept": Sym("baking-sheet")}, ks)
    ks = fetched.state
    sheet = fetched.outputs["fetched"]
    for liner in (bowl, butter):
        with pytest.raises(SimulationError) as err:
            sim.apply("line-with", {"container": sheet,
                                    "liner": Num(Fraction(liner))}, ks)
        assert err.value.reason == "bad-slots"
    assert ks.need(bowl).contents == (butter,)


def test_sprinkle_moves_topping_mass_onto_targets(sim):
    ks, _ = initial_kitchen()
    ks, flour = _fetch(sim, ks, "wheat-flour", 34)
    ks, sugar = _fetch(sim, ks, "powdered-sugar", 10, bowl="small-bowl")
    portioned = sim.apply("portion-and-arrange",
                          {"source-item": Num(Fraction(flour)),
                           "portion-unit": Sym("tablespoon"),
                           "destination": Sym("counter-top")}, ks)
    ks = portioned.state
    targets = portioned.outputs["portions"]
    before = ks.total_composition()
    dusted = sim.apply("sprinkle", {"targets": targets,
                                    "topping": Sym("powdered-sugar")}, ks)
    assert dusted.state.total_composition() == before
    for m in targets:
        e = dusted.state.need(int(m.value))
        assert e.prop("dusted-with") == "powdered-sugar"
        assert dict(e.composition)["powdered-sugar"] == Fraction(5)
    assert dusted.state.entity(sugar) is None


def test_sprinkle_rejects_topping_as_its_own_target(sim):
    ks, _ = initial_kitchen()
    ks, sugar = _fetch(sim, ks, "powdered-sugar", 10)
    with pytest.raises(SimulationError, match="onto itself"):
        sim.apply("sprinkle", {"targets": Num(Fraction(sugar)),
                               "topping": Num(Fraction(sugar))}, ks)


def test_serve_moves_items_to_a_plate(sim):
    ks, _ = initial_kitchen()
    ks, butter = _fetch(sim, ks, "butter", 50)
    served = sim.apply("serve", {"items": Num(Fraction(butter))}, ks)
    plate = served.state.need(int(served.outputs["served"].value))
    assert plate.kind == "plate"
    assert plate.serial in served.state.location("counter-top").contents
    assert served.state.parent_of(butter).serial == plate.serial


def test_unknown_primitive_rejected(sim):
    ks, _ = initial_kitchen()
    with pytest.raises(SimulationError):
        sim.apply("julienne", {}, ks)


def test_passive_primitives_do_not_hold_the_agent():
    assert PRIMITIVES.get("bake").passive
    assert PRIMITIVES.get("preheat-oven").passive
    assert not PRIMITIVES.get("beat").passive


def test_every_primitive_spec_is_whole():
    for name in PRIMITIVES.names():
        spec = PRIMITIVES.get(name)
        assert getattr(KitchenSimulator, spec.handler.__name__) is spec.handler
        assert spec.plot is None or spec.plot in spec.roles, name
        # fixed minutes, or read from the duration slot, never both
        assert (spec.minutes is None) == ("duration" in spec.roles), name
        inputs = set(spec.roles) - spec.outputs
        for role, default in spec.defaults.items():
            assert role in inputs, name
            assert default.of is None or default.of in spec.roles, name
        if spec.direction is not None:
            assert spec.direction <= set(spec.roles), name
            assert getattr(KitchenSimulator,
                           spec.verifier.__name__) is spec.verifier, name


def test_spec_needs_both_direction_and_verifier():
    slots = [("input-ks", "kitchen-state"), ("item", "entity-set"),
             ("output-ks", "kitchen-state")]
    with pytest.raises(StructuralError, match="direction and a verifier"):
        kitchen_module._spec("probe", KitchenSimulator._melt, 1, slots,
                             {"output-ks"}, direction={"item"})
    with pytest.raises(StructuralError, match="direction and a verifier"):
        kitchen_module._spec(
            "probe", KitchenSimulator._melt, 1, slots, {"output-ks"},
            verifier=KitchenSimulator._verify_portion_and_arrange)


def test_durations_come_from_spec_or_slots(sim):
    assert sim.duration_of("beat", {}) == Fraction(3)
    assert sim.duration_of("bake",
                           {"duration": Num(Fraction(1), "hour")}) == Fraction(60)
    assert sim.duration_of("cool-until", {}) == Fraction(5)
    with pytest.raises(SimulationError):
        sim.duration_of("bake", {})


# ---------------------------------------------------------------------------
# Subtree digests and the parent index


class _RecordingSimulator(KitchenSimulator):
    """Keeps every state its applications commit."""

    def __init__(self, ontology, config):
        super().__init__(ontology, config)
        self.states = []

    def apply(self, *args, **kwargs):
        result = super().apply(*args, **kwargs)
        self.states.append(result.state)
        return result


@pytest.fixture(scope="module")
def gold_runs(ontology, gold_names):
    """(name, seed) -> (outcome, every state the run passed through)."""
    runs = {}
    for name in gold_names:
        network = load_plan(DATA / "gold" / f"{name}.plan.json")
        for seed in GOLD_SEEDS:
            ks, config = fresh_kitchen()
            sim = _RecordingSimulator(ontology, config)
            outcome = execute_plan(network, ks, sim, seed=seed)
            runs[name, seed] = outcome, [ks] + sim.states
    return runs


def _reference_digest(ks, serial) -> str:
    """The subtree digest recomputed from the entity tree alone."""
    e = ks.entities[serial]
    comp = ",".join(f"{c}:{g}" for c, g in e.composition)
    props = ",".join(f"{k}={v}" for k, v in e.properties)
    kids = sorted(_reference_digest(ks, s) for s in e.contents
                  if s in ks.entities)
    payload = "|".join([e.kind, "c" if e.container else "f", comp, props]
                       + kids)
    return hashlib.sha256(payload.encode()).hexdigest()


def _assert_maps_match_rebuild(ks):
    # equal maps also mean no digest survives for a dropped entity
    assert ks.digests == {s: _reference_digest(ks, s) for s in ks.entities}
    assert ks.parents == {c: s for s, e in ks.entities.items()
                          for c in e.contents}


def test_gold_plan_hashes_are_unchanged(gold_runs):
    # tests/data/gold_hashes.json pins the final hash and every trace hash
    # of the gold plans; the digest format must not drift
    expected = json.loads(
        (Path(__file__).parent / "data" / "gold_hashes.json").read_text())
    got = {}
    for (name, seed), (outcome, _) in gold_runs.items():
        hashes = [h for r in outcome.trace.records
                  for h in (r.hash_before, r.hash_after)]
        got[f"{name} seed={seed}"] = {
            "calls": len(outcome.trace.records),
            "final": content_hash(outcome.state),
            "trace-sha256": hashlib.sha256(
                "\n".join(hashes).encode()).hexdigest(),
        }
    assert got == expected


def test_incremental_maps_match_a_rebuild_on_gold_runs(gold_runs):
    for _, states in gold_runs.values():
        for ks in states:
            _assert_maps_match_rebuild(ks)


def test_incremental_maps_follow_moves_and_drops():
    ks0, _ = initial_kitchen()
    drawer = ks0.location("tool-drawer").serial
    counter = ks0.location("counter-top").serial
    b = kitchen_module._Builder(ks0, False)
    bowl = b.create("medium-bowl", drawer, container=True).serial
    butter = b.create("butter", bowl,
                      composition=(("butter", Fraction(50)),)).serial
    ks1 = b.commit(Fraction(0))
    b = kitchen_module._Builder(ks1, False)
    b.move(bowl, counter)
    ks2 = b.commit(Fraction(0))
    b = kitchen_module._Builder(ks2, False)
    b.drop(butter)
    ks3 = b.commit(Fraction(0))
    b = kitchen_module._Builder(ks2, False)
    b.drop(bowl)  # what the bowl held stays, in no container
    ks4 = b.commit(Fraction(0))
    for ks in (ks0, ks1, ks2, ks3, ks4):
        _assert_maps_match_rebuild(ks)
    assert len({content_hash(ks) for ks in (ks0, ks1, ks2, ks3)}) == 4
    # earlier states keep their own maps
    assert ks1.parent_of(bowl).serial == drawer
    assert ks2.parent_of(bowl).serial == counter
    assert ks3.entity(bowl).contents == () and butter not in ks3.entities
    assert bowl not in ks4.entities and ks4.parent_of(butter) is None
