"""Acceptance suite: one check per shipped behaviour guarantee.

Each test prints a single "criterion NN <name>: PASS|FAIL" line so the suite
doubles as a checklist (run with -s or read captured output).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from souschef import (
    KitchenSimulator, PlanCall, PlanNetwork, SousChefError, content_hash,
    chunk, dish_approximation_score, execute_plan, find_recurrent_pairs,
    goal_condition_success, initial_kitchen, load_goals, load_plan,
    plan_triples, smatch_exact, smatch_plans, smatch_score, verify_direction,
)
from souschef.cli import main as cli_main
from souschef.features import Num, Sym, Var
from souschef.narrative import (
    CURVE_COLUMNS, SOURCE_LANGUAGE, SOURCE_ONTOLOGY, SOURCE_PDM,
    SOURCE_SIMULATION, parse_curve_tsv,
)
from souschef.plans import inline, question_id
from conftest import DATA, fresh_kitchen


@contextmanager
def criterion(number, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}")


def _call(cid, primitive, **slots):
    pairs = tuple((role.replace("_", "-"), term) for role, term in slots.items())
    return PlanCall(cid, primitive, pairs)


def test_criterion_01_end_to_end_yield(tmp_path, almond_result, ontology):
    with criterion(1, "end-to-end yield"):
        started = time.perf_counter()
        code = cli_main(["understand",
                         "--recipe", str(DATA / "recipes" /
                                         "almond-crescent-cookies.txt"),
                         "--out-dir", str(tmp_path / "out")])
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < 10.0, f"understand took {elapsed:.1f} s"

        cookies = almond_result.state.entities_of_kind("cookie", ontology)
        assert len(cookies) == 30
        for cookie in cookies:
            assert cookie.prop("shape") == "crescent"
            assert cookie.prop("baked") == "baked"
            assert cookie.prop("dusted-with") == "powdered-sugar"


def test_criterion_02_zero_anaphora_resolution(almond_result, run_plan):
    with criterion(2, "zero-anaphora resolution"):
        steps = almond_result.document.steps
        idx = steps.index("Mix thoroughly")
        network = almond_result.network
        combine = next(c for c in network.calls
                       if c.provenance == idx
                       and c.primitive == "combine-homogeneous")

        q = almond_result.inn.question(question_id(combine.call_id, "target"))
        assert q.source == SOURCE_PDM

        target = combine.slot("target")
        assert isinstance(target, Var)
        producer_call, producer_role = network.producers()[target.name]
        assert producer_call.provenance == idx - 1

        outcome = run_plan(network)
        bound = outcome.bindings.substitute(target)
        produced = outcome.bindings.substitute(producer_call.slot(producer_role))
        assert isinstance(bound, Num)
        assert bound == produced  # same entity id on both ends


def test_criterion_03_resultant_object_discourse(almond_result):
    with criterion(3, "resultant-object discourse"):
        steps = almond_result.document.steps
        idx = steps.index(
            "Take tablespoons of the dough and shape into crescents")
        portion = next(c for c in almond_result.network.calls
                       if c.provenance == idx
                       and c.primitive == "portion-and-arrange")
        source = portion.slot("source-item")
        assert isinstance(source, Var)
        producer_call, role = almond_result.network.producers()[source.name]
        assert producer_call.primitive == "combine-homogeneous"
        assert role == "resultant"
        assert producer_call.provenance == idx - 1  # the final mixing step
        for step in almond_result.steps:
            assert step.unresolved_tokens == ()


def test_criterion_04_narrative_closure_and_curve(tmp_path, almond_result):
    with criterion(4, "narrative closure and curve"):
        closure = almond_result.inn.closure_status()
        assert closure["open"] == 0
        assert closure["closed"] is True
        for source in (SOURCE_LANGUAGE, SOURCE_SIMULATION, SOURCE_ONTOLOGY,
                       SOURCE_PDM):
            assert closure["by-source"][source] >= 1, source

        path = tmp_path / "curve.tsv"
        almond_result.inn.write_curve_tsv(path)
        rows = parse_curve_tsv(path.read_text())
        assert len(rows) == len(almond_result.document.steps)
        answered_cols = CURVE_COLUMNS[2:]
        previous = None
        for row in rows:
            answered = sum(row[c] for c in answered_cols)
            open_count = row["raised-cumulative"] - answered
            assert open_count >= 0  # raised = answered + open
            if previous is not None:
                for column in CURVE_COLUMNS[1:]:
                    assert row[column] >= previous[column], column
            previous = row
        final = rows[-1]
        assert sum(final[c] for c in answered_cols) == final["raised-cumulative"]
        assert final["raised-cumulative"] == closure["raised"]


def test_criterion_05_smatch_oracle_equivalence(gold_names):
    with criterion(5, "smatch oracle equivalence"):
        graphs = {name: plan_triples(load_plan(DATA / "gold" /
                                               f"{name}.plan.json"))
                  for name in gold_names}
        for name, triples in graphs.items():
            assert smatch_score(triples, triples).f1 == Fraction(1), name

        small = {n: t for n, t in graphs.items() if len(t.nodes) <= 8}
        assert len(small) == 3
        for name_a, a in small.items():
            for name_b, b in small.items():
                climbed = smatch_score(a, b)
                exact = smatch_exact(a, b)
                assert climbed.f1 == exact.f1, (name_a, name_b)


def test_criterion_06_dataflow_confluence(gold_almond, run_plan):
    with criterion(6, "data-flow confluence"):
        results = set()
        for seed in range(20):
            outcome = run_plan(gold_almond, seed=seed)
            results.add((content_hash(outcome.state), outcome.trace.minutes))
        assert len(results) == 1


def _made_sugar_container(ontology, grams):
    """Execute a tiny plan that leaves `grams` g of sugar in a bowl."""
    ks, config = fresh_kitchen()
    sim = KitchenSimulator(ontology, config)
    network = PlanNetwork([
        _call("k", "get-kitchen-state", kitchen_state_out=Var("ks0")),
        _call("f", "fetch-and-proportion", source_ks=Var("ks0"),
              concept=Sym("white-sugar"), quantity=Num(Fraction(grams)),
              unit=Sym("g"), target_container=Sym("medium-bowl"),
              output_ks=Var("ks1"), resultant=Var("sugar")),
    ])
    outcome = execute_plan(network, ks, sim)
    return outcome.state, sim, outcome.bindings.substitute(Var("sugar"))


def test_criterion_07_bidirectional_verification(ontology):
    with criterion(7, "bidirectional verification"):
        stated = {"source-ks": Var("ks0"), "concept": Sym("white-sugar"),
                  "quantity": Num(Fraction(116)), "unit": Sym("g")}

        state, sim, resultant = _made_sugar_container(ontology, 116)
        report = verify_direction("fetch-and-proportion",
                                  {**stated, "resultant": resultant},
                                  state, sim)
        assert report.consistent
        assert report.delta == Fraction(0)

        state, sim, resultant = _made_sugar_container(ontology, 120)
        report = verify_direction("fetch-and-proportion",
                                  {**stated, "resultant": resultant},
                                  state, sim)
        assert not report.consistent
        assert report.delta == Fraction(4)


def test_criterion_08_chunking_equivalence(gold_almond, run_plan):
    with criterion(8, "chunking equivalence"):
        shapes = find_recurrent_pairs(gold_almond)
        shape = next(s for s in shapes
                     if s[0] == ("transfer-contents", "combine-homogeneous"))
        occurrences = shapes[shape]
        assert [list(o) for o in occurrences] == [["c10", "c11"],
                                                  ["c12", "c13"]]
        composite, chunked = chunk(gold_almond, occurrences, "measure-and-add")
        assert len(chunked.calls) == len(gold_almond.calls) - 2

        baseline = run_plan(gold_almond)
        as_composite = run_plan(chunked)
        assert content_hash(as_composite.state) == content_hash(baseline.state)
        assert as_composite.trace.minutes == baseline.trace.minutes

        restored = run_plan(inline(chunked))
        assert content_hash(restored.state) == content_hash(baseline.state)


def _random_kitchen(rng):
    foods = ["white-sugar", "wheat-flour", "almond-flour", "powdered-sugar",
             "vanilla-extract"]
    pantry = [{"kind": kind, "grams": rng.randint(40, 400)}
              for kind in rng.sample(foods, rng.randint(2, 4))]
    spec = {"locations": {
        "pantry": pantry,
        "fridge": [{"kind": "butter", "grams": rng.randint(50, 300)}],
        "tool-drawer": [
            {"kind": "medium-bowl", "count": rng.randint(1, 3),
             "container": True},
            {"kind": "small-bowl", "count": 1, "container": True},
            {"kind": "baking-sheet", "count": 1, "container": True},
            {"kind": "plate", "count": 2, "container": True},
            {"kind": "parchment-paper", "count": 2},
            {"kind": "mixer", "count": 1},
        ],
    }}
    return initial_kitchen(spec)


def _random_operation(rng, ks):
    foods = sorted(e.serial for e in ks.entities.values() if e.is_food)
    containers = sorted(e.serial for e in ks.entities.values()
                        if e.container and not ks.is_location(e))

    def food():
        return Num(Fraction(rng.choice(foods)))

    def container():
        return Num(Fraction(rng.choice(containers)))

    candidates = [
        ("fetch-and-proportion",
         lambda: {"concept": Sym(rng.choice(["butter", "white-sugar",
                                             "wheat-flour", "sugar",
                                             "powdered-sugar", "caviar"])),
                  "quantity": Num(Fraction(rng.choice([5, 20, 60, 150, 9000]))),
                  "unit": Sym("g"),
                  "target-container": Sym(rng.choice(["medium-bowl",
                                                      "small-bowl"]))}),
        ("fetch-container",
         lambda: {"concept": Sym(rng.choice(["medium-bowl", "plate",
                                             "baking-sheet"]))}),
        ("fetch-tool", lambda: {"concept": Sym("mixer")}),
        ("preheat-oven",
         lambda: {"device": Sym("oven"),
                  "temperature": Num(Fraction(rng.choice([150, 175, 200])),
                                     "degrees-C")}),
        ("set-timer/elapse",
         lambda: {"duration": Num(Fraction(rng.randint(1, 10)), "minute")}),
    ]
    if foods:
        candidates += [
            ("melt", lambda: {"item": food()}),
            ("shape", lambda: {"items": food(),
                               "shape": Sym(rng.choice(["ball", "crescent"]))}),
            ("flatten", lambda: {"items": food()}),
            ("beat", lambda: {"items": food(), "tool": Sym("mixer"),
                              "end-state": Sym("fluffy")}),
            ("portion-and-arrange",
             lambda: {"source-item": food(), "portion-unit": Sym("tablespoon"),
                      "destination": Sym("counter-top")}),
            ("bake", lambda: {"target": food(), "oven": Sym("oven"),
                              "duration": Num(Fraction(rng.randint(5, 30)),
                                              "minute")}),
            ("cool-until", lambda: {"target": food(), "condition": Sym("cool"),
                                    "duration": Num(Fraction(5), "minute")}),
            ("sprinkle", lambda: {"targets": food(),
                                  "topping": Sym("powdered-sugar")}),
            ("serve", lambda: {"items": food()}),
        ]
    if foods and containers:
        candidates.append(
            ("transfer-contents", lambda: {"source": food(),
                                           "destination": container()}))
    if containers:
        candidates += [
            ("combine-homogeneous", lambda: {"target": container()}),
            ("line-with", lambda: {"container": container(),
                                   "liner": Sym("parchment-paper")}),
        ]
    name, build = rng.choice(candidates)
    return name, build()


def test_criterion_09_conservation_property(ontology):
    with criterion(9, "conservation property suite"):
        rng = random.Random(90125)
        applied = 0
        for _ in range(1000):
            ks, config = _random_kitchen(rng)
            sim = KitchenSimulator(ontology, config)
            for _ in range(rng.randint(3, 7)):
                name, slots = _random_operation(rng, ks)
                snapshot = (dict(ks.entities), ks.locations, ks.clock,
                            ks.next_serial, ks.state_id)
                totals = ks.total_composition()
                try:
                    result = sim.apply(name, slots, ks)
                except SousChefError:
                    result = None
                # the input state is never mutated, success or not
                assert (ks.entities, ks.locations, ks.clock,
                        ks.next_serial, ks.state_id) == snapshot
                if result is None:
                    continue
                applied += 1
                # per-concept mass is conserved by every primitive
                assert result.state.total_composition() == totals, name
                ks = result.state
        assert applied >= 1000  # the walk genuinely exercises the simulator


def test_criterion_10_metric_self_consistency(gold_almond, run_plan, ontology):
    with criterion(10, "metric self-consistency"):
        goals = load_goals(DATA / "gold" / "almond-crescent-cookies.goals.json")
        reference = run_plan(gold_almond)

        assert smatch_plans(gold_almond, gold_almond).f1 == Fraction(1)
        gcs, _ = goal_condition_success(reference.state, goals, ontology)
        assert gcs == Fraction(1)
        das, _ = dish_approximation_score(reference.state, reference.state,
                                          ontology)
        assert das == Fraction(1)

        # drop the dusting step and hand its inputs to serve
        sprinkle = next(c for c in gold_almond.calls
                        if c.primitive == "sprinkle")
        serve = next(c for c in gold_almond.calls if c.primitive == "serve")
        rewired = serve.with_slot("items", sprinkle.slot("targets")) \
                       .with_slot("input-ks", sprinkle.slot("input-ks"))
        reduced = PlanNetwork([
            rewired if c.call_id == serve.call_id else c
            for c in gold_almond.calls if c.call_id != sprinkle.call_id])
        reduced.validate()
        predicted = run_plan(reduced)

        # graph overlap drops by exactly the triples the dusting call carried
        ta, tb = plan_triples(gold_almond), plan_triples(reduced)
        shared = (len(set(ta.instances) & set(tb.instances))
                  + len(set(ta.attributes) & set(tb.attributes))
                  + len(set(ta.relations) & set(tb.relations)))
        expected_f1 = Fraction(2 * shared, len(ta) + len(tb))
        assert expected_f1 < 1
        assert smatch_plans(gold_almond, reduced).f1 == expected_f1

        # the dusted-with goal is the single one that now fails
        gcs, per_goal = goal_condition_success(predicted.state, goals,
                                               ontology)
        assert per_goal == [True, True, True, False, True]
        assert gcs == Fraction(4, 5)

        # dish score: one reference ingredient of seven goes missing and one
        # dish property of four disagrees; harmonic mean of the two parts
        das, detail = dish_approximation_score(predicted.state,
                                               reference.state, ontology)
        ingredient_f1 = Fraction(2 * 6, 6 + 7)
        property_agreement = Fraction(3, 4)
        expected = (2 * ingredient_f1 * property_agreement
                    / (ingredient_f1 + property_agreement))
        assert das == expected == Fraction(24, 29)
        assert detail["properties"]["dusted-with"] == {
            "predicted": None, "reference": "powdered-sugar"}
