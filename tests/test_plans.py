"""Plan networks: structure checks, data-flow execution, chunking."""

import gc
import itertools
import json
import random
from fractions import Fraction

import pytest

from souschef import (
    CookingSession, DataflowDeadlock, InputError, KitchenSimulator, Ontology,
    PRIMITIVES, PlanCall, PlanFragment, PlanNetwork, StructuralError,
    UnderstandingFailure, UnsupportedDirection, chunk, content_hash,
    execute_plan, expand_composites, find_recurrent_pairs, load_plan,
    plan_from_json, plan_to_json, smatch_plans, verify_direction,
)
from souschef.features import Num, Struct, Sym, ValueSet, Var, vars_of
from souschef.kitchen import Default
from souschef.memory import initial_plot_node
from souschef.narrative import SOURCE_ONTOLOGY, SOURCE_PDM
from souschef.plans import (
    Executor, classify_slots, complete_plan, inline, input_slots,
    normalize_fragment,
)
from conftest import DATA, fresh_kitchen


def call(cid, primitive, **slots):
    pairs = tuple((role.replace("_", "-"), term) for role, term in slots.items())
    return PlanCall(cid, primitive, pairs)


def tiny_network():
    return PlanNetwork([
        call("c0", "get-kitchen-state", kitchen_state_out=Var("ks0")),
        call("c1", "fetch-and-proportion", source_ks=Var("ks0"),
             concept=Sym("butter"), quantity=Num(Fraction(100)),
             unit=Sym("g"), target_container=Sym("medium-bowl"),
             output_ks=Var("ks1"), resultant=Var("pat")),
        call("c2", "melt", input_ks=Var("ks1"), item=Var("pat"),
             output_ks=Var("ks2"), resultant=Var("melted")),
    ])


def test_primitive_registry_contents():
    names = PRIMITIVES.names()
    assert "fetch-and-proportion" in names
    assert "serve" in names
    assert len(names) == 18
    spec = PRIMITIVES.get("bake")
    assert spec.outputs == {"output-ks", "baked"}
    assert spec.defaults["oven"] == Default("default-device")
    with pytest.raises(InputError):
        PRIMITIVES.get("sous-vide")


def test_network_validate_catches_duplicates_and_cycles():
    net = tiny_network()
    net.validate()
    dup = PlanNetwork(net.calls + [call("c0", "get-kitchen-state",
                                        kitchen_state_out=Var("ksX"))])
    with pytest.raises(StructuralError):
        dup.validate()
    cyc = PlanNetwork([
        call("a", "melt", input_ks=Var("ks"), item=Var("y"),
             output_ks=Var("ksa"), resultant=Var("x")),
        call("b", "melt", input_ks=Var("ks"), item=Var("x"),
             output_ks=Var("ksb"), resultant=Var("y")),
    ])
    with pytest.raises(StructuralError):
        cyc.validate()


def test_single_assignment_of_producers():
    net = PlanNetwork([
        call("a", "get-kitchen-state", kitchen_state_out=Var("ks")),
        call("b", "get-kitchen-state", kitchen_state_out=Var("ks")),
    ])
    with pytest.raises(StructuralError):
        net.producers()


def test_open_input_slots_detected():
    net = PlanNetwork([
        call("c0", "melt", input_ks=Var("ghost"), item=Var("mystery"),
             output_ks=Var("ks1"), resultant=Var("out")),
    ])
    stuck = net.open_input_slots()
    assert ("c0", "input-ks", "ghost") in stuck
    assert ("c0", "item", "mystery") in stuck
    with pytest.raises(InputError):
        execute_plan(net, *_fresh_sim())


def test_variables_inside_a_struct_term_are_open_slots():
    net = PlanNetwork([
        call("c0", "get-kitchen-state", kitchen_state_out=Var("ks0")),
        call("c1", "set-timer/elapse", input_ks=Var("ks0"),
             duration=Struct([("min", Var("lo"))]),
             output_ks=Var("ks1"), elapsed=Var("done")),
    ])
    assert net.open_input_slots() == [("c1", "duration", "lo")]
    with pytest.raises(InputError, match=r"open slots: c1\.duration\(\?lo\)"):
        execute_plan(net, *_fresh_sim())


def _fresh_sim():
    ks, config = fresh_kitchen()
    ontology = Ontology.load(DATA / "ontology.json")
    return ks, KitchenSimulator(ontology, config)


def test_execute_simple_chain():
    ks, sim = _fresh_sim()
    outcome = execute_plan(tiny_network(), ks, sim)
    melted = outcome.bindings.substitute(Var("melted"))
    assert isinstance(melted, Num)
    entity = outcome.state.need(int(melted.value))
    assert entity.kind == "butter"
    assert entity.prop("temperature") == Fraction(40)
    assert outcome.trace.minutes == Fraction(3)  # fetch 1 + melt 2
    assert outcome.trace.final_hash == content_hash(outcome.state)


def test_each_record_starts_from_the_previous_hash(gold_almond, run_plan):
    outcome = run_plan(gold_almond, seed=3)
    records = outcome.trace.records
    befores = [r.hash_before for r in records]
    afters = [outcome.trace.initial_hash] + [r.hash_after for r in records[:-1]]
    assert befores == afters
    assert outcome.trace.initial_hash == content_hash(fresh_kitchen()[0])
    assert outcome.trace.final_hash == content_hash(outcome.state)


def test_execution_trace_serializes(tmp_path):
    ks, sim = _fresh_sim()
    outcome = execute_plan(tiny_network(), ks, sim)
    path = tmp_path / "trace.jsonl"
    outcome.trace.write_jsonl(path)
    lines = [json.loads(ln) for ln in path.read_text().splitlines()]
    assert lines[0] == {"initial-hash": outcome.trace.initial_hash}
    assert [r["call"] for r in lines[1:]] == ["c0", "c1", "c2"]
    assert lines[-1]["hash-after"] == outcome.trace.final_hash


def test_plan_json_round_trip(gold_almond, run_plan):
    data = plan_to_json(gold_almond)
    again = plan_from_json(data)
    assert [c.primitive for c in again.calls] == \
        [c.primitive for c in gold_almond.calls]
    assert content_hash(run_plan(again).state) == \
        content_hash(run_plan(gold_almond).state)
    # ids are canonicalized in file order
    assert [c.call_id for c in again.calls] == \
        [f"c{i}" for i in range(len(again.calls))]


def test_plan_from_json_rejects_unknown_primitive():
    with pytest.raises(InputError):
        plan_from_json({"calls": [{"id": "c0", "primitive": "teleport",
                                   "slots": {}}]})


def test_gold_plans_execute_clean(gold_names, run_plan):
    for name in gold_names:
        network = load_plan(DATA / "gold" / f"{name}.plan.json")
        outcome = run_plan(network)
        assert outcome.trace.minutes > 0
        assert outcome.state.entities


def test_executor_seed_choice_is_reproducible(gold_almond, run_plan):
    a = run_plan(gold_almond, seed=7)
    b = run_plan(gold_almond, seed=7)
    assert content_hash(a.state) == content_hash(b.state)
    assert [r.call_id for r in a.trace.records] == \
        [r.call_id for r in b.trace.records]


class RescanningExecutor(Executor):
    """The executor with the scheduler that ready counts replaced: each
    step rescans every pending call's input variables."""

    def run(self, calls: list) -> list:
        if any(c.primitive == "preheat-oven" for c in calls):
            self.preheat_required = True
        pending = [(c, [v for _, t in input_slots(c) for v in vars_of(t)])
                   for c in calls]
        answers = []
        while pending:
            ready = [p for p in pending
                     if all(self.bindings.lookup(v) is not None for v in p[1])]
            if not ready:
                raise DataflowDeadlock([c.call_id for c, _ in pending])
            chosen = ready[0] if self.rng is None else self.rng.choice(ready)
            pending.remove(chosen)
            answers.extend(self._run_call(chosen[0]))
        return answers


def test_ready_counts_keep_every_seeded_order(gold_names, ontology):
    for name in gold_names:
        calls = expand_composites(
            load_plan(DATA / "gold" / f"{name}.plan.json").calls)
        for seed in [None, *range(20)]:
            runs = []
            for executor_class in (Executor, RescanningExecutor):
                ks, config = fresh_kitchen()
                rng = None if seed is None else random.Random(seed)
                executor = executor_class(KitchenSimulator(ontology, config),
                                          ks, rng=rng)
                answers = executor.run(calls)
                runs.append((executor.trace.records, answers))
            assert runs[0] == runs[1], (name, seed)


def test_deadlock_runs_the_ready_calls_and_names_the_stuck_ones(ontology):
    ks, config = fresh_kitchen()
    executor = Executor(KitchenSimulator(ontology, config), ks)
    calls = [
        # waits on c2, which waits on a variable no call produces
        call("c0", "melt", input_ks=Var("ks2"), item=Var("melted"),
             output_ks=Var("ks3"), resultant=Var("again")),
        call("c1", "get-kitchen-state", kitchen_state_out=Var("ks0")),
        call("c2", "melt", input_ks=Var("ks0"), item=Var("nowhere"),
             output_ks=Var("ks2"), resultant=Var("melted")),
        call("c3", "fetch-and-proportion", source_ks=Var("ks0"),
             concept=Sym("butter"), quantity=Num(Fraction(100)),
             unit=Sym("g"), target_container=Sym("medium-bowl"),
             output_ks=Var("ks1"), resultant=Var("pat")),
    ]
    with pytest.raises(DataflowDeadlock) as caught:
        executor.run(calls)
    assert caught.value.stuck == ["c0", "c2"]
    assert caught.value.code == "dataflow-deadlock"
    assert [r.call_id for r in executor.trace.records] == ["c1", "c3"]


def test_execution_leaves_no_reference_cycles(gold_names, run_plan):
    # execution, validation and scoring free what they build by reference
    # counting
    golds = [load_plan(DATA / "gold" / f"{name}.plan.json")
             for name in gold_names]
    run_plan(golds[0], seed=1)
    gc.collect()
    gc.disable()
    try:
        for gold in golds:
            run_plan(gold, seed=1)
            assert gc.collect() == 0
            gold.validate()
            assert gc.collect() == 0
            smatch_plans(gold, golds[1])
            assert gc.collect() == 0
    finally:
        gc.enable()


def _ontology(with_features: bool) -> Ontology:
    """The bundled ontology, or the same concepts with no features."""
    concepts = json.loads((DATA / "ontology.json").read_text())["concepts"]
    if not with_features:
        concepts = {name: {k: v for k, v in entry.items() if k != "features"}
                    for name, entry in concepts.items()}
    return Ontology(concepts)


@pytest.mark.parametrize("with_features, expected", [
    (True, {("c0", "target-container"): "medium-bowl",
            ("c1", "tool"): "mixer", ("c1", "end-state"): "mixed"}),
    (False, {}),
])
def test_default_questions_and_fills_agree(with_features, expected):
    # an absent input slot raises a question iff completion fills it from
    # the ontology
    ontology = _ontology(with_features)
    fragment = PlanFragment(calls=[
        call("", "fetch-and-proportion", concept=Sym("butter"),
             quantity=Num(Fraction(100)), unit=Sym("g"), resultant=Var("pat")),
        call("", "beat", items=Var("pat")),
    ])
    normalize_fragment(fragment, itertools.count().__next__)
    absent = {(c.call_id, role) for c in fragment.calls
              for role in PRIMITIVES.get(c.primitive).roles
              if c.slot(role) is None}
    asked = {(st.call_id, st.role)
             for st in classify_slots(fragment, ontology)} & absent
    ks, _ = fresh_kitchen()
    completion = complete_plan(fragment, initial_plot_node(ks.state_id), ks,
                               ontology, {}, "ks0")
    filled = {(a.call_id, a.role): a.value.name for a in completion.answers
              if a.source == SOURCE_ONTOLOGY}
    assert asked == set(expected)
    assert filled == expected


def _melt(cid, item, ks="ks"):
    return call(cid, "melt", input_ks=Var(ks), item=item,
                output_ks=Var(f"{cid}-ks"), resultant=Var(f"{cid}-melted"))


@pytest.mark.parametrize("calls, annotations, chain_var, failure", [
    ([_melt("c1", Num(Fraction(1)))], {}, None,
     ("q-c1-input-ks", "no kitchen state available")),
    ([call("c1", "preheat-oven", input_ks=Var("ks"), device=Var("d"),
           temperature=Num(Fraction(175), "degrees-C"),
           output_ks=Var("ks1"), heated=Var("hot"))],
     {"locate": {"d": "microwave"}}, "ks0",
     ("q-c1-device", "no microwave present in the kitchen")),
    ([_melt("c1", Var("x"))], {"discourse": {"x": ("butter", {})}}, "ks0",
     ("q-c1-item", "cannot resolve 'butter' in the current context")),
    ([_melt("c1", Var("x"))], {}, "ks0",
     ("q-c1-item", "no knowledge source can fill item of melt")),
], ids=["no-kitchen-state", "nothing-to-locate", "unresolvable-discourse",
        "no-source"])
def test_completion_failures_name_their_question(ontology, calls,
                                                 annotations, chain_var,
                                                 failure):
    ks, _ = fresh_kitchen()
    fragment = PlanFragment(calls=calls, **annotations)
    with pytest.raises(UnderstandingFailure) as err:
        complete_plan(fragment, initial_plot_node(ks.state_id), ks, ontology,
                      {}, chain_var)
    assert (err.value.question_id, str(err.value)) == failure


def _butter_and_sugar(grammar, ontology):
    """A session that has fetched butter, then white sugar, and the serial
    of each portion by kind."""
    ks, config = fresh_kitchen()
    sess = CookingSession(grammar, ontology, ks, config)
    for i, line in enumerate(["225 g butter", "70 g white sugar"]):
        sess.run_step(i, line)
    state = sess.executor.state
    portion = {state.entity(s).kind: s for s in sess.producer_of}
    assert set(portion) == {"butter", "white-sugar"}
    return sess, portion


def test_completion_answers_a_slot_once_and_reuses_resolutions(grammar,
                                                               ontology):
    # two discourse variables in one slot give one answer naming both
    # entities; a variable met again later is substituted silently
    sess, portion = _butter_and_sugar(grammar, ontology)
    fragment = PlanFragment(
        calls=[call("c9", "transfer-contents", input_ks=Var("ks"),
                    source=ValueSet([Var("s"), Var("b")]),
                    destination=Sym("large-bowl"), output_ks=Var("ks1"),
                    resultant=Var("mix")),
               _melt("c10", Var("b"), ks="ks1")],
        discourse={"s": ("white-sugar", {}), "b": ("butter", {})})
    done = complete_plan(fragment, sess.pdm.current, sess.executor.state,
                         ontology, sess.producer_of, sess.chain_var)
    ids = sorted(portion.values())
    answers = {(a.call_id, a.role): a for a in done.answers}
    assert set(answers) == {("c9", "input-ks"), ("c9", "source")}
    source = answers["c9", "source"]
    assert (source.variable, source.source) == ("s", SOURCE_PDM)
    assert source.value.members == tuple(Num(Fraction(i)) for i in ids)
    assert done.calls[0].slot("source") == ValueSet(
        Var(sess.producer_of[i]) for i in ids)
    assert done.calls[1].slot("item") == \
        Var(sess.producer_of[portion["butter"]])


def test_zero_anaphora_skips_what_the_call_already_names(grammar, ontology):
    # the unstated food is not the sugar the same call names as topping,
    # though the sugar is the most recent food
    sess, portion = _butter_and_sugar(grammar, ontology)
    fragment = PlanFragment(
        calls=[call("c9", "sprinkle", input_ks=Var("ks"), targets=Var("z"),
                    topping=Var("t"), output_ks=Var("ks1"),
                    dusted=Var("dusted"))],
        discourse={"z": ("food", {"zero": True}),
                   "t": ("white-sugar", {})})
    done = complete_plan(fragment, sess.pdm.current, sess.executor.state,
                         ontology, sess.producer_of, sess.chain_var)
    assert done.calls[0].slot("targets") == \
        Var(sess.producer_of[portion["butter"]])


def test_verify_direction_needs_a_declared_direction():
    ks, sim = _fresh_sim()
    with pytest.raises(UnsupportedDirection):
        verify_direction("fetch-and-proportion", {"concept": Sym("butter")},
                         ks, sim)
    with pytest.raises(UnsupportedDirection):
        verify_direction("melt", {"item": Num(Fraction(3)),
                                  "resultant": Num(Fraction(3)),
                                  "input-ks": Var("k")}, ks, sim)


def test_verify_portion_direction():
    ks, sim = _fresh_sim()
    fetched = sim.apply("fetch-and-proportion",
                        {"concept": Sym("wheat-flour"),
                         "quantity": Num(Fraction(51)), "unit": Sym("g"),
                         "target-container": Sym("medium-bowl")}, ks)
    portioned = sim.apply("portion-and-arrange",
                          {"source-item": fetched.outputs["resultant"],
                           "portion-unit": Sym("tablespoon"),
                           "destination": Sym("counter-top")}, fetched.state)
    values = {"input-ks": Var("ks"),
              "source-item": fetched.outputs["resultant"],
              "portion-unit": Sym("tablespoon"),
              "portions": portioned.outputs["portions"]}
    report = verify_direction("portion-and-arrange", values,
                              portioned.state, sim)
    assert report.consistent and report.delta == 0
    report = verify_direction(
        "portion-and-arrange", {**values, "portion-unit": Sym("teaspoon")},
        portioned.state, sim)
    assert not report.consistent
    assert report.delta == Fraction(12)  # 17 g portions vs 5 g teaspoons


def _mix_shape(shapes):
    """The shape whose primitives are transfer-contents -> combine."""
    hits = [s for s in shapes
            if s[0] == ("transfer-contents", "combine-homogeneous")]
    assert len(hits) == 1
    return hits[0]


def test_find_recurrent_pairs_on_gold(gold_almond):
    # the fetch -> beat and fetch -> add groups share a call, so only the
    # add -> mix group can be chunked
    shapes = find_recurrent_pairs(gold_almond)
    target = _mix_shape(shapes)
    assert list(shapes.values()) == [[["c10", "c11"], ["c12", "c13"]]]
    assert shapes[target] == [["c10", "c11"], ["c12", "c13"]]


def test_every_recurrent_group_chunks_like_the_gold_plan(gold_names, run_plan):
    groups = 0
    for name in gold_names:
        gold = load_plan(DATA / "gold" / f"{name}.plan.json")
        baseline = run_plan(gold)
        for sig, occurrences in find_recurrent_pairs(gold).items():
            _, chunked = chunk(gold, occurrences, "recurrent")
            for network in (chunked, inline(chunked)):
                network.validate()
                outcome = run_plan(network)
                assert content_hash(outcome.state) == \
                    content_hash(baseline.state), (name, sig)
                assert outcome.trace.minutes == baseline.trace.minutes
            groups += 1
    assert groups == 2  # almond's and vanilla's add -> mix


def test_chunk_builds_composite_and_inline_restores(gold_almond, run_plan):
    shapes = find_recurrent_pairs(gold_almond)
    occurrences = shapes[_mix_shape(shapes)]
    composite, chunked = chunk(gold_almond, occurrences, "add-and-mix")
    assert len(chunked.calls) == len(gold_almond.calls) - 2
    composite_calls = [c for c in chunked.calls
                       if c.primitive == "composite:add-and-mix"]
    assert [c.call_id for c in composite_calls] == ["add-and-mix-0",
                                                    "add-and-mix-1"]
    baseline = run_plan(gold_almond)
    alt = run_plan(chunked)
    assert content_hash(alt.state) == content_hash(baseline.state)
    assert alt.trace.minutes == baseline.trace.minutes

    restored = inline(chunked)
    assert len(restored.calls) == len(gold_almond.calls)
    assert sorted(c.primitive for c in restored.calls) == \
        sorted(c.primitive for c in gold_almond.calls)
    again = run_plan(restored)
    assert content_hash(again.state) == content_hash(baseline.state)


def test_chunk_rejects_bad_occurrences(gold_almond):
    net = PlanNetwork([
        call("a", "melt", input_ks=Var("k0"), item=Num(Fraction(5)),
             output_ks=Var("k1"), resultant=Var("r1")),
        call("b", "melt", input_ks=Var("k1"), item=Num(Fraction(6)),
             output_ks=Var("k2"), resultant=Num(Fraction(7))),
        call("f", "flatten", input_ks=Var("k2"), items=Var("r1"),
             output_ks=Var("k3"), resultant=Var("r3")),
    ])
    with pytest.raises(InputError, match="at least two"):
        chunk(net, [["a"]], "x")
    with pytest.raises(InputError, match="not isomorphic"):
        chunk(net, [["a"], ["f"]], "x")
    # b's resultant, the slot aligned with a's ?r1, holds a constant
    with pytest.raises(InputError, match="variable r1 not aligned"):
        chunk(net, [["a"], ["b"]], "x")
    # both fetches feed the one beat
    with pytest.raises(InputError, match="call c9 lies in two occurrences"):
        chunk(gold_almond, [["c1", "c9"], ["c2", "c9"]], "x")
    # c3 gives c4 its kitchen state and c4 feeds c10: c3 -> c4 -> c10
    # leaves the occurrence and comes back, so its composite would feed itself
    with pytest.raises(InputError, match="re-enters it at call c10"):
        chunk(gold_almond, [["c3", "c10"], ["c5", "c12"]], "x")


def test_chunk_pairs_outputs_by_role():
    a = call("a", "melt", input_ks=Var("k0"), item=Num(Fraction(5)),
             output_ks=Var("k1"), resultant=Var("r1"))
    b = call("b", "melt", resultant=Var("r2"), output_ks=Var("k2"),
             item=Num(Fraction(6)), input_ks=Var("k1"))
    composite, chunked = chunk(PlanNetwork([a, b]), [["a"], ["b"]], "m")
    assert composite.returns == (("b0", "output-ks"),)
    assert [dict(c.slots) for c in chunked.calls] == [
        {"p0": Var("k0"), "p1": Num(Fraction(5)), "out-b0": Var("k1")},
        {"p0": Var("k1"), "p1": Num(Fraction(6)), "out-b0": Var("k2")}]
    assert [dict(c.slots) for c in inline(chunked).calls] == \
        [dict(a.slots), dict(b.slots)]


def test_expand_composites_leaves_plain_calls_alone(gold_almond):
    assert expand_composites(gold_almond.calls) == gold_almond.calls
