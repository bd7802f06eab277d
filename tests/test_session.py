"""Recipe documents and the instruction-by-instruction understanding loop."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from souschef import (
    CookingSession, InputError, UnderstandingFailure, extract_fragment,
    goal_condition_success, load_recipe, parse_recipe, run_recipe, save_plan,
)
import souschef.features as features_module
import souschef.grammar as grammar_module
import souschef.plans as plans_module
from souschef.features import Num, Var, vars_of
from souschef.narrative import (
    SOURCE_LANGUAGE, SOURCE_ONTOLOGY, SOURCE_PDM, SOURCE_SIMULATION,
)
from souschef.plans import plan_to_json, question_id
from conftest import ALMOND, VANILLA, fresh_kitchen, perfbench_module, primed


SAMPLE = """\
# Test Bake
Yield: 4 cookies

## Ingredients

- 100 g butter
- 70 g wheat flour

## Instructions

Melt the butter. Serve.
"""


def test_parse_recipe_sections_and_yield():
    doc = parse_recipe(SAMPLE)
    assert doc.title == "Test Bake"
    assert doc.yield_count == 4
    assert doc.yield_noun == "cookies"
    assert doc.ingredients == ["100 g butter", "70 g wheat flour"]
    assert doc.instructions == ["Melt the butter", "Serve"]
    assert doc.steps == ["100 g butter", "70 g wheat flour",
                         "Melt the butter", "Serve"]


def test_parse_recipe_rejects_bad_yield_and_empty_body():
    with pytest.raises(InputError):
        parse_recipe("# T\nYield: few cookies\n## Instructions\nServe.\n")
    with pytest.raises(InputError):
        parse_recipe("# T\n## Instructions\n\n")


def test_markdown_bullets_are_cosmetic(grammar, ontology):
    plain = parse_recipe(SAMPLE.replace("- 100", "100").replace("- 70", "70"))
    bullets = parse_recipe(SAMPLE)
    assert plain.steps == bullets.steps


def test_almond_run_reaches_closure(almond_result):
    closure = almond_result.inn.closure_status()
    assert closure["closed"] is True
    assert closure["open"] == 0
    assert closure["raised"] == closure["answered"]
    assert len(almond_result.document.steps) == 20
    assert len(almond_result.network.calls) == 23
    for step in almond_result.steps:
        assert step.unresolved_tokens == ()
        assert step.applied
    assert almond_result.closed


def test_almond_answers_draw_on_all_four_sources(almond_result):
    by_source = almond_result.inn.closure_status()["by-source"]
    for source in (SOURCE_LANGUAGE, SOURCE_SIMULATION, SOURCE_ONTOLOGY,
                   SOURCE_PDM):
        assert by_source[source] > 0, source


def test_yield_question_answered_by_simulation(almond_result, vanilla_result):
    for result, count in ((almond_result, 30), (vanilla_result, 15)):
        q = result.inn.question("q-recipe-yield")
        assert q.status == "answered"
        assert q.source == SOURCE_SIMULATION
        assert q.answer == Num(Fraction(count))


def test_zero_anaphora_binds_previous_resultant(almond_result):
    steps = almond_result.document.steps
    idx = steps.index("Mix thoroughly")
    combine = next(c for c in almond_result.network.calls
                   if c.provenance == idx
                   and c.primitive == "combine-homogeneous")
    target = combine.slot("target")
    assert isinstance(target, Var)
    producers = almond_result.network.producers()
    producer_call, role = producers[target.name]
    assert producer_call.provenance == idx - 1
    q = almond_result.inn.question(question_id(combine.call_id, "target"))
    assert q.source == SOURCE_PDM


def test_dough_resolves_to_mixing_resultant(almond_result):
    steps = almond_result.document.steps
    idx = steps.index("Take tablespoons of the dough and shape into crescents")
    portion = next(c for c in almond_result.network.calls
                   if c.provenance == idx
                   and c.primitive == "portion-and-arrange")
    source = portion.slot("source-item")
    assert isinstance(source, Var)
    producer_call, role = almond_result.network.producers()[source.name]
    assert producer_call.primitive == "combine-homogeneous"
    assert role == "resultant"
    q = almond_result.inn.question(question_id(portion.call_id, "source-item"))
    assert q.source == SOURCE_PDM


def test_ontology_fills_unstated_tool_and_destination(almond_result):
    network = almond_result.network
    beat = next(c for c in network.calls if c.primitive == "beat")
    q = almond_result.inn.question(question_id(beat.call_id, "tool"))
    assert q.source == SOURCE_ONTOLOGY
    portion = next(c for c in network.calls
                   if c.primitive == "portion-and-arrange")
    q = almond_result.inn.question(question_id(portion.call_id, "destination"))
    assert q.source == SOURCE_ONTOLOGY


def test_understanding_failure_names_the_unknown_token(grammar, ontology):
    ks, config = fresh_kitchen()
    session = CookingSession(grammar, ontology, ks, config)
    with pytest.raises(UnderstandingFailure) as err:
        session.run_step(0, "Defenestrate the butter vigorously.")
    assert "defenestrate" in str(err.value).lower()
    assert err.value.question_id is not None
    assert session.inn.question(err.value.question_id).qid == \
        err.value.question_id


def test_session_runs_incrementally(grammar, ontology):
    ks, config = fresh_kitchen()
    session = CookingSession(grammar, ontology, ks, config)
    report = session.run_step(0, "100 g butter")
    assert report.applied
    assert report.call_ids
    report = session.run_step(1, "Melt the butter.")
    melt = [c for c in session.calls if c.primitive == "melt"]
    assert len(melt) == 1
    # state advanced: the fetched butter is already molten
    butter = [e for e in session.executor.state.entities.values()
              if e.kind == "butter" and e.grams == Fraction(100)]
    assert butter and butter[0].prop("temperature") == Fraction(40)


def test_vanilla_run_summary(vanilla_result):
    assert vanilla_result.minutes == Fraction(43)
    assert len(vanilla_result.network.calls) == 21
    closure = vanilla_result.inn.closure_status()
    assert closure["closed"] is True


def test_rerun_with_shared_grammar_gives_identical_artifacts(
        almond_result, grammar, ontology, data_dir, tmp_path):
    # fresh-variable names must not depend on earlier comprehensions
    ks, config = fresh_kitchen()
    document = load_recipe(data_dir / "recipes" / "almond-crescent-cookies.txt")
    again = run_recipe(document, grammar, ontology, ks, config)
    for name, result in (("first", almond_result), ("again", again)):
        out = tmp_path / name
        out.mkdir()
        save_plan(result.network, out / "plan.json")
        result.inn.write_json(out / "questions.json")
        result.trace.write_jsonl(out / "trace.jsonl")
    for artifact in ("plan.json", "questions.json", "trace.jsonl"):
        assert (tmp_path / "first" / artifact).read_bytes() == \
            (tmp_path / "again" / artifact).read_bytes()


def _renamed_canonically(plan: dict) -> dict:
    """Plan JSON with variables renamed in order of first appearance."""
    names: dict[str, str] = {}

    def term(t):
        if "var" in t:
            return {"var": names.setdefault(t["var"], f"v{len(names)}")}
        if "terms" in t:
            return {"terms": [term(m) for m in t["terms"]]}
        return t

    return {"provenance": plan["provenance"],
            "calls": [{"primitive": c["primitive"],
                       "slots": {r: term(c["slots"][r])
                                 for r in sorted(c["slots"])}}
                      for c in plan["calls"]]}


def test_gold_plans_regenerate(almond_result, vanilla_result, data_dir):
    # tools/freeze_gold.py saves a fresh run of each bundled recipe; that
    # run must still give the committed gold plan up to variable names
    for name, result in ((ALMOND, almond_result), (VANILLA, vanilla_result)):
        assert result.closed, name
        committed = json.loads(
            (data_dir / "gold" / f"{name}.plan.json").read_text())
        rebuilt = json.loads(json.dumps(plan_to_json(result.network)))
        assert _renamed_canonically(rebuilt) == \
            _renamed_canonically(committed), name


def test_bundled_analyses_are_unchanged(almond_result, vanilla_result):
    # which constructions fired, step by step, on both bundled recipes
    expected = json.loads(
        (Path(__file__).parent / "data" / "bundled_analyses.json").read_text())
    for name, result in ((ALMOND, almond_result), (VANILLA, vanilla_result)):
        got = [{"applied": list(s.applied),
                "unresolved_tokens": list(s.unresolved_tokens)}
               for s in result.steps]
        assert got == expected[name], name


def test_bundled_question_ledgers_are_unchanged(almond_result, vanilla_result):
    # which source answered each question of both bundled recipes, with
    # what, and when
    path = Path(__file__).parent / "data" / "bundled_questions.json"
    expected = json.loads(path.read_text())
    for name, result in ((ALMOND, almond_result), (VANILLA, vanilla_result)):
        got = [{k: row[k] for k in ("id", "source", "answer", "answered-at")}
               for row in (q.to_json() for q in result.inn.questions)]
        assert got == expected[name], name


def test_second_preheat_locates_the_oven_by_simulation(grammar, ontology,
                                                       data_dir):
    # the oven a second preheat names is the kitchen's oven (serial 5), not
    # the variable the first preheat heated it into
    text = (data_dir / "recipes" / f"{ALMOND}.txt").read_text().replace(
        "Bake for", "Preheat the oven to 180 degrees C.\nBake for")
    ks, config = fresh_kitchen()
    result = run_recipe(parse_recipe(text), grammar, ontology, ks, config)
    preheats = [c for c in result.network.calls
                if c.primitive == "preheat-oven"]
    assert len(preheats) == 2
    for c in preheats:
        assert c.slot("device") == Num(Fraction(5))
        q = result.inn.question(question_id(c.call_id, "device"))
        assert (q.source, q.answer) == (SOURCE_SIMULATION, Num(Fraction(5)))
    assert result.closed


@pytest.fixture(scope="module")
def recipegen():
    return perfbench_module("recipegen")


@pytest.mark.parametrize("seed", [101, 7])
def test_generated_recipes_meet_their_oracle(grammar, ontology, recipegen,
                                             seed):
    # one variant per template, as the recipes workload's first cycle
    # makes them: full closure and every oracle goal, cookie count included
    rng = random.Random(seed)
    for n, template in enumerate(recipegen.TEMPLATES):
        variant = recipegen.make_variant(rng, template, f"variant-{seed}-{n}")
        ks, config = fresh_kitchen()
        result = run_recipe(parse_recipe(variant.text), grammar, ontology,
                            ks, config)
        assert result.inn.closure_status()["closed"], variant.name
        cookies = result.state.entities_of_kind("cookie", ontology)
        assert len(cookies) == variant.cookies, variant.name
        success, per_goal = goal_condition_success(result.state,
                                                   variant.goals, ontology)
        assert success == 1, (variant.name, per_goal)


CONJUNCTS = [(1, False), (1, True), (2, False), (2, True), (3, False),
             (3, True), (4, False), (4, True)]


@pytest.mark.parametrize("k, repeat", CONJUNCTS)
def test_add_lists_every_conjunct_as_transfer_source(
        grammar, ontology, workloads, monkeypatch, k, repeat):
    # "Add the A and B ..." in a primed discourse: a nested group must not
    # leave its own variable in the source slot
    names = ("white-sugar", "almond-flour", "wheat-flour", "vanilla-extract")
    session, n, sentence, added = primed(grammar, ontology, workloads,
                                         names, k, repeat)
    results = []
    comprehend = grammar.comprehend

    def recording(*args, **kwargs):
        results.append(comprehend(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(grammar, "comprehend", recording)
    report = session.run_step(n, sentence)
    assert not report.unresolved_tokens
    concepts = workloads.transfer_concepts(plans_module, session, report)
    assert sorted(concepts) == sorted(added), sentence
    # the ranking's loose-end count reads the nested members as used too:
    # every referent extract_fragment annotates sits in a call slot
    (result,) = results
    fragment = extract_fragment(result)
    in_slots = {v for c in fragment.calls for _, t in c.slots
                for v in vars_of(t)}
    assert set(fragment.discourse) <= in_slots
    assert grammar_module._count_dangling(result.structure) == 0


def _three_conjunct_calls(grammar, ontology, workloads, monkeypatch, repeat,
                         name, module=grammar_module) -> int:
    """Calls of ``<module>.<name>`` while the session understands "Add the
    A and B and C" (or "Add the A and the B and the C") in the bench's
    primed discourse."""
    names = ("white-sugar", "almond-flour", "wheat-flour", "vanilla-extract",
             "almond-extract")
    session, n, sentence, _ = primed(grammar, ontology, workloads,
                                     names, 3, repeat)
    calls = []
    function = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    report = session.run_step(n, sentence)
    assert not report.unresolved_tokens
    return len(calls)


@pytest.mark.parametrize("repeat, budget", [(False, 138), (True, 138)],
                         ids=["and", "and-the"])
def test_three_conjuncts_stay_within_search_budget(
        grammar, ontology, workloads, monkeypatch, repeat, budget):
    # each budget is the apply_construction count measured when it was set,
    # and may only tighten
    assert _three_conjunct_calls(grammar, ontology, workloads, monkeypatch,
                                 repeat, "apply_construction") <= budget


@pytest.mark.parametrize("repeat, budget", [(False, 37), (True, 37)],
                         ids=["and", "and-the"])
def test_three_conjuncts_stay_within_match_budget(
        grammar, ontology, workloads, monkeypatch, repeat, budget):
    # the search matches a construction once per view of a state (see
    # Grammar.comprehend); without that, 143 calls in either form. Each
    # budget is the match count measured when it was set, and may only
    # tighten
    assert _three_conjunct_calls(grammar, ontology, workloads, monkeypatch,
                                 repeat, "match") <= budget


@pytest.mark.parametrize("repeat, units, facts",
                         [(False, 314, 319), (True, 320, 339)],
                         ids=["and", "and-the"])
def test_three_conjuncts_stay_within_trial_budget(
        grammar, ontology, workloads, monkeypatch, repeat, units, facts):
    # the matcher tries a compiled unit only on units holding its required
    # features, and a form fact only on the root's facts its bound literals
    # index. Each budget is the count of unit and fact trials measured when
    # it was set, and may only tighten
    def trials(name):
        return _three_conjunct_calls(grammar, ontology, workloads,
                                     monkeypatch, repeat, name,
                                     features_module)

    assert trials("_try_unit") <= units
    assert trials("_try_fact") <= facts
