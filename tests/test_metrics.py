"""Metric suite: plan overlap, goals, dish similarity, execution time."""

import itertools
import random
from fractions import Fraction

import pytest

import souschef.plans as plans_module
from souschef import (
    InputError, PlanCall, PlanNetwork, SizeExceededError, build_report,
    dish_approximation_score, goal_condition_success, load_goals, load_plan,
    plan_triples, recipe_execution_time, smatch_exact, smatch_plans,
    smatch_score,
)
from souschef.features import Num, Sym, ValueSet, Var

import reference_smatch


def call(cid, primitive, **slots):
    pairs = tuple((role.replace("_", "-"), term) for role, term in slots.items())
    return PlanCall(cid, primitive, pairs)


def two_step(prefix=""):
    return PlanNetwork([
        call(f"{prefix}a", "get-kitchen-state", kitchen_state_out=Var(f"{prefix}ks")),
        call(f"{prefix}b", "fetch-and-proportion", source_ks=Var(f"{prefix}ks"),
             concept=Sym("butter"), quantity=Num(Fraction(100)), unit=Sym("g"),
             target_container=Sym("medium-bowl"), output_ks=Var(f"{prefix}ks1"),
             resultant=Var(f"{prefix}out")),
    ])


def test_plan_triples_counts():
    triples = plan_triples(two_step())
    assert len(triples.instances) == 2
    # butter, 100, g, medium-bowl stay constants
    assert len(triples.attributes) == 4
    # the kitchen-state chain is the only variable link
    assert len(triples.relations) == 1
    assert triples.relations[0] == ("b", "source-ks", "a")
    assert len(triples) == 7


def test_smatch_is_invariant_under_call_renaming():
    a, b = two_step(), two_step("x-")
    score = smatch_score(plan_triples(a), plan_triples(b))
    assert score.f1 == Fraction(1)
    assert score.matched == 7
    assert smatch_plans(a, b).f1 == Fraction(1)


def test_smatch_detects_constant_differences():
    a = two_step()
    b = PlanNetwork([
        a.calls[0],
        a.calls[1].with_slot("concept", Sym("lard")),
    ])
    score = smatch_plans(a, b)
    assert score.matched == 6
    assert score.f1 == Fraction(6, 7)


def test_smatch_exact_agrees_and_guards_size():
    a, b = two_step(), two_step("x-")
    exact = smatch_exact(plan_triples(a), plan_triples(b))
    searched = smatch_score(plan_triples(a), plan_triples(b))
    assert exact.f1 == searched.f1 == Fraction(1)
    big = PlanNetwork([
        call(f"n{i}", "get-kitchen-state", kitchen_state_out=Var(f"k{i}"))
        for i in range(9)
    ])
    with pytest.raises(SizeExceededError):
        smatch_exact(plan_triples(big), plan_triples(big))


def test_smatch_empty_graph_scores_zero():
    empty = plan_triples(PlanNetwork([]))
    full = plan_triples(two_step())
    assert smatch_score(empty, full).f1 == Fraction(0)


def renamed(network, tag="p"):
    """The network with every variable renamed, as the bench's perturb does."""
    def rename(term):
        if isinstance(term, Var):
            return Var(f"{tag}-{term.name}")
        if isinstance(term, ValueSet):
            return ValueSet(rename(m) for m in term)
        return term

    return PlanNetwork([
        PlanCall(c.call_id, c.primitive,
                 tuple((role, rename(term)) for role, term in c.slots),
                 c.provenance)
        for c in network.calls])


def criterion10_f1(full, reduced):
    """F1 when every triple the two plans share matches (criterion 10)."""
    ta, tb = plan_triples(full), plan_triples(reduced)
    shared = (len(set(ta.instances) & set(tb.instances))
              + len(set(ta.attributes) & set(tb.attributes))
              + len(set(ta.relations) & set(tb.relations)))
    return Fraction(2 * shared, len(ta) + len(tb))


def gold_plan(data_dir, name):
    return load_plan(data_dir / "gold" / f"{name}.plan.json")


def test_smatch_ignores_free_variable_names(data_dir):
    small_a = gold_plan(data_dir, "small-a")
    dropped = PlanNetwork(small_a.calls[1:])
    score = smatch_plans(dropped, renamed(dropped))
    assert score.f1 == Fraction(1)
    assert score.exact


def test_smatch_scores_every_single_call_drop(data_dir, gold_names):
    for name in gold_names:
        gold = gold_plan(data_dir, name)
        for i in range(len(gold.calls)):
            reduced = PlanNetwork(gold.calls[:i] + gold.calls[i + 1:])
            expected = criterion10_f1(gold, reduced)
            ta, tb = plan_triples(gold), plan_triples(renamed(reduced))
            for a, b in ((ta, tb), (tb, ta)):
                score = smatch_score(a, b)
                assert score.exact, (name, i)
                assert score.f1 == expected, (name, i)
                if len(gold.calls) <= 8:
                    assert score == smatch_exact(a, b), (name, i)


def test_smatch_agrees_with_exhaustive_oracle_on_random_subplans(
        data_dir, gold_names):
    rng = random.Random(7)
    golds = [gold_plan(data_dir, name) for name in gold_names]

    def subplan():
        calls = rng.choice(golds).calls
        size = rng.randint(1, min(6, len(calls)))
        keep = sorted(rng.sample(range(len(calls)), size))
        return plan_triples(PlanNetwork([calls[i] for i in keep]))

    for _ in range(300):
        a, b = subplan(), subplan()
        score, oracle = smatch_score(a, b), smatch_exact(a, b)
        assert score.exact
        assert (score.matched, score.f1) == (oracle.matched, oracle.f1)


def test_smatch_search_budget_returns_best_alignment_found(data_dir):
    almond = plan_triples(gold_plan(data_dir, "almond-crescent-cookies"))
    vanilla = plan_triples(gold_plan(data_dir, "vanilla-butter-rounds"))
    forward = smatch_score(almond, vanilla)
    backward = smatch_score(vanilla, almond)
    assert not forward.exact and not backward.exact
    assert smatch_score(almond, vanilla) == forward
    # the best alignment found within the budget, both ways
    assert forward.matched == 62
    assert backward.matched == 62


def test_indexed_smatch_equals_the_scanning_smatch(data_dir, gold_names,
                                                   workloads):
    golds = {name: gold_plan(data_dir, name) for name in gold_names}
    rng = random.Random(11)
    for gold in golds.values():
        for _ in range(20):
            perturbed, _ = workloads.perturb(plans_module, gold, rng)
            ta, tb = plan_triples(gold), plan_triples(perturbed)
            for a, b in ((ta, tb), (tb, ta)):
                assert smatch_score(a, b) == reference_smatch.smatch_score(a, b)
    for a, b in itertools.product(golds.values(), repeat=2):
        ta, tb = plan_triples(a), plan_triples(b)
        assert smatch_score(ta, tb) == reference_smatch.smatch_score(ta, tb)


def test_goal_predicates_against_final_state(almond_result, ontology):
    state = almond_result.state
    goals = [
        {"predicate": "entity-count-of-kind", "kind": "cookie", "count": 30},
        {"predicate": "property-equals", "kind": "cookie",
         "property": "shape", "value": "crescent"},
        {"predicate": "property-equals", "kind": "cookie",
         "property": "shape", "value": "ball"},
        {"predicate": "located-at", "kind": "cookie", "location": "plate"},
        {"predicate": "located-at", "kind": "cookie", "location": "freezer"},
        {"predicate": "amount-within", "kind": "butter", "grams": 500,
         "tolerance": 0},
        {"predicate": "amount-within", "kind": "butter", "grams": 499,
         "tolerance": 0},
        {"predicate": "amount-within", "kind": "butter", "grams": 499,
         "tolerance": 1},
    ]
    score, per_goal = goal_condition_success(state, goals, ontology)
    assert per_goal == [True, True, False, True, False, True, False, True]
    assert score == Fraction(5, 8)


def test_goal_condition_rejects_empty_and_unknown(almond_result, ontology):
    with pytest.raises(InputError):
        goal_condition_success(almond_result.state, [], ontology)
    with pytest.raises(InputError):
        goal_condition_success(almond_result.state,
                               [{"predicate": "smells-nice"}], ontology)


def test_load_goals_accepts_list_or_wrapper(tmp_path):
    plain = tmp_path / "plain.json"
    goal = ('{"predicate": "entity-count-of-kind", "kind": "cookie", '
            '"count": 3}')
    plain.write_text(f'[{goal}]')
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(f'{{"goals": [{goal}]}}')
    assert load_goals(plain) == load_goals(wrapped)
    bad = tmp_path / "bad.json"
    bad.write_text('"nope"')
    with pytest.raises(InputError):
        load_goals(bad)


def test_dish_score_is_one_for_identical_states(almond_result, ontology):
    score, detail = dish_approximation_score(
        almond_result.state, almond_result.state, ontology)
    assert score == Fraction(1)
    assert detail["ingredient-f1"] == 1.0
    assert detail["property-agreement"] == 1.0
    assert detail["properties"]["shape"] == {"predicted": "crescent",
                                             "reference": "crescent"}
    assert detail["properties"]["arrangement"] == {"predicted": 30,
                                                   "reference": 30}


def test_dish_score_penalizes_property_differences(almond_result,
                                                   vanilla_result, ontology):
    score, detail = dish_approximation_score(
        vanilla_result.state, almond_result.state, ontology)
    assert score < Fraction(1)
    assert detail["properties"]["shape"] == {"predicted": "flattened",
                                             "reference": "crescent"}


def test_execution_time_reads_trace(almond_result):
    assert recipe_execution_time(almond_result.trace) == \
        almond_result.trace.minutes
    assert almond_result.trace.minutes == Fraction(113, 2)


def test_build_report_collects_sections(almond_result, ontology):
    smatch = smatch_plans(almond_result.network, almond_result.network)
    gcs = goal_condition_success(
        almond_result.state,
        [{"predicate": "entity-count-of-kind", "kind": "cookie", "count": 30}],
        ontology)
    das = dish_approximation_score(almond_result.state, almond_result.state,
                                   ontology)
    report = build_report(smatch=smatch, gcs=gcs, das=das,
                          minutes=almond_result.minutes)
    assert report["smatch"]["f1"] == 1.0
    assert report["goal-condition-success"] == {
        "score": 1.0, "goals-met": 1, "goals-total": 1, "per-goal": [True]}
    assert report["dish-approximation-score"]["score"] == 1.0
    assert report["time-minutes"] == 56.5
    assert report["time-minutes-exact"] == "113/2"


def test_dish_score_of_unplated_state_scores_loose_food(run_plan, data_dir,
                                                        ontology):
    outcome = run_plan(load_plan(data_dir / "gold" / "small-a.plan.json"))
    score, detail = dish_approximation_score(outcome.state, outcome.state,
                                             ontology)
    assert score == Fraction(1)
    assert detail["properties"]["arrangement"]["predicted"] >= 1
