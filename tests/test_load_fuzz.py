"""Seeded loader fuzz: a kitchen, ontology, plan or goals file with one node
replaced either loads, or fails as a SousChefError; so does running what
loaded."""

import copy
import json
import random

import pytest

from souschef import (
    KitchenSimulator, Ontology, SousChefError, execute_plan,
    goal_condition_success, load_goals, load_grammar, load_kitchen, load_plan,
    load_recipe, run_recipe,
)
from conftest import ALMOND, DATA, VANILLA, fresh_kitchen

#: What a mutant puts in place of the node it replaces.
VALUES = (5, "x", None, [], {}, [1], {"a": 1}, -1, 1.5, True)
MUTANTS = 100
#: Loaded kitchen and ontology mutants that also run the almond recipe
#: (ontology mutants also execute the vanilla gold plan).
RUNS = 10


def _nodes(value, path=()):
    """Every node's path, containers and the root included."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, item in items:
        yield from _nodes(item, path + (key,))


def _mutants(data):
    rng = random.Random(0)
    nodes = list(_nodes(data))
    for _ in range(MUTANTS):
        path, value = rng.choice(nodes), copy.deepcopy(rng.choice(VALUES))
        if not path:
            yield path, value, value
            continue
        mutant = copy.deepcopy(data)
        node = mutant
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        yield path, value, mutant


def _attempt(where, action, *args):
    """action's result, or None when it fails as a SousChefError."""
    try:
        return action(*args)
    except SousChefError:
        return None
    except Exception as exc:  # anything untyped is the failure under test
        pytest.fail(f"{where}: {exc!r}")


@pytest.fixture(scope="module")
def almond():
    return load_recipe(DATA / "recipes" / f"{ALMOND}.txt")


def _fuzz(tmp_path, name, load, *runs, limit=MUTANTS):
    data = json.loads((DATA / name).read_text())
    file = tmp_path / "mutant.json"
    loaded = ran = 0
    for path, value, mutant in _mutants(data):
        where = f"{name} {list(path)} := {value!r}"
        file.write_text(json.dumps(mutant))
        result = _attempt(where, load, file)
        if result is not None:
            loaded += 1
            if ran < limit:
                ran += 1
                for run in runs:
                    _attempt(where, run, result)
    # the fuzz says nothing unless some mutants load and some do not
    assert 0 < loaded < MUTANTS and ran > 0


def test_kitchen_mutants(tmp_path, almond, grammar, ontology):
    _fuzz(tmp_path, "kitchen.json", load_kitchen,
          lambda world: run_recipe(almond, grammar, ontology, *world),
          limit=RUNS)


def test_ontology_mutants(tmp_path, almond):
    def understand(ontology):
        grammar = load_grammar(DATA / "grammar.cxn", ontology)
        run_recipe(almond, grammar, ontology, *fresh_kitchen())

    # vanilla's bake reads the `max-bake-minutes` feature; almond's never does
    vanilla = load_plan(DATA / "gold" / f"{VANILLA}.plan.json")

    def execute(ontology):
        ks, config = fresh_kitchen()
        execute_plan(vanilla, ks, KitchenSimulator(ontology, config))

    _fuzz(tmp_path, "ontology.json", Ontology.load, understand, execute,
          limit=RUNS)


def test_plan_mutants(tmp_path, ontology):
    def run(network):
        ks, config = fresh_kitchen()
        execute_plan(network, ks, KitchenSimulator(ontology, config))

    _fuzz(tmp_path, f"gold/{ALMOND}.plan.json", load_plan, run)


def test_goals_mutants(tmp_path, almond_result, ontology):
    _fuzz(tmp_path, f"gold/{ALMOND}.goals.json", load_goals,
          lambda goals: goal_condition_success(almond_result.state, goals,
                                               ontology))
