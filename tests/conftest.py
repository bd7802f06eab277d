"""Shared fixtures: bundled data, cached recipe runs, fresh kitchens."""

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from souschef import (
    CookingSession, KitchenSimulator, Ontology, execute_plan, load_grammar,
    load_kitchen, load_plan, load_recipe, run_recipe,
)

DATA = Path(__file__).resolve().parents[1] / "src" / "souschef" / "data"

ALMOND = "almond-crescent-cookies"
VANILLA = "vanilla-butter-rounds"


def fresh_kitchen():
    """A brand-new default kitchen (state, config)."""
    return load_kitchen(DATA / "kitchen.json")


def perfbench_module(name: str):
    """A module of the benchmark, imported read-only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1]
                               / "perfbench"))
        return importlib.import_module(name)


def primed(grammar, ontology, workloads, names, k, repeat) -> tuple:
    """(session that has understood the probe discourse of names, its line
    count, the k-conjunct "Add" sentence, the conjuncts' names)."""
    lines, ((_, _, sentence, added),) = workloads.probe_round(
        random.Random(k), names, ((k, repeat),))
    ks, config = fresh_kitchen()
    session = CookingSession(grammar, ontology, ks, config)
    for i, line in enumerate(lines):
        session.run_step(i, line)
    return session, len(lines), sentence, added


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def ontology():
    return Ontology.load(DATA / "ontology.json")


@pytest.fixture(scope="session")
def grammar(ontology):
    return load_grammar(DATA / "grammar.cxn", ontology)


@pytest.fixture(scope="session")
def workloads():
    return perfbench_module("workloads")


@pytest.fixture(scope="session")
def corpus():
    """``tools/corpus.py``, the comprehension fingerprints, as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "corpus.py"
    spec = importlib.util.spec_from_file_location("corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def kitchen():
    return fresh_kitchen()


def _run(name, grammar, ontology):
    ks, config = fresh_kitchen()
    document = load_recipe(DATA / "recipes" / f"{name}.txt")
    return run_recipe(document, grammar, ontology, ks, config)


@pytest.fixture(scope="session")
def almond_result(grammar, ontology):
    """Full understanding run of the bundled almond recipe (read-only)."""
    return _run(ALMOND, grammar, ontology)


@pytest.fixture(scope="session")
def vanilla_result(grammar, ontology):
    return _run(VANILLA, grammar, ontology)


@pytest.fixture(scope="session")
def gold_almond():
    return load_plan(DATA / "gold" / f"{ALMOND}.plan.json")


@pytest.fixture(scope="session")
def gold_names():
    return (ALMOND, VANILLA, "small-a", "small-b", "small-c")


@pytest.fixture(scope="session")
def run_plan(ontology):
    """Execute a plan network against a fresh default kitchen."""

    def _run_plan(network, seed=None):
        ks, config = fresh_kitchen()
        sim = KitchenSimulator(ontology, config)
        return execute_plan(network, ks, sim, seed=seed)

    return _run_plan
