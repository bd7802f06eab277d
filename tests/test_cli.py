"""Command-line interface: subcommands, artifacts, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import souschef.grammar as grammar_module
from souschef import Ontology, cli, load_plan
from souschef.cli import main
from souschef.narrative import parse_curve_tsv
from conftest import DATA


ALMOND_RECIPE = str(DATA / "recipes" / "almond-crescent-cookies.txt")


def test_understand_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["understand", "--recipe", ALMOND_RECIPE,
                 "--out-dir", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "closed: yes" in stdout
    assert "truncated-steps: none" in stdout
    for name in ("plan.json", "curve.tsv", "questions.json", "trace.jsonl"):
        assert (out / name).exists(), name
    network = load_plan(out / "plan.json")
    assert len(network.calls) == 23
    rows = parse_curve_tsv((out / "curve.tsv").read_text())
    assert len(rows) == 20
    questions = json.loads((out / "questions.json").read_text())
    assert questions["closure"]["open"] == 0


def test_understand_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    # str hashing, and with it set order, changes with PYTHONHASHSEED
    src = Path(cli.__file__).resolve().parents[1]
    names = ("plan.json", "questions.json", "curve.tsv", "trace.jsonl")
    written = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        subprocess.run([sys.executable, "-m", "souschef.cli", "understand",
                        "--recipe", "almond-crescent-cookies",
                        "--trace-level", "full", "--out-dir", str(out)],
                       env=env, check=True, capture_output=True)
        written.append({name: (out / name).read_bytes() for name in names})
    assert written[0] == written[1]


def test_understand_resolves_bundled_recipe_names(tmp_path):
    code = main(["understand", "--recipe", "vanilla-butter-rounds",
                 "--out-dir", str(tmp_path / "v")])
    assert code == 0


def test_truncated_steps_are_listed_without_changing_the_exit_code(
        tmp_path, capsys, monkeypatch):
    # at a cap of eight states two almond steps stop early, yet each still
    # finds a covering analysis and the recipe closes
    monkeypatch.setattr(grammar_module, "MAX_STATES", 8)
    code = main(["understand", "--recipe", ALMOND_RECIPE,
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "closed: yes" in stdout
    assert "truncated-steps: 9,11" in stdout


def test_execute_replays_saved_plan(tmp_path, capsys):
    out = tmp_path / "u"
    assert main(["understand", "--recipe", ALMOND_RECIPE,
                 "--out-dir", str(out)]) == 0
    first = capsys.readouterr().out
    final = [ln for ln in first.splitlines()
             if ln.startswith("final-state:")][0]

    replay = tmp_path / "x"
    code = main(["execute", "--plan", str(out / "plan.json"),
                 "--out-dir", str(replay)])
    assert code == 0
    second = capsys.readouterr().out
    assert final in second
    assert (replay / "trace.jsonl").exists()


def test_execute_rejects_open_variable_inside_struct(tmp_path, capsys):
    plan = {"calls": [
        {"primitive": "get-kitchen-state",
         "slots": {"kitchen-state-out": {"var": "ks0"}}},
        {"primitive": "set-timer/elapse",
         "slots": {"input-ks": {"var": "ks0"},
                   "duration": {"const": {"struct": {"min": {"var": "lo"}}}},
                   "output-ks": {"var": "ks1"}, "elapsed": {"var": "done"}}},
    ]}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    code = main(["execute", "--plan", str(path),
                 "--out-dir", str(tmp_path / "x")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "input-error",
                   "message": "plan has open slots: c1.duration(?lo)"}


@pytest.mark.parametrize("plan, field", [
    ({"calls": [{"slots": {}}]}, "calls[0].primitive"),
    ({"calls": [42]}, "calls[0]"),
    ({"calls": 5}, "calls"),
    ({"calls": [{"primitive": "melt", "slots": []}]}, "calls[0].slots"),
    ({"calls": [], "provenance": 3}, "provenance"),
    ({"calls": [{"primitive": "get-kitchen-state",
                 "slots": {"kitchen-state-out": {"var": 5}}}]},
     "{'var': 5}"),
    ({"calls": [{"primitive": "set-timer/elapse",
                 "slots": {"duration": {"const": {"num": "x"}}}}]},
     "{'num': 'x'}"),
], ids=["no-primitive", "call-not-an-object", "calls-not-a-list",
        "slots-not-an-object", "provenance-not-a-list", "var-not-a-name",
        "num-not-a-number"])
def test_execute_rejects_malformed_plan_file(tmp_path, capsys, plan, field):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    code = main(["execute", "--plan", str(path),
                 "--out-dir", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "input-error"
    assert field in payload["message"]


@pytest.mark.parametrize("goals, missing", [
    ('[{"predicate": "entity-count-of-kind", "count": 3}]', "kind"),
    ('{"goals": [{"predicate": "located-at", "kind": "cookie"}]}',
     "location"),
    ('[{"predicate": "smells-nice"}]', "predicate"),
    ('[42]', "predicate"),
    ('[{"predicate"', "JSON"),
    ('[{"predicate": "entity-count-of-kind", "kind": "cookie",'
     ' "count": "three"}]', "'count'"),
    ('[{"predicate": "amount-within", "kind": "butter", "grams": "x"}]',
     "'grams'"),
    ('[{"predicate": "amount-within", "kind": "butter", "grams": 500,'
     ' "tolerance": Infinity}]', "'tolerance'"),
    ('[{"predicate": "entity-count-of-kind", "kind": 5, "count": 30}]',
     "'kind'"),
    ('[{"predicate": "located-at", "kind": "cookie", "location": "plate",'
     ' "colour": "red"}]', "'colour'"),
], ids=["no-kind", "no-location", "unknown-predicate", "goal-not-an-object",
        "not-json", "count-not-an-integer", "grams-not-a-number",
        "tolerance-not-finite", "kind-not-a-string", "unknown-field"])
def test_evaluate_rejects_malformed_goal_file(tmp_path, capsys, goals,
                                              missing):
    path = tmp_path / "goals.json"
    path.write_text(goals)
    code = main(["evaluate", "--recipe", "almond-crescent-cookies",
                 "--goals", str(path), "--out-dir", str(tmp_path / "e")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "input-error"
    assert missing in payload["message"]


@pytest.mark.parametrize("flag, world, field", [
    ("--kitchen", {"locations": 3}, "locations"),
    ("--kitchen", {"config": 5}, "config"),
    ("--ontology", {"concepts": {"butter": 5}}, "butter"),
    ("--ontology", {"concepts": {"butter": {"is-a": 5}}}, "is-a"),
    ("--kitchen", {"locations": {"pantry": [5]}}, "locations.pantry[0]"),
    ("--kitchen", {"locations": {"fridge": [{"kind": "butter", "gram": 500}]}},
     "locations.fridge[0].gram"),
    ("--kitchen", '{"locations": ', "kitchen file is not valid JSON"),
    ("--ontology", "concepts", "ontology file is not valid JSON"),
    ("--ontology", {"concepts": {"butter": {"features": {"melts": [1]}}}},
     "concepts.butter.features.melts"),
    ("--ontology", {"concepts": {"dough": {"features": {
        "max-bake-minutes": "x"}}}},
     "ontology file: 'concepts.dough.features.max-bake-minutes' must be a "
     "number, got 'x'"),
], ids=["kitchen-locations", "kitchen-config", "ontology-concept",
        "ontology-is-a", "kitchen-entry", "kitchen-misspelt-key",
        "kitchen-not-json", "ontology-not-json", "ontology-feature-value",
        "ontology-bake-limit"])
def test_malformed_world_file_is_an_input_error(tmp_path, capsys, flag,
                                                world, field):
    path = tmp_path / "world.json"
    path.write_text(world if isinstance(world, str) else json.dumps(world))
    code = main(["understand", "--recipe", "almond-crescent-cookies", flag,
                 str(path), "--out-dir", str(tmp_path / "u")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "input-error"
    assert field in payload["message"]


def test_malformed_file_message_does_not_depend_on_the_hash_seed(tmp_path):
    # faults at several keys of one object: the message names the first in
    # file order under any hash seed
    src = Path(cli.__file__).resolve().parents[1]
    kitchen = tmp_path / "kitchen.json"
    kitchen.write_text(json.dumps({"locations": {
        "pantry": [{"kind": "butter", "grams": "x", "count": "y"}],
        "garage": [], "cellar": []}}))
    messages = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        run = subprocess.run([sys.executable, "-m", "souschef.cli",
                              "understand", "--recipe", ALMOND_RECIPE,
                              "--kitchen", str(kitchen),
                              "--out-dir", str(tmp_path / seed)],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 1
        messages.append(run.stderr)
    assert messages[0] == messages[1]
    assert "locations.pantry[0].grams" in messages[0]


def test_execute_needs_plan_or_recipe(tmp_path, capsys):
    code = main(["execute", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input-error"


def test_execute_summary_trace_level_drops_slot_values(tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["execute", "--recipe", "small-is-not-a-recipe",
                 "--out-dir", str(out)])
    assert code == 1  # unknown recipe path surfaces as an I/O error
    capsys.readouterr()
    code = main(["execute", "--recipe", ALMOND_RECIPE, "--out-dir", str(out),
                 "--trace-level", "summary"])
    assert code == 0
    capsys.readouterr()
    rows = [json.loads(ln)
            for ln in (out / "trace.jsonl").read_text().splitlines()]
    assert all("inputs" not in r for r in rows[1:])


def test_evaluate_against_bundled_gold(tmp_path, capsys):
    out = tmp_path / "e"
    code = main(["evaluate", "--recipe", "almond-crescent-cookies",
                 "--out-dir", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "smatch-f1: 1.0" in stdout
    assert "truncated-steps: none" in stdout
    assert "goal-condition-success: 1.0" in stdout
    assert "dish-approximation-score: 1.0" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["smatch"]["f1"] == 1.0
    assert report["smatch"]["exact"] is True
    assert report["goal-condition-success"]["score"] == 1.0
    assert report["dish-approximation-score"]["score"] == 1.0
    assert report["final-hash"] == report["gold-final-hash"]
    assert report["closure"]["open"] == 0


def test_evaluate_requires_gold_files(tmp_path, capsys):
    recipe = tmp_path / "novel.txt"
    recipe.write_text("# Novel\n## Instructions\nServe.\n")
    code = main(["evaluate", "--recipe", str(recipe),
                 "--out-dir", str(tmp_path / "e")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input-error"
    assert "gold plan" in err["message"]


def test_missing_recipe_is_io_error(tmp_path, capsys):
    code = main(["understand", "--recipe", "no-such-file.txt",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "io-error"


def test_ununderstandable_recipe_exits_two(tmp_path, capsys):
    recipe = tmp_path / "weird.txt"
    recipe.write_text("# Mystery\n## Ingredients\n- 100 g butter\n"
                      "## Instructions\nDefenestrate the butter vigorously.\n")
    code = main(["understand", "--recipe", str(recipe),
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "understanding-failure"


def test_each_command_loads_the_world_once(tmp_path, monkeypatch):
    loads = {"ontology": 0, "kitchen": 0}
    real_ontology, real_kitchen = Ontology.load, cli.load_kitchen

    def load_ontology(path):
        loads["ontology"] += 1
        return real_ontology(path)

    def load_kitchen(path):
        loads["kitchen"] += 1
        return real_kitchen(path)

    monkeypatch.setattr(Ontology, "load", staticmethod(load_ontology))
    monkeypatch.setattr(cli, "load_kitchen", load_kitchen)
    commands = (
        ["understand", "--recipe", "vanilla-butter-rounds"],
        ["execute", "--recipe", "vanilla-butter-rounds"],
        ["execute", "--plan", str(tmp_path / "0" / "plan.json")],
        ["evaluate", "--recipe", "vanilla-butter-rounds"],
    )
    for i, argv in enumerate(commands):
        loads.update(ontology=0, kitchen=0)
        assert main(argv + ["--out-dir", str(tmp_path / str(i))]) == 0, argv
        assert loads == {"ontology": 1, "kitchen": 1}, argv
