"""Command-line front end.

Three subcommands cover the pipeline end to end:

  souschef understand --recipe R.txt --out-dir out/
      Parse the recipe, complete and mentally execute the plan, and write
      plan.json, curve.tsv, questions.json, and trace.jsonl.

  souschef execute --plan plan.json --out-dir out/
      Run a saved plan against a fresh kitchen and write trace.jsonl.
      With --recipe instead of --plan the plan is derived first.

  souschef evaluate --recipe R.txt --gold-plan G.json --goals G.goals.json
      Understand and execute the recipe, execute the gold plan on an
      identical kitchen, and write report.json with the four scores.

Grammar, ontology, and kitchen files default to the bundled data so the
commands work out of the box.  Exit codes: 0 on success with full question
closure, 2 on an understanding failure (including unanswered questions),
1 on bad input or I/O trouble.  Errors print one JSON object to stderr.
A step whose comprehension stopped at the state cap is listed on the
``truncated-steps`` summary line; it does not change the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import InputError, SousChefError, UnderstandingFailure
from .grammar import load_grammar
from .kitchen import KitchenSimulator, content_hash, load_kitchen
from .memory import Ontology
from .metrics import (
    build_report, dish_approximation_score, goal_condition_success,
    load_goals, smatch_plans,
)
from .plans import execute_plan, load_plan, save_plan
from .session import load_recipe, run_recipe

DATA_DIR = Path(__file__).parent / "data"

TRACE_LEVELS = ("summary", "full")


def _default_path(name: str) -> str:
    return str(DATA_DIR / name)


def _resolve_recipe(name: str) -> str:
    """Accept a recipe path or the bare name of a bundled recipe."""
    if Path(name).exists():
        return name
    bundled = DATA_DIR / "recipes" / (Path(name).stem + ".txt")
    if bundled.exists():
        return str(bundled)
    return name


def _emit_error(payload: dict) -> None:
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_world(args) -> tuple:
    """(grammar, ontology, kitchen state, kitchen config) from the flags."""
    ontology = Ontology.load(args.ontology)
    grammar = load_grammar(args.grammar, ontology)
    ks, config = load_kitchen(args.kitchen)
    return grammar, ontology, ks, config


def write_trace(trace, path: Path, level: str) -> None:
    """Write trace.jsonl; the summary level drops per-call slot values."""
    if level == "full":
        trace.write_jsonl(path)
        return
    lines = [json.dumps({"initial-hash": trace.initial_hash}, sort_keys=True)]
    for record in trace.records:
        row = record.to_json()
        row.pop("inputs", None)
        row.pop("outputs", None)
        lines.append(json.dumps(row, sort_keys=True))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _understand(args, world: tuple):
    """Run the full session for a recipe and write its artifacts."""
    document = load_recipe(_resolve_recipe(args.recipe))
    result = run_recipe(document, *world)
    out = _out_dir(args)
    save_plan(result.network, out / "plan.json")
    result.inn.write_curve_tsv(out / "curve.tsv")
    result.inn.write_json(out / "questions.json")
    write_trace(result.trace, out / "trace.jsonl", args.trace_level)
    return result, out


def _print_summary(result, out: Path) -> None:
    closure = result.inn.closure_status()
    print(f"recipe: {result.document.title}")
    print(f"instructions: {len(result.document.steps)}")
    print(f"plan calls: {len(result.network.calls)}")
    print(f"questions: raised {closure['raised']}, "
          f"answered {closure['answered']}, open {closure['open']}")
    print(f"closed: {'yes' if closure['closed'] else 'no'}")
    truncated = [str(s.index) for s in result.steps if s.truncated]
    print(f"truncated-steps: {','.join(truncated) or 'none'}")
    print(f"minutes: {float(result.minutes)}")
    print(f"final-state: {result.trace.final_hash}")
    print(f"out-dir: {out}")


def cmd_understand(args) -> int:
    result, out = _understand(args, _load_world(args))
    _print_summary(result, out)
    if not result.closed:
        _emit_error({"error": "understanding-failure",
                     "message": "questions left unanswered",
                     "open-questions": [q.qid for q in
                                        result.inn.open_questions()]})
        return 2
    return 0


def cmd_execute(args) -> int:
    if args.plan is None and args.recipe is None:
        raise InputError("execute needs --plan or --recipe")
    out = _out_dir(args)
    if args.plan is not None:
        ontology = Ontology.load(args.ontology)
        ks, config = load_kitchen(args.kitchen)
        network = load_plan(args.plan)
    else:
        # KitchenState is copy-on-write: understanding leaves ks as loaded
        world = _load_world(args)
        _, ontology, ks, config = world
        document = load_recipe(_resolve_recipe(args.recipe))
        network = run_recipe(document, *world).network
        save_plan(network, out / "plan.json")
    sim = KitchenSimulator(ontology, config)
    outcome = execute_plan(network, ks, sim, seed=args.seed)
    write_trace(outcome.trace, out / "trace.jsonl", args.trace_level)
    print(f"plan calls: {len(network.calls)}")
    print(f"minutes: {float(outcome.trace.minutes)}")
    print(f"final-state: {content_hash(outcome.state)}")
    print(f"out-dir: {out}")
    return 0


def _gold_default(recipe: str, suffix: str) -> Path:
    return DATA_DIR / "gold" / (Path(recipe).stem + suffix)


def cmd_evaluate(args) -> int:
    gold_plan_path = Path(args.gold_plan) if args.gold_plan \
        else _gold_default(args.recipe, ".plan.json")
    goals_path = Path(args.goals) if args.goals \
        else _gold_default(args.recipe, ".goals.json")
    if not gold_plan_path.exists():
        raise InputError(f"no gold plan at {gold_plan_path}")
    if not goals_path.exists():
        raise InputError(f"no goal file at {goals_path}")

    world = _load_world(args)
    _, ontology, ks, config = world
    result, out = _understand(args, world)
    gold = load_plan(gold_plan_path)
    goals = load_goals(goals_path)

    sim = KitchenSimulator(ontology, config)
    reference = execute_plan(gold, ks, sim, seed=args.seed)

    smatch = smatch_plans(result.network, gold)
    gcs = goal_condition_success(result.state, goals, ontology)
    das = dish_approximation_score(result.state, reference.state, ontology)
    report = build_report(smatch=smatch, gcs=gcs, das=das,
                          minutes=result.minutes)
    report["recipe"] = result.document.title
    report["closure"] = result.inn.closure_status()
    report["final-hash"] = result.trace.final_hash
    report["gold-final-hash"] = content_hash(reference.state)
    _write_json(out / "report.json", report)

    _print_summary(result, out)
    print(f"smatch-f1: {report['smatch']['f1']}")
    print(f"goal-condition-success: "
          f"{report['goal-condition-success']['score']}")
    print(f"dish-approximation-score: "
          f"{report['dish-approximation-score']['score']}")
    if not result.closed:
        _emit_error({"error": "understanding-failure",
                     "message": "questions left unanswered",
                     "open-questions": [q.qid for q in
                                        result.inn.open_questions()]})
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="souschef",
        description="Recipe understanding, execution, and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, recipe_required: bool) -> None:
        p.add_argument("--recipe", required=recipe_required,
                       help="recipe text file, or the name of a bundled one")
        p.add_argument("--grammar", default=_default_path("grammar.cxn"),
                       help="construction grammar file")
        p.add_argument("--ontology", default=_default_path("ontology.json"),
                       help="concept hierarchy file")
        p.add_argument("--kitchen", default=_default_path("kitchen.json"),
                       help="initial kitchen specification")
        p.add_argument("--out-dir", default="out",
                       help="directory for output artifacts")
        p.add_argument("--trace-level", choices=TRACE_LEVELS,
                       default="full", help="detail kept in trace.jsonl")

    p_understand = sub.add_parser(
        "understand", help="parse a recipe into a completed plan")
    common(p_understand, recipe_required=True)
    p_understand.set_defaults(func=cmd_understand)

    p_execute = sub.add_parser(
        "execute", help="run a plan against a fresh kitchen")
    common(p_execute, recipe_required=False)
    p_execute.add_argument("--seed", type=int, default=0,
                           help="seed for the order of ready calls")
    p_execute.add_argument("--plan", help="saved plan.json to run")
    p_execute.set_defaults(func=cmd_execute)

    p_evaluate = sub.add_parser(
        "evaluate", help="score a recipe run against gold data")
    common(p_evaluate, recipe_required=True)
    p_evaluate.add_argument("--seed", type=int, default=0,
                            help="seed for the order of the gold run's calls")
    p_evaluate.add_argument("--gold-plan", help="reference plan.json")
    p_evaluate.add_argument("--goals", help="goal conditions JSON")
    p_evaluate.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnderstandingFailure as exc:
        _emit_error(exc.payload())
        return 2
    except SousChefError as exc:
        _emit_error(exc.payload())
        return 1
    except OSError as exc:
        _emit_error({"error": "io-error", "message": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
