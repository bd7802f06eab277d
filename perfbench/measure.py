"""One workload in one process: set-up, the timed loop, checks, the result.

    python3 perfbench/measure.py --workload recipes --seed 1 --seconds 30 --trace 0

Run from the repository root; `perfbench/run.py` runs this file in a
subprocess under a wall-clock limit.  The last stdout line is the JSON
result.  The lines before it give every metric by name with its unit, the
sample counts, and each failed operation.

--trace 0 measures for --seconds and reports the end-to-end metrics.
--trace 1 runs a fixed amount of work twice, untraced and then traced, and
reports the per-layer metrics; counts repeat exactly for a given seed.

Then, untimed and untraced, the workload's defect probe shows whether each
known defect (NOTES.md) still reproduces.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from clock import RefClock, Samples, median, tail  # noqa: E402
from tracer import Tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
#: fixed work of the traced run: cycles (6 recipes, 6 probe rounds, 9 plans)
#: and keyword arguments of the workload
TRACE_WORK = {"recipes": (1, {}), "conjunct-scaling": (1, {"rounds": 2}),
              "execute-score": (3, {})}
TRACE_DIR = ".perfbench-out"

#: (name, unit, better) of the per-layer metrics, in BENCHMARK.json order
PER_LAYER = [
    ("grammar.apply_construction.calls", "count", "lower"),
    ("grammar.apply_construction.useful_ratio", "ratio", "higher"),
    ("grammar.states_expanded", "count", "lower"),
    ("grammar.Grammar.comprehend.self_ms", "ms", "lower"),
    ("grammar.extract_fragment.total_ms", "ms", "lower"),
    ("grammar.load_grammar.total_ms", "ms", "lower"),
    ("features.unify.calls", "count", "lower"),
    ("features.match.calls", "count", "lower"),
    ("features.match.total_ms", "ms", "lower"),
    ("features.merge.calls", "count", "lower"),
    ("features.merge.total_ms", "ms", "lower"),
    ("features.TransientStructure.content_key.calls", "count", "lower"),
    ("features.TransientStructure.content_key.total_ms", "ms", "lower"),
    ("features.Bindings.bind.calls", "count", "lower"),
    ("features.Bindings.bind.total_ms", "ms", "lower"),
    ("memory.advance_plot.total_ms", "ms", "lower"),
    ("memory.resolve_entity.calls", "count", "lower"),
    ("memory.accessible_entities.mean", "count", "lower"),
    ("plans.classify_slots.total_ms", "ms", "lower"),
    ("plans.complete_plan.total_ms", "ms", "lower"),
    ("plans.normalize_fragment.total_ms", "ms", "lower"),
    ("plans.Executor.run.calls", "count", "lower"),
    ("plans.Executor.run.total_ms", "ms", "lower"),
    ("plans.execute_plan.total_ms", "ms", "lower"),
    ("kitchen.KitchenSimulator.apply.calls", "count", "lower"),
    ("kitchen.KitchenSimulator.apply.total_ms", "ms", "lower"),
    ("kitchen.content_hash.calls", "count", "lower"),
    ("kitchen.content_hash.total_ms", "ms", "lower"),
    ("narrative.questions.raised", "count", "higher"),
    ("narrative.questions.answered", "count", "higher"),
    ("metrics.smatch_plans.total_ms", "ms", "lower"),
    ("metrics.goal_condition_success.total_ms", "ms", "lower"),
    ("metrics.dish_approximation_score.total_ms", "ms", "lower"),
    ("session.CookingSession.run_step.self_ms", "ms", "lower"),
    ("session.parse_recipe.total_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


# ---------------------------------------------------------------------------
# tracing targets


class _SearchObserver:
    """Counts from the arguments and results of the search functions."""

    def __init__(self):
        self.last_state = None

    def apply(self, tracer, args, kwargs, result) -> None:
        if result:
            tracer.counters["apply_useful"] += 1
        # comprehend tries every construction on one state in a row
        if args[1] is not self.last_state:
            self.last_state = args[1]
            tracer.counters["states_expanded"] += 1

    def comprehend(self, tracer, args, kwargs, result) -> None:
        accessible = kwargs.get("accessible", args[2] if len(args) > 2 else ())
        tracer.counters["comprehend_calls"] += 1
        tracer.counters["accessible_total"] += len(accessible)


def trace_targets(p: dict) -> list:
    obs = _SearchObserver()
    g, f, m, pl, k, mt, s = (p["grammar"], p["features"], p["memory"],
                             p["plans"], p["kitchen"], p["metrics"],
                             p["session"])
    return [
        (g, "load_grammar", "span", None),
        (g, "Grammar.comprehend", "span", obs.comprehend),
        (g, "apply_construction", "span", obs.apply),
        (g, "extract_fragment", "span", None),
        (f, "unify", "count", None),
        (f, "match", "span", None),
        (f, "merge", "span", None),
        (f, "TransientStructure.content_key", "span", None),
        (f, "Bindings.bind", "timed", None),
        (m, "advance_plot", "span", None),
        (m, "resolve_entity", "span", None),
        (pl, "classify_slots", "span", None),
        (pl, "complete_plan", "span", None),
        (pl, "normalize_fragment", "span", None),
        (pl, "Executor.run", "span", None),
        (pl, "execute_plan", "span", None),
        (k, "KitchenSimulator.apply", "span", None),
        (k, "content_hash", "span", None),
        (mt, "smatch_plans", "span", None),
        (mt, "goal_condition_success", "span", None),
        (mt, "dish_approximation_score", "span", None),
        (s, "CookingSession.run_step", "span", None),
        (s, "parse_recipe", "span", None),
    ]


def layer_metrics(tracer: Tracer, bench, overhead: float) -> dict:
    raw = tracer.layer_metrics()
    c = tracer.counters
    attempts = raw.get("grammar.apply_construction.calls", 0)
    derived = {
        "grammar.apply_construction.useful_ratio":
            c["apply_useful"] / attempts if attempts else 0.0,
        "grammar.states_expanded": c["states_expanded"],
        "memory.accessible_entities.mean":
            c["accessible_total"] / c["comprehend_calls"]
            if c["comprehend_calls"] else 0.0,
        "narrative.questions.raised": bench.questions[0],
        "narrative.questions.answered": bench.questions[1],
        "trace.overhead_ratio": overhead,
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        value = derived[name] if name in derived else raw.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


# ---------------------------------------------------------------------------
# runs


def work_budget(seconds: float):
    """Whole cycles while one more, at the mean cycle's cost, keeps the timed
    work (operations and any priming) within `seconds` at the reference
    speed; at least one cycle.

    Timing work rather than wall time keeps a slow spell of the host from
    shrinking the run, and whole cycles keep its mix.
    """
    def until(t, done):
        work = sum(t["ops"].reported)
        if "priming" in t:
            work += sum(t["priming"].reported)
        return done == 0 or work * (done + 1) / done <= seconds
    return until


def times(n: int):
    return lambda t, done: done < n


def timed_setups(bench) -> tuple:
    samples = Samples()
    for _ in range(SETUP_REPEATS):
        with bench.clock.block() as b:
            world = bench.setup()
        samples.add(b)
    return world, samples


def end_to_end(name: str, t: dict, setup: Samples, bench) -> tuple:
    """(lines naming every metric, JSON metrics)."""
    ops = t["ops"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    op_ms = median(ops.reported) * 1e3
    ops_per_s = len(ops) / sum(ops.reported) if len(ops) else 0.0
    failed = len(bench.failures)
    lines = [
        f"setup_s {median(setup.reported):.6f} s "
        f"(measured {median(setup.measured):.6f}, n={len(setup)})",
    ]

    def timing(label, samples, scale, unit):
        lines.append(f"{label}.p50 {median(samples.reported) * scale:.4f} "
                     f"{unit} (measured {median(samples.measured) * scale:.4f}"
                     f", n={len(samples)})")
        pct, value = tail(samples.reported)
        if pct is not None:
            lines.append(f"{label}.p{pct} {value * scale:.4f} {unit} "
                         f"(n={len(samples)})")

    if name == "recipes":
        timing("understand_s", t["recipes"], 1, "s")
        timing("sentence_ms", t["steps"], 1e3, "ms")
        lines.append(f"sentences_per_s {ops_per_s:.4f} 1/s")
    elif name == "conjunct-scaling":
        for k in sorted(t["by_k"]):
            s = t["by_k"][k]
            lines.append(f"conjunct_ms.k{k} {median(s.reported) * 1e3:.4f} ms "
                         f"(measured {median(s.measured) * 1e3:.4f}, "
                         f"n={len(s)})")
        lines.append(f"priming_s {sum(t['priming'].reported):.4f} s "
                     f"(untimed discourse lines, n={len(t['priming'])})")
    else:
        timing("execute_ms", t["execute"], 1e3, "ms")
        timing("score_ms", t["score"], 1e3, "ms")
        lines.append(f"plans_per_s {ops_per_s:.4f} 1/s")
    lines += [
        f"op_ms.p50 {op_ms:.4f} ms (n={len(ops)})",
        f"ops_per_s {ops_per_s:.4f} 1/s",
        f"peak_rss_mb {rss_mb:.2f} MB",
        f"reference_loop_ms {median(ops.refs) * 1e3:.4f} ms (n={len(ops)})",
        f"failed_ratio {failed / max(bench.attempted, 1):.4f} "
        f"({failed}/{bench.attempted})",
    ]
    metrics = {
        "setup_s": {"value": median(setup.reported), "unit": "s"},
        "op_ms.p50": {"value": op_ms, "unit": "ms"},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    return lines, metrics


def traced(name: str, seed: int, program: dict, root: Path,
           refclock: RefClock) -> tuple:
    cycles, kwargs = TRACE_WORK[name]
    run = functools.partial(workloads.WORKLOADS[name], **kwargs)
    plain = workloads.Bench(program, refclock)
    world = plain.setup()
    untraced = sum(run(plain, world, seed, times(cycles))["ops"].reported)

    tracer = Tracer(trace_targets(program))
    bench = workloads.Bench(program, refclock, tracer)
    with bench.traced():
        world = bench.setup()
    t = run(bench, world, seed, times(cycles))
    overhead = sum(t["ops"].reported) / untraced
    out = root / TRACE_DIR
    out.mkdir(exist_ok=True)
    spans = out / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_jsonl(spans)
    metrics = layer_metrics(tracer, bench, overhead)
    lines = [f"{k} {v['value']} {v['unit']}" for k, v in metrics.items()]
    lines.append(f"spans {len(tracer.spans)} written to {spans}")
    return bench, world, t, lines, metrics


def defect_lines(name: str, bench, world: dict, seed: int, t: dict) -> tuple:
    """(report lines, whether every probe behaved as known) of the
    workload's defect probe."""
    probe = workloads.DEFECT_PROBES.get(name)
    results = probe(bench, world, seed, t) if probe else []
    lines = [f"known-defect {key}: {outcome} ({detail})"
             for key, outcome, detail in results]
    if "k3" in t:
        k3 = t["k3"]
        lines.append(f"conjunct_ms.k3 {median(k3.reported) * 1e3:.4f} ms "
                     f"(measured {median(k3.measured) * 1e3:.4f}, "
                     f"n={len(k3)}, defect probe)")
    return lines, all(outcome != "unexpected" for _, outcome, _ in results)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = Path.cwd()
    program = workloads.import_program(root)
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    refclock = RefClock()
    if args.trace:
        bench, world, t, lines, metrics = traced(args.workload, args.seed,
                                                 program, root, refclock)
    else:
        bench = workloads.Bench(program, refclock)
        world, setup = timed_setups(bench)
        t = workloads.WORKLOADS[args.workload](bench, world, args.seed,
                                               work_budget(args.seconds))
        lines, metrics = end_to_end(args.workload, t, setup, bench)
    known, as_known = defect_lines(args.workload, bench, world, args.seed, t)
    for line in lines + known:
        print(line)
    for label, reason in bench.failures:
        print(f"failed {label}: {reason}")
    correct = as_known and not bench.failures
    for value in metrics.values():
        if math.isnan(value["value"]):   # nothing completed to measure
            value["value"], correct = 0.0, False
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": len(bench.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
