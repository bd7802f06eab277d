"""The three souschef workloads and their correctness checks.

Each workload is a closed loop with one client: the next recipe, probe
sentence or plan starts only after the previous one finished.  Work comes
in whole cycles (recipes, probe rotations, plan cycles) so that every run holds
the same mix; `until(t, cycles_done)` decides before each cycle whether to
go on, given the samples `t` taken so far.

Every program function is looked up on its module at call time, so the
traced run's wrappers see the calls.  NOTES.md says why each workload
exists and what each metric should move.
"""

from __future__ import annotations

import contextlib
import random
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from clock import Samples
import recipegen

BUNDLED = {"almond-crescent-cookies": 30, "vanilla-butter-rounds": 15}
GOLD_PLANS = ("almond-crescent-cookies", "vanilla-butter-rounds",
              "small-a", "small-b", "small-c")
#: (k, repeat "the") probe sentences of one conjunct-scaling round; k = 3
#: fails at the seed and is run once per run by the defect probe instead
PROBE_ROUND = ((1, True), (2, False), (2, True))
#: execute-score plans whose gold run leaves no food on a plate, so there is
#: no dish to score (and the score raises: see "dish-score-unplated")
UNPLATED = ("small-a", "small-c")
#: execute-score cycle: the recipe plans twice as often as the small graphs
PLAN_CYCLE = ("almond-crescent-cookies", "vanilla-butter-rounds", "small-a",
              "almond-crescent-cookies", "vanilla-butter-rounds", "small-b",
              "almond-crescent-cookies", "vanilla-butter-rounds", "small-c")

def _known_defect(exc: BaseException) -> str:
    """The known defect (NOTES.md) an exception shows, or None.

    The workloads' operations avoid the known defects; the probes in
    DEFECT_PROBES show each once a run.
    """
    frames = {f.name for f in traceback.extract_tb(exc.__traceback__)}
    if "no knowledge source can fill source of transfer-contents" in str(exc):
        return "k3-completion"
    if isinstance(exc, AttributeError) and "_dish_leaves" in frames \
            and "'tuple' object has no attribute 'is_food'" in str(exc):
        return "dish-score-unplated"
    return None


def _error(exc: BaseException) -> str:
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"{type(exc).__name__}: {exc} "
            f"({Path(where.filename).name}:{where.lineno})")


def import_program(root: Path) -> dict:
    """The souschef modules from <root>/src, never from anywhere else."""
    src = root / "src"
    if not (src / "souschef" / "__init__.py").is_file():
        raise SystemExit(f"no souschef sources under {src}; run the "
                         "benchmark from the repository root")
    sys.path.insert(0, str(src))
    import souschef
    if Path(souschef.__file__).resolve().parent != (src / "souschef").resolve():
        raise SystemExit(f"imported souschef from {souschef.__file__}, "
                         f"not from {src}")
    from souschef import (features, grammar, kitchen, memory, metrics, plans,
                          session)
    return {"features": features, "grammar": grammar, "kitchen": kitchen,
            "memory": memory, "metrics": metrics, "plans": plans,
            "session": session, "data": src / "souschef" / "data"}


class Bench:
    """Program modules, bundled data, clock, failure ledger, optional tracer."""

    def __init__(self, program: dict, refclock, tracer=None):
        self.p = program
        self.data: Path = program["data"]
        self.clock = refclock
        self.tracer = tracer
        self.attempted = 0
        self.failures: list = []     # (op label, reason)
        self.questions = [0, 0]      # raised, answered
        self.smatch_optimal = [0, 0]  # scores at the criterion-10 F1, scores

    def traced(self):
        """The tracer's wrappers for the block; a no-op when untraced."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.active()

    # -- world ---------------------------------------------------------------

    def load_world(self) -> tuple:
        """Fresh ontology, grammar and kitchen, as `souschef understand` loads."""
        memory, grammar, kitchen = (self.p["memory"], self.p["grammar"],
                                    self.p["kitchen"])
        ontology = memory.Ontology.load(self.data / "ontology.json")
        gram = grammar.load_grammar(self.data / "grammar.cxn", ontology)
        ks, config = kitchen.load_kitchen(self.data / "kitchen.json")
        return ontology, gram, ks, config

    def setup(self) -> dict:
        """World plus gold data: plans, goals and each plan's reference run."""
        plans, metrics, kitchen = (self.p["plans"], self.p["metrics"],
                                   self.p["kitchen"])
        ontology, gram, ks, config = self.load_world()
        gold = {n: plans.load_plan(self.data / "gold" / f"{n}.plan.json")
                for n in GOLD_PLANS}
        goals = {n: metrics.load_goals(self.data / "gold" / f"{n}.goals.json")
                 for n in BUNDLED}
        texts = {n: (self.data / "recipes" / f"{n}.txt").read_text()
                 for n in BUNDLED}
        reference = {n: plans.execute_plan(
            plan, ks, kitchen.KitchenSimulator(ontology, config))
            for n, plan in gold.items()}
        hashes = {n: kitchen.content_hash(out.state)
                  for n, out in reference.items()}
        return {"ontology": ontology, "grammar": gram, "ks": ks,
                "config": config, "gold": gold, "goals": goals,
                "texts": texts, "reference": reference, "hashes": hashes}

    # -- ledger --------------------------------------------------------------

    def op(self, label: str, fn):
        """Run one operation; any exception fails it and returns None.

        The benchmark must go on to count every other operation, so this
        boundary catches Exception and records the error.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.run_id = self.attempted
        try:
            return fn()
        except Exception as exc:
            self.failures.append((label, _error(exc)))
            return None

    def check(self, label: str, ok: bool, reason: str) -> bool:
        """A failed check fails the operation; callers stop at the first."""
        if not ok:
            self.failures.append((label, reason))
        return ok

    def count_questions(self, status: dict, since: dict = None) -> None:
        """Add the questions of an `inn.closure_status()`, less `since`."""
        for i, key in enumerate(("raised", "answered")):
            self.questions[i] += status[key] - (since[key] if since else 0)


def _timed_session(session_mod, refclock, samples: Samples):
    class TimedSession(session_mod.CookingSession):
        """CookingSession that times each understanding step."""

        def run_step(self, index, text):
            try:
                with refclock.block() as b:
                    return super().run_step(index, text)
            finally:   # a failing step counts with the time it took
                samples.add(b)
    return TimedSession


# ---------------------------------------------------------------------------
# recipes


@dataclass
class RecipeItem:
    name: str
    text: str
    goals: list
    cookies: int
    gold: object = None     # gold plan, bundled recipes only


def recipe_cycles(world: dict, seed: int):
    """Lists of recipes, each understood once per run: the bundled recipes
    and one variant per template, then one variant per template."""
    rng = random.Random(seed)
    cycle = [RecipeItem(name, world["texts"][name], world["goals"][name],
                        cookies, world["gold"][name])
             for name, cookies in BUNDLED.items()]
    n = 0
    while True:
        for tpl in recipegen.TEMPLATES:
            v = recipegen.make_variant(rng, tpl, f"variant-{seed}-{n}")
            cycle.append(RecipeItem(v.name, v.text, v.goals, v.cookies))
            n += 1
        yield cycle
        cycle = []


def understand(bench: Bench, item: RecipeItem, t: dict) -> None:
    session = bench.p["session"]
    ontology, gram, ks, config = bench.load_world()
    sess = _timed_session(session, bench.clock, t["steps"])(
        gram, ontology, ks, config)

    def run():
        with bench.traced():
            doc = session.parse_recipe(item.text)
            with bench.clock.block() as b:
                result = sess.run(doc)
        t["recipes"].add(b)
        return result

    result = bench.op(item.name, run)
    if result is not None:
        check_recipe(bench, item, result, ontology)


def check_recipe(bench: Bench, item: RecipeItem, result, ontology) -> None:
    metrics = bench.p["metrics"]
    label = item.name
    closure = result.inn.closure_status()
    bench.count_questions(closure)
    if not bench.check(label, closure["closed"],
                       f"{closure['open']} questions open"):
        return
    cookies = len(result.state.entities_of_kind("cookie", ontology))
    if not bench.check(label, cookies == item.cookies,
                       f"{cookies} cookies, expected {item.cookies}"):
        return
    gcs, per_goal = metrics.goal_condition_success(result.state, item.goals,
                                                   ontology)
    if not bench.check(label, gcs == 1,
                       f"goal-condition success {gcs} ({per_goal})"):
        return
    if item.gold is not None:
        f1 = metrics.smatch_plans(result.network, item.gold).f1
        bench.check(label, f1 == 1, f"smatch F1 {f1} against the gold plan")


def run_recipes(bench: Bench, world: dict, seed: int, until) -> dict:
    steps = Samples()
    t = {"steps": steps, "recipes": Samples(), "ops": steps}
    cycles = recipe_cycles(world, seed)
    done = 0
    while until(t, done):
        for item in next(cycles):
            understand(bench, item, t)
        done += 1
    return t


# ---------------------------------------------------------------------------
# conjunct-scaling


def rotation(rng: random.Random) -> list:
    """The ingredients (A, B, C) of the rounds of one cycle: every window of
    three of a seeded circular order, so that each ingredient is A, B and C
    once.  The cost of a step depends on its nouns; this keeps every run's
    mix of them alike."""
    order = sorted(recipegen.EXTRAS)
    rng.shuffle(order)
    n = len(order)
    return [tuple(order[(i + j) % n] for j in range(3)) for i in range(n)]


def probe_round(rng: random.Random, names: tuple,
                shapes=PROBE_ROUND) -> tuple:
    """Discourse lines and the probe sentences of one round."""
    nps = [recipegen.EXTRAS[k][0] for k in names]
    lines = [recipegen.ingredient_line(rng, "butter")]
    lines += [recipegen.ingredient_line(rng, k) for k in names]
    lines.append("Melt the butter")
    probes = []
    for k, repeat in shapes:
        joiner = " and the " if repeat else " and "
        probes.append((k, repeat, "Add the " + joiner.join(nps[:k]),
                       tuple(names[:k])))
    return lines, probes


def transfer_concepts(plans, sess, report) -> list:
    """Concepts the step's transfer-contents call lists as its source."""
    producers = plans.PlanNetwork(list(sess.calls)).producers()
    concepts = []
    for call in sess.calls:
        if call.call_id not in report.call_ids or \
                call.primitive != "transfer-contents":
            continue
        source = call.slot("source")
        members = source if isinstance(source, plans.ValueSet) else [source]
        for var in (m.name for m in members if isinstance(m, plans.Var)):
            producer = producers.get(var)
            concept = producer[0].slot("concept") if producer else None
            concepts.append(getattr(concept, "name", None))
    return concepts


def primed_session(bench: Bench, lines: list, t: dict):
    """A fresh session that has understood the discourse lines, untraced.

    The priming is timed into t["priming"]: it is not an operation, but it
    counts towards the run's work budget.
    """
    ontology, gram, ks, config = bench.load_world()
    sess = bench.p["session"].CookingSession(gram, ontology, ks, config)
    with bench.clock.block() as b:
        for i, line in enumerate(lines):
            sess.run_step(i, line)
    t["priming"].add(b)
    return sess


def probe_problem(bench: Bench, sess, report, sentence: str,
                  names: tuple) -> str:
    """Why a probe step's result is wrong, or None."""
    if report.unresolved_tokens:
        return f"uncovered tokens {report.unresolved_tokens} in {sentence!r}"
    concepts = transfer_concepts(bench.p["plans"], sess, report)
    if sorted(concepts) != sorted(names):
        return f"transfer-contents lists {concepts}, expected {list(names)}"
    return None


def run_probe(bench: Bench, lines: list, probe: tuple, t: dict) -> None:
    k, repeat, sentence, names = probe
    sess = primed_session(bench, lines, t)
    before_q = sess.inn.closure_status()
    label = f"k{k}{'-the' if repeat else ''}"

    def run():
        with bench.traced():
            try:
                with bench.clock.block() as b:
                    return sess.run_step(len(lines), sentence)
            finally:   # a failing step counts with the time it took
                t["by_k"].setdefault(k, Samples()).add(b)
                t["ops"].add(b)

    report = bench.op(label, run)
    bench.count_questions(sess.inn.closure_status(), since=before_q)
    if report is not None:
        problem = probe_problem(bench, sess, report, sentence, names)
        bench.check(label, problem is None, problem)


def run_conjuncts(bench: Bench, world: dict, seed: int, until,
                  rounds: int = None) -> dict:
    """Cycles of one round (k1, k2, k2-the) per window of `rotation`; the
    traced run takes only the first `rounds` of a cycle."""
    rng = random.Random(seed)
    t = {"ops": Samples(), "by_k": {}, "priming": Samples()}
    done = 0
    while until(t, done):
        for names in rotation(rng)[:rounds]:
            lines, probes = probe_round(rng, names)
            for probe in probes:
                run_probe(bench, lines, probe, t)
        done += 1
    return t


# ---------------------------------------------------------------------------
# execute-score


def perturb(plans, network, rng: random.Random) -> tuple:
    """Rename every variable and drop one seeded call.

    Returns (perturbed plan, reduced plan that keeps the original names).
    """
    dropped = rng.randrange(len(network.calls))
    kept = [c for i, c in enumerate(network.calls) if i != dropped]
    names: dict = {}
    suffix = rng.randrange(1 << 20)

    def rename(term):
        if isinstance(term, plans.Var):
            if term.name not in names:
                names[term.name] = f"p{suffix}-{len(names)}"
            return plans.Var(names[term.name])
        if isinstance(term, plans.ValueSet):
            return plans.ValueSet(rename(m) for m in term)
        return term

    renamed = [plans.PlanCall(c.call_id, c.primitive,
                              tuple((r, rename(v)) for r, v in c.slots),
                              c.provenance) for c in kept]
    return plans.PlanNetwork(renamed), plans.PlanNetwork(kept)


def criterion10_f1(metrics, full, reduced) -> Fraction:
    """F1 when every surviving triple matches, as in acceptance criterion 10."""
    ta, tb = metrics.plan_triples(full), metrics.plan_triples(reduced)
    shared = (len(set(ta.instances) & set(tb.instances))
              + len(set(ta.attributes) & set(tb.attributes))
              + len(set(ta.relations) & set(tb.relations)))
    return Fraction(2 * shared, len(ta) + len(tb))


def execute_and_score(bench: Bench, world: dict, name: str, rng, t: dict):
    plans, kitchen, metrics = (bench.p["plans"], bench.p["kitchen"],
                               bench.p["metrics"])
    ontology = world["ontology"]
    gold = world["gold"][name]
    order_seed = rng.randrange(1 << 30)
    perturbed, reduced = perturb(plans, gold, rng)
    expected_f1 = criterion10_f1(metrics, gold, reduced)
    sim = kitchen.KitchenSimulator(ontology, world["config"])
    label = f"{name}#{order_seed}"

    def run():
        with bench.traced():
            with bench.clock.block() as executed:
                outcome = plans.execute_plan(gold, world["ks"], sim,
                                             seed=order_seed)
            with bench.clock.block() as scored:
                f1 = metrics.smatch_plans(gold, perturbed, seed=order_seed).f1
                gcs = das = None
                if name in world["goals"]:
                    gcs, _ = metrics.goal_condition_success(
                        outcome.state, world["goals"][name], ontology)
                if name not in UNPLATED:
                    das, _ = metrics.dish_approximation_score(
                        outcome.state, world["reference"][name].state,
                        ontology)
        t["ops"].record(executed.measured + scored.measured,
                        t["execute"].add(executed) + t["score"].add(scored),
                        (t["execute"].refs[-1] + t["score"].refs[-1]) / 2)
        return outcome, f1, gcs, das

    result = bench.op(label, run)
    if result is None:
        return
    outcome, f1, gcs, das = result
    digest = kitchen.content_hash(outcome.state)
    # Hill-climbing smatch can stop below the optimum, which the formula
    # gives (it equals smatch_exact wherever that fits); never above it.
    bench.smatch_optimal[0] += f1 == expected_f1
    bench.smatch_optimal[1] += 1
    (bench.check(label, digest == world["hashes"][name],
                 f"final hash {digest}, reference {world['hashes'][name]}")
     and bench.check(label, gcs in (None, 1), f"goal-condition success {gcs}")
     and bench.check(label, das in (None, 1), f"dish approximation {das}")
     and bench.check(label, f1 <= expected_f1 < 1,
                     f"smatch F1 {f1}, criterion 10 gives {expected_f1}"))


def run_execute(bench: Bench, world: dict, seed: int, until) -> dict:
    rng = random.Random(seed)
    t = {"execute": Samples(), "score": Samples(), "ops": Samples()}
    done = 0
    while until(t, done):
        for name in PLAN_CYCLE:
            execute_and_score(bench, world, name, rng, t)
        done += 1
    return t


# ---------------------------------------------------------------------------
# known defects


def _expect_defect(key: str, fn) -> tuple:
    """(outcome, detail) of a call that shows the known defect `key`:
    "reproduces", "not seen" (it returned) or "unexpected" (another error).
    """
    try:
        fn()
    except Exception as exc:
        return ("reproduces" if _known_defect(exc) == key else "unexpected",
                _error(exc))
    return "not seen", "returned without the error"


def probe_k3(bench: Bench, world: dict, seed: int, t: dict) -> list:
    """One 3-conjunct "Add" in a primed discourse, untraced; its time is
    reported as conjunct_ms.k3 (one sample, outside the timed operations)."""
    rng = random.Random(seed)
    lines, ((k, repeat, sentence, names),) = probe_round(
        rng, rotation(rng)[0], ((3, seed % 2 == 0),))
    sess = primed_session(bench, lines, {"priming": Samples()})
    k3 = t.setdefault("k3", Samples())

    def step():
        try:
            with bench.clock.block() as b:
                report = sess.run_step(len(lines), sentence)
        finally:
            k3.add(b)
        problem = probe_problem(bench, sess, report, sentence, names)
        if problem:
            raise AssertionError(problem)

    outcome, detail = _expect_defect("k3-completion", step)
    return [("k3-completion", outcome, f"{sentence!r}: {detail}")]


def probe_scoring(bench: Bench, world: dict, seed: int, t: dict) -> list:
    """The dish score of an unplated gold run, and the smatch scores of the
    timed operations that stopped below the criterion-10 F1."""
    metrics = bench.p["metrics"]
    state = world["reference"][UNPLATED[0]].state
    out = [("dish-score-unplated",) + _expect_defect(
        "dish-score-unplated", lambda: metrics.dish_approximation_score(
            state, state, world["ontology"]))]
    optimal, scored = bench.smatch_optimal
    out.append(("smatch-local-optimum",
                "reproduces" if optimal < scored else "not seen",
                f"{scored - optimal} of {scored} scores below the "
                "criterion-10 F1"))
    return out


WORKLOADS = {"recipes": run_recipes, "conjunct-scaling": run_conjuncts,
             "execute-score": run_execute}
#: workload -> defect probe run once after its operations
DEFECT_PROBES = {"conjunct-scaling": probe_k3, "execute-score": probe_scoring}
