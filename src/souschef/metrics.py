"""Evaluation metrics: plan-graph overlap, goals, dish similarity, time.

* smatch-style overlap: a plan network projects to triples (one instance
  triple per call, one attribute triple per constant slot, one relation
  triple per shared variable); score is the best triple F1 over call
  alignments, found by seeded hill-climbing with restarts, or exactly for
  small graphs.
* goal-condition success: fraction of declared goal predicates the final
  kitchen state satisfies.
* dish approximation: harmonic mean of ingredient overlap (within a 10%
  mass band) and dish-property agreement (shape, bake state, dusting,
  arrangement count).
* execution time: simulated critical-path minutes from the trace.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .errors import InputError, SizeExceededError
from .features import Num, Struct, Sym, Text, ValueSet, Var, vars_of
from .kitchen import KitchenState
from .plans import PlanNetwork, input_slots


# ---------------------------------------------------------------------------
# Triple projection


@dataclass(frozen=True)
class TripleSet:
    nodes: tuple                 # call ids, in plan order
    instances: tuple             # (node, primitive)
    attributes: tuple            # (node, role, rendered constant)
    relations: tuple             # (consumer node, role, producer node)

    def __len__(self) -> int:
        return len(self.instances) + len(self.attributes) + len(self.relations)


def _render_const(value) -> str:
    if isinstance(value, Sym):
        return value.name
    if isinstance(value, Text):
        return f'"{value.text}"'
    if isinstance(value, Num):
        return repr(value)
    if isinstance(value, Struct):
        inner = ",".join(f"{k}={_render_const(v)}"
                         for k, v in sorted(value.fields))
        return "{" + inner + "}"
    if isinstance(value, ValueSet):
        return "[" + ",".join(sorted(_render_const(m) for m in value)) + "]"
    raise InputError(f"cannot render constant: {value!r}")


def plan_triples(network: PlanNetwork) -> TripleSet:
    producers = network.producers()
    nodes = tuple(c.call_id for c in network.calls)
    instances = []
    attributes = []
    relations = []
    for c in network.calls:
        instances.append((c.call_id, c.primitive))
        for role, term in input_slots(c):
            vars_in = vars_of(term)
            if not vars_in:
                attributes.append((c.call_id, role, _render_const(term)))
                continue
            for v in vars_in:
                if v in producers:
                    relations.append((c.call_id, role, producers[v][0].call_id))
                else:
                    attributes.append((c.call_id, role, f"?{v}"))
            if isinstance(term, ValueSet):
                consts = [m for m in term if not isinstance(m, (Var, ValueSet))]
                for m in consts:
                    attributes.append((c.call_id, role, _render_const(m)))
    return TripleSet(nodes, tuple(instances), tuple(attributes),
                     tuple(relations))


# ---------------------------------------------------------------------------
# Alignment scoring


@dataclass(frozen=True)
class OverlapScore:
    matched: int
    precision: Fraction
    recall: Fraction
    f1: Fraction

    def to_json(self) -> dict:
        return {
            "matched": self.matched,
            "precision": float(self.precision),
            "recall": float(self.recall),
            "f1": float(self.f1),
        }


class _AlignScorer:
    """Matched-triple counting with node-local deltas for hill-climbing."""

    def __init__(self, a: TripleSet, b: TripleSet):
        self.a, self.b = a, b
        self.b_inst = set(b.instances)
        self.b_attr = set(b.attributes)
        self.b_rel = set(b.relations)
        self.own: dict[str, list] = {n: [] for n in a.nodes}
        for node, prim in a.instances:
            self.own[node].append(("i", prim))
        for node, role, value in a.attributes:
            self.own[node].append(("a", role, value))
        self.adj: dict[str, list] = {n: [] for n in a.nodes}
        for idx, (n1, _, n2) in enumerate(a.relations):
            self.adj[n1].append(idx)
            if n2 != n1:
                self.adj[n2].append(idx)

    def contrib(self, nodes: tuple, mapping: dict) -> int:
        """Matched triples touching any of the given nodes."""
        m = 0
        rel_idx = set()
        for node in nodes:
            target = mapping.get(node)
            for t in self.own[node]:
                if t[0] == "i":
                    m += (target, t[1]) in self.b_inst
                else:
                    m += (target, t[1], t[2]) in self.b_attr
            rel_idx.update(self.adj[node])
        for idx in rel_idx:
            n1, role, n2 = self.a.relations[idx]
            if (mapping.get(n1), role, mapping.get(n2)) in self.b_rel:
                m += 1
        return m


def _score(a: TripleSet, b: TripleSet, matched: int) -> OverlapScore:
    ta, tb = len(a), len(b)
    p = Fraction(matched, ta) if ta else Fraction(0)
    r = Fraction(matched, tb) if tb else Fraction(0)
    f1 = (2 * p * r / (p + r)) if (p + r) else Fraction(0)
    return OverlapScore(matched, p, r, f1)


def _smart_mapping(a: TripleSet, b: TripleSet) -> dict:
    """Map same-primitive calls in plan order (good hill-climb start)."""
    prim_a = dict(a.instances)
    by_prim: dict[str, list] = {}
    for node, prim in b.instances:
        by_prim.setdefault(prim, []).append(node)
    mapping = {}
    for node in a.nodes:
        pool = by_prim.get(prim_a[node])
        if pool:
            mapping[node] = pool.pop(0)
    return mapping


def _random_mapping(a: TripleSet, b: TripleSet, rng: random.Random) -> dict:
    targets = list(b.nodes)
    rng.shuffle(targets)
    return dict(zip(a.nodes, targets))


def _hill_climb(scorer: _AlignScorer, mapping: dict) -> int:
    """Greedy improvement by single remaps and swaps until a fixpoint."""
    a, b = scorer.a, scorer.b
    improved = True
    while improved:
        improved = False
        used = set(mapping.values())
        for node in a.nodes:
            current = mapping.get(node)
            base = scorer.contrib((node,), mapping)
            best_delta, best_target = 0, current
            for target in b.nodes:
                if target == current or target in used:
                    continue
                trial = dict(mapping)
                trial[node] = target
                delta = scorer.contrib((node,), trial) - base
                if delta > best_delta:
                    best_delta, best_target = delta, target
            if current is not None:
                trial = dict(mapping)
                del trial[node]
                delta = scorer.contrib((node,), trial) - base
                if delta > best_delta:
                    best_delta, best_target = delta, None
            if best_delta > 0:
                if best_target is None:
                    del mapping[node]
                else:
                    mapping[node] = best_target
                used = set(mapping.values())
                improved = True
        keys = [n for n in a.nodes if n in mapping]
        for i, j in itertools.combinations(range(len(keys)), 2):
            ni, nj = keys[i], keys[j]
            base = scorer.contrib((ni, nj), mapping)
            trial = dict(mapping)
            trial[ni], trial[nj] = trial[nj], trial[ni]
            if scorer.contrib((ni, nj), trial) - base > 0:
                mapping.update(trial)
                improved = True
    return scorer.contrib(a.nodes, mapping)


def smatch_score(a: TripleSet, b: TripleSet, restarts: int = 16,
                 seed: int = 0) -> OverlapScore:
    """Best triple overlap found by hill-climbing with seeded restarts.

    The first restart starts from the plan-order same-primitive mapping, the
    rest from seeded random alignments. Deterministic for fixed inputs.
    """
    if not a.nodes or not b.nodes:
        return _score(a, b, 0)
    scorer = _AlignScorer(a, b)
    best = 0
    for restart in range(max(1, restarts)):
        if restart == 0:
            mapping = _smart_mapping(a, b)
        else:
            mapping = _random_mapping(a, b, random.Random(seed + restart))
        best = max(best, _hill_climb(scorer, mapping))
    return _score(a, b, best)


def smatch_exact(a: TripleSet, b: TripleSet, max_vars: int = 8) -> OverlapScore:
    """Exhaustive best alignment; refuses graphs beyond max_vars calls."""
    if len(a.nodes) > max_vars or len(b.nodes) > max_vars:
        raise SizeExceededError(
            f"exact alignment allows at most {max_vars} calls per graph, "
            f"got {len(a.nodes)} and {len(b.nodes)}")
    small_a = len(a.nodes) <= len(b.nodes)
    x, y = (a, b) if small_a else (b, a)
    scorer = _AlignScorer(x, y)
    best = 0
    for perm in itertools.permutations(y.nodes, len(x.nodes)):
        best = max(best, scorer.contrib(x.nodes, dict(zip(x.nodes, perm))))
    return _score(a, b, best)


def smatch_plans(plan_a: PlanNetwork, plan_b: PlanNetwork,
                 restarts: int = 16, seed: int = 0) -> OverlapScore:
    return smatch_score(plan_triples(plan_a), plan_triples(plan_b),
                        restarts, seed)


# ---------------------------------------------------------------------------
# Goal-condition success

GOAL_PREDICATES = (
    "entity-count-of-kind", "property-equals", "located-at", "amount-within",
)


def _goal_holds(goal: dict, state: KitchenState, ontology) -> bool:
    predicate = goal.get("predicate")
    if predicate == "entity-count-of-kind":
        found = state.entities_of_kind(goal["kind"], ontology)
        return len(found) == int(goal["count"])
    if predicate == "property-equals":
        found = state.entities_of_kind(goal["kind"], ontology)
        if not found:
            return False
        return all(e.prop(goal["property"]) == goal["value"] for e in found)
    if predicate == "located-at":
        found = state.entities_of_kind(goal["kind"], ontology)
        if not found:
            return False
        want = goal["location"]
        for e in found:
            node = state.parent_of(e.serial)
            ok = False
            while node is not None:
                if node.kind == want or (
                        ontology is not None and ontology.is_a(node.kind, want)):
                    ok = True
                    break
                node = state.parent_of(node.serial)
            if not ok:
                return False
        return True
    if predicate == "amount-within":
        want = Fraction(goal["grams"])
        tolerance = Fraction(goal.get("tolerance", 0))
        total = Fraction(0)
        for e in state.entities.values():
            for concept, grams in e.composition:
                if concept == goal["kind"] or (
                        ontology is not None
                        and ontology.is_a(concept, goal["kind"])):
                    total += grams
        return abs(total - want) <= tolerance
    raise InputError(f"unknown goal predicate: {predicate!r}; "
                     f"expected one of {GOAL_PREDICATES}")


def goal_condition_success(state: KitchenState, goals: list,
                           ontology=None) -> tuple:
    """(fraction satisfied, per-goal booleans); empty goal lists are an error."""
    if not goals:
        raise InputError("goal-condition success over an empty goal list")
    results = [_goal_holds(g, state, ontology) for g in goals]
    return Fraction(sum(results), len(results)), results


def load_goals(path) -> list:
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        data = data.get("goals")
    if not isinstance(data, list):
        raise InputError("goals file must hold a list (or {'goals': [...]})")
    return data


# ---------------------------------------------------------------------------
# Dish approximation

_DISH_PROPERTIES = ("shape", "baked", "dusted-with")


def _dish_leaves(state: KitchenState, ontology) -> list:
    """The served food: leaves on a plate, else every loose food leaf."""
    on_plates = []
    for e in state.entities.values():
        if e.kind == "plate" or (ontology is not None
                                 and ontology.is_a(e.kind, "plate")):
            on_plates.extend(state.food_leaves(e))
    if on_plates:
        return on_plates
    leaves = []
    for _, serial in state.locations:
        leaves.extend(state.food_leaves(state.entities[serial]))
    return leaves


def _dish_profile(state: KitchenState, ontology) -> tuple:
    leaves = _dish_leaves(state, ontology)
    composition: dict[str, Fraction] = {}
    for e in leaves:
        for concept, grams in e.composition:
            composition[concept] = composition.get(concept, Fraction(0)) + grams
    properties = {}
    for prop in _DISH_PROPERTIES:
        values = {e.prop(prop) for e in leaves}
        properties[prop] = values.pop() if len(values) == 1 else None
    properties["arrangement"] = len(leaves)
    return composition, properties


def dish_approximation_score(predicted: KitchenState, reference: KitchenState,
                             ontology=None, band: Fraction = Fraction(1, 10),
                             ) -> tuple:
    """(score, detail): harmonic mean of ingredient F1 and property agreement.

    An ingredient counts as matched when both dishes contain it and the
    predicted mass lies within +-band of the reference mass.
    """
    comp_p, props_p = _dish_profile(predicted, ontology)
    comp_r, props_r = _dish_profile(reference, ontology)

    matched = 0
    for concept, grams_r in comp_r.items():
        grams_p = comp_p.get(concept)
        if grams_p is None:
            continue
        if abs(grams_p - grams_r) <= band * grams_r:
            matched += 1
    precision = Fraction(matched, len(comp_p)) if comp_p else Fraction(0)
    recall = Fraction(matched, len(comp_r)) if comp_r else Fraction(0)
    ingredient_f1 = (2 * precision * recall / (precision + recall)) \
        if (precision + recall) else Fraction(0)

    keys = list(_DISH_PROPERTIES) + ["arrangement"]
    agreements = [props_p.get(k) == props_r.get(k) for k in keys]
    property_score = Fraction(sum(agreements), len(keys))

    if ingredient_f1 == 0 or property_score == 0:
        score = Fraction(0)
    else:
        score = 2 * ingredient_f1 * property_score / (ingredient_f1 + property_score)
    detail = {
        "ingredient-f1": float(ingredient_f1),
        "property-agreement": float(property_score),
        "properties": {k: {"predicted": props_p.get(k),
                           "reference": props_r.get(k)} for k in keys},
    }
    return score, detail


# ---------------------------------------------------------------------------
# Execution time and the combined report


def recipe_execution_time(trace) -> Fraction:
    return trace.minutes


def build_report(smatch: Optional[OverlapScore] = None,
                 gcs: Optional[tuple] = None,
                 das: Optional[tuple] = None,
                 minutes: Optional[Fraction] = None) -> dict:
    report: dict = {}
    if smatch is not None:
        report["smatch"] = smatch.to_json()
    if gcs is not None:
        fraction, per_goal = gcs
        report["goal-condition-success"] = {
            "score": float(fraction),
            "goals-met": sum(per_goal),
            "goals-total": len(per_goal),
            "per-goal": list(per_goal),
        }
    if das is not None:
        score, detail = das
        report["dish-approximation-score"] = {"score": float(score), **detail}
    if minutes is not None:
        report["time-minutes"] = float(minutes)
        report["time-minutes-exact"] = str(minutes)
    return report
