"""Evaluation metrics: plan-graph overlap, goals, dish similarity, time.

* smatch-style overlap: a plan network projects to triples (one instance
  triple per call, one attribute triple per constant slot or slot with
  unproduced variables, one relation triple per shared variable); score is
  the best triple F1 over one-to-one call alignments, found by branch and
  bound within a node budget, or exhaustively for small graphs.
* goal-condition success: fraction of declared goal predicates the final
  kitchen state satisfies.
* dish approximation: harmonic mean of ingredient overlap (within a 10%
  mass band) and dish-property agreement (shape, bake state, dusting,
  arrangement count).
* execution time: simulated critical-path minutes from the trace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional

from .errors import InputError, SizeExceededError
from .features import Num, Struct, Sym, Text, ValueSet, Var, vars_of
from .kitchen import KitchenState
from .plans import PlanNetwork, input_slots
from .serialize import NUMBER, check_shape, read_json


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
            if any(v not in producers for v in vars_in):
                # free variables: their names carry no meaning
                attributes.append((c.call_id, role, "?"))
            if isinstance(term, ValueSet):
                consts = [m for m in term if not isinstance(m, (Var, ValueSet))]
                for m in consts:
                    attributes.append((c.call_id, role, _render_const(m)))
    return TripleSet(nodes, tuple(instances), tuple(attributes),
                     tuple(relations))


# ---------------------------------------------------------------------------
# Alignment scoring

#: Search nodes (call-to-call assignments tried) after which smatch_score
#: stops and returns the best alignment found so far, marked not exact.
ALIGN_BUDGET = 20_000


@dataclass(frozen=True)
class OverlapScore:
    matched: int
    precision: Fraction
    recall: Fraction
    f1: Fraction
    exact: bool                  # the alignment is proven optimal

    def to_json(self) -> dict:
        return {
            "matched": self.matched,
            "precision": float(self.precision),
            "recall": float(self.recall),
            "f1": float(self.f1),
            "exact": self.exact,
        }


def _score(a: TripleSet, b: TripleSet, matched: int,
           exact: bool) -> OverlapScore:
    ta, tb = len(a), len(b)
    p = Fraction(matched, ta) if ta else Fraction(0)
    r = Fraction(matched, tb) if tb else Fraction(0)
    f1 = (2 * p * r / (p + r)) if (p + r) else Fraction(0)
    return OverlapScore(matched, p, r, f1, exact)


def _matched(a: TripleSet, b: TripleSet, mapping: dict) -> int:
    """Triples of a that the call mapping carries onto triples of b."""
    inst, attr, rel = set(b.instances), set(b.attributes), set(b.relations)
    to = mapping.get
    return (sum((to(n), prim) in inst for n, prim in a.instances)
            + sum((to(n), role, value) in attr
                  for n, role, value in a.attributes)
            + sum((to(n1), role, to(n2)) in rel
                  for n1, role, n2 in a.relations))


def _placement_order(x: TripleSet, x_attrs: dict) -> list:
    """(call, relations) pairs: each next call has the most relations into
    the calls placed before it; ties go to more attribute triples, then to
    plan order. A call's relations are those it closes, as (role, other
    call, whether the call is the consumer)."""
    links: dict[str, list] = {n: [] for n in x.nodes}
    for n1, role, n2 in x.relations:
        links[n1].append((role, n2, True))
        if n2 != n1:
            links[n2].append((role, n1, False))
    into = dict.fromkeys(x.nodes, 0)    # relations into the placed calls
    order, placed, rest = [], set(), list(x.nodes)
    while rest:
        call = max(rest, key=lambda n: (into[n], len(x_attrs[n])))
        rest.remove(call)
        placed.add(call)
        order.append((call, [r for r in links[call] if r[1] in placed]))
        for _, w, _ in links[call]:
            if w not in placed:
                into[w] += 1
    return order


def _count(counts: dict, keys) -> None:
    for key in keys:
        counts[key] = counts.get(key, 0) + 1


class _Targets:
    """The triples of the graph searched over, indexed by what a placed
    call looks up: each set holds the target calls that one key names."""

    def __init__(self, y: TripleSet):
        self.nodes = y.nodes
        self.by_primitive: dict[str, set] = {}
        for v, primitive in dict(y.instances).items():
            self.by_primitive.setdefault(primitive, set()).add(v)
        self.by_attribute: dict[tuple, set] = {}
        for v, role, value in y.attributes:
            self.by_attribute.setdefault((role, value), set()).add(v)
        # by role and direction; by role and producer; by consumer and
        # role; and the roles of self-relations
        self.by_role: dict[tuple, set] = {}
        self.consumers: dict[tuple, set] = {}
        self.producers: dict[tuple, set] = {}
        self.loops: dict[str, set] = {}
        for n1, role, n2 in y.relations:
            self.by_role.setdefault((role, True), set()).add(n1)
            self.by_role.setdefault((role, False), set()).add(n2)
            self.consumers.setdefault((role, n2), set()).add(n1)
            self.producers.setdefault((n1, role), set()).add(n2)
            if n1 == n2:
                self.loops.setdefault(role, set()).add(n1)

    def own(self, primitive: str, attrs: list) -> dict:
        """Target call -> the call's instance and attribute triples it
        carries."""
        own = dict.fromkeys(self.nodes, 0)
        _count(own, self.by_primitive.get(primitive, ()))
        for attr in attrs:
            _count(own, self.by_attribute.get(attr, ()))
        return own

    def options(self, call: str, rels: list, own: dict,
                mapping: dict) -> list:
        """(gain, target) for each target call `mapping` leaves unused, in
        target order, then stably by gain, highest first. A relation
        gains where its other end's target is linked the same way; a
        self-relation where the target links to itself."""
        extra: dict[str, int] = {}
        for role, w, consumer in rels:
            if w == call:
                _count(extra, self.loops.get(role, ()))
            elif consumer:
                _count(extra, self.consumers.get((role, mapping[w]), ()))
            else:
                _count(extra, self.producers.get((mapping[w], role), ()))
        used = set(mapping.values())
        options = [(own[v] + extra.get(v, 0), v) for v in self.nodes
                   if v not in used]
        options.sort(key=itemgetter(0), reverse=True)
        return options


def smatch_score(a: TripleSet, b: TripleSet) -> OverlapScore:
    """Best triple overlap over one-to-one call alignments.

    Branch and bound over the calls of the smaller graph, placed in
    `_placement_order`; each tries every unused call of the other graph,
    best first. A relation counts when its later endpoint is placed. The
    bound gives each unplaced call its best target's own triples plus the
    relations that target could carry (it has one of that role in that
    direction). The result is proven optimal (`exact`) unless the search
    reaches ALIGN_BUDGET nodes; then it is the best alignment found.
    The other graph's triples are indexed once (`_Targets`), so each count
    reads only the targets a key names. Deterministic.
    """
    x, y = (a, b) if len(a.nodes) <= len(b.nodes) else (b, a)
    targets = _Targets(y)
    x_prim = dict(x.instances)
    x_attrs: dict[str, list] = {n: [] for n in x.nodes}
    for n, role, value in x.attributes:
        x_attrs[n].append((role, value))

    steps = []                   # (call, relations, own triples per target)
    bounds = []
    for call, rels in _placement_order(x, x_attrs):
        own = targets.own(x_prim[call], x_attrs[call])
        steps.append((call, rels, own))
        carried: dict[str, int] = {}
        for role, _, consumer in rels:
            _count(carried, targets.by_role.get((role, consumer), ()))
        bounds.append(max(own[v] + carried.get(v, 0) for v in y.nodes))
    rest = [sum(bounds[d:]) for d in range(len(bounds) + 1)]
    if not steps:
        return _score(a, b, 0, True)

    # Depth-first over one frame per placed depth: the options still to
    # try there, and the score of the calls placed above it.
    mapping: dict[str, str] = {}
    best, spent = 0, 0
    call, rels, own = steps[0]
    frames = [(iter(targets.options(call, rels, own, mapping)), 0)]
    while frames:
        depth = len(frames) - 1
        options, above = frames[-1]
        option = next(options, None)
        if option is not None and above + option[0] + rest[depth + 1] > best:
            gain, v = option
            spent += 1
            if spent > ALIGN_BUDGET:
                return _score(a, b, best, False)
            if depth + 1 == len(steps):
                best = above + gain  # pruning admits only improvements
                continue
            mapping[steps[depth][0]] = v
            call, rels, own = steps[depth + 1]
            frames.append((iter(targets.options(call, rels, own, mapping)),
                           above + gain))
            continue
        # options run out, or none left can beat the best: back up
        frames.pop()
        if frames:
            del mapping[steps[depth - 1][0]]
    return _score(a, b, best, True)


def smatch_exact(a: TripleSet, b: TripleSet, max_vars: int = 8) -> OverlapScore:
    """Exhaustive best alignment; refuses graphs beyond max_vars calls."""
    if len(a.nodes) > max_vars or len(b.nodes) > max_vars:
        raise SizeExceededError(
            f"exact alignment allows at most {max_vars} calls per graph, "
            f"got {len(a.nodes)} and {len(b.nodes)}")
    x, y = (a, b) if len(a.nodes) <= len(b.nodes) else (b, a)
    best = max(_matched(x, y, dict(zip(x.nodes, perm)))
               for perm in itertools.permutations(y.nodes, len(x.nodes)))
    return _score(a, b, best, True)


def smatch_plans(plan_a: PlanNetwork, plan_b: PlanNetwork,
                 seed: int = 0) -> OverlapScore:
    """smatch_score of two plans. `seed` has no effect; it stays because
    the benchmark's execute-score workload passes it."""
    return smatch_score(plan_triples(plan_a), plan_triples(plan_b))


# ---------------------------------------------------------------------------
# Goal-condition success

#: goal predicate -> the shape of a goal of that predicate in a goals file
#: (see `serialize.check_shape`)
GOAL_SHAPES = {
    "entity-count-of-kind": {"predicate": str, "kind": str, "count": int},
    "property-equals": {"predicate": str, "kind": str, "property": str,
                        "value": (str, *NUMBER)},
    "located-at": {"predicate": str, "kind": str, "location": str},
    "amount-within": {"predicate": str, "kind": str, "grams": NUMBER,
                      "tolerance?": NUMBER},
}


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
            while node is not None and not ontology.is_kind(node.kind, want):
                node = state.parent_of(node.serial)
            if node is None:
                return False
        return True
    if predicate == "amount-within":
        want = Fraction(goal["grams"])
        tolerance = Fraction(goal.get("tolerance", 0))
        total = sum((grams for e in state.entities.values()
                     for concept, grams in e.composition
                     if ontology.is_kind(concept, goal["kind"])), Fraction(0))
        return abs(total - want) <= tolerance
    raise InputError(f"unknown goal predicate: {predicate!r}; "
                     f"expected one of {tuple(GOAL_SHAPES)}")


def goal_condition_success(state: KitchenState, goals: list, ontology) -> tuple:
    """(fraction satisfied, per-goal booleans); empty goal lists are an error."""
    if not goals:
        raise InputError("goal-condition success over an empty goal list")
    results = [_goal_holds(g, state, ontology) for g in goals]
    return Fraction(sum(results), len(results)), results


def load_goals(path) -> list:
    """The goals of a goal file, a list or {"goals": [...]}; InputError
    unless each goal fits the shape of its predicate."""
    data = read_json(path, "goals file")
    if isinstance(data, dict):
        data = check_shape(data, {"goals": list}, "goals file")["goals"]
    if not isinstance(data, list):
        raise InputError("goals file must hold a list (or {'goals': [...]})")
    for i, goal in enumerate(data):
        predicate = goal.get("predicate") if isinstance(goal, dict) else None
        if not isinstance(predicate, str) or predicate not in GOAL_SHAPES:
            raise InputError(f"goal {i} must be an object whose 'predicate' "
                             f"is one of {tuple(GOAL_SHAPES)}")
        check_shape(goal, GOAL_SHAPES[predicate],
                    f"goals file: goal {i} ({predicate})")
    return data


# ---------------------------------------------------------------------------
# Dish approximation

_DISH_PROPERTIES = ("shape", "baked", "dusted-with")

#: The share of the reference mass within which an ingredient matches.
DISH_MASS_BAND = Fraction(1, 10)


def _dish_leaves(state: KitchenState, ontology) -> list:
    """The served food: leaves on a plate, else every loose food leaf."""
    on_plates = [leaf for e in state.entities.values()
                 if ontology.is_kind(e.kind, "plate")
                 for leaf in state.food_leaves(e)]
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
                             ontology) -> tuple:
    """(score, detail): harmonic mean of ingredient F1 and property agreement.

    An ingredient counts as matched when both dishes contain it and the
    predicted mass lies within +-DISH_MASS_BAND of the reference mass.
    """
    comp_p, props_p = _dish_profile(predicted, ontology)
    comp_r, props_r = _dish_profile(reference, ontology)

    matched = 0
    for concept, grams_r in comp_r.items():
        grams_p = comp_p.get(concept)
        if grams_p is None:
            continue
        if abs(grams_p - grams_r) <= DISH_MASS_BAND * grams_r:
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
