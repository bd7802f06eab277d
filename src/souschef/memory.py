"""Ontology and personal dynamic memory (discourse state).

The ontology is a small is-a hierarchy with per-concept features; lookups
inherit features from ancestors, child entries overriding parents. The
personal dynamic memory tracks the unfolding recipe as a plot: one node per
executed instruction, each holding the accessible entities in recency order.
Zero anaphora and definite references resolve against that order: the most
recent type-compatible entity wins, and ambiguity is not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional

from .errors import InputError, UnknownConceptError
from .features import FAILURE, FALSE, TRUE, Num, Struct, Sym, Text
from .serialize import NUMBER, check_shape, read_json

KITCHEN_STATE_CONCEPT = "kitchen-state"

#: The shape of an ontology file (see `serialize.check_shape`).
ONTOLOGY_SHAPE = {"concepts": {"*": {
    "is-a?": [str], "features?": {
        # the simulator reads these two as a number and a kind
        "max-bake-minutes?": NUMBER, "baked-form?": str,
        "*": (str, bool, *NUMBER)}}}}


# ---------------------------------------------------------------------------
# Ontology


class Ontology:
    """Acyclic is-a hierarchy of concepts with inheritable feature maps.

    The ontology is read-only once loaded, so each concept's ancestors and
    merged features are worked out then, and `is_a`, `lookup` and `feature`
    read them from tables.
    """

    def __init__(self, concepts: dict[str, dict]):
        parents: dict[str, tuple[str, ...]] = {}
        for name, entry in concepts.items():
            parents[name] = tuple(entry.get("is-a", []))
        for name, ps in parents.items():
            for p in ps:
                if p not in parents:
                    raise InputError(f"concept {name} names unknown parent {p}")
        #: concept -> itself and every concept it reaches by is-a links
        self._ancestors: dict[str, frozenset] = {}
        #: concept -> its features merged over its ancestors'
        self._features: dict[str, dict] = {}
        for name in parents:
            line = _ancestors_first(name, parents)
            self._ancestors[name] = frozenset(line)
            merged: dict = {}
            for c in line:
                merged.update(concepts[c].get("features", {}))
            self._features[name] = merged

    @staticmethod
    def load(path: Path | str) -> "Ontology":
        data = read_json(path, "ontology file")
        return Ontology(check_shape(data, ONTOLOGY_SHAPE,
                                    "ontology file")["concepts"])

    def knows(self, concept: str) -> bool:
        return concept in self._ancestors

    def is_a(self, concept: str, ancestor: str) -> bool:
        """True when concept reaches ancestor through is-a links (reflexive)."""
        return (ancestor in self._ancestors
                and ancestor in self._ancestors.get(concept, ()))

    def is_kind(self, kind: str, concept: str) -> bool:
        """True when kind is concept or an ontology concept below it."""
        return kind == concept or self.is_a(kind, concept)

    def lookup(self, concept: str) -> dict:
        """Merged feature map, a copy: ancestors first, the concept's own
        entries last."""
        return dict(self._merged(concept))

    def feature(self, concept: str, name: str):
        return self._merged(concept).get(name)

    def _merged(self, concept: str) -> dict:
        features = self._features.get(concept)
        if features is None:
            raise UnknownConceptError(f"concept not in ontology: {concept}")
        return features


def _ancestors_first(concept: str, parents: dict) -> list:
    """concept and every concept it reaches by is-a links, each once, in the
    order a depth-first walk over the parents finishes them: ancestors
    first, the concept last. InputError on an is-a cycle, naming it."""
    line, done = [], set()
    trail = [concept]
    stack = [iter(parents[concept])]
    while stack:
        for p in stack[-1]:
            if p in trail:
                raise InputError(f"is-a cycle through {p}: "
                                 f"{' -> '.join(trail + [p])}")
            if p not in done:
                trail.append(p)
                stack.append(iter(parents[p]))
                break
        else:
            stack.pop()
            c = trail.pop()
            done.add(c)
            line.append(c)
    return line


def _json_to_fv(value):
    if isinstance(value, bool):
        return TRUE if value else FALSE
    if isinstance(value, str):
        return Sym(value)
    return Num(Fraction(value))


# ---------------------------------------------------------------------------
# Plot and accessible entities


@dataclass(frozen=True)
class AccessibleEntity:
    """One discourse-accessible referent: entity id(s) plus classifying concept."""

    ids: tuple[int, ...]
    concept: str
    introduced_by: int  # instruction index that (re)introduced it
    demoted: bool = False


@dataclass(frozen=True)
class PlotNode:
    index: int
    accessible: tuple[AccessibleEntity, ...]
    kitchen_state_id: str
    event: str = ""
    fragment_ref: Optional[int] = None  # instruction index of the plan fragment
    question_refs: tuple = ()           # ids of narrative questions raised here


def initial_plot_node(kitchen_state_id: str) -> PlotNode:
    ks_entry = AccessibleEntity((), KITCHEN_STATE_CONCEPT, -1)
    return PlotNode(0, (ks_entry,), kitchen_state_id)


class PersonalDynamicMemory:
    """Ontology plus the plot: one node per understood instruction."""

    def __init__(self, ontology: Ontology, kitchen_state_id: str):
        self.ontology = ontology
        self.plot: list[PlotNode] = [initial_plot_node(kitchen_state_id)]

    @property
    def current(self) -> PlotNode:
        return self.plot[-1]


def resolve_entity(node: PlotNode, kitchen_state, ontology: Ontology,
                   concept: Optional[str] = None,
                   properties: Optional[dict] = None,
                   exclude: Iterable[int] = ()) -> Optional[tuple[int, ...]]:
    """Entity ids of the most recent accessible entry compatible with the
    constraints, or None.

    Scans the accessible list front to back (most recent first; demoted
    entries naturally sit behind survivors). Compatibility: the entry's
    concept (or the entity's own kind) is-a the requested concept, and every
    requested property holds. A food entry also makes its enclosing container
    reachable ("the bowl of butter" is one discourse referent); when a
    container is requested and the entry itself is food, the parent container
    is the candidate. Multiple candidates are not an error; recency decides.
    """
    properties = properties or {}
    exclude = set(exclude)
    for entry in node.accessible:
        if entry.ids and exclude.intersection(entry.ids):
            continue
        found = _candidate_ids(entry, kitchen_state, ontology, concept, properties)
        if found is not None and not exclude.intersection(found):
            return found
    return None


def _candidate_ids(entry: AccessibleEntity, ks, ontology: Ontology,
                   concept: Optional[str],
                   properties: dict) -> Optional[tuple[int, ...]]:
    if entry.concept == KITCHEN_STATE_CONCEPT:
        return () if concept == KITCHEN_STATE_CONCEPT else None
    if concept == KITCHEN_STATE_CONCEPT:
        return None

    direct = concept is None or ontology.is_a(entry.concept, concept)
    if not direct and ks is not None and concept is not None:
        kinds = [ks.entity(i).kind for i in entry.ids if ks.entity(i) is not None]
        direct = bool(kinds) and all(ontology.is_a(k, concept) for k in kinds)
    if direct and _properties_hold(entry.ids, ks, properties):
        return entry.ids

    # Promotion: a single food id stands in for the container holding it.
    if concept is not None and ks is not None and len(entry.ids) == 1:
        entity = ks.entity(entry.ids[0])
        if entity is not None and entity.is_food:
            parent = ks.parent_of(entity.serial)
            if (parent is not None and parent.container
                    and not ks.is_location(parent)
                    and ontology.is_a(parent.kind, concept)
                    and _properties_hold((parent.serial,), ks, properties)):
                return (parent.serial,)
    return None


def _properties_hold(ids: tuple[int, ...], ks, properties: dict) -> bool:
    if not properties:
        return True
    if ks is None:
        return False
    entities = [ks.entity(i) for i in ids]
    if any(e is None for e in entities) or not entities:
        return False
    min_contents = properties.get("min-contents")
    if min_contents is not None:
        if len(entities) != 1:
            return False
        if len(ks.food_children(entities[0])) < int(min_contents):
            return False
    want_shape = properties.get("shape")
    if want_shape is not None:
        leaves = []
        for e in entities:
            leaves.extend(ks.food_leaves(e))
        if not leaves or any(l.prop("shape") != want_shape for l in leaves):
            return False
    return True


def advance_plot(pdm: PersonalDynamicMemory, kitchen_state,
                 new_entities: list[tuple[tuple[int, ...], str]],
                 instruction_index: int, event: str = "",
                 fragment_ref: Optional[int] = None,
                 question_refs: tuple = ()) -> PlotNode:
    """Append a plot node: new resultants first, spent entries demoted.

    New entries are prepended most-recent-first (the last resultant of the
    instruction is the most salient). Old entries survive in order; entries
    whose entities all vanished from the state are dropped (nothing left to
    refer to); containers that ended up empty are demoted behind survivors.
    The kitchen-state handle stays pinned at the end.
    """
    prev = pdm.current
    fresh: list[AccessibleEntity] = []
    seen_ids: set[tuple[int, ...]] = set()
    for ids, concept in reversed(new_entities):
        ids = tuple(ids)
        if not ids or ids in seen_ids:
            continue
        seen_ids.add(ids)
        fresh.append(AccessibleEntity(ids, concept, instruction_index))

    survivors: list[AccessibleEntity] = []
    demoted: list[AccessibleEntity] = []
    for entry in prev.accessible:
        if entry.concept == KITCHEN_STATE_CONCEPT:
            continue
        if entry.ids in seen_ids:
            continue  # superseded by a fresh entry for the same referent
        entities = [kitchen_state.entity(i) for i in entry.ids]
        if all(e is None for e in entities):
            continue  # nothing left to refer to
        spent = all(
            e is not None and e.container
            and not kitchen_state.food_children(e)
            for e in entities
        )
        if spent:
            demoted.append(AccessibleEntity(entry.ids, entry.concept,
                                            entry.introduced_by, demoted=True))
        else:
            survivors.append(entry)

    ks_entry = AccessibleEntity((), KITCHEN_STATE_CONCEPT, -1)
    node = PlotNode(
        prev.index + 1,
        tuple(fresh) + tuple(survivors) + tuple(demoted) + (ks_entry,),
        kitchen_state.state_id,
        event,
        fragment_ref,
        tuple(question_refs),
    )
    pdm.plot.append(node)
    return node


# ---------------------------------------------------------------------------
# Standard procedures

_NUMBER_WORDS = {
    "one": 1, "two": 2, "three": 3, "four": 4, "five": 5, "six": 6,
    "seven": 7, "eight": 8, "nine": 9, "ten": 10, "eleven": 11, "twelve": 12,
}


def parse_number_text(s: str) -> Optional[Fraction]:
    s = s.strip().lower()
    if s in _NUMBER_WORDS:
        return Fraction(_NUMBER_WORDS[s])
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None


def _as_text(fv) -> Optional[str]:
    if isinstance(fv, Text):
        return fv.text
    if isinstance(fv, Sym):
        return fv.name
    return None


def make_registry(ontology: Ontology) -> dict:
    """Name -> function of the procedures a grammar's guards may call; each
    function takes the list of its substituted arguments."""

    def lookup_in_ontology(args):
        if len(args) != 1 or not isinstance(args[0], Sym):
            raise InputError("lookup-in-ontology takes one concept symbol")
        # raises UnknownConceptError on a miss
        feats = ontology.lookup(args[0].name)
        return Struct([(k, _json_to_fv(v)) for k, v in sorted(feats.items())])

    def is_a(args):
        if len(args) != 2:
            raise InputError("is-a takes concept and ancestor")
        c, a = (_as_text(x) for x in args)
        if c is None or a is None:
            return FALSE
        return TRUE if ontology.is_a(c, a) else FALSE

    def parse_number(args):
        s = _as_text(args[0]) if args else None
        if s is None:
            return FAILURE
        value = parse_number_text(s)
        return Num(value) if value is not None else FAILURE

    def parse_range(args):
        s = _as_text(args[0]) if args else None
        if s is None or "-" not in s:
            return FAILURE
        lo, _, hi = s.partition("-")
        lo_v, hi_v = parse_number_text(lo), parse_number_text(hi)
        if lo_v is None or hi_v is None:
            return FAILURE
        return Struct([("min", Num(lo_v)), ("max", Num(hi_v))])

    def with_unit(args):
        """(with-unit NUM SYMBOL) tags a number (or a min/max range) with a
        unit."""
        if len(args) != 2 or not isinstance(args[1], Sym):
            return FAILURE
        value, unit = args[0], args[1].name
        if isinstance(value, Num):
            return Num(value.value, unit)
        if isinstance(value, Struct):
            fields = []
            for k, v in value.fields:
                if not isinstance(v, Num):
                    return FAILURE
                fields.append((k, Num(v.value, unit)))
            return Struct(fields)
        return FAILURE

    return {"lookup-in-ontology": lookup_in_ontology, "is-a": is_a,
            "parse-number": parse_number, "parse-range": parse_range,
            "with-unit": with_unit}
