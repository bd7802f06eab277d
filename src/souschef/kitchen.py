"""Qualitative kitchen simulator and its primitive inventory.

The world is a tree of entities hanging off six fixed locations (pantry,
fridge, freezer, counter-top, oven, tool-drawer). Food carries an exact
per-concept composition in grams (Fractions, never floats), so conservation
is checkable to the gram. Primitive applications are pure: they return a
fresh state and never touch their input.

States are compared by a content hash that ignores entity serial numbers and
the clock; two kitchens that look alike hash alike, which is what the
confluence and replay tests rely on. Each state carries the subtree digest
of every entity and the index of every entity's parent; the builder of a
primitive application records the serials it touches and recomputes only
their digests and their ancestors', so a call costs what it changes, not
what the kitchen holds.

Every fact about one primitive is declared once, in its `PrimitiveSpec`:
its slots and which of them it computes, its handler, its agent minutes,
whether it runs passively, the role whose value the discourse remembers,
the ontology defaults of its absent input slots, and the direction its
verifier checks. Plans, grammar and session read `PRIMITIVES`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from .errors import (
    DuplicateNameError, InputError, SimulationError, StructuralError,
)
from .features import Num, Struct, Sym, ValueSet, normalize_num
from .serialize import NUMBER, check_shape, fv_to_json, read_json

LOCATIONS = ("pantry", "fridge", "freezer", "counter-top", "oven", "tool-drawer")

#: Search order when hunting for an ingredient stock.
STORAGE_ORDER = ("counter-top", "pantry", "fridge", "freezer")

#: One tunable table for every vague quantity in the domain.
DEFAULT_CONFIG: dict = {
    "portion-grams": {"tablespoon": 17, "teaspoon": 5},
    "burn-factor": Fraction(3, 2),
    "ambient-temperature": 20,
    "melt-temperature": 40,
    "default-cool-minutes": 5,
}

#: The shape of a kitchen file (see `serialize.check_shape`).
KITCHEN_SHAPE = {
    "locations?": {f"{name}?": [{
        "kind": str, "grams?": NUMBER, "count?": int, "container?": bool,
        "properties?": {"*": (str, *NUMBER)},
    }] for name in LOCATIONS},
    "config?": {f"{key}?": {"*": NUMBER} if isinstance(value, dict) else NUMBER
                for key, value in DEFAULT_CONFIG.items()},
}


# ---------------------------------------------------------------------------
# Entities and states


@dataclass(frozen=True)
class KitchenEntity:
    serial: int
    kind: str
    container: bool = False
    composition: tuple = ()  # sorted ((concept, grams: Fraction)) — food only
    properties: tuple = ()   # sorted ((name, str | Fraction))
    contents: tuple = ()     # child serials (containers only)

    def prop(self, name: str):
        for k, v in self.properties:
            if k == name:
                return v
        return None

    def with_prop(self, name: str, value) -> "KitchenEntity":
        props = tuple(sorted([(k, v) for k, v in self.properties if k != name]
                             + [(name, value)]))
        return KitchenEntity(self.serial, self.kind, self.container,
                             self.composition, props, self.contents)

    def with_kind(self, kind: str) -> "KitchenEntity":
        return KitchenEntity(self.serial, kind, self.container,
                             self.composition, self.properties, self.contents)

    def with_composition(self, comp) -> "KitchenEntity":
        return KitchenEntity(self.serial, self.kind, self.container,
                             _norm_comp(comp), self.properties, self.contents)

    def with_contents(self, contents) -> "KitchenEntity":
        return KitchenEntity(self.serial, self.kind, self.container,
                             self.composition, self.properties, tuple(contents))

    @property
    def is_food(self) -> bool:
        return bool(self.composition)

    @property
    def grams(self) -> Fraction:
        return sum((g for _, g in self.composition), Fraction(0))


def _norm_comp(comp) -> tuple:
    acc: dict[str, Fraction] = {}
    for concept, g in (comp.items() if isinstance(comp, dict) else comp):
        g = Fraction(g)
        if g < 0:
            raise SimulationError("negative-amount", f"{concept}: {g}")
        if g > 0:
            acc[concept] = acc.get(concept, Fraction(0)) + g
    return tuple(sorted(acc.items()))


@dataclass(frozen=True, eq=False)
class KitchenState:
    state_id: str
    clock: Fraction
    locations: tuple          # ((name, serial)) in LOCATIONS order
    entities: dict            # serial -> KitchenEntity; copy-on-write only
    next_serial: int
    seq: int
    digests: dict             # serial -> subtree digest; copy-on-write only
    parents: dict             # serial -> serial of its container; likewise

    def entity(self, serial: int) -> Optional[KitchenEntity]:
        return self.entities.get(serial)

    def need(self, serial) -> KitchenEntity:
        return _need(self.entities, serial)

    def location(self, name: str) -> KitchenEntity:
        for loc_name, serial in self.locations:
            if loc_name == name:
                return self.entities[serial]
        raise SimulationError("missing-entity", f"no location named {name}")

    def parent_of(self, serial: int) -> Optional[KitchenEntity]:
        parent = self.parents.get(serial)
        return None if parent is None else self.entities[parent]

    def is_location(self, entity: KitchenEntity) -> bool:
        return any(entity.serial == s for _, s in self.locations)

    def food_children(self, entity: KitchenEntity) -> list[KitchenEntity]:
        return [self.entities[s] for s in entity.contents
                if s in self.entities and self.entities[s].is_food]

    def food_leaves(self, entity: KitchenEntity) -> list[KitchenEntity]:
        if entity.is_food:
            return [entity]
        out = []
        for s in entity.contents:
            child = self.entities.get(s)
            if child is not None:
                out.extend(self.food_leaves(child))
        return out

    def entities_of_kind(self, kind: str, ontology) -> list[KitchenEntity]:
        return [self.entities[s] for s in sorted(self.entities)
                if ontology.is_kind(self.entities[s].kind, kind)]

    def total_composition(self) -> dict[str, Fraction]:
        totals: dict[str, Fraction] = {}
        for e in self.entities.values():
            for concept, g in e.composition:
                totals[concept] = totals.get(concept, Fraction(0)) + g
        return {k: v for k, v in totals.items() if v != 0}


def _need(entities: dict, serial) -> KitchenEntity:
    try:
        serial = int(serial)
    except (TypeError, ValueError):
        raise SimulationError("missing-entity", f"not an entity id: {serial!r}")
    e = entities.get(serial)
    if e is None:
        raise SimulationError("missing-entity", f"no entity #{serial}")
    return e


def content_hash(ks: KitchenState) -> str:
    """Digest of the entity tree, blind to serial numbers and the clock."""
    parts = [f"{name}={ks.digests[serial]}" for name, serial in ks.locations]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _digest(entities: dict, digests: dict, serial: int,
            rendered: dict) -> str:
    """The subtree digest of `serial`: read from `digests`, or computed into
    it together with each missing digest below it. `rendered` maps each
    composition rendered so far in this pass to its text."""
    d = digests.get(serial)
    if d is None:
        e = entities[serial]
        comp = rendered.get(e.composition)
        if comp is None:
            comp = rendered[e.composition] = ",".join(
                f"{c}:{g}" for c, g in e.composition)
        props = ",".join(f"{k}={v}" for k, v in e.properties)
        kids = sorted(_digest(entities, digests, s, rendered)
                      for s in e.contents if s in entities)
        payload = "|".join([e.kind, "c" if e.container else "f", comp, props]
                           + kids)
        d = digests[serial] = hashlib.sha256(payload.encode()).hexdigest()
    return d


class _Builder:
    """Scratch pad for one primitive application: edits its own copy of the
    entity map and parent index, records the serials whose own fields or
    contents it changes, and commits them to a fresh state. `put` must not
    change an entity's contents; `create`, `move` and `drop` do that."""

    def __init__(self, ks: KitchenState, preheat_required: bool):
        self.ks = ks
        self.preheat_required = preheat_required  # a cold-oven bake fails
        self.entities = dict(ks.entities)
        self.parents = dict(ks.parents)
        self.touched: set[int] = set()
        self.next_serial = ks.next_serial

    def get(self, serial: int) -> KitchenEntity:
        return _need(self.entities, serial)

    def put(self, e: KitchenEntity) -> None:
        self.entities[e.serial] = e
        self.touched.add(e.serial)

    def create(self, kind: str, parent: int, container=False,
               composition=(), properties=()) -> KitchenEntity:
        """A new entity in `parent`; `composition` is already normalized
        (`_norm_comp`), so a batch of like entities shares one."""
        e = KitchenEntity(self.next_serial, kind, container,
                          composition, tuple(sorted(properties)))
        self.next_serial += 1
        self.put(e)
        self._attach(e.serial, parent)
        return e

    def move(self, serial: int, parent: int) -> None:
        self._detach(serial)
        self._attach(serial, parent)

    def drop(self, serial: int) -> None:
        self._detach(serial)
        for child in self.entities.pop(serial).contents:
            del self.parents[child]  # it stays, in no container
        self.touched.add(serial)

    def _attach(self, serial: int, parent: int) -> None:
        p = self.entities[parent]
        self.entities[parent] = p.with_contents(p.contents + (serial,))
        self.parents[serial] = parent
        self.touched.add(parent)

    def _detach(self, serial: int) -> None:
        parent = self.parents.pop(serial, None)
        if parent is not None:
            p = self.entities[parent]
            self.entities[parent] = p.with_contents(
                c for c in p.contents if c != serial)
            self.touched.add(parent)

    def commit(self, clock: Fraction) -> KitchenState:
        # a touched entity's digest is stale, and so is every ancestor's
        stale = set()
        for serial in self.touched:
            while serial is not None and serial not in stale:
                stale.add(serial)
                serial = self.parents.get(serial)
        digests = dict(self.ks.digests)
        for serial in stale:
            digests.pop(serial, None)
        rendered: dict = {}
        for serial in stale & self.entities.keys():
            _digest(self.entities, digests, serial, rendered)
        return KitchenState(f"ks-{self.ks.seq + 1}", clock, self.ks.locations,
                            self.entities, self.next_serial, self.ks.seq + 1,
                            digests, self.parents)


# ---------------------------------------------------------------------------
# Initial kitchens


def _merge_config(overrides: Optional[dict]) -> dict:
    """DEFAULT_CONFIG with the overrides applied; tables take new keys."""
    overrides = check_shape(overrides or {}, KITCHEN_SHAPE["config?"],
                            "kitchen config")
    return {k: {**v, **overrides.get(k, {})} if isinstance(v, dict)
            else overrides.get(k, v) for k, v in DEFAULT_CONFIG.items()}


def initial_kitchen(spec: Optional[dict] = None) -> tuple[KitchenState, dict]:
    """Build the starting state (and config) from a spec dict or, without
    one, the bundled kitchen."""
    if spec is None:
        return load_kitchen(Path(__file__).parent / "data" / "kitchen.json")
    loc_spec = check_shape(spec, KITCHEN_SHAPE, "kitchen file").get(
        "locations", {})
    entities: dict[int, KitchenEntity] = {}
    locations = []
    serial = 1
    for name in LOCATIONS:
        entities[serial] = KitchenEntity(serial, name, container=True)
        locations.append((name, serial))
        serial += 1

    for name, loc_serial in locations:
        placed = []
        for entry in loc_spec.get(name, []):
            kind = entry["kind"]
            props = tuple(sorted(
                (k, v if isinstance(v, str) else Fraction(v))
                for k, v in entry.get("properties", {}).items()))
            if "grams" in entry:
                grams = Fraction(entry["grams"])
                if grams <= 0:
                    raise InputError(f"non-positive amount for {kind}: {grams}")
                made = [{"composition": ((kind, grams),)}]
            else:
                count = entry.get("count", 1)
                if count <= 0:
                    raise InputError(f"non-positive count for {kind}: {count}")
                made = [{"container": entry.get("container", False)}] * count
            for fields in made:
                entities[serial] = KitchenEntity(serial, kind, properties=props,
                                                 **fields)
                placed.append(serial)
                serial += 1
        entities[loc_serial] = entities[loc_serial].with_contents(placed)

    parents = {c: s for s, e in entities.items() for c in e.contents}
    digests: dict[int, str] = {}
    rendered: dict = {}
    for s in entities:
        _digest(entities, digests, s, rendered)
    ks = KitchenState("ks-0", Fraction(0), tuple(locations), entities, serial, 0,
                      digests, parents)
    return ks, _merge_config(spec.get("config"))


def load_kitchen(path: Path | str) -> tuple[KitchenState, dict]:
    return initial_kitchen(read_json(path, "kitchen file"))


# ---------------------------------------------------------------------------
# Primitive semantics


@dataclass(frozen=True)
class ApplyResult:
    state: KitchenState
    outputs: dict            # role -> FeatureValue (entity ids, sets)
    dclock: Fraction
    warnings: tuple = ()


def _ids(value) -> list[int]:
    if isinstance(value, Num):
        return [int(value.value)]
    if isinstance(value, ValueSet):
        out = []
        for m in value:
            if not isinstance(m, Num):
                raise SimulationError("missing-entity", f"not an entity id: {m!r}")
            out.append(int(m.value))
        return sorted(out)
    raise SimulationError("missing-entity", f"not an entity reference: {value!r}")


def serials_in(value) -> list[int]:
    """Entity serials named by a value: unitless integers, also in sets."""
    if isinstance(value, Num) and value.unit is None and value.value.denominator == 1:
        return [int(value.value)]
    if isinstance(value, ValueSet):
        out = []
        for m in value:
            out.extend(serials_in(m))
        return out
    return []


def _id_set(serials) -> ValueSet:
    return ValueSet(Num(Fraction(s)) for s in sorted(serials))


def _minutes(value, what: str) -> Fraction:
    if isinstance(value, Num):
        dim, v = normalize_num(value)
        if dim not in (None, "time"):
            raise SimulationError("bad-duration", f"{what}: {value!r}")
        return v
    if isinstance(value, Struct):
        lo, hi = value.get("min"), value.get("max")
        if isinstance(lo, Num) and isinstance(hi, Num):
            return (normalize_num(lo)[1] + normalize_num(hi)[1]) / 2
    raise SimulationError("bad-duration", f"{what}: {value!r}")


class KitchenSimulator:
    """Mental-simulation engine: applies primitives to kitchen states."""

    def __init__(self, ontology, config: Optional[dict] = None):
        self.ontology = ontology
        self.config = _merge_config(config)

    # -- lookups -------------------------------------------------------------

    def _find_stock(self, ks: KitchenState, concept: str,
                    grams: Fraction) -> KitchenEntity:
        short = None
        for loc in STORAGE_ORDER:
            root = ks.location(loc)
            for e in sorted(ks.food_leaves(root), key=lambda e: e.serial):
                if self.ontology.is_kind(e.kind, concept):
                    if e.grams >= grams:
                        return e
                    short = short or e
        if short is not None:
            raise SimulationError(
                "insufficient-amount",
                f"need {grams} g of {concept}, have {short.grams} g")
        raise SimulationError("missing-entity", f"no {concept} in stock")

    def _find_in_drawer(self, ks: KitchenState, concept: str,
                        container: Optional[bool] = None,
                        empty: bool = False) -> KitchenEntity:
        drawer = ks.location("tool-drawer")
        for s in drawer.contents:
            e = ks.entities[s]
            if not self.ontology.is_kind(e.kind, concept):
                continue
            if container is not None and e.container != container:
                continue
            if empty and e.contents:
                continue
            return e
        raise SimulationError("missing-entity", f"no {concept} in tool drawer")

    def _entity_ref(self, ks: KitchenState, value) -> KitchenEntity:
        """Entity from a Num serial or a Sym naming a location."""
        if isinstance(value, Sym):
            if any(value.name == n for n, _ in ks.locations):
                return ks.location(value.name)
            raise SimulationError("missing-entity", f"no location {value.name}")
        return ks.need(_ids(value)[0])

    def _target_leaves(self, ks: KitchenState, value) -> list[KitchenEntity]:
        """Food entities behind an id, an id set, or a container id."""
        if isinstance(value, Sym):
            return ks.food_leaves(self._entity_ref(ks, value))
        leaves = []
        for s in _ids(value):
            e = ks.need(s)
            if e.is_food:
                leaves.append(e)
            else:
                leaves.extend(ks.food_leaves(e))
        return leaves

    def _foods(self, ks: KitchenState, value, verb: str) -> list[KitchenEntity]:
        """The target's food leaves; there must be at least one."""
        foods = self._target_leaves(ks, value)
        if not foods:
            raise SimulationError("missing-entity", f"nothing to {verb}")
        return foods

    def _mixture_kind(self, composition) -> str:
        return ("dough" if any(self.ontology.is_a(concept, "flour")
                               for concept, _ in composition) else "mixture")

    def _slot(self, slots: dict, role: str, primitive: str):
        if role not in slots:
            raise SimulationError("missing-slot", f"{primitive} needs {role}")
        return slots[role]

    def duration_of(self, name: str, slots: dict) -> Fraction:
        minutes = _simulated(name).minutes
        if minutes is not None:
            return Fraction(minutes)
        value = slots.get("duration")
        if value is None:
            # the fallback is a kitchen-config value, and apply needs it
            # before the handler runs
            if name == "cool-until":
                return Fraction(self.config["default-cool-minutes"])
            raise SimulationError("bad-duration", f"{name} needs a duration")
        return _minutes(value, name)

    # -- entry point ----------------------------------------------------------

    def apply(self, name: str, slots: dict, ks: KitchenState,
              start: Optional[Fraction] = None,
              preheat_required: bool = False) -> ApplyResult:
        spec = _simulated(name)
        dclock = self.duration_of(name, slots)
        start = ks.clock if start is None else start
        b = _Builder(ks, preheat_required)
        outputs, warnings = spec.handler(self, b, slots)
        new_clock = max(ks.clock, start + dclock)
        if spec.ks_in is None:  # takes no kitchen state, so makes none
            return ApplyResult(ks, outputs, dclock, tuple(warnings))
        return ApplyResult(b.commit(new_clock), outputs, dclock, tuple(warnings))

    # -- handlers ------------------------------------------------------------

    def _get_kitchen_state(self, b, slots):
        return {}, []

    def _fetch_and_proportion(self, b, slots):
        concept = self._slot(slots, "concept", "fetch-and-proportion")
        quantity = self._slot(slots, "quantity", "fetch-and-proportion")
        unit = self._slot(slots, "unit", "fetch-and-proportion")
        target = self._slot(slots, "target-container", "fetch-and-proportion")
        if not isinstance(concept, Sym) or not isinstance(quantity, Num):
            raise SimulationError("bad-slots", "fetch-and-proportion")
        unit_name = unit.name if isinstance(unit, Sym) else str(unit)
        grams = _grams(quantity, unit_name)

        source = self._find_stock(b.ks, concept.name, grams)
        counter = b.ks.location("counter-top")

        bowl = self._find_in_drawer(b.ks, target.name if isinstance(target, Sym)
                                    else str(target), container=True, empty=True)
        b.move(bowl.serial, counter.serial)

        share = grams / source.grams
        taken = [(c, g * share) for c, g in source.composition]
        left = [(c, g - g * share) for c, g in source.composition]
        if source.grams == grams:
            b.drop(source.serial)
        else:
            b.put(b.get(source.serial).with_composition(left))
        portion = b.create(source.kind, bowl.serial,
                           composition=_norm_comp(taken))
        return {"resultant": Num(Fraction(portion.serial))}, []

    def _fetch(self, b, slots, container: bool):
        concept = self._slot(slots, "concept",
                             "fetch-container" if container else "fetch-tool")
        if not isinstance(concept, Sym):
            raise SimulationError("bad-slots", "fetch needs a concept symbol")
        found = self._find_in_drawer(b.ks, concept.name, container=container)
        b.move(found.serial, b.ks.location("counter-top").serial)
        return {"fetched": Num(Fraction(found.serial))}, []

    def _fetch_tool(self, b, slots):
        return self._fetch(b, slots, container=False)

    def _fetch_container(self, b, slots):
        return self._fetch(b, slots, container=True)

    def _transfer_contents(self, b, slots):
        source = self._slot(slots, "source", "transfer-contents")
        destination = self._slot(slots, "destination", "transfer-contents")
        dest = self._entity_ref(b.ks, destination)
        if not dest.container:
            raise SimulationError("bad-slots", "transfer destination not a container")
        items = self._foods(b.ks, source, "transfer")
        for item in items:
            if item.serial != dest.serial:
                b.move(item.serial, dest.serial)
        return {"resultant": Num(Fraction(dest.serial))}, []

    def _merge_foods(self, b, container: KitchenEntity,
                     foods: list[KitchenEntity], mixed_state: str) -> KitchenEntity:
        comp: dict[str, Fraction] = {}
        for f in foods:
            for c, g in f.composition:
                comp[c] = comp.get(c, Fraction(0)) + g
        if len(foods) == 1:
            # Nothing to fuse; record the new mixedness, upgrading a generic
            # mixture's kind when flour entered the composition earlier.
            survivor = foods[0].with_prop("mixed-state", mixed_state)
            if survivor.kind in ("mixture", "dough"):
                survivor = survivor.with_kind(self._mixture_kind(survivor.composition))
            b.put(survivor)
            return survivor
        for f in foods:
            b.drop(f.serial)
        return b.create(self._mixture_kind(tuple(comp.items())),
                        container.serial, composition=_norm_comp(comp),
                        properties=(("mixed-state", mixed_state),))

    def _require_tool(self, b, slots) -> None:
        """The tool slot must name something that exists; tools are not moved."""
        tool = slots.get("tool")
        if tool is None:
            return
        if not isinstance(tool, Sym):
            b.get(_ids(tool)[0])
            return
        for loc in ("tool-drawer", "counter-top"):
            for s in b.ks.location(loc).contents:
                if self.ontology.is_kind(b.ks.entities[s].kind, tool.name):
                    return
        raise SimulationError("missing-entity", f"no {tool.name} available")

    def _beat(self, b, slots):
        items = self._slot(slots, "items", "beat")
        self._require_tool(b, slots)
        foods = self._foods(b.ks, items, "beat")
        end_state = slots.get("end-state")
        mixed = end_state.name if isinstance(end_state, Sym) else "mixed"
        container = b.ks.parent_of(foods[0].serial)
        if container is None or not container.container:
            raise SimulationError("bad-slots", "beat target not in a container")
        mixture = self._merge_foods(b, container, foods, mixed)
        return {"resultant": Num(Fraction(mixture.serial))}, []

    def _combine_homogeneous(self, b, slots):
        target = self._slot(slots, "target", "combine-homogeneous")
        self._require_tool(b, slots)
        container = self._entity_ref(b.ks, target)
        if container.is_food:
            parent = b.ks.parent_of(container.serial)
            if parent is None:
                raise SimulationError("bad-slots", "mix target not in a container")
            container = parent
        foods = b.ks.food_children(container)
        if not foods:
            raise SimulationError("missing-entity", "nothing to mix")
        mixture = self._merge_foods(b, container, foods, "homogeneous")
        return {"resultant": Num(Fraction(mixture.serial))}, []

    def _melt(self, b, slots):
        item = self._slot(slots, "item", "melt")
        foods = self._foods(b.ks, item, "melt")
        for f in foods:
            b.put(b.get(f.serial).with_prop(
                "temperature", Fraction(self.config["melt-temperature"])))
        return {"resultant": _one_or_set(foods)}, []

    def _shape(self, b, slots):
        items = self._slot(slots, "items", "shape")
        form = self._slot(slots, "shape", "shape")
        if not isinstance(form, Sym):
            raise SimulationError("bad-slots", "shape needs a shape symbol")
        foods = self._foods(b.ks, items, "shape")
        for f in foods:
            b.put(b.get(f.serial).with_prop("shape", form.name))
        return {"resultant": _one_or_set(foods)}, []

    def _flatten(self, b, slots):
        items = self._slot(slots, "items", "flatten")
        foods = self._foods(b.ks, items, "flatten")
        for f in foods:
            b.put(b.get(f.serial).with_prop("shape", "flattened"))
        return {"resultant": _one_or_set(foods)}, []

    def _portion_and_arrange(self, b, slots):
        source_ref = self._slot(slots, "source-item", "portion-and-arrange")
        unit = self._slot(slots, "portion-unit", "portion-and-arrange")
        destination = self._slot(slots, "destination", "portion-and-arrange")
        if not isinstance(unit, Sym):
            raise SimulationError("bad-slots", "portion-unit must be a symbol")
        per = self.config["portion-grams"].get(unit.name)
        if per is None:
            raise SimulationError("unsupported-unit", unit.name)
        per = Fraction(per)

        source = self._entity_ref(b.ks, source_ref)
        if not source.is_food:
            foods = b.ks.food_children(source)
            if len(foods) != 1:
                raise SimulationError("bad-slots", "ambiguous portioning source")
            source = foods[0]
        total = source.grams
        count = int(total / per)
        if count < 1:
            raise SimulationError("insufficient-amount",
                                  f"{total} g cannot fill one {unit.name}")
        dest = self._entity_ref(b.ks, destination)

        share = per / total
        portion_comp = _norm_comp((c, g * share) for c, g in source.composition)
        serials = []
        for _ in range(count):
            portion = b.create(source.kind, dest.serial, composition=portion_comp)
            serials.append(portion.serial)
        remainder = total - per * count
        if remainder == 0:
            b.drop(source.serial)
        else:
            left = [(c, g * (remainder / total)) for c, g in source.composition]
            b.put(b.get(source.serial).with_composition(left))
        return {"portions": _id_set(serials)}, []

    def _line_with(self, b, slots):
        target = self._slot(slots, "container", "line-with")
        liner = self._slot(slots, "liner", "line-with")
        container = self._entity_ref(b.ks, target)
        if not container.container:
            raise SimulationError("bad-slots", "line-with target not a container")
        if isinstance(liner, Sym):
            piece = self._find_in_drawer(b.ks, liner.name)
            liner_kind = piece.kind
        else:
            piece = b.get(_ids(liner)[0])
            liner_kind = piece.kind
        if piece.container or piece.is_food:
            # dropping it would orphan what it holds, or lose food
            raise SimulationError("bad-slots",
                                  "line-with liner is a container or food")
        b.drop(piece.serial)  # the liner becomes part of the lined container
        b.put(b.get(container.serial).with_prop("lined-with", liner_kind))
        return {"lined": Num(Fraction(container.serial))}, []

    def _preheat_oven(self, b, slots):
        device = self._slot(slots, "device", "preheat-oven")
        temperature = self._slot(slots, "temperature", "preheat-oven")
        oven = self._entity_ref(b.ks, device)
        if not isinstance(temperature, Num):
            raise SimulationError("bad-slots", "preheat temperature not a number")
        b.put(b.get(oven.serial).with_prop("temperature", temperature.value))
        return {"heated": Num(Fraction(oven.serial))}, []

    def _bake(self, b, slots):
        target = self._slot(slots, "target", "bake")
        oven_ref = slots.get("oven", Sym("oven"))
        duration = slots.get("duration")
        oven = self._entity_ref(b.ks, oven_ref)
        warnings = []
        temp = oven.prop("temperature")
        if temp is None:
            if b.preheat_required:
                raise SimulationError("oven-not-preheated",
                                      "bake before preheat-oven completed")
            warnings.append("bake: oven was never preheated")
            temp = Fraction(180)

        effective = self.duration_of("bake", slots)
        limit = self._bake_limit(b.ks, target, duration)
        burned = limit is not None and effective > self.config["burn-factor"] * limit

        foods = self._foods(b.ks, target, "bake")
        for f in foods:
            e = b.get(f.serial)
            e = e.with_prop("baked", "burned" if burned else "baked")
            e = e.with_prop("temperature", Fraction(temp))
            baked_form = (self.ontology.feature(e.kind, "baked-form")
                          if self.ontology.knows(e.kind) else None)
            if baked_form:
                e = e.with_kind(str(baked_form))
            b.put(e)
        out = (Num(Fraction(_ids(target)[0]))
               if isinstance(target, Num) else _id_set(f.serial for f in foods))
        return {"baked": out}, warnings

    def _bake_limit(self, ks, target, duration) -> Optional[Fraction]:
        if isinstance(duration, Struct):
            hi = duration.get("max")
            if isinstance(hi, Num):
                return normalize_num(hi)[1]
        for f in self._target_leaves(ks, target):
            if self.ontology.knows(f.kind):
                limit = self.ontology.feature(f.kind, "max-bake-minutes")
                if limit is not None:
                    return Fraction(limit)
        return None

    def _cool_until(self, b, slots):
        target = self._slot(slots, "target", "cool-until")
        foods = self._foods(b.ks, target, "cool")
        ambient = Fraction(self.config["ambient-temperature"])
        for f in foods:
            b.put(b.get(f.serial).with_prop("temperature", ambient))
        if isinstance(target, Num):
            out = Num(Fraction(_ids(target)[0]))
        else:
            out = _id_set(f.serial for f in foods)
        return {"cooled": out}, []

    def _sprinkle(self, b, slots):
        targets = self._slot(slots, "targets", "sprinkle")
        topping_ref = self._slot(slots, "topping", "sprinkle")
        foods = self._foods(b.ks, targets, "sprinkle on")
        if isinstance(topping_ref, Sym):
            counter = b.ks.location("counter-top")
            topping = None
            for e in sorted(b.ks.food_leaves(counter), key=lambda e: e.serial):
                if self.ontology.is_kind(e.kind, topping_ref.name):
                    topping = e
                    break
            if topping is None:
                raise SimulationError("missing-entity",
                                      f"no {topping_ref.name} to sprinkle")
        else:
            topping = b.get(_ids(topping_ref)[0])
        if not topping.is_food:
            raise SimulationError("bad-slots", "topping is not food")
        foods = [f for f in foods if f.serial != topping.serial]
        if not foods:
            raise SimulationError("bad-slots",
                                  "cannot sprinkle the topping onto itself")
        n = len(foods)
        for f in foods:
            comp = dict(b.get(f.serial).composition)
            for c, g in topping.composition:
                comp[c] = comp.get(c, Fraction(0)) + g / n
            e = b.get(f.serial).with_composition(comp)
            b.put(e.with_prop("dusted-with", topping.kind))
        b.drop(topping.serial)
        return {"dusted": _id_set(f.serial for f in foods)}, []

    def _set_timer(self, b, slots):
        self._slot(slots, "duration", "set-timer/elapse")
        return {"elapsed": Sym("elapsed")}, []

    def _serve(self, b, slots):
        items = self._slot(slots, "items", "serve")
        foods = self._foods(b.ks, items, "serve")
        plate = self._find_in_drawer(b.ks, "plate", container=True)
        b.move(plate.serial, b.ks.location("counter-top").serial)
        for f in foods:
            b.move(f.serial, plate.serial)
        return {"served": Num(Fraction(plate.serial))}, []

    # -- verifiers -------------------------------------------------------------
    # Each checks outputs already known against the stated inputs and
    # returns (delta, detail); delta 0 means consistent, None unmeasurable.

    def _verify_fetch_and_proportion(self, ks, values):
        concept = values["concept"]
        unit = values["unit"]
        stated = values["quantity"].value * normalize_num(
            Num(Fraction(1), unit.name if isinstance(unit, Sym) else str(unit)))[1]
        total = Fraction(0)
        for serial in serials_in(values["resultant"]):
            for c, g in ks.need(serial).composition:
                if self.ontology.is_kind(c, concept.name):
                    total += g
        return (abs(total - stated),
                f"found {total} g of {concept.name}, recipe says {stated} g")

    def _verify_portion_and_arrange(self, ks, values):
        unit = values["portion-unit"]
        per = self.config["portion-grams"].get(
            unit.name if isinstance(unit, Sym) else str(unit))
        if per is None:
            return None, "unknown portion unit"
        per = Fraction(per)
        worst = Fraction(0)
        for serial in serials_in(values["portions"]):
            worst = max(worst, abs(ks.need(serial).grams - per))
        return worst, f"portion mass off by {worst} g"


def _one_or_set(foods: list[KitchenEntity]):
    if len(foods) == 1:
        return Num(Fraction(foods[0].serial))
    return _id_set(f.serial for f in foods)


def _grams(quantity: Num, unit_name: str) -> Fraction:
    probe = Num(quantity.value, unit_name)
    try:
        dim, grams = normalize_num(probe)
    except StructuralError:
        raise SimulationError("unsupported-unit", unit_name)
    if dim != "mass":
        raise SimulationError("unsupported-unit",
                              f"{unit_name} is not a mass unit")
    if grams <= 0:
        raise SimulationError("insufficient-amount", f"{grams} g requested")
    return grams


# ---------------------------------------------------------------------------
# Primitive inventory

KS = "kitchen-state"


@dataclass(frozen=True)
class Default:
    """Where an absent input slot's value comes from: the ontology feature
    `feature`, read on the primitive's own concept, or with `of` set on the
    concept that the symbol in the call's `of` slot names."""
    feature: str
    of: Optional[str] = None


@dataclass(frozen=True)
class PrimitiveSpec:
    name: str
    slots: tuple                  # ordered (role, semantic-type)
    outputs: frozenset            # roles computed by the primitive
    handler: Callable             # the KitchenSimulator method apply runs
    minutes: Optional[int]        # agent minutes; None = the duration slot's
    passive: bool = False         # hands control back to the agent at once
    plot: Optional[str] = None    # role whose value the discourse remembers
    defaults: dict = field(default_factory=dict)  # input role -> Default
    direction: Optional[frozenset] = None  # roles the verifier reads
    verifier: Optional[Callable] = None    # KitchenSimulator method, checks it

    @property
    def roles(self) -> tuple:
        return tuple(r for r, _ in self.slots)

    def slot_type(self, role: str) -> Optional[str]:
        for r, t in self.slots:
            if r == role:
                return t
        return None

    @property
    def ks_in(self) -> Optional[str]:
        for r, t in self.slots:
            if t == KS and r not in self.outputs:
                return r
        return None

    @property
    def ks_out(self) -> Optional[str]:
        for r, t in self.slots:
            if t == KS and r in self.outputs:
                return r
        return None


def _spec(name, handler, minutes, slots, outputs, passive=False, plot=None,
          defaults=None, direction=None, verifier=None):
    spec = PrimitiveSpec(name, tuple(slots), frozenset(outputs), handler,
                         minutes, passive, plot, dict(defaults or {}),
                         None if direction is None else frozenset(direction),
                         verifier)
    if not spec.outputs:
        raise StructuralError(f"primitive {name} computes nothing")
    if (spec.direction is None) != (spec.verifier is None):
        raise StructuralError(
            f"primitive {name} needs both a direction and a verifier, or neither")
    return spec


_CORE_PRIMITIVES = [
    _spec("get-kitchen-state", KitchenSimulator._get_kitchen_state, 0,
          [("kitchen-state-out", KS)], {"kitchen-state-out"}),
    _spec("fetch-and-proportion", KitchenSimulator._fetch_and_proportion, 1,
          [("source-ks", KS), ("concept", "ingredient-concept"),
           ("quantity", "quantity"), ("unit", "unit"),
           ("target-container", "container"),
           ("output-ks", KS), ("resultant", "entity-set")],
          {"output-ks", "resultant"}, plot="resultant",
          defaults={"target-container": Default("preferred-container",
                                                of="concept")},
          direction={"source-ks", "concept", "quantity", "unit", "resultant"},
          verifier=KitchenSimulator._verify_fetch_and_proportion),
    _spec("fetch-tool", KitchenSimulator._fetch_tool, 1,
          [("input-ks", KS), ("concept", "tool"),
           ("output-ks", KS), ("fetched", "entity-set")],
          {"output-ks", "fetched"}, plot="fetched"),
    _spec("fetch-container", KitchenSimulator._fetch_container, 1,
          [("input-ks", KS), ("concept", "container"),
           ("output-ks", KS), ("fetched", "entity-set")],
          {"output-ks", "fetched"}, plot="fetched"),
    _spec("transfer-contents", KitchenSimulator._transfer_contents, 1,
          [("input-ks", KS), ("source", "entity-set"),
           ("destination", "container"),
           ("output-ks", KS), ("resultant", "container")],
          {"output-ks", "resultant"}, plot="resultant"),
    _spec("combine-homogeneous", KitchenSimulator._combine_homogeneous, 2,
          [("input-ks", KS), ("target", "container"), ("tool", "tool"),
           ("output-ks", KS), ("resultant", "entity-set")],
          {"output-ks", "resultant"}, plot="resultant",
          defaults={"tool": Default("default-tool")}),
    _spec("beat", KitchenSimulator._beat, 3,
          [("input-ks", KS), ("items", "entity-set"), ("tool", "tool"),
           ("end-state", "condition"),
           ("output-ks", KS), ("resultant", "entity-set")],
          {"output-ks", "resultant"}, plot="resultant",
          defaults={"tool": Default("default-tool"),
                    "end-state": Default("default-end-state")}),
    _spec("melt", KitchenSimulator._melt, 2,
          [("input-ks", KS), ("item", "entity-set"),
           ("output-ks", KS), ("resultant", "entity-set")],
          {"output-ks", "resultant"}, plot="resultant"),
    _spec("shape", KitchenSimulator._shape, 3,
          [("input-ks", KS), ("items", "entity-set"), ("shape", "shape"),
           ("output-ks", KS), ("resultant", "entity-set")],
          {"output-ks", "resultant"}, plot="resultant"),
    _spec("flatten", KitchenSimulator._flatten, 2,
          [("input-ks", KS), ("items", "entity-set"),
           ("output-ks", KS), ("resultant", "entity-set")],
          {"output-ks", "resultant"}, plot="resultant"),
    _spec("portion-and-arrange", KitchenSimulator._portion_and_arrange, 5,
          [("input-ks", KS), ("source-item", "entity-set"),
           ("portion-unit", "unit"), ("destination", "container"),
           ("output-ks", KS), ("portions", "entity-set")],
          {"output-ks", "portions"}, plot="portions",
          defaults={"destination": Default("default-destination")},
          direction={"input-ks", "source-item", "portion-unit", "portions"},
          verifier=KitchenSimulator._verify_portion_and_arrange),
    _spec("line-with", KitchenSimulator._line_with, 1,
          [("input-ks", KS), ("container", "container"),
           ("liner", "ingredient-concept"),
           ("output-ks", KS), ("lined", "container")],
          {"output-ks", "lined"}, plot="lined"),
    _spec("preheat-oven", KitchenSimulator._preheat_oven, 12,
          [("input-ks", KS), ("device", "device"),
           ("temperature", "temperature"),
           ("output-ks", KS), ("heated", "device")],
          {"output-ks", "heated"}, passive=True),
    _spec("bake", KitchenSimulator._bake, None,
          [("input-ks", KS), ("target", "entity-set"), ("oven", "device"),
           ("duration", "duration"),
           ("output-ks", KS), ("baked", "entity-set")],
          {"output-ks", "baked"}, passive=True, plot="target",
          defaults={"oven": Default("default-device")}),
    _spec("sprinkle", KitchenSimulator._sprinkle, 1,
          [("input-ks", KS), ("targets", "entity-set"),
           ("topping", "entity-set"),
           ("output-ks", KS), ("dusted", "entity-set")],
          {"output-ks", "dusted"}, plot="dusted"),
    _spec("cool-until", KitchenSimulator._cool_until, None,
          [("input-ks", KS), ("target", "entity-set"),
           ("condition", "condition"), ("duration", "duration"),
           ("output-ks", KS), ("cooled", "entity-set")],
          {"output-ks", "cooled"}, passive=True, plot="target",
          defaults={"condition": Default("default-condition")}),
    _spec("set-timer/elapse", KitchenSimulator._set_timer, None,
          [("input-ks", KS), ("duration", "duration"),
           ("output-ks", KS), ("elapsed", "condition")],
          {"output-ks", "elapsed"}, passive=True),
    _spec("serve", KitchenSimulator._serve, 1,
          [("input-ks", KS), ("items", "entity-set"),
           ("output-ks", KS), ("served", "container")],
          {"output-ks", "served"}, plot="served"),
]


class PrimitiveRegistry:
    def __init__(self, specs):
        self._specs: dict[str, PrimitiveSpec] = {}
        for spec in specs:
            if spec.name in self._specs:
                raise DuplicateNameError(
                    f"primitive already registered: {spec.name}")
            self._specs[spec.name] = spec

    def get(self, name: str) -> PrimitiveSpec:
        if name not in self._specs:
            raise InputError(f"unknown primitive: {name}")
        return self._specs[name]

    def names(self) -> tuple:
        return tuple(sorted(self._specs))


PRIMITIVES = PrimitiveRegistry(_CORE_PRIMITIVES)


def _simulated(name: str) -> PrimitiveSpec:
    """The spec the simulator runs; an unknown name is a simulation error."""
    try:
        return PRIMITIVES.get(name)
    except InputError:
        raise SimulationError("unknown-primitive", name) from None


# ---------------------------------------------------------------------------
# Execution traces


@dataclass(frozen=True)
class TraceRecord:
    call_id: str
    primitive: str
    inputs: dict             # role -> JSON-ready term
    outputs: dict
    start: Fraction
    end: Fraction
    dclock: Fraction
    state_before: str
    state_after: str
    hash_before: str
    hash_after: str
    warnings: tuple = ()

    def to_json(self) -> dict:
        return {
            "call": self.call_id,
            "primitive": self.primitive,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "start": str(self.start),
            "end": str(self.end),
            "dclock": str(self.dclock),
            "state-before": self.state_before,
            "state-after": self.state_after,
            "hash-before": self.hash_before,
            "hash-after": self.hash_after,
            "warnings": list(self.warnings),
        }


@dataclass
class ExecutionTrace:
    initial_hash: str
    records: list = field(default_factory=list)

    @property
    def final_hash(self) -> str:
        return self.records[-1].hash_after if self.records else self.initial_hash

    @property
    def minutes(self) -> Fraction:
        return max((r.end for r in self.records), default=Fraction(0))

    def write_jsonl(self, path: Path | str) -> None:
        lines = [json.dumps({"initial-hash": self.initial_hash}, sort_keys=True)]
        lines += [json.dumps(r.to_json(), sort_keys=True) for r in self.records]
        Path(path).write_text("\n".join(lines) + "\n")


def slot_values_to_json(slots: dict) -> dict:
    return {role: fv_to_json(value) for role, value in sorted(slots.items())}
