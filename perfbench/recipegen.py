"""Seeded recipe variants built from the bundled vocabulary, with an oracle.

A variant is butter plus 2-5 more ingredients, all given in grams, then a
first step (beat or melt), "Add" groups of one or two conjuncts with and
without a repeated "the", each followed by "Mix thoroughly", a shaping step
(crescents or balls, optionally flattened), the baking sheet, an early or
late preheat, bake, cool, an optional dusting with powdered sugar, and
"Serve".

The sentence forms and step order of the n-th variant of a run come from
TEMPLATES[n % 4], which between them hold every option; the seed picks the
ingredients, their order and grams, the shape, the temperatures and the
times.  Every run thus holds the same mix of forms and discourse sizes, and
the seed changes the words.

The oracle reads nothing but the recipe's own numbers: one tablespoon
portion is 17 g, so the dough yields floor(dough grams / 17) cookies, all of
the stated shape (or flattened), baked, dusted when there is a dusting step,
and on a plate after "Serve".  Groups of three conjuncts are left out on
purpose: they fail in completion at the seed, and the conjunct-scaling
workload's defect probe shows that case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PORTION_GRAMS = 17

#: ingredient -> (noun phrase, lowest grams, highest grams); pantry stock
#: bounds the totals (extracts 50 g, almond flour 300 g, butter 500 g)
EXTRAS = {
    "white-sugar": ("white sugar", 30, 120),
    "vanilla-extract": ("vanilla extract", 2, 8),
    "almond-extract": ("almond extract", 2, 8),
    "wheat-flour": ("wheat flour", 100, 300),
    "almond-flour": ("almond flour", 30, 120),
    "powdered-sugar": ("powdered sugar", 20, 60),
}
_BUTTER = ("butter", 50, 225)
_DUST = (10, 40)
_FLOURS = ("wheat-flour", "almond-flour")


@dataclass(frozen=True)
class Template:
    extras: int           # ingredients beyond butter, 2..5
    first: str            # "melt", "beat" or "beat-with" (butter and one more)
    groups: tuple         # sizes of the "Add" groups, 1 or 2 each
    repeat_the: bool      # "Add the A and the B" rather than "Add the A and B"
    flatten: bool
    dust: bool
    preheat_early: bool


#: sizes alternate small and large so that a run cut short stays balanced
TEMPLATES = (
    Template(2, "beat-with", (1,), False, False, True, True),
    Template(5, "melt", (2, 2, 1), True, True, False, False),
    Template(3, "beat", (2, 1), False, False, True, False),
    Template(4, "beat-with", (2, 1), True, True, False, True),
)


@dataclass(frozen=True)
class Variant:
    name: str
    text: str
    goals: list          # goal conditions in the bundled .goals.json format
    cookies: int


def ingredient_line(rng: random.Random, key: str) -> str:
    """'<grams> g <noun phrase>' with seeded grams inside the usual range."""
    noun, low, high = _BUTTER if key == "butter" else EXTRAS[key]
    return f"{rng.randint(low, high)} g {noun}"


def make_variant(rng: random.Random, tpl: Template, name: str) -> Variant:
    # a mixture is only a dough when it holds flour
    flour = rng.choice(_FLOURS)
    pool = [k for k in EXTRAS
            if k != flour and not (tpl.dust and k == "powdered-sugar")]
    chosen = rng.sample(pool, tpl.extras - 1) + [flour]
    rng.shuffle(chosen)
    lines = [ingredient_line(rng, "butter")]
    lines += [ingredient_line(rng, k) for k in chosen]
    dough_grams = sum(int(line.split()[0]) for line in lines)
    if tpl.dust:
        lines.append(f"{rng.randint(*_DUST)} g powdered sugar")
    cookies = dough_grams // PORTION_GRAMS

    rest = list(chosen)
    if tpl.first == "melt":
        steps = ["Melt the butter."]
    elif tpl.first == "beat":
        steps = ["Beat the butter until light and fluffy."]
    else:
        steps = [f"Beat the butter and {EXTRAS[rest.pop(0)][0]} "
                 "until light and fluffy."]
    for size in tpl.groups:
        nps = [EXTRAS[k][0] for k in rest[:size]]
        rest = rest[size:]
        joiner = " and the " if tpl.repeat_the else " and "
        steps.append("Add the " + joiner.join(nps) + ".")
        steps.append("Mix thoroughly.")
    if rest:
        raise ValueError(f"template groups leave {rest} unused")
    shape = rng.choice(["crescent", "ball"])
    steps.append(f"Take tablespoons of the dough and shape into {shape}s.")
    if tpl.flatten:
        steps.append(f"Flatten the {shape}s.")
    steps.append("Line a baking sheet with parchment paper.")
    steps.append(f"Place the {'dough' if tpl.flatten else shape + 's'} "
                 "onto the baking sheet.")
    preheat = f"Preheat the oven to {rng.choice([160, 175])} degrees C."
    if tpl.preheat_early:
        steps.insert(0, preheat)
    else:
        steps.append(preheat)
    steps.append(rng.choice(["Bake for 12 minutes.",
                             "Bake for 15-20 minutes."]))
    steps.append(f"Cool for {rng.choice([5, 10])} minutes.")
    if tpl.dust:
        steps.append("Dust with powdered sugar.")
    steps.append("Serve.")

    text = "\n".join([f"# {name}", "", f"Yield: {cookies} cookies", "",
                      "## Ingredients", "", *lines, "", "## Instructions", "",
                      *steps]) + "\n"
    goals = [
        {"predicate": "entity-count-of-kind", "kind": "cookie",
         "count": cookies},
        {"predicate": "property-equals", "kind": "cookie",
         "property": "shape", "value": "flattened" if tpl.flatten else shape},
        {"predicate": "property-equals", "kind": "cookie",
         "property": "baked", "value": "baked"},
        {"predicate": "located-at", "kind": "cookie", "location": "plate"},
    ]
    if tpl.dust:
        goals.append({"predicate": "property-equals", "kind": "cookie",
                      "property": "dusted-with", "value": "powdered-sugar"})
    return Variant(name, text, goals, cookies)
