"""Per-comprehension fingerprints over a seeded corpus.

This is the exactness gate for changes to comprehension: a change that
claims to keep every analysis must leave every fingerprint as it was.

The corpus holds:

* both bundled recipes;
* recipegen variants, for each seed in VARIANT_SEEDS one per template;
* the conjunct probes of perfbench's conjunct-scaling workload
  (``workloads.probe_round``), k = 1..4, with and without a repeated
  "the", each after its primed discourse;
* seeded word salads over the grammar's literal words, a few numbers and
  the function words (``salad_vocabulary``).

For each comprehension a fingerprint records the sentence, a digest of the
winner's ``content_key``, the names it applied in order and a digest of
its ``applied`` entries (which add the tokens and units each application
read), the score, ``succeeded``, ``truncated`` and the unresolved token
ids. A recipe case
also records the run's final kitchen hash, or the error it stopped with.

Usage:
    python3 tools/corpus.py          compare with the committed fingerprints
    python3 tools/corpus.py --write  rewrite tests/data/corpus_fingerprints.json

Rewrite the file only for a change that means to alter an analysis, and
say in CHANGES.md which cases changed and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from souschef import SousChefError  # noqa: E402
from souschef.grammar import load_grammar  # noqa: E402
from souschef.kitchen import load_kitchen  # noqa: E402
from souschef.memory import Ontology  # noqa: E402
from souschef.session import (  # noqa: E402
    CookingSession, load_recipe, parse_recipe, run_recipe,
)

DATA = ROOT / "src" / "souschef" / "data"
FINGERPRINTS = ROOT / "tests" / "data" / "corpus_fingerprints.json"

BUNDLED = ("almond-crescent-cookies", "vanilla-butter-rounds")
VARIANT_SEEDS = range(12)
#: probe conjuncts; the k-conjunct probe names the first k
PROBE_NAMES = ("white-sugar", "almond-flour", "wheat-flour", "vanilla-extract")
PROBE_KS = (1, 2, 3, 4)
SALADS = 300
SALAD_SEED = 21


def fingerprint(text: str, result) -> dict:
    """What one comprehension decided, in terms free of object identity."""
    return {
        "text": text,
        "winner": _digest(result.structure.content_key()),
        "applied": list(result.applied),
        "entries": _digest(result.structure.applied),
        "score": str(result.score),
        "succeeded": result.succeeded,
        "truncated": result.truncated,
        "unresolved": [t.token_id for t in result.unresolved_tokens],
    }


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


class _Recorder:
    """A grammar that fingerprints each comprehension a session asks of it."""

    def __init__(self, grammar):
        self.grammar = grammar
        self.seen: list = []

    def comprehend(self, utterance, accessible=()):
        result = self.grammar.comprehend(utterance, accessible)
        self.seen.append(fingerprint(utterance, result))
        return result


def _recipe(world, document) -> dict:
    grammar, ontology = world
    recorder = _Recorder(grammar)
    ks, config = load_kitchen(DATA / "kitchen.json")
    try:
        outcome = {"final-hash": run_recipe(document, recorder, ontology, ks,
                                            config).trace.final_hash}
    except SousChefError as exc:
        outcome = {"error": exc.code}
    return {"comprehensions": recorder.seen, **outcome}


def _probe(world, workloads, k: int, repeat: bool) -> dict:
    grammar, ontology = world
    lines, ((_, _, sentence, _),) = workloads.probe_round(
        random.Random(k), PROBE_NAMES[:k], ((k, repeat),))
    recorder = _Recorder(grammar)
    ks, config = load_kitchen(DATA / "kitchen.json")
    session = CookingSession(recorder, ontology, ks, config)
    for i, line in enumerate(lines):
        session.run_step(i, line)
    recorder.comprehend(sentence, session.pdm.current.accessible)
    return {"comprehensions": recorder.seen}


def salad_vocabulary(grammar) -> list:
    """The text literals of the grammar's conditional form facts (the text
    keys among ``Construction.form_keys``), a few numbers and the function
    words."""
    words = sorted({key[-1] for cxn in grammar.constructions
                    for key in cxn.form_keys if key[3:4] == ("text",)})
    return words + ["225", "ten", "15-20"] + sorted(grammar.function_words)


def _salads(grammar) -> list:
    vocab = salad_vocabulary(grammar)
    rng = random.Random(SALAD_SEED)
    return [" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 7)))
            for _ in range(SALADS)]


def _salad(world, sentence: str) -> dict:
    try:
        seen = fingerprint(sentence, world[0].comprehend(sentence))
    except SousChefError as exc:
        seen = {"text": sentence, "error": exc.code}
    return {"comprehensions": [seen]}


def cases(world, workloads) -> dict:
    """Case id -> a function computing that case's record."""
    recipegen = workloads.recipegen
    out = {}
    for name in BUNDLED:
        document = load_recipe(DATA / "recipes" / f"{name}.txt")
        out[f"recipe/{name}"] = lambda d=document: _recipe(world, d)
    for seed in VARIANT_SEEDS:
        rng = random.Random(seed)
        for n, tpl in enumerate(recipegen.TEMPLATES):
            # the variants of one seed share its generator, in template order
            variant = recipegen.make_variant(rng, tpl, f"variant-{seed}-{n}")
            document = parse_recipe(variant.text)
            out[f"variant/{seed}-{n}"] = lambda d=document: _recipe(world, d)
    for k in PROBE_KS:
        for repeat in (False, True):
            form = "and-the" if repeat else "and"
            out[f"probe/k{k}-{form}"] = \
                lambda k=k, r=repeat: _probe(world, workloads, k, r)
    for i, sentence in enumerate(_salads(world[0])):
        out[f"salad/{i}"] = lambda s=sentence: _salad(world, s)
    return out


def load_world() -> tuple:
    ontology = Ontology.load(DATA / "ontology.json")
    return load_grammar(DATA / "grammar.cxn", ontology), ontology


def compute(world, workloads, ids=None) -> dict:
    table = cases(world, workloads)
    return {i: table[i]() for i in (table if ids is None else ids)}


def _dumps(records: dict) -> str:
    """records as JSON, one comprehension a line, so that a change diffs by
    the comprehensions it alters."""
    rows = []
    for case, record in sorted(records.items()):
        seen = ",\n  ".join(json.dumps(fp, sort_keys=True)
                            for fp in record["comprehensions"])
        rest = "".join(f", {json.dumps(k)}: {json.dumps(v)}"
                       for k, v in sorted(record.items())
                       if k != "comprehensions")
        rows.append(f'{json.dumps(case)}: {{"comprehensions": [\n  {seen}]'
                    f'{rest}}}')
    return "{\n" + ",\n".join(rows) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {FINGERPRINTS.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    records = compute(load_world(), workloads)
    comprehensions = sum(len(r["comprehensions"]) for r in records.values())
    if args.write:
        FINGERPRINTS.write_text(_dumps(records))
        print(f"wrote {len(records)} cases, {comprehensions} comprehensions")
        return 0
    expected = json.loads(FINGERPRINTS.read_text())
    differ = sorted(i for i in expected.keys() | records.keys()
                    if expected.get(i) != records.get(i))
    for i in differ:
        print(f"differs: {i}")
    print(f"{len(records)} cases, {comprehensions} comprehensions, "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
