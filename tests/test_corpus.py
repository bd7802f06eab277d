"""The exactness gate for comprehension: a fixed subset of the corpus
fingerprints that ``tools/corpus.py`` checks in full. The fixture is never
rewritten silently (see that tool's docstring)."""

import json

#: well under a second's worth: both bundled recipes, variants with two
#: conjuncts in both forms, every probe and every salad
SUBSET = ("recipe/almond-crescent-cookies", "recipe/vanilla-butter-rounds",
          "variant/0-1", "variant/0-3",
          *(f"probe/k{k}-{form}" for k in (1, 2, 3, 4)
            for form in ("and", "and-the")),
          *(f"salad/{i}" for i in range(300)))


def test_corpus_subset_keeps_its_fingerprints(corpus, grammar, ontology,
                                              workloads):
    expected = json.loads(corpus.FINGERPRINTS.read_text())
    got = corpus.compute((grammar, ontology), workloads, SUBSET)
    for case in SUBSET:
        assert got[case] == expected[case], case
