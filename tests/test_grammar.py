"""Grammar file parsing and comprehension over the bundled constructions."""

import itertools
from fractions import Fraction

import pytest

from souschef import (
    DuplicateNameError, GrammarSyntaxError, Grammar, UnknownProcedureError,
    extract_fragment, load_recipe, parse_grammar, run_recipe, tokenize,
)
import souschef.grammar as grammar_module
from souschef.features import Num, Struct, Sym, ValueSet, Var
from souschef.grammar import split_sentences
from conftest import ALMOND, fresh_kitchen


def test_tokenize_strips_punctuation_keeps_hyphens():
    tokens = tokenize("Bake for 15-20 minutes.")
    assert [t.word for t in tokens] == ["bake", "for", "15-20", "minutes"]
    assert tokens[2].token_id == "t2-15-20"


def test_split_sentences():
    text = "Melt the butter. Mix thoroughly.  Serve."
    assert split_sentences(text) == ["Melt the butter", "Mix thoroughly", "Serve"]


def test_parse_grammar_reads_function_words_and_scores():
    cxns, words = parse_grammar("""
    ; a comment
    (function-words "the" "a")
    (cxn tiny :kind lexical :score 3/5
      (conditional (?t (form (string ?t "mix"))))
      (contributing (?t (lex-class verb))))
    """)
    assert words == frozenset({"the", "a"})
    assert len(cxns) == 1
    assert cxns[0].name == "tiny"
    assert cxns[0].kind == "lexical"
    assert cxns[0].score == Fraction(3, 5)


def test_parse_grammar_rejects_bad_kind():
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("""
        (cxn bad :kind poetry :score 1/2
          (conditional (?t (form (string ?t "x"))))
          (contributing (?t (lex-class verb))))
        """)


def test_parse_grammar_rejects_out_of_range_score():
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("""
        (cxn bad :kind lexical :score 7/5
          (conditional (?t (form (string ?t "x"))))
          (contributing (?t (lex-class verb))))
        """)


def test_parse_grammar_rejects_unknown_guard_procedure():
    from souschef.memory import make_registry

    with pytest.raises(UnknownProcedureError):
        parse_grammar("""
        (cxn bad :kind lexical :score 1/2
          (conditional (?t (form (string ?t ?w))
                           (guard (equals ?n (divine ?w)))))
          (contributing (?t (value ?n))))
        """, make_registry(None))


def test_parse_grammar_rejects_form_contributed_off_root():
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar("""
        (cxn plural :kind lemmatization :score 1/2
          (conditional (?t (form (string ?t "balls"))))
          (contributing (?t (form (lemma ?t "ball")))))
        """)
    assert err.value.line == 4


def test_grammar_rejects_duplicate_construction_names():
    text = """
    (cxn twin :kind lexical :score 1/2
      (conditional (?t (form (string ?t "x"))))
      (contributing (?t (lex-class verb))))
    """
    cxns, words = parse_grammar(text)
    with pytest.raises(DuplicateNameError):
        Grammar(cxns + cxns, words)


def test_bundled_grammar_loads(grammar):
    assert "the" in grammar.function_words
    kinds = {c.kind for c in grammar.constructions}
    assert kinds == {"lemmatization", "lexical", "idiomatic",
                     "semi-schematic", "abstract"}


def _single_call(grammar, sentence):
    result = grammar.comprehend(sentence)
    assert result.succeeded, result.unresolved_tokens
    fragment = extract_fragment(result)
    assert not fragment.unresolved_tokens
    assert len(fragment.calls) >= 1
    return fragment


def test_ingredient_line_comprehends_to_fetch(grammar):
    fragment = _single_call(grammar, "225 g butter")
    call = fragment.calls[0]
    assert call.primitive == "fetch-and-proportion"
    assert call.slot("concept") == Sym("butter")
    assert call.slot("quantity") == Num(Fraction(225))
    assert call.slot("unit") == Sym("g")
    assert isinstance(call.slot("resultant"), Var)


def test_preheat_sentence_gets_temperature_unit(grammar):
    fragment = _single_call(grammar, "Preheat the oven to 175 degrees C.")
    call = fragment.calls[0]
    assert call.primitive == "preheat-oven"
    assert call.slot("temperature") == Num(Fraction(175), "degrees-C")
    device = call.slot("device")
    assert isinstance(device, Var)
    assert fragment.locate[device.name] == "oven"


def test_bake_range_builds_min_max_struct(grammar):
    fragment = _single_call(grammar, "Bake for 15-20 minutes.")
    call = fragment.calls[0]
    assert call.primitive == "bake"
    duration = call.slot("duration")
    assert isinstance(duration, Struct)
    assert duration.get("min") == Num(Fraction(15), "minute")
    assert duration.get("max") == Num(Fraction(20), "minute")


def test_number_words_parse_in_context(grammar):
    fragment = _single_call(grammar, "Rest the dough for ten minutes.")
    timer = [c for c in fragment.calls if c.primitive == "set-timer/elapse"]
    assert len(timer) == 1
    assert timer[0].slot("duration") == Num(Fraction(10), "minute")


def test_conjoined_noun_phrases_group_into_one_set(grammar):
    fragment = _single_call(
        grammar, "Beat the butter and white sugar until light and fluffy.")
    call = fragment.calls[0]
    assert call.primitive == "beat"
    items = call.slot("items")
    assert isinstance(items, ValueSet)
    assert len(items) == 2
    assert all(isinstance(m, Var) for m in items)
    assert call.slot("end-state") == Sym("fluffy")
    categories = {fragment.discourse[m.name][0] for m in items}
    assert categories == {"butter", "white-sugar"}


def test_zero_anaphora_sentence_annotates_discourse_slot(grammar):
    fragment = _single_call(grammar, "Mix thoroughly.")
    call = fragment.calls[0]
    assert call.primitive == "combine-homogeneous"
    target = call.slot("target")
    assert isinstance(target, Var)
    category, props = fragment.discourse[target.name]
    assert category == "container"
    assert props.get("zero") is True
    assert props.get("min-contents") == 2


def test_unknown_sentence_reports_unresolved_tokens(grammar):
    result = grammar.comprehend("Defenestrate the bowl.")
    assert not result.succeeded
    words = {t.word for t in result.unresolved_tokens}
    assert "defenestrate" in words


def test_two_word_ingredient_names_stay_one_concept(grammar):
    fragment = _single_call(grammar, "70 g white sugar")
    call = fragment.calls[0]
    assert call.slot("concept") == Sym("white-sugar")


def test_competing_noun_claims_resolve_to_one_analysis(grammar):
    # "the dough" inside a larger frame must not also float as a loose NP
    fragment = _single_call(
        grammar, "Take tablespoons of the dough and shape into crescents.")
    primitives = sorted(c.primitive for c in fragment.calls)
    assert primitives == ["portion-and-arrange", "shape"]
    portion = next(c for c in fragment.calls
                   if c.primitive == "portion-and-arrange")
    shape = next(c for c in fragment.calls if c.primitive == "shape")
    assert shape.slot("items") == portion.slot("portions")
    assert shape.slot("shape") == Sym("crescent")


def test_constructions_without_anchors_are_the_open_ones(grammar):
    open_ones = sorted(n for n, a in grammar.anchors.items() if not a)
    assert open_ones == ["bare-np", "ingredient-line", "number-word",
                         "range-word"]
    assert grammar.anchors["white-sugar-noun"] == frozenset(
        {("string", "white"), ("string", "sugar")})


@pytest.mark.parametrize("sentence", [
    "225 g butter",
    "Preheat the oven to 175 degrees C",
    "Add the white sugar and the almond flour",
    "Bake for 12 minutes",
])
def test_anchor_prefilter_skips_only_constructions_that_cannot_apply(
        grammar, monkeypatch, sentence):
    reached = {}
    apply = grammar_module.apply_construction

    def recording(cxn, ts, procs, counter):
        reached[id(ts)] = ts
        return apply(cxn, ts, procs, counter)

    monkeypatch.setattr(grammar_module, "apply_construction", recording)
    assert grammar.comprehend(sentence).succeeded
    skipped = 0
    for ts in reached.values():
        tried = {c.name for c in grammar.candidates(ts)}
        for cxn in grammar.constructions:
            if cxn.name not in tried:
                skipped += 1
                assert apply(cxn, ts, grammar.procs,
                             itertools.count(1)) == [], cxn.name
    assert skipped > 0


def test_almond_search_stays_within_match_budget(grammar, ontology,
                                                 data_dir, monkeypatch):
    # machine-independent guard against losing the anchor pruning
    calls = itertools.count()
    match = grammar_module.match

    def counting(*args, **kwargs):
        next(calls)
        return match(*args, **kwargs)

    monkeypatch.setattr(grammar_module, "match", counting)
    ks, config = fresh_kitchen()
    document = load_recipe(data_dir / "recipes" / f"{ALMOND}.txt")
    run_recipe(document, grammar, ontology, ks, config)
    assert next(calls) <= 2500
