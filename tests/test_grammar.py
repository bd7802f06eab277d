"""Grammar file parsing and comprehension over the bundled constructions."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from souschef import (
    DuplicateNameError, GrammarSyntaxError, Grammar, SousChefError,
    UnderstandingFailure, UnknownProcedureError, extract_fragment,
    load_grammar, load_recipe, parse_grammar, run_recipe, tokenize,
)
import souschef.features as features_module
import souschef.grammar as grammar_module
from souschef.features import (
    Num, Struct, Sym, TransientStructure, Unit, ValueSet, Var, match,
)
from souschef.grammar import split_sentences
from souschef.memory import make_registry
from souschef.session import CookingSession
from conftest import ALMOND, VANILLA, fresh_kitchen, primed
import reference_match


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


@pytest.mark.parametrize("text, message, line", [
    ("(cxn a", "unbalanced '('", 1),
    ("\n)", "unbalanced ')'", 2),
    ('(function-words "the', "unterminated string", 1),
    ('(function-words "the\n")', "newline inside string", 1),
    ('; "in a comment\n(function-words "a\\', "unterminated string", 2),
])
def test_parse_grammar_reports_unreadable_text(text, message, line):
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar(text)
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line


def test_parse_grammar_reads_escapes_and_comments():
    # a backslash takes the next character as it is; ';' starts a comment
    # outside a string
    text = '(function-words "a\\"b;" ; "c\n  "d\\\\")'
    assert parse_grammar(text)[1] == {'a"b;', "d\\"}
    with pytest.raises(GrammarSyntaxError, match="line 3: unknown"):
        parse_grammar(text + "\n(bogus)")


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


@pytest.mark.parametrize("text, line", [
    # a procedure in a form fact, a meaning, a contributing feature, the
    # pattern side of equals, a contributing guard, a call with keywords
    ("""
    (cxn bad :kind lexical :score 1/2
      (conditional (?t (form (string ?t (parse-number ?w)))))
      (contributing (?t (lex-class number))))
    """, 3),
    ("""
    (cxn bad :kind lexical :score 1/2
      (conditional (?t (form (string ?t ?w))))
      (contributing (?t (meaning (parse-number ?w)))))
    """, 4),
    ("""
    (cxn bad :kind lexical :score 1/2
      (conditional (?t (form (string ?t ?w))))
      (contributing (?t (value (parse-number ?w)))))
    """, 4),
    ("""
    (cxn bad :kind lexical :score 1/2
      (conditional (?t (form (string ?t ?w))
                       (guard (equals (parse-number ?w) ?n))))
      (contributing (?t (value ?n))))
    """, 4),
    ("""
    (cxn bad :kind lexical :score 1/2
      (conditional (?t (form (string ?t ?w))))
      (contributing (?t (guard (equals ?n (parse-number ?w))))))
    """, 4),
    ("""
    (cxn bad :kind lexical :score 1/2
      (conditional (?t (form (string ?t ?w))
                       (guard (equals ?n (parse-number ?w :base 10)))))
      (contributing (?t (value ?n))))
    """, 4),
], ids=["form", "meaning", "contributing", "equals-pattern",
        "contributing-guard", "keywords"])
def test_procedures_are_called_only_in_guards(ontology, text, line):
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar(text, make_registry(ontology))
    assert err.value.line == line


def test_nested_guard_calls_are_bound_at_load(ontology):
    registry = make_registry(ontology)
    grammar = Grammar(*parse_grammar("""
    (cxn minutes :kind lexical :score 1/2
      (conditional (?t (form (string ?t ?w))
                       (guard (equals ?d (with-unit (parse-number ?w)
                                                    minute)))))
      (contributing (?t (duration ?d))))
    """, registry))
    unit = grammar.comprehend("ten").structure.unit("t0-ten")
    assert unit.get("duration") == Num(Fraction(10), "minute")
    assert not grammar.comprehend("soon").applied  # parse-number fails
    with pytest.raises(UnknownProcedureError):
        parse_grammar("""
        (cxn bad :kind lexical :score 1/2
          (conditional (?t (form (string ?t ?w))
                           (guard (equals ?n (parse-number (divine ?w))))))
          (contributing (?t (value ?n))))
        """, registry)


def test_parse_grammar_rejects_form_contributed_off_root():
    # only a lemmatization changes form facts, only on root, and it reads
    # nothing the search changes; a token unit names its token in its own
    # form facts; each offending unit is reported by line
    for text in ("""
        (cxn plural :kind lemmatization :score 1/2
          (conditional (?t (form (string ?t "balls"))))
          (contributing (?t (form (lemma ?t "ball")))))
        """, """
        (cxn plural :kind lexical :score 1/2
          (conditional (?t (form (string ?t "balls"))))
          (contributing (root (form (lemma ?t "ball")))))
        """, """
        (cxn plural :kind lemmatization :score 1/2
          (conditional (?t (form (string ?t "balls")))
                       (?u (lex-class noun)))
          (contributing (root (form (lemma ?t "ball")))))
        """, """
        (cxn plural :kind lemmatization :score 1/2
          (conditional (?t (form (string ?t "balls"))))
          (contributing (root (form (lemma ?t "ball")) (cat ball))))
        """, """
        (cxn token :kind lexical :score 1/2
          (conditional
            (?u (form (string ?t "x"))))
          (contributing (?u (lex-class noun))))
        """):
        with pytest.raises(GrammarSyntaxError) as err:
            parse_grammar(text)
        assert err.value.line == 4, text


@pytest.mark.parametrize("text, line", [
    # rule (A): ?l is bound by a feature value, not a unit of the pole
    ("""
    (cxn flour-left-edge :kind abstract :score 1/10
      (conditional (?n (lex-class noun) (lb ?l) (rb ?r)
                       (form (string ?r "flour"))))
      (contributing (?n (cat flour))
                    (?l (left-edge true))))
    """, 6),
    # rule (A): root is read, but only a lemmatization writes it
    ("""
    (cxn root-mark :kind lexical :score 1/2
      (conditional (root (form (string ?t "x")))
                   (?t (form (string ?t "x"))))
      (contributing (root (marked true))))
    """, 5),
    # rule (B): ?a is a token unit of a construction that is not form-only
    ("""
    (cxn white-sugar-pair :kind abstract :score 1/10
      (conditional (?a (form (string ?a "white") (meets ?a ?b)))
                   (?b (form (string ?b "sugar"))))
      (contributing (?b (cat white-sugar))
                    (?a (lex-class modifier))))
    """, 6),
], ids=["bound-value", "root", "token-unit"])
def test_parse_grammar_rejects_writes_the_layer_cannot_see(text, line):
    # each offending contributing unit is reported by its line
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar(text)
    assert err.value.line == line


@pytest.mark.parametrize("text, line", [
    # a lemmatization grows the root, so what is absent may turn up later
    ("""
    (cxn plural :kind lemmatization :score 1/2
      (conditional (?t (form (string ?t "balls") (absent (meets ?d ?t)))))
      (contributing (root (form (lemma ?t "ball")))))
    """, 3),
    ("""
    (cxn plural :kind lemmatization :score 1/2
      (conditional (?t (form (string ?t "balls"))))
      (contributing (root (form (lemma ?t "ball") (absent (lemma ?t "x"))))))
    """, 4),
    ("""
    (cxn noun :kind lexical :score 1/2
      (conditional (?t (form (string ?t "x"))))
      (contributing (?t (lex-class noun) (form (absent (string ?t "y"))))))
    """, 4),
    # its arguments are compound facts, none of them absent
    ("""
    (cxn noun :kind lexical :score 1/2
      (conditional (?t (form (string ?t "x") (absent))))
      (contributing (?t (lex-class noun))))
    """, 3),
    ("""
    (cxn noun :kind lexical :score 1/2
      (conditional (?t (form (string ?t "x") (absent ?t))))
      (contributing (?t (lex-class noun))))
    """, 3),
    ("""
    (cxn noun :kind lexical :score 1/2
      (conditional (?t (form (string ?t "x")
                             (absent (absent (string ?t "y"))))))
      (contributing (?t (lex-class noun))))
    """, 4),
    # it stands only among form facts
    ("""
    (cxn noun :kind lexical :score 1/2
      (conditional (?t (form (meets (absent (string ?d "y")) ?t))))
      (contributing (?t (lex-class noun))))
    """, 3),
    ("""
    (cxn noun :kind lexical :score 1/2
      (conditional (?t (form (string ?t "x"))))
      (contributing (?t (meaning (absent (noun ?t))))))
    """, 4),
    # a shared variable must be bound when the group is checked: ?d is
    # first mentioned in a later unit, in the contributing pole, and in
    # another group
    ("""
    (cxn np :kind abstract :score 1/2
      (conditional
        (?n (lex-class noun) (lb ?l) (form (absent (meets ?d ?l))))
        (?v (lex-class verb) (rb ?d)))
      (contributing (?n (np ?v))))
    """, 4),
    ("""
    (cxn np :kind abstract :score 1/2
      (conditional
        (?n (lex-class noun) (lb ?l) (form (absent (meets ?d ?l)))))
      (contributing (?n (np ?d))))
    """, 4),
    ("""
    (cxn np :kind abstract :score 1/2
      (conditional
        (?n (lex-class noun) (lb ?l) (form (absent (meets ?d ?l))))
        (?v (lex-class verb) (rb ?r) (form (absent (meets ?r ?d)))))
      (contributing (?n (np ?v))))
    """, 4),
    # the token-unit rule reads only the positive form facts
    ("""
    (cxn noun :kind lexical :score 1/2
      (conditional (?t (form (string ?u "x") (absent (meets ?u ?t)))))
      (contributing (?t (lex-class noun))))
    """, 3),
], ids=["lemmatization-conditional", "lemmatization-contributing",
        "contributing", "empty", "atom", "nested", "inside-a-fact",
        "meaning", "later-unit", "contributing-variable", "two-groups",
        "token-unit"])
def test_parse_grammar_rejects_misplaced_absent(text, line):
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar(text)
    assert err.value.line == line


def test_absent_may_share_the_variables_of_earlier_units():
    (cxn,), _ = parse_grammar("""
    (cxn np :kind abstract :score 1/2
      (conditional
        (?v (lex-class verb) (rb ?r))
        (?n (lex-class noun) (lb ?l) (form (absent (meets ?r ?l)))))
      (contributing (?n (np ?v))))
    """)
    assert cxn.conditional[1].form_parts == ((), ((features_module.Compound(
        "meets", (Var("r"), Var("l"))),),))


#: bare marks a noun that no "the" precedes
ABSENT_THE = Grammar(*parse_grammar("""
(cxn sugar-noun :kind lexical :score 1/2
  (conditional (?t (form (string ?t "sugar"))))
  (contributing (?t (lex-class noun) (lb ?t))))
(cxn bare :kind abstract :score 1/2
  (conditional
    (?n (lex-class noun) (lb ?l)
        (form (absent (string ?d "the") (meets ?d ?l)))))
  (contributing (?n (bare true))))
"""))


@pytest.mark.parametrize("sentence, bare", [
    ("sugar", True), ("the sugar", False), ("a sugar", True),
    ("sugar the", True), ("the the sugar", False),
])
def test_absent_rejects_a_match_whose_facts_the_root_holds(sentence, bare):
    ts = ABSENT_THE.comprehend(sentence).structure
    results = match(ABSENT_THE.by_name["bare"].conditional, ts)
    assert bool(results) == bare
    # a variable only the group mentions binds nothing; the ones it shares
    # keep the bindings the unit's other features gave them
    for mr in results:
        assert {v for v, _ in mr.bindings.items()} == {"n", "l"}
    assert ("bare" in ABSENT_THE.comprehend(sentence).applied) == bare


def test_absent_line_changes_no_fingerprint(corpus, ontology, data_dir,
                                            workloads):
    # bare-np yields every noun after "the" to definite-np; without the
    # absent line the search also tries the NPs that leave "the" out, and
    # every winner stays the same
    text = (data_dir / "grammar.cxn").read_text()
    line = '(form (absent (string ?d "the") (meets ?d ?lb)))'
    assert text.count(line) == 1
    worlds = [(Grammar(*parse_grammar(t, make_registry(ontology))), ontology)
              for t in (text, text.replace(line, ""))]
    cases = (*(f"probe/k{k}-{form}" for k in (1, 2, 3)
               for form in ("and", "and-the")),
             *(f"salad/{i}" for i in range(0, 300, 5)))
    got = [([corpus.fingerprint(s, world[0].comprehend(s))
             for s in SEARCH_SENTENCES],
            corpus.compute(world, workloads, cases)) for world in worlds]
    assert got[0] == got[1]


def test_grammar_variables_may_not_contain_tilde():
    # state variables are all stem~N; grammar variables must never equal one
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar("""
        (cxn tilde :kind lexical :score 1/2
          (conditional (?t (form (string ?t "mix"))))
          (contributing (?t (referent ?x~1))))
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


def test_form_keys_screen_every_construction_but_bare_np(grammar):
    # bare-np's only form facts are absent ones, which the screen leaves out
    assert [c.name for c in grammar.constructions if not c.form_keys] \
        == ["bare-np"]
    assert grammar.by_name["white-sugar-noun"].form_keys == frozenset({
        ("string", 2), ("string", 2, 1, "text", "white"),
        ("string", 2, 1, "text", "sugar"), ("meets", 2)})


SEARCH_SENTENCES = [
    "225 g butter",
    "Preheat the oven to 175 degrees C",
    "Add the white sugar and the almond flour",
    "Bake for 12 minutes",
]


def _search(grammar, sentence, accessible=()) -> tuple:
    """(every state comprehend tries a construction on, in first-seen
    order, the comprehension result)."""
    reached = {}
    apply = grammar_module.apply_construction

    def recording(cxn, ts, *rest):
        reached[id(ts)] = ts
        return apply(cxn, ts, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grammar_module, "apply_construction", recording)
        result = grammar.comprehend(sentence, accessible)
    return list(reached.values()), result


def _reached_states(grammar, sentence) -> list:
    states, result = _search(grammar, sentence)
    assert result.succeeded
    return states


def _search_trace(grammar, sentence, accessible=()) -> tuple:
    """What a search did, in terms that do not depend on object identity."""
    states, result = _search(grammar, sentence, accessible)
    return ([ts.content_key() for ts in states], _winner(result),
            result.structure.applied, result.succeeded, result.truncated)


@pytest.mark.parametrize("sentence", SEARCH_SENTENCES)
def test_anchor_prefilter_skips_only_constructions_that_cannot_apply(
        grammar, sentence):
    skipped = 0
    for ts in _reached_states(grammar, sentence):
        tried = {c.name for c in grammar.candidates(ts)}
        for cxn in grammar.constructions:
            if cxn.name not in tried:
                skipped += 1
                assert grammar_module.apply_construction(
                    cxn, ts, {}) == [], cxn.name
    assert skipped > 0


def _better_path(a: TransientStructure, b: TransientStructure) -> bool:
    """Prefer more consumed tokens, then fewer applications."""
    if a.consumed != b.consumed:
        return len(a.consumed) > len(b.consumed)
    return len(a.applied) < len(b.applied)


def _single_layer_winner(grammar, utterance, accessible=()) -> tuple:
    """(content_key, score, unresolved token ids, sorted applied) of the
    search that interleaves the lemmatizations with every other
    construction and reads the candidates of each state: the reference
    the layered search must agree with."""
    tokens = tokenize(utterance) if isinstance(utterance, str) else list(utterance)
    ts0 = grammar_module.initialize_transient(tokens, accessible)
    content = {t.token_id for t in tokens
               if t.word not in grammar.function_words}

    states, children_cache, terminal = {}, {}, []
    k0 = ts0.content_key()
    states[k0] = ts0
    work = [k0]
    while work and len(states) < grammar_module.MAX_STATES:
        key = work.pop()
        ts = states[key]
        if key in children_cache:
            continue
        children = []
        for cxn in grammar.candidates(ts):
            for child in grammar_module.apply_construction(cxn, ts, {}):
                ck = child.content_key()
                if ck == key:
                    continue
                children.append(ck)
                if ck not in states:
                    states[ck] = child
                    work.append(ck)
                elif _better_path(child, states[ck]):
                    states[ck] = child
                    children_cache.pop(ck, None)
                    work.append(ck)
        children_cache[key] = children
        if not children:
            terminal.append(key)
    if not terminal:
        terminal = list(states)
    goals = [k for k in terminal if content <= states[k].consumed]
    ranked = sorted(goals or terminal,
                    key=lambda k: grammar._rank(states[k], content))
    best = states[ranked[0]]
    return (best.content_key(), grammar_module._path_score(grammar, best),
            [t.token_id for t in tokens if t.token_id in content - best.consumed],
            sorted(grammar_module.applied_names(best)))


def _winner(result) -> tuple:
    """A comprehension result in the terms of ``_single_layer_winner``."""
    return (result.structure.content_key(), result.score,
            [t.token_id for t in result.unresolved_tokens],
            sorted(result.applied))


def test_layered_search_picks_the_single_layer_winner(grammar, ontology,
                                                      data_dir, monkeypatch):
    # every step of both bundled recipes, in their own discourse
    compared = []
    layered = grammar.comprehend

    def both(utterance, accessible=()):
        result = layered(utterance, accessible)
        assert _winner(result) == _single_layer_winner(
            grammar, utterance, accessible), utterance
        compared.append(any(grammar.by_name[n].kind == "lemmatization"
                            for n in result.applied))
        return result

    monkeypatch.setattr(grammar, "comprehend", both)
    for name in (ALMOND, VANILLA):
        ks, config = fresh_kitchen()
        run_recipe(load_recipe(data_dir / "recipes" / f"{name}.txt"),
                   grammar, ontology, ks, config)
    for sentence in SEARCH_SENTENCES:
        grammar.comprehend(sentence)
    assert len(compared) > 40 and sum(compared) >= 10


def test_layered_search_picks_the_reference_winner_on_fuzzed_sentences(
        grammar, corpus):
    # word salads of at most 7 tokens over the grammar's literal words,
    # numbers and function words: lexical applications the layer settles,
    # contested ones, and sentences nothing covers; each within the state
    # budget
    vocab = corpus.salad_vocabulary(grammar)
    rng = random.Random(8)
    for _ in range(60):
        sentence = " ".join(rng.choice(vocab)
                            for _ in range(rng.randint(1, 7)))
        try:
            result = grammar.comprehend(sentence)
        except SousChefError as exc:
            with pytest.raises(type(exc)):
                _single_layer_winner(grammar, sentence)
            continue
        assert not result.truncated, sentence
        assert _winner(result) == _single_layer_winner(grammar, sentence), \
            sentence


CONTESTING_CONSTRUCTIONS = """
(cxn sugar-noun :kind lexical :score 1/2
  (conditional (?t (form (lemma ?t "sugar"))))
  (contributing (?t (lex-class noun) (cat white-sugar) (referent ?x)
                    (lb ?t) (rb ?t))))
(cxn white-adjective :kind lexical :score 1/2
  (conditional (?t (form (string ?t "white"))))
  (contributing (?t (lex-class adjective))))
(cxn and-word :kind lexical :score 1/2
  (conditional (?t (form (string ?t "and"))))
  (contributing (?t (lex-class conjunction))))
"""


#: the form-only constructions that leave the search: none of their matches
#: stayed out of the layer (number-word and range-word have none on a
#: sentence without a number); with no layer, none leaves
LEFT_THE_SEARCH = {
    "70 g white sugar": ["number-word", "range-word", "gram-measure"],
    "Melt the butter and sugar": ["number-word", "range-word", "butter-noun",
                                  "sugar-noun", "and-word"],
    "60 g almond flour": ["number-word", "range-word", "gram-measure",
                          "almond-flour-noun"],
}


def _bundled_plus(data_dir, ontology, text: str) -> Grammar:
    """The bundled grammar with the constructions of text appended."""
    text = (data_dir / "grammar.cxn").read_text() + text
    return Grammar(*parse_grammar(text, make_registry(ontology)))


def _layered(grammar, sentence, monkeypatch) -> tuple:
    """(the state the layer of uncontested applications left, the
    candidates it left to the search, the comprehension result)."""
    seen = []
    apply_uncontested = grammar._apply_uncontested

    def spy(*args):
        seen.append(apply_uncontested(*args))
        return seen[-1]

    monkeypatch.setattr(grammar, "_apply_uncontested", spy)
    result = grammar.comprehend(sentence)
    (settled, candidates), = seen
    return settled, candidates, result


@pytest.mark.parametrize("sentence, layer, searched", [
    # sugar-noun and white-sugar-noun touch the same token, and so do
    # white-adjective and white-sugar-noun
    ("70 g white sugar", ["number-word", "gram-measure"],
     ["sugar-noun", "white-sugar-noun", "white-adjective"]),
    # np-and's ?and unit only reads the token and-word writes
    ("Melt the butter and sugar", ["butter-noun", "sugar-noun", "and-word"],
     []),
    # nothing contests a token
    ("60 g almond flour", ["number-word", "gram-measure", "almond-flour-noun"],
     []),
])
def test_contested_applications_stay_in_the_search(
        data_dir, ontology, monkeypatch, sentence, layer, searched):
    grammar = _bundled_plus(data_dir, ontology, CONTESTING_CONSTRUCTIONS)
    settled, candidates, result = _layered(grammar, sentence, monkeypatch)
    assert list(grammar_module.applied_names(settled)) == layer
    assert set(searched) <= {c.name for c in candidates}
    form_only = [c.name for c in grammar.candidates(settled)
                 if c.form_only and c.kind != "lemmatization"]
    assert [n for n in form_only if n not in {c.name for c in candidates}] \
        == LEFT_THE_SEARCH[sentence]
    # a token unit reads the root alone, so no form-only construction
    # applies twice to the same tokens, not even on a unit named after one
    anchors = [entry.split("|")[0] for entry in result.structure.applied
               if entry.split("@")[0] in form_only]
    assert len(anchors) == len(set(anchors))
    assert _winner(result) == _single_layer_winner(grammar, sentence)


def test_uncontested_match_whose_merge_fails_stays_in_the_search(
        data_dir, ontology, monkeypatch):
    # nothing else claims "zebra", and the two contributing units write
    # conflicting values to its unit
    grammar = _bundled_plus(data_dir, ontology, """
    (cxn zebra-word :kind lexical :score 1/2
      (conditional (?t (form (string ?t "zebra"))))
      (contributing (?t (cat zebra)) (?t (cat horse))))
    """)
    sentence = "Melt the zebra"
    zebra = grammar.by_name["zebra-word"]
    ts0 = grammar_module.initialize_transient(tokenize(sentence))
    assert len(match(zebra.conditional, ts0)) == 1
    assert grammar_module.apply_construction(zebra, ts0, {}) == []
    settled, candidates, result = _layered(grammar, sentence, monkeypatch)
    assert "zebra-word" not in grammar_module.applied_names(settled)
    assert zebra in candidates
    assert _winner(result) == _single_layer_winner(grammar, sentence)


def test_contribution_may_name_a_new_unit_before_making_it():
    # ?g is a new unit, and a contributing unit listed before it names it
    grammar = Grammar(*parse_grammar("""
    (cxn sugar-noun :kind lexical :score 1/2
      (conditional (?t (form (string ?t "sugar"))))
      (contributing (?t (lex-class noun))))
    (cxn noun-group :kind abstract :score 1/2
      (conditional (?n (lex-class noun)))
      (contributing (?n (used-by ?g)) (?g (members ?n))))
    """))
    result = grammar.comprehend("sugar")
    assert result.applied == ("sugar-noun", "noun-group")
    structure = result.structure
    group = structure.unit("t0-sugar").get("used-by")
    assert isinstance(group, Sym)
    assert structure.unit(group.name).get("members") == Sym("t0-sugar")
    assert not any(isinstance(value, Var) for unit in structure.units
                   for _, value in unit.features)


@pytest.mark.parametrize("sentence", SEARCH_SENTENCES)
def test_search_reaches_distinct_states(grammar, sentence):
    states = _reached_states(grammar, sentence)
    assert len({ts.content_key() for ts in states}) > 1


@pytest.mark.parametrize("sentence, names", [
    ("225 g butter", ("number-word", "butter-noun")),
    # each of these makes a new unit
    ("Add the white sugar and the almond flour",
     ("white-sugar-noun", "almond-flour-noun")),
])
def test_commuting_applications_build_one_state(grammar, sentence, names):
    # the two constructions read different tokens, so either order makes
    # the same units under the same names and one content key
    ts0 = grammar_module.initialize_transient(tokenize(sentence))
    first, second = (grammar.by_name[n] for n in names)
    ends = []
    for a, b in ((first, second), (second, first)):
        (middle,) = grammar_module.apply_construction(a, ts0, {})
        (end,) = grammar_module.apply_construction(b, middle, {})
        ends.append(end)
    units = [{(u.name, frozenset(u.features)) for u in end.units}
             for end in ends]
    assert units[0] == units[1]
    assert ends[0].content_key() == ends[1].content_key()
    assert ends[0].applied == tuple(reversed(ends[1].applied))


def _rebuilt(ts):
    """ts with every Unit a new object, so no per-unit cache carries over."""
    units = tuple(Unit(u.name, u.features) for u in ts.units)
    return TransientStructure(units, ts.applied, ts.consumed)


@pytest.mark.parametrize("sentence", SEARCH_SENTENCES)
def test_cached_match_equals_uncached_match(grammar, sentence):
    for ts in _reached_states(grammar, sentence):
        copy = _rebuilt(ts)
        for cxn in grammar.candidates(ts):
            assert match(cxn.conditional, ts) == \
                match(cxn.conditional, copy), cxn.name


def test_cached_match_follows_root_form_changes():
    # the "balls" unit exists before the lemma fact that `ball-cat` needs
    # reaches the root, so match work kept from that state is stale;
    # the search lemmatizes first and never builds that order, so it is
    # built here with direct applications
    grammar = Grammar(*parse_grammar("""
    (cxn plural-ball :kind lemmatization :score 1/2
      (conditional (?t (form (string ?t "balls"))))
      (contributing (root (form (lemma ?t "ball")))))
    (cxn balls-noun :kind lexical :score 1/2
      (conditional (?t (form (string ?t "balls"))))
      (contributing (?t (lex-class noun))))
    (cxn ball-cat :kind lexical :score 1/2
      (conditional (?t (lex-class noun) (form (lemma ?t "ball"))))
      (contributing (?t (cat ball))))
    """))
    ts0 = grammar_module.initialize_transient(tokenize("balls"))
    (early,) = grammar_module.apply_construction(
        grammar.by_name["balls-noun"], ts0, {})
    late = grammar_module.apply_construction(
        grammar.by_name["plural-ball"], early, {})[0]
    ball_cat = grammar.by_name["ball-cat"]
    for ts in (ts0, early, late):
        for cxn in grammar.constructions:
            assert match(cxn.conditional, ts) == \
                match(cxn.conditional, _rebuilt(ts)), cxn.name
    assert grammar_module.applied_names(late) == ("balls-noun", "plural-ball")
    assert not match(ball_cat.conditional, early)
    assert match(ball_cat.conditional, late)


def test_almond_search_stays_within_match_budget(grammar, ontology,
                                                 data_dir, monkeypatch):
    # machine-independent guard against losing the candidate screen (match
    # calls), the compiled units' screens (the matcher's unit trials, and
    # its fact trials against the root's form facts) and the layer of
    # uncontested form-only applications (apply_construction calls); each
    # budget is 15 % above the count measured when it was set
    counts = {}

    def counting(module, name):
        function = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return function(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    counting(grammar_module, "match")
    counting(grammar_module, "apply_construction")
    counting(features_module, "_try_unit")
    counting(features_module, "_try_fact")
    ks, config = fresh_kitchen()
    document = load_recipe(data_dir / "recipes" / f"{ALMOND}.txt")
    run_recipe(document, grammar, ontology, ks, config)
    assert counts["match"] <= 207  # 180
    assert counts["_try_unit"] <= 380  # 330
    assert counts["_try_fact"] <= 582  # 506
    assert counts["apply_construction"] <= 326  # 284


#: red-mark and blue-mark give one unit, under one name, different values
#: of a feature that marked reads; marked writes only a new unit, whose
#: name does not depend on that value
MARKS = Grammar(*parse_grammar("""
(cxn balls-noun :kind lexical :score 1/2
  (conditional (?t (form (string ?t "balls"))))
  (contributing (?t (lex-class noun))))
(cxn red-mark :kind lexical :score 1/2
  (conditional (?t (lex-class noun) (form (string ?t "balls"))))
  (contributing (?t (mark red))))
(cxn blue-mark :kind lexical :score 1/2
  (conditional (?t (lex-class noun) (form (string ?t "balls"))))
  (contributing (?t (mark blue))))
(cxn marked :kind lexical :score 1/2
  (conditional (?t (lex-class noun) (mark ?m)))
  (contributing (?seen (mark ?m))))
"""))


def test_search_memo_changes_no_result(grammar, ontology, workloads,
                                      monkeypatch):
    # the search with its memo against the search that matches and merges
    # afresh on every state (a fresh memo each call), on the k = 3 probes too
    names = ("white-sugar", "almond-flour", "wheat-flour")
    cases = [(grammar, sentence, ()) for sentence in SEARCH_SENTENCES]
    for repeat in (False, True):
        session, _, sentence, _ = primed(grammar, ontology, workloads,
                                         names, 3, repeat)
        cases.append((grammar, sentence, session.pdm.current.accessible))
    cases.append((MARKS, "balls", ()))
    with_memo = [_search_trace(*case) for case in cases]
    apply = grammar_module.apply_construction
    monkeypatch.setattr(grammar_module, "apply_construction",
                        lambda cxn, ts, memo: apply(cxn, ts, {}))
    assert [_search_trace(*case) for case in cases] == with_memo


def test_compiled_match_equals_the_interpretive_match(grammar, ontology,
                                                      workloads):
    # every construction on every state a search tries constructions on:
    # the bench's sentences, the primed k <= 3 probes in both forms in
    # their discourse, and the MARKS grammar; same results, same order
    cases = [(grammar, sentence, ()) for sentence in SEARCH_SENTENCES]
    names = ("white-sugar", "almond-flour", "wheat-flour")
    for k in (1, 2, 3):
        for repeat in (False, True):
            session, _, sentence, _ = primed(grammar, ontology, workloads,
                                             names, k, repeat)
            cases.append((grammar, sentence, session.pdm.current.accessible))
    cases.append((MARKS, "balls", ()))
    compared = 0
    for gram, sentence, accessible in cases:
        states, _ = _search(gram, sentence, accessible)
        for ts in states:
            for cxn in gram.constructions:
                assert match(cxn.conditional, ts) == \
                    reference_match.match(cxn.conditional, ts), cxn.name
                compared += 1
    assert compared > 2000


def test_search_memo_ends_with_its_call(ontology, data_dir):
    # a sentence comprehends alike in a fresh grammar and after others, and
    # nothing keeps the units of a search once its result is dropped
    sentence = "Add the white sugar and the almond flour"
    fresh = load_grammar(data_dir / "grammar.cxn", ontology)
    first = _search_trace(fresh, sentence)
    for other in SEARCH_SENTENCES + ["Add the almond flour and the white sugar"]:
        fresh.comprehend(other)
    assert _search_trace(fresh, sentence) == first
    result = fresh.comprehend(sentence)
    refs = [weakref.ref(u) for u in result.structure.units]
    del result
    gc.collect()
    assert [r() for r in refs if r() is not None] == []


def test_comprehension_does_not_keep_the_grammar_alive(ontology, data_dir):
    # per-unit caches must not pin a grammar through a process-wide table
    fresh = load_grammar(data_dir / "grammar.cxn", ontology)
    result = fresh.comprehend("Add the white sugar and the almond flour")
    assert result.succeeded
    refs = [weakref.ref(x) for x in (fresh, *fresh.constructions)]
    del fresh, result
    gc.collect()
    assert [r() for r in refs if r() is not None] == []


def test_matching_leaves_no_reference_cycles(grammar):
    # match and its helpers free what they build by reference counting, and
    # so do a comprehension and its meaning extraction
    sentence = "Add the white sugar and the almond flour"
    winner = grammar.comprehend(sentence).structure
    gc.collect()
    gc.disable()
    try:
        for cxn in grammar.constructions:
            match(cxn.conditional, winner)
        assert gc.collect() == 0
        result = grammar.comprehend(sentence)
        assert gc.collect() == 0
        extract_fragment(result)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_state_cap_is_reported(grammar, ontology, almond_result,
                               vanilla_result, monkeypatch):
    sentence = "Add the white sugar and the almond flour"
    assert not grammar.comprehend(sentence).truncated
    for result in (almond_result, vanilla_result):
        assert not any(step.truncated for step in result.steps)
    # four states are too few to cover the sentence
    monkeypatch.setattr(grammar_module, "MAX_STATES", 4)
    assert grammar.comprehend(sentence).truncated
    ks, config = fresh_kitchen()
    session = CookingSession(grammar, ontology, ks, config)
    with pytest.raises(UnderstandingFailure, match="state cap"):
        session.run_step(0, sentence)
