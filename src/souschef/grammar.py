"""Construction grammar: grammar files, comprehension search, meaning extraction.

A grammar is an ordered inventory of constructions, each a conditional pole
(matched against the transient structure) and a contributing pole (merged
into it). Comprehending an utterance applies the lemmatizations once, then
once more every application of a form-only construction that nothing else
contests, then searches over the remaining applications; the goal is a
state no construction can change in which every content token has been
consumed. The winning state's meaning predicates are read off into a plan
fragment.

Grammar file syntax (s-expressions, ';' comments):

    (function-words "the" "a" ...)

    (cxn butter-word
      :kind lexical
      :score 0.5
      (conditional
        (?t (form (lemma ?t "butter"))))
      (contributing
        (?t (lex-class noun) (cat butter) (referent ?x) (lb ?t) (rb ?t))))

Feature values: ?x is a variable, "..." is text, numbers are exact rationals,
(num 175 degrees-C) attaches a unit, bare names are symbols, any other list
is a compound term. A variable name may not contain '~', which marks the
fresh variables of comprehension.

Procedures (procedural attachment) are called in guards only, and each call
is bound to its function when the grammar is read. A conditional unit's
``guard`` feature holds calls such as ``(parse-number ?w)``, which must not
fail, and terms ``(equals X V)``, which unify the pattern X with V. As V,
and as an argument of a call, a compound term is itself a call, as in
``(equals ?d (with-unit (parse-number ?w) minute))``. A call naming no
registered procedure raises UnknownProcedureError. A procedure named
anywhere else (a form fact, a meaning, a contributing feature, X of
``equals``), a ``guard`` feature in a contributing pole, or a call with
keyword arguments is a GrammarSyntaxError.

Form facts live on the ``root`` unit only. Only a lemmatization may
contribute ``form``; it contributes ``form`` to ``root`` and nothing else,
and its conditional pole holds only ``form`` and ``guard`` features. A
conditional unit named by a variable no earlier unit mentions and holding
only ``form`` and ``guard`` features is a token unit, like ``?t`` above: it
stands for the token its form facts name, so they must mention its name. A
construction all of whose conditional units are token units is form-only.

Among a conditional unit's form facts, ``(absent FACT ...)`` rejects a
match under which the root jointly holds the FACTs (see ``features``). It
holds one or more compound facts, none of them ``absent``, and stands in
no lemmatization, since the lemmatizations grow the root. A variable it
shares with the rest of its construction must occur outside any
``absent`` in its unit or an earlier conditional unit; the others are
local to it. A token unit names its token in its other form facts.
Two more rules keep the layer of uncontested applications exact (see
``Grammar.comprehend``):

(A) every contributing unit of a construction that is not a lemmatization
    is one of its own conditional units other than ``root``, or a new unit,
    named by a variable its conditional pole never mentions;
(B) a construction that is not form-only writes none of its token units.

A grammar that breaks these rules fails to load with GrammarSyntaxError.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Optional

from .errors import (
    DuplicateNameError, GrammarSyntaxError, InputError, MergeFailure,
    StructuralError, UnknownProcedureError,
)
from .features import (
    ABSENT, FORM_FEATURE, GUARD_FEATURE, ROOT, Bindings, Call, Compound,
    MatchResult, Num, PatternUnit, Struct, Sym, Text, TransientStructure,
    Unit, ValueSet, Var, fact, match, merge,
    variables_in_order, vars_of,
)
from .kitchen import PRIMITIVES
from .memory import make_registry
from .plans import PlanCall, PlanFragment

CONSTRUCTION_KINDS = (
    "lemmatization", "lexical", "idiomatic", "semi-schematic", "abstract",
)


# ---------------------------------------------------------------------------
# Tokenization


@dataclass(frozen=True)
class Token:
    index: int
    word: str
    token_id: str


_STRIP = ".,;:!?\"'()[]"


def tokenize(text: str) -> list:
    """Lowercased whitespace tokens, outer punctuation stripped.

    Internal hyphens survive ("15-20" stays one token); empty residues drop.
    """
    tokens = []
    for raw in text.lower().split():
        word = raw.strip(_STRIP)
        if not word:
            continue
        i = len(tokens)
        tokens.append(Token(i, word, f"t{i}-{word}"))
    return tokens


def split_sentences(text: str) -> list:
    """Period-separated sentences, whitespace-trimmed, empties dropped."""
    out = []
    for part in text.split("."):
        part = part.strip()
        if part:
            out.append(part)
    return out


# ---------------------------------------------------------------------------
# Transient structure initialization


def initialize_transient(tokens: list, accessible: tuple = ()) -> TransientStructure:
    """Root unit with token form facts plus one context unit per accessible
    discourse entry (class, ids, recency rank)."""
    if not tokens:
        raise InputError("cannot comprehend an empty utterance")
    facts = []
    for tok in tokens:
        facts.append(fact("string", Sym(tok.token_id), Text(tok.word)))
        facts.append(fact("lemma", Sym(tok.token_id), Text(tok.word)))
    for a, b in zip(tokens, tokens[1:]):
        facts.append(fact("meets", Sym(a.token_id), Sym(b.token_id)))
    units = [Unit.build(ROOT, [(FORM_FEATURE, ValueSet(facts))])]
    for i, entry in enumerate(accessible):
        units.append(Unit.build(f"context-{i}", [
            ("class", Sym(entry.concept)),
            ("rank", Num(Fraction(i))),
            ("ids", ValueSet(Num(Fraction(s)) for s in entry.ids)),
        ]))
    return TransientStructure(tuple(units))


# ---------------------------------------------------------------------------
# Grammar files


@dataclass(frozen=True)
class Construction:
    name: str
    kind: str
    score: Fraction
    conditional: tuple
    contributing: tuple

    @cached_property
    def variables(self) -> tuple:
        """Variable names of both poles in first-occurrence order."""
        return variables_in_order(self.conditional + self.contributing)

    @cached_property
    def form_only(self) -> bool:
        """Every conditional unit is a token unit, so the root alone decides
        the matches."""
        return all(_token_units(self.conditional))

    @cached_property
    def reads(self) -> tuple:
        """(required, read): for each conditional unit that is not a token
        unit, the features a unit must hold to stand for it; and all those
        features, sorted. ``match`` reads no other feature of a unit."""
        tokens = _token_units(self.conditional)
        required = tuple(pu.plan.required for pu, token
                         in zip(self.conditional, tokens) if not token)
        return required, tuple(sorted(frozenset().union(*required)))

    @cached_property
    def form_keys(self) -> frozenset:
        """The ``Unit.form_pool`` index keys of its conditional form facts,
        ``absent`` ones left out: each fact's shape and the key of each
        literal argument. A match finds each fact among the root's form
        facts in its keys' buckets, so a root lacking a key matches no
        unit that holds the fact."""
        return frozenset(key for pu in self.conditional for fp in pu.plan.facts
                         for key in (fp.shape, *fp.keys))

    @cached_property
    def new_units(self) -> frozenset:
        """The variables naming its new units: contributing units named by a
        variable its conditional pole never mentions."""
        return frozenset(pu.name.name for pu in self.contributing
                         if isinstance(pu.name, Var)) \
            - set(variables_in_order(self.conditional))


def _token_units(conditional: tuple) -> list:
    """Per conditional unit, whether it is a token unit: named by a variable
    no earlier unit mentions, holding only form and guard features."""
    seen: set = set()
    out = []
    for pu in conditional:
        out.append(isinstance(pu.name, Var) and pu.name.name not in seen
                   and pu.plan.form_only)
        seen.update(variables_in_order((pu,)))
    return out


@dataclass
class _Node:
    """One read s-expression: nested lists of _Node, or an atom."""
    kind: str       # "list" | "atom" | "string"
    value: object
    line: int


#: The tokens of a grammar file, blanks left out: a newline, "(", ")", a
#: string, a quote that opens no well-formed string, a comment, an atom. A
#: backslash in a string takes the next character as it is, a newline too,
#: and that newline counts no line.
_TOKEN = re.compile(r'''\n|\(|\)|"(?:[^"\\\n]|\\[\s\S])*"|"|;[^\n]*|[^ \t\r\n();"]+''')
_ESCAPE = re.compile(r"\\([\s\S])")


def _read_sexprs(text: str) -> list:
    nodes = []
    stack: list[_Node] = []
    line = 1
    for token in _TOKEN.findall(text):
        c = token[0]
        if c == "\n":
            line += 1
        elif c == "(":
            node = _Node("list", [], line)
            (stack[-1].value if stack else nodes).append(node)
            stack.append(node)
        elif c == ")":
            if not stack:
                raise GrammarSyntaxError("unbalanced ')'", line=line)
            stack.pop()
        elif c != ";":
            if token == '"':
                _bad_string(text, line)
            node = _Node("atom", token, line) if c != '"' else \
                _Node("string", _ESCAPE.sub(_unescape, token[1:-1]), line)
            (stack[-1].value if stack else nodes).append(node)
    if stack:
        raise GrammarSyntaxError("unbalanced '('", line=stack[-1].line)
    return nodes


def _unescape(escape: re.Match) -> str:
    return escape.group(1)


def _bad_string(text: str, line: int) -> None:
    """Raise the error of the first string in text that does not close,
    which opens on line: a newline inside it, or the end of the text."""
    i = next(t.start() for t in _TOKEN.finditer(text) if t.group() == '"')
    j = i + 1
    while j < len(text) and text[j] != '"':
        if text[j] == "\n":
            raise GrammarSyntaxError("newline inside string", line=line)
        j += 2 if text[j] == "\\" else 1
    raise GrammarSyntaxError("unterminated string", line=line)


def _atom_value(s: str, line: int):
    if s.startswith("?"):
        if len(s) == 1:
            raise GrammarSyntaxError("bare '?' is not a variable", line=line)
        if "~" in s:
            raise GrammarSyntaxError(
                f"variable {s}: '~' is reserved for fresh variables", line=line)
        return Var(s[1:])
    # Fraction reads only text that starts, after blanks and a sign, with
    # a digit or a point; any other atom is a symbol, without a failed parse
    if s[0] in "+-." or s[0].isdigit() or s[0].isspace():
        try:
            return Num(Fraction(s))
        except (ValueError, ZeroDivisionError):
            pass
    return Sym(s)


def _parse_value(node: _Node, procs: dict, calls: bool = False):
    """The value node denotes. Where calls, a compound term is a procedure
    call bound to its function, and so is each compound argument of it;
    elsewhere a compound term naming a procedure is an error."""
    if node.kind == "atom":
        return _atom_value(node.value, node.line)
    if node.kind == "string":
        return Text(node.value)
    items = node.value
    if not items or items[0].kind != "atom":
        raise GrammarSyntaxError("compound term needs a leading name",
                                 line=node.line)
    head = items[0].value
    rest = items[1:]
    if head == "num":
        if len(rest) not in (1, 2) or any(r.kind != "atom" for r in rest):
            raise GrammarSyntaxError("(num VALUE [UNIT])", line=node.line)
        try:
            value = Fraction(rest[0].value)
        except (ValueError, ZeroDivisionError):
            raise GrammarSyntaxError(f"not a number: {rest[0].value}",
                                     line=node.line)
        unit = rest[1].value if len(rest) == 2 else None
        return Num(value, unit)
    if head == ABSENT:
        raise GrammarSyntaxError(
            "(absent FACT ...) may stand only among a unit's form facts",
            line=node.line)
    if head == "struct":
        fields = []
        for r in rest:
            if r.kind != "list" or len(r.value) != 2 or r.value[0].kind != "atom":
                raise GrammarSyntaxError("(struct (key value) ...)", line=node.line)
            fields.append((r.value[0].value, _parse_value(r.value[1], procs)))
        return Struct(fields)
    if calls and head not in procs:
        raise UnknownProcedureError(
            f"line {node.line}: unknown procedure {head}")
    if head in procs and not calls:
        raise GrammarSyntaxError(
            f"procedure {head} may be called only in a guard: as the guard, "
            f"as V in (equals X V), or as a call's argument", line=node.line)
    args, kwargs = [], []
    k = 0
    while k < len(rest):
        r = rest[k]
        if r.kind == "atom" and r.value.startswith(":"):
            if k + 1 >= len(rest):
                raise GrammarSyntaxError(f"keyword {r.value} lacks a value",
                                         line=r.line)
            kwargs.append((r.value[1:], _parse_value(rest[k + 1], procs)))
            k += 2
        else:
            if kwargs:
                raise GrammarSyntaxError(
                    "positional value after keyword", line=r.line)
            args.append(_parse_value(r, procs, calls))
            k += 1
    if not calls:
        return Compound(head, tuple(args), tuple(kwargs))
    if kwargs:
        raise GrammarSyntaxError(
            f"procedure call {head} takes no keyword arguments",
            line=node.line)
    return Call(head, tuple(args), fn=procs[head])


def _parse_guard(node: _Node, procs: dict):
    """A procedure call, or (equals X V) with V a value or a call."""
    if _head(node) == "equals":
        if len(node.value) != 3:
            raise GrammarSyntaxError("(equals X V) takes two arguments",
                                     line=node.line)
        lhs, rhs = node.value[1:]
        return Compound("equals", (_parse_value(lhs, procs),
                                   _parse_value(rhs, procs, calls=True)))
    guard = _parse_value(node, procs, calls=True)
    if not isinstance(guard, Call):
        raise GrammarSyntaxError(
            "guard must be a procedure call or (equals X V)", line=node.line)
    return guard


def _parse_absent(node: _Node, procs: dict) -> Compound:
    """(absent FACT ...): one or more compound facts, none of them absent."""
    facts = [_parse_value(f, procs) if _head(f) != ABSENT else None
             for f in node.value[1:]]
    if not facts or not all(isinstance(f, Compound) for f in facts):
        raise GrammarSyntaxError(
            "(absent FACT ...) takes one or more compound facts, none of "
            "them absent", line=node.line)
    return Compound(ABSENT, tuple(facts))


def _head(node: _Node) -> Optional[str]:
    """The leading atom of a list node, else None."""
    if node.kind == "list" and node.value and node.value[0].kind == "atom":
        return node.value[0].value
    return None


def _parse_feature(node: _Node, procs: dict) -> tuple:
    if node.kind != "list" or not node.value or node.value[0].kind != "atom":
        raise GrammarSyntaxError("feature must be (name value ...)",
                                 line=node.line)
    fname = node.value[0].value
    parse = _parse_guard if fname == GUARD_FEATURE else _parse_value
    values = [_parse_absent(v, procs)
              if fname == FORM_FEATURE and _head(v) == ABSENT
              else parse(v, procs) for v in node.value[1:]]
    if not values:
        raise GrammarSyntaxError(f"feature {fname} has no value", line=node.line)
    if fname in (FORM_FEATURE, "meaning", GUARD_FEATURE) or len(values) > 1:
        return fname, ValueSet(values)
    return fname, values[0]


def _parse_pattern_unit(node: _Node, procs: dict) -> PatternUnit:
    if node.kind != "list" or not node.value:
        raise GrammarSyntaxError("pole unit must be (name (feature ...) ...)",
                                 line=node.line)
    head = node.value[0]
    if head.kind != "atom":
        raise GrammarSyntaxError("unit name must be a symbol or variable",
                                 line=head.line)
    name = _atom_value(head.value, head.line)
    if not isinstance(name, (Sym, Var)):
        raise GrammarSyntaxError(f"bad unit name: {head.value}", line=head.line)
    features = [_parse_feature(f, procs) for f in node.value[1:]]
    try:
        return PatternUnit.build(name, features)
    except StructuralError as exc:
        raise GrammarSyntaxError(str(exc), line=node.line)


def _parse_cxn(node: _Node, procs: dict) -> Construction:
    items = node.value
    if len(items) < 2 or items[1].kind != "atom":
        raise GrammarSyntaxError("(cxn NAME ...)", line=node.line)
    name = items[1].value
    kind, score = None, None
    poles: dict[str, tuple] = {}
    units = []  # (pole, pattern unit, line) of every pole unit
    k = 2
    while k < len(items):
        it = items[k]
        if it.kind == "atom" and it.value == ":kind":
            if k + 1 >= len(items) or items[k + 1].kind != "atom":
                raise GrammarSyntaxError(":kind needs a value", line=it.line)
            kind = items[k + 1].value
            k += 2
        elif it.kind == "atom" and it.value == ":score":
            if k + 1 >= len(items) or items[k + 1].kind != "atom":
                raise GrammarSyntaxError(":score needs a value", line=it.line)
            try:
                score = Fraction(items[k + 1].value)
            except (ValueError, ZeroDivisionError):
                raise GrammarSyntaxError(
                    f"bad score: {items[k + 1].value}", line=it.line)
            k += 2
        elif it.kind == "list" and it.value and it.value[0].kind == "atom" \
                and it.value[0].value in ("conditional", "contributing"):
            pole = it.value[0].value
            if pole in poles:
                raise GrammarSyntaxError(f"duplicate {pole} pole", line=it.line)
            poles[pole] = tuple(_parse_pattern_unit(u, procs)
                                for u in it.value[1:])
            units += [(pole, pu, u.line)
                      for pu, u in zip(poles[pole], it.value[1:])]
            k += 1
        else:
            raise GrammarSyntaxError(
                f"unexpected form in construction {name}", line=it.line)
    if kind not in CONSTRUCTION_KINDS:
        raise GrammarSyntaxError(
            f"construction {name}: kind must be one of {CONSTRUCTION_KINDS}, "
            f"got {kind}", line=node.line)
    if score is None or not (0 <= score <= 1):
        raise GrammarSyntaxError(
            f"construction {name}: score must lie in [0, 1]", line=node.line)
    if "conditional" not in poles or not poles["conditional"]:
        raise GrammarSyntaxError(
            f"construction {name}: missing conditional pole", line=node.line)
    if "contributing" not in poles or not poles["contributing"]:
        raise GrammarSyntaxError(
            f"construction {name}: missing contributing pole", line=node.line)
    lemmatization = kind == "lemmatization"
    conditional = poles["conditional"]
    cxn = Construction(name, kind, score, conditional, poles["contributing"])
    token_flags = _token_units(conditional)
    tokens = {pu.name for pu, token in zip(conditional, token_flags) if token}
    read = {pu.name for pu in conditional} - {Sym(ROOT)}
    for pole, pu, line in units:
        # a contributing unit's feature names come from its contributions,
        # so its values are marked for merge once, as the grammar is read
        features = {f for f, _ in pu.features} if pole == "conditional" \
            else {f for f, _, _ in pu.contributions}
        if pu.form_parts[1] and (pole == "contributing" or lemmatization):
            raise GrammarSyntaxError(
                f"construction {name}: (absent ...) may stand only in the "
                f"conditional pole of a construction that is not a "
                f"lemmatization", line=line)
        if pole == "conditional":
            ok = not lemmatization or pu.plan.form_only
        elif lemmatization:
            ok = pu.name == Sym(ROOT) and features == {FORM_FEATURE}
        else:
            ok = FORM_FEATURE not in features
        if not ok:
            raise GrammarSyntaxError(
                f"construction {name}: only a lemmatization may contribute "
                f"form; it gives root only form and reads only form and "
                f"guard features", line=line)
        if pole == "contributing" and GUARD_FEATURE in features:
            raise GrammarSyntaxError(
                f"construction {name}: only a conditional unit holds guards",
                line=line)
        if pole == "contributing" and not lemmatization and not (
                pu.name in read
                or isinstance(pu.name, Var) and pu.name.name in cxn.new_units):
            raise GrammarSyntaxError(  # rule (A)
                f"construction {name}: contributing unit {pu.name!r} is "
                f"neither one of its conditional units other than root nor "
                f"a new unit", line=line)
        if pole == "contributing" and pu.name in tokens \
                and not all(token_flags):
            raise GrammarSyntaxError(  # rule (B)
                f"construction {name}: only a form-only construction may "
                f"write its token unit {pu.name!r}", line=line)
    lines = [line for pole, _, line in units if pole == "conditional"]
    for pu, token, line in zip(conditional, token_flags, lines):
        if token and not any(pu.name.name in vars_of(f)
                             for f in pu.form_parts[0]):
            raise GrammarSyntaxError(
                f"construction {name}: token unit {pu.name!r} must name "
                f"its token in its own form facts", line=line)
    _check_absent_scope(name, conditional, lines, [pu for _, pu, _ in units])
    return cxn


def _check_absent_scope(name: str, conditional: tuple, lines: list,
                        units: list) -> None:
    """Each variable an ``absent`` group shares with the rest of its
    construction occurs, outside the groups, in the group's unit or an
    earlier conditional unit, so the match has bound it when the group is
    checked. Every other variable of a group is local to it."""
    groups = [vars_of(Compound(ABSENT, g))
              for pu in conditional for g in pu.form_parts[1]]
    if not groups:
        return
    in_groups = Counter(v for g in groups for v in g)
    everywhere = set().union(*map(_vars_outside_absent, units))
    earlier: set = set()
    for pu, line in zip(conditional, lines):
        here = _vars_outside_absent(pu)
        for g in pu.form_parts[1]:
            loose = {v for v in vars_of(Compound(ABSENT, g))
                     if v in everywhere or in_groups[v] > 1} - here - earlier
            if loose:
                raise GrammarSyntaxError(
                    f"construction {name}: (absent ...) shares "
                    f"{', '.join(sorted('?' + v for v in loose))} with the "
                    f"rest of the construction, but its unit and the "
                    f"conditional units before it do not mention it outside "
                    f"(absent ...)", line=line)
        earlier |= here


def _vars_outside_absent(pu: PatternUnit) -> set:
    out = set(vars_of(pu.name))
    for fname, value in pu.features:
        if fname == FORM_FEATURE:
            value = ValueSet(pu.form_parts[0])
        out.update(vars_of(value))
    return out


def parse_grammar(text: str, procs: Optional[dict] = None) -> tuple:
    """(constructions, function_words); validates names, kinds and guards,
    binding each guard's calls to procs (name -> function; none if None)."""
    procs = procs or {}
    constructions: list[Construction] = []
    names = set()
    function_words: set[str] = set()
    for node in _read_sexprs(text):
        if node.kind != "list" or not node.value or node.value[0].kind != "atom":
            raise GrammarSyntaxError(
                "top level allows only (cxn ...) and (function-words ...)",
                line=node.line)
        head = node.value[0].value
        if head == "cxn":
            cxn = _parse_cxn(node, procs)
            if cxn.name in names:
                raise DuplicateNameError(
                    f"construction defined twice: {cxn.name} (line {node.line})")
            names.add(cxn.name)
            constructions.append(cxn)
        elif head == "function-words":
            for w in node.value[1:]:
                if w.kind != "string":
                    raise GrammarSyntaxError(
                        "function words must be quoted strings", line=w.line)
                function_words.add(w.value)
        else:
            raise GrammarSyntaxError(f"unknown top-level form: {head}",
                                     line=node.line)
    return tuple(constructions), frozenset(function_words)


# ---------------------------------------------------------------------------
# Application and search


#: The states one comprehension search may hold; a search that reaches it
#: with states unexpanded reports ``truncated``.
MAX_STATES = 4000


@dataclass
class ComprehensionResult:
    structure: TransientStructure
    applied: tuple            # construction names in application order
    score: Fraction
    unresolved_tokens: list   # Token objects never consumed
    succeeded: bool
    truncated: bool           # stopped at MAX_STATES with states unexpanded


def apply_construction(cxn: Construction, ts: TransientStructure,
                       memo: dict) -> list:
    """Every transient structure one application of cxn can produce.

    Matching runs on the grammar's own conditional pole, on its own
    variables; grammar variables contain no ``~`` and every variable of a
    state does, so the two never meet. Each application names its fresh
    variables and its new units after its own ``applied`` entry (see
    ``_apply_match``) before ``merge`` writes them, so a state's names
    depend on which applications built it and not on their order.

    The memo, one search's, keeps each match and merge it makes, so each
    is done once per distinct input (see ``Grammar.comprehend``); a fresh
    dict gives the same result.
    """
    out = []
    for mr in _memo_matches(cxn, ts, memo):
        if _instance_name(cxn, mr) in ts.applied:
            continue  # this exact application already happened
        child = _apply_match(cxn, mr, ts, memo)
        if child is not None:
            out.append(child)
    return out


def _memo_matches(cxn: Construction, ts: TransientStructure,
                  memo: dict) -> list:
    """``match(cxn.conditional, ts)``, kept in memo under cxn's view of ts
    (see ``Grammar.comprehend``)."""
    required, read = cxn.reads
    units = ts.units if not all(required) else tuple(
        u for u in ts.units
        if any(r <= u.feature_names for r in required))
    key = [cxn.name]
    for u in units:
        key.append(u.name)
        key += [id(u.get(f)) for f in read]
    key = tuple(key)
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (units, match(cxn.conditional, ts))
    return entry[1]


def _instance_name(cxn: Construction, mr: MatchResult) -> str:
    """``name@touched tokens|conditional units``, the entry in ``applied``;
    a token unit is named by the token it stands for."""
    anchor = ",".join(sorted(mr.touched_tokens))
    targets = ",".join(sorted(mr.bindings.walk(pu.name).name
                              for pu in cxn.conditional))
    return f"{cxn.name}@{anchor}|{targets}"


def _apply_match(cxn: Construction, mr: MatchResult, ts: TransientStructure,
                 memo: dict) -> Optional[TransientStructure]:
    """The state one match of cxn makes of ts, or None when the merge fails.

    Each variable the match leaves unbound is named after this
    application's ``applied`` entry: a new unit's ``?v`` (see
    ``Construction.new_units``) names the unit ``unit-v~<entry>``, and any
    other ``?x`` becomes the fresh variable ``?x~<entry>``. A path holds an
    entry at most once, so the names are fresh in every state it reaches.
    They grow with nesting, since an entry names the units its
    application read.

    The units cxn writes are kept in memo under the match and the units
    they replace (see ``Grammar.comprehend``).
    """
    entry = _instance_name(cxn, mr)
    bindings = Bindings(dict(mr.bindings.items()) | {
        v: Sym(f"unit-{v}~{entry}") if v in cxn.new_units
        else Var(f"{v}~{entry}") for v in cxn.variables
        if mr.bindings.lookup(v) is None})
    # the units merge writes, in the order it writes them
    names = list(dict.fromkeys(bindings.walk(pu.name).name
                               for pu in cxn.contributing))
    old = tuple(ts.unit(n) for n in names)
    # a token set second, where a match key has a unit name or nothing
    key = [cxn.name, mr.touched_tokens, *map(id, old)]
    for v, x in mr.bindings.items():
        key += [v, x if isinstance(x, (Sym, Text, Var, Num)) else id(x)]
    key = tuple(key)
    kept = memo.get(key)
    if kept is None:
        try:
            merged = merge(cxn.contributing, ts, bindings)
            made = tuple(merged.unit(n) for n in names)
        except MergeFailure:
            made = None
        kept = memo[key] = (mr, old, made)
    made = kept[2]
    if made is None:
        return None
    new = dict(zip(names, made))
    units = tuple(new.pop(u.name, u) for u in ts.units) + tuple(new.values())
    return TransientStructure(units, ts.applied + (entry,),
                              ts.consumed | mr.touched_tokens)


def applied_names(ts: TransientStructure) -> tuple:
    return tuple(inst.split("@", 1)[0] for inst in ts.applied)


class Grammar:
    def __init__(self, constructions: tuple,
                 function_words: frozenset = frozenset()):
        self.constructions = tuple(constructions)
        by_name = {}
        for c in self.constructions:
            if c.name in by_name:
                raise DuplicateNameError(f"construction defined twice: {c.name}")
            by_name[c.name] = c
        self.by_name = by_name
        self.function_words = frozenset(function_words)

    def candidates(self, ts: TransientStructure) -> list:
        """Constructions, in order, whose ``form_keys`` all occur in the
        index of the root's form pool in ts; no other can match ts."""
        present = ts.root.form_pool[1].keys()
        return [c for c in self.constructions if c.form_keys <= present]

    def comprehend(self, utterance, accessible: tuple = ()) -> ComprehensionResult:
        """Search construction applications for a covering analysis.

        utterance: a string or a pre-tokenized list. A state is terminal when
        no construction changes it; the best terminal state covering every
        content token wins (higher score, then fewer loose ends, then fewer
        applications). Without a covering state the closest terminal state is
        returned with its unconsumed tokens listed.

        The lemmatizations run first, once, to a fixpoint; their applications
        stay in ``applied`` and the score. The search then starts from that
        state without them, trying only the candidate constructions, computed
        once (``candidates``): those whose ``form_keys`` all occur in the
        index of the root's form pool. This is exact: a match looks for each
        conditional form fact only in the index buckets its keys name
        (``FactPlan.targets``), so a construction with a key the root lacks
        has no match; and under the rule ``_parse_cxn`` enforces, no search
        step changes form facts or can enable a lemmatization.
        ``_lemmatize`` screens each round against that round's root.

        Then, once, every uncontested application of a form-only
        construction is made (``_apply_uncontested``). Its units are token
        units, which bind through the root alone (see ``match``), so the
        fixed root decides its matches and their ``applied`` entries in
        every state. A match joins the layer when (i) its tokens (those it
        touches and those its units stand for) meet those of no other
        form-only match and (ii) its merge succeeds. Each unit such a match
        writes is then one that no earlier state holds, so applying it
        changes the state, and the layer renders no ``content_key`` to
        learn that. By rule (A) it writes only its token units and new
        units. A new unit is named after the match's own ``applied`` entry,
        which no earlier application has. By rule (B) only a form-only
        construction writes a unit named after a token (a lemmatization
        writes root alone), and by (i) every form-only match the layer made
        before names other tokens. No other application writes the match's
        units before it makes them: by (i) no other form-only match names
        these tokens, and by rules (A) and (B) of grammar files any other
        construction writes only new units and conditional units that are
        not token units, which match only units that exist already. So the
        match stays enabled until made and only adds to the state; every
        terminal state contains it and it commutes to the front of every
        path: a persistent set of one element (Godefroid 1996). The terminal
        states are unchanged; of the rank's keys only the order of
        ``applied_names`` can differ. A form-only construction none of whose
        matches stayed out of the layer leaves the search, since each match
        is already in ``applied``.

        Fresh names come from the applications that make them
        (``apply_construction``), so the result does not depend on earlier
        calls, and every order of the same applications reaches one state,
        which keeps the first path found to it. A rank tie on every other
        key falls to ``content_key``. The search stops once it holds
        MAX_STATES states; the result is then ``truncated`` when a state
        was left unexpanded.

        A conditional unit's ``(absent ...)`` groups read only the root's
        form facts, which no search step changes, so ``form_keys``, the
        touched tokens, ``Construction.reads``, ``form_only`` and the match
        memo's view of a state need not mention them. Form keys and touched
        tokens come from the facts a match must find, never from absent
        ones; a group changes no feature a unit must hold; and the view,
        which decides when a match is reused, leaves out the root's form
        facts because they stay fixed for the whole search.

        A child state differs from its parent by one merge, so the search
        keeps one memo, dropped when it returns, and matches and merges
        each distinct input once. The root, and with it every form fact,
        stays fixed during the search.

        * Matches are kept under the construction and its view of a state:
          in state order, each unit that holds every feature some
          conditional unit other than a token unit requires, with its name
          and the objects it holds under the features the pole reads
          (``Construction.reads``). ``match`` reads nothing else. It skips
          a unit lacking a pattern unit's required features before reading
          anything else of it; a token unit reads only the root; and a
          unit a ``Sym`` names is either in the view or skipped, since a
          ``Sym``-named unit is never a token unit.
        * Merges are kept under the construction, the match, and the unit
          objects the state holds under each name the contributing pole
          writes, new units' ``unit-...`` names included (None where
          absent). ``merge`` reads nothing else of the state, and the match
          fixes the names ``_apply_match`` gives the variables it leaves
          unbound. A bound ``Sym``, ``Text``, ``Var`` or ``Num`` is keyed by
          value; any other bound value by identity, since equal value sets
          and structs may order their members differently, and that order
          reaches the merged units. The child is built as ``merge`` builds
          it: each written unit in its place, then the new ones in the order
          made.

        Keys name objects by identity, and each entry keeps the objects it
        names, so no id is reused while the memo lives. The memo changes no
        result; sibling states then share their units, and with them each
        unit's ``rendering``.
        """
        tokens = tokenize(utterance) if isinstance(utterance, str) else list(utterance)
        content = {t.token_id for t in tokens
                   if t.word not in self.function_words}
        ts0 = self._lemmatize(initialize_transient(tokens, accessible))
        candidates = [c for c in self.candidates(ts0)
                      if c.kind != "lemmatization"]
        ts0, candidates = self._apply_uncontested(ts0, candidates)

        states: dict[tuple, TransientStructure] = {}
        terminal: list[tuple] = []
        memo: dict = {}  # see apply_construction
        k0 = ts0.content_key()
        states[k0] = ts0
        work = [k0]
        while work and len(states) < MAX_STATES:
            key = work.pop()
            ts = states[key]
            leaf = True
            for cxn in candidates:
                for child in apply_construction(cxn, ts, memo):
                    ck = child.content_key()
                    if ck == key:
                        continue
                    leaf = False
                    if ck not in states:
                        states[ck] = child
                        work.append(ck)
            if leaf:
                terminal.append(key)

        if not terminal:  # state cap hit on a pathological grammar
            terminal = list(states)

        goals = [k for k in terminal if content <= states[k].consumed]
        pool = goals or terminal
        ranked = sorted(pool, key=lambda k: self._rank(states[k], content))
        best = states[ranked[0]]
        unresolved = [t for t in tokens
                      if t.token_id in content - best.consumed]
        return ComprehensionResult(
            structure=best,
            applied=applied_names(best),
            score=_path_score(self, best),
            unresolved_tokens=unresolved,
            succeeded=bool(goals),
            truncated=bool(work),
        )

    def _lemmatize(self, ts: TransientStructure) -> TransientStructure:
        """ts with the lemmatizations applied to a fixpoint: each round takes
        the first application, in grammar order, that adds a form fact.
        Each round has its own memo, since the root it matches changes."""
        while True:
            memo: dict = {}
            grown = next((child for cxn in self.candidates(ts)
                          if cxn.kind == "lemmatization"
                          for child in apply_construction(cxn, ts, memo)
                          if child.root != ts.root), None)
            if grown is None:
                return ts
            ts = grown

    def _apply_uncontested(self, ts: TransientStructure,
                           candidates: list) -> tuple:
        """(ts with every uncontested form-only application made, the
        candidates the search still needs); see ``comprehend``.

        Each application merges with a fresh memo. The search never meets
        these merges again, since each one's entry is in ``applied``, so
        the search's memo would only keep their inputs alive."""
        form_cxns = [cxn for cxn in candidates if cxn.form_only]
        trials = []  # (cxn, match, its tokens)
        claims: Counter = Counter()  # token -> form-only matches naming it
        for cxn in form_cxns:
            for mr in match(cxn.conditional, ts):
                tokens = {Sym(t) for t in mr.touched_tokens} \
                    | {mr.bindings.walk(pu.name) for pu in cxn.conditional}
                claims.update(tokens)
                trials.append((cxn, mr, tokens))
        # form-only constructions leave the search unless one of their
        # matches stays out of the layer
        settled = {cxn.name for cxn in form_cxns}
        for cxn, mr, tokens in trials:
            child = None  # (i): no other claim; (ii): the merge succeeds
            if all(claims[t] == 1 for t in tokens):
                child = _apply_match(cxn, mr, ts, {})
            if child is None:
                settled.discard(cxn.name)
            else:
                ts = child
        return ts, [c for c in candidates if c.name not in settled]

    def _rank(self, ts: TransientStructure, content: set) -> tuple:
        missing = len(content - ts.consumed)
        score = _path_score(self, ts)
        dangling = _count_dangling(ts)
        return (missing, -score, dangling, len(ts.applied),
                applied_names(ts), ts.content_key())


def _path_score(grammar: Grammar, ts: TransientStructure) -> Fraction:
    total = Fraction(0)
    for name in applied_names(ts):
        total += grammar.by_name[name].score
    return total


# ---------------------------------------------------------------------------
# Meaning extraction


def _meaning_facts(ts: TransientStructure) -> list:
    out = []
    for u in ts.units:
        meaning = u.get("meaning")
        if meaning is None:
            continue
        members = meaning if isinstance(meaning, ValueSet) else ValueSet([meaning])
        for m in members:
            if isinstance(m, Compound):
                out.append(m)
    return out


class _Aliases:
    """Union-find over variable names for (same ?a ?b) links."""

    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, name: str) -> str:
        self.parent.setdefault(name, name)
        while self.parent[name] != name:
            self.parent[name] = self.parent[self.parent[name]]
            name = self.parent[name]
        return name

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic canonical pick
            keep, drop = sorted((ra, rb))
            self.parent[drop] = keep


def _links(facts: list) -> tuple:
    """(aliases, groups) of the meaning facts: the union-find of the
    ``same`` links, and each ``collect`` group's canonical members (see
    ``_canon``) by group variable."""
    aliases = _Aliases()
    for f in facts:
        if f.name == "same":
            if len(f.args) != 2 or not all(isinstance(a, Var) for a in f.args):
                raise StructuralError(f"malformed same link: {f!r}")
            aliases.union(f.args[0].name, f.args[1].name)
    groups: dict[str, ValueSet] = {}
    for f in facts:
        if f.name == "collect":
            if not f.args or not isinstance(f.args[0], Var):
                raise StructuralError(f"malformed collect: {f!r}")
            g = aliases.find(f.args[0].name)
            members = ValueSet(_canon(a, aliases) for a in f.args[1:])
            groups[g] = groups[g].union(members) if g in groups else members
    return aliases, groups


def _canon(term, aliases: _Aliases):
    """term with each variable replaced by its alias."""
    if isinstance(term, Var):
        return Var(aliases.find(term.name))
    if isinstance(term, ValueSet):
        return ValueSet(_canon(m, aliases) for m in term)
    if isinstance(term, Struct):
        return Struct([(k, _canon(v, aliases)) for k, v in term.fields])
    return term


def _expand(term, aliases: _Aliases, groups: dict):
    """The canonical term with each group replaced by its members, nested
    sets flattened."""
    term = _canon(term, aliases)
    if isinstance(term, Var) and term.name in groups:
        term = groups[term.name]
    if isinstance(term, ValueSet):
        members = [_expand(m, aliases, groups) for m in term]
        return ValueSet(x for m in members
                        for x in (m if isinstance(m, ValueSet) else (m,)))
    return term


def extract_fragment(result: ComprehensionResult) -> PlanFragment:
    """Read the winning state's meaning predicates into a plan fragment."""
    facts = _meaning_facts(result.structure)
    aliases, groups = _links(facts)
    fragment = PlanFragment()
    slot_facts: dict[str, list] = {}
    actions: list[tuple[str, str]] = []  # (call var, primitive)
    for f in facts:
        if f.name == "action":
            if len(f.args) != 2 or not isinstance(f.args[0], Sym) \
                    or not isinstance(f.args[1], Var):
                raise StructuralError(f"malformed action fact: {f!r}")
            cv = aliases.find(f.args[1].name)
            if not any(v == cv for v, _ in actions):
                actions.append((cv, f.args[0].name))
        elif f.name == "slot":
            if len(f.args) != 3 or not isinstance(f.args[0], Var) \
                    or not isinstance(f.args[1], Sym):
                raise StructuralError(f"malformed slot fact: {f!r}")
            cv = aliases.find(f.args[0].name)
            slot_facts.setdefault(cv, []).append((f.args[1].name, f.args[2]))
        elif f.name == "discourse":
            if len(f.args) != 2 or not isinstance(f.args[0], Var) \
                    or not isinstance(f.args[1], Sym):
                raise StructuralError(f"malformed discourse fact: {f!r}")
            v = aliases.find(f.args[0].name)
            props = {}
            for k, val in f.kwargs:
                if isinstance(val, Num):
                    props[k] = int(val.value)
                elif isinstance(val, Sym):
                    props[k] = True if val.name == "true" else val.name
                else:
                    props[k] = val
            fragment.discourse[v] = (f.args[1].name, props)
        elif f.name == "locate":
            if len(f.args) != 2 or not isinstance(f.args[0], Var) \
                    or not isinstance(f.args[1], Sym):
                raise StructuralError(f"malformed locate fact: {f!r}")
            fragment.locate[aliases.find(f.args[0].name)] = f.args[1].name

    for cv, primitive in actions:
        spec = PRIMITIVES.get(primitive)
        present = {}
        for role, term in slot_facts.get(cv, []):
            if spec.slot_type(role) is None:
                raise StructuralError(
                    f"{primitive} has no slot named {role}")
            value = _expand(term, aliases, groups)
            if role in present and present[role] != value:
                prev = present[role]
                prev_set = prev if isinstance(prev, ValueSet) else ValueSet([prev])
                add_set = value if isinstance(value, ValueSet) else ValueSet([value])
                present[role] = prev_set.union(add_set)
            else:
                present[role] = value
        slots = tuple((role, present[role]) for role in spec.roles
                      if role in present)
        fragment.calls.append(PlanCall("", primitive, slots))

    fragment.unresolved_tokens = list(result.unresolved_tokens)
    return fragment


def _count_dangling(ts: TransientStructure) -> int:
    """Referents annotated but feeding no call slot (loose ends)."""
    facts = _meaning_facts(ts)
    aliases, groups = _links(facts)
    used: set[str] = set()
    annotated: set[str] = set()
    for f in facts:
        if f.name == "slot" and len(f.args) == 3:
            for v in vars_of(f.args[2]):
                _use(aliases.find(v), groups, used)
        elif f.name in ("discourse", "locate") and f.args \
                and isinstance(f.args[0], Var):
            annotated.add(aliases.find(f.args[0].name))
    return len((annotated | set(groups)) - used)


def _use(name: str, groups: dict, used: set) -> None:
    """Add name to used and, through groups, its members."""
    if name not in used:
        used.add(name)
        for m in groups.get(name, ()):
            if isinstance(m, Var):
                _use(m.name, groups, used)


# ---------------------------------------------------------------------------
# Loading


def load_grammar(path, ontology) -> Grammar:
    text = Path(path).read_text()
    return Grammar(*parse_grammar(text, make_registry(ontology)))
