"""Feature structures, unification, and merging.

The parsing engine works on transient structures: blackboards of units, each
unit a bag of feature/value pairs. Values are a small closed vocabulary:

* ``Sym``       interned symbolic constant (concepts, categories, unit names)
* ``Num``       rational number with an optional measurement unit tag
* ``Text``      surface text (token strings)
* ``Var``       logic variable, written ``?name`` in grammar files
* ``ValueSet``  duplicate-free collection matched by subset
* ``Struct``    nested feature map (e.g. ``{min: 15 minute, max: 20 minute}``)
* ``Compound``  applicative term ``(name arg ...)``; it unifies structurally
  and serves for form facts and meaning predicates alike.
* ``Call``      a guard's procedure call (procedural attachment), bound to
  its function when the grammar is read; only guards hold one.

``match`` unifies a pattern (a construction's conditional pole) against a
transient structure one-directionally and returns every binding set. Form
facts (``string``, ``lemma``, ``meets`` ...) live on the ``root`` unit only:
the initial structure puts them there and only a lemmatization may
contribute ``form``, to ``root`` alone, so every pattern unit's form facts
match against the root's form set. The lemmatizations run before the
search, so the root stays fixed during it: no search step changes its form
facts, and a grammar file lets no other construction write ``root``.
A pattern unit's ``form`` may hold ``(absent FACT ...)`` groups, negation
as failure: after the unit's guards, a binding set under which a group's
facts jointly match the root's form facts is dropped. A variable only the
group mentions is local to it and binds nothing. The root is fixed during
the search, so under given bindings a group answers alike in every state.

``merge`` overlays a contributing pole under one binding set, unioning value
sets and failing loudly on scalar conflicts. Both are pure: only a guard's
calls are evaluated, and they read only their arguments and the ontology.

Units, pattern units and transient structures are immutable, so work that
depends on one ``Unit`` object is done once for it and kept on it, however
many search states share it:

* ``Unit.rendering`` is this unit's part of ``content_key``: its name and
  its features sorted by name, value-set members sorted. It depends on the
  unit alone. Fresh names come from the applications that make them (see
  ``grammar.apply_construction``), so it needs no renumbering.
* ``Unit.form_pool`` holds a root unit's form facts with their positions by
  ``(name, arity)`` and by ``(name, arity, position)`` with each literal
  argument's kind and string; ``match`` tries pattern form facts against
  it, and ``grammar.Grammar.candidates`` screens constructions by its keys.
  It depends on the unit alone.
* ``Unit.feature_names`` is the set of its feature names, so ``match``
  and ``grammar.apply_construction`` test which pattern units a unit can
  stand for with one subset test.
* ``PatternUnit.form_parts`` splits a pattern unit's form into its facts
  and its ``absent`` groups, ``PatternUnit.plan`` compiles a conditional
  unit for ``match`` (``UnitPlan``) and ``PatternUnit.contributions`` marks
  which contributing values hold no variable, so ``merge`` uses those as
  they are. The grammar loader reads all three, so each unit of a grammar
  is compiled once, when the grammar is read.

``match`` runs the unit plans depth first over one mutable binding map.
Each bind is pushed on a trail; backtracking pops the trail back to where
the branch began and deletes those names, so a bind copies nothing, and
each complete match is copied into one immutable ``Bindings``. A bind
substitutes the map into its value and makes the occurs check, as
``Bindings.bind`` does. A state variable (``?x~...``) that a pattern
variable is bound to is a name like any other: when the pattern variable
is met again it walks to the unbound state variable, and that is bound in
turn, so a match constrains the state's own variables just as ``unify``
does. ``unify`` enumerates over the same kind of map; only a pattern
holding a value set can match in more than one way.

``match`` recurses through module-level helpers that take all they use as
arguments, and ``merge`` builds no closure, so a call leaves no reference
cycle for the garbage collector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import repeat
from operator import is_
from typing import Callable, Iterable, Iterator, KeysView, Optional, Union

from .errors import MergeFailure, StructuralError

# ---------------------------------------------------------------------------
# Values


@dataclass(frozen=True)
class Sym:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Num:
    """Rational quantity, optionally tagged with a measurement unit."""

    value: Fraction
    unit: Optional[str] = None

    def __repr__(self) -> str:
        if self.unit is None:
            return str(self.value)
        return f"{self.value} {self.unit}"


@dataclass(frozen=True)
class Text:
    text: str

    def __repr__(self) -> str:
        return f'"{self.text}"'


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


class ValueSet:
    """Ordered, duplicate-free value collection. Matches by subset.

    Equality and hashing ignore order: two sets are equal when they hold
    equal members.
    """

    __slots__ = ("members",)

    def __init__(self, members: Iterable["FeatureValue"] = ()):
        object.__setattr__(self, "members", tuple(dict.fromkeys(members)))

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("ValueSet is immutable")

    def __iter__(self) -> Iterator["FeatureValue"]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, item) -> bool:
        return item in self.members

    def __eq__(self, other) -> bool:
        if not isinstance(other, ValueSet):
            return NotImplemented
        return frozenset(self.members) == frozenset(other.members)

    def __hash__(self) -> int:
        return hash(frozenset(self.members))

    def union(self, other: "ValueSet") -> "ValueSet":
        return ValueSet(self.members + other.members)

    def __repr__(self) -> str:
        return "{" + ", ".join(map(repr, self.members)) + "}"


class Struct:
    """Nested feature map; a pattern Struct matches a superset target."""

    __slots__ = ("fields",)

    def __init__(self, fields: Union[dict, Iterable[tuple]] = ()):
        items = tuple(fields.items()) if isinstance(fields, dict) else tuple(fields)
        names = [k for k, _ in items]
        if len(names) != len(set(names)):
            raise StructuralError(f"duplicate field in struct: {names}")
        object.__setattr__(self, "fields", items)

    def __setattr__(self, *a):
        raise AttributeError("Struct is immutable")

    def get(self, name: str):
        for k, v in self.fields:
            if k == name:
                return v
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Struct):
            return NotImplemented
        return dict(self.fields) == dict(other.fields)

    def __hash__(self) -> int:
        return hash(frozenset(self.fields))

    def __repr__(self) -> str:
        inner = " ".join(f"({k} {v!r})" for k, v in self.fields)
        return f"(struct {inner})"


@dataclass(frozen=True)
class Compound:
    """Applicative term: a form fact or meaning predicate."""

    name: str
    args: tuple = ()
    kwargs: tuple = ()  # ordered (key, value) pairs

    def kwarg(self, key: str):
        for k, v in self.kwargs:
            if k == key:
                return v
        return None

    def __repr__(self) -> str:
        parts = [self.name] + [repr(a) for a in self.args]
        parts += [f":{k} {v!r}" for k, v in self.kwargs]
        return "(" + " ".join(parts) + ")"


@dataclass(frozen=True, repr=False)
class Call(Compound):
    """A guard's procedure call, bound to its function when the grammar is
    read. Its arguments are values or calls. The function receives the
    substituted arguments and returns a FeatureValue, FAILURE or FALSE, or
    raises a deliberate error."""

    fn: Optional[Callable] = None

    def evaluate(self, bindings: "Bindings") -> "FeatureValue":
        return self.fn([a.evaluate(bindings) if isinstance(a, Call)
                        else bindings.substitute(a) for a in self.args])


FeatureValue = Union[Sym, Num, Text, Var, ValueSet, Struct, Compound]

#: Result sentinel for procedures that cannot produce a value (distinct from
#: an error: a failed guard just rejects the match branch).
FAILURE = Sym("#failure")
TRUE = Sym("true")
FALSE = Sym("false")


# ---------------------------------------------------------------------------
# Measurement units
#
# Fixed normalization table: unit name -> (dimension, factor to base unit).
# Masses normalize to grams, times to minutes. Spoon units map to grams via
# the bundled portion calibration (a tablespoon of the sample doughs weighs
# 17 g; this constant is what makes the bundled cookie recipe yield exactly
# its stated portion count).

UNIT_TABLE: dict[str, tuple[str, Fraction]] = {
    "g": ("mass", Fraction(1)),
    "kg": ("mass", Fraction(1000)),
    "ml": ("volume", Fraction(1)),
    "l": ("volume", Fraction(1000)),
    "teaspoon": ("mass", Fraction(5)),
    "tablespoon": ("mass", Fraction(17)),
    "piece": ("count", Fraction(1)),
    "minute": ("time", Fraction(1)),
    "hour": ("time", Fraction(60)),
    "degrees-C": ("temperature", Fraction(1)),
}


def normalize_num(num: Num) -> tuple[Optional[str], Fraction]:
    """(dimension, value in base units); unitless numbers get dimension None."""
    if num.unit is None:
        return None, num.value
    if num.unit not in UNIT_TABLE:
        raise StructuralError(f"unknown unit: {num.unit}")
    dim, factor = UNIT_TABLE[num.unit]
    return dim, num.value * factor


def nums_equal(a: Num, b: Num) -> bool:
    return normalize_num(a) == normalize_num(b)


# ---------------------------------------------------------------------------
# Variables and substitution


_NO_VARS: KeysView[str] = {}.keys()


def vars_of(fv: FeatureValue) -> KeysView[str]:
    """Variable names in fv, set-like, in first-occurrence order."""
    if isinstance(fv, Var):
        return {fv.name: None}.keys()
    if not isinstance(fv, (ValueSet, Struct, Compound)):
        return _NO_VARS  # a constant: most plan slots, walked per call
    out: dict[str, None] = {}
    _collect_vars(fv, out)
    return out.keys()


def variables_in_order(units: Iterable[PatternUnit]) -> tuple:
    """Variable names of pattern units in first-occurrence order: each
    unit's name, then its feature values depth first."""
    out: dict[str, None] = {}
    for pu in units:
        _collect_vars(pu.name, out)
        for _, v in pu.features:
            _collect_vars(v, out)
    return tuple(out)


def _collect_vars(fv, out: dict[str, None]) -> None:
    if isinstance(fv, Var):
        out[fv.name] = None
    elif isinstance(fv, ValueSet):
        for m in fv:
            _collect_vars(m, out)
    elif isinstance(fv, Struct):
        for _, v in fv.fields:
            _collect_vars(v, out)
    elif isinstance(fv, Compound):
        for a in fv.args:
            _collect_vars(a, out)
        for _, v in fv.kwargs:
            _collect_vars(v, out)


def _same(new: Iterable, old: Iterable) -> bool:
    """Whether each of new is the very object at its place in old."""
    return all(map(is_, new, old))


class Bindings:
    """Immutable variable environment with an occurs check at bind time."""

    __slots__ = ("_map",)

    def __init__(self, mapping: Optional[dict] = None):
        object.__setattr__(self, "_map", dict(mapping) if mapping else {})

    def __setattr__(self, *a):
        raise AttributeError("Bindings is immutable")

    def lookup(self, name: str) -> Optional[FeatureValue]:
        return self._map.get(name)

    def walk(self, fv: FeatureValue) -> FeatureValue:
        """Follow variable chains to a terminal value (shallow)."""
        steps = len(self._map)  # an acyclic chain visits each name once
        while isinstance(fv, Var) and fv.name in self._map:
            if not steps:  # cannot happen under the occurs check
                raise StructuralError(f"binding cycle at ?{fv.name}")
            steps -= 1
            fv = self._map[fv.name]
        return fv

    def bind(self, name: str, value: FeatureValue) -> Optional["Bindings"]:
        """Extend with name -> value; None when the occurs check fails."""
        value = self.substitute(value)
        if isinstance(value, Var) and value.name == name:
            return self  # trivial self-binding adds nothing
        if name in vars_of(value):
            return None  # occurs check: would build an infinite term
        if name in self._map:
            raise StructuralError(f"rebinding ?{name}")
        out = object.__new__(Bindings)  # skips __init__'s second copy
        object.__setattr__(out, "_map", {**self._map, name: value})
        return out

    def substitute(self, fv: FeatureValue) -> FeatureValue:
        """Deep substitution of every bound variable. A value in which
        nothing changes is returned as it is, not rebuilt."""
        fv = self.walk(fv)
        if isinstance(fv, ValueSet):
            members = [self.substitute(m) for m in fv.members]
            return fv if _same(members, fv.members) else ValueSet(members)
        if isinstance(fv, Struct):
            fields = [(k, self.substitute(v)) for k, v in fv.fields]
            if _same((v for _, v in fields), (v for _, v in fv.fields)):
                return fv
            return Struct(fields)
        if isinstance(fv, Compound):
            args = [self.substitute(a) for a in fv.args]
            kwargs = [(k, self.substitute(v)) for k, v in fv.kwargs]
            if _same(args, fv.args) and _same(
                    (v for _, v in kwargs), (v for _, v in fv.kwargs)):
                return fv
            return Compound(fv.name, tuple(args), tuple(kwargs))
        return fv

    def items(self):
        return self._map.items()

    def __len__(self):
        return len(self._map)

    def __repr__(self) -> str:
        inner = ", ".join(f"?{k} -> {v!r}" for k, v in sorted(self._map.items()))
        return "{" + inner + "}"

    def __eq__(self, other):
        if not isinstance(other, Bindings):
            return NotImplemented
        return self._map == other._map

    def __hash__(self):
        return hash(frozenset(self._map.items()))


# ---------------------------------------------------------------------------
# Units and transient structures

ROOT = "root"


@dataclass(frozen=True)
class Unit:
    """One blackboard unit: a name plus ordered feature/value pairs."""

    name: str
    features: tuple = ()  # ordered (feature-name, FeatureValue) pairs

    @staticmethod
    def build(name: str, features: Iterable[tuple] = ()) -> "Unit":
        feats = tuple(features)
        names = [k for k, _ in feats]
        if len(names) != len(set(names)):
            raise StructuralError(f"duplicate feature in unit {name}: {names}")
        return Unit(name, feats)

    def get(self, feature: str) -> Optional[FeatureValue]:
        for k, v in self.features:
            if k == feature:
                return v
        return None

    def with_feature(self, feature: str, value: FeatureValue) -> "Unit":
        feats = list(self.features)
        for i, (k, _) in enumerate(feats):
            if k == feature:
                feats[i] = (feature, value)
                return Unit(self.name, tuple(feats))
        feats.append((feature, value))
        return Unit(self.name, tuple(feats))

    @cached_property
    def rendering(self) -> str:
        """This unit's part of ``TransientStructure.content_key``."""
        feats = sorted(self.features, key=lambda kv: kv[0])
        body = ";".join(f"{k}={_render(v)}" for k, v in feats)
        return f"{self.name}[{body}]"

    @cached_property
    def form_pool(self) -> tuple:
        """(form facts, index) that ``match`` unifies form facts against.

        The index maps ``(name, arity)``, and ``(name, arity, position)``
        followed by ``_literal_key`` of each Text/Sym argument, to ascending
        fact positions. Its keys hold only strings and ints, which hash
        without a call into Python.
        """
        facts = tuple(self.get(FORM_FEATURE) or ())
        index: dict[tuple, list[int]] = {}
        for j, f in enumerate(facts):
            if not isinstance(f, Compound):
                continue
            shape = (f.name, len(f.args))
            index.setdefault(shape, []).append(j)
            for i, a in enumerate(f.args):
                if isinstance(a, (Text, Sym)):
                    index.setdefault(shape + (i,) + _literal_key(a),
                                     []).append(j)
        return facts, index

    @cached_property
    def feature_names(self) -> frozenset:
        return frozenset(k for k, _ in self.features)


@dataclass(frozen=True)
class PatternUnit:
    """Conditional/contributing pole unit; the name may be a variable."""

    name: FeatureValue  # Sym or Var
    features: tuple = ()

    @staticmethod
    def build(name: FeatureValue, features: Iterable[tuple]) -> "PatternUnit":
        feats = tuple(features)
        names = [k for k, _ in feats]
        if len(names) != len(set(names)):
            raise StructuralError(
                f"duplicate feature in pattern unit {name!r}: {names}"
            )
        return PatternUnit(name, feats)

    @cached_property
    def form_parts(self) -> tuple:
        """(facts, absent groups): the compound facts of the ``form``
        feature other than ``(absent FACT ...)``, and the facts of each
        ``absent`` among them. The grammar loader reads it, so a grammar's
        units split their form once, when it is read."""
        facts, groups = [], []
        for f in facts_of(dict(self.features).get(FORM_FEATURE)):
            if f.name == ABSENT:
                groups.append(f.args)
            else:
                facts.append(f)
        return tuple(facts), tuple(groups)

    @cached_property
    def plan(self) -> "UnitPlan":
        """This conditional unit compiled for ``match``; the grammar loader
        reads it, so each unit of a grammar is compiled once, when it is
        read."""
        return UnitPlan(self)

    @cached_property
    def contributions(self) -> tuple:
        """(feature, value, whether the value holds no variable) of each
        feature, for ``merge``, which need not substitute into a value
        without variables; the grammar loader reads it."""
        return tuple((k, v, not vars_of(v)) for k, v in self.features)


@dataclass(frozen=True)
class TransientStructure:
    """Immutable blackboard: root unit first, then every other unit in order."""

    units: tuple = ()
    applied: tuple = ()  # names of constructions applied so far
    consumed: frozenset = frozenset()  # token ids matched by applied poles

    def __post_init__(self):
        names = [u.name for u in self.units]
        if len(names) != len(set(names)):
            raise StructuralError(f"duplicate unit names: {names}")
        if names and (names[0] != ROOT or names.count(ROOT) != 1):
            raise StructuralError("exactly one unit named root, listed first")

    @property
    def root(self) -> Unit:
        return self.units[0]

    def unit(self, name: str) -> Optional[Unit]:
        for u in self.units:
            if u.name == name:
                return u
        return None

    def content_key(self) -> tuple:
        """The sorted ``Unit.rendering`` of every unit, for duplicate-state
        detection during search.

        A fresh variable or unit is named after the application that makes
        it, so two orders of the same applications build equal units and
        their states collide, which is exactly what the search wants.
        """
        return tuple(sorted(u.rendering for u in self.units))


def _literal_key(literal) -> tuple:
    """The kind and string of a Sym or Text, for ``Unit.form_pool``'s
    index."""
    return ("sym", literal.name) if type(literal) is Sym \
        else ("text", literal.text)


def _render(fv) -> str:
    """repr of fv with value-set members sorted: equal values render alike."""
    if isinstance(fv, ValueSet):
        return "{" + ",".join(sorted(map(_render, fv))) + "}"
    if isinstance(fv, Struct):
        return "(" + " ".join(f"{k}={_render(v)}" for k, v in fv.fields) + ")"
    if isinstance(fv, Compound):
        bits = [fv.name] + [_render(a) for a in fv.args]
        bits += [f":{k}={_render(v)}" for k, v in fv.kwargs]
        return "(" + " ".join(bits) + ")"
    return repr(fv)


# ---------------------------------------------------------------------------
# Unification (one-directional: pattern against target)
#
# The matcher extends one mutable map of variable bindings and records each
# name it binds on a trail; backtracking pops the trail back to a mark and
# deletes those names. Every helper undoes what it bound before it returns.


def unify(pattern: FeatureValue, target: FeatureValue,
          bindings: Bindings) -> list[Bindings]:
    """All binding extensions under which pattern subsumes target, in the
    order ``match`` makes them. A binding cycle handed to ``Bindings``
    raises StructuralError, as walking it does."""
    for name in bindings._map:
        bindings.walk(Var(name))
    m = dict(bindings._map)
    out: dict[Bindings, None] = {}
    for _ in _unifications(bindings.walk(pattern), target, m, []):
        out[_frozen(m)] = None
    return list(out)


def _view(m: dict) -> Bindings:
    """A ``Bindings`` over the live map m, for reading it (substitution,
    guard calls) while m stays as it is."""
    out = object.__new__(Bindings)
    object.__setattr__(out, "_map", m)
    return out


def _frozen(m: dict) -> Bindings:
    """An immutable copy of the binding map m."""
    return _view(dict(m))


def _walk(fv, m: dict):
    while type(fv) is Var and fv.name in m:
        fv = m[fv.name]
    return fv


def _undo(m: dict, trail: list, mark: int) -> None:
    """Unbind every name bound since the trail held mark names."""
    while len(trail) > mark:
        del m[trail.pop()]


_ATOMS = (Sym, Text, Num)


def _bind(name: str, value, m: dict, trail: list) -> bool:
    """Bind the unbound ?name to value as ``Bindings.bind`` does; False
    when the occurs check fails. An atom value needs none of this, so the
    matcher binds one directly."""
    value = _view(m).substitute(value)
    if isinstance(value, Var) and value.name == name:
        return True  # trivial self-binding adds nothing
    if name in vars_of(value):
        return False  # occurs check: would build an infinite term
    m[name] = value
    trail.append(name)
    return True


def _unify_one(pattern, target, m: dict, trail: list) -> Optional[bool]:
    """Extend m so that a pattern that walks to a variable or an atom
    subsumes target: True when it does, False when it does not. None when
    it walks to a value set, struct or compound, which ``_unifications``
    enumerates."""
    while type(pattern) is Var:
        bound = m.get(pattern.name)
        if bound is None:
            return _bind(pattern.name, target, m, trail)
        pattern = bound
    kind = type(pattern)
    if kind is Sym:
        return type(target) is Sym and target.name == pattern.name
    if kind is Text:
        return type(target) is Text and target.text == pattern.text
    if kind is Num:
        return isinstance(target, Num) and nums_equal(pattern, target)
    if kind is ValueSet or kind is Struct or isinstance(pattern, Compound):
        return None
    raise StructuralError(f"unsupported pattern value: {pattern!r}")


def _unifications(pattern, target, m: dict, trail: list) -> Iterator[None]:
    """Yield once for each way pattern subsumes target, with m extended;
    each extension is undone before the next is made, and the last before
    the generator ends. A value set matches as a subset, each member
    against a distinct target member, in target order."""
    pattern = _walk(pattern, m)
    kind = type(pattern)
    if kind is ValueSet:
        if type(target) is ValueSet:
            yield from _subsets(pattern.members, target.members, 0, (), m,
                                trail)
        return
    if kind is Struct:
        if type(target) is not Struct:
            return
        pairs = [(pv, target.get(k)) for k, pv in pattern.fields]
    elif isinstance(pattern, Compound):
        if not isinstance(target, Compound) or target.name != pattern.name \
                or len(target.args) != len(pattern.args):
            return
        pairs = list(zip(pattern.args, target.args))
        pairs += [(pv, target.kwarg(k)) for k, pv in pattern.kwargs]
    else:  # a variable or an atom
        mark = len(trail)
        if _unify_one(pattern, target, m, trail):
            yield
        _undo(m, trail, mark)
        return
    if all(tv is not None for _, tv in pairs):
        yield from _sequence(pairs, 0, m, trail)


def _sequence(pairs: list, i: int, m: dict, trail: list) -> Iterator[None]:
    if i == len(pairs):
        yield
        return
    pattern, target = pairs[i]
    for _ in _unifications(pattern, target, m, trail):
        yield from _sequence(pairs, i + 1, m, trail)


def _subsets(pmembers: tuple, tmembers: tuple, i: int, used: tuple,
             m: dict, trail: list) -> Iterator[None]:
    if i == len(pmembers):
        yield
        return
    for j, target in enumerate(tmembers):
        if j not in used:
            for _ in _unifications(pmembers[i], target, m, trail):
                yield from _subsets(pmembers, tmembers, i + 1, used + (j,),
                                    m, trail)


# ---------------------------------------------------------------------------
# Matching pattern units against a transient structure

GUARD_FEATURE = "guard"
FORM_FEATURE = "form"
#: ``(absent FACT ...)`` among a conditional unit's form facts: the root
#: holds no joint match of the facts
ABSENT = "absent"

#: Form facts whose first argument names the token a construction consumes.
_TOKEN_FACTS = {"string", "lemma", "meets", "lb", "rb"}


@dataclass(frozen=True)
class MatchResult:
    bindings: Bindings
    touched_tokens: frozenset  # token ids referenced through matched form facts


class FactPlan:
    """A pattern form fact compiled for ``match``.

    ``shape`` is its ``(name, arity)`` index key and ``keys`` the index key
    of each ``Text``/``Sym`` argument (see ``Unit.form_pool``); ``probes``
    pairs the key prefix of each variable argument with the variable's
    name, which gives a key once it is bound to a ``Text`` or ``Sym``.
    """

    __slots__ = ("fact", "shape", "keys", "probes")

    def __init__(self, fact: Compound):
        self.fact = fact
        self.shape = (fact.name, len(fact.args))
        self.keys = tuple(self.shape + (i,) + _literal_key(a)
                          for i, a in enumerate(fact.args)
                          if type(a) in (Text, Sym))
        self.probes = tuple((self.shape + (i,), a.name)
                            for i, a in enumerate(fact.args) if type(a) is Var)

    def targets(self, index: dict, m: dict):
        """Positions of the root's form facts that may match, ascending:
        the smallest index bucket its literal arguments name, its bound
        variables included."""
        best = index.get(self.shape, ())
        for key in self.keys:
            bucket = index.get(key, ())
            if len(bucket) < len(best):
                best = bucket
        for prefix, name in self.probes:
            v = m.get(name)
            while type(v) is Var and v.name in m:
                v = m[v.name]
            if type(v) is Sym:
                bucket = index.get(prefix + ("sym", v.name), ())
            elif type(v) is Text:
                bucket = index.get(prefix + ("text", v.text), ())
            else:
                continue
            if len(bucket) < len(best):
                best = bucket
        return best


#: ``UnitPlan.ops`` codes: a feature read from the counterpart unit, a form
#: fact, the tokens the form facts touched, a guard, the ``absent`` groups
_FEATURE, _FACT, _TOUCH, _GUARD, _ABSENT = range(5)


class UnitPlan:
    """A pattern unit compiled when its grammar is read.

    ``form_only``: it holds only form and guard features, so while its name
    is an unbound variable it is a token unit and reads the root alone.
    ``required``: the features a counterpart unit must hold. ``facts``: a
    ``FactPlan`` for each of its form facts, ``absent`` ones left out; a
    match finds each in the root's form pool. ``ops``: what
    ``match`` does, in order: each feature other than guards in the unit's
    order, the form feature as one ``_FACT`` per fact followed by a
    ``_TOUCH`` with the token ids among the arguments of its token facts
    (symbols named ``t<i>-<word>``) and the variables among them; then each
    guard, then the ``absent`` groups as tuples of ``FactPlan``.
    """

    __slots__ = ("name", "form_only", "required", "facts", "ops")

    def __init__(self, pu: "PatternUnit"):
        names = frozenset(k for k, _ in pu.features)
        facts, groups = pu.form_parts
        self.facts = tuple(map(FactPlan, facts))
        ops: list[tuple] = []
        guards: tuple = ()
        for fname, value in pu.features:
            if fname == GUARD_FEATURE:
                guards = tuple(value)
            elif fname == FORM_FEATURE:
                ops += [(_FACT, fp) for fp in self.facts]
                args = [a for f in facts if f.name in _TOKEN_FACTS
                        for a in f.args]
                if args:
                    ops.append((_TOUCH, frozenset(
                        a.name for a in args if type(a) is Sym
                        and a.name.startswith("t") and "-" in a.name), tuple(
                        a for a in args if type(a) is Var)))
            else:
                ops.append((_FEATURE, fname, value))
        ops += [(_GUARD, g) for g in guards]
        if groups:
            ops.append((_ABSENT, tuple(tuple(map(FactPlan, g))
                                       for g in groups)))
        self.name = pu.name
        self.form_only = names <= {FORM_FEATURE, GUARD_FEATURE}
        self.required = names - {FORM_FEATURE, GUARD_FEATURE}
        self.ops = tuple(ops)


class _Run:
    """One ``match`` call's state: the plans, the structure's units and the
    root's form pool, the binding map with its trail, a ``Bindings`` view of
    the map for guard calls, and the results so far."""

    __slots__ = ("plans", "ts", "facts", "index", "m", "trail", "view",
                 "results")

    def __init__(self, plans: tuple, ts: TransientStructure):
        self.plans = plans
        self.ts = ts
        self.facts, self.index = ts.root.form_pool
        self.m: dict = {}
        self.trail: list = []
        self.view = _view(self.m)
        self.results: dict = {}


def match(pattern_units: Iterable[PatternUnit],
          ts: TransientStructure) -> list[MatchResult]:
    """Match a conditional pole against a transient structure.

    Returns every surviving binding set (empty list = no match). The result
    is a set: its order is deterministic and independent of target-unit
    order.

    The units' plans (``PatternUnit.plan``) run depth first: each unit
    against each unit of ts that holds its required features, in ts order,
    then its ops in order. One binding map is extended on a trail and
    unwound on backtracking; each complete match is copied into one
    ``Bindings``, and a binding set reached twice is kept once, where it
    was first reached.

    A token unit, named by an unbound variable and holding only form and
    guard features, binds through the root's form facts alone: it stands
    for the token those facts name, and no counterpart unit is read. This
    loses no match. A unit whose form facts name the token it stands for
    can match an existing unit only when that unit is named after the
    token, and then with the bindings and touched tokens the root alone
    gives; ``merge`` reads nothing else. A token unit whose form facts do
    not bind its name matches nothing (grammar files reject one).
    """
    run = _Run(tuple(pu.plan for pu in pattern_units), ts)
    _match_from(run, 0, (), frozenset())
    return [MatchResult(env, touched) for env, touched in run.results]


def _match_from(run: _Run, idx: int, used: tuple, touched: frozenset) -> None:
    """Match run.plans[idx:] to units not named in used, depth first, and
    record each complete binding set with its touched tokens."""
    if idx == len(run.plans):
        run.results[_frozen(run.m), touched] = None
        return
    plan = run.plans[idx]
    name = _walk(plan.name, run.m)
    if type(name) is Var and plan.form_only:
        _try_unit(run, idx, None, name, used, touched)  # the root alone
        return
    if type(name) is Sym:
        unit = run.ts.unit(name.name)
        units = (unit,) if unit is not None else ()
    else:
        units = run.ts.units
    required = plan.required
    for unit in units:
        if unit.name not in used and required <= unit.feature_names:
            _try_unit(run, idx, unit, name, used + (unit.name,), touched)


def _try_unit(run: _Run, idx: int, unit: Optional[Unit], name, used: tuple,
              touched: frozenset) -> None:
    """One unit trial: run.plans[idx] against unit, or against the root
    alone when unit is None; a variable name is bound to the unit's."""
    if unit is not None and type(name) is Var:
        run.m[name.name] = Sym(unit.name)
        run.trail.append(name.name)
        _run_ops(run, idx, 0, unit, name, used, (), touched)
        del run.m[run.trail.pop()]
    else:
        _run_ops(run, idx, 0, unit, name, used, (), touched)


def _run_ops(run: _Run, idx: int, k: int, unit: Optional[Unit], name,
             used: tuple, used_facts: tuple, touched: frozenset) -> None:
    """Run ops k onward of run.plans[idx] against unit, then the units
    after it. An op with one outcome runs in this frame; one that branches
    (a form fact, a value set) recurses for each branch. used_facts: the
    root's form facts the unit's facts matched so far; each matches a
    distinct one."""
    ops = run.plans[idx].ops
    n = len(ops)
    m, trail = run.m, run.trail
    mark = len(trail)
    while k < n:
        op = ops[k]
        code = op[0]
        if code == _FEATURE:
            pattern, target = op[2], unit.get(op[1])
            kind = type(pattern)
            if kind is Var and pattern.name not in m \
                    and type(target) in _ATOMS:
                m[pattern.name] = target  # as _bind makes it
                trail.append(pattern.name)
                k += 1
                continue
            if kind is Sym:
                if type(target) is not Sym or target.name != pattern.name:
                    break
                k += 1
                continue
            here = len(trail)
            done = _unify_one(pattern, target, m, trail)
            if done is None:
                _undo(m, trail, here)
                for _ in _unifications(pattern, target, m, trail):
                    _run_ops(run, idx, k + 1, unit, name, used, used_facts,
                             touched)
            if not done:
                break
        elif code == _FACT:
            fp = op[1]
            for j in fp.targets(run.index, m):
                if j not in used_facts:
                    here = len(trail)
                    done = _try_fact(fp, run.facts[j], m, trail)
                    if done is None:
                        _undo(m, trail, here)
                        for _ in _unifications(fp.fact, run.facts[j], m,
                                               trail):
                            _run_ops(run, idx, k + 1, unit, name, used,
                                     used_facts + (j,), touched)
                    elif done:
                        _run_ops(run, idx, k + 1, unit, name, used,
                                 used_facts + (j,), touched)
                    while len(trail) > here:  # _undo, inline on the hot path
                        del m[trail.pop()]
            break
        elif code == _TOUCH:
            tokens = op[1].union(
                v.name for v in map(_walk, op[2], repeat(m))
                if type(v) is Sym and v.name.startswith("t")
                and "-" in v.name)
            if not tokens <= touched:
                touched = touched | tokens
        elif code == _GUARD:
            guard = op[1]
            if isinstance(guard, Call):
                if guard.evaluate(run.view) in (FAILURE, FALSE):
                    break
            else:
                lhs, rhs = guard.args
                rhs = rhs.evaluate(run.view) if isinstance(rhs, Call) \
                    else run.view.substitute(rhs)
                if rhs == FAILURE or rhs == FALSE:
                    break
                here = len(trail)
                done = _unify_one(lhs, rhs, m, trail)
                if done is None:
                    _undo(m, trail, here)
                    for _ in _unifications(lhs, rhs, m, trail):
                        _run_ops(run, idx, k + 1, unit, name, used,
                                 used_facts, touched)
                if not done:
                    break
        elif any(_holds(run, group, 0, ()) for group in op[1]):  # _ABSENT
            break
        k += 1
    else:
        # a token unit's form facts must have named its token
        if unit is not None or type(_walk(name, m)) is not Var:
            _match_from(run, idx + 1, used, touched)
    while len(trail) > mark:
        del m[trail.pop()]


def _try_fact(fp: FactPlan, target: Compound, m: dict,
              trail: list) -> Optional[bool]:
    """One fact trial: ``_unify_one`` over the arguments of a form fact and
    a root form fact of its shape, None where that gives None or the fact
    has keyword arguments. Form facts hold variables, symbols and texts, so
    those cases run here without a further call."""
    if fp.fact.kwargs:
        return None
    for pa, ta in zip(fp.fact.args, target.args):
        while type(pa) is Var:
            bound = m.get(pa.name)
            if bound is None:
                break
            pa = bound
        kind = type(pa)
        if kind is Var and type(ta) in _ATOMS:
            m[pa.name] = ta  # an atom resolves to itself and holds no variable
            trail.append(pa.name)
        elif kind is Sym:
            if type(ta) is not Sym or ta.name != pa.name:
                return False
        elif kind is Text:
            if type(ta) is not Text or ta.text != pa.text:
                return False
        else:
            done = _unify_one(pa, ta, m, trail)
            if not done:
                return done
    return True


def _holds(run: _Run, group: tuple, i: int, used: tuple) -> bool:
    """Whether the facts group[i:] jointly match distinct root form facts
    not in used, under run's bindings; binds nothing."""
    if i == len(group):
        return True
    fp = group[i]
    m, trail = run.m, run.trail
    for j in fp.targets(run.index, m):
        if j in used:
            continue
        here = len(trail)
        done = _try_fact(fp, run.facts[j], m, trail)
        if done is None:
            _undo(m, trail, here)
            done = any(_holds(run, group, i + 1, used + (j,))
                       for _ in _unifications(fp.fact, run.facts[j], m,
                                              trail))
        elif done:
            done = _holds(run, group, i + 1, used + (j,))
        _undo(m, trail, here)
        if done:
            return True
    return False


def facts_of(value) -> list[Compound]:
    if isinstance(value, ValueSet):
        return [m for m in value if isinstance(m, Compound)]
    if isinstance(value, Compound):
        return [value]
    return []


# ---------------------------------------------------------------------------
# Merging


def merge(contribution: Iterable[PatternUnit], target: TransientStructure,
          bindings: Bindings) -> TransientStructure:
    """Overlay a contributing pole onto a transient structure.

    Value sets union; equal scalars are idempotent; conflicting scalars raise
    MergeFailure with the feature path. The input structure is never touched.
    Each contributing unit's name must walk to a ``Sym`` under bindings
    (StructuralError otherwise): the unit of that name is written, or made
    when the structure holds none. A written unit keeps its place; new
    units follow the others in the order made.
    """
    units = {u.name: u for u in target.units}
    for pu in contribution:
        name = bindings.walk(pu.name)
        if not isinstance(name, Sym):
            raise StructuralError(f"contributing unit {pu.name!r} names no "
                                  f"unit: {name!r}")
        unit = units.get(name.name) or Unit(name.name)
        for fname, fvalue, ground in pu.contributions:
            value = fvalue if ground else bindings.substitute(fvalue)
            existing = unit.get(fname)
            if existing is None:
                unit = unit.with_feature(fname, value)
            elif isinstance(existing, ValueSet) and isinstance(value, ValueSet):
                unit = unit.with_feature(fname, existing.union(value))
            elif _scalars_equal(existing, value):
                pass  # idempotent re-contribution
            else:
                raise MergeFailure(f"{unit.name}/{fname}", existing, value)
        units[unit.name] = unit
    return TransientStructure(tuple(units.values()), target.applied,
                              target.consumed)


def _scalars_equal(a, b) -> bool:
    if isinstance(a, Num) and isinstance(b, Num):
        return nums_equal(a, b)
    return a == b


# ---------------------------------------------------------------------------
# Construction and renaming helpers


def fact(name: str, *args, **kwargs) -> Compound:
    return Compound(name, tuple(args), tuple(kwargs.items()))


def rename_vars(fv: FeatureValue, mapping: dict) -> FeatureValue:
    """fv with each variable named in mapping replaced by mapping[name]."""
    if isinstance(fv, Var):
        return mapping.get(fv.name, fv)
    if isinstance(fv, ValueSet):
        return ValueSet(rename_vars(m, mapping) for m in fv)
    if isinstance(fv, Struct):
        return Struct([(k, rename_vars(v, mapping)) for k, v in fv.fields])
    if isinstance(fv, Compound):
        return Compound(fv.name,
                        tuple(rename_vars(a, mapping) for a in fv.args),
                        tuple((k, rename_vars(v, mapping))
                              for k, v in fv.kwargs))
    return fv
