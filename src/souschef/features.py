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
  ``(name, arity)`` and by ``(name, arity, position, literal)``; ``match``
  unifies pattern form facts against it. It depends on the unit alone.
* ``Unit.feature_names`` is the set of its feature names, so ``match``
  and ``grammar.apply_construction`` test which pattern units a unit can
  stand for with one subset test.
* ``PatternUnit.form_parts`` splits a pattern unit's form into its facts
  and its ``absent`` groups; the grammar loader reads it, so each unit of
  a grammar is split once, when the grammar is read.

``match`` and ``_unify_subset`` recurse through module-level helpers that
take all they use as arguments, so a call leaves no reference cycle for
the garbage collector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
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
        """Deep substitution of every bound variable."""
        fv = self.walk(fv)
        if isinstance(fv, ValueSet):
            return ValueSet(self.substitute(m) for m in fv)
        if isinstance(fv, Struct):
            return Struct([(k, self.substitute(v)) for k, v in fv.fields])
        if isinstance(fv, Compound):
            return Compound(
                fv.name,
                tuple(self.substitute(a) for a in fv.args),
                tuple((k, self.substitute(v)) for k, v in fv.kwargs),
            )
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

        The index maps ``(name, arity)``, and ``(name, arity, position,
        literal)`` for each Text/Sym argument, to ascending fact positions.
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
                    index.setdefault(shape + (i, a), []).append(j)
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

    def replace_unit(self, new_unit: Unit) -> "TransientStructure":
        units = tuple(new_unit if u.name == new_unit.name else u for u in self.units)
        return TransientStructure(units, self.applied, self.consumed)

    def add_unit(self, new_unit: Unit) -> "TransientStructure":
        return TransientStructure(self.units + (new_unit,), self.applied,
                                  self.consumed)

    def content_key(self) -> tuple:
        """The sorted ``Unit.rendering`` of every unit, for duplicate-state
        detection during search.

        A fresh variable or unit is named after the application that makes
        it, so two orders of the same applications build equal units and
        their states collide, which is exactly what the search wants.
        """
        return tuple(sorted(u.rendering for u in self.units))


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


def unify(pattern: FeatureValue, target: FeatureValue,
          bindings: Bindings) -> list[Bindings]:
    """All binding extensions under which pattern subsumes target."""
    pattern = bindings.walk(pattern)

    if isinstance(pattern, Var):
        nb = bindings.bind(pattern.name, target)
        return [nb] if nb is not None else []

    if isinstance(pattern, Sym):
        return [bindings] if isinstance(target, Sym) and target.name == pattern.name else []

    if isinstance(pattern, Text):
        return [bindings] if isinstance(target, Text) and target.text == pattern.text else []

    if isinstance(pattern, Num):
        return [bindings] if isinstance(target, Num) and nums_equal(pattern, target) else []

    if isinstance(pattern, Struct):
        if not isinstance(target, Struct):
            return []
        envs = [bindings]
        for k, pv in pattern.fields:
            tv = target.get(k)
            if tv is None:
                return []
            envs = [e2 for e in envs for e2 in unify(pv, tv, e)]
            if not envs:
                return []
        return envs

    if isinstance(pattern, Compound):
        if not isinstance(target, Compound) or target.name != pattern.name:
            return []
        if len(target.args) != len(pattern.args):
            return []
        envs = [bindings]
        for pa, ta in zip(pattern.args, target.args):
            envs = [e2 for e in envs for e2 in unify(pa, ta, e)]
            if not envs:
                return []
        for k, pv in pattern.kwargs:
            tv = target.kwarg(k)
            if tv is None:
                return []
            envs = [e2 for e in envs for e2 in unify(pv, tv, e)]
            if not envs:
                return []
        return envs

    if isinstance(pattern, ValueSet):
        if not isinstance(target, ValueSet):
            return []
        return _unify_subset(tuple(pattern), tuple(target), bindings)

    raise StructuralError(f"unsupported pattern value: {pattern!r}")


def _unify_subset(pmembers, tmembers, bindings,
                  index: Optional[dict] = None) -> list[Bindings]:
    """Each pattern member matches a distinct target member (backtracking).

    A pattern fact such as ``(string ?t "beat")`` would otherwise be unified
    with every fact of a form set. Targets are rejected before ``unify``
    when their compound name or arity differs from the pattern's, or when a
    ``Text``/``Sym`` argument of the pattern (after walking its bindings)
    differs from the target's argument at that position. ``unify`` returns
    no binding for exactly those targets, so the result and its order are
    unchanged. With an ``index`` of tmembers (see ``Unit.form_pool``) only the
    smallest bucket the screen names is visited, in ascending position.
    """
    out: list[Bindings] = []
    _extend_subset(pmembers, tmembers, index, 0, bindings, (), out)
    # Deduplicate: different target orderings can reach identical bindings.
    return list(dict.fromkeys(out))


def _extend_subset(pmembers, tmembers, index, k: int, env: Bindings,
                   used: tuple, out: list) -> None:
    """Append to out each extension of env matching pmembers[k:] to
    distinct targets outside used, depth first."""
    if k == len(pmembers):
        out.append(env)
        return
    first = pmembers[k]
    screen = _literal_screen(env.walk(first), env)
    for j in _candidates(screen, len(tmembers), index):
        if j in used:
            continue
        t = tmembers[j]
        if screen is not None and not _passes(screen, t):
            continue
        for env2 in unify(first, t, env):
            _extend_subset(pmembers, tmembers, index, k + 1, env2,
                           used + (j,), out)


def _candidates(screen: Optional[tuple], n: int, index: Optional[dict]):
    """Target positions worth screening, ascending."""
    if screen is None or index is None:
        return range(n)
    name, arity, literals = screen
    best = index.get((name, arity), ())
    for i, lit in literals:
        bucket = index.get((name, arity, i, lit), ())
        if len(bucket) < len(best):
            best = bucket
    return best


def _literal_screen(pattern, bindings) -> Optional[tuple]:
    """(name, arity, ((position, literal), ...)) of a compound pattern, or
    None when the pattern is no compound."""
    if not isinstance(pattern, Compound):
        return None
    literals = []
    for i, a in enumerate(pattern.args):
        a = bindings.walk(a)
        if isinstance(a, (Text, Sym)):
            literals.append((i, a))
    return pattern.name, len(pattern.args), tuple(literals)


def _passes(screen: tuple, target) -> bool:
    name, arity, literals = screen
    if not isinstance(target, Compound) or target.name != name \
            or len(target.args) != arity:
        return False
    args = target.args
    for i, lit in literals:
        if args[i] != lit:
            return False
    return True


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


def match(pattern_units: Iterable[PatternUnit],
          ts: TransientStructure) -> list[MatchResult]:
    """Match a conditional pole against a transient structure.

    Returns every surviving binding set (empty list = no match). The result
    is a set: its order is deterministic and independent of target-unit
    order.

    A token unit, named by an unbound variable and holding only form and
    guard features, binds through the root's form facts alone: it stands
    for the token those facts name, and no counterpart unit is read. This
    loses no match. A unit whose form facts name the token it stands for
    can match an existing unit only when that unit is named after the
    token, and then with the bindings and touched tokens the root alone
    gives; ``merge`` reads nothing else. A token unit whose form facts do
    not bind its name matches nothing (grammar files reject one).
    """
    pattern_units = list(pattern_units)
    required = []  # per pattern unit: features a counterpart unit must have
    for pu in pattern_units:
        names = [k for k, _ in pu.features]
        if len(names) != len(set(names)):
            raise StructuralError(f"duplicate feature in pattern unit {pu.name!r}")
        required.append(frozenset(names) - {FORM_FEATURE, GUARD_FEATURE})

    results: dict[tuple[Bindings, frozenset], None] = {}  # insertion-ordered
    _attempt(pattern_units, required, ts, 0, Bindings(), frozenset(),
             frozenset(), results)
    return [MatchResult(env, touched) for env, touched in results]


def _attempt(pattern_units: list, required: list, ts: TransientStructure,
             idx: int, bindings: Bindings, used: frozenset,
             touched: frozenset, results: dict) -> None:
    """Record in results each (bindings, touched tokens) matching
    pattern_units[idx:] to units outside used, depth first."""
    if idx == len(pattern_units):
        results[bindings, touched] = None
        return
    pu = pattern_units[idx]
    name = bindings.walk(pu.name) if isinstance(pu.name, Var) else pu.name

    candidates: list[Optional[Unit]] = []
    if isinstance(name, Var) and form_only(pu):
        candidates = [None]  # a token unit: the root alone
    elif isinstance(name, Sym):
        u = ts.unit(name.name)
        if u is not None and u.name not in used:
            candidates = [u]
    else:
        candidates = [u for u in ts.units if u.name not in used]

    pool = ts.root.form_pool
    for unit in candidates:
        if unit is not None and not required[idx] <= unit.feature_names:
            continue  # _match_unit would find no value to unify
        env = bindings
        if unit is not None and isinstance(name, Var):
            env = env.bind(name.name, Sym(unit.name))
            if env is None:
                continue
        for env2, tch in _match_unit(pu, unit, pool, env, touched):
            if unit is not None:
                _attempt(pattern_units, required, ts, idx + 1, env2,
                         used | {unit.name}, tch, results)
            elif not isinstance(env2.walk(name), Var):
                # the form facts must have named the token
                _attempt(pattern_units, required, ts, idx + 1, env2, used,
                         tch, results)


def form_only(pu: PatternUnit) -> bool:
    """pu holds only form and guard features: it reads nothing but the
    root's form facts."""
    return all(k in (FORM_FEATURE, GUARD_FEATURE) for k, _ in pu.features)


def facts_of(value) -> list[Compound]:
    if isinstance(value, ValueSet):
        return [m for m in value if isinstance(m, Compound)]
    if isinstance(value, Compound):
        return [value]
    return []


def _touched_tokens(facts, env) -> set[str]:
    out = set()
    for f in facts:
        f = env.substitute(f)
        if isinstance(f, Compound) and f.name in _TOKEN_FACTS:
            for a in f.args:
                if isinstance(a, Sym) and a.name.startswith("t") and "-" in a.name:
                    out.add(a.name)
    return out


def _check_guards(guards: ValueSet, bindings) -> list[Bindings]:
    """Evaluate guard terms: a ``Call`` must not fail, and ``(equals X V)``
    unifies X with V, a call's value when V is a ``Call``."""
    envs = [bindings]
    for g in guards:
        nxt = []
        for env in envs:
            if isinstance(g, Call):
                if g.evaluate(env) not in (FAILURE, FALSE):
                    nxt.append(env)
                continue
            lhs, rhs = g.args
            rhs = rhs.evaluate(env) if isinstance(rhs, Call) \
                else env.substitute(rhs)
            if rhs != FAILURE and rhs != FALSE:
                nxt.extend(unify(lhs, rhs, env))
        envs = nxt
        if not envs:
            return []
    return envs


def _match_unit(pu: PatternUnit, unit: Optional[Unit], pool: tuple,
                env: Bindings,
                touched: frozenset) -> list[tuple[Bindings, frozenset]]:
    """(bindings, touched tokens) under which pu matches unit.

    Form facts unify against the root's form facts (`pool`, the root's
    ``form_pool``). A unit of None stands for a token unit: pu has only
    form and guard features. Each ``absent`` group is checked last, after
    the guards, and rejects a binding set under which its facts jointly
    match the root's; the bindings that match makes are dropped, so a
    variable only the group mentions binds nothing.
    """
    facts_pool, index = pool
    facts, absent = pu.form_parts
    stack = [(env, touched)]
    for fname, fvalue in pu.features:
        if fname == GUARD_FEATURE:
            continue  # guards run last, once other features bound things
        if fname == FORM_FEATURE:
            stack = [(env2, tch | _touched_tokens(facts, env2))
                     for env, tch in stack
                     for env2 in _unify_subset(facts, facts_pool, env, index)]
        else:
            tv = unit.get(fname)
            if tv is None:
                return []
            stack = [(env2, tch) for env, tch in stack
                     for env2 in unify(fvalue, tv, env)]
        if not stack:
            return []
    out = []
    for env, tch in stack:
        genvs = [env]
        for fname, fvalue in pu.features:
            if fname == GUARD_FEATURE:
                genvs = [e2 for e in genvs for e2 in _check_guards(fvalue, e)]
        out.extend((genv, tch) for genv in genvs
                   if not any(_unify_subset(group, facts_pool, genv, index)
                              for group in absent))
    return out


# ---------------------------------------------------------------------------
# Merging


def merge(contribution: Iterable[PatternUnit], target: TransientStructure,
          bindings: Bindings) -> TransientStructure:
    """Overlay a contributing pole onto a transient structure.

    Value sets union; equal scalars are idempotent; conflicting scalars raise
    MergeFailure with the feature path. The input structure is never touched.
    A unit-name variable ``?v`` left unbound names a new unit ``unit-v`` and
    is bound to it.
    """
    ts = target
    env = bindings
    for pu in contribution:
        name = env.walk(pu.name) if isinstance(pu.name, Var) else pu.name
        if isinstance(name, Var):
            fresh = f"unit-{name.name}"
            nb = env.bind(name.name, Sym(fresh))
            if nb is None:
                raise MergeFailure(str(name), name, Sym(fresh))
            env = nb
            name = Sym(fresh)
        unit = ts.unit(name.name)
        created = False
        if unit is None:
            unit = Unit(name.name)
            created = True
        for fname, fvalue in pu.features:
            value = env.substitute(fvalue)
            existing = unit.get(fname)
            if existing is None:
                unit = unit.with_feature(fname, value)
            elif isinstance(existing, ValueSet) and isinstance(value, ValueSet):
                unit = unit.with_feature(fname, existing.union(value))
            elif _scalars_equal(existing, value):
                pass  # idempotent re-contribution
            else:
                raise MergeFailure(f"{unit.name}/{fname}", existing, value)
        ts = ts.add_unit(unit) if created else ts.replace_unit(unit)
    return ts


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
