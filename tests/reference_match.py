"""The interpretive matcher, kept as the oracle for ``features.match``.

``match`` here walks each pattern unit's features afresh on every call and
returns one immutable ``Bindings`` per bind; ``unify`` is the recursive
unifier it calls. ``features.match`` runs the units compiled when a grammar
is read over one mutable binding map, and must return exactly what these
return: the same list, in the same order.
"""

from __future__ import annotations

from typing import Iterable, Optional

from souschef.errors import StructuralError
from souschef.features import (
    FAILURE, FALSE, FORM_FEATURE, GUARD_FEATURE, Bindings, Call, Compound,
    MatchResult, Num, PatternUnit, Struct, Sym, Text, TransientStructure,
    Unit, ValueSet, Var, nums_equal,
)

#: Form facts whose first argument names the token a construction consumes.
_TOKEN_FACTS = {"string", "lemma", "meets", "lb", "rb"}


def unify(pattern, target, bindings: Bindings) -> list:
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
                  index: Optional[dict] = None) -> list:
    """Each pattern member matches a distinct target member (backtracking).

    Targets are rejected before ``unify`` when their compound name or arity
    differs from the pattern's, or when a ``Text``/``Sym`` argument of the
    pattern (after walking its bindings) differs from the target's argument
    at that position. With an ``index`` of tmembers (see
    ``_form_pool``) only the smallest bucket the screen names is
    visited, in ascending position.
    """
    out: list = []
    _extend_subset(pmembers, tmembers, index, 0, bindings, (), out)
    # Deduplicate: different target orderings can reach identical bindings.
    return list(dict.fromkeys(out))


def _extend_subset(pmembers, tmembers, index, k: int, env: Bindings,
                   used: tuple, out: list) -> None:
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


def match(pattern_units: Iterable[PatternUnit],
          ts: TransientStructure) -> list:
    """Every surviving (bindings, touched tokens) of a conditional pole."""
    pattern_units = list(pattern_units)
    required = []
    for pu in pattern_units:
        names = [k for k, _ in pu.features]
        if len(names) != len(set(names)):
            raise StructuralError(f"duplicate feature in pattern unit {pu.name!r}")
        required.append(frozenset(names) - {FORM_FEATURE, GUARD_FEATURE})

    results: dict = {}
    _attempt(pattern_units, required, ts, _form_pool(ts.root), 0,
             Bindings(), frozenset(), frozenset(), results)
    return [MatchResult(env, touched) for env, touched in results]


def _attempt(pattern_units: list, required: list, ts: TransientStructure,
             pool: tuple, idx: int, bindings: Bindings, used: frozenset,
             touched: frozenset, results: dict) -> None:
    if idx == len(pattern_units):
        results[bindings, touched] = None
        return
    pu = pattern_units[idx]
    name = bindings.walk(pu.name) if isinstance(pu.name, Var) else pu.name

    candidates: list = []
    if isinstance(name, Var) and form_only(pu):
        candidates = [None]  # a token unit: the root alone
    elif isinstance(name, Sym):
        u = ts.unit(name.name)
        if u is not None and u.name not in used:
            candidates = [u]
    else:
        candidates = [u for u in ts.units if u.name not in used]

    for unit in candidates:
        if unit is not None and not required[idx] <= unit.feature_names:
            continue
        env = bindings
        if unit is not None and isinstance(name, Var):
            env = env.bind(name.name, Sym(unit.name))
            if env is None:
                continue
        for env2, tch in _match_unit(pu, unit, pool, env, touched):
            if unit is not None:
                _attempt(pattern_units, required, ts, pool, idx + 1, env2,
                         used | {unit.name}, tch, results)
            elif not isinstance(env2.walk(name), Var):
                _attempt(pattern_units, required, ts, pool, idx + 1, env2,
                         used, tch, results)


def _form_pool(root: Unit) -> tuple:
    """(form facts, index): the index maps ``(name, arity)``, and ``(name,
    arity, position, literal)`` for each Text/Sym argument, to ascending
    fact positions. Kept on the root object, as a cached property would."""
    pool = vars(root).get("_reference_form_pool")
    if pool is None:
        pool = vars(root)["_reference_form_pool"] = _index(root)
    return pool


def _index(root: Unit) -> tuple:
    facts = tuple(root.get(FORM_FEATURE) or ())
    index: dict = {}
    for j, f in enumerate(facts):
        if not isinstance(f, Compound):
            continue
        shape = (f.name, len(f.args))
        index.setdefault(shape, []).append(j)
        for i, a in enumerate(f.args):
            if isinstance(a, (Text, Sym)):
                index.setdefault(shape + (i, a), []).append(j)
    return facts, index


def form_only(pu: PatternUnit) -> bool:
    return all(k in (FORM_FEATURE, GUARD_FEATURE) for k, _ in pu.features)


def _touched_tokens(facts, env) -> set:
    out = set()
    for f in facts:
        f = env.substitute(f)
        if isinstance(f, Compound) and f.name in _TOKEN_FACTS:
            for a in f.args:
                if isinstance(a, Sym) and a.name.startswith("t") and "-" in a.name:
                    out.add(a.name)
    return out


def _check_guards(guards: ValueSet, bindings) -> list:
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
                env: Bindings, touched: frozenset) -> list:
    facts_pool, index = pool
    facts, absent = pu.form_parts
    stack = [(env, touched)]
    for fname, fvalue in pu.features:
        if fname == GUARD_FEATURE:
            continue
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
