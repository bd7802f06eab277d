"""The scanning matcher, kept as the oracle for ``metrics.smatch_score``.

``smatch_score`` here rescans every target call for each placed call's own
triples, for its bound and for the gains of each search node, and re-sums
each remaining call's placed links at every placement step. The
``metrics`` version counts the same quantities from indexes of the other
graph's triples, and must return exactly the same ``OverlapScore``,
including the best alignment found when the search budget runs out.
"""

from __future__ import annotations

from souschef.metrics import ALIGN_BUDGET, TripleSet, _score


def _placement_order(x: TripleSet, x_attrs: dict) -> list:
    """(call, relations) pairs: each next call has the most relations into
    the calls placed before it; ties go to more attribute triples, then to
    plan order. A call's relations are those it closes, as (role, other
    call, whether the call is the consumer)."""
    links: dict[str, list] = {n: [] for n in x.nodes}
    for n1, role, n2 in x.relations:
        links[n1].append((role, n2, True))
        if n2 != n1:
            links[n2].append((role, n1, False))
    order, placed, rest = [], set(), list(x.nodes)
    while rest:
        call = max(rest, key=lambda n: (
            sum(w in placed for _, w, _ in links[n]), len(x_attrs[n])))
        rest.remove(call)
        placed.add(call)
        order.append((call, [r for r in links[call] if r[1] in placed]))
    return order


def smatch_score(a: TripleSet, b: TripleSet):
    """Best triple overlap over one-to-one call alignments, by branch and
    bound over the calls of the smaller graph (see ``metrics``)."""
    x, y = (a, b) if len(a.nodes) <= len(b.nodes) else (b, a)
    y_prim = dict(y.instances)
    y_attr, y_rel = set(y.attributes), set(y.relations)
    y_roles = ({(n1, role, True) for n1, role, _ in y.relations}
               | {(n2, role, False) for _, role, n2 in y.relations})
    x_prim = dict(x.instances)
    x_attrs: dict[str, list] = {n: [] for n in x.nodes}
    for n, role, value in x.attributes:
        x_attrs[n].append((role, value))

    steps = []                   # (call, relations, own triples per target)
    bounds = []
    for call, rels in _placement_order(x, x_attrs):
        own = {v: (x_prim[call] == y_prim[v])
               + sum((v, role, value) in y_attr
                     for role, value in x_attrs[call])
               for v in y.nodes}
        steps.append((call, rels, own))
        bounds.append(max(own[v] + sum((v, role, consumer) in y_roles
                                       for role, _, consumer in rels)
                          for v in y.nodes))
    rest = [sum(bounds[d:]) for d in range(len(bounds) + 1)]

    mapping: dict[str, str] = {}
    best, spent = 0, 0

    def search(depth: int, score: int) -> None:
        nonlocal best, spent
        if depth == len(steps):
            best = score         # pruning admits only improvements
            return
        call, rels, own = steps[depth]
        options = []
        used = set(mapping.values())
        for v in y.nodes:
            if v in used:
                continue
            # mapping lacks `call` itself, so a self-relation maps to v
            gain = own[v] + sum(
                ((v, role, mapping.get(w, v)) if consumer
                 else (mapping.get(w, v), role, v)) in y_rel
                for role, w, consumer in rels)
            options.append((gain, v))
        options.sort(key=lambda option: -option[0])
        for gain, v in options:
            if score + gain + rest[depth + 1] <= best:
                return
            spent += 1
            if spent > ALIGN_BUDGET:
                return
            mapping[call] = v
            search(depth + 1, score + gain)
            del mapping[call]

    search(0, 0)
    return _score(a, b, best, spent <= ALIGN_BUDGET)
