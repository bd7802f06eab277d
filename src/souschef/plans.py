"""Cooking plan representation: networks, completion, execution.

A comprehension step yields a fragment: primitive calls over shared logic
variables, with open slots. Completion binds every input slot, resolving
each open variable once from one knowledge source (discourse memory, the
kitchen-state chain, ontology defaults, simulator lookups), and leaves
output slots for execution to compute. Execution is data-flow driven: any
call whose inputs are bound may run; the simulated clock advances along
the critical path, because passive operations (oven work, cooling) hand
control back to the agent immediately. Chunking stores recurrent subplans
as composite operations that expand back into the same calls.

The primitives themselves, with their slots, are declared in
`kitchen.PRIMITIVES`; execution, completion and verification read each
one's passivity, slot defaults and verifier there.
Which slots of a call are outputs is decided in one place, `call_outputs`;
`input_slots` and `output_vars` walk a call's slots on that rule, and terms
are walked with `features.vars_of` and `features.rename_vars`.
"""

from __future__ import annotations

import json
import random
from bisect import insort
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .errors import (
    DataflowDeadlock, InputError, StructuralError, UnderstandingFailure,
    UnsupportedDirection,
)
from .features import Bindings, Num, Sym, ValueSet, Var, rename_vars, vars_of
from .kitchen import (
    KS, PRIMITIVES, ExecutionTrace, KitchenSimulator, KitchenState,
    TraceRecord, content_hash, serials_in, slot_values_to_json,
)
from .memory import PlotNode, resolve_entity
from .narrative import SOURCE_ONTOLOGY, SOURCE_PDM, SOURCE_SIMULATION
from .serialize import check_shape, fv_from_json, fv_to_json, read_json

# ---------------------------------------------------------------------------
# Calls, fragments, networks


@dataclass(frozen=True)
class PlanCall:
    call_id: str
    primitive: str
    slots: tuple            # ordered (role, term); term = Var | constant value
    provenance: int = -1    # source instruction index
    meta: tuple = ()        # bookkeeping, e.g. composite var-maps

    def slot(self, role: str):
        for r, t in self.slots:
            if r == role:
                return t
        return None

    def with_slot(self, role: str, term) -> "PlanCall":
        slots = list(self.slots)
        for i, (r, _) in enumerate(slots):
            if r == role:
                slots[i] = (role, term)
                break
        else:
            slots.append((role, term))
        return replace(self, slots=tuple(slots))


@dataclass
class PlanFragment:
    """Partial meaning: calls with open variables plus discourse annotations."""

    calls: list = field(default_factory=list)
    discourse: dict = field(default_factory=dict)  # var -> (category, props)
    locate: dict = field(default_factory=dict)     # var -> entity kind
    unresolved_tokens: list = field(default_factory=list)

    def vars_produced(self) -> set[str]:
        return {v for call in self.calls for _, v in output_vars(call)}


def call_outputs(call: PlanCall) -> frozenset:
    """Output roles of a call; composite calls export their out-* slots."""
    if call.primitive.startswith("composite:"):
        return frozenset(r for r, _ in call.slots if r.startswith("out-"))
    return PRIMITIVES.get(call.primitive).outputs


def input_slots(call: PlanCall) -> list:
    """(role, term) of every input slot of the call, in slot order."""
    outputs = call_outputs(call)
    return [(r, t) for r, t in call.slots if r not in outputs]


def output_vars(call: PlanCall) -> list:
    """(role, variable name) of every output slot holding a variable, in
    slot order."""
    outputs = call_outputs(call)
    return [(r, t.name) for r, t in call.slots
            if r in outputs and isinstance(t, Var)]


@dataclass
class PlanNetwork:
    calls: list = field(default_factory=list)

    def call(self, call_id: str) -> PlanCall:
        for c in self.calls:
            if c.call_id == call_id:
                return c
        raise InputError(f"no call {call_id}")

    def producers(self) -> dict:
        """var name -> (call, role) that outputs it; validates single assignment."""
        out: dict[str, tuple] = {}
        for c in self.calls:
            for role, v in output_vars(c):
                if v in out:
                    raise StructuralError(f"variable ?{v} produced twice")
                out[v] = (c, role)
        return out

    def consumers(self) -> list:
        """(consumer call, role, producer call) edges over shared variables."""
        prod = self.producers()
        return [(c, role, prod[v][0]) for c in self.calls
                for role, term in input_slots(c)
                for v in vars_of(term) if v in prod]

    def validate(self) -> None:
        seen = set()
        for c in self.calls:
            if c.call_id in seen:
                raise StructuralError(f"duplicate call id {c.call_id}")
            seen.add(c.call_id)
        self.producers()
        # acyclicity over producer -> consumer edges
        deps: dict[str, list] = {c.call_id: [] for c in self.calls}
        for consumer, _, producer in self.consumers():
            deps[consumer.call_id].append(producer.call_id)
        _, cycle = _depth_first(list(deps), deps)
        if cycle is not None:
            raise StructuralError(f"plan cycle through {cycle}")

    def open_input_slots(self) -> list:
        """Input slots whose variable no call produces (incomplete plan)."""
        prod = self.producers()
        return [(c.call_id, role, v) for c in self.calls
                for role, term in input_slots(c)
                for v in vars_of(term) if v not in prod]


# ---------------------------------------------------------------------------
# Slot classification (shared by question raising and completion)


@dataclass(frozen=True)
class SlotStatus:
    call_id: str
    role: str
    bound_by_language: bool


def normalize_fragment(fragment: PlanFragment, next_index) -> None:
    """Assign call ids, rename grammar variables and materialize output/ks
    variables, all in place.

    A comprehension names each fresh variable after the application that
    made it (``?x~<applied entry>``), and an entry names tokens by their
    position in the sentence, so two fragments may share names. Each is
    renamed to ``<stem>~<i>-<n>``: i is the index of the fragment's first
    call, n numbers the variables in order of first appearance over the
    call slots, then discourse, then locate.
    Names thus stay unique within a session and depend on nothing else.
    """
    indices = [next_index() for _ in fragment.calls]
    if indices:
        _rename_fragment(fragment, indices[0])
    for pos, idx in enumerate(indices):
        call = fragment.calls[pos]
        spec = PRIMITIVES.get(call.primitive)
        updated = replace(call, call_id=f"c{idx}")
        for role in spec.roles:
            if updated.slot(role) is None and role in spec.outputs:
                updated = updated.with_slot(role, Var(f"v{idx}-{role}"))
        ks_in = spec.ks_in
        if ks_in is not None and updated.slot(ks_in) is None:
            updated = updated.with_slot(ks_in, Var(f"v{idx}-{ks_in}"))
        fragment.calls[pos] = updated


def _rename_fragment(fragment: PlanFragment, base: int) -> None:
    canon: dict[str, Var] = {}
    names = [v for c in fragment.calls for _, t in c.slots for v in vars_of(t)]
    names += list(fragment.discourse) + list(fragment.locate)
    for name in names:
        if name not in canon:
            canon[name] = Var(f"{name.split('~')[0]}~{base}-{len(canon)}")
    fragment.calls = [
        replace(c, slots=tuple((r, rename_vars(t, canon)) for r, t in c.slots))
        for c in fragment.calls]
    fragment.discourse = {
        canon[v].name: (cat, {k: rename_vars(x, canon)
                              for k, x in props.items()})
        for v, (cat, props) in fragment.discourse.items()}
    fragment.locate = {canon[v].name: kind
                       for v, kind in fragment.locate.items()}


def _slot_default(call: PlanCall, spec, role: str, ontology):
    """The ontology's value for an absent input slot, or None: the feature
    the spec's `Default` for the role names, read on the primitive's own
    concept or on the concept its `of` slot names."""
    default = spec.defaults.get(role)
    if default is None:
        return None
    concept = Sym(call.primitive) if default.of is None else call.slot(default.of)
    if not isinstance(concept, Sym) or not ontology.knows(concept.name):
        return None
    value = ontology.feature(concept.name, default.feature)
    return None if value is None else Sym(str(value))


def classify_slots(fragment: PlanFragment, ontology) -> list[SlotStatus]:
    """Status of every slot of every call in the fragment that raises a
    question: each slot present, and each absent input slot that
    `_slot_default` can fill, the same value completion then binds. A
    present slot is bound by language when it holds a constant, or is an
    input whose variables calls of the fragment produce.
    """
    produced = fragment.vars_produced()
    out = []
    for call in fragment.calls:
        spec = PRIMITIVES.get(call.primitive)
        for role in spec.roles:
            term = call.slot(role)
            is_output = role in spec.outputs
            if term is not None:
                term_vars = vars_of(term)
                bound = not term_vars or (
                    not is_output and all(v in produced for v in term_vars))
                out.append(SlotStatus(call.call_id, role, bound))
                continue
            if is_output:
                continue  # normalize_fragment materializes these
            if _slot_default(call, spec, role, ontology) is not None:
                out.append(SlotStatus(call.call_id, role, False))
    return out


# ---------------------------------------------------------------------------
# Plan completion


@dataclass(frozen=True)
class SlotAnswer:
    call_id: str
    role: str
    variable: Optional[str]
    source: str
    value: object


@dataclass
class CompletionResult:
    calls: list
    answers: list            # SlotAnswer per slot bound here
    ks_out_var: Optional[str]


def question_id(call_id: str, role: str) -> str:
    return f"q-{call_id}-{role}"


def complete_plan(fragment: PlanFragment, node: PlotNode, ks: KitchenState,
                  ontology, producer_of: dict, chain_var: Optional[str],
                  ) -> CompletionResult:
    """Bind every open input slot of the fragment's calls.

    Calls are completed in data-flow order, and each call's input roles are
    visited twice in spec order. The first visit fills absent slots from
    the ontology and resolves every open variable but the zero-anaphora
    ones with `_resolve`; the second resolves those, excluding every entity
    the call's discourse resolutions have named so far. A variable resolved
    once is substituted wherever it recurs in the fragment, with no new
    answer. A visit answers a slot at most once: with the first
    resolution's variable and source, and every entity resolved for it.

    producer_of maps entity serials to the variable name that produced them
    in earlier calls, so discourse resolutions re-enter the data flow as
    variable links rather than opaque constants. chain_var is the variable
    carrying the current kitchen state (output of the previous call).
    """
    bound = fragment.vars_produced() | set(producer_of.values())
    if chain_var is not None:
        bound.add(chain_var)
    values: dict[str, object] = {}   # variable -> value it resolved to
    answers: list[SlotAnswer] = []
    calls_out = []
    for call in _topological(fragment.calls):
        spec = PRIMITIVES.get(call.primitive)
        named: set[int] = set()
        for zero in (False, True):
            for role in spec.roles:
                term = call.slot(role)
                if role in spec.outputs or (term is None and zero):
                    continue
                if term is None:
                    value = _slot_default(call, spec, role, ontology)
                    if value is not None:
                        call = call.with_slot(role, value)
                        answers.append(SlotAnswer(call.call_id, role, None,
                                                  SOURCE_ONTOLOGY, value))
                    continue
                mapping, found = {}, []
                for v in vars_of(term):
                    if v in bound:
                        continue
                    if v not in values:
                        resolution = _resolve(v, zero, call, role, fragment,
                                              node, ks, ontology, producer_of,
                                              chain_var, named)
                        if resolution is None:
                            continue
                        values[v] = resolution[1]
                        found.append((v, *resolution))
                    mapping[v] = values[v]
                if mapping:
                    call = call.with_slot(role, rename_vars(term, mapping))
                if found:
                    variable, source, value, ids = found[0]
                    if ids is not None:  # locate/discourse: name them all
                        value = _ids_term([i for *_, got in found
                                           for i in got], {})
                    answers.append(SlotAnswer(call.call_id, role, variable,
                                              source, value))
        if spec.ks_out is not None:
            out_term = call.slot(spec.ks_out)
            if isinstance(out_term, Var):
                chain_var = out_term.name
        calls_out.append(call)
    return CompletionResult(calls_out, answers, chain_var)


def _resolve(v, zero, call, role, fragment, node, ks, ontology, producer_of,
             chain_var, named):
    """(source, value, entity ids or None) for one open variable of a
    call's input slot, or None when it belongs to the other visit (`zero`
    is True on the second, which takes the zero-anaphora variables).

    A kitchen-state input takes the chain, a `locate` variable the first
    entity of its kind, a discourse variable what discourse memory resolves
    it to (adding the ids to `named`), and any other variable of a slot
    that holds it alone the ontology default.
    """
    spec = PRIMITIVES.get(call.primitive)
    qid = question_id(call.call_id, role)
    if spec.slot_type(role) == KS:
        if chain_var is None:
            raise UnderstandingFailure("no kitchen state available",
                                       question_id=qid)
        return SOURCE_PDM, Var(chain_var), None
    if v in fragment.locate:
        kind = fragment.locate[v]
        hits = ks.entities_of_kind(kind, ontology)
        if not hits:
            raise UnderstandingFailure(f"no {kind} present in the kitchen",
                                       question_id=qid)
        serial = hits[0].serial
        return SOURCE_SIMULATION, Num(Fraction(serial)), (serial,)
    if v in fragment.discourse:
        category, props = fragment.discourse[v]
        if bool(props.get("zero")) != zero:
            return None
        ids = resolve_entity(
            node, ks, ontology, concept=category,
            properties={k: x for k, x in props.items() if k != "zero"},
            exclude=named if zero else ())
        if ids is None:
            raise UnderstandingFailure(
                f"cannot resolve '{category}' in the current context",
                question_id=qid)
        named.update(ids)
        return SOURCE_PDM, _ids_term(ids, producer_of), ids
    value = _slot_default(call, spec, role, ontology)
    if value is None or not isinstance(call.slot(role), Var):
        raise UnderstandingFailure(
            f"no knowledge source can fill {role} of {call.primitive}",
            question_id=qid)
    return SOURCE_ONTOLOGY, value, None


def _ids_term(ids: tuple, producer_of: dict):
    def one(serial: int):
        var_name = producer_of.get(serial)
        return Var(var_name) if var_name else Num(Fraction(serial))

    members = ValueSet(one(s) for s in sorted(ids))
    if len(members) == 1:
        # One producer covers the whole group (or a single constant).
        return members.members[0]
    return members


def _topological(calls: list) -> list:
    """Stable topological order over intra-fragment variable dependencies:
    each call after the calls it depends on, those in plan order."""
    produced = {v: c.call_id for c in calls for _, v in output_vars(c)}
    by_id = {c.call_id: c for c in calls}
    deps = {}
    for c in calls:
        needs = {produced.get(v) for _, term in input_slots(c)
                 for v in vars_of(term)}
        deps[c.call_id] = [d for d in by_id if d in needs and d != c.call_id]
    order, _ = _depth_first(list(by_id), deps)
    return [by_id[cid] for cid in order]


def _depth_first(ids: list, deps: dict) -> tuple:
    """(ids in depth-first post-order, each after the dependencies `deps`
    lists for it, visited in that order; the first id met again while its
    own dependencies were being visited, or None). Such an id closes a
    cycle, and the walk does not enter it twice."""
    order, entered, done, cycle = [], set(), set(), None
    for root in ids:
        if root in entered:
            continue
        entered.add(root)
        stack = [(root, iter(deps[root]))]
        while stack:
            node, pending = stack[-1]
            for d in pending:
                if d not in entered:
                    entered.add(d)
                    stack.append((d, iter(deps[d])))
                    break
                if d not in done and cycle is None:
                    cycle = d
            else:
                stack.pop()
                done.add(node)
                order.append(node)
    return order, cycle


# ---------------------------------------------------------------------------
# Execution


@dataclass
class ExecutionOutcome:
    state: KitchenState
    bindings: Bindings
    trace: ExecutionTrace


class Executor:
    """Incremental data-flow executor with critical-path timing. From the
    first `run` given a preheat-oven on, baking in a cold oven is an error."""

    def __init__(self, sim: KitchenSimulator, ks: KitchenState,
                 rng: Optional[random.Random] = None):
        self.sim = sim
        self.state = ks
        self.bindings = Bindings()
        self.trace = ExecutionTrace(content_hash(ks))
        self.preheat_required = False
        self.rng = rng
        self.agent = Fraction(0)
        self.var_ready: dict[str, Fraction] = {}
        self.entity_ready: dict[int, Fraction] = {}

    # -- timing ------------------------------------------------------------

    def _start_time(self, inputs: list, values: dict) -> Fraction:
        """The latest of the agent's time and the ready times of the call's
        input variables and the entities its inputs name; a variable or
        entity with no ready time is ready at 0, never after the agent."""
        start = self.agent
        for role, term in inputs:
            for v in vars_of(term):
                ready = self.var_ready.get(v)
                if ready is not None and ready > start:
                    start = ready
            for serial in serials_in(values.get(role)):
                ready = self.entity_ready.get(serial)
                if ready is not None and ready > start:
                    start = ready
        return start

    # -- running -----------------------------------------------------------

    def run(self, calls: list) -> list:
        """Execute the given calls to completion; returns output answers.

        A call is ready once all its input variables are bound. Each call
        keeps the number of its input variables still unbound, and each
        variable the calls waiting on it (Kahn 1962); binding a variable
        counts down its waiters. The ready calls are kept in plan order,
        and the next one is the first, or the seeded `rng`'s choice among
        them. DataflowDeadlock names the calls left waiting, in plan order.
        """
        # a rule over all the calls of one run, not a fact of one primitive
        if any(c.primitive == "preheat-oven" for c in calls):
            self.preheat_required = True
        unbound = []                         # per call, by plan position
        waiting: dict[str, list] = {}        # variable -> positions
        for i, c in enumerate(calls):
            names = {v for _, t in input_slots(c) for v in vars_of(t)
                     if self.bindings.lookup(v) is None}
            unbound.append(len(names))
            for v in names:
                waiting.setdefault(v, []).append(i)
        ready = [i for i, n in enumerate(unbound) if not n]
        answers = []
        while ready:
            i = ready[0] if self.rng is None else self.rng.choice(ready)
            ready.remove(i)
            made = self._run_call(calls[i])
            for answer in made:
                for j in waiting.pop(answer.variable, ()):
                    unbound[j] -= 1
                    if not unbound[j]:
                        insort(ready, j)
            answers.extend(made)
        if any(unbound):
            raise DataflowDeadlock([c.call_id for c, n in zip(calls, unbound)
                                    if n])
        return answers

    def _run_call(self, call: PlanCall) -> list:
        spec = PRIMITIVES.get(call.primitive)
        inputs = input_slots(call)
        values = {role: _flatten_sets(self.bindings.substitute(term))
                  for role, term in inputs}
        start = self._start_time(inputs, values)
        before = self.state

        result = self.sim.apply(call.primitive, values, before, start=start,
                                preheat_required=self.preheat_required)
        end = start + result.dclock
        self.agent = start if spec.passive else end
        self.state = result.state

        answers = []
        outputs_json = {}
        out_vars = dict(output_vars(call))
        for role in spec.roles:
            if role not in spec.outputs:
                continue
            if spec.slot_type(role) == KS:
                value = Sym(f"ks:{self.state.state_id}")
                ready_at = start if spec.passive else end
            elif role in result.outputs:
                value = result.outputs[role]
                ready_at = end
            else:
                continue
            outputs_json[role] = fv_to_json(value)
            name = out_vars.get(role)
            if name is not None:
                nb = self.bindings.bind(name, value)
                if nb is None:
                    raise StructuralError(f"occurs check on output ?{name}")
                self.bindings = nb
                self.var_ready[name] = ready_at
                answers.append(SlotAnswer(call.call_id, role, name,
                                          SOURCE_SIMULATION, value))
            for serial in serials_in(value):
                ready = self.entity_ready.get(serial)
                if ready is None or end > ready:
                    self.entity_ready[serial] = end

        self.trace.records.append(TraceRecord(
            call_id=call.call_id,
            primitive=call.primitive,
            inputs=slot_values_to_json(values),
            outputs=outputs_json,
            start=start,
            end=end,
            dclock=result.dclock,
            state_before=before.state_id,
            state_after=self.state.state_id,
            hash_before=self.trace.final_hash,  # hash of `before`
            hash_after=content_hash(self.state),
            warnings=result.warnings,
        ))
        return answers


def _flatten_sets(value):
    """Collapse nested value sets (a set member bound to a set of ids); a
    value with none is returned as it is."""
    if not isinstance(value, ValueSet) or not any(
            isinstance(m, ValueSet) for m in value.members):
        return value
    members = []
    for m in value:
        m = _flatten_sets(m)
        if isinstance(m, ValueSet):
            members.extend(m)
        else:
            members.append(m)
    return ValueSet(members)


def execute_plan(network: PlanNetwork, ks: KitchenState, sim: KitchenSimulator,
                 seed: Optional[int] = None) -> ExecutionOutcome:
    """Run a complete network from scratch against a kitchen state."""
    network.validate()
    stuck = network.open_input_slots()
    if stuck:
        raise InputError(
            "plan has open slots: "
            + ", ".join(f"{cid}.{role}(?{v})" for cid, role, v in stuck))
    rng = random.Random(seed) if seed is not None else None
    executor = Executor(sim, ks, rng=rng)
    executor.run(expand_composites(network.calls))
    return ExecutionOutcome(executor.state, executor.bindings, executor.trace)


# ---------------------------------------------------------------------------
# Bidirectional verification


@dataclass(frozen=True)
class VerificationReport:
    status: str              # "consistent" | "inconsistent"
    delta: Optional[Fraction] = None
    detail: str = ""

    @property
    def consistent(self) -> bool:
        return self.status == "consistent"


def verify_direction(primitive: str, values: dict, ks: KitchenState,
                     sim: KitchenSimulator) -> VerificationReport:
    """Check already-known outputs against the recipe's stated inputs with
    the verifier the primitive's spec declares for its direction."""
    spec = PRIMITIVES.get(primitive)
    known = frozenset(r for r in values if r in spec.roles)
    if spec.direction is None or not spec.direction <= known:
        raise UnsupportedDirection(
            f"{primitive} declares no direction over {sorted(known)}")
    delta, detail = spec.verifier(sim, ks, values)
    if delta == 0:
        return VerificationReport("consistent", delta)
    return VerificationReport("inconsistent", delta, detail)


# ---------------------------------------------------------------------------
# Chunking into composite operations


@dataclass(frozen=True)
class CompositeOperation:
    name: str
    body: tuple              # template PlanCalls (canonical variable names)
    params: tuple            # formal parameter variable names, in order
    returns: tuple           # (template var, role) pairs exported
    occurrences: int


def _occurrence_shape(network: PlanNetwork, call_ids: list) -> tuple:
    """(primitive names, internal edges) signature used for isomorphism."""
    calls = [network.call(cid) for cid in call_ids]
    produced = {v: (i, role) for i, c in enumerate(calls)
                for role, v in output_vars(c)}
    edges = sorted((*produced[v], i, role) for i, c in enumerate(calls)
                   for role, term in input_slots(c)
                   for v in vars_of(term) if v in produced)
    return (tuple(c.primitive for c in calls), tuple(edges))


def _aligned_outputs(ref_calls: list, occ_calls: list) -> dict:
    """Reference output variable -> the occurrence's variable in the same
    output slot of the aligned call."""
    out = {}
    for rc, oc in zip(ref_calls, occ_calls):
        theirs = dict(output_vars(oc))
        for role, v in output_vars(rc):
            if role not in theirs:
                raise InputError(f"variable {v} not aligned across occurrences")
            out[v] = theirs[role]
    return out


def _check_no_reentry(network: PlanNetwork, occurrences: list) -> None:
    """InputError when a data-flow path (kitchen-state edges included)
    leaves an occurrence and comes back into it: one composite call in its
    place would then depend on itself."""
    successors: dict[str, set] = {}
    for consumer, _, producer in network.consumers():
        successors.setdefault(producer.call_id, set()).add(consumer.call_id)
    for occ in occurrences:
        inside = set(occ)
        stack = [c for cid in occ for c in successors.get(cid, ())
                 if c not in inside]
        reached = set(stack)
        while stack:
            for c in successors.get(stack.pop(), ()):
                if c in inside:
                    raise InputError(
                        f"data flow leaves occurrence {list(occ)} and "
                        f"re-enters it at call {c}")
                if c not in reached:
                    reached.add(c)
                    stack.append(c)


def chunk(network: PlanNetwork, occurrences: list, name: str) -> tuple:
    """Store a recurrent subgraph as a composite; returns (composite, network').

    occurrences: list of call-id lists, positionally aligned. All must be
    isomorphic over primitive names and internal data-flow edges, no call
    may lie in two of them, and no data-flow path may leave an occurrence
    and re-enter it.
    """
    if len(occurrences) < 2:
        raise InputError("chunking needs at least two occurrences")
    seen: set = set()
    for cid in (cid for occ in occurrences for cid in occ):
        if cid in seen:
            raise InputError(f"call {cid} lies in two occurrences")
        seen.add(cid)
    shapes = [_occurrence_shape(network, occ) for occ in occurrences]
    if any(s != shapes[0] for s in shapes[1:]):
        raise InputError("occurrences are not isomorphic")
    _check_no_reentry(network, occurrences)

    occ_calls = [[network.call(cid) for cid in occ] for occ in occurrences]
    ref = occ_calls[0]
    aligned = [_aligned_outputs(ref, calls) for calls in occ_calls]
    # Template: the reference's outputs renamed canonically; every input
    # slot not built from them alone becomes a parameter.
    canon = {v: Var(f"b{i}") for i, v in enumerate(sorted(aligned[0]))}
    params: list[tuple[int, str]] = []   # (call position, role)
    body = []
    for i, c in enumerate(ref):
        outputs = call_outputs(c)
        slots = []
        for role, term in c.slots:
            tvars = vars_of(term)
            if role in outputs or (tvars and tvars <= canon.keys()):
                slots.append((role, rename_vars(term, canon)))
            else:
                params.append((i, role))
                slots.append((role, Var(f"p{len(params) - 1}")))
        body.append(PlanCall(f"t{i}", c.primitive, tuple(slots)))

    # Exported: reference outputs whose counterpart in some occurrence is
    # used by a call outside that occurrence.
    used_outside = set()
    for occ, m in zip(occurrences, aligned):
        used = {v for c in network.calls if c.call_id not in occ
                for _, t in c.slots for v in vars_of(t)}
        used_outside.update(r for r, v in m.items() if v in used)
    exported = [(v, role) for c in ref for role, v in output_vars(c)
                if v in used_outside]

    composite = CompositeOperation(
        name, tuple(body), tuple(f"p{i}" for i in range(len(params))),
        tuple((canon[v].name, role) for v, role in exported), len(occurrences))

    # Replace each occurrence with one composite call.
    comp_calls = {}
    for k, (occ, calls, m) in enumerate(zip(occurrences, occ_calls, aligned)):
        slots = [(f"p{j}", calls[pos].slot(role))
                 for j, (pos, role) in enumerate(params)]
        slots += [(f"out-{canon[v].name}", Var(m[v])) for v, _ in exported]
        var_map = tuple((b.name, m[v]) for v, b in canon.items())
        comp_calls[occ[0]] = PlanCall(
            f"{name}-{k}", f"composite:{name}", tuple(slots),
            provenance=calls[0].provenance,
            meta=(("composite", composite), ("var-map", var_map),
                  ("call-ids", tuple(occ))))
    replaced = {cid for occ in occurrences for cid in occ}
    new_calls = [comp_calls.get(c.call_id, c) for c in network.calls
                 if c.call_id in comp_calls or c.call_id not in replaced]
    return composite, PlanNetwork(new_calls)


def expand_composites(calls: list) -> list:
    """Inline composite calls; plain calls pass through untouched."""
    out = []
    for c in calls:
        if not c.primitive.startswith("composite:"):
            out.append(c)
            continue
        meta = dict(c.meta)
        composite: CompositeOperation = meta["composite"]
        # parameters take their arguments, template outputs the
        # occurrence's variables
        mapping = {tvar: Var(actual) for tvar, actual in meta.get("var-map", ())}
        mapping.update((r, t) for r, t in c.slots if r.startswith("p"))
        ids = meta.get("call-ids", tuple(f"{c.call_id}.{i}"
                                         for i in range(len(composite.body))))
        for i, b in enumerate(composite.body):
            slots = tuple((r, rename_vars(t, mapping)) for r, t in b.slots)
            out.append(PlanCall(ids[i], b.primitive, slots,
                                provenance=c.provenance))
    return out


def inline(network: PlanNetwork) -> PlanNetwork:
    return PlanNetwork(expand_composites(network.calls))


def find_recurrent_pairs(network: PlanNetwork) -> dict:
    """Connected two-call patterns appearing at least twice, by signature;
    only groups that ``chunk`` accepts."""
    groups: dict[tuple, list] = {}
    seen = set()
    for consumer, role, producer in network.consumers():
        if PRIMITIVES.get(consumer.primitive).slot_type(role) == KS:
            continue
        pair = (producer.call_id, consumer.call_id)
        if pair in seen:
            continue
        seen.add(pair)
        sig = _occurrence_shape(network, list(pair))
        groups.setdefault(sig, []).append(list(pair))
    return {sig: occs for sig, occs in groups.items()
            if len(occs) >= 2 and _chunkable(network, occs)}


def _chunkable(network: PlanNetwork, occurrences: list) -> bool:
    try:
        chunk(network, occurrences, "probe")
    except InputError:
        return False
    return True


# ---------------------------------------------------------------------------
# Plan JSON


def plan_to_json(network: PlanNetwork) -> dict:
    calls = []
    provenance = []
    for c in network.calls:
        slots = {}
        for role, term in c.slots:
            if isinstance(term, Var):
                slots[role] = {"var": term.name}
            elif isinstance(term, ValueSet) and vars_of(term):
                slots[role] = {"terms": [
                    {"var": m.name} if isinstance(m, Var) else {"const": fv_to_json(m)}
                    for m in term]}
            else:
                slots[role] = {"const": fv_to_json(term)}
        calls.append({"primitive": c.primitive, "slots": slots})
        provenance.append(c.provenance)
    return {"calls": calls, "provenance": provenance}


#: The shape of a plan file; `_term_from_json` checks each slot term.
PLAN_SHAPE = {"calls": [{"primitive": str, "slots?": dict}],
              "provenance?": [int]}


def plan_from_json(data: dict) -> PlanNetwork:
    check_shape(data, PLAN_SHAPE, "plan file")
    provenance = data.get("provenance", [])
    calls = []
    for i, entry in enumerate(data["calls"]):
        try:
            slots = tuple((role, _term_from_json(term))
                          for role, term in entry.get("slots", {}).items())
        except InputError as exc:
            raise InputError(f"plan file: 'calls[{i}].slots': {exc}") from None
        prov = provenance[i] if i < len(provenance) else -1
        calls.append(PlanCall(f"c{i}", entry["primitive"], slots, prov))
    network = PlanNetwork(calls)
    network.validate()
    return network


def _term_from_json(term) -> object:
    if isinstance(term, dict):
        if "var" in term:
            return fv_from_json(term)
        if "const" in term:
            return fv_from_json(term["const"])
        if isinstance(term.get("terms"), list):
            return ValueSet(_term_from_json(t) for t in term["terms"])
    raise InputError(f"malformed slot term: {term!r}")


def save_plan(network: PlanNetwork, path: Path | str) -> None:
    Path(path).write_text(json.dumps(plan_to_json(network), indent=2,
                                     sort_keys=True) + "\n")


def load_plan(path: Path | str) -> PlanNetwork:
    return plan_from_json(read_json(path, "plan file"))
