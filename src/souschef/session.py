"""Recipe documents and the full understanding loop.

A recipe file is markdown-ish plain text:

    # Almond Crescent Cookies

    Yield: 30 cookies

    # Ingredients

    225 g butter
    ...

    # Instructions

    Preheat the oven to 175 degrees. Beat the butter and ...

Each ingredient line and each instruction sentence is one understanding
step: comprehend it against the current discourse state, complete the
resulting plan fragment from memory/ontology, execute the calls in the
simulated kitchen, advance the plot, and update the question network.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .errors import InputError, UnderstandingFailure
from .features import Num, Var
from .grammar import Grammar, extract_fragment, split_sentences
from .kitchen import PRIMITIVES, KitchenSimulator, KitchenState, serials_in
from .memory import Ontology, PersonalDynamicMemory, advance_plot, parse_number_text
from .narrative import (
    SOURCE_LANGUAGE, SOURCE_SIMULATION, IntegrativeNarrativeNetwork,
)
from .plans import (
    Executor, PlanCall, PlanNetwork, classify_slots, complete_plan,
    normalize_fragment, question_id,
)

# ---------------------------------------------------------------------------
# Recipe documents


@dataclass
class RecipeDocument:
    title: str
    yield_count: Optional[int]
    yield_noun: Optional[str]
    ingredients: list
    instructions: list

    @property
    def steps(self) -> list:
        """Understanding steps: ingredient lines first, then sentences."""
        return list(self.ingredients) + list(self.instructions)


def parse_recipe(text: str) -> RecipeDocument:
    title = None
    yield_count = None
    yield_noun = None
    section = None
    ingredients: list[str] = []
    instruction_text: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            heading = line.lstrip("#").strip()
            low = heading.lower()
            if low == "ingredients":
                section = "ingredients"
            elif low == "instructions":
                section = "instructions"
            else:
                if title is None:
                    title = heading
                section = None
            continue
        if line.lower().startswith("yield:"):
            rest = line.split(":", 1)[1].strip()
            parts = rest.split()
            if not parts:
                raise InputError("empty yield line")
            count = parse_number_text(parts[0])
            if count is None or count.denominator != 1:
                raise InputError(f"yield count is not a whole number: {rest!r}")
            yield_count = int(count)
            if len(parts) > 1:
                yield_noun = parts[1].lower().strip(".,;:!?")
            continue
        if section == "ingredients":
            ingredients.append(line.lstrip("-*").strip())
        elif section == "instructions":
            instruction_text.append(line.lstrip("-*").strip())
        elif title is None:
            title = line
    instructions = split_sentences(" ".join(instruction_text))
    if not instructions:
        raise InputError("recipe has no instructions")
    return RecipeDocument(title or "untitled", yield_count, yield_noun,
                          ingredients, instructions)


def load_recipe(path) -> RecipeDocument:
    return parse_recipe(Path(path).read_text())


# ---------------------------------------------------------------------------
# The understanding loop


@dataclass
class StepReport:
    index: int
    text: str
    applied: tuple
    call_ids: tuple
    unresolved_tokens: tuple  # surface words never integrated
    truncated: bool           # comprehension stopped at its state cap


@dataclass
class SessionResult:
    document: RecipeDocument
    network: PlanNetwork
    state: KitchenState
    trace: object
    inn: IntegrativeNarrativeNetwork
    pdm: PersonalDynamicMemory
    steps: list = field(default_factory=list)

    @property
    def minutes(self) -> Fraction:
        return self.trace.minutes

    @property
    def closed(self) -> bool:
        return self.inn.closure_status()["closed"]


class CookingSession:
    """Stateful per-recipe pipeline; one instance understands one recipe."""

    def __init__(self, grammar: Grammar, ontology: Ontology,
                 kitchen_state: KitchenState, config: Optional[dict] = None):
        self.grammar = grammar
        self.ontology = ontology
        self.sim = KitchenSimulator(ontology, config)
        self.executor = Executor(self.sim, kitchen_state)
        self.pdm = PersonalDynamicMemory(ontology, kitchen_state.state_id)
        self.inn = IntegrativeNarrativeNetwork()
        self.calls: list[PlanCall] = []
        self.producer_of: dict[int, str] = {}
        self.chain_var: Optional[str] = None
        self._index = itertools.count()
        self.steps: list[StepReport] = []

    # -- plumbing ------------------------------------------------------------

    def _next_index(self) -> int:
        return next(self._index)

    def _start_head(self) -> None:
        """Context-linking call grounding the plan in the present kitchen."""
        idx = self._next_index()
        out_var = f"v{idx}-kitchen-state-out"
        head = PlanCall(f"c{idx}", "get-kitchen-state",
                        (("kitchen-state-out", Var(out_var)),),
                        provenance=-1)
        self.executor.run([head])
        self.calls.append(head)
        self.chain_var = out_var

    # -- one step -------------------------------------------------------------

    def run_step(self, index: int, text: str) -> StepReport:
        if self.chain_var is None:
            self._start_head()
        node = self.pdm.current

        result = self.grammar.comprehend(text, accessible=node.accessible)
        fragment = extract_fragment(result)

        question_refs: list[str] = []
        for tok in fragment.unresolved_tokens:
            qid = f"q-i{index}-{tok.token_id}"
            self.inn.raise_question(
                qid, f"unintegrated token '{tok.word}'", index)
            question_refs.append(qid)
        if not result.succeeded or not fragment.calls:
            cap = " (the search stopped at its state cap)" \
                if result.truncated else ""
            raise UnderstandingFailure(
                f"no covering analysis for {text!r}{cap}",
                question_id=question_refs[0] if question_refs else None,
                instruction_index=index)

        normalize_fragment(fragment, self._next_index)

        for st in classify_slots(fragment, self.ontology):
            qid = question_id(st.call_id, st.role)
            call = next(c for c in fragment.calls if c.call_id == st.call_id)
            self.inn.raise_question(
                qid, f"{st.role} of {call.primitive}", index,
                call_id=st.call_id, role=st.role)
            question_refs.append(qid)
            if st.bound_by_language:
                self.inn.record_answer(qid, SOURCE_LANGUAGE,
                                       call.slot(st.role), index)

        try:
            completion = complete_plan(fragment, node, self.executor.state,
                                       self.ontology, self.producer_of,
                                       self.chain_var)
        except UnderstandingFailure as exc:
            raise UnderstandingFailure(str(exc),
                                       question_id=exc.question_id,
                                       instruction_index=index)

        calls = [replace(c, provenance=index) for c in completion.calls]
        for ans in completion.answers:
            self.inn.record_answer(question_id(ans.call_id, ans.role),
                                   ans.source, ans.value, index)

        exec_answers = self.executor.run(calls)
        for ans in exec_answers:
            self.inn.record_answer(question_id(ans.call_id, ans.role),
                                   SOURCE_SIMULATION, ans.value, index)
            if ans.variable is not None:
                for serial in serials_in(ans.value):
                    self.producer_of[serial] = ans.variable

        state = self.executor.state
        new_entities = []
        for c in calls:
            role = PRIMITIVES.get(c.primitive).plot
            if role is None:
                continue
            term = c.slot(role)
            if term is None:
                continue
            value = self.executor.bindings.substitute(term)
            ids = tuple(s for s in serials_in(value)
                        if state.entity(s) is not None)
            if not ids:
                continue
            new_entities.append((ids, state.entity(ids[0]).kind))
        advance_plot(self.pdm, state, new_entities, index, event=text,
                     fragment_ref=index, question_refs=tuple(question_refs))

        self.calls.extend(calls)
        self.chain_var = completion.ks_out_var

        report = StepReport(
            index=index,
            text=text,
            applied=result.applied,
            call_ids=tuple(c.call_id for c in calls),
            unresolved_tokens=tuple(t.word for t in fragment.unresolved_tokens),
            truncated=result.truncated,
        )
        self.steps.append(report)
        return report

    # -- whole recipe ----------------------------------------------------------

    def run(self, document: RecipeDocument) -> SessionResult:
        steps = document.steps
        if not steps:
            raise InputError("recipe has no steps")
        yield_qid = None
        if document.yield_count is not None:
            yield_qid = "q-recipe-yield"
            noun = document.yield_noun or "servings"
            self.inn.raise_question(
                yield_qid,
                f"does the recipe produce {document.yield_count} {noun}?", 0)
        for i, text in enumerate(steps):
            self.run_step(i, text)
            if i == len(steps) - 1 and yield_qid is not None:
                count = self._count_yield(document)
                self.inn.record_answer(yield_qid, SOURCE_SIMULATION,
                                       Num(Fraction(count)), i)
            self.inn.snapshot(i)

        network = PlanNetwork(list(self.calls))
        network.validate()
        return SessionResult(
            document=document,
            network=network,
            state=self.executor.state,
            trace=self.executor.trace,
            inn=self.inn,
            pdm=self.pdm,
            steps=list(self.steps),
        )

    def _count_yield(self, document: RecipeDocument) -> int:
        noun = document.yield_noun
        concept = None
        if noun:
            if self.ontology.knows(noun):
                concept = noun
            elif noun.endswith("s") and self.ontology.knows(noun[:-1]):
                concept = noun[:-1]
        if concept is None:
            return 0
        return len(self.executor.state.entities_of_kind(concept, self.ontology))


def run_recipe(document: RecipeDocument, grammar: Grammar, ontology: Ontology,
               kitchen_state: KitchenState, config: Optional[dict] = None
               ) -> SessionResult:
    session = CookingSession(grammar, ontology, kitchen_state, config)
    return session.run(document)
