"""Narrative question network: what a reader must know to act out a recipe.

Every primitive call raised by an instruction opens one question per slot;
slots the sentence itself filled are answered immediately by language, the
rest by discourse memory, ontology defaults, or mental simulation as the
plan completes and runs. Understanding is complete (closure) when no
question stays open. The per-instruction snapshot table is the
understanding curve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import InputError, StructuralError
from .serialize import fv_to_json

SOURCE_LANGUAGE = "language"
SOURCE_SIMULATION = "mental-simulation"
SOURCE_ONTOLOGY = "ontology"
SOURCE_PDM = "discourse-pdm"

KNOWLEDGE_SOURCES = (
    SOURCE_LANGUAGE, SOURCE_SIMULATION, SOURCE_ONTOLOGY, SOURCE_PDM,
)

CURVE_COLUMNS = (
    "instruction-index",
    "raised-cumulative",
    "answered-by-language",
    "answered-by-simulation",
    "answered-by-ontology",
    "answered-by-pdm",
)

_SOURCE_COLUMN = {
    SOURCE_LANGUAGE: "answered-by-language",
    SOURCE_SIMULATION: "answered-by-simulation",
    SOURCE_ONTOLOGY: "answered-by-ontology",
    SOURCE_PDM: "answered-by-pdm",
}


@dataclass
class NarrativeQuestion:
    qid: str
    subject: str
    instruction_index: int
    call_id: Optional[str] = None
    role: Optional[str] = None
    status: str = "open"          # "open" | "answered"
    source: Optional[str] = None
    answer: Optional[object] = None
    answered_at: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "id": self.qid,
            "subject": self.subject,
            "instruction": self.instruction_index,
            "call": self.call_id,
            "role": self.role,
            "status": self.status,
            "source": self.source,
            "answer": fv_to_json(self.answer) if self.answer is not None else None,
            "answered-at": self.answered_at,
        }


@dataclass
class IntegrativeNarrativeNetwork:
    questions: list = field(default_factory=list)
    _by_id: dict = field(default_factory=dict)
    curve: list = field(default_factory=list)

    def raise_question(self, qid: str, subject: str, instruction_index: int,
                       call_id: Optional[str] = None,
                       role: Optional[str] = None) -> NarrativeQuestion:
        if qid in self._by_id:
            raise StructuralError(f"question raised twice: {qid}")
        q = NarrativeQuestion(qid, subject, instruction_index, call_id, role)
        self.questions.append(q)
        self._by_id[qid] = q
        return q

    def record_answer(self, qid: str, source: str, answer,
                      instruction_index: Optional[int] = None) -> None:
        q = self._by_id.get(qid)
        if q is None:
            raise InputError(f"no such question: {qid}")
        if source not in KNOWLEDGE_SOURCES:
            raise InputError(
                f"unknown knowledge source {source!r}; "
                f"expected one of {KNOWLEDGE_SOURCES}")
        if q.status == "answered":
            raise StructuralError(
                f"question {qid} answered twice "
                f"(first by {q.source}, now by {source})")
        q.status = "answered"
        q.source = source
        q.answer = answer
        q.answered_at = (instruction_index if instruction_index is not None
                         else q.instruction_index)

    def question(self, qid: str) -> NarrativeQuestion:
        q = self._by_id.get(qid)
        if q is None:
            raise InputError(f"no such question: {qid}")
        return q

    def open_questions(self) -> list:
        return [q for q in self.questions if q.status == "open"]

    def closure_status(self) -> dict:
        answered = sum(1 for q in self.questions if q.status == "answered")
        by_source = {s: 0 for s in KNOWLEDGE_SOURCES}
        for q in self.questions:
            if q.source is not None:
                by_source[q.source] += 1
        return {
            "raised": len(self.questions),
            "answered": answered,
            "open": len(self.questions) - answered,
            "closed": answered == len(self.questions),
            "by-source": by_source,
        }

    # -- understanding curve ------------------------------------------------

    def snapshot(self, instruction_index: int) -> tuple:
        """Append one cumulative curve row for this instruction."""
        row = {
            "instruction-index": instruction_index,
            "raised-cumulative": len(self.questions),
        }
        for source, column in _SOURCE_COLUMN.items():
            row[column] = sum(1 for q in self.questions if q.source == source)
        if self.curve:
            prev = self.curve[-1]
            for key in CURVE_COLUMNS[1:]:
                if row[key] < prev[key]:
                    raise StructuralError(
                        f"understanding curve went backwards in {key}")
        self.curve.append(row)
        return tuple(row[c] for c in CURVE_COLUMNS)

    def write_curve_tsv(self, path) -> None:
        lines = ["\t".join(CURVE_COLUMNS)]
        for row in self.curve:
            lines.append("\t".join(str(row[c]) for c in CURVE_COLUMNS))
        Path(path).write_text("\n".join(lines) + "\n")

    # -- export --------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "questions": [q.to_json() for q in self.questions],
            "closure": self.closure_status(),
            "curve": [dict(r) for r in self.curve],
        }

    def write_json(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")


def parse_curve_tsv(text: str) -> list:
    """Rows of the understanding curve as dicts; validates the header."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty curve file")
    header = tuple(lines[0].split("\t"))
    if header != CURVE_COLUMNS:
        raise InputError(f"curve header mismatch: {header}")
    rows = []
    for ln in lines[1:]:
        cells = ln.split("\t")
        if len(cells) != len(CURVE_COLUMNS):
            raise InputError(f"curve row has {len(cells)} columns: {ln!r}")
        rows.append({c: int(v) for c, v in zip(CURVE_COLUMNS, cells)})
    return rows
