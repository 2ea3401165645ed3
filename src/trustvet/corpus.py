"""Corpus records and their JSONL on-disk form.

One record per function. Fields:

    function_id   required, unique within a corpus file
    source        required, full function text
    label         "vulnerable" | "non-vulnerable" (required for ingestion)
    diff          unified diff of the fixing change (vulnerable functions)
    vul_lines     explicit vulnerable line numbers (alternative to diff)
    explanation   [{"line": int, "score": float}, ...]  (evaluation corpora)
    confidence    prediction confidence in [0, 1]       (evaluation corpora)
    graph         external dependence-graph export (optional; replaces parsing)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import SchemaError
from .pdg import Explanation, explanation_entries, is_strict_int, json_number, read_json_object

VULNERABLE = "vulnerable"
NON_VULNERABLE = "non-vulnerable"


@dataclass(frozen=True)
class CorpusRecord:
    function_id: str
    source: str
    label: str | None = None
    diff: str | None = None
    vul_lines: tuple[int, ...] | None = None
    explanation: tuple[tuple[int, float], ...] | None = None
    confidence: float | None = None
    graph: dict | None = None

    def to_explanation(self) -> Explanation:
        if self.explanation is None or self.confidence is None:
            raise SchemaError(f"record {self.function_id}: no explanation/confidence")
        return Explanation(
            function_id=self.function_id,
            confidence=self.confidence,
            entries=self.explanation,
        )


def record_from_dict(doc: dict, where: str) -> CorpusRecord:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: record is not an object")
    function_id = doc.get("function_id")
    source = doc.get("source")
    if not isinstance(function_id, str) or not function_id:
        raise SchemaError(f"{where}: missing function_id")
    if not isinstance(source, str) or not source:
        raise SchemaError(f"{where}: missing source")
    label = doc.get("label")
    if label is not None and label not in (VULNERABLE, NON_VULNERABLE):
        raise SchemaError(f"{where}: bad label {label!r}")
    vul_lines = doc.get("vul_lines")
    if vul_lines is not None:
        if not isinstance(vul_lines, list) or not all(
            is_strict_int(x) and x >= 1 for x in vul_lines
        ):
            raise SchemaError(f"{where}: vul_lines must be a list of line numbers")
        vul_lines = tuple(vul_lines)
    explanation = doc.get("explanation")
    if explanation is not None:
        explanation = explanation_entries(explanation, where)
    confidence = doc.get("confidence")
    if confidence is not None:
        confidence = json_number(confidence, f"{where}: confidence")
    graph = doc.get("graph")
    if graph is not None and not isinstance(graph, dict):
        raise SchemaError(f"{where}: graph must be an object")
    diff = doc.get("diff")
    if diff is not None and not isinstance(diff, str):
        raise SchemaError(f"{where}: diff must be a string")
    return CorpusRecord(
        function_id=function_id,
        source=source,
        label=label,
        diff=diff,
        vul_lines=vul_lines,
        explanation=explanation,
        confidence=confidence,
        graph=graph,
    )


def record_to_dict(record: CorpusRecord) -> dict:
    doc: dict = {"function_id": record.function_id, "source": record.source}
    if record.label is not None:
        doc["label"] = record.label
    if record.diff is not None:
        doc["diff"] = record.diff
    if record.vul_lines is not None:
        doc["vul_lines"] = list(record.vul_lines)
    if record.explanation is not None:
        doc["explanation"] = [{"line": line, "score": score} for line, score in record.explanation]
    if record.confidence is not None:
        doc["confidence"] = record.confidence
    if record.graph is not None:
        doc["graph"] = record.graph
    return doc


def load_corpus(path: str | Path) -> list[CorpusRecord]:
    """Read a JSONL corpus file; blank lines are ignored."""
    records: list[CorpusRecord] = []
    seen: set[str] = set()
    for idx, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        if not raw.strip():
            continue
        where = f"{path}:{idx}"
        record = record_from_dict(read_json_object(raw, where), where)
        if record.function_id in seen:
            raise SchemaError(f"{where}: duplicate function_id {record.function_id!r}")
        seen.add(record.function_id)
        records.append(record)
    return records


def save_corpus(records: list[CorpusRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record), sort_keys=True) + "\n")
