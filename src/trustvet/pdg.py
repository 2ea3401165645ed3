"""Line-level program dependence graphs and prediction explanations.

A Pdg has one node per source line that carries computation, and directed
Control/Data edges between lines. Data edges name the variable they track.
An Explanation attaches per-line importance scores (and a model confidence)
to a function; build_weighted_pdg projects those scores onto the graph.

A Pdg comes from the built-in parser or from an imported graph in the
interchange format (both in trustvet.frontend); that format is the only graph
document trustvet reads. A graph is checked where it is made: the parser and
import_raw_graph refuse what is malformed, so Pdg and PdgEdge hold what they
are given, and only Explanation checks its own fields. pdg_dumps writes a
Pdg's canonical bytes, for digests and inspection, and has no reader.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

from .errors import IdentityMismatchError, MalformedExplanationError, SchemaError

# Line identifiers are 1-based source line numbers.
LineId = int

SCHEMA_VERSION = "1.0.0"


def is_strict_int(value: object) -> bool:
    """An int that is not a bool (JSON true/false decode to bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


class DepKind(str, Enum):
    CONTROL = "control"
    DATA = "data"


class PdgEdge(NamedTuple):
    """A dependency edge: between statement ids in a RawDepGraph, between
    source lines in a Pdg.

    variable is present exactly when kind is DATA: the parser and
    import_raw_graph, where graphs are made, hold every edge to this. Edges
    sort as plain tuples in sort_key order.
    """

    src: int
    dst: int
    kind: DepKind
    variable: str | None = None

    def sort_key(self) -> tuple:
        return (self.src, self.dst, self.kind.value, self.variable or "")


@dataclass(frozen=True)
class Pdg:
    function_id: str
    nodes: frozenset[LineId]
    edges: tuple[PdgEdge, ...]
    line_text: Mapping[LineId, str] = field(default_factory=dict)
    line_vars: Mapping[LineId, frozenset[str]] = field(default_factory=dict)

    @staticmethod
    def build(
        function_id: str,
        nodes: Iterable[LineId],
        edges: Iterable[PdgEdge],
        line_text: Mapping[LineId, str] | None = None,
        line_vars: Mapping[LineId, Iterable[str]] | None = None,
    ) -> "Pdg":
        """Normalize loose inputs into the frozen container."""
        return Pdg(
            function_id=function_id,
            nodes=frozenset(nodes),
            edges=tuple(edges),
            line_text=dict(line_text or {}),
            line_vars={k: frozenset(v) for k, v in (line_vars or {}).items()},
        )


@dataclass(frozen=True)
class Explanation:
    """Per-line importance scores a prediction model assigned to a function;
    each score and their sum, which build_weighted_pdg divides by, is finite."""

    function_id: str
    confidence: float
    entries: tuple[tuple[LineId, float], ...]

    def __post_init__(self):
        seen = set()
        total = 0.0
        for line, score in self.entries:
            if not is_strict_int(line) or line < 1:
                raise MalformedExplanationError(
                    f"{self.function_id}: bad line id {line!r} in explanation"
                )
            if line in seen:
                raise MalformedExplanationError(
                    f"{self.function_id}: duplicate line {line} in explanation"
                )
            seen.add(line)
            if not math.isfinite(score) or score < 0.0:
                raise MalformedExplanationError(
                    f"{self.function_id}: score {score!r} at line {line} is not finite and non-negative"
                )
            total += score
        if not math.isfinite(total):
            raise MalformedExplanationError(f"{self.function_id}: the scores sum beyond the float range")
        if not (0.0 <= self.confidence <= 1.0):
            raise MalformedExplanationError(
                f"{self.function_id}: confidence {self.confidence!r} outside [0, 1]"
            )


@dataclass(frozen=True)
class WeightedPdg:
    """A Pdg with explanation scores attached to its resident lines."""

    pdg: Pdg
    weights: Mapping[LineId, float]
    dropped: tuple[LineId, ...]
    normalized: bool


def build_weighted_pdg(pdg: Pdg, expl: Explanation, normalize: bool = True) -> WeightedPdg:
    """Attach explanation scores to PDG nodes.

    Explanation lines absent from the graph are dropped (recorded in order).
    With normalize on, the retained weights are rescaled to sum to 1, unless
    they are all zero, in which case they stay zero.
    """
    if pdg.function_id != expl.function_id:
        raise IdentityMismatchError(
            f"graph is for {pdg.function_id!r} but explanation is for {expl.function_id!r}"
        )
    weights: dict[LineId, float] = {}
    dropped: list[LineId] = []
    for line, score in expl.entries:
        if line in pdg.nodes:
            weights[line] = score
        else:
            dropped.append(line)
    if normalize:
        total = sum(weights.values())
        if total > 0.0:
            weights = {line: score / total for line, score in weights.items()}
    return WeightedPdg(pdg=pdg, weights=weights, dropped=tuple(dropped), normalized=normalize)


# --- canonical JSON serialization -------------------------------------------
#
# A pdg document is an object with "schema_version", "function_id", "nodes"
# and "edges". A node is {"line": int, "text": str, "vars": [str, ...]}; an
# edge is {"src": int, "dst": int, "kind": "control" | "data",
# "var": str | null}. The form is written, never read back: graphs enter
# through the interchange import (trustvet.frontend.graphio).
#
# Serialization is canonical: nodes sorted by line, edges sorted by
# (src, dst, kind, variable), keys emitted in sorted order, one trailing
# newline. Identical graphs therefore serialize to identical bytes.


def dumps_canonical(document: dict) -> str:
    """Serialize any artifact document deterministically."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def decode_utf8(data: bytes, what: str) -> str:
    """The text of the input named `what`; SchemaError if it is not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{what}: not UTF-8 text ({exc})") from None


def read_json_object(data: bytes | str, what: str) -> dict:
    """Decode one JSON object from UTF-8 bytes (or text) of the artifact
    named `what`; bad UTF-8, bad JSON and any other JSON value raise
    SchemaError."""
    text = decode_utf8(data, what) if isinstance(data, bytes) else data
    try:
        document = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"{what}: not valid JSON ({exc})") from None
    if not isinstance(document, dict):
        raise SchemaError(f"{what}: not a JSON object")
    return document


def json_number(value: object, what: str) -> float:
    """A JSON number as a float; booleans, strings, null and integers beyond
    the float range raise SchemaError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{what} {value} is out of range") from None


def explanation_entries(raw: object, what: str) -> tuple[tuple[LineId, float], ...]:
    """Entries from their JSON form, [{"line", "score"}, ...]; Explanation
    checks the line ids and score values when it is built."""
    if not isinstance(raw, list):
        raise SchemaError(f"{what}: explanation entries must be an array")
    entries = []
    for entry in raw:
        if not isinstance(entry, dict) or "line" not in entry:
            raise SchemaError(f"{what}: explanation entry {entry!r} has no line")
        entries.append((entry["line"], json_number(entry.get("score"), f"{what}: score")))
    return tuple(entries)


def check_schema_version(document: dict, what: str) -> None:
    """Reject non-objects and artifacts whose major schema version is unknown."""
    if not isinstance(document, dict):
        raise SchemaError(f"{what}: not a JSON object")
    version = document.get("schema_version")
    if not isinstance(version, str) or not version:
        raise SchemaError(f"{what}: missing schema_version")
    major = version.split(".", 1)[0]
    if major != SCHEMA_VERSION.split(".", 1)[0]:
        raise SchemaError(f"{what}: unsupported schema version {version!r}")


def pdg_to_dict(pdg: Pdg) -> dict:
    nodes = [
        {
            "line": line,
            "text": pdg.line_text.get(line, ""),
            "vars": sorted(pdg.line_vars.get(line, frozenset())),
        }
        for line in sorted(pdg.nodes)
    ]
    edges = [
        {"src": e.src, "dst": e.dst, "kind": e.kind.value, "var": e.variable}
        for e in sorted(pdg.edges, key=PdgEdge.sort_key)
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "function_id": pdg.function_id,
        "nodes": nodes,
        "edges": edges,
    }


def pdg_dumps(pdg: Pdg) -> str:
    return dumps_canonical(pdg_to_dict(pdg))


def explanation_from_dict(document: dict) -> Explanation:
    what = "explanation document"
    check_schema_version(document, what)
    function_id = document.get("function_id")
    if not isinstance(function_id, str):
        raise SchemaError(f"{what}: 'function_id' must be a string")
    return Explanation(
        function_id=function_id,
        confidence=json_number(document.get("confidence"), f"{what}: confidence"),
        entries=explanation_entries(document.get("entries"), what),
    )
