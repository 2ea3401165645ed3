"""Dependency assessment: is a prediction's evidence actually connected to
anything suspicious?

Given a weighted graph and the ensemble's benign verdicts, an edge x->y is a
vulnerable dependency when some line z, reachable from y through zero or
more graph edges (z = y counts), is not a benign candidate; Data edges must
additionally have their tracked variable involved at z. The
vulnerability-reachability distance between two lines is the length of the
shortest path that uses vulnerable dependencies only. Each benign candidate
is mapped to its nearest non-benign explanation line, and the trust score
accumulates (weight + target weight) / distance over the candidates that
reach one. A prediction is untrustworthy when the score falls below the
threshold.

Two readings of the Data-edge rule are supported: the default "direct" mode
asks whether the edge's variable appears at z; "transitive_flow" also
accepts z when the variable's value can flow from y into z along Data
edges. The connecting sequence itself may traverse edges of either kind.

The relation is built once per assessment: O(V + E) backward searches from
the non-benign lines (over all edges, per Data-edge variable, and over Data
edges in transitive_flow mode) mark the lines an edge may lead to, then one
BFS per benign candidate over the vulnerable edges gives its distances.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import ContractError, PipelineError, TrustvetError, UnknownEdgeError
from .lineassess.ensemble import BenignVerdict, Screen, benign_candidates
from .pdg import (
    DepKind,
    Explanation,
    LineId,
    Pdg,
    PdgEdge,
    WeightedPdg,
    build_weighted_pdg,
)

DIRECT = "direct"
TRANSITIVE_FLOW = "transitive_flow"
_MODES = (DIRECT, TRANSITIVE_FLOW)

UNTRUSTWORTHY = "untrustworthy"
TRUSTWORTHY = "trustworthy"


@dataclass(frozen=True)
class BenignSet:
    """Explanation lines the ensemble voted benign for one function."""

    function_id: str
    members: frozenset[LineId]

    @staticmethod
    def from_verdicts(function_id: str, verdicts: Mapping[LineId, BenignVerdict]) -> "BenignSet":
        return BenignSet(
            function_id=function_id,
            members=frozenset(l for l, v in verdicts.items() if v.is_benign_candidate),
        )


@dataclass(frozen=True)
class ReachRecord:
    """Nearest non-benign explanation line for one benign candidate.

    distance is a positive edge count, or math.inf when no non-benign line
    is reachable (then target and target_score are absent).
    """

    line: LineId
    distance: float
    target: LineId | None
    target_score: float | None


@dataclass(frozen=True)
class Assessment:
    function_id: str
    graph: WeightedPdg
    trust_score: float
    threshold_used: float
    verdict: str
    records: tuple[ReachRecord, ...]
    benign: Mapping[LineId, BenignVerdict]
    degenerate: bool
    warnings: tuple[str, ...]


# --- the relate stage ------------------------------------------------------------


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ContractError(f"unknown data-rule mode {mode!r}; use one of {_MODES}")


class _Relation:
    """The vulnerable-dependency relation of one (graph, benign set, mode).

    Suspects are the non-benign lines, nodes and edge endpoints alike. Each
    edge condition is one backward search from the suspects it accepts; the
    per-variable searches run on first use.
    """

    def __init__(self, g: WeightedPdg, benign: BenignSet, mode: str):
        self.g = g
        self.benign = benign.members
        self.mode = mode
        self._into: dict[LineId, list[PdgEdge]] = {}
        lines = set(g.pdg.nodes)
        for e in g.pdg.edges:
            lines.update((e.src, e.dst))
            self._into.setdefault(e.dst, []).append(e)
        self._suspects = lines - self.benign
        self._reach_suspect = self._backward(self._suspects)
        self._reach_holder: dict[str | None, set[LineId]] = {}

    def _backward(self, seeds: Iterable[LineId], kind: DepKind | None = None) -> set[LineId]:
        """Lines that reach a seed through zero or more edges (of one kind)."""
        marked = set(seeds)
        stack = list(marked)
        while stack:
            for e in self._into.get(stack.pop(), ()):
                if e.src not in marked and (kind is None or e.kind is kind):
                    marked.add(e.src)
                    stack.append(e.src)
        return marked

    def vulnerable(self, edge: PdgEdge) -> bool:
        if edge.dst not in self._reach_suspect:
            return False
        if edge.kind is DepKind.CONTROL:
            return True
        variable = edge.variable
        if variable not in self._reach_holder:
            line_vars = self.g.pdg.line_vars
            self._reach_holder[variable] = self._backward(
                z for z in self._suspects if variable in line_vars.get(z, ())
            )
        return edge.dst in self._reach_holder[variable] or (
            self.mode == TRANSITIVE_FLOW and edge.dst in self._flow_to_suspect
        )

    @cached_property
    def _flow_to_suspect(self) -> set[LineId]:
        return self._backward(self._suspects, DepKind.DATA)

    @cached_property
    def _adjacency(self) -> dict[LineId, set[LineId]]:
        # self-loops never shorten a path and never count toward a distance
        adj: dict[LineId, set[LineId]] = {}
        for e in self.g.pdg.edges:
            if e.src != e.dst and self.vulnerable(e):
                adj.setdefault(e.src, set()).add(e.dst)
        return adj

    def hops(self, start: LineId) -> dict[LineId, int]:
        """Edge counts of the shortest vulnerable paths from start, by line."""
        hops = {start: 0}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for nxt in self._adjacency.get(node, ()):
                if nxt not in hops:
                    hops[nxt] = hops[node] + 1
                    frontier.append(nxt)
        return hops

    def nearest(self, line: LineId, expl: Explanation) -> ReachRecord:
        """Closest resident non-benign explanation line: fewest hops, then
        heavier weight, then smaller line."""
        hops = self.hops(line)
        weights = self.g.weights
        keys = [
            (hops[target], -weights.get(target, 0.0), target)
            for target, _score in expl.entries
            if target in hops and target not in self.benign and target in self.g.pdg.nodes
        ]
        if not keys:
            return ReachRecord(line=line, distance=math.inf, target=None, target_score=None)
        dist, neg_weight, target = min(keys)
        return ReachRecord(line=line, distance=dist, target=target, target_score=-neg_weight)


def is_vulnerable_dependency(
    edge: PdgEdge, g: WeightedPdg, benign: BenignSet, mode: str = DIRECT
) -> bool:
    """Table-style predicate for one edge of the graph."""
    _check_mode(mode)
    if edge not in g.pdg.edges:
        raise UnknownEdgeError(f"edge {edge.src}->{edge.dst} ({edge.kind.value}) is not in the graph")
    return _Relation(g, benign, mode).vulnerable(edge)


def vulnerable_edges(g: WeightedPdg, benign: BenignSet, mode: str = DIRECT) -> tuple[PdgEdge, ...]:
    """All edges that pass the vulnerable-dependency predicate."""
    _check_mode(mode)
    relation = _Relation(g, benign, mode)
    return tuple(e for e in g.pdg.edges if relation.vulnerable(e))


def reachability_distance(
    start: LineId, target: LineId, g: WeightedPdg, benign: BenignSet, mode: str = DIRECT
) -> float:
    """Edge count of the shortest all-vulnerable-dependency path, or inf."""
    _check_mode(mode)
    if start not in benign.members:
        raise ContractError(f"start line {start} is not a benign candidate")
    if target not in g.pdg.nodes:
        raise ContractError(f"target line {target} is not a graph node")
    return _Relation(g, benign, mode).hops(start).get(target, math.inf)


# --- nearest non-benign mapping and the trust score ------------------------------


def nearest_non_benign(
    line: LineId, expl: Explanation, g: WeightedPdg, benign: BenignSet, mode: str = DIRECT
) -> ReachRecord:
    """Closest resident explanation line that is not a benign candidate.

    Ties on distance prefer the larger target weight, then the smaller
    LineId. Weights (and target scores) come from the graph's weight map, so
    they are normalized exactly when the graph was built that way.
    """
    _check_mode(mode)
    if line not in benign.members:
        raise ContractError(f"line {line} is not a benign candidate")
    return _Relation(g, benign, mode).nearest(line, expl)


def trust_score(
    expl: Explanation, g: WeightedPdg, benign: BenignSet, mode: str = DIRECT
) -> float:
    return _score_with_records(expl, g, benign, mode)[0]


def _score_with_records(
    expl: Explanation, g: WeightedPdg, benign: BenignSet, mode: str
) -> tuple[float, tuple[ReachRecord, ...], bool]:
    _check_mode(mode)
    resident = [line for line, _ in expl.entries if line in g.pdg.nodes]
    benign_resident = [line for line in resident if line in benign.members]
    if resident and not benign_resident:
        # every scored line looks vulnerable: maximal agreement with the
        # prediction, so the score is the total retained weight
        total = sum(g.weights.get(line, 0.0) for line in resident)
        return total, (), True
    relation = _Relation(g, benign, mode)
    records = tuple(relation.nearest(line, expl) for line in benign_resident)
    total = 0.0
    for record in records:
        if not math.isinf(record.distance) and record.distance > 0:
            total += (g.weights.get(record.line, 0.0) + (record.target_score or 0.0)) / record.distance
    return total, records, False


def assess_prediction(
    expl: Explanation,
    pdg: Pdg,
    ensemble: Sequence,
    threshold: float,
    normalize_weights: bool = True,
    mode: str = DIRECT,
    memo: dict[str, Screen] | None = None,
) -> Assessment:
    """Full per-function pipeline: weights, votes, distances, verdict.

    memo is the ensemble's screen memo (see benign_candidates), shared by
    callers that assess many functions with one ensemble.
    """
    _check_mode(mode)
    warnings: list[str] = []
    try:
        g = build_weighted_pdg(pdg, expl, normalize=normalize_weights)
    except TrustvetError as exc:
        raise PipelineError("weighting", exc) from exc
    if g.dropped:
        warnings.append(
            "explanation lines outside the graph were dropped: "
            + ", ".join(str(line) for line in g.dropped)
        )
    if not g.weights:
        warnings.append("no explanation line is resident in the graph")
    try:
        verdicts = benign_candidates(ensemble, expl, pdg.line_text, memo)
    except TrustvetError as exc:
        raise PipelineError("line-assessment", exc) from exc
    benign = BenignSet.from_verdicts(pdg.function_id, verdicts)
    try:
        score, records, degenerate = _score_with_records(expl, g, benign, mode)
    except TrustvetError as exc:
        raise PipelineError("dependency-assessment", exc) from exc
    if degenerate:
        warnings.append("no resident explanation line is a benign candidate")
    verdict = UNTRUSTWORTHY if score < threshold else TRUSTWORTHY
    return Assessment(
        function_id=pdg.function_id,
        graph=g,
        trust_score=score,
        threshold_used=threshold,
        verdict=verdict,
        records=records,
        benign=verdicts,
        degenerate=degenerate,
        warnings=tuple(warnings),
    )


# --- serialization and rendering -------------------------------------------------


def assessment_to_dict(assessment: Assessment, g: WeightedPdg) -> dict:
    """JSON form of an Assessment, with one row per resident explanation line."""
    from .pdg import SCHEMA_VERSION

    by_line = {r.line: r for r in assessment.records}
    rows = []
    for line in sorted(assessment.benign):
        verdict = assessment.benign[line]
        record = by_line.get(line)
        weight = g.weights.get(line, 0.0)
        contribution = 0.0
        distance = None
        target = None
        target_score = None
        if record is not None and not math.isinf(record.distance):
            distance = int(record.distance)
            target = record.target
            target_score = record.target_score
            if distance > 0:
                contribution = (weight + (target_score or 0.0)) / distance
        rows.append(
            {
                "line": line,
                "text": g.pdg.line_text.get(line, ""),
                "weight": weight,
                "benign": verdict.is_benign_candidate,
                "votes": list(verdict.votes),
                "distance": distance,
                "target": target,
                "target_score": target_score,
                "contribution": contribution,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "function_id": assessment.function_id,
        "trust_score": assessment.trust_score,
        "threshold": assessment.threshold_used,
        "verdict": assessment.verdict,
        "degenerate": assessment.degenerate,
        "warnings": list(assessment.warnings),
        "dropped": list(g.dropped),
        "normalized_weights": g.normalized,
        "lines": rows,
    }


def render_assessment(doc: dict) -> str:
    """Human-readable table for one assessment document."""
    out = [
        f"function: {doc['function_id']}",
        f"trust score: {doc['trust_score']:.6f} "
        f"(threshold {doc['threshold']:.6f}) -> {doc['verdict'].upper()}",
    ]
    if doc.get("degenerate"):
        out.append("note: no benign candidate among the scored lines; score is the total weight")
    for warning in doc.get("warnings", []):
        out.append(f"warning: {warning}")
    header = f"{'line':>5}  {'weight':>8}  {'benign':>6}  {'dist':>5}  {'target':>6}  {'contrib':>9}  text"
    out.append(header)
    out.append("-" * len(header))
    for row in doc.get("lines", []):
        if row["benign"]:
            dist = "inf" if row["distance"] is None else str(row["distance"])
            target = "-" if row["target"] is None else str(row["target"])
        else:
            dist, target = "-", "-"
        out.append(
            f"{row['line']:>5}  {row['weight']:>8.4f}  {str(row['benign']).lower():>6}  "
            f"{dist:>5}  {target:>6}  {row['contribution']:>9.4f}  {row['text']}"
        )
    if doc.get("dropped"):
        out.append("dropped (not in graph): " + ", ".join(str(x) for x in doc["dropped"]))
    return "\n".join(out) + "\n"
