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

The relation is built once per assessment in O(lines + edges), whatever the
number of candidates, targets or variables. One breadth-first search runs
backwards from all targets at once and labels each line it meets with its
nearest target; it stops at the end of the layer on which the last benign
candidate is met. It tests only the edges it crosses, and most of those
lead into a suspect that settles the edge by itself. The others read a
bitset of what each line can reach: a suspect bit and one bit per Data-edge
variable held at a reachable suspect, from one strongly-connected-component
pass (transitive_flow mode adds one search over Data edges). That pass runs
only when such an edge is crossed, and at most once.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import ContractError, PipelineError, TrustvetError, UnknownEdgeError
from .lineassess.ensemble import BenignVerdict, benign_candidates
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
DATA_RULE_MODES = (DIRECT, TRANSITIVE_FLOW)

UNTRUSTWORTHY = "untrustworthy"
TRUSTWORTHY = "trustworthy"


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

# bit 0 of a reach label: some line reached is a suspect; each data-edge
# variable owns one higher bit
_SUSPECT = 1


def _check_mode(mode: str) -> None:
    if mode not in DATA_RULE_MODES:
        raise ContractError(f"unknown data-rule mode {mode!r}; use one of {DATA_RULE_MODES}")


class _Relation:
    """The vulnerable-dependency relation of one (graph, benign set, mode).

    Suspects are the non-benign lines, nodes and edge endpoints alike. A
    suspect's label is the suspect bit plus one bit per Data-edge variable
    it holds; reach[y] is the OR of the labels of every line reachable from
    y, y included, so an edge x->y is tested with a mask of reach[y]. One
    iterative Tarjan pass over the strongly connected components computes
    reach, at most once per relation and only when an edge needs it.

    One _counts decides every edge, for nearest() and for the module's
    table-style functions alike. nearest() tests only the edges its search
    crosses, in O(lines + edges).
    """

    def __init__(self, g: WeightedPdg, benign: frozenset[LineId], mode: str):
        self.g = g
        self.benign = benign
        self.mode = mode

    @cached_property
    def _labels(self) -> tuple[dict[LineId, int], dict[str | None, int]]:
        """reach of every edge endpoint, and the bit of each Data-edge variable."""
        succ: defaultdict[LineId, list[LineId]] = defaultdict(list)
        bit: dict[str | None, int] = {}
        for src, dst, kind, variable in self.g.pdg.edges:
            succ[src].append(dst)
            if kind is not DepKind.CONTROL and variable not in bit:
                bit[variable] = 2 << len(bit)  # bit 0 is _SUSPECT
        return self._reach_labels(succ, bit), bit

    def _reach_labels(
        self, succ: Mapping[LineId, list[LineId]], bit: Mapping[str | None, int]
    ) -> dict[LineId, int]:
        """reach of every edge endpoint, from an iterative Tarjan pass.

        A line is on Tarjan's stack exactly while it is numbered and has no
        reach yet. Components come out sinks first, so each successor outside
        a component has its reach by the time the component is emitted.
        """
        benign, line_vars = self.benign, self.g.pdg.line_vars
        number: dict[LineId, int] = {}
        low: dict[LineId, int] = {}
        reach: dict[LineId, int] = {}
        stack: list[LineId] = []
        for root in succ:
            if root in number:
                continue
            number[root] = low[root] = len(number)
            stack.append(root)
            work = [(root, iter(succ[root]))]
            while work:
                line, children = work[-1]
                for child in children:
                    if child not in number:
                        number[child] = low[child] = len(number)
                        stack.append(child)
                        work.append((child, iter(succ.get(child, ()))))
                        break
                    if child not in reach and number[child] < low[line]:
                        low[line] = number[child]
                else:
                    work.pop()
                    if work and low[line] < low[work[-1][0]]:
                        low[work[-1][0]] = low[line]
                    if low[line] != number[line]:
                        continue
                    members = [stack.pop()]
                    while members[-1] != line:
                        members.append(stack.pop())
                    bits = 0
                    for member in members:
                        if member not in benign:
                            bits |= _SUSPECT
                            for variable in line_vars.get(member, ()):
                                bits |= bit.get(variable, 0)
                        for child in succ.get(member, ()):
                            bits |= reach.get(child, 0)
                    for member in members:
                        reach[member] = bits
        return reach

    @cached_property
    def _flow_to_suspect(self) -> set[LineId]:
        """Lines that reach a suspect through zero or more Data edges."""
        into: defaultdict[LineId, list[LineId]] = defaultdict(list)
        for src, dst, kind, _variable in self.g.pdg.edges:
            if kind is DepKind.DATA:
                into[dst].append(src)
        marked = {line for line in self._labels[0] if line not in self.benign}
        stack = list(marked)
        while stack:
            for src in into.get(stack.pop(), ()):
                if src not in marked:
                    marked.add(src)
                    stack.append(src)
        return marked

    def _counts(self, edge: PdgEdge) -> bool:
        """Whether edge is a vulnerable dependency. An edge into a suspect y
        is settled by y alone (reach[y] would agree: it has the suspect bit
        and the bit of each variable y holds, and y flows to itself); any
        other edge reads reach."""
        _src, dst, kind, variable = edge
        if dst not in self.benign and (
            kind is DepKind.CONTROL or self.mode == TRANSITIVE_FLOW or variable in self.g.pdg.line_vars.get(dst, ())
        ):
            return True
        reach, bit = self._labels
        mask = reach[dst]
        return bool(mask & _SUSPECT) and (
            kind is DepKind.CONTROL
            or bool(mask & bit[variable])
            or (self.mode == TRANSITIVE_FLOW and dst in self._flow_to_suspect)
        )

    def nearest(self, lines: Iterable[LineId], targets: Iterable[LineId]) -> tuple[ReachRecord, ...]:
        """Closest target of each line: fewest hops, then heavier weight,
        then smaller line. Every vulnerable-path distance comes from here.

        One BFS runs backwards from all targets over the vulnerable edges. A
        line first met on layer d takes the least (-weight, target) label of
        its successors on layer d - 1, because every target at its nearest
        distance is reached through one of them. The search stops at the end
        of the layer on which the last of lines is met: a later label of that
        layer can still win a tie. _counts tests an edge only when the
        search crosses it.
        """
        lines = tuple(lines)
        weights = self.g.weights
        label = {target: (-weights.get(target, 0.0), target) for target in targets}
        hops = dict.fromkeys(label, 0)
        missing = set(lines).difference(hops)
        into: defaultdict[LineId, list[PdgEdge]] = defaultdict(list)
        for edge in self.g.pdg.edges:
            into[edge[1]].append(edge)
        counts = self._counts
        frontier = list(label)
        depth = 0
        while missing and frontier:
            depth += 1
            layer = []
            for line in frontier:
                key = label[line]
                for edge in into.get(line, ()):
                    prev = edge[0]
                    seen = hops.get(prev)
                    # a self-loop leads back to its line, on an earlier
                    # layer: it never shortens a path or counts toward one
                    if seen is not None and (seen < depth or label[prev] <= key):
                        continue
                    if not counts(edge):
                        continue
                    if seen is None:
                        hops[prev] = depth
                        layer.append(prev)
                    label[prev] = key
            missing.difference_update(layer)
            frontier = layer
        records = []
        for line in lines:
            if line in hops:
                neg_weight, target = label[line]
                records.append(ReachRecord(line, hops[line], target, -neg_weight))
            else:
                records.append(ReachRecord(line, math.inf, None, None))
        return tuple(records)


def is_vulnerable_dependency(
    edge: PdgEdge, g: WeightedPdg, benign: frozenset[LineId], mode: str = DIRECT
) -> bool:
    """Table-style predicate for one edge of the graph."""
    _check_mode(mode)
    if edge not in g.pdg.edges:
        raise UnknownEdgeError(f"edge {edge.src}->{edge.dst} ({edge.kind.value}) is not in the graph")
    return _Relation(g, benign, mode)._counts(edge)


def vulnerable_edges(
    g: WeightedPdg, benign: frozenset[LineId], mode: str = DIRECT
) -> tuple[PdgEdge, ...]:
    """All edges that pass the vulnerable-dependency predicate."""
    _check_mode(mode)
    counts = _Relation(g, benign, mode)._counts
    return tuple(edge for edge in g.pdg.edges if counts(edge))


def reachability_distance(
    start: LineId, target: LineId, g: WeightedPdg, benign: frozenset[LineId], mode: str = DIRECT
) -> float:
    """Edge count of the shortest all-vulnerable-dependency path, or inf."""
    _check_mode(mode)
    if start not in benign:
        raise ContractError(f"start line {start} is not a benign candidate")
    if target not in g.pdg.nodes:
        raise ContractError(f"target line {target} is not a graph node")
    return _Relation(g, benign, mode).nearest((start,), (target,))[0].distance


# --- nearest non-benign mapping and the trust score ------------------------------


def nearest_non_benign(
    line: LineId, expl: Explanation, g: WeightedPdg, benign: frozenset[LineId], mode: str = DIRECT
) -> ReachRecord:
    """Closest resident explanation line that is not a benign candidate.

    Ties on distance prefer the larger target weight, then the smaller
    LineId. Weights (and target scores) come from the graph's weight map, so
    they are normalized exactly when the graph was built that way.
    """
    _check_mode(mode)
    if line not in benign:
        raise ContractError(f"line {line} is not a benign candidate")
    return _Relation(g, benign, mode).nearest((line,), _targets(expl, g, benign))[0]


def _targets(expl: Explanation, g: WeightedPdg, benign: frozenset[LineId]) -> list[LineId]:
    """The resident non-benign explanation lines: every candidate's targets."""
    return [line for line, _ in expl.entries if line in g.pdg.nodes and line not in benign]


def trust_score(
    expl: Explanation, g: WeightedPdg, benign: frozenset[LineId], mode: str = DIRECT
) -> float:
    return _score_with_records(expl, g, benign, mode)[0]


def _score_with_records(
    expl: Explanation, g: WeightedPdg, benign: frozenset[LineId], mode: str
) -> tuple[float, tuple[ReachRecord, ...], bool]:
    _check_mode(mode)
    resident = [line for line, _ in expl.entries if line in g.pdg.nodes]
    benign_resident = [line for line in resident if line in benign]
    if resident and not benign_resident:
        # every scored line looks vulnerable: maximal agreement with the
        # prediction, so the score is the total retained weight
        total = sum(g.weights.get(line, 0.0) for line in resident)
        return total, (), True
    records = _Relation(g, benign, mode).nearest(benign_resident, _targets(expl, g, benign))
    total = 0.0
    for record in records:
        total += _contribution(g.weights.get(record.line, 0.0), record)
    return total, records, False


def _contribution(weight: float, record: ReachRecord) -> float:
    """A benign line's term of the trust score: its weight plus its nearest
    target's score, over their distance; 0 when no target is reachable."""
    if math.isinf(record.distance) or record.distance <= 0:
        return 0.0
    return (weight + (record.target_score or 0.0)) / record.distance


def assess_prediction(
    expl: Explanation,
    pdg: Pdg,
    ensemble: Sequence,
    threshold: float,
    normalize_weights: bool = True,
    mode: str = DIRECT,
    memo: dict[str, BenignVerdict] | None = None,
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
    benign = frozenset(line for line, v in verdicts.items() if v.is_benign_candidate)
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
        distance = target = target_score = None
        contribution = 0.0
        if record is not None and not math.isinf(record.distance):
            distance, target, target_score = int(record.distance), record.target, record.target_score
            contribution = _contribution(weight, record)
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
