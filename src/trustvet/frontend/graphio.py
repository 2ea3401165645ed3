"""Line merging and interchange with external graph exporters.

merge_line_nodes collapses a statement-level RawDepGraph to the line-level
Pdg the rest of the pipeline works on; it trusts the graph's producer, the
parser or import_raw_graph, for every check and each node's line surface.
import_raw_graph/export_raw_graph speak the documented interchange schema,
so graphs produced by an external C analyzer can replace the built-in parser:

    {
      "function": "<function id>",
      "nodes": [{"id": <int>, "line": <int >= 1>, "code": "<source text>"}, ...],
      "edges": [{"src": <node id>, "dst": <node id>,
                 "kind": "CDG" | "DDG" | <other>,
                 "variable": "<name>"}, ...]
    }

"CDG" maps to control dependence and "DDG" (which must carry "variable") to
data dependence. Edges of any other kind, and DDG edges without a variable
label, are dropped with one message each; a missing or non-integer "line"
on a node is an error naming the node, because line identity is what
everything downstream keys on. So is a node whose code has white space that
C does not (U+00A0, say) outside a comment or literal, which the parser
refuses too. import_raw_graph is the one check of such a document.

import_raw_graph reads each distinct code once, through a lexer.LineTable
that it may share with the parses and imports of one run: a code the table
holds has passed that check, so only a new code is checked and tokenized.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ImportSchemaError
from ..pdg import DepKind, Pdg, PdgEdge, is_strict_int
from .lexer import LineTable, _foreign_space, line_entry
from .parser import RawDepGraph, RawEdge, RawNode


def merge_line_nodes(raw: RawDepGraph) -> Pdg:
    """Collapse statement nodes that share a source line into one node.

    Edges are re-pointed at lines and deduplicated; an edge between two
    statements on the same line becomes a self-loop, which is retained (loop
    headers produce them legitimately). From the node surfaces, a line takes
    the text of its longest code fragment (a parsed node carries its whole
    comment-free line, an imported one a substring of it at worst) and the
    variables of all of them. A line takes its first node's surface, and
    only a line with two or more distinct codes gets a {code: surface} dict.
    """
    line_of: dict[int, int] = {}
    first: dict[int, RawNode] = {}  # of each line
    fragments: dict[int, dict[str, tuple[str, frozenset[str]]]] = {}  # code -> surface
    for node in raw.nodes:
        line = node.line
        line_of[node.node_id] = line
        seen = first.setdefault(line, node)
        if seen.code != node.code:
            fragments.setdefault(line, {seen.code: seen.surface})[node.code] = node.surface

    line_text: dict[int, str] = {}
    line_vars: dict[int, frozenset[str]] = {}
    for line, node in first.items():
        line_text[line], line_vars[line] = node.surface
    for line, surfaces in fragments.items():
        line_text[line] = surfaces[max(surfaces, key=len)][0]
        line_vars[line] = frozenset().union(*(names for _, names in surfaces.values()))
    return Pdg(
        function_id=raw.function_id,
        nodes=frozenset(first),
        edges=_line_edges(raw, line_of),
        line_text=line_text,
        line_vars=line_vars,
    )


# the name ImportedGraph.to_pdg calls, so imports can be timed apart
merge_imported_nodes = merge_line_nodes


def _line_edges(raw: RawDepGraph, line_of: dict[int, int]) -> tuple[PdgEdge, ...]:
    """Re-point statement edges at lines, deduplicated, in canonical order.

    Each raw edge, a plain tuple, is re-pointed straight into a PdgEdge;
    equal PdgEdges hash and compare as equal tuples, so dict.fromkeys keeps
    the first of each, and the kept ones sort as tuples. The parser's come
    nearly sorted, which the sort runs through fast.
    """
    new = tuple.__new__  # PdgEdge._make would add a Python frame for each edge
    edges = dict.fromkeys(
        [new(PdgEdge, (line_of[src], line_of[dst], kind, variable)) for src, dst, kind, variable in raw.edges]
    )
    return tuple(sorted(edges))


@dataclass
class ImportedGraph:
    graph: RawDepGraph
    messages: tuple[str, ...]  # one per dropped edge

    def to_pdg(self) -> Pdg:
        return merge_imported_nodes(self.graph)


def import_raw_graph(document: dict, table: LineTable | None = None) -> ImportedGraph:
    """Read an external graph export (schema above) into a RawDepGraph.

    table, when given, is a lexer.LineTable shared with other parses and
    imports; the graph is the same with or without it."""
    if table is None:
        table = {}
    if not isinstance(document, dict):
        raise ImportSchemaError("graph export must be a JSON object")
    function_id = document.get("function")
    if not isinstance(function_id, str) or not function_id:
        raise ImportSchemaError("graph export: missing or empty 'function'")
    raw_nodes = document.get("nodes")
    raw_edges = document.get("edges")
    if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
        raise ImportSchemaError("graph export: 'nodes' and 'edges' must be arrays")

    nodes: list[RawNode] = []
    known: set[int] = set()
    for entry in raw_nodes:
        if not isinstance(entry, dict) or not is_strict_int(entry.get("id")):
            raise ImportSchemaError(f"graph export: node without integer 'id': {entry!r}")
        node_id = entry["id"]
        if node_id in known:
            raise ImportSchemaError(f"graph export: duplicate node id {node_id}")
        known.add(node_id)
        line = entry.get("line")
        if not is_strict_int(line) or line < 1:
            raise ImportSchemaError(f"graph export: node {node_id}: missing or bad 'line'")
        code = entry.get("code", "")
        if not isinstance(code, str):
            raise ImportSchemaError(f"graph export: node {node_id}: 'code' must be a string")
        found = table.get(code)
        if found is None:
            refused = _foreign_space(code)
            if refused:
                raise ImportSchemaError(f"graph export: node {node_id}: {refused}")
            found = line_entry(code, table)
        nodes.append(RawNode(node_id, line, code, found[2]))

    edges: list[RawEdge] = []
    messages: list[str] = []
    for entry in raw_edges:
        if not isinstance(entry, dict):
            raise ImportSchemaError(f"graph export: edge is not an object: {entry!r}")
        src, dst = entry.get("src"), entry.get("dst")
        if not (is_strict_int(src) and is_strict_int(dst) and src in known and dst in known):
            raise ImportSchemaError(
                f"graph export: edge {src!r}->{dst!r} references an unknown node id"
            )
        kind = entry.get("kind")
        if kind == "CDG":
            edges.append((src, dst, DepKind.CONTROL, None))
        elif kind == "DDG":
            variable = entry.get("variable")
            if not isinstance(variable, str) or not variable:
                messages.append(f"dropped DDG edge {src}->{dst}: no variable label")
                continue
            edges.append((src, dst, DepKind.DATA, variable))
        else:
            messages.append(f"dropped edge {src}->{dst} of unhandled kind {kind!r}")
    return ImportedGraph(
        graph=RawDepGraph(function_id=function_id, nodes=nodes, edges=edges),
        messages=tuple(messages),
    )


def export_raw_graph(raw: RawDepGraph) -> dict:
    """Write a RawDepGraph in the interchange schema (round-trip partner of
    import_raw_graph)."""
    return {
        "function": raw.function_id,
        "nodes": [{"id": n.node_id, "line": n.line, "code": n.code} for n in raw.nodes],
        "edges": [
            {
                "src": src,
                "dst": dst,
                "kind": "CDG" if kind is DepKind.CONTROL else "DDG",
                **({"variable": variable} if kind is DepKind.DATA else {}),
            }
            for src, dst, kind, variable in raw.edges
        ],
    }
