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

import_raw_graph checks each element once, in one loop per array. An id,
line, src or dst whose type is exactly int passes at once, and any other
value goes through pdg.is_strict_int, so a bool or a float is refused and
an int subclass accepted. One {node id: line} dict is also the set of known
ids that each edge's ends are looked up in. Each distinct code is read once,
through a lexer.LineTable that the import may share with the parses and
imports of one run: the table holds only codes that are strings and passed
the white-space rule, so a code's type and white space are checked, and the
code tokenized, only when the table does not hold it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..collector import nogc
from ..errors import ImportSchemaError
from ..pdg import DepKind, Pdg, PdgEdge, is_strict_int
from .lexer import LineTable, foreign_space, line_entry
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

    @nogc
    def to_pdg(self) -> Pdg:
        """The graph merged to lines, with the cyclic garbage collector off
        (collector.nogc)."""
        return merge_imported_nodes(self.graph)


@nogc
def import_raw_graph(document: dict, table: LineTable | None = None) -> ImportedGraph:
    """Read an external graph export (schema above) into a RawDepGraph.

    Each node and edge is checked once, in the order the errors name it:
    an id, line, src or dst of exact type int skips is_strict_int, and a
    node's code is type-checked only when the line table does not hold it
    (module docstring). table, when given, is a lexer.LineTable shared with
    other parses and imports; the graph is the same with or without it.
    Runs with the cyclic garbage collector off (collector.nogc)."""
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

    # each node's line by its id; its keys are the known ids
    line_of: dict[int, int] = {}
    nodes: list[RawNode] = []
    add_node, table_get = nodes.append, table.get
    for entry in raw_nodes:
        if not isinstance(entry, dict):
            raise ImportSchemaError(f"graph export: node without integer 'id': {entry!r}")
        node_id = entry.get("id")
        if type(node_id) is not int and not is_strict_int(node_id):
            raise ImportSchemaError(f"graph export: node without integer 'id': {entry!r}")
        if node_id in line_of:
            raise ImportSchemaError(f"graph export: duplicate node id {node_id}")
        line = entry.get("line")
        if (type(line) is not int and not is_strict_int(line)) or line < 1:
            raise ImportSchemaError(f"graph export: node {node_id}: missing or bad 'line'")
        line_of[node_id] = line
        code = entry.get("code", "")
        try:
            found = table_get(code)
        except TypeError:  # an unhashable code, which is no str either
            found = None
        if found is None:
            # the table holds only codes that passed both checks
            if not isinstance(code, str):
                raise ImportSchemaError(f"graph export: node {node_id}: 'code' must be a string")
            refused = foreign_space(code)
            if refused:
                raise ImportSchemaError(f"graph export: node {node_id}: {refused}")
            found = line_entry(code, table)
        add_node(RawNode(node_id, line, code, found[2]))

    edges: list[RawEdge] = []
    messages: list[str] = []
    add_edge, control, data = edges.append, DepKind.CONTROL, DepKind.DATA
    for entry in raw_edges:
        if not isinstance(entry, dict):
            raise ImportSchemaError(f"graph export: edge is not an object: {entry!r}")
        src, dst = entry.get("src"), entry.get("dst")
        if not (
            (type(src) is int or is_strict_int(src))
            and (type(dst) is int or is_strict_int(dst))
            and src in line_of
            and dst in line_of
        ):
            raise ImportSchemaError(
                f"graph export: edge {src!r}->{dst!r} references an unknown node id"
            )
        kind = entry.get("kind")
        if kind == "CDG":
            add_edge((src, dst, control, None))
        elif kind == "DDG":
            variable = entry.get("variable")
            if not isinstance(variable, str) or not variable:
                messages.append(f"dropped DDG edge {src}->{dst}: no variable label")
                continue
            add_edge((src, dst, data, variable))
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
