"""Source-code frontend: lexing, parsing, and graph interchange."""

from __future__ import annotations

from ..collector import nogc
from ..pdg import Pdg
from .graphio import (
    ImportedGraph,
    export_raw_graph,
    import_raw_graph,
    merge_imported_nodes,
    merge_line_nodes,
)
from .lexer import (
    LineTable,
    Token,
    TokenKind,
    extract_variables,
    is_substantive_line,
    normalize_line,
    tokenize_line,
)
from .parser import RawDepGraph, RawNode, parse_function


@nogc
def pdg_from_source(
    source: str, function_id: str | None = None, table: LineTable | None = None
) -> Pdg:
    """Parse source and merge to a line-level Pdg in one step; table, when
    given, is the lexer.LineTable parse_function reads lines through. Runs
    with the cyclic garbage collector off (collector.nogc)."""
    raw = parse_function(source, table)
    if function_id is not None:
        raw.function_id = function_id
    return merge_line_nodes(raw)


__all__ = [
    "ImportedGraph",
    "RawDepGraph",
    "RawNode",
    "Token",
    "TokenKind",
    "export_raw_graph",
    "extract_variables",
    "import_raw_graph",
    "is_substantive_line",
    "merge_imported_nodes",
    "merge_line_nodes",
    "normalize_line",
    "parse_function",
    "pdg_from_source",
    "tokenize_line",
]
