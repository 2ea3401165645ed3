"""Interchange with external graph exporters and line merging."""

from __future__ import annotations

import random
from collections import Counter
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trustvet.frontend
from oracles import oracle_import_raw_graph, oracle_line_edges, oracle_line_surface, oracle_merged_lines
from synth import c_subset_function
from test_frontend_oracles import C_CHARACTERS, graph_docs, json_values
from trustvet.errors import ImportSchemaError, UnsupportedConstructError
from trustvet.frontend import (
    export_raw_graph,
    graphio,
    import_raw_graph,
    lexer,
    parse_function,
    parser,
    pdg_from_source,
)
from trustvet.frontend.graphio import _line_edges, merge_line_nodes
from trustvet.frontend.lexer import scan_line
from trustvet.frontend.parser import RawDepGraph, RawNode, _clean_source
from trustvet.pdg import DepKind, PdgEdge


def sample_doc():
    return {
        "function": "f",
        "nodes": [
            {"id": 10, "line": 2, "code": "x = read(src);"},
            {"id": 11, "line": 3, "code": "if (x) {"},
            {"id": 12, "line": 4, "code": "sink(x);"},
        ],
        "edges": [
            {"src": 10, "dst": 12, "kind": "DDG", "variable": "x"},
            {"src": 11, "dst": 12, "kind": "CDG"},
        ],
    }


class TestImport:
    def test_happy_path(self):
        imported = import_raw_graph(sample_doc())
        assert imported.messages == ()
        pdg = imported.to_pdg()
        assert pdg.nodes == frozenset({2, 3, 4})
        assert {(e.src, e.dst, e.kind, e.variable) for e in pdg.edges} == {
            (2, 4, DepKind.DATA, "x"),
            (3, 4, DepKind.CONTROL, None),
        }
        assert pdg.line_text[2] == "x = read ( src ) ;"
        assert pdg.line_vars[2] == frozenset({"x", "src"})

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"nodes": {}}, "graph export: 'nodes' and 'edges' must be arrays"),
            ({"edges": [3]}, "graph export: edge is not an object: 3"),
            ({"nodes": [3]}, "graph export: node without integer 'id': 3"),
        ],
        ids=["nodes-not-an-array", "edge-not-an-object", "node-not-an-object"],
    )
    def test_malformed_arrays_rejected(self, change, message):
        with pytest.raises(ImportSchemaError) as err:
            import_raw_graph({**sample_doc(), **change})
        assert str(err.value) == message

    def test_unknown_edge_kinds_dropped_and_counted(self):
        doc = sample_doc()
        doc["edges"].append({"src": 10, "dst": 11, "kind": "AST"})
        doc["edges"].append({"src": 10, "dst": 11, "kind": "CFG"})
        imported = import_raw_graph(doc)
        assert len(imported.messages) == 2
        assert any("AST" in m for m in imported.messages)

    def test_ddg_without_variable_dropped_and_counted(self):
        doc = sample_doc()
        doc["edges"].append({"src": 11, "dst": 12, "kind": "DDG"})
        imported = import_raw_graph(doc)
        assert len(imported.messages) == 1
        assert any("no variable" in m for m in imported.messages)

    def test_duplicate_node_id_rejected(self):
        doc = sample_doc()
        doc["nodes"].append({"id": 10, "line": 9, "code": ";"})
        with pytest.raises(ImportSchemaError):
            import_raw_graph(doc)

    def test_missing_line_names_the_node(self):
        doc = sample_doc()
        del doc["nodes"][1]["line"]
        with pytest.raises(ImportSchemaError) as err:
            import_raw_graph(doc)
        assert "11" in str(err.value)

    def test_white_space_other_than_c_names_the_node(self):
        """The parser's rule: read as a token, U+00A0 would give the line
        text '\xa0 x = 1 ;', not the 'x = 1 ;' of the same code parsed."""
        doc = sample_doc()
        doc["nodes"][1]["code"] = "\u00a0x = 1;"
        with pytest.raises(ImportSchemaError, match=r"node 11: white space U\+00A0 outside"):
            import_raw_graph(doc)

    def test_white_space_other_than_c_in_comments_and_literals_accepted(self):
        doc = sample_doc()
        doc["nodes"][1]["code"] = "s = \"a\u00a0b\"; /* \u00a0 */ c = '\u3000'; // \u2028"
        assert import_raw_graph(doc).to_pdg().line_text[3] == "s = STR ; c = CHR ;"

    def test_edge_to_unknown_node_rejected(self):
        doc = sample_doc()
        doc["edges"].append({"src": 10, "dst": 99, "kind": "CDG"})
        with pytest.raises(ImportSchemaError):
            import_raw_graph(doc)

    @pytest.mark.parametrize(
        "where", ["node id", "node line", "edge src", "edge dst"]
    )
    def test_booleans_are_not_ids(self, where):
        doc = sample_doc()
        if where == "node id":
            doc["nodes"][0]["id"] = doc["edges"][0]["src"] = True
        elif where == "node line":
            doc["nodes"][0]["line"] = True
        else:
            doc["nodes"].append({"id": 1, "line": 9, "code": ";"})
            doc["edges"].append({"src": 10, "dst": 1, "kind": "CDG"})
            doc["edges"][-1]["src" if where == "edge src" else "dst"] = True
        with pytest.raises(ImportSchemaError):
            import_raw_graph(doc)

    @pytest.mark.parametrize("code", [[1], 7, None], ids=["list", "int", "null"])
    def test_a_code_that_is_no_string_is_refused(self, code):
        """Checked on a line-table miss; a list cannot even be looked up."""
        doc = sample_doc()
        doc["nodes"][1]["code"] = code
        with pytest.raises(ImportSchemaError) as err:
            import_raw_graph(doc)
        assert str(err.value) == "graph export: node 11: 'code' must be a string"

    def test_a_str_subclass_code_is_a_code(self):
        doc = sample_doc()
        doc["nodes"][1]["code"] = Code("if (x) {")
        assert import_raw_graph(doc).to_pdg() == import_raw_graph(sample_doc()).to_pdg()

    def test_int_subclass_ids_and_lines_are_accepted(self):
        """An IntEnum member is an int: it fails the exact-int test and is
        accepted by is_strict_int, as an id, a line and an edge end."""
        doc = sample_doc()
        doc["nodes"][0]["id"] = Small.TEN
        doc["nodes"][0]["line"] = Small.TWO
        doc["edges"][1]["dst"] = Small.TWELVE
        imported = import_raw_graph(doc)
        assert imported.graph == oracle_import_raw_graph(sample_doc()).graph
        assert imported.graph.nodes[0].node_id is Small.TEN
        assert imported.graph.edges[1][1] is Small.TWELVE

    def test_statements_merging_onto_one_line(self):
        doc = {
            "function": "f",
            "nodes": [
                {"id": 1, "line": 2, "code": "a = 1;"},
                {"id": 2, "line": 2, "code": "b = a + 2;"},
                {"id": 3, "line": 3, "code": "use(b);"},
            ],
            "edges": [
                {"src": 1, "dst": 2, "kind": "DDG", "variable": "a"},
                {"src": 2, "dst": 3, "kind": "DDG", "variable": "b"},
            ],
        }
        pdg = import_raw_graph(doc).to_pdg()
        assert pdg.nodes == frozenset({2, 3})
        # the intra-line edge becomes a self-loop and is retained
        assert {(e.src, e.dst) for e in pdg.edges if e.src == e.dst} == {(2, 2)}
        # longest fragment names the line; variables are the union
        assert pdg.line_vars[2] == frozenset({"a", "b"})


class Small(IntEnum):
    ONE = 1
    TWO = 2
    TEN = 10
    TWELVE = 12


class Code(str):
    """A str subclass: the import accepts it as a code."""


# values an exporter might put where an int belongs; 0, 2**70 and
# Small.ONE are ints to the import, and 0 is no line
ODD_NUMBERS = (True, 1.0, "1", None, [1], 2**70, Small.ONE, 0)
codes = st.text(alphabet=C_CHARACTERS, max_size=12)


@st.composite
def mutated_graph_docs(draw):
    """A well-formed graph document with one fault or oddity: an odd number
    in one id, line, src or dst; a node's code of another type, or of a str
    subclass; one key dropped from the document, a node or an edge; or a
    node id repeated."""
    ids = draw(st.lists(st.integers(0, 6), min_size=1, max_size=5, unique=True))
    nodes = [{"id": i, "line": draw(st.integers(1, 4)), "code": draw(codes)} for i in ids]
    edges = [
        {"src": draw(st.sampled_from(ids)), "dst": draw(st.sampled_from(ids)),
         "kind": draw(st.sampled_from(["CDG", "DDG", "AST"])), "variable": draw(st.sampled_from(["a", "", 1]))}
        for _ in range(draw(st.integers(0, 6)))
    ]
    doc = {"function": "f", "nodes": nodes, "edges": edges}
    entries = [("nodes", key) for key in ("id", "line")] + [("edges", key) for key in ("src", "dst")]
    mutation = draw(st.sampled_from(["number", "code", "drop", "repeat"]))
    if mutation == "number":
        array, key = draw(st.sampled_from([e for e in entries if doc[e[0]]]))
        draw(st.sampled_from(doc[array]))[key] = draw(st.sampled_from(ODD_NUMBERS))
    elif mutation == "code":
        draw(st.sampled_from(nodes))["code"] = draw(st.one_of(st.sampled_from(ODD_NUMBERS), codes.map(Code)))
    elif mutation == "drop":
        entry = draw(st.sampled_from([doc, *nodes, *edges]))
        del entry[draw(st.sampled_from(sorted(entry)))]
    else:
        draw(st.sampled_from(nodes))["id"] = draw(st.sampled_from(ids))
    return doc


def import_outcome(importer, document):
    """The graph (its repr too, which tells an IntEnum from an int), the
    messages and the line table an import leaves, or the type and text of
    what it raised."""
    table = {}
    try:
        imported = importer(document, table)
    except Exception as error:
        return type(error), str(error)
    return repr(imported.graph), imported.graph, imported.messages, table


class TestImportOracle:
    """The import checks each element once, with an exact-int test ahead of
    is_strict_int and the code type checked on a line-table miss only; its
    earlier form, which checked everything in full, is the judge."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(graph_docs, json_values, mutated_graph_docs()))
    @example({"function": "f", "nodes": [{"id": True, "line": 1, "code": "a;"}], "edges": []})
    @example(
        {"function": "f", "nodes": [{"id": 1, "line": 1, "code": "a;"}], "edges": [{"src": 1.0, "dst": 1, "kind": "CDG"}]}
    )
    @example(
        {
            "function": "f",
            "nodes": [{"id": Small.TWO, "line": Small.ONE, "code": "a = 1;"}],
            "edges": [{"src": 2, "dst": Small.TWO, "kind": "DDG", "variable": "a"}],
        }
    )
    def test_matches_the_full_checks(self, document):
        assert import_outcome(import_raw_graph, document) == import_outcome(oracle_import_raw_graph, document)


class TestRoundTrip:
    def test_native_graph_survives_export_import(self, vrrp_source):
        raw = parse_function(vrrp_source)
        again = import_raw_graph(export_raw_graph(raw)).to_pdg()
        native = pdg_from_source(vrrp_source)
        assert again == native

    def test_line_edges_are_pdg_edges(self, vrrp_source):
        """The raw graph holds each edge as a plain tuple, which compares
        equal to a PdgEdge; a Pdg must still hold PdgEdges, which pdg_to_dict
        sorts by PdgEdge.sort_key and callers read by field."""
        for source in (vrrp_source, c_subset_function(random.Random(5), 40)):
            parsed = pdg_from_source(source)
            imported = import_raw_graph(export_raw_graph(parse_function(source))).to_pdg()
            for pdg in (parsed, imported):
                assert pdg.edges
                assert {type(edge) for edge in pdg.edges} == {PdgEdge}

    def test_merge_deduplicates_repointed_edges(self):
        raw = RawDepGraph(
            function_id="f",
            nodes=[raw_node(1, 2, "a = 1; b = 2;"), raw_node(2, 2, "a = 1; b = 2;"), raw_node(3, 3, "c;")],
            edges=[
                PdgEdge(1, 3, DepKind.CONTROL),
                PdgEdge(2, 3, DepKind.CONTROL),
            ],
        )
        pdg = merge_line_nodes(raw)
        assert len(pdg.edges) == 1


def raw_node(node_id: int, line: int, code: str) -> RawNode:
    return RawNode(node_id, line, code, oracle_line_surface(code))


def random_raw_graph(rng: random.Random) -> tuple[RawDepGraph, dict[int, int]]:
    """Statements spread over a few lines, several to a line, with repeated
    edges and, between one pair of lines, a control edge and data edges on
    two variables."""
    lines = rng.randint(1, 6)
    line_of = {sid: rng.randint(1, lines) for sid in range(rng.randint(1, 14))}
    nodes = [raw_node(sid, line, f"s{sid} ;") for sid, line in line_of.items()]
    sids = list(line_of)
    edges = []
    for _ in range(rng.randint(0, 40)):
        src, dst = rng.choice(sids), rng.choice(sids)
        if rng.random() < 0.4:
            edges.append(PdgEdge(src, dst, DepKind.CONTROL))
        else:
            edges.append(PdgEdge(src, dst, DepKind.DATA, rng.choice("ab")))
    src, dst = rng.choice(sids), rng.choice(sids)
    edges += [PdgEdge(src, dst, DepKind.DATA, "b"), PdgEdge(src, dst, DepKind.CONTROL),
              PdgEdge(src, dst, DepKind.DATA, "a")]
    edges += rng.sample(edges, len(edges) // 3)  # exact repeats
    rng.shuffle(edges)
    return RawDepGraph("f", nodes, edges), line_of


class TestLineEdgesOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_the_keyed_dedup(self, seed):
        raw, line_of = random_raw_graph(random.Random(seed))
        assert _line_edges(raw, line_of) == oracle_line_edges(raw, line_of)


class TestMergedLinesOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_a_line_takes_its_first_longest_code(self, seed):
        """Codes repeat on a line and tie in length ("c ;" and "d ;")."""
        rng = random.Random(seed)
        codes = ["a = 1 ;", "b = a ;", "f ( a ) ;", "c ;", "d ;", "p -> q = r ;"]
        nodes = [raw_node(sid, rng.randint(1, 4), rng.choice(codes)) for sid in range(rng.randint(1, 12))]
        pdg = merge_line_nodes(RawDepGraph("f", nodes, []))
        assert pdg.nodes == frozenset(node.line for node in nodes)
        assert (pdg.line_text, pdg.line_vars) == oracle_merged_lines(nodes)


class TestEachLineOnce:
    """The parser gives each node its line surface from the entry it read
    its line's tokens from, so pdg_from_source tokenizes each distinct
    cleaned line exactly once, and an import that shares the parse's line
    table tokenizes only the codes the parse did not read."""

    @staticmethod
    def count_tokenizations(monkeypatch) -> Counter:
        calls = Counter()

        def counting(text):
            calls[text] += 1
            return scan_line(text)

        for module in (lexer, parser, graphio):
            if hasattr(module, "scan_line"):
                monkeypatch.setattr(module, "scan_line", counting)
        return calls

    def test_each_distinct_line_is_tokenized_once(self, monkeypatch, vrrp_source):
        calls = self.count_tokenizations(monkeypatch)
        repeated = "int f(int a)\n{\n    a = a + 1;\n    a = a + 1;\n    return a;\n}\n"
        assert repeated.count("    a = a + 1;\n") == 2
        for source in (vrrp_source, repeated, c_subset_function(random.Random(3), 40)):
            calls.clear()
            pdg_from_source(source)
            assert calls == Counter(set(_clean_source(source)))

    def test_parse_and_import_share_a_table(self, monkeypatch):
        """An imported node whose code is a line the parse read takes that
        line's entry's surface, and its code is not tokenized again."""
        table = {}
        parse_function("int f(int src)\n{\nx = read(src);\nreturn x;\n}\n", table)
        calls = self.count_tokenizations(monkeypatch)
        imported = import_raw_graph(sample_doc(), table).graph
        assert imported.nodes[0].surface is table["x = read(src);"][2]
        assert calls == Counter(["if (x) {", "sink(x);"])
        assert [node.surface for node in imported.nodes] == [oracle_line_surface(n.code) for n in imported.nodes]

    def test_a_no_break_space_code_is_refused_after_a_parse(self):
        """The parse stores only lines that passed the white-space rule, so
        an import through its table still checks a code it has not seen."""
        table = {}
        parse_function('int f(int a)\n{\n    s = "\u00a0";\n    a = 1;\n}\n', table)
        doc = sample_doc()
        doc["nodes"][1]["code"] = "\u00a0a = 1;"
        with pytest.raises(ImportSchemaError, match=r"node 11: white space U\+00A0"):
            import_raw_graph(doc, table)
        assert "\u00a0a = 1;" not in table

    def test_a_no_break_space_before_code_is_refused(self):
        """str.strip drops U+00A0, which the tokenizer reads as a character,
        so the parser refuses it outside a literal."""
        source = "int f(int a)\n{\n\u00a0a = a + 1;\n    return a;\n}\n"
        with pytest.raises(UnsupportedConstructError, match=r"line 3: white space U\+00A0"):
            parse_function(source)

    def test_white_space_stripped_from_a_literal_keeps_the_surface(self):
        """Inside a literal U+00A0 is accepted; stripped from the end of an
        unterminated one, it leaves the code's tokens as they were."""
        source = 'int f(int a)\n{\n    s = "\u00a0";\n    t = "open\u00a0\n    ;\n    return a;\n}\n'
        raw = parse_function(source)
        assert [node.code for node in raw.nodes[1:3]] == ['s = "\u00a0";', 't = "open']
        assert all(node.surface == oracle_line_surface(node.code) for node in raw.nodes)
        assert pdg_from_source(source) == import_raw_graph(export_raw_graph(raw)).to_pdg()


class TestTracedNames:
    """The stage tracer (bench/layers.py) wraps these module attributes, so
    each must be called exactly once per graph."""

    @staticmethod
    def count_calls(monkeypatch, module, names) -> Counter:
        calls = Counter()
        for name in names:
            inner = getattr(module, name)

            def wrapper(*args, _name=name, _inner=inner, **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_pdg_from_source(self, monkeypatch, vrrp_source):
        names = ("parse_function", "merge_line_nodes")
        calls = self.count_calls(monkeypatch, trustvet.frontend, names)
        trustvet.frontend.pdg_from_source(vrrp_source)
        assert calls == Counter(names)

    def test_imported_graph(self, monkeypatch):
        names = ("import_raw_graph", "merge_imported_nodes")
        calls = self.count_calls(monkeypatch, graphio, names)
        assert graphio.import_raw_graph(sample_doc()).to_pdg().nodes == frozenset({2, 3, 4})
        assert calls == Counter(names)
