"""The frontend's fast analyses against their reference versions, and the
failure contract of the frontend and the artifact loaders on arbitrary
input."""

from __future__ import annotations

import json
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    ORACLE_C_KEYWORDS,
    oracle_clean_source,
    oracle_clean_source_literals_blanked,
    oracle_control_dependence,
    oracle_immediate_pdom,
    oracle_line_surface,
    oracle_post_dominators,
    oracle_reaching_definitions,
    oracle_tokenize_line,
)
from synth import c_subset_function
from trustvet.corpus import record_from_dict
from trustvet.errors import TrustvetError, UnsupportedConstructError
from trustvet.frontend import (
    export_raw_graph,
    import_raw_graph,
    parse_function,
    pdg_from_source,
    tokenize_line,
)
from trustvet.frontend.parser import (
    _build_cfg,
    _clean_source,
    _control_dependence,
    _immediate_post_dominators,
    _reaching_definitions,
)
from trustvet.lineassess.classifier import LinearLineClassifier, load_model
from trustvet.lineassess.dataset import load_line_dataset
from trustvet.pdg import DepKind, PdgEdge, explanation_from_dict, is_strict_int

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=1, max_value=60)


def random_cfg(seed: int, size: int):
    return _build_cfg(c_subset_function(random.Random(seed), size))


def counted_reaching_definitions(cfg):
    """_reaching_definitions of cfg, and how often it read each statement's
    predecessors: once per evaluation of that statement."""
    reads = Counter()

    class CountingPreds(dict):
        def get(self, key, default=None):
            reads[key] += 1
            return super().get(key, default)

    return _reaching_definitions(cfg.stmts, cfg.succ, CountingPreds(cfg.preds)), reads


def control_pairs(edges):
    """The (predicate, dependent) pairs of _control_dependence's edges, after
    checking that each edge is (a, w, CONTROL, None) and is made once."""
    assert all(kind is DepKind.CONTROL and variable is None for _, _, kind, variable in edges)
    pairs = {(a, w) for a, w, _, _ in edges}
    assert len(pairs) == len(edges)
    return pairs


def def_use_triples(chains):
    """The (def, use, variable) triples of _reaching_definitions' edges, after
    checking that each edge is (d, u, DATA, v) and is made once."""
    assert all(kind is DepKind.DATA and isinstance(v, str) for _, _, kind, v in chains)
    triples = {(d, u, v) for d, u, _, v in chains}
    assert len(triples) == len(chains)
    return triples


class TestDependenceAnalyses:
    @settings(max_examples=150, deadline=None)
    @given(seeds, sizes)
    def test_immediate_post_dominators(self, seed, size):
        cfg = random_cfg(seed, size)
        pdom = oracle_post_dominators([s.sid for s in cfg.stmts], cfg.succ)
        assert _immediate_post_dominators(cfg.succ, cfg.preds) == oracle_immediate_pdom(pdom)

    @settings(max_examples=150, deadline=None)
    @given(seeds, sizes)
    def test_control_pairs(self, seed, size):
        cfg = random_cfg(seed, size)
        edges = _control_dependence(cfg.stmts, cfg.succ, cfg.preds)
        assert control_pairs(edges) == oracle_control_dependence(cfg.stmts, cfg.succ)

    @settings(max_examples=150, deadline=None)
    @given(seeds, sizes)
    def test_def_use_chains(self, seed, size):
        cfg = random_cfg(seed, size)
        chains = _reaching_definitions(cfg.stmts, cfg.succ, cfg.preds)
        assert def_use_triples(chains) == oracle_reaching_definitions(cfg.stmts, cfg.succ)

    def test_loop_free_statements_are_evaluated_once(self):
        """Without a loop every CFG edge runs up the sids, so one scan in
        sid order reaches the fixed point. Each evaluation reads its
        statement's predecessors once."""
        loop_free = 0
        for seed in range(300):
            source = c_subset_function(random.Random(seed), 40)
            if "while" in source or "for" in source:
                continue
            loop_free += 1
            cfg = _build_cfg(source)
            chains, reads = counted_reaching_definitions(cfg)
            assert def_use_triples(chains) == oracle_reaching_definitions(cfg.stmts, cfg.succ)
            assert reads == Counter(s.sid for s in cfg.stmts)
        assert loop_free > 50

    def test_statements_outside_loops_are_evaluated_once(self):
        """A statement is inside a loop when its sid lies in [h, u] for a
        CFG edge u -> h with h <= u. Each loop settles before the code after
        it is evaluated, so every statement outside all loops is evaluated
        exactly once. Being on a cycle is not the test: when a loop body
        returns before its end, its back edge leaves the dead code after the
        return, so the loop's statements lie on no cycle, yet they are
        evaluated again when that dead code's OUT changes."""
        looping = 0
        for seed in range(300):
            cfg = _build_cfg(c_subset_function(random.Random(seed), 40))
            loops = [(h, u) for u, succs in cfg.succ.items() for h in succs if 0 <= h <= u]
            if not loops:
                continue
            looping += 1
            chains, reads = counted_reaching_definitions(cfg)
            assert def_use_triples(chains) == oracle_reaching_definitions(cfg.stmts, cfg.succ)
            outside = [s.sid for s in cfg.stmts if not any(h <= s.sid <= u for h, u in loops)]
            assert {sid: reads[sid] for sid in outside} == dict.fromkeys(outside, 1)
        assert looping > 100

    @settings(max_examples=100, deadline=None)
    @given(seeds, sizes)
    def test_raw_graph_edges(self, seed, size):
        source = c_subset_function(random.Random(seed), size)
        cfg = _build_cfg(source)
        control = oracle_control_dependence(cfg.stmts, cfg.succ)
        chains = oracle_reaching_definitions(cfg.stmts, cfg.succ)
        expected = [PdgEdge(a, w, DepKind.CONTROL) for a, w in sorted(control)]
        expected += [PdgEdge(d, u, DepKind.DATA, v) for d, u, v in sorted(chains)]
        assert parse_function(source).edges == expected


# operator, literal, comment and exponent characters, so that runs of them
# are common
C_CHARACTERS = "<>=!&|^~?:.+-*/%()[]{};,'\"\\#@$ \t\r\fabex_019Pp\n"


class TestTokenizer:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.text(), st.text(alphabet=C_CHARACTERS)))
    def test_matches_the_startswith_scan(self, text):
        assert tokenize_line(text) == oracle_tokenize_line(text)

    @pytest.mark.parametrize(
        "text",
        [
            "é = 1;", "x٣ = ٣;", "y = x² + _²;", "a = .5 . b;", "..5", "x._y", "'", '"',
            "' \"", "x = 1e-9;", "x = 0x1p+2;", "z = 1.e+5f - 0E-;", "$a @ `b`",
        ],
        ids=ascii,
    )
    def test_first_character_classes(self, text):
        """Texts whose kinds turn on one character, which hypothesis rarely
        draws: non-ASCII letters and digits, dots, lone quotes, exponents."""
        assert tokenize_line(text) == oracle_tokenize_line(text)

    def test_every_keyword(self):
        """Hypothesis rarely spells a keyword: each one, and an identifier
        that starts with it, against the oracle's own keyword table."""
        text = " ".join(f"{word} {word}_x" for word in sorted(ORACLE_C_KEYWORDS))
        assert tokenize_line(text) == oracle_tokenize_line(text)


C_PIECES = (
    "int", "void", "struct", "f", "x", "a", "1", "0x1e+", "(", ")", "{", "}", "[", "]",
    ";", ",", "=", "+=", "++", "->", ".", "*", "&", "?", ":", "if", "else", "while",
    "for", "return", "goto", "#", "'", '"', "\\", "/*", "*/", "//", " ", "\n",
    "\r", "\f", 'a\\"b',
)


def function_shell(body: str) -> str:
    return "int f(int a)\n{\n" + body + "\n}\n"


c_soup = st.lists(st.sampled_from(C_PIECES), max_size=60).map("".join)


def cleaned_or_error(clean, source):
    try:
        return clean(source)
    except UnsupportedConstructError as exc:
        return type(exc), str(exc), exc.line


class TestSourceCleaning:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(c_soup, c_soup.map(function_shell)))
    @example('int f(int a)\n{\n    printf("#%d", a);\n    c = \'#\';\n}\n')
    @example("int f(int a)\n{\n    a = a\x1c+ 1;\n}\n")  # foreign space, no '/' or '#'
    @example('int f(int a)\n{\n    s = "\u00a0";\n    t = \'\u3000\';\n}\n')
    @example("int f(int a)\r\n{\r\n    a = 1;\r\n}\r\n")
    @example("int f(int a)\n{\n    a = 1;\n}")  # no final newline
    @example('int f(int a)\n{\n    s = "#";\n}\n')  # '#' only inside a literal
    @example("int f(int a)\n{\n    a = a / 2;\n}\n")  # '/' only as a division
    # a '//' comment spliced on through two lines, the second with a '#'
    @example("int f(int a)\n{\n    a = 1; // one \\\n    two \\\r\n    #three\n    a = 2;\n}\n")
    def test_matches_the_character_scan(self, source):
        assert cleaned_or_error(_clean_source, source) == cleaned_or_error(
            oracle_clean_source_literals_blanked, source
        )

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(c_soup, c_soup.map(function_shell)))
    @example('int f(int a)\n{\n    printf("#%d", a);\n}\n')
    def test_former_scan_differs_only_on_hash_in_literals(self, source):
        """The former reference rejected a '#' inside a literal; that is
        the only place the corrected one may disagree with it on C_PIECES,
        which hold no white space that only the corrected one refuses."""
        former = cleaned_or_error(oracle_clean_source, source)
        corrected = cleaned_or_error(oracle_clean_source_literals_blanked, source)
        if former == corrected:
            return
        assert former[0] is UnsupportedConstructError
        assert "'#' outside a comment or literal" in former[1]
        if isinstance(corrected, list):  # "$" is not in C_PIECES
            unhashed = oracle_clean_source(source.replace("#", "$"))
            assert corrected == [line.replace("$", "#") for line in unhashed]
        else:  # a later line has a '#' outside any literal
            assert corrected[2] > former[2]


def pdg_or_error(build, table):
    """build(table)'s Pdg, or the type and message of its TrustvetError."""
    try:
        return build(table)
    except TrustvetError as exc:
        return type(exc), str(exc)


synth_sources = seeds.map(lambda seed: c_subset_function(random.Random(seed), 12))


def round_trip(source: str):
    return import_raw_graph(export_raw_graph(parse_function(source))).to_pdg()


def assert_oracle_surfaces(raw) -> None:
    """Each node of a parsed graph, and of that graph exported and imported
    again, carries the oracle's surface of its code."""
    imported = import_raw_graph(export_raw_graph(raw)).graph
    for node in raw.nodes + imported.nodes:
        assert node.surface == oracle_line_surface(node.code)


class TestSourceAndImportAgree:
    """A parsed function and its exported graph give the same line-level
    graph: both mergers read line text and variables from the node code."""

    @settings(max_examples=150, deadline=None)
    @given(seeds, sizes)
    def test_synth_functions(self, seed, size):
        source = c_subset_function(random.Random(seed), size)
        assert pdg_from_source(source) == round_trip(source)

    @settings(max_examples=300, deadline=None)
    @given(c_soup.map(function_shell))
    def test_soup_functions_that_parse(self, source):
        try:
            pdg = pdg_from_source(source)
        except TrustvetError:
            return
        assert pdg == round_trip(source)

    @settings(max_examples=150, deadline=None)
    @given(seeds, sizes)
    def test_parsed_nodes_carry_the_surface_of_their_code(self, seed, size):
        raw = parse_function(c_subset_function(random.Random(seed), size))
        assert_oracle_surfaces(raw)

    @settings(max_examples=300, deadline=None)
    @given(c_soup.map(function_shell))
    def test_soup_nodes_carry_the_surface_of_their_code(self, source):
        """Every line of the soup, imported as a node's code, and every node
        of a soup function that parses, carries the oracle's surface."""
        lines = source.split("\n")
        nodes = [{"id": i, "line": i, "code": code} for i, code in enumerate(lines, start=1)]
        imported = import_raw_graph({"function": "f", "nodes": nodes, "edges": []}).graph
        assert [node.surface for node in imported.nodes] == list(map(oracle_line_surface, lines))
        try:
            raw = parse_function(source)
        except TrustvetError:
            return
        assert_oracle_surfaces(raw)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(synth_sources, c_soup.map(function_shell), c_soup), min_size=2, max_size=6))
    def test_a_shared_line_table_changes_no_graph(self, sources):
        """Parses and imports that share one line table give each source
        the Pdg, or the error, they give with a table of their own: the
        parse of the source, and the import of its lines as node codes."""
        shared = {}
        for source in sources:
            nodes = [{"id": i, "line": i, "code": code} for i, code in enumerate(source.split("\n"), start=1)]
            document = {"function": "f", "nodes": nodes, "edges": []}
            builds = (
                lambda table: pdg_from_source(source, table=table),
                lambda table: import_raw_graph(document, table).to_pdg(),
            )
            for build in builds:
                assert pdg_or_error(build, shared) == pdg_or_error(build, None)

    def test_comment_spanning_lines_leaves_no_text(self):
        source = function_shell("    int x = a; /* start\n    note */ int y = x + 1;\n    return y;")
        pdg = pdg_from_source(source)
        assert pdg.line_text[4] == "int y = x + 1 ;"
        assert pdg.line_vars[4] == frozenset({"x", "y"})
        assert pdg == round_trip(source)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)
ids = st.integers(0, 3)


def sometimes(strategy):
    """Mostly the well-formed values, sometimes any JSON value."""
    return st.one_of(strategy, strategy, strategy, json_values)


node_docs = st.fixed_dictionaries(
    {"id": sometimes(ids), "line": sometimes(st.integers(1, 4))},
    optional={"code": sometimes(st.text(alphabet=C_CHARACTERS, max_size=12))},
)
edge_docs = st.fixed_dictionaries(
    {"src": sometimes(ids), "dst": sometimes(ids), "kind": sometimes(st.sampled_from(["CDG", "DDG"]))},
    optional={"variable": sometimes(st.sampled_from(["a", "x"]))},
)
graph_docs = st.fixed_dictionaries(
    {
        "function": st.just("f"),
        "nodes": st.lists(node_docs, max_size=5, unique_by=lambda n: repr(n["id"])),
        "edges": st.lists(edge_docs, max_size=6),
    }
)

versions = sometimes(st.just("1.0.0"))
function_ids = sometimes(st.just("f"))
# numbers, and the booleans and numeric strings a float() call would accept
numbers = st.one_of(sometimes(st.floats(0, 1)), st.booleans(), st.just("0.3"))
entry_docs = st.fixed_dictionaries({"line": sometimes(st.integers(1, 9)), "score": numbers})
explanation_docs = st.fixed_dictionaries(
    {
        "schema_version": versions,
        "function_id": function_ids,
        "confidence": numbers,
        "entries": sometimes(st.lists(entry_docs, max_size=4)),
    }
)
record_docs = st.fixed_dictionaries(
    {"function_id": st.just("f"), "source": st.just("int f(int a) { return a; }")},
    optional={
        "label": sometimes(st.sampled_from(["vulnerable", "non-vulnerable"])),
        "vul_lines": sometimes(st.lists(st.integers(1, 9), max_size=3)),
        "explanation": sometimes(st.lists(entry_docs, max_size=3)),
        "confidence": numbers,
        "diff": sometimes(st.just("")),
        "graph": sometimes(graph_docs),
    },
)
model_docs = st.fixed_dictionaries(
    {
        "schema_version": versions,
        "view": sometimes(st.sampled_from(["lookup", "adapter", "token_ngram", "char_ngram", "syntax_shape"])),
        "threshold": sometimes(st.floats(0, 1)),
    },
    optional={
        "vocabulary": sometimes(st.dictionaries(st.text(max_size=3), st.integers(0, 2), max_size=3)),
        "weights": sometimes(st.lists(st.floats(-2, 2), max_size=3)),
        "bias": sometimes(st.floats(-2, 2)),
        "seed": sometimes(st.integers(0, 9)),
        "heldout_accuracy": sometimes(st.one_of(st.none(), st.floats(0, 1))),
        "non_benign": sometimes(st.lists(st.text(max_size=4), max_size=2)),
        "command": sometimes(st.lists(st.text(max_size=4), max_size=2)),
    },
)
dataset_lines = st.tuples(
    sometimes(st.just({"schema_version": "1.0.0", "kind": "line-dataset"})),
    st.lists(
        st.fixed_dictionaries(
            {
                "text": sometimes(st.text(max_size=6)),
                "label": sometimes(st.sampled_from(["vulnerable", "non-vulnerable"])),
                "function_id": function_ids,
                "line": sometimes(st.integers(1, 9)),
            }
        ),
        max_size=3,
    ),
).map(lambda parts: [json.dumps(parts[0])] + [json.dumps(sample) for sample in parts[1]])


# a linear model that loads; the test_load_model examples break one field each
LINEAR_MODEL = {
    "schema_version": "1.0.0",
    "view": "token_ngram",
    "threshold": 0.5,
    "vocabulary": {"x": 0},
    "weights": [0.5],
    "bias": 0.0,
    "seed": 1,
    "heldout_accuracy": 0.75,
}


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def returns_or_raises(load, *args):
    """load(*args), or None when it raises a TrustvetError; anything else
    it raises fails the test."""
    try:
        return load(*args)
    except TrustvetError:
        return None


class TestFailureContract:
    """Whatever the input, the frontend and the artifact loaders either
    succeed or raise a TrustvetError, which the CLI maps to exit 2 and
    evaluate to a skip."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), c_soup, c_soup.map(function_shell)))
    def test_pdg_from_source(self, text):
        try:
            pdg_from_source(text)
        except TrustvetError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(json_values, graph_docs))
    def test_import_raw_graph(self, document):
        try:
            import_raw_graph(document).to_pdg()
        except TrustvetError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(json_values, explanation_docs))
    @example({"schema_version": "1.0.0", "function_id": "f", "confidence": 0.5, "entries": [{"line": 1, "score": True}]})
    @example({"schema_version": "1.0.0", "function_id": "f", "confidence": 0.5, "entries": [{"line": 1, "score": "0.3"}]})
    @example({"schema_version": "1.0.0", "function_id": "f", "confidence": True, "entries": []})
    @example({"schema_version": "1.0.0", "function_id": [1], "confidence": 0.5, "entries": []})
    def test_explanation_from_dict(self, document):
        expl = returns_or_raises(explanation_from_dict, document)
        if expl is not None:  # only a well-typed document loads
            assert isinstance(document["function_id"], str)
            assert is_number(document["confidence"])
            assert all(is_number(entry["score"]) for entry in document["entries"])

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(json_values, record_docs))
    @example({"function_id": "f", "source": "x", "explanation": [{"line": 1, "score": True}], "confidence": 0.5})
    @example({"function_id": "f", "source": "x", "explanation": [{"line": 1, "score": "0.3"}], "confidence": 0.5})
    def test_record_from_dict(self, document):
        record = returns_or_raises(record_from_dict, document, "corpus.jsonl:1")
        if record is not None and record.explanation is not None:
            assert all(is_number(entry["score"]) for entry in document["explanation"])
        if record is not None and record.confidence is not None:
            assert is_number(document["confidence"])

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(json_values.map(json.dumps), model_docs.map(json.dumps), st.binary(max_size=12)))
    @example("[]")
    @example(b"\xff")
    @example(json.dumps({**LINEAR_MODEL, "weights": ["0.5"]}))
    @example(json.dumps({**LINEAR_MODEL, "weights": "05"}))
    @example(json.dumps({**LINEAR_MODEL, "bias": "0.1"}))
    @example(json.dumps({**LINEAR_MODEL, "seed": "1"}))
    @example(json.dumps({**LINEAR_MODEL, "seed": 1.5}))
    @example(json.dumps({**LINEAR_MODEL, "seed": True}))
    @example(json.dumps({**LINEAR_MODEL, "heldout_accuracy": "0.9"}))
    @example(json.dumps({**LINEAR_MODEL, "threshold": float("nan")}))
    @example(json.dumps({**LINEAR_MODEL, "weights": [float("inf")]}))
    def test_load_model(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "model.json"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        model = returns_or_raises(load_model, path)
        if model is not None:  # a model that loads can classify
            assert isinstance(model.threshold, float) and math.isfinite(model.threshold)
        if isinstance(model, LinearLineClassifier):  # from numbers, not strings
            document = json.loads(content)
            assert all(is_number(w) and math.isfinite(w) for w in document["weights"])
            assert is_number(document["bias"]) and is_strict_int(document["seed"])
            held = document.get("heldout_accuracy")
            assert held is None or is_number(held)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.lists(json_values.map(json.dumps), max_size=3), dataset_lines, st.binary(max_size=12)))
    @example(["[]"])
    @example(["not json"])
    def test_load_line_dataset(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "dataset.jsonl"
        path.write_bytes(content if isinstance(content, bytes) else "\n".join(content).encode())
        for sample in returns_or_raises(load_line_dataset, path) or []:
            assert isinstance(sample.text, str) and isinstance(sample.origin.function_id, str)
