"""Parser behavior: dependence edges, control flow shapes, loud failures."""

from __future__ import annotations

import pytest

from synth import nested_ifs, nested_subscripts
from trustvet.errors import ParseError, UnsupportedConstructError
from trustvet.frontend import parse_function, pdg_from_source
from trustvet.frontend.parser import MAX_NESTING, _build_cfg
from trustvet.pdg import DepKind, pdg_dumps


def edge_set(pdg):
    return {(e.src, e.dst, e.kind, e.variable) for e in pdg.edges}


class TestChains:
    def test_straight_line_dataflow(self, data_dir):
        pdg = pdg_from_source((data_dir / "chain.c").read_text())
        assert pdg.function_id == "chain"
        assert sorted(pdg.nodes) == [1, 3, 4, 5, 6]
        assert edge_set(pdg) == {
            (3, 4, DepKind.DATA, "a"),
            (4, 5, DepKind.DATA, "b"),
            (5, 6, DepKind.DATA, "c"),
        }

    def test_parameter_defines_at_signature(self):
        pdg = pdg_from_source("int inc(int v)\n{\n    return v + 1;\n}\n")
        assert (1, 3, DepKind.DATA, "v") in edge_set(pdg)

    def test_single_line_function(self):
        pdg = pdg_from_source("int f(){ return 0; }")
        assert pdg.nodes == frozenset({1})
        assert pdg.edges == ()


class TestBranches:
    SOURCE = (
        "int pick(int a)\n"
        "{\n"
        "    if (a) {\n"
        "        b = 1;\n"
        "    } else {\n"
        "        b = 2;\n"
        "    }\n"
        "    return b;\n"
        "}\n"
    )

    def test_both_arms_control_dependent(self):
        edges = edge_set(pdg_from_source(self.SOURCE))
        assert (3, 4, DepKind.CONTROL, None) in edges
        assert (3, 6, DepKind.CONTROL, None) in edges

    def test_join_not_control_dependent(self):
        edges = edge_set(pdg_from_source(self.SOURCE))
        assert (3, 8, DepKind.CONTROL, None) not in edges

    def test_both_definitions_reach_join(self):
        edges = edge_set(pdg_from_source(self.SOURCE))
        assert (4, 8, DepKind.DATA, "b") in edges
        assert (6, 8, DepKind.DATA, "b") in edges


class TestLoops:
    SOURCE = (
        "int drain(int n)\n"
        "{\n"
        "    while (n > 0) {\n"
        "        n = n - 1;\n"
        "    }\n"
        "    return n;\n"
        "}\n"
    )

    def test_loop_carried_dependence(self):
        pdg = pdg_from_source(self.SOURCE)
        edges = edge_set(pdg)
        assert (4, 3, DepKind.DATA, "n") in edges  # back edge into the test
        assert (3, 4, DepKind.CONTROL, None) in edges
        assert (4, 6, DepKind.DATA, "n") in edges

    def test_self_loop_retained_and_reported(self):
        pdg = pdg_from_source(self.SOURCE)
        loops = [e for e in pdg.edges if e.src == e.dst]
        assert (4, 4, DepKind.DATA, "n") in {
            (e.src, e.dst, e.kind, e.variable) for e in loops
        }

    def test_for_loop_parses(self):
        source = (
            "int total(int n)\n"
            "{\n"
            "    s = 0;\n"
            "    for (i = 0; i < n; i = i + 1) {\n"
            "        s = s + i;\n"
            "    }\n"
            "    return s;\n"
            "}\n"
        )
        pdg = pdg_from_source(source)
        edges = edge_set(pdg)
        assert (4, 5, DepKind.CONTROL, None) in edges
        assert (5, 7, DepKind.DATA, "s") in edges


class TestDeclarationsAndWrites:
    def test_declaration_with_initializer(self):
        pdg = pdg_from_source("int f(int y)\n{\n    int x = y;\n    return x;\n}\n")
        edges = edge_set(pdg)
        assert (1, 3, DepKind.DATA, "y") in edges
        assert (3, 4, DepKind.DATA, "x") in edges

    def test_member_write_tracks_base(self):
        source = (
            "void fill(struct box *p)\n"
            "{\n"
            "    p->f = 1;\n"
            "    use(p);\n"
            "}\n"
        )
        edges = edge_set(pdg_from_source(source))
        assert (3, 4, DepKind.DATA, "p") in edges

    def test_array_write_tracks_base(self):
        source = "void put(int i)\n{\n    tab[i] = 0;\n    use(tab);\n}\n"
        edges = edge_set(pdg_from_source(source))
        assert (3, 4, DepKind.DATA, "tab") in edges

    def test_compound_assign_is_also_a_use(self):
        source = "int bump(int x)\n{\n    x += 1;\n    return x;\n}\n"
        edges = edge_set(pdg_from_source(source))
        assert (1, 3, DepKind.DATA, "x") in edges
        assert (3, 4, DepKind.DATA, "x") in edges


class TestDefUse:
    """Each statement's (defs, uses), read from the statement CFG; the
    function's entry, which defines its parameters, is statement 0."""

    @pytest.mark.parametrize(
        "statement,defs,uses",
        [
            # declarations: type keywords, a struct tag or a typedef'd name
            ("int *p = &n;", {"p"}, {"n"}),
            ("unsigned long d[n][m];", {"d"}, {"m", "n"}),
            ("int a = n, *b, c[2] = {0};", {"a", "b", "c"}, {"n"}),
            ("int v = g(a, b), w;", {"v", "w"}, {"a", "b"}),
            ("char **pp, *q = s[i[j]];", {"pp", "q"}, {"s", "i", "j"}),
            ("struct node *p = q->next;", {"p"}, {"q"}),
            ("struct node n;", {"n"}, set()),
            ("struct node;", set(), set()),
            ("enum colour c = RED;", {"c"}, {"RED"}),
            ("size_t len = strlen(s);", {"len"}, {"s"}),
            ("buf_t *b, c = d;", {"b", "c"}, {"d"}),
            ("T t[k];", {"t"}, {"k"}),
            ("T **t;", {"t"}, set()),
            ("const T t = u;", {"t"}, {"u"}),
            # a typedef'd name first needs '=' ',' '[' or the end after its name
            ("a * b;", {"b"}, set()),
            ("a * b + c;", set(), {"a", "b", "c"}),
            ("a b(c);", set(), {"a", "c"}),
            # expressions
            ("x = y++ + --z;", {"x", "y", "z"}, {"y", "z"}),
            ("++i;", {"i"}, {"i"}),
            ("x = g(y).m;", {"x"}, {"y"}),
            ("x = g(y)[i].m;", {"x"}, {"y", "i"}),
            ("x = (p).m + q->r.s;", {"x"}, {"p", "q"}),
            ("a[b[c]] = d[e];", {"a"}, {"b", "c", "d", "e"}),
            ("a[i++] = 0;", {"a", "i"}, {"i"}),
            ("p->f.g[k] -= v;", {"p"}, {"p", "k", "v"}),
            # conditions, with nested parentheses
            ("if (((a) > (b)) && g((c))) ;", set(), {"a", "b", "c"}),
            ("while ((x = next(x))) ;", {"x"}, {"x"}),
        ],
    )
    def test_statement(self, statement, defs, uses):
        stmts = _build_cfg(f"void f(void)\n{{\n    {statement}\n}}\n").stmts
        assert [(s.defs, s.uses) for s in stmts[1:]] == [(defs, uses)]


class TestWorkedExampleShape:
    def test_native_parse_contains_the_six_stated_edges(self, vrrp_native):
        edges = edge_set(vrrp_native)
        required = {
            (1, 3, DepKind.DATA, "data"),
            (3, 4, DepKind.CONTROL, None),
            (3, 5, DepKind.CONTROL, None),
            (3, 7, DepKind.CONTROL, None),
            (7, 8, DepKind.DATA, "file"),
            (8, 9, DepKind.DATA, "count"),
        }
        assert required <= edges

    def test_member_access_is_not_a_dataflow_use(self, vrrp_native):
        # dump_state.data on line 7 must not create a data edge from line 1
        assert (1, 7, DepKind.DATA, "data") not in edge_set(vrrp_native)

    def test_member_access_is_in_the_variable_surface(self, vrrp_native):
        assert "data" in vrrp_native.line_vars[7]


class TestRejections:
    @pytest.mark.parametrize(
        "body,needle",
        [
            ("    goto out;\n", "goto"),
            ("    switch (x) {\n    }\n", "switch"),
            ("    do {\n    } while (x);\n", "do"),
            ("    break;\n", "break"),
            ("    continue;\n", "continue"),
            ("    typedef int t;\n", "typedef"),
        ],
    )
    def test_unsupported_keywords(self, body, needle):
        source = f"void f(int x)\n{{\n{body}}}\n"
        with pytest.raises(UnsupportedConstructError) as err:
            parse_function(source)
        assert needle in str(err.value)
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize(
        "statement,declarator",
        [
            ("int (*cb)(int) = on_event;", "( * cb ) ( int ) = on_event"),
            ("struct s { int a; } x;", "{ int a ; } x"),
            ("enum { A } e;", "{ A } e"),
            ("int (a) = 1;", "( a ) = 1"),
            ("int *;", "*"),
            ("char *const p = on_event;", "* const p = on_event"),
        ],
    )
    def test_declarators_other_than_a_name_rejected(self, statement, declarator):
        """Such a declarator used to vanish with its name, so the first one
        dropped the data edge from line 3's on_event into line 4."""
        source = f"void f(void)\n{{\n    on_event = pick();\n    {statement}\n}}\n"
        message = f"line 4: declarator '{declarator}' does not start '*'* name"
        with pytest.raises(UnsupportedConstructError) as err:
            parse_function(source)
        assert str(err.value) == message

    @pytest.mark.parametrize("ending", ["\\", "\\ \t"], ids=["bare", "trailing-blanks"])
    def test_a_splice_after_code_rejected(self, ending):
        """Read as a token, the backslash took y = 2; into line 3's
        statement, and line 4 and the definition of y were lost."""
        source = f"int f(int x)\n{{\nx = 1; {ending}\ny = 2;\n}}\n"
        with pytest.raises(UnsupportedConstructError) as err:
            parse_function(source)
        assert str(err.value) == "line 3: line splice ('\\' at the end of a line) is not supported"

    def test_preprocessor_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            parse_function("#define X 1\nvoid f(void)\n{\n}\n")

    def test_hash_inside_literals_accepted(self):
        source = "void f(int a)\n{\n    printf(\"#%d\", a);\n    c = '#';\n}\n"
        codes = [node.code for node in parse_function(source).nodes]
        assert 'printf("#%d", a);' in codes
        assert "c = '#';" in codes

    @pytest.mark.parametrize(
        "line,needle",
        [('    x = "a" # b;', "'#' outside"), ('    # "define"', "preprocessor")],
        ids=["after-a-literal", "directive-with-a-literal"],
    )
    def test_hash_outside_literals_still_rejected(self, line, needle):
        with pytest.raises(UnsupportedConstructError, match=needle):
            parse_function(f"void f(int a)\n{{\n{line}\n}}\n")

    @pytest.mark.parametrize("char", ["\u00a0", "\u2028", "\x1c", "\u3000"], ids=ascii)
    def test_white_space_other_than_c_rejected(self, char):
        """Read as a token, the U+00A0 made the early return a plain
        statement, and the control edges 3->4 and 3->5 vanished."""
        source = f"int f(int a)\n{{\nif (a){char}return a;\na = 2;\nreturn a;\n}}\n"
        with pytest.raises(UnsupportedConstructError, match=rf"line 3: white space U\+{ord(char):04X} outside"):
            parse_function(source)
        plain = pdg_from_source(source.replace(char, " "))
        assert {(3, 4, DepKind.CONTROL, None), (3, 5, DepKind.CONTROL, None)} <= edge_set(plain)

    def test_white_space_other_than_c_in_comments_and_literals_accepted(self):
        line = "    s = \"a\u00a0b\"; /* \u00a0 */ c = '\u3000';"
        source = f"int f(int a)\n{{\n{line}\n    return a; // \u2028\n}}\n"
        codes = [node.code for node in parse_function(source).nodes]
        assert codes[1] == line.replace("/* \u00a0 */", " " * 7).strip()

    def test_conditionless_for_rejected(self):
        source = "void f(void)\n{\n    for (;;) {\n    }\n}\n"
        with pytest.raises(UnsupportedConstructError):
            parse_function(source)

    @pytest.mark.parametrize(
        "body,error,message",
        [
            ("    for (a; a) x = 1;\n}\n", UnsupportedConstructError,
             "line 3: for header must have exactly two ';' separators"),
            ("    a[1) = 2;\n}\n", ParseError, "unbalanced '[' in expression"),
            ("    if (a)\n", ParseError, "expected a statement but reached end of input"),
            ("    if", ParseError, "expected '(' but reached end of input"),
            ("    if (a", ParseError, "line 3: unbalanced '(' "),
        ],
        ids=["for-header", "bracket-closed-by-paren", "ends-after-if", "ends-at-if", "ends-in-a-condition"],
    )
    def test_malformed_statements(self, body, error, message):
        with pytest.raises(error) as err:
            parse_function(f"void f(int a)\n{{\n{body}")
        assert type(err.value) is error
        assert str(err.value) == message

    def test_truncated_body(self):
        with pytest.raises(ParseError):
            parse_function("int f(void)\n{\n    x = 1;\n")

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse_function("")


class TestNestingLimit:
    """Deep nesting is refused with a line number instead of exhausting
    Python's recursion limit."""

    @pytest.mark.parametrize("depth", [MAX_NESTING // 2, 400])
    def test_deeply_nested_ifs(self, depth):
        with pytest.raises(UnsupportedConstructError, match="nested more than"):
            pdg_from_source(nested_ifs(depth))

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1500])
    def test_deep_subscript_chain(self, depth):
        with pytest.raises(UnsupportedConstructError, match="line 3: subscripts nested"):
            pdg_from_source(nested_subscripts(depth))

    def test_nesting_up_to_the_limit_parses(self):
        # an if and its braced body are two nested statements
        pdg_from_source(nested_ifs(MAX_NESTING // 2 - 1))
        pdg_from_source(nested_subscripts(MAX_NESTING))
        chain = "".join(f"else if (a == {i}) x = {i};\n" for i in range(MAX_NESTING - 2))
        pdg = pdg_from_source("int f(int a)\n{\nif (a) x = 0;\n" + chain + "return x;\n}\n")
        # each else-if condition governs the next one, down to the deepest
        assert (MAX_NESTING, MAX_NESTING + 1, DepKind.CONTROL, None) in edge_set(pdg)


class TestNodeCarriesFullLine:
    def test_exported_code_is_the_source_line(self, vrrp_source):
        raw = parse_function(vrrp_source)
        by_line = {n.line: n.code for n in raw.nodes}
        assert by_line[3] == "if (!data) {"
        assert by_line[7] == 'file = fopen(dump_state.data, "w");'


# a function whose line 4 holds only a form feed: strcpy is on line 5
FORM_FEED_SOURCE = "int f(int a)\n{\n  a = a + 1;\n\f\n  strcpy(d, s);\n  return a;\n}\n"
# characters str.splitlines breaks at but git, editors and models do not
NON_NEWLINE_BREAKS = ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def function_lines(*body: str) -> list[str]:
    """The lines of int f(int x) around body, and an empty last one."""
    return ["int f(int x)", "{", *body, "}", ""]


class TestLineBreaks:
    """Lines end at "\n" only, as git, editors and an explanation count them."""

    def test_form_feed_line_does_not_shift_later_lines(self):
        pdg = pdg_from_source(FORM_FEED_SOURCE)
        assert pdg.line_text[5] == "strcpy ( d , s ) ;"
        assert sorted(pdg.nodes) == [1, 3, 5, 6]

    @pytest.mark.parametrize("char", NON_NEWLINE_BREAKS, ids=ascii)
    def test_break_character_in_a_comment_does_not_shift_lines(self, vrrp_source, char):
        lines = vrrp_source.split("\n")
        lines[1] += f" /* one{char}two */"
        assert pdg_from_source("\n".join(lines)) == pdg_from_source(vrrp_source)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_a_line_comment_ending_in_a_backslash_runs_on(self, newline):
        """C splices a line that ends in a backslash onto the next one, so
        the comment covers y = 2;, and through a second backslash z = 3;."""
        spliced = function_lines("x = 1; // a \\", "y = 2;")
        assert sorted(n.line for n in parse_function(newline.join(spliced)).nodes) == [1, 3]
        twice = function_lines("x = 1; // a \\", "y = 2; \\", "z = 3;", "return x;")
        raw = parse_function(newline.join(twice))
        assert [(n.line, n.code) for n in raw.nodes] == [(1, "int f(int x)"), (3, "x = 1;"), (6, "return x;")]

    def test_crlf_and_lf_give_the_same_graph(self, vrrp_source):
        for source in (vrrp_source, FORM_FEED_SOURCE):
            crlf = source.replace("\n", "\r\n")
            assert pdg_dumps(pdg_from_source(crlf)) == pdg_dumps(pdg_from_source(source))
