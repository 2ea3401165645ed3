"""Parse one self-contained C-like function into a raw dependence graph.

Supported statement forms: declarations whose declarators are each
'*'* name with optional subscripts and initializer, assignments,
expression/call statements, if/else, while, for (with a condition), return,
and nested blocks. Anything else (preprocessor lines, do/switch/goto/break/
continue, for loops without a condition, declarators such as "(*cb)(int)",
"(a)" or a struct body, white space other than C's, such as U+00A0, outside
a comment or literal) raises UnsupportedConstructError naming the
offending line, and so does nesting deeper than MAX_NESTING statements or
subscripts; structural damage (unbalanced braces, truncated statements)
raises ParseError. Failing loudly is deliberate: a partially parsed function
would produce a silently wrong dependence graph.

Each distinct cleaned line is read once, through a lexer.LineTable: its
entry holds its token texts and kinds, and its surface. A caller may pass a
table shared with other parses and imports; else each parse has its own.
The entries' texts and kinds are joined into flat parallel lists of texts,
kinds and source lines. The recursive descent
and its def/use scans read those lists and slices of them, and a node's line
surface is its line's entry's. The descent wires the
statement CFG as it parses: each statement takes the CFG ends that flow into
it and returns the ends that flow out. Both analyses below make each edge
once, in its final (src, dst, kind, variable) form, so the graph's edges are
their two sorted lists, control first.
The analysis is classical and intraprocedural:
  - control dependence from the post-dominator tree of the statement CFG,
    so code following an early-return branch is governed by the branch
    predicate. Immediate post-dominators come from the Cooper-Harvey-Kennedy
    iteration ("A Simple, Fast Dominance Algorithm", 2001) on the reversed
    CFG rooted at the virtual exit, in reverse postorder. It never builds
    post-dominator sets: a pass does one intersection per CFG edge, each a
    short walk up the ipdom tree, and loop-free code settles in two passes
    (loops add a few). The statements each branch governs are found by the
    Ferrante-Ottenstein-Warren walk up the ipdom tree, which costs the size
    of its output;
  - data dependence from reaching definitions (def-use chains), tracking the
    base identifier of each written lvalue (writes through "p->f", "p.f" or
    "p[i]" count as writes to "p"). Each (statement, variable) definition is
    one bit of a Python int, each variable has a kill mask, and IN/OUT of
    each statement whose predecessors changed is evaluated, to the least
    fixed point, in statement id order, which is source order. Only the
    edges that close a loop run backward in that order, so a change carried
    along one rewinds the scan to the loop's head, and each loop settles
    before the code after it is reached (Bourdoncle's recursive strategy,
    "Efficient chaotic iteration strategies with widenings", 1993).
    Evaluating a statement costs one big-int operation of O(D/64) words per
    CFG edge into it, for D definitions, and a statement outside every loop
    is evaluated once.
There is no aliasing, no interprocedural flow, and address-of arguments are
treated as plain reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParseError, UnsupportedConstructError
from ..pdg import DepKind
from .lexer import LineEntry, LineTable, TokenKind, blank_literals, code_lines, line_entry

_EXIT = -1  # virtual CFG exit

# Deepest statement or subscript nesting accepted. The statement parser
# (which also wires the CFG) and the subscript scan recurse a few frames per
# level, so the bound keeps them well inside Python's default recursion limit
# of 1000; real C stays in single digits (an if and its braced body count as
# two).
MAX_NESTING = 200

_TYPE_KEYWORDS = {
    "void", "char", "short", "int", "long", "float", "double", "signed",
    "unsigned", "const", "volatile", "static", "extern", "register", "auto",
    "inline", "restrict", "struct", "union", "enum",
}
_TAG_KEYWORDS = {"struct", "union", "enum"}
_DECLARED = {"=", ",", "["}  # what follows the name a leading typedef'd type declares
_UNSUPPORTED_KEYWORDS = {
    "do", "switch", "case", "default", "goto", "break", "continue", "typedef",
}
# Each operator and punctuation text is made by one token kind only (the
# lexer's fixed table), so the scans below test such a token by its text and
# look at kinds only to tell identifiers from keywords and literals.
_IDENTIFIER, _KEYWORD = TokenKind.IDENTIFIER, TokenKind.KEYWORD
_CONTROL, _DATA = DepKind.CONTROL, DepKind.DATA
_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
_MEMBER_OPS = {".", "->"}
_INCDEC_OPS = {"++", "--"}
_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")
_END = ""  # the text past the last token of the stream; no token's is empty
_STOPS = _OPENERS | _CLOSERS | {";", _END}  # the texts a statement scan stops at


@dataclass
class RawNode:
    """A statement; surface, lexer.surface of code's tokens, is set by its maker."""

    node_id: int
    line: int
    code: str
    surface: tuple[str, frozenset[str]]


# A statement-level edge, (src, dst, kind, variable): a PdgEdge's fields,
# kept as a plain tuple because the line merge builds the PdgEdges.
RawEdge = tuple[int, int, DepKind, str | None]


@dataclass
class RawDepGraph:
    """Statement-level dependence graph; nodes may share source lines, and
    edge endpoints are statement ids. The line merge trusts its producers, the
    parser and import_raw_graph: node lines are ints >= 1, edge endpoints are
    node ids, and just data edges carry a variable. Both producers give each
    edge as a plain tuple, which sorts in PdgEdge.sort_key order."""

    function_id: str
    nodes: list[RawNode]
    edges: list[RawEdge]


@dataclass(slots=True)
class _Stmt:
    sid: int
    line: int
    defs: set[str]
    uses: set[str]


# --- source cleaning ---------------------------------------------------------


def _clean_source(source: str) -> list[str]:
    """lexer.code_lines of source, comments blanked, with its refusals
    raised, and preprocessor lines and any other '#' outside a comment or
    literal rejected too, as is a line whose code ends in a backslash after
    trailing spaces and tabs: C would splice the next line onto it. The
    first bad line wins, and on one line '#' comes before white space, and
    white space before the splice."""
    cleaned, refused = code_lines(source)
    if "#" in source or "\\" in source or refused:
        for lineno, text in enumerate(cleaned, start=1):
            if "#" in text:
                code = blank_literals(text)
                if code.lstrip().startswith("#"):
                    raise UnsupportedConstructError("preprocessor directives are not supported", lineno)
                if "#" in code:
                    raise UnsupportedConstructError("'#' outside a comment or literal", lineno)
            if lineno in refused:
                raise UnsupportedConstructError(refused[lineno], lineno)
            if text.rstrip(" \t").endswith("\\"):
                raise UnsupportedConstructError("line splice ('\\' at the end of a line) is not supported", lineno)
    return cleaned


# --- def/use extraction ------------------------------------------------------
#
# Each scan reads a token slice as two parallel lists, the tokens' texts and
# their kinds, cut from the parser's flat lists.


def _match_group(texts: list[str], i: int, open_text: str, close_text: str) -> int:
    """Index just past the punct group opened at texts[i]."""
    depth = 0
    for j in range(i, len(texts)):
        text = texts[j]
        if text == open_text:
            depth += 1
        elif text == close_text:
            depth -= 1
            if depth == 0:
                return j + 1
    raise ParseError(f"unbalanced '{open_text}' in expression")


def _scan_expr(
    texts: list[str], kinds: list[TokenKind], line: int, depth: int = 0
) -> tuple[set[str], set[str]]:
    """Defs and uses of an expression token slice on source line `line`.

    An identifier chain (name plus subscripts/member accesses) followed by an
    assignment operator defines its base identifier; compound assignments and
    ++/-- also use it. Called-function names and member names are neither.
    Subscripts are scanned recursively, `depth` levels down.
    """
    if depth > MAX_NESTING:
        raise UnsupportedConstructError(
            f"subscripts nested more than {MAX_NESTING} deep are not supported", line
        )
    defs: set[str] = set()
    uses: set[str] = set()
    i = 0
    n = len(texts)
    while i < n:
        if kinds[i] is not _IDENTIFIER:
            i += 1
            continue
        prev = texts[i - 1] if i else None
        if prev in _MEMBER_OPS:
            i += 1  # member name, not a variable
            continue
        if i + 1 < n and texts[i + 1] == "(":
            i += 1  # called-function name
            continue
        name = texts[i]
        # swallow the postfix chain: subscripts contribute uses, member names vanish
        j = i + 1
        while j < n:
            text = texts[j]
            if text == "[":
                end = _match_group(texts, j, "[", "]")
                d2, u2 = _scan_expr(texts[j + 1 : end - 1], kinds[j + 1 : end - 1], line, depth + 1)
                defs |= d2
                uses |= u2
                j = end
            elif text in _MEMBER_OPS and j + 1 < n and kinds[j + 1] is _IDENTIFIER:
                j += 2
            else:
                break
        after = texts[j] if j < n else None
        if after in _ASSIGN_OPS:
            defs.add(name)
            if after != "=":
                uses.add(name)
            i = j + 1
        elif after in _INCDEC_OPS:
            defs.add(name)
            uses.add(name)
            i = j + 1
        elif prev in _INCDEC_OPS:
            defs.add(name)
            uses.add(name)
            i = j
        else:
            uses.add(name)
            i = j
    return defs, uses


def _split_top_level(texts: list[str], sep_text: str, start: int = 0) -> list[tuple[int, int]]:
    """Index ranges [a, b) of texts[start:] cut at each top-level sep_text."""
    parts: list[tuple[int, int]] = []
    depth = 0
    for i in range(start, len(texts)):
        text = texts[i]
        if text in _OPENERS:
            depth += 1
        elif text in _CLOSERS:
            depth -= 1
        elif text == sep_text and depth == 0:
            parts.append((start, i))
            start = i + 1
    parts.append((start, len(texts)))
    return parts


def _scan_simple(texts: list[str], kinds: list[TokenKind], line: int) -> tuple[set[str], set[str]]:
    """Defs and uses of a declaration or an expression statement.

    One pass finds where the declarators start: past the type keywords (with
    a struct, union or enum tag) and a typedef'd name, IDENT '*'* IDENT.
    First in the statement, that name also needs '=', ',', '[' or the end
    after the declared name; declarators at index 0 make an expression. A
    non-empty declarator other than '*'* name, subscripts and initializer
    raises UnsupportedConstructError rather than lose its name.
    """
    n = len(texts)
    i = 0
    while i < n and kinds[i] is _KEYWORD and texts[i] in _TYPE_KEYWORDS:
        i += 2 if texts[i] in _TAG_KEYWORDS and i + 1 < n and kinds[i + 1] is _IDENTIFIER else 1
    if i < n and kinds[i] is _IDENTIFIER:
        j = i + 1
        while j < n and texts[j] == "*":
            j += 1
        if j < n and kinds[j] is _IDENTIFIER and (i or j + 1 == n or texts[j + 1] in _DECLARED):
            i += 1
    if not i:
        return _scan_expr(texts, kinds, line)
    defs: set[str] = set()
    uses: set[str] = set()
    for a, b in _split_top_level(texts, ",", i):
        if a == b:
            continue  # no declarator, as in "struct s;"
        declarator, declarator_kinds = texts[a:b], kinds[a:b]
        k = 0
        m = b - a
        while k < m and declarator[k] == "*":
            k += 1
        if k == m or declarator_kinds[k] is not _IDENTIFIER:
            raise UnsupportedConstructError(
                f"declarator '{' '.join(declarator)}' does not start '*'* name", line
            )
        defs.add(declarator[k])
        k += 1
        while k < m and declarator[k] == "[":
            end = _match_group(declarator, k, "[", "]")
            _, u2 = _scan_expr(declarator[k + 1 : end - 1], declarator_kinds[k + 1 : end - 1], line, 1)
            uses |= u2
            k = end
        if k < m and declarator[k] == "=":
            d2, u2 = _scan_expr(declarator[k + 1 :], declarator_kinds[k + 1 :], line)
            defs |= d2
            uses |= u2
    return defs, uses


# --- recursive-descent statement parser, wiring the CFG as it descends -------


class _Parser:
    """Walks the function's tokens as three parallel lists: each token's text
    (with _END appended), its kind and its source line. A statement's scan
    gets slices of the text and kind lists."""

    def __init__(self, texts: list[str], kinds: list[TokenKind], lines: list[int], start: int):
        self.texts = texts
        self.kinds = kinds
        self.lines = lines
        self.i = start
        self.stmts: list[_Stmt] = []
        self.depth = 0  # parse_statement calls currently open
        self.succ: dict[int, set[int]] = {}
        self.preds: dict[int, set[int]] = {_EXIT: set()}  # make_stmt adds each statement

    def expect_punct(self, text: str) -> None:
        found = self.texts[self.i]
        if found != text:
            if found == _END:
                raise ParseError(f"expected '{text}' but reached end of input")
            raise ParseError(f"line {self.lines[self.i]}: expected '{text}', found '{found}'")
        self.i += 1

    def make_stmt(self, line: int, defs: set[str], uses: set[str]) -> int:
        """Record a statement, with no CFG edges yet; ids count up from 0 in
        parse order."""
        sid = len(self.stmts)
        self.stmts.append(_Stmt(sid, line, defs, uses))
        self.succ[sid] = set()
        self.preds[sid] = set()
        return sid

    def collect_until_semicolon(self) -> tuple[int, list[str], list[TokenKind]]:
        """First line, texts and kinds of one simple statement, excluding the
        terminating ';'."""
        texts = self.texts
        start = i = self.i
        depth = 0
        while True:
            text = texts[i]
            if text in _STOPS:
                if text in _OPENERS:
                    depth += 1
                elif text in _CLOSERS:
                    if depth == 0:
                        raise ParseError(f"line {self.lines[i]}: unexpected '{text}' inside a statement")
                    depth -= 1
                elif text == _END:
                    raise ParseError(f"line {self.lines[start]}: statement is missing its ';'")
                elif depth == 0:
                    self.i = i + 1
                    return self.lines[start], texts[start:i], self.kinds[start:i]
            i += 1

    def collect_paren_group(self) -> tuple[list[str], list[TokenKind]]:
        """Texts and kinds of a parenthesized group, excluding the parens."""
        self.expect_punct("(")
        texts = self.texts
        start = i = self.i
        depth = 1
        while True:
            text = texts[i]
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
                if depth == 0:
                    self.i = i + 1
                    return texts[start:i], self.kinds[start:i]
            elif text == _END:
                raise ParseError(f"line {self.lines[start - 1]}: unbalanced '(' ")
            i += 1

    def connect(self, ends: list[int], target: int) -> None:
        into = self.preds[target]
        for e in ends:
            self.succ[e].add(target)
            into.add(e)

    def parse_block(self, ends: list[int]) -> list[int]:
        """Parse a braced block entered from the CFG `ends`; return its ends."""
        self.expect_punct("{")
        texts = self.texts
        while True:
            text = texts[self.i]
            if text == "}":
                self.i += 1
                return ends
            if text == _END:
                raise ParseError("unbalanced '{': reached end of input inside a block")
            ends = self.parse_statement(ends)

    def parse_statement(self, ends: list[int]) -> list[int]:
        """Parse one statement entered from the CFG `ends`, wiring its edges;
        return the ends that flow out of it ([] after a return)."""
        text = self.texts[self.i]
        if text == _END:
            raise ParseError("expected a statement but reached end of input")
        line = self.lines[self.i]
        if self.depth >= MAX_NESTING:
            raise UnsupportedConstructError(
                f"statements nested more than {MAX_NESTING} deep are not supported", line
            )
        self.depth += 1
        try:
            return self._parse_statement(line, text, ends)
        finally:
            self.depth -= 1

    def _parse_statement(self, line: int, text: str, ends: list[int]) -> list[int]:
        if text == "{":
            return self.parse_block(ends)
        if text == ";":
            self.i += 1
            return ends
        if text in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedConstructError(f"'{text}' statements are not supported", line)
        if text == "if":
            self.i += 1
            cond = self.make_stmt(line, *_scan_expr(*self.collect_paren_group(), line))
            self.connect(ends, cond)
            out = self.parse_statement([cond])
            if self.texts[self.i] == "else":
                self.i += 1
                return out + self.parse_statement([cond])
            return out + [cond]
        if text == "while":
            self.i += 1
            cond = self.make_stmt(line, *_scan_expr(*self.collect_paren_group(), line))
            self.connect(ends, cond)
            self.connect(self.parse_statement([cond]), cond)
            return [cond]
        if text == "for":
            self.i += 1
            texts, kinds = self.collect_paren_group()
            parts = _split_top_level(texts, ";")
            if len(parts) != 3:
                raise UnsupportedConstructError(
                    "for header must have exactly two ';' separators", line
                )
            (a, b), (c, d), (e, f) = parts
            if c == d:
                raise UnsupportedConstructError(
                    "for loops without a condition are not supported", line
                )
            if a < b:
                init = self.make_stmt(line, *_scan_simple(texts[a:b], kinds[a:b], line))
                self.connect(ends, init)
                ends = [init]
            cond = self.make_stmt(line, *_scan_expr(texts[c:d], kinds[c:d], line))
            self.connect(ends, cond)
            step = self.make_stmt(line, *_scan_expr(texts[e:f], kinds[e:f], line)) if e < f else None
            body_ends = self.parse_statement([cond])
            if step is not None:
                self.connect(body_ends, step)
                body_ends = [step]
            self.connect(body_ends, cond)
            return [cond]
        if text == "return":
            first_line, texts, kinds = self.collect_until_semicolon()
            _, uses = _scan_expr(texts[1:], kinds[1:], first_line)  # skip the keyword
            stmt = self.make_stmt(first_line, set(), uses)
            self.connect(ends, stmt)
            self.connect([stmt], _EXIT)
            return []
        if text == "else":
            raise ParseError(f"line {line}: 'else' without a matching 'if'")
        first_line, texts, kinds = self.collect_until_semicolon()
        stmt = self.make_stmt(first_line, *_scan_simple(texts, kinds, first_line))
        self.connect(ends, stmt)
        return [stmt]


# --- CFG analyses ------------------------------------------------------------


def _immediate_post_dominators(
    succ: dict[int, set[int]], preds: dict[int, set[int]]
) -> dict[int, int | None]:
    """Immediate post-dominator of every statement (None for _EXIT).

    Cooper-Harvey-Kennedy on the reversed CFG: a node's predecessors there
    are its CFG successors, the root is _EXIT, and nodes are visited in
    reverse postorder of an iterative depth-first search from the root. The
    wiring gives every statement a path to _EXIT, so the search reaches all
    of them.
    """
    postorder = _postorder(_EXIT, preds)
    number = {n: i for i, n in enumerate(postorder)}
    ipdom: dict[int, int | None] = {_EXIT: _EXIT}  # the root is its own, until the end
    order = postorder[-2::-1]  # reverse postorder without the root
    changed = True
    while changed:
        changed = False
        for n in order:
            new = None
            for s in succ[n]:
                if s not in ipdom:
                    continue
                if new is None:
                    new = s
                    continue
                # walk both fingers up the tree to their common ancestor
                a, b = s, new
                while a != b:
                    while number[a] < number[b]:
                        a = ipdom[a]
                    while number[b] < number[a]:
                        b = ipdom[b]
                new = a
            if ipdom.get(n) != new:
                ipdom[n] = new
                changed = True
    ipdom[_EXIT] = None
    return ipdom


def _control_dependence(
    stmts: list[_Stmt], succ: dict[int, set[int]], preds: dict[int, set[int]]
) -> list[RawEdge]:
    """Control edges (predicate sid, dependent sid, CONTROL, None) via the
    classic post-dominance frontier walk.

    Each edge is found once. The walk from a's successor s visits the
    statements that post-dominate s and do not strictly post-dominate a. A
    statement on the walks from two successors would post-dominate both, and
    a has two at most, so it would post-dominate a and be a itself; every
    path out of a would then come back to a, and none would reach _EXIT,
    which the wiring gives every statement a path to.

    The walk needs no guard: stop = ipdom[a] post-dominates each successor
    of a, or is it, so the walk up the tree meets it. A construct leaving a
    statement with no path to _EXIT (a goto or a for (;;)) would make it
    raise KeyError rather than silently cut the walk.
    """
    ipdom = _immediate_post_dominators(succ, preds)
    deps: list[RawEdge] = []
    for stmt in stmts:
        a = stmt.sid
        succs = succ[a]
        if len(succs) < 2:
            continue
        stop = ipdom[a]
        for runner in succs:
            while runner != stop:
                deps.append((a, runner, _CONTROL, None))
                runner = ipdom[runner]
    return deps


def _postorder(root: int, edges: dict[int, set[int]]) -> list[int]:
    """The nodes an iterative depth-first search along edges reaches from
    root, in postorder."""
    postorder: list[int] = []
    visited = {root}
    stack = [(root, iter(edges[root]))]
    while stack:
        node, pending = stack[-1]
        for nxt in pending:
            if nxt not in visited:
                visited.add(nxt)
                stack.append((nxt, iter(edges[nxt])))
                break
        else:
            stack.pop()
            postorder.append(node)
    return postorder


def _reaching_definitions(
    stmts: list[_Stmt], succ: dict[int, set[int]], preds: dict[int, set[int]]
) -> list[RawEdge]:
    """Def-use chains as data edges (def sid, use sid, DATA, variable); sids
    are 0..n-1.

    Bit k of a set stands for the definition made by statement def_sid[k];
    mask[v] holds the bits of every definition of v, which any statement
    defining v kills. The scan runs up the sids and evaluates each statement
    whose predecessors' OUT changed since it was last evaluated. When a
    statement's OUT changes and one of its successors has a smaller sid (the
    edge closes a loop, and the successor heads it), the scan resumes at that
    successor, so the loop settles before the code after it is evaluated.
    The scan only ever goes back from u to h along an edge u -> h with
    h <= u, so a statement whose sid lies in no such [h, u] is evaluated
    exactly once.

    Each chain is made once: a statement's uses are a set, and the bits of
    one variable's definitions reaching it stand for distinct statements,
    since a statement makes one bit for each variable it defines.
    """
    def_sid: list[int] = []
    mask: dict[str, int] = {}
    gen: list[int] = []
    for s in stmts:
        g = 0
        for v in s.defs:
            bit = 1 << len(def_sid)
            def_sid.append(s.sid)
            mask[v] = mask.get(v, 0) | bit
            g |= bit
        gen.append(g)
    # what a statement lets through: every definition but those it kills
    keep: list[int] = []
    for s in stmts:
        k = 0
        for v in s.defs:
            k |= mask[v]
        keep.append(~k)

    n = len(stmts)
    out_sets = gen[:]
    in_sets = [0] * n
    pending = [True] * n  # a predecessor's OUT changed since the last evaluation
    sid = 0
    while sid < n:
        if not pending[sid]:
            sid += 1
            continue
        pending[sid] = False
        new_in = 0
        for p in preds.get(sid, ()):
            new_in |= out_sets[p]
        in_sets[sid] = new_in
        new_out = gen[sid] | (new_in & keep[sid])
        resume = sid + 1
        if new_out != out_sets[sid]:
            out_sets[sid] = new_out
            for nxt in succ[sid]:
                if nxt != _EXIT:
                    pending[nxt] = True
                    if nxt < resume:  # a back edge: settle the loop first
                        resume = nxt
        sid = resume
    chains: list[RawEdge] = []
    for s in stmts:
        reaching = in_sets[s.sid]
        if not reaching:
            continue
        for v in s.uses:
            bits = reaching & mask.get(v, 0)
            while bits:
                low = bits & -bits
                chains.append((def_sid[low.bit_length() - 1], s.sid, _DATA, v))
                bits ^= low
    return chains


# --- signature handling -------------------------------------------------------


def _body_start(texts: list[str]) -> int:
    """Index of the first top-level '{': the signature is everything before it."""
    depth = 0
    for idx, text in enumerate(texts):
        if text == "(":
            depth += 1
        elif text == ")":
            depth -= 1
        elif text == "{" and depth == 0:
            return idx
    raise ParseError("no function body found (missing '{')")


def _signature_info(texts: list[str], kinds: list[TokenKind], first_line: int) -> tuple[str, list[str]]:
    """Function name and parameter names of the signature's tokens."""
    if not texts:
        raise ParseError("empty function signature")
    if "(" not in texts or texts[0] == "(":
        raise ParseError(f"line {first_line}: signature has no parameter list")
    open_idx = texts.index("(")
    if kinds[open_idx - 1] is not _IDENTIFIER:
        raise ParseError(f"line {first_line}: cannot find the function name in the signature")
    end_idx = _match_group(texts, open_idx, "(", ")")
    params: list[str] = []
    for a, b in _split_top_level(texts[: end_idx - 1], ",", open_idx + 1):
        if b - a == 1 and kinds[a] is _KEYWORD and texts[a] == "void":
            continue
        idents = [texts[k] for k in range(a, b) if kinds[k] is _IDENTIFIER]
        if idents:
            params.append(idents[-1])
    return texts[open_idx - 1], params


# --- entry point ---------------------------------------------------------------


@dataclass
class _Cfg:
    """A parsed function's statements and their control-flow graph;
    entries[k - 1] is cleaned line k's LineEntry (1-based k)."""

    name: str
    cleaned: list[str]
    entries: list[LineEntry]
    stmts: list[_Stmt]
    succ: dict[int, set[int]]
    preds: dict[int, set[int]]


def _build_cfg(source: str, table: LineTable | None = None) -> _Cfg:
    """Clean, tokenize and parse source, reading each cleaned line once
    through table (a fresh one when None)."""
    if table is None:
        table = {}
    cleaned = _clean_source(source)
    texts: list[str] = []
    kinds: list[TokenKind] = []
    lines: list[int] = []
    entries: list[LineEntry] = []
    for lineno, text in enumerate(cleaned, start=1):
        found = table.get(text) or line_entry(text, table)  # an entry, a 3-tuple, is true
        entries.append(found)
        line_texts = found[0]
        if line_texts:
            texts += line_texts
            kinds += found[1]
            lines += [lineno] * len(line_texts)
    if not texts:
        raise ParseError("no tokens in source")

    body_start = _body_start(texts)
    name, params = _signature_info(texts[:body_start], kinds[:body_start], lines[0])

    texts.append(_END)
    parser = _Parser(texts, kinds, lines, body_start)
    entry = parser.make_stmt(lines[0], set(params), set())
    parser.connect(parser.parse_block([entry]), _EXIT)
    if any(text != ";" for text in texts[parser.i : -1]):  # texts ends in _END
        raise ParseError(f"line {lines[parser.i]}: unexpected tokens after the function body")
    return _Cfg(name, cleaned, entries, parser.stmts, parser.succ, parser.preds)


def parse_function(source: str, table: LineTable | None = None) -> RawDepGraph:
    """Parse one function and return its statement-level dependence graph.

    table, when given, is a lexer.LineTable shared with other parses and
    imports; the graph is the same with or without it."""
    cfg = _build_cfg(source, table)
    control = _control_dependence(cfg.stmts, cfg.succ, cfg.preds)
    chains = _reaching_definitions(cfg.stmts, cfg.succ, cfg.preds)

    # a node carries its whole source line, so an export/import round trip gives
    # the same line surface: str.strip drops only white space the tokenizer
    # skips too, as _clean_source refuses any other outside a literal
    cleaned, entries = cfg.cleaned, cfg.entries
    parts = {}
    for line in {s.line for s in cfg.stmts}:
        parts[line] = cleaned[line - 1].strip(), entries[line - 1][2]
    nodes = [RawNode(s.sid, s.line, *parts[s.line]) for s in cfg.stmts]
    control.sort()
    chains.sort()
    return RawDepGraph(function_id=cfg.name, nodes=nodes, edges=control + chains)
