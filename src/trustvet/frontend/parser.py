"""Parse one self-contained C-like function into a raw dependence graph.

Supported statement forms: declarations, assignments, expression/call
statements, if/else, while, for (with a condition), return, and nested
blocks. Anything else (preprocessor lines, do/switch/goto/break/continue,
for loops without a condition, white space other than C's, such as U+00A0,
outside a comment or literal) raises UnsupportedConstructError naming the
offending line, and so does nesting deeper than MAX_NESTING statements or
subscripts; structural damage (unbalanced braces, truncated statements)
raises ParseError. Failing loudly is deliberate: a partially parsed function
would produce a silently wrong dependence graph.

The recursive descent wires the statement CFG as it parses: each statement
takes the CFG ends that flow into it and returns the ends that flow out.
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
    one bit of a Python int, each variable has a kill mask, and sweeps in
    reverse postorder evaluate IN/OUT of each statement whose predecessors
    changed, to the least fixed point. A sweep costs O(E) big-int
    operations of O(D/64) words for E CFG edges and D definitions;
    loop-free code takes one sweep, and each loop adds about one.
There is no aliasing, no interprocedural flow, and address-of arguments are
treated as plain reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParseError, UnsupportedConstructError
from ..pdg import DepKind, PdgEdge
from .lexer import Token, TokenKind, split_lines, surface, tokenize_line
from .lexer import _blank_comments, _blank_literals, _foreign_space

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


@dataclass
class RawDepGraph:
    """Statement-level dependence graph; nodes may share source lines, and
    edge endpoints are statement ids. The line merge trusts its producers, the
    parser and import_raw_graph: node lines are ints >= 1, edge endpoints are
    node ids, and just data edges carry a variable (edges sort as tuples)."""

    function_id: str
    nodes: list[RawNode]
    edges: list[PdgEdge]


@dataclass
class _Stmt:
    sid: int
    line: int
    defs: set[str]
    uses: set[str]


# --- source cleaning ---------------------------------------------------------


def _clean_source(source: str) -> list[str]:
    """Blank out comments (block comments may span lines) and reject
    preprocessor lines, any other '#', and white space that C does not
    have (U+00A0, say), outside a literal, returning the cleaned source line
    by line; literals are returned as they are."""
    cleaned: list[str] = []
    in_block = False
    for lineno, line in enumerate(split_lines(source), start=1):
        text, in_block = _blank_comments(line, in_block)
        if "#" in text:
            code = _blank_literals(text)
            if code.lstrip().startswith("#"):
                raise UnsupportedConstructError("preprocessor directives are not supported", lineno)
            if "#" in code:
                raise UnsupportedConstructError("'#' outside a comment or literal", lineno)
        refused = _foreign_space(text)
        if refused:
            raise UnsupportedConstructError(refused, lineno)
        cleaned.append(text)
    return cleaned


# --- def/use extraction ------------------------------------------------------


def _match_group(tokens: list[Token], i: int, open_text: str, close_text: str) -> int:
    """Index just past the punct group opened at tokens[i]."""
    depth = 0
    for j in range(i, len(tokens)):
        text = tokens[j].text
        if text == open_text:
            depth += 1
        elif text == close_text:
            depth -= 1
            if depth == 0:
                return j + 1
    raise ParseError(f"unbalanced '{open_text}' in expression")


def _scan_expr(tokens: list[Token], line: int, depth: int = 0) -> tuple[set[str], set[str]]:
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
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind is not _IDENTIFIER:
            i += 1
            continue
        prev = tokens[i - 1].text if i else None
        if prev in _MEMBER_OPS:
            i += 1  # member name, not a variable
            continue
        if i + 1 < n and tokens[i + 1].text == "(":
            i += 1  # called-function name
            continue
        name = t.text
        # swallow the postfix chain: subscripts contribute uses, member names vanish
        j = i + 1
        while j < n:
            text = tokens[j].text
            if text == "[":
                end = _match_group(tokens, j, "[", "]")
                d2, u2 = _scan_expr(tokens[j + 1 : end - 1], line, depth + 1)
                defs |= d2
                uses |= u2
                j = end
            elif text in _MEMBER_OPS and j + 1 < n and tokens[j + 1].kind is _IDENTIFIER:
                j += 2
            else:
                break
        after = tokens[j].text if j < n else None
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


def _split_top_level(tokens: list[Token], sep_text: str) -> list[list[Token]]:
    parts: list[list[Token]] = [[]]
    depth = 0
    for t in tokens:
        if t.text in _OPENERS:
            depth += 1
        elif t.text in _CLOSERS:
            depth -= 1
        elif t.text == sep_text and depth == 0:
            parts.append([])
            continue
        parts[-1].append(t)
    return parts


def _typedef_declarator(tokens: list[Token], i: int) -> int:
    """Index of the name when tokens[i:] starts IDENT '*'* IDENT, a typedef'd
    type, its stars and a declared name; else -1."""
    n = len(tokens)
    if i >= n or tokens[i].kind is not _IDENTIFIER:
        return -1
    j = i + 1
    while j < n and tokens[j].text == "*":
        j += 1
    return j if j < n and tokens[j].kind is _IDENTIFIER else -1


def _is_declaration(tokens: list[Token]) -> bool:
    if tokens and tokens[0].kind is _KEYWORD and tokens[0].text in _TYPE_KEYWORDS:
        return True
    # typedef'd type, its name followed by '=' ',' '[' or statement end
    j = _typedef_declarator(tokens, 0)
    return j >= 0 and (j + 1 == len(tokens) or tokens[j + 1].text in {"=", ",", "["})


def _scan_decl(tokens: list[Token], line: int) -> tuple[set[str], set[str]]:
    """Defs and uses of a declaration (leading type stripped, then one
    declarator per top-level comma)."""
    i = 0
    n = len(tokens)
    while i < n and tokens[i].kind is _KEYWORD and tokens[i].text in _TYPE_KEYWORDS:
        if tokens[i].text in {"struct", "union", "enum"} and i + 1 < n and tokens[i + 1].kind is _IDENTIFIER:
            i += 2
        else:
            i += 1
    if _typedef_declarator(tokens, i) >= 0:
        i += 1  # typedef'd type name
    defs: set[str] = set()
    uses: set[str] = set()
    for declarator in _split_top_level(tokens[i:], ","):
        k = 0
        m = len(declarator)
        while k < m and declarator[k].text == "*":
            k += 1
        if k >= m or declarator[k].kind is not _IDENTIFIER:
            continue
        defs.add(declarator[k].text)
        k += 1
        while k < m and declarator[k].text == "[":
            end = _match_group(declarator, k, "[", "]")
            _, u2 = _scan_expr(declarator[k + 1 : end - 1], line, 1)
            uses |= u2
            k = end
        if k < m and declarator[k].text == "=":
            d2, u2 = _scan_expr(declarator[k + 1 :], line)
            defs |= d2
            uses |= u2
    return defs, uses


def _scan_simple(tokens: list[Token], line: int) -> tuple[set[str], set[str]]:
    """Defs and uses of a declaration or an expression statement."""
    return (_scan_decl if _is_declaration(tokens) else _scan_expr)(tokens, line)


# --- recursive-descent statement parser, wiring the CFG as it descends -------


class _Parser:
    """Walks the token stream as three parallel lists: each token's text
    (with _END appended), its source line, and the token."""

    def __init__(self, texts: list[str], lines: list[int], tokens: list[Token], start: int):
        self.texts = texts
        self.lines = lines
        self.tokens = tokens
        self.i = start
        self.stmts: list[_Stmt] = []
        self.depth = 0  # parse_statement calls currently open
        self.succ: dict[int, set[int]] = {}
        self.preds: dict[int, set[int]] = {}

    def expect_punct(self, text: str) -> None:
        found = self.texts[self.i]
        if found != text:
            if found == _END:
                raise ParseError(f"expected '{text}' but reached end of input")
            raise ParseError(f"line {self.lines[self.i]}: expected '{text}', found '{found}'")
        self.i += 1

    def make_stmt(self, line: int, defs: set[str], uses: set[str]) -> int:
        """Record a statement; ids count up from 0 in parse order."""
        self.stmts.append(_Stmt(len(self.stmts), line, defs, uses))
        return len(self.stmts) - 1

    def collect_until_semicolon(self) -> tuple[int, list[Token]]:
        """Tokens of one simple statement, excluding the terminating ';'."""
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
                    return self.lines[start], self.tokens[start:i]
            i += 1

    def collect_paren_group(self) -> list[Token]:
        """Contents of a parenthesized group, excluding the parens."""
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
                    return self.tokens[start:i]
            elif text == _END:
                raise ParseError(f"line {self.lines[start - 1]}: unbalanced '(' ")
            i += 1

    def connect(self, ends: list[int], target: int) -> None:
        for e in ends:
            self.succ.setdefault(e, set()).add(target)
            self.preds.setdefault(target, set()).add(e)

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
            cond_toks = self.collect_paren_group()
            cond = self.make_stmt(line, *_scan_expr(cond_toks, line))
            self.connect(ends, cond)
            out = self.parse_statement([cond])
            if self.texts[self.i] == "else":
                self.i += 1
                return out + self.parse_statement([cond])
            return out + [cond]
        if text == "while":
            self.i += 1
            cond_toks = self.collect_paren_group()
            cond = self.make_stmt(line, *_scan_expr(cond_toks, line))
            self.connect(ends, cond)
            self.connect(self.parse_statement([cond]), cond)
            return [cond]
        if text == "for":
            self.i += 1
            parts = _split_top_level(self.collect_paren_group(), ";")
            if len(parts) != 3:
                raise UnsupportedConstructError(
                    "for header must have exactly two ';' separators", line
                )
            init_toks, cond_toks, step_toks = parts
            if not cond_toks:
                raise UnsupportedConstructError(
                    "for loops without a condition are not supported", line
                )
            if init_toks:
                init = self.make_stmt(line, *_scan_simple(init_toks, line))
                self.connect(ends, init)
                ends = [init]
            cond = self.make_stmt(line, *_scan_expr(cond_toks, line))
            self.connect(ends, cond)
            step = self.make_stmt(line, *_scan_expr(step_toks, line)) if step_toks else None
            body_ends = self.parse_statement([cond])
            if step is not None:
                self.connect(body_ends, step)
                body_ends = [step]
            self.connect(body_ends, cond)
            return [cond]
        if text == "return":
            first_line, toks = self.collect_until_semicolon()
            _, uses = _scan_expr(toks[1:], first_line)  # skip the keyword
            stmt = self.make_stmt(first_line, set(), uses)
            self.connect(ends, stmt)
            self.connect([stmt], _EXIT)
            return []
        if text == "else":
            raise ParseError(f"line {line}: 'else' without a matching 'if'")
        first_line, toks = self.collect_until_semicolon()
        stmt = self.make_stmt(first_line, *_scan_simple(toks, first_line))
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
    postorder = _postorder([_EXIT], preds, set())
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
) -> set[tuple[int, int]]:
    """Pairs (predicate sid, dependent sid) via the classic post-dominance
    frontier walk."""
    ipdom = _immediate_post_dominators(succ, preds)
    deps: set[tuple[int, int]] = set()
    for stmt in stmts:
        a = stmt.sid
        succs = succ.get(a, set())
        if len(succs) < 2:
            continue
        stop = ipdom.get(a)
        for s in succs:
            runner = s
            seen: set[int] = set()
            while runner != stop and runner != _EXIT and runner not in seen:
                seen.add(runner)
                deps.add((a, runner))
                nxt = ipdom.get(runner)
                if nxt is None:
                    break
                runner = nxt
    return deps


def _postorder(roots, edges: dict[int, set[int]], visited: set[int]) -> list[int]:
    """The nodes an iterative depth-first search along edges reaches from
    each root in turn, in postorder. A node in visited is not entered, and
    every node entered is added to it."""
    postorder: list[int] = []
    for root in roots:
        if root in visited:
            continue
        visited.add(root)
        stack = [(root, iter(edges.get(root, ())))]
        while stack:
            node, pending = stack[-1]
            for nxt in pending:
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, iter(edges.get(nxt, ()))))
                    break
            else:
                stack.pop()
                postorder.append(node)
    return postorder


def _reaching_definitions(
    stmts: list[_Stmt], succ: dict[int, set[int]], preds: dict[int, set[int]]
) -> set[tuple[int, int, str]]:
    """Def-use chains as (def sid, use sid, variable); sids are 0..n-1.

    Bit k of a set stands for the definition made by statement def_sid[k];
    mask[v] holds the bits of every definition of v, which any statement
    defining v kills. Sweeps in reverse postorder evaluate each statement
    whose predecessors' OUT changed since it was last evaluated, until a
    sweep leaves none: a loop-free CFG takes one sweep, each loop adds one
    for the definitions its back edge carries.
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
    # reverse postorder from the entry, then from each statement it did not
    # reach (code after a return); on a loop-free CFG every edge runs forward
    order = _postorder(range(n), succ, {_EXIT})[::-1]
    position = [0] * n
    for at, sid in enumerate(order):
        position[sid] = at
    out_sets = gen[:]
    in_sets = [0] * n
    pending = [True] * n  # a predecessor's OUT changed since the last evaluation
    again = True
    while again:
        again = False
        for sid in order:
            if not pending[sid]:
                continue
            pending[sid] = False
            new_in = 0
            for p in preds.get(sid, ()):
                new_in |= out_sets[p]
            in_sets[sid] = new_in
            new_out = gen[sid] | (new_in & keep[sid])
            if new_out != out_sets[sid]:
                out_sets[sid] = new_out
                here = position[sid]
                for nxt in succ.get(sid, ()):
                    if nxt != _EXIT:
                        pending[nxt] = True
                        again = again or position[nxt] <= here  # a back edge
    chains: set[tuple[int, int, str]] = set()
    for s in stmts:
        reaching = in_sets[s.sid]
        if not reaching:
            continue
        for v in s.uses:
            bits = reaching & mask.get(v, 0)
            while bits:
                low = bits & -bits
                chains.add((def_sid[low.bit_length() - 1], s.sid, v))
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


def _signature_info(tokens: list[Token], first_line: int) -> tuple[str, list[str]]:
    """Function name and parameter names of the signature's tokens."""
    if not tokens:
        raise ParseError("empty function signature")
    open_idx = None
    for idx, tok in enumerate(tokens):
        if tok.text == "(":
            open_idx = idx
            break
    if open_idx is None or open_idx == 0:
        raise ParseError(f"line {first_line}: signature has no parameter list")
    name_tok = tokens[open_idx - 1]
    if name_tok.kind is not _IDENTIFIER:
        raise ParseError(f"line {first_line}: cannot find the function name in the signature")
    end_idx = _match_group(tokens, open_idx, "(", ")")
    params: list[str] = []
    inner = tokens[open_idx + 1 : end_idx - 1]
    for part in _split_top_level(inner, ","):
        idents = [t.text for t in part if t.kind is _IDENTIFIER]
        if not part or (len(part) == 1 and part[0].kind is _KEYWORD and part[0].text == "void"):
            continue
        if idents:
            params.append(idents[-1])
    return name_tok.text, params


# --- entry point ---------------------------------------------------------------


@dataclass
class _Cfg:
    """A parsed function's statements and their control-flow graph."""

    name: str
    cleaned: list[str]
    tokens: list[list[Token]]  # of each cleaned line
    stmts: list[_Stmt]
    succ: dict[int, set[int]]
    preds: dict[int, set[int]]


def _build_cfg(source: str) -> _Cfg:
    cleaned = _clean_source(source)
    tokens = [tokenize_line(text) for text in cleaned]
    stream = [tok for line in tokens for tok in line]
    if not stream:
        raise ParseError("no tokens in source")
    lines = [lineno for lineno, line in enumerate(tokens, start=1) for _ in line]
    texts = [tok.text for tok in stream]

    body_start = _body_start(texts)
    name, params = _signature_info(stream[:body_start], lines[0])

    texts.append(_END)
    parser = _Parser(texts, lines, stream, body_start)
    entry = parser.make_stmt(lines[0], set(params), set())
    parser.connect(parser.parse_block([entry]), _EXIT)
    if any(text != ";" for text in texts[parser.i : -1]):  # texts ends in _END
        raise ParseError(f"line {lines[parser.i]}: unexpected tokens after the function body")
    return _Cfg(name, cleaned, tokens, parser.stmts, parser.succ, parser.preds)


def parse_function(source: str) -> RawDepGraph:
    """Parse one function and return its statement-level dependence graph."""
    cfg = _build_cfg(source)
    control = _control_dependence(cfg.stmts, cfg.succ, cfg.preds)
    chains = _reaching_definitions(cfg.stmts, cfg.succ, cfg.preds)

    # a node carries its whole source line, so an export/import round trip gives
    # the same line surface: str.strip drops only white space the tokenizer
    # skips too, as _clean_source refuses any other outside a literal
    parts = {}
    for line in {s.line for s in cfg.stmts}:
        parts[line] = cfg.cleaned[line - 1].strip(), surface(cfg.tokens[line - 1])
    nodes = [RawNode(s.sid, s.line, *parts[s.line]) for s in cfg.stmts]
    edges = [PdgEdge._make((a, w, _CONTROL, None)) for a, w in sorted(control)]
    edges += [PdgEdge._make((d, u, _DATA, v)) for d, u, v in sorted(chains)]
    return RawDepGraph(function_id=cfg.name, nodes=nodes, edges=edges)
