"""Parse one self-contained C-like function into a raw dependence graph.

Supported statement forms: declarations, assignments, expression/call
statements, if/else, while, for (with a condition), return, and nested
blocks. Anything else (preprocessor lines, do/switch/goto/break/continue,
for loops without a condition) raises UnsupportedConstructError naming the
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
    one bit of a Python int, each variable has a kill mask, and a FIFO
    worklist iterates IN/OUT to the least fixed point, so a pass costs
    O(E) big-int operations of O(D/64) words for E CFG edges and D
    definitions.
There is no aliasing, no interprocedural flow, and address-of arguments are
treated as plain reads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import ParseError, UnsupportedConstructError
from ..pdg import DepKind, PdgEdge
from .lexer import Token, TokenKind, _blank_comments, _blank_literals, split_lines, surface, tokenize_line

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
_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
_MEMBER_OPS = {".", "->"}
_INCDEC_OPS = {"++", "--"}


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
    preprocessor lines and any other '#' outside a literal, returning the
    cleaned source line by line; literals are returned as they are."""
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
        cleaned.append(text)
    return cleaned


# --- def/use extraction ------------------------------------------------------


def _match_group(tokens: list[Token], i: int, open_text: str, close_text: str) -> int:
    """Index just past the punct group opened at tokens[i]."""
    depth = 0
    j = i
    while j < len(tokens):
        t = tokens[j]
        if t.kind is TokenKind.PUNCT:
            if t.text == open_text:
                depth += 1
            elif t.text == close_text:
                depth -= 1
                if depth == 0:
                    return j + 1
        j += 1
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
        if t.kind is not TokenKind.IDENTIFIER:
            i += 1
            continue
        prev = tokens[i - 1] if i > 0 else None
        if prev is not None and prev.kind is TokenKind.OPERATOR and prev.text in _MEMBER_OPS:
            i += 1  # member name, not a variable
            continue
        nxt = tokens[i + 1] if i + 1 < n else None
        if nxt is not None and nxt.kind is TokenKind.PUNCT and nxt.text == "(":
            i += 1  # called-function name
            continue
        name = t.text
        # swallow the postfix chain: subscripts contribute uses, member names vanish
        j = i + 1
        while j < n:
            tj = tokens[j]
            if tj.kind is TokenKind.PUNCT and tj.text == "[":
                end = _match_group(tokens, j, "[", "]")
                d2, u2 = _scan_expr(tokens[j + 1 : end - 1], line, depth + 1)
                defs |= d2
                uses |= u2
                j = end
            elif (
                tj.kind is TokenKind.OPERATOR
                and tj.text in _MEMBER_OPS
                and j + 1 < n
                and tokens[j + 1].kind is TokenKind.IDENTIFIER
            ):
                j += 2
            else:
                break
        after = tokens[j] if j < n else None
        if after is not None and after.kind is TokenKind.OPERATOR and after.text in _ASSIGN_OPS:
            defs.add(name)
            if after.text != "=":
                uses.add(name)
            i = j + 1
            continue
        if after is not None and after.kind is TokenKind.OPERATOR and after.text in _INCDEC_OPS:
            defs.add(name)
            uses.add(name)
            i = j + 1
            continue
        if prev is not None and prev.kind is TokenKind.OPERATOR and prev.text in _INCDEC_OPS:
            defs.add(name)
            uses.add(name)
            i = j
            continue
        uses.add(name)
        i = j
    return defs, uses


def _split_top_level(tokens: list[Token], sep_text: str) -> list[list[Token]]:
    parts: list[list[Token]] = [[]]
    depth = 0
    for t in tokens:
        if t.kind is TokenKind.PUNCT:
            if t.text in "([{":
                depth += 1
            elif t.text in ")]}":
                depth -= 1
            elif t.text == sep_text and depth == 0:
                parts.append([])
                continue
        parts[-1].append(t)
    return parts


def _is_declaration(tokens: list[Token]) -> bool:
    if not tokens:
        return False
    t0 = tokens[0]
    if t0.kind is TokenKind.KEYWORD and t0.text in _TYPE_KEYWORDS:
        return True
    # typedef'd type: IDENT '*'* IDENT followed by '=' ',' '[' or statement end
    if t0.kind is not TokenKind.IDENTIFIER:
        return False
    j = 1
    while j < len(tokens) and tokens[j].kind is TokenKind.OPERATOR and tokens[j].text == "*":
        j += 1
    if j < len(tokens) and tokens[j].kind is TokenKind.IDENTIFIER:
        after = tokens[j + 1] if j + 1 < len(tokens) else None
        return after is None or after.text in {"=", ",", "["}
    return False


def _scan_decl(tokens: list[Token], line: int) -> tuple[set[str], set[str]]:
    """Defs and uses of a declaration (leading type stripped, then one
    declarator per top-level comma)."""
    i = 0
    n = len(tokens)
    while i < n and tokens[i].kind is TokenKind.KEYWORD and tokens[i].text in _TYPE_KEYWORDS:
        if tokens[i].text in {"struct", "union", "enum"} and i + 1 < n and tokens[i + 1].kind is TokenKind.IDENTIFIER:
            i += 2
        else:
            i += 1
    if i < n and tokens[i].kind is TokenKind.IDENTIFIER:
        # typedef'd type name: skip it when another identifier follows the stars
        j = i + 1
        while j < n and tokens[j].kind is TokenKind.OPERATOR and tokens[j].text == "*":
            j += 1
        if j < n and tokens[j].kind is TokenKind.IDENTIFIER:
            i += 1
    defs: set[str] = set()
    uses: set[str] = set()
    for declarator in _split_top_level(tokens[i:], ","):
        k = 0
        m = len(declarator)
        while k < m and declarator[k].kind is TokenKind.OPERATOR and declarator[k].text == "*":
            k += 1
        if k >= m or declarator[k].kind is not TokenKind.IDENTIFIER:
            continue
        defs.add(declarator[k].text)
        k += 1
        while k < m and declarator[k].kind is TokenKind.PUNCT and declarator[k].text == "[":
            end = _match_group(declarator, k, "[", "]")
            _, u2 = _scan_expr(declarator[k + 1 : end - 1], line, 1)
            uses |= u2
            k = end
        if k < m and declarator[k].kind is TokenKind.OPERATOR and declarator[k].text == "=":
            d2, u2 = _scan_expr(declarator[k + 1 :], line)
            defs |= d2
            uses |= u2
    return defs, uses


def _scan_simple(tokens: list[Token], line: int) -> tuple[set[str], set[str]]:
    """Defs and uses of a declaration or an expression statement."""
    return (_scan_decl if _is_declaration(tokens) else _scan_expr)(tokens, line)


# --- recursive-descent statement parser, wiring the CFG as it descends -------


class _Parser:
    def __init__(self, stream: list[tuple[int, Token]]):
        self.stream = stream
        self.i = 0
        self.stmts: list[_Stmt] = []
        self.depth = 0  # parse_statement calls currently open
        self.succ: dict[int, set[int]] = {}
        self.preds: dict[int, set[int]] = {}

    def peek(self) -> tuple[int, Token] | None:
        return self.stream[self.i] if self.i < len(self.stream) else None

    def advance(self) -> tuple[int, Token]:
        item = self.stream[self.i]
        self.i += 1
        return item

    def expect_punct(self, text: str) -> int:
        item = self.peek()
        if item is None:
            raise ParseError(f"expected '{text}' but reached end of input")
        line, tok = item
        if tok.kind is not TokenKind.PUNCT or tok.text != text:
            raise ParseError(f"line {line}: expected '{text}', found '{tok.text}'")
        self.advance()
        return line

    def make_stmt(self, line: int, defs: set[str], uses: set[str]) -> int:
        """Record a statement; ids count up from 0 in parse order."""
        self.stmts.append(_Stmt(len(self.stmts), line, defs, uses))
        return len(self.stmts) - 1

    def collect_until_semicolon(self) -> tuple[int, list[Token]]:
        """Tokens of one simple statement, excluding the terminating ';'."""
        item = self.peek()
        if item is None:
            raise ParseError("expected a statement but reached end of input")
        first_line = item[0]
        tokens: list[Token] = []
        depth = 0
        while True:
            item = self.peek()
            if item is None:
                raise ParseError(f"line {first_line}: statement is missing its ';'")
            line, tok = item
            if tok.kind is TokenKind.PUNCT:
                if tok.text in "([{":
                    depth += 1
                elif tok.text in ")]}":
                    if depth == 0:
                        raise ParseError(f"line {line}: unexpected '{tok.text}' inside a statement")
                    depth -= 1
                elif tok.text == ";" and depth == 0:
                    self.advance()
                    return first_line, tokens
            tokens.append(tok)
            self.advance()

    def collect_paren_group(self) -> tuple[int, list[Token]]:
        """Contents of a parenthesized group, excluding the parens."""
        line = self.expect_punct("(")
        tokens: list[Token] = []
        depth = 1
        while True:
            item = self.peek()
            if item is None:
                raise ParseError(f"line {line}: unbalanced '(' ")
            tline, tok = item
            if tok.kind is TokenKind.PUNCT:
                if tok.text == "(":
                    depth += 1
                elif tok.text == ")":
                    depth -= 1
                    if depth == 0:
                        self.advance()
                        return line, tokens
            tokens.append(tok)
            self.advance()

    def connect(self, ends: list[int], target: int) -> None:
        for e in ends:
            self.succ.setdefault(e, set()).add(target)
            self.preds.setdefault(target, set()).add(e)

    def parse_block(self, ends: list[int]) -> list[int]:
        """Parse a braced block entered from the CFG `ends`; return its ends."""
        self.expect_punct("{")
        while True:
            item = self.peek()
            if item is None:
                raise ParseError("unbalanced '{': reached end of input inside a block")
            _, tok = item
            if tok.kind is TokenKind.PUNCT and tok.text == "}":
                self.advance()
                return ends
            ends = self.parse_statement(ends)

    def parse_statement(self, ends: list[int]) -> list[int]:
        """Parse one statement entered from the CFG `ends`, wiring its edges;
        return the ends that flow out of it ([] after a return)."""
        item = self.peek()
        if item is None:
            raise ParseError("expected a statement but reached end of input")
        line, tok = item
        if self.depth >= MAX_NESTING:
            raise UnsupportedConstructError(
                f"statements nested more than {MAX_NESTING} deep are not supported", line
            )
        self.depth += 1
        try:
            return self._parse_statement(line, tok, ends)
        finally:
            self.depth -= 1

    def _parse_statement(self, line: int, tok: Token, ends: list[int]) -> list[int]:
        if tok.kind is TokenKind.PUNCT and tok.text == "{":
            return self.parse_block(ends)
        if tok.kind is TokenKind.PUNCT and tok.text == ";":
            self.advance()
            return ends
        if tok.kind is TokenKind.KEYWORD:
            if tok.text in _UNSUPPORTED_KEYWORDS:
                raise UnsupportedConstructError(f"'{tok.text}' statements are not supported", line)
            if tok.text == "if":
                self.advance()
                _, cond_toks = self.collect_paren_group()
                cond = self.make_stmt(line, *_scan_expr(cond_toks, line))
                self.connect(ends, cond)
                out = self.parse_statement([cond])
                nxt = self.peek()
                if nxt is not None and nxt[1].kind is TokenKind.KEYWORD and nxt[1].text == "else":
                    self.advance()
                    return out + self.parse_statement([cond])
                return out + [cond]
            if tok.text == "while":
                self.advance()
                _, cond_toks = self.collect_paren_group()
                cond = self.make_stmt(line, *_scan_expr(cond_toks, line))
                self.connect(ends, cond)
                self.connect(self.parse_statement([cond]), cond)
                return [cond]
            if tok.text == "for":
                self.advance()
                _, group = self.collect_paren_group()
                parts = _split_top_level(group, ";")
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
            if tok.text == "return":
                first_line, toks = self.collect_until_semicolon()
                _, uses = _scan_expr(toks[1:], first_line)  # skip the keyword
                stmt = self.make_stmt(first_line, set(), uses)
                self.connect(ends, stmt)
                self.connect([stmt], _EXIT)
                return []
            if tok.text == "else":
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
    postorder: list[int] = []
    visited = {_EXIT}
    stack = [(_EXIT, iter(preds.get(_EXIT, ())))]
    while stack:
        node, pending = stack[-1]
        for p in pending:
            if p not in visited:
                visited.add(p)
                stack.append((p, iter(preds.get(p, ()))))
                break
        else:
            stack.pop()
            postorder.append(node)
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


def _reaching_definitions(
    stmts: list[_Stmt], succ: dict[int, set[int]], preds: dict[int, set[int]]
) -> set[tuple[int, int, str]]:
    """Def-use chains as (def sid, use sid, variable).

    Bit k of a set stands for the definition made by statement def_sid[k];
    mask[v] holds the bits of every definition of v, which any statement
    defining v kills.
    """
    def_sid: list[int] = []
    mask: dict[str, int] = {}
    gen: dict[int, int] = {}
    for s in stmts:
        g = 0
        for v in s.defs:
            bit = 1 << len(def_sid)
            def_sid.append(s.sid)
            mask[v] = mask.get(v, 0) | bit
            g |= bit
        gen[s.sid] = g
    # what a statement lets through: every definition but those it kills
    keep: dict[int, int] = {}
    for s in stmts:
        k = 0
        for v in s.defs:
            k |= mask[v]
        keep[s.sid] = ~k
    out_sets = dict(gen)
    in_sets = dict.fromkeys(gen, 0)
    work = deque(gen)
    queued = set(gen)
    while work:
        sid = work.popleft()
        queued.discard(sid)
        new_in = 0
        for p in preds.get(sid, ()):
            new_in |= out_sets[p]
        in_sets[sid] = new_in
        new_out = gen[sid] | (new_in & keep[sid])
        if new_out != out_sets[sid]:
            out_sets[sid] = new_out
            for nxt in succ.get(sid, ()):
                if nxt != _EXIT and nxt not in queued:
                    queued.add(nxt)
                    work.append(nxt)
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


def _split_signature(stream: list[tuple[int, Token]]) -> tuple[list[tuple[int, Token]], int]:
    """Split off the signature: everything before the first top-level '{'."""
    depth = 0
    for idx, (line, tok) in enumerate(stream):
        if tok.kind is TokenKind.PUNCT:
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                depth -= 1
            elif tok.text == "{" and depth == 0:
                return stream[:idx], idx
    raise ParseError("no function body found (missing '{')")


def _signature_info(sig: list[tuple[int, Token]]) -> tuple[str, list[str], int]:
    """Function name, parameter names, and the signature's first line."""
    if not sig:
        raise ParseError("empty function signature")
    first_line = sig[0][0]
    tokens = [tok for _, tok in sig]
    open_idx = None
    for idx, tok in enumerate(tokens):
        if tok.kind is TokenKind.PUNCT and tok.text == "(":
            open_idx = idx
            break
    if open_idx is None or open_idx == 0:
        raise ParseError(f"line {first_line}: signature has no parameter list")
    name_tok = tokens[open_idx - 1]
    if name_tok.kind is not TokenKind.IDENTIFIER:
        raise ParseError(f"line {first_line}: cannot find the function name in the signature")
    end_idx = _match_group(tokens, open_idx, "(", ")")
    params: list[str] = []
    inner = tokens[open_idx + 1 : end_idx - 1]
    for part in _split_top_level(inner, ","):
        idents = [t.text for t in part if t.kind is TokenKind.IDENTIFIER]
        if not part or (len(part) == 1 and part[0].kind is TokenKind.KEYWORD and part[0].text == "void"):
            continue
        if idents:
            params.append(idents[-1])
    return name_tok.text, params, first_line


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
    stream = [(lineno, tok) for lineno, line in enumerate(tokens, start=1) for tok in line]
    if not stream:
        raise ParseError("no tokens in source")

    sig, body_start = _split_signature(stream)
    name, params, sig_line = _signature_info(sig)

    parser = _Parser(stream[body_start:])
    entry = parser.make_stmt(sig_line, set(params), set())
    parser.connect(parser.parse_block([entry]), _EXIT)
    rest = parser.stream[parser.i :]
    if any(tok.kind is not TokenKind.PUNCT or tok.text != ";" for _, tok in rest):
        raise ParseError(f"line {rest[0][0]}: unexpected tokens after the function body")
    return _Cfg(name, cleaned, tokens, parser.stmts, parser.succ, parser.preds)


def parse_function(source: str) -> RawDepGraph:
    """Parse one function and return its statement-level dependence graph."""
    cfg = _build_cfg(source)
    control = _control_dependence(cfg.stmts, cfg.succ, cfg.preds)
    chains = _reaching_definitions(cfg.stmts, cfg.succ, cfg.preds)

    # a node carries its whole source line, so an export/import round trip gives
    # the same line surface; str.strip may drop a token (U+00A0, say), if rarely
    parts = {}
    for line in {s.line for s in cfg.stmts}:
        text = cfg.cleaned[line - 1]
        code = text.strip()
        tokens = cfg.tokens[line - 1] if code == text.strip(" \t\r\n\f\v") else tokenize_line(code)
        parts[line] = code, surface(tokens)
    nodes = [RawNode(s.sid, s.line, *parts[s.line]) for s in cfg.stmts]
    edges = [PdgEdge(a, w, DepKind.CONTROL) for a, w in sorted(control)]
    edges += [PdgEdge(d, u, DepKind.DATA, v) for d, u, v in sorted(chains)]
    return RawDepGraph(function_id=cfg.name, nodes=nodes, edges=edges)
