"""Line-level lexing for a C-like language: the one reader of code text.

scan_line decides how a line is tokenized. It gives a line's tokens as two
parallel tuples, their texts and their kinds, the one format that the
parser, the graph import, the normal form and the feature views read;
tokenize_line gives the same tokens as Token tuples. The scan is total: an
unknown character becomes a one-character Punct token rather than an error,
because line normalization, n-gram features and variable extraction must
cope with arbitrary source lines. One regex findall scans a line: each
match is the text of one token, or empty for white space and comments. A
token's kind is that of the fixed table for its text, or else comes from its
first character, by the same ASCII classes the pattern matches on: a letter
or "_" starts an identifier, a digit or "." a number, a quote a literal, and
anything else is one Punct character. The fixed table holds C's
punctuation, its operators and the C99 keywords; it is built at import from
constants here, so the package reads no data file.

code_lines decides which text of a source is code. It blanks every comment,
a block comment that spans lines included, and a "//" comment whose line
ends in a backslash on through the next line, as C's line splice makes it
(a backslash at the end of code or inside a literal splices nothing). It
names each line with white space that C does not have (U+00A0, say)
outside a comment or literal. The parser, ingest and the diff reader all
take a source's lines from it, so none of them reads comment text as code.

A line's tokens depend on its text alone, so a LineTable maps each code line
already read to its LineEntry: its token texts and kinds and its surface.
The parser and the graph import take one; run_evaluation shares one table
across its corpus, so a line that many records repeat ("}", "return 0;") is
tokenized once per run. A table holds at most LINE_TABLE_LIMIT entries, and
the package keeps none of its own between calls.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple, Sequence


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    LITERAL = "literal"
    OPERATOR = "operator"
    PUNCT = "punct"


class Token(NamedTuple):
    """One token; as a tuple it equals (kind, text)."""

    kind: TokenKind
    text: str


# Placeholder texts for collapsed literals. String/char literal contents are
# never preserved: two lines differing only in string contents tokenize alike.
STRING_LITERAL = "STR"
CHAR_LITERAL = "CHR"

# C's lexical rules, once. Comments and string/char literals are shared by
# the tokenizer and by code_lines, so the two cannot disagree on where a
# comment starts or a literal ends. A literal runs to its closing quote,
# skipping backslash escapes, or to the end of the text; an unterminated
# "/*" runs to the end of the text.
_LINE_COMMENT = r"//.*"
_BLOCK_COMMENT = r"/\*.*?\*/"
_OPEN_COMMENT = r"/\*.*"
_STRING = r'"(?:[^"\\]|\\.)*["\\]?'
_CHAR = r"'(?:[^'\\]|\\.)*['\\]?"
# C preprocessing number: a digit (or "." and a digit), then identifier
# characters, dots, and a sign directly after an exponent marker ("1e-9").
_NUMBER = r"(?:[0-9]|\.[0-9])(?:[eEpP][+-]|[A-Za-z0-9_.])*"
_WORD = r"[A-Za-z_][A-Za-z0-9_]*"
_OPERATORS = (
    ">>=", "<<=",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ".",
)

# One match per token; white space and comments match with the group empty.
# The alternatives are tried in order, the operators longest first (maximal
# munch), and any other single character is a Punct token. DOTALL: a "//" or
# an open "/*" swallows the rest of the text, newlines included.
_TOKEN = re.compile(
    rf"(?:[ \t\r\n\f\v]+|{_LINE_COMMENT}|{_BLOCK_COMMENT}|{_OPEN_COMMENT})"
    rf"|({_STRING}|{_CHAR}|{_NUMBER}|{_WORD}|{'|'.join(map(re.escape, _OPERATORS))}|.)",
    re.DOTALL,
)
# First characters of _WORD and _NUMBER; a lone "." is in the fixed table.
_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NUMBER_START = frozenset("0123456789.")
# First characters of the pieces outside the fixed table that are not Punct.
_CODE_START = _WORD_START | _NUMBER_START | frozenset("\"'")
# First characters that start a word or a number whatever follows them.
_WORD_OR_DIGIT_START = _WORD_START | frozenset("0123456789")
_IDENTIFIER, _LITERAL, _PUNCT = TokenKind.IDENTIFIER, TokenKind.LITERAL, TokenKind.PUNCT

# Comments to blank (group 1 is an open "/*") and literals to keep as they are.
_COMMENT_OR_LITERAL = re.compile(
    rf"{_LINE_COMMENT}|{_BLOCK_COMMENT}|({_OPEN_COMMENT})|{_STRING}|{_CHAR}", re.DOTALL
)
_STRING_OR_CHAR = re.compile(rf"{_STRING}|{_CHAR}", re.DOTALL)


_KEYWORDS = frozenset(
    "auto break case char const continue default do double else enum extern float for goto if"
    " inline int long register restrict return short signed sizeof static struct switch typedef"
    " union unsigned void volatile while".split()
)

# The kinds of operators, keywords and C punctuation, by their text.
_FIXED_KINDS = dict.fromkeys("(){}[];,", TokenKind.PUNCT)
_FIXED_KINDS.update(dict.fromkeys(_OPERATORS, TokenKind.OPERATOR))
_FIXED_KINDS.update(dict.fromkeys(_KEYWORDS, TokenKind.KEYWORD))


def scan_line(text: str) -> tuple[tuple[str, ...], tuple[TokenKind, ...]]:
    """One source line's token texts and kinds, two parallel tuples. Never raises.

    Comments are dropped ("//" to end of line; "/* ... */" inline, and an
    unterminated "/*" swallows the rest of the line). String and character
    literals collapse to fixed placeholder tokens.
    """
    fixed = _FIXED_KINDS
    texts: list[str] = []
    kinds: list[TokenKind] = []
    for piece in _TOKEN.findall(text):
        if not piece:
            continue  # white space or a comment
        kind = fixed.get(piece)
        if kind is None:
            first = piece[0]
            if first in _WORD_START:
                kind = _IDENTIFIER
            elif first in _NUMBER_START:
                kind = _LITERAL
            elif first == '"':
                piece, kind = STRING_LITERAL, _LITERAL
            elif first == "'":
                piece, kind = CHAR_LITERAL, _LITERAL
            else:
                kind = _PUNCT
        texts.append(piece)
        kinds.append(kind)
    return tuple(texts), tuple(kinds)


def tokenize_line(text: str) -> list[Token]:
    """scan_line's tokens as Token tuples."""
    texts, kinds = scan_line(text)
    return list(map(Token, kinds, texts))


# One line's tokens, as parallel tuples of texts and kinds, and its surface.
LineEntry = tuple[tuple[str, ...], tuple[TokenKind, ...], tuple[str, frozenset[str]]]
# code line -> its entry; one table is shared by the parses and imports of a run
LineTable = dict[str, LineEntry]
# Entries a table holds at most: about 13 MB at some 800 bytes each.
LINE_TABLE_LIMIT = 1 << 14


def line_entry(text: str, table: LineTable) -> LineEntry:
    """text's LineEntry, stored in table unless it is already full; entries
    never leave a table. text must have passed foreign_space, since the
    graph import checks a code only when its table does not hold it."""
    texts, kinds = scan_line(text)
    entry = texts, kinds, surface(texts, kinds)
    if len(table) < LINE_TABLE_LIMIT:
        table[text] = entry
    return entry


def split_lines(text: str) -> list[str]:
    r"""text's lines as git, editors and a model's line numbers count them:
    cut at "\n" only (not at a form feed, U+2028 or str.splitlines' other
    breaks), no empty line after a final "\n", and one "\r" removed from the
    end of each line, so CRLF and LF text number alike."""
    return [line.removesuffix("\r") for line in text.removesuffix("\n").split("\n")] if text else []


def _blank_comments(line: str, open_comment: str) -> tuple[str, str]:
    """Replace each comment character on one line with a space, so columns
    are kept, and leave literals as they are. open_comment says which
    comment from an earlier line is still open: "/*", "//" for a line
    comment whose line ended in a backslash, which splices the next line
    onto it as in C, or "" for none; the second result says which is open
    at the end of this line."""
    if open_comment == "//":
        return " " * len(line), "//" if line.endswith("\\") else ""
    if not open_comment and "/" not in line:
        return line, ""
    start = 0
    if open_comment:
        close = line.find("*/")
        if close < 0:
            return " " * len(line), "/*"
        start, open_comment = close + 2, ""
    out = [" " * start]
    for m in _COMMENT_OR_LITERAL.finditer(line, start):
        out.append(line[start : m.start()])
        piece = m.group()
        out.append(piece if piece[0] in "\"'" else " " * len(piece))
        # a comment still open at the end of the line is the last piece
        if m.lastindex is not None:
            open_comment = "/*"
        elif piece.startswith("//") and piece.endswith("\\"):
            open_comment = "//"
        start = m.end()
    out.append(line[start:])
    return "".join(out), open_comment


def blank_literals(text: str) -> str:
    """text, already free of comments, with the contents of each string and
    character literal replaced by spaces; the opening quote is kept."""
    return _STRING_OR_CHAR.sub(lambda m: m[0][0] + " " * (len(m[0]) - 1), text)


# White space by str.isspace that the tokenizer does not skip: it would read
# such a character as a Punct token.
_FOREIGN_SPACE = re.compile(r"[^\S \t\r\n\f\v]")


# the ASCII characters among them: the separators \x1c-\x1f
_ASCII_FOREIGN_SPACE = tuple(c for c in map(chr, range(128)) if _FOREIGN_SPACE.match(c))


def _any_foreign_space(text: str) -> bool:
    """Whether text has white space that C does not have anywhere, in a
    comment or literal too. It reads a long text of ASCII about ten times
    faster than one search: where it is False, no line of text needs
    foreign_space."""
    if text.isascii():
        return any(space in text for space in _ASCII_FOREIGN_SPACE)
    return _FOREIGN_SPACE.search(text) is not None


def foreign_space(text: str) -> str | None:
    """Why one line of code is refused when it has white space that C does
    not (U+00A0, say) outside a comment or literal; else None. code_lines
    and the graph import both hold code to this rule."""
    if not _FOREIGN_SPACE.search(text):
        return None
    space = _FOREIGN_SPACE.search(blank_literals(_blank_comments(text, "")[0]))
    return f"white space U+{ord(space[0]):04X} outside a comment or literal" if space else None


def code_lines(source: str) -> tuple[list[str], dict[int, str]]:
    """split_lines of source with each comment character blanked, a comment
    that spans lines included (a block comment, or a line comment whose
    lines end in a backslash), and foreign_space's reason for each line it
    refuses, by 1-based number. A source with no '/' and no foreign white
    space takes no per-line work."""
    lines = split_lines(source)
    screened = _any_foreign_space(source)
    refused: dict[int, str] = {}
    if "/" not in source and not screened:
        return lines, refused
    open_comment = ""
    for index, line in enumerate(lines):
        line, open_comment = _blank_comments(line, open_comment)
        lines[index] = line
        if screened:
            reason = foreign_space(line)
            if reason:
                refused[index + 1] = reason
    return lines, refused


def normalize_line(text: str) -> str:
    """Canonical form of a line: tokens joined by single spaces.

    Comments disappear and literals collapse as a consequence of
    tokenization.
    """
    return " ".join(scan_line(text)[0])


def extract_variables(text: str) -> frozenset[str]:
    """Identifiers on the line, excluding called-function names.

    A called-function name is an identifier whose next token is "(". Member
    names and plain variables both count: the set is the syntactic identifier
    surface of the line, not a dataflow use set.
    """
    return _variables(*scan_line(text))


def surface(texts: Sequence[str], kinds: Sequence[TokenKind]) -> tuple[str, frozenset[str]]:
    """normalize_line and extract_variables of a line, from its tokens' texts
    and kinds, two parallel sequences."""
    return " ".join(texts), _variables(texts, kinds)


def _variables(texts: Sequence[str], kinds: Sequence[TokenKind]) -> frozenset[str]:
    # "(" is only ever a Punct token, so a text of "(" is the "(" token
    names = {text for kind, text, nxt in zip(kinds, texts, texts[1:]) if kind is _IDENTIFIER and nxt != "("}
    if kinds and kinds[-1] is _IDENTIFIER:
        names.add(texts[-1])
    return frozenset(names)


def is_substantive_line(text: str) -> bool:
    """True for lines that carry code: not blank, not comment-only, and not
    made of delimiters alone (braces, parens, commas, semicolons).

    True when one of scan_line's kinds of text is not Punct, but it keeps
    no token. A line whose first character after the tokenizer's white
    space is an ASCII letter, a digit or "_" starts with an identifier, a
    keyword or a number, so it is code without a scan. Any other line is
    scanned: each piece is judged by the fixed table and the first-character
    sets that scan_line takes its kind from, and the scan stops at the first
    piece of code."""
    if text.lstrip(" \t\r\n\f\v")[:1] in _WORD_OR_DIGIT_START:
        return True
    fixed = _FIXED_KINDS
    for match in _TOKEN.finditer(text):
        piece = match[1]
        if piece:
            kind = fixed.get(piece)
            if (piece[0] in _CODE_START) if kind is None else (kind is not _PUNCT):
                return True
    return False
