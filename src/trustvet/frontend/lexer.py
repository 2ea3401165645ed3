"""Line-level lexing for a C-like language.

The tokenizer is total: any byte sequence produces a token list. Unknown
characters become single-character Punct tokens rather than errors, because
downstream consumers (line normalization, n-gram features, variable
extraction) must cope with arbitrary source lines.

A line is scanned by one regex findall: each match is the text of one token,
or empty for white space and comments. A token's kind is that of the fixed
table for its text, or else comes from its first character, by the same
ASCII classes the pattern matches on: a letter or "_" starts an identifier,
a digit or "." a number, a quote a literal, and anything else is one Punct
character. The fixed table holds one token each for C's punctuation, its
operators and the C99 keywords; it is built at import from constants here,
so the package reads no data file.
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
# the tokenizer and by the parser's comment blanking (_blank_comments), so
# the two cannot disagree on where a comment starts or a literal ends. A
# literal runs to its closing quote, skipping backslash escapes, or to the
# end of the text; an unterminated "/*" runs to the end of the text.
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
_STRING_TOKEN = Token(_LITERAL, STRING_LITERAL)
_CHAR_TOKEN = Token(_LITERAL, CHAR_LITERAL)
# Makes a Token in C: Token(kind, text) runs the NamedTuple's __new__, a
# Python frame, for each identifier and number.
_tuple_new = tuple.__new__

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

# Operators, keywords and C punctuation by their text. Tokens are immutable,
# so one of each is shared.
_FIXED_TOKENS = {p: Token(TokenKind.PUNCT, p) for p in "(){}[];,"}
_FIXED_TOKENS.update((op, Token(TokenKind.OPERATOR, op)) for op in _OPERATORS)
_FIXED_TOKENS.update((word, Token(TokenKind.KEYWORD, word)) for word in _KEYWORDS)


def tokenize_line(text: str) -> list[Token]:
    """Tokenize one source line. Never raises.

    Comments are dropped ("//" to end of line; "/* ... */" inline, and an
    unterminated "/*" swallows the rest of the line). String and character
    literals collapse to fixed placeholder tokens.
    """
    fixed = _FIXED_TOKENS
    tokens: list[Token] = []
    for piece in _TOKEN.findall(text):
        if not piece:
            continue  # white space or a comment
        tok = fixed.get(piece)
        if tok is None:
            first = piece[0]
            if first in _WORD_START:
                tok = _tuple_new(Token, (_IDENTIFIER, piece))
            elif first in _NUMBER_START:
                tok = _tuple_new(Token, (_LITERAL, piece))
            elif first == '"':
                tok = _STRING_TOKEN
            elif first == "'":
                tok = _CHAR_TOKEN
            else:
                tok = Token(_PUNCT, piece)
        tokens.append(tok)
    return tokens


def split_lines(text: str) -> list[str]:
    r"""text's lines as git, editors and a model's line numbers count them:
    cut at "\n" only (not at a form feed, U+2028 or str.splitlines' other
    breaks), no empty line after a final "\n", and one "\r" removed from the
    end of each line, so CRLF and LF text number alike."""
    return [line.removesuffix("\r") for line in text.removesuffix("\n").split("\n")] if text else []


def _blank_comments(line: str, in_block: bool) -> tuple[str, bool]:
    """Replace each comment character on one line with a space, so columns
    are kept, and leave literals as they are. in_block says whether a "/*"
    from an earlier line is still open; the second result says whether one
    is open at the end of this line."""
    if not in_block and "/" not in line:
        return line, False
    start = 0
    if in_block:
        close = line.find("*/")
        if close < 0:
            return " " * len(line), True
        start, in_block = close + 2, False
    out = [" " * start]
    for m in _COMMENT_OR_LITERAL.finditer(line, start):
        out.append(line[start : m.start()])
        piece = m.group()
        out.append(piece if piece[0] in "\"'" else " " * len(piece))
        in_block = m.lastindex is not None
        start = m.end()
    out.append(line[start:])
    return "".join(out), in_block


def _blank_literals(text: str) -> str:
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
    _foreign_space."""
    if text.isascii():
        return any(space in text for space in _ASCII_FOREIGN_SPACE)
    return _FOREIGN_SPACE.search(text) is not None


def _foreign_space(text: str) -> str | None:
    """Why one line of code is refused when it has white space that C does
    not (U+00A0, say) outside a comment or literal; else None. The parser
    and the graph import both hold code to this rule."""
    if not _FOREIGN_SPACE.search(text):
        return None
    space = _FOREIGN_SPACE.search(_blank_literals(_blank_comments(text, False)[0]))
    return f"white space U+{ord(space[0]):04X} outside a comment or literal" if space else None


def normal_form(tokens: list[Token]) -> str:
    """The canonical form of a tokenized line: token texts joined by single spaces."""
    return " ".join([t.text for t in tokens])


def normalize_line(text: str) -> str:
    """Canonical form of a line: tokens joined by single spaces.

    Comments disappear and literals collapse as a consequence of
    tokenization.
    """
    return normal_form(tokenize_line(text))


def extract_variables(text: str) -> frozenset[str]:
    """Identifiers on the line, excluding called-function names.

    A called-function name is an identifier whose next token is "(". Member
    names and plain variables both count: the set is the syntactic identifier
    surface of the line, not a dataflow use set.
    """
    tokens = tokenize_line(text)
    kinds, texts = zip(*tokens) if tokens else ((), ())
    return _variables(texts, kinds)


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

    Equal to is_substantive(tokenize_line(text)), but it builds no Token.
    A line whose first character after the tokenizer's white space is an
    ASCII letter, a digit or "_" starts with an identifier, a keyword or a
    number, so it is code without a scan. Any other line is scanned: each
    piece is judged by the fixed table and the first-character sets that
    tokenize_line takes its kind from, and the scan stops at the first
    piece of code."""
    if text.lstrip(" \t\r\n\f\v")[:1] in _WORD_OR_DIGIT_START:
        return True
    fixed = _FIXED_TOKENS
    for match in _TOKEN.finditer(text):
        piece = match[1]
        if piece:
            tok = fixed.get(piece)
            if (piece[0] in _CODE_START) if tok is None else (tok.kind is not _PUNCT):
                return True
    return False


def is_substantive(tokens: list[Token]) -> bool:
    """is_substantive_line of a line, from its tokens."""
    return any(t.kind is not _PUNCT for t in tokens)
