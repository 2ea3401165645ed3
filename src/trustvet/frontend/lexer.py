"""Line-level lexing for a C-like language.

The tokenizer is total: any byte sequence produces a token list. Unknown
characters become single-character Punct tokens rather than errors, because
downstream consumers (line normalization, n-gram features, variable
extraction) must cope with arbitrary source lines.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    LITERAL = "literal"
    OPERATOR = "operator"
    PUNCT = "punct"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str


# Placeholder texts for collapsed literals. String/char literal contents are
# never preserved: two lines differing only in string contents tokenize alike.
STRING_LITERAL = "STR"
CHAR_LITERAL = "CHR"

_OPERATORS = [
    ">>=", "<<=",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ".",
]
# Operator tokens by length; the scanner looks up 3, then 2, then 1
# characters, which is maximal munch. Tokens are immutable, so one is shared.
_OPS3, _OPS2, _OPS1 = (
    {op: Token(TokenKind.OPERATOR, op) for op in _OPERATORS if len(op) == n}
    for n in (3, 2, 1)
)

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")


@lru_cache(maxsize=1)
def c_keywords() -> frozenset[str]:
    """The C keyword table, loaded from the packaged data file."""
    data = (
        importlib.resources.files("trustvet.frontend")
        .joinpath("data/c_keywords.txt")
        .read_text(encoding="utf-8")
    )
    words = set()
    for raw in data.splitlines():
        word = raw.strip()
        if word and not word.startswith("#"):
            words.add(word)
    return frozenset(words)


def _scan_number(text: str, i: int) -> int:
    # C-style preprocessing number: digits, identifier chars, dots, and a
    # sign directly after an exponent marker ("1e-9", "0x1p+3").
    n = len(text)
    j = i + 1
    while j < n:
        ch = text[j]
        if ch in _IDENT_CONT or ch == ".":
            j += 1
        elif ch in "+-" and text[j - 1] in "eEpP":
            j += 1
        else:
            break
    return j


def _scan_string(text: str, i: int, quote: str) -> int:
    n = len(text)
    j = i + 1
    while j < n:
        if text[j] == "\\" and j + 1 < n:
            j += 2
            continue
        if text[j] == quote:
            return j + 1
        j += 1
    return n  # unterminated: consume to end of line


def tokenize_line(text: str) -> list[Token]:
    """Tokenize one source line. Never raises.

    Comments are dropped ("//" to end of line; "/* ... */" inline, and an
    unterminated "/*" swallows the rest of the line). String and character
    literals collapse to fixed placeholder tokens.
    """
    keywords = c_keywords()
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n\f\v":
            i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            break
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            if end < 0:
                break
            i = end + 2
            continue
        if ch == '"':
            i = _scan_string(text, i, '"')
            tokens.append(Token(TokenKind.LITERAL, STRING_LITERAL))
            continue
        if ch == "'":
            i = _scan_string(text, i, "'")
            tokens.append(Token(TokenKind.LITERAL, CHAR_LITERAL))
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = _scan_number(text, i)
            tokens.append(Token(TokenKind.LITERAL, text[i:j]))
            i = j
            continue
        if ch in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            word = text[i:j]
            kind = TokenKind.KEYWORD if word in keywords else TokenKind.IDENTIFIER
            tokens.append(Token(kind, word))
            i = j
            continue
        op = _OPS3.get(text[i : i + 3]) or _OPS2.get(text[i : i + 2]) or _OPS1.get(ch)
        if op is not None:
            tokens.append(op)
            i += len(op.text)
        else:
            # Punct proper, or any unknown byte as a single-char Punct.
            tokens.append(Token(TokenKind.PUNCT, ch))
            i += 1
    return tokens


def normalize_line(text: str, alpha_rename: bool = False) -> str:
    """Canonical form of a line: tokens joined by single spaces.

    Comments disappear and literals collapse as a consequence of
    tokenization. With alpha_rename, identifiers map to VAR1..VARn in order
    of first appearance (keywords and literals are left alone).
    """
    tokens = tokenize_line(text)
    if not alpha_rename:
        return " ".join(t.text for t in tokens)
    names: dict[str, str] = {}
    out = []
    for t in tokens:
        if t.kind is TokenKind.IDENTIFIER:
            if t.text not in names:
                names[t.text] = f"VAR{len(names) + 1}"
            out.append(names[t.text])
        else:
            out.append(t.text)
    return " ".join(out)


def extract_variables(text: str) -> frozenset[str]:
    """Identifiers on the line, excluding called-function names.

    A called-function name is an identifier whose next token is "(". Member
    names and plain variables both count: the set is the syntactic identifier
    surface of the line, not a dataflow use set.
    """
    return _variables(tokenize_line(text))


def line_surface(text: str) -> tuple[str, frozenset[str]]:
    """normalize_line(text) and extract_variables(text) from one tokenization."""
    tokens = tokenize_line(text)
    return " ".join(t.text for t in tokens), _variables(tokens)


def _variables(tokens: list[Token]) -> frozenset[str]:
    out = set()
    for idx, t in enumerate(tokens):
        if t.kind is not TokenKind.IDENTIFIER:
            continue
        nxt = tokens[idx + 1] if idx + 1 < len(tokens) else None
        if nxt is not None and nxt.kind is TokenKind.PUNCT and nxt.text == "(":
            continue
        out.add(t.text)
    return frozenset(out)


def is_substantive_line(text: str) -> bool:
    """True for lines that carry code: not blank, not comment-only, and not
    made of delimiters alone (braces, parens, commas, semicolons)."""
    tokens = tokenize_line(text)
    return any(t.kind is not TokenKind.PUNCT for t in tokens)
