"""Recover vulnerable line numbers from a security fix's unified diff.

Lines the fix deleted or modified appear as '-' lines in hunks; their
pre-change line numbers are the vulnerable lines, after screening out lines
that carry no code (blanks, comments, lone delimiters), judged on the lexer's
code_lines, so no line of a block comment that spans lines carries code.
Context and '-' lines are checked against the source as it is, so a diff
paired with the wrong source fails loudly instead of yielding wrong line
numbers. Each hunk is read by its header's counts (an omitted count is 1),
so a line after them is a file header or other preamble, and is skipped. A
line within them must be a '-', '+' or ' ' line, a blank line (context
whose space was stripped) or a '\\ No newline' marker; any other line, a
next '@@' header included, raises DiffMismatchError naming the hunk. A diff
that ends within a hunk is read up to its end.

A corpus record names its vulnerable lines one way for every reader:
a non-empty vul_lines list wins, else the lines recovered from its diff.
Either way each line must be one of the source's, so ingest refuses such a
record and evaluate skips it for the same reason.
"""

from __future__ import annotations

import re

from ..corpus import CorpusRecord
from ..errors import DiffMismatchError
from ..frontend.lexer import code_lines, is_substantive_line, split_lines

_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


def extract_vulnerable_lines(before_source: str, diff: str) -> frozenset[int]:
    """Pre-change line numbers of deleted/modified lines with substantive code."""
    source_lines = split_lines(before_source)
    code = code_lines(before_source)[0]

    def check(old_lineno: int, content: str, what: str) -> None:
        if old_lineno < 1 or old_lineno > len(source_lines):
            raise DiffMismatchError(
                f"{what} line {old_lineno} is outside the {len(source_lines)}-line source"
            )
        if source_lines[old_lineno - 1] != content:
            raise DiffMismatchError(
                f"{what} line {old_lineno} does not match the source: "
                f"{content!r} vs {source_lines[old_lineno - 1]!r}"
            )

    vulnerable: set[int] = set()
    header = ""
    old_lineno = old_left = new_left = 0  # old_left, new_left: what the hunk still counts
    for raw in split_lines(diff):
        if not (old_left or new_left):
            match = _HUNK_RE.match(raw)
            if match is not None:  # else a file header or other preamble
                header = match.group(0)
                old_lineno = int(match.group(1))
                old_left, new_left = (int(n or 1) for n in match.group(2, 4))
            continue
        kind = raw[:1] or " "  # a blank line is context whose space was stripped
        if kind == "\\":
            continue  # "\ No newline at end of file"
        old_side, new_side = kind in "- ", kind in "+ "
        if kind not in "-+ " or (old_side and not old_left) or (new_side and not new_left):
            raise DiffMismatchError(
                f"hunk {header!r} still counts {old_left} old and {new_left} new line(s), "
                f"not {raw!r}"
            )
        if old_side:
            check(old_lineno, raw[1:], "deleted" if kind == "-" else "context")
            if kind == "-" and is_substantive_line(code[old_lineno - 1]):
                vulnerable.add(old_lineno)
            old_lineno += 1
            old_left -= 1
        if new_side:
            new_left -= 1
    return frozenset(vulnerable)


def record_vulnerable_lines(record: CorpusRecord) -> frozenset[int]:
    """A record's vulnerable lines: its non-empty vul_lines, else the lines
    its diff deleted or modified, else none. A vul_lines entry that is not a
    line of the source raises DiffMismatchError, as a diff line does."""
    if record.vul_lines:
        count = len(split_lines(record.source))
        for line in sorted(record.vul_lines):
            if not 1 <= line <= count:
                raise DiffMismatchError(
                    f"record {record.function_id}: vulnerable line {line} is outside the source"
                )
        return frozenset(record.vul_lines)
    if record.diff is not None:
        return extract_vulnerable_lines(record.source, record.diff)
    return frozenset()
