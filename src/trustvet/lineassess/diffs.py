"""Recover vulnerable line numbers from a security fix's unified diff.

Lines the fix deleted or modified appear as '-' lines in hunks; their
pre-change line numbers are the vulnerable lines, after screening out lines
that carry no code (blanks, comments, lone delimiters). Context and '-'
lines are checked against the pre-change source, so a diff paired with the
wrong source fails loudly instead of yielding wrong line numbers.

A corpus record names its vulnerable lines one way for every reader:
a non-empty vul_lines list wins, else the lines recovered from its diff.
Either way each line must be one of the source's, so ingest refuses such a
record and evaluate skips it for the same reason.
"""

from __future__ import annotations

import re

from ..corpus import CorpusRecord
from ..errors import DiffMismatchError
from ..frontend.lexer import is_substantive_line, split_lines

_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


def extract_vulnerable_lines(before_source: str, diff: str) -> frozenset[int]:
    """Pre-change line numbers of substantive deleted/modified lines."""
    source_lines = split_lines(before_source)

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
    old_lineno = None
    in_hunk = False
    for raw in split_lines(diff):
        match = _HUNK_RE.match(raw)
        if match is not None:
            old_lineno = int(match.group(1))
            in_hunk = True
            continue
        if not in_hunk:
            continue  # file headers and other preamble
        if raw.startswith("\\"):
            continue  # "\ No newline at end of file"
        if raw.startswith("-"):
            content = raw[1:]
            check(old_lineno, content, "deleted")
            if is_substantive_line(content):
                vulnerable.add(old_lineno)
            old_lineno += 1
        elif raw.startswith("+"):
            continue  # added lines have no pre-change number
        elif raw.startswith(" ") or raw == "":
            content = raw[1:] if raw else ""
            check(old_lineno, content, "context")
            old_lineno += 1
        else:
            in_hunk = False  # e.g. the next "diff --git" header
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
