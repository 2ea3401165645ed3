"""Recovering ground-truth vulnerable lines from unified diffs."""

from __future__ import annotations

import pytest

from synth import commented_record
from trustvet.errors import DiffMismatchError
from trustvet.frontend import pdg_from_source
from trustvet.lineassess.diffs import extract_vulnerable_lines

SOURCE = (
    "int f(int n)\n"
    "{\n"
    "    x = n;\n"
    "    y = copy(x, n);\n"
    "    return y;\n"
    "}\n"
)


class TestExtraction:
    def test_removed_line_is_vulnerable(self):
        diff = (
            "@@ -3,3 +3,3 @@\n"
            "     x = n;\n"
            "-    y = copy(x, n);\n"
            "+    y = copy_safe(x, n);\n"
            "     return y;\n"
        )
        assert extract_vulnerable_lines(SOURCE, diff) == frozenset({4})

    def test_added_lines_ignored(self):
        diff = "@@ -4,1 +4,2 @@\n-    y = copy(x, n);\n+    check(n);\n+    y = copy(x, n);\n"
        assert extract_vulnerable_lines(SOURCE, diff) == frozenset({4})

    def test_non_substantive_removals_skipped(self):
        diff = "@@ -2,2 +2,1 @@\n-{\n-    x = n;\n+{ x = n;\n"
        assert extract_vulnerable_lines(SOURCE, diff) == frozenset({3})

    def test_file_headers_around_a_hunk_are_skipped(self):
        """The ---/+++ preamble comes before the first hunk, and a
        "diff --git" line ends the hunk: the next file's lines are not
        checked against this source."""
        diff = (
            "diff --git a/f.c b/f.c\n"
            "--- a/f.c\n"
            "+++ b/f.c\n"
            "@@ -4,1 +4,1 @@\n"
            "-    y = copy(x, n);\n"
            "+    y = copy_safe(x, n);\n"
            "diff --git a/g.c b/g.c\n"
            "--- a/g.c\n"
            "-    not in this source;\n"
        )
        assert extract_vulnerable_lines(SOURCE, diff) == frozenset({4})

    def test_multiple_hunks(self):
        diff = (
            "@@ -3,1 +3,1 @@\n"
            "-    x = n;\n"
            "+    x = clamp(n);\n"
            "@@ -5,1 +5,1 @@\n"
            "-    return y;\n"
            "+    return y ? y : 0;\n"
        )
        assert extract_vulnerable_lines(SOURCE, diff) == frozenset({3, 5})

    def test_pure_addition_yields_nothing(self):
        diff = "@@ -3,0 +3,1 @@\n+    assert(n > 0);\n"
        assert extract_vulnerable_lines(SOURCE, diff) == frozenset()

    def test_a_deleted_block_comment_carries_no_code(self):
        """The body and the closing line of a block comment that spans lines
        are judged as the parser reads them, as blank, not as code."""
        record = commented_record()
        assert extract_vulnerable_lines(record.source, record.diff) == frozenset({7})
        assert pdg_from_source(record.source).nodes == frozenset({1, 6, 7})

    def test_no_newline_marker_skipped(self):
        diff = "@@ -5,1 +5,1 @@\n-    return y;\n+    return y + 1;\n\\ No newline at end of file\n"
        assert extract_vulnerable_lines(SOURCE, diff) == frozenset({5})


class TestMismatches:
    def test_removed_line_must_match_source(self):
        diff = "@@ -4,1 +4,1 @@\n-    y = something_else(x);\n+    y = 0;\n"
        with pytest.raises(DiffMismatchError):
            extract_vulnerable_lines(SOURCE, diff)

    def test_context_line_must_match_source(self):
        diff = "@@ -3,2 +3,2 @@\n     not the real line\n-    y = copy(x, n);\n+    y = 0;\n"
        with pytest.raises(DiffMismatchError):
            extract_vulnerable_lines(SOURCE, diff)

    def test_hunk_beyond_source_end(self):
        diff = "@@ -40,1 +40,1 @@\n-    nothing here;\n+    still nothing;\n"
        with pytest.raises(DiffMismatchError):
            extract_vulnerable_lines(SOURCE, diff)


class TestLineBreaks:
    def test_form_feed_line_does_not_shift_later_lines(self):
        """Only "\n" ends a line, in the source and in the diff alike."""
        source = "int f(int a)\n{\n  a = a + 1;\n\f\n  strcpy(d, s);\n  return a;\n}\n"
        diff = "@@ -4,2 +4,2 @@\n \f\n-  strcpy(d, s);\n+  strncpy(d, s, n);\n"
        assert extract_vulnerable_lines(source, diff) == frozenset({5})
        crlf = source.replace("\n", "\r\n"), diff.replace("\n", "\r\n")
        assert extract_vulnerable_lines(*crlf) == frozenset({5})
