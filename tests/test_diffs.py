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

    def test_no_newline_marker_within_a_hunk_skipped(self):
        """The marker after a '-' line, where the old file's end had no
        newline, counts for neither side."""
        diff = "@@ -5,1 +5,1 @@\n-    return y;\n\\ No newline at end of file\n+    return y + 1;\n"
        assert extract_vulnerable_lines(SOURCE, diff) == frozenset({5})


class TestHunkCounts:
    """A hunk is read by its header's counts: a line after them belongs to
    no hunk, and is a file header or preamble."""

    SOURCE = "int f(int a)\n{\na = 1;\nreturn a;\n}\n"
    DIFF = "@@ -3,1 +3,1 @@\n-a = 1;\n+a = 2;\n"

    @pytest.mark.parametrize("tail", ["", "\n", "--- a/y.c\n+++ b/y.c\n"], ids=["bare", "blank", "headers"])
    def test_a_line_after_the_counts_is_outside_the_hunk(self, tail):
        assert extract_vulnerable_lines(self.SOURCE, self.DIFF + tail) == frozenset({3})

    def test_a_blank_line_inside_a_hunk_is_context(self):
        source = "int f(int a)\n{\n\na = 1;\n}\n"
        diff = "@@ -3,2 +3,2 @@\n\n-a = 1;\n+a = 2;\n"
        assert extract_vulnerable_lines(source, diff) == frozenset({4})

    def test_an_omitted_count_is_one(self):
        diff = "@@ -3 +3 @@\n-a = 1;\n+a = 2;\n\n"
        assert extract_vulnerable_lines(self.SOURCE, diff) == frozenset({3})

    def test_a_header_while_a_hunk_counts_lines_raises(self):
        diff = "@@ -3,2 +3,2 @@\n-a = 1;\n+a = 2;\n@@ -4,1 +4,1 @@\n-return a;\n+return 0;\n"
        with pytest.raises(DiffMismatchError, match=r"hunk '@@ -3,2 \+3,2 @@' still counts 1 old and 1 new"):
            extract_vulnerable_lines(self.SOURCE, diff)

    @pytest.mark.parametrize(
        "diff",
        [
            "@@ -3,1 +3,2 @@\n-a = 1;\ndiff --git a/y.c b/y.c\n",  # a line of no kind
            "@@ -3,0 +3,1 @@\n-a = 1;\n+a = 2;\n",  # a deleted line the header does not count
            "@@ -3,1 +3,0 @@\n+a = 2;\n-a = 1;\n",  # an added line the header does not count
        ],
        ids=["no-kind", "uncounted-deletion", "uncounted-addition"],
    )
    def test_a_line_the_hunk_cannot_hold_raises(self, diff):
        with pytest.raises(DiffMismatchError, match=r"hunk '@@ -3,. \+3,. @@' still counts"):
            extract_vulnerable_lines(self.SOURCE, diff)


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
