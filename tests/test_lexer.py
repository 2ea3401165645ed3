"""Lexer behavior: tokenization, normalization, variable extraction."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trustvet.frontend.lexer import (
    _FOREIGN_SPACE,
    TokenKind,
    _any_foreign_space,
    extract_variables,
    is_substantive,
    is_substantive_line,
    normal_form,
    normalize_line,
    tokenize_line,
)


def kinds_and_texts(line):
    return [(t.kind, t.text) for t in tokenize_line(line)]


class TestTokenize:
    def test_condition_line(self):
        assert kinds_and_texts("if (!data) {") == [
            (TokenKind.KEYWORD, "if"),
            (TokenKind.PUNCT, "("),
            (TokenKind.OPERATOR, "!"),
            (TokenKind.IDENTIFIER, "data"),
            (TokenKind.PUNCT, ")"),
            (TokenKind.PUNCT, "{"),
        ]

    def test_string_literal_collapses(self):
        assert kinds_and_texts('x = "abc";') == [
            (TokenKind.IDENTIFIER, "x"),
            (TokenKind.OPERATOR, "="),
            (TokenKind.LITERAL, "STR"),
            (TokenKind.PUNCT, ";"),
        ]

    def test_char_literal_collapses(self):
        texts = [t.text for t in tokenize_line("c = 'a';")]
        assert texts == ["c", "=", "CHR", ";"]

    def test_numbers_with_exponents(self):
        texts = [t.text for t in tokenize_line("x = 1.5e-3 + 0x1p+2;")]
        assert "1.5e-3" in texts and "0x1p+2" in texts

    def test_maximal_munch_operators(self):
        texts = [t.text for t in tokenize_line("a >>= b->c++;")]
        assert texts == ["a", ">>=", "b", "->", "c", "++", ";"]

    def test_line_comment_stops_scan(self):
        assert [t.text for t in tokenize_line("x = 1; // note")] == ["x", "=", "1", ";"]

    def test_inline_block_comment_skipped(self):
        assert [t.text for t in tokenize_line("x = /* gone */ 1;")] == ["x", "=", "1", ";"]

    def test_unterminated_string_consumes_rest(self):
        tokens = tokenize_line('s = "oops')
        assert tokens[-1].text == "STR"

    def test_keywords_recognized(self):
        assert [t.kind for t in tokenize_line("while return fopen")] == [
            TokenKind.KEYWORD,
            TokenKind.KEYWORD,
            TokenKind.IDENTIFIER,
        ]


class TestNormalize:
    def test_whitespace_and_comment_noise(self):
        assert normalize_line("  x=y+1 ; // hm") == "x = y + 1 ;"

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_total_and_idempotent(self, line):
        line = line.replace("\n", " ")
        once = normalize_line(line)
        assert normalize_line(once) == once

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_tokenizer_never_raises(self, line):
        line = line.replace("\n", " ")
        for token in tokenize_line(line):
            assert token.text


class TestExtractVariables:
    def test_call_names_excluded_member_names_included(self):
        got = extract_variables('file = fopen(dump_state.data, "w");')
        assert got == frozenset({"file", "dump_state", "data"})

    def test_arguments_and_assignee(self):
        got = extract_variables('count = fprintf(file, "%s", dump_banner);')
        assert got == frozenset({"count", "file", "dump_banner"})

    def test_keywords_and_literals_excluded(self):
        assert extract_variables("return 0;") == frozenset()

    def test_arrow_member(self):
        assert extract_variables("p->next = q;") == frozenset({"p", "next", "q"})


# delimiters, which alone make no code, next to one piece of each other kind,
# and what the scan skips or cannot close
SUBSTANTIVE_PIECES = (
    "(", ")", "{", "}", "[", "]", ";", ",", "x", "_1", "if", "0", ".5", ".", "->", "=", "~",
    '"s"', '"open', "'c'", "'", '"', "/* c */", "/* open", "// tail", "*/",
    "@", "$", "#", "\\", "`", "\u00a0", " ", "\t", "\n", "\f",
)


class TestSubstantive:
    @pytest.mark.parametrize("line", ["}", "   ", "", "// only a comment", "/* x */"])
    def test_noise_lines(self, line):
        assert not is_substantive_line(line)

    @pytest.mark.parametrize("line", ["x = 1;", "return;", "if (a) {"])
    def test_code_lines(self, line):
        assert is_substantive_line(line)

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.text(max_size=30),
            st.lists(st.sampled_from(SUBSTANTIVE_PIECES), max_size=8).map("".join),
        )
    )
    def test_agrees_with_the_tokens(self, text):
        """The sample pool and record_vulnerable_lines judge a line without
        tokenizing it, by the rule is_substantive applies to its tokens."""
        assert is_substantive_line(text) == is_substantive(tokenize_line(text))


# one-character tokens that str.split would cut at, and numbers with a sign
# or a leading dot
NORMAL_FORM_PIECES = SUBSTANTIVE_PIECES + ("\x1c", "\u3000", "1e-9", "\u00e9", "\u00b2")


class TestNormalForm:
    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.text(max_size=30),
            st.lists(st.sampled_from(NORMAL_FORM_PIECES), max_size=8).map("".join),
        )
    )
    def test_splits_at_single_spaces_into_its_tokens(self, text):
        """The BLEU screen reads a sample's token texts by splitting its
        normal form at single spaces, without tokenizing it again."""
        tokens = tokenize_line(text)
        assume(tokens)
        texts = [t.text for t in tokens]
        form = normal_form(tokens)
        assert form.split(" ") == texts == [t.text for t in tokenize_line(form)]


class TestAnyForeignSpace:
    """The quick test of a whole text agrees with one search for white space
    that C does not have."""

    def test_every_ascii_character(self):
        for code in range(128):
            text = f"x = {chr(code)};"
            assert _any_foreign_space(text) == (_FOREIGN_SPACE.search(text) is not None), code

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(max_size=30),
            st.lists(st.sampled_from(NORMAL_FORM_PIECES + ("\x1f", "\x85", "\u2028")), max_size=8).map("".join),
        )
    )
    def test_any_text(self, text):
        assert _any_foreign_space(text) == (_FOREIGN_SPACE.search(text) is not None)
