"""Three independent feature views of a normalized source line.

Each view turns a line into a sparse bag of named features; the ensemble
trains one linear classifier per view so their errors stay decorrelated:

    token_ngram   token uni/bigrams of the normalized line
    char_ngram    character 3-5-grams of the normalized line
    syntax_shape  token-kind uni/bigrams, a length feature, keyword flags

extract_features is the one definition of each view, for training and
scoring alike, and the one place a line without its tokens is tokenized. A
ScreenText passes the tokens it holds, so a screen tokenizes each line once
for all of its members, and training each sample once.

Each view counts into a plain dict, feats[key] = get(key, 0.0) + 1.0, with
keys built by concatenation, so a key's first occurrence fixes its place in
the dict and every count is a float. Item order is part of the answer: a
linear score sums the features in dict order, so another order could move
a score's last bit.
"""

from __future__ import annotations

from enum import Enum

from ..frontend.lexer import Token, TokenKind, tokenize_line


class FeatureView(Enum):
    TOKEN_NGRAM = "token_ngram"
    CHAR_NGRAM = "char_ngram"
    SYNTAX_SHAPE = "syntax_shape"


ALL_VIEWS = (FeatureView.TOKEN_NGRAM, FeatureView.CHAR_NGRAM, FeatureView.SYNTAX_SHAPE)

_CHAR_ORDERS = ((3, "3:"), (4, "4:"), (5, "5:"))  # each gram order and its key prefix


def _token_ngram_features(text: str, tokens: list[Token]) -> dict[str, float]:
    texts = [t.text for t in tokens]
    feats: dict[str, float] = {}
    get = feats.get
    for t in texts:
        key = "1:" + t
        feats[key] = get(key, 0.0) + 1.0
    for a, b in zip(texts, texts[1:]):
        key = "2:" + a + " " + b
        feats[key] = get(key, 0.0) + 1.0
    return feats


def _char_ngram_features(text: str, tokens: list[Token]) -> dict[str, float]:
    feats: dict[str, float] = {}
    get = feats.get
    for order, prefix in _CHAR_ORDERS:
        for i in range(len(text) - order + 1):
            key = prefix + text[i : i + order]
            feats[key] = get(key, 0.0) + 1.0
    return feats


def _syntax_shape_features(text: str, tokens: list[Token]) -> dict[str, float]:
    # a kind's _value_ is its text: Enum's value property and its hash, which
    # a {kind: text} table would call, both run Python code per token
    kinds = [t.kind._value_ for t in tokens]
    feats: dict[str, float] = {}
    get = feats.get
    for k in kinds:
        key = "k1:" + k
        feats[key] = get(key, 0.0) + 1.0
    for a, b in zip(kinds, kinds[1:]):
        key = "k2:" + a + " " + b
        feats[key] = get(key, 0.0) + 1.0
    for t in tokens:
        if t.kind is TokenKind.KEYWORD:
            feats["kw:" + t.text] = 1.0
    feats["len"] = len(text) / 80.0
    feats["ntok"] = len(tokens) / 16.0
    return feats


_EXTRACTORS = {
    FeatureView.TOKEN_NGRAM: _token_ngram_features,
    FeatureView.CHAR_NGRAM: _char_ngram_features,
    FeatureView.SYNTAX_SHAPE: _syntax_shape_features,
}


def extract_features(
    view: FeatureView, text: str, tokens: list[Token] | None = None
) -> dict[str, float]:
    """Named sparse features of a normalized line under one view.

    tokens, when given, must be tokenize_line(text); without them the line
    is tokenized here. Views that need no tokens ignore them.
    """
    if tokens is None:
        tokens = tokenize_line(text)
    return _EXTRACTORS[view](text, tokens)
