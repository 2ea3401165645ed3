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
"""

from __future__ import annotations

from collections import Counter
from enum import Enum

from ..frontend.lexer import Token, TokenKind, tokenize_line


class FeatureView(Enum):
    TOKEN_NGRAM = "token_ngram"
    CHAR_NGRAM = "char_ngram"
    SYNTAX_SHAPE = "syntax_shape"


ALL_VIEWS = (FeatureView.TOKEN_NGRAM, FeatureView.CHAR_NGRAM, FeatureView.SYNTAX_SHAPE)


def _token_ngram_features(text: str, tokens: list[Token]) -> dict[str, float]:
    texts = [t.text for t in tokens]
    feats: Counter = Counter()
    for t in texts:
        feats[f"1:{t}"] += 1.0
    for a, b in zip(texts, texts[1:]):
        feats[f"2:{a} {b}"] += 1.0
    return dict(feats)


def _char_ngram_features(text: str, tokens: list[Token]) -> dict[str, float]:
    feats: dict[str, float] = {}
    for order in (3, 4, 5):
        prefix = f"{order}:"
        grams = Counter([text[i : i + order] for i in range(len(text) - order + 1)])
        for gram, count in grams.items():
            feats[prefix + gram] = float(count)
    return feats


def _syntax_shape_features(text: str, tokens: list[Token]) -> dict[str, float]:
    kinds = [t.kind.value for t in tokens]
    feats: Counter = Counter()
    for k in kinds:
        feats[f"k1:{k}"] += 1.0
    for a, b in zip(kinds, kinds[1:]):
        feats[f"k2:{a} {b}"] += 1.0
    for t in tokens:
        if t.kind is TokenKind.KEYWORD:
            feats[f"kw:{t.text}"] = 1.0
    feats["len"] = len(text) / 80.0
    feats["ntok"] = len(tokens) / 16.0
    return dict(feats)


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
