"""Three independent feature views of a normalized source line.

Each view turns a line into a sparse bag of named features; the ensemble
trains one linear classifier per view so their errors stay decorrelated:

    token_ngram   token uni/bigrams of the normalized line
    char_ngram    character 3-5-grams of the normalized line
    syntax_shape  token-kind uni/bigrams, a length feature, keyword flags

Each view reads a line as its text and its tokens, in the lexer's one
format: scan_line's parallel tuples of token texts and kinds. Its extractor
is the one definition of the view, for training and scoring alike.
extract_features scans the line it is given; a ScreenText hands the views
the tokens it holds, so a screen tokenizes each line once for all of its
members, and a model build each sample once for all three views, because
every LineSample's text is a ScreenText.

Each view counts into a plain dict, feats[key] = get(key, 0.0) + 1.0, with
keys built by concatenation, so a key's first occurrence fixes its place in
the dict and every count is a float. Item order is part of the answer: a
linear score sums the features in dict order, so another order could move
a score's last bit.
"""

from __future__ import annotations

from enum import Enum

from ..errors import UndefinedInputError
from ..frontend.lexer import TokenKind, scan_line


class FeatureView(Enum):
    TOKEN_NGRAM = "token_ngram"
    CHAR_NGRAM = "char_ngram"
    SYNTAX_SHAPE = "syntax_shape"


ALL_VIEWS = (FeatureView.TOKEN_NGRAM, FeatureView.CHAR_NGRAM, FeatureView.SYNTAX_SHAPE)

_CHAR_ORDERS = ((3, "3:"), (4, "4:"), (5, "5:"))  # each gram order and its key prefix

_NO_CODE = "cannot classify an empty or comment-only line"

Texts = tuple[str, ...]  # a line's token texts, as scan_line gives them
Kinds = tuple[TokenKind, ...]  # and their kinds


def _token_ngram_features(text: str, texts: Texts, kinds: Kinds) -> dict[str, float]:
    feats: dict[str, float] = {}
    get = feats.get
    for t in texts:
        key = "1:" + t
        feats[key] = get(key, 0.0) + 1.0
    for a, b in zip(texts, texts[1:]):
        key = "2:" + a + " " + b
        feats[key] = get(key, 0.0) + 1.0
    return feats


def _char_ngram_features(text: str, texts: Texts, kinds: Kinds) -> dict[str, float]:
    feats: dict[str, float] = {}
    get = feats.get
    for order, prefix in _CHAR_ORDERS:
        for i in range(len(text) - order + 1):
            key = prefix + text[i : i + order]
            feats[key] = get(key, 0.0) + 1.0
    return feats


def _syntax_shape_features(text: str, texts: Texts, kinds: Kinds) -> dict[str, float]:
    # a kind's _value_ is its text: Enum's value property and its hash, which
    # a {kind: text} table would call, both run Python code per token
    names = [k._value_ for k in kinds]
    feats: dict[str, float] = {}
    get = feats.get
    for k in names:
        key = "k1:" + k
        feats[key] = get(key, 0.0) + 1.0
    for a, b in zip(names, names[1:]):
        key = "k2:" + a + " " + b
        feats[key] = get(key, 0.0) + 1.0
    for t, k in zip(texts, kinds):
        if k is TokenKind.KEYWORD:
            feats["kw:" + t] = 1.0
    feats["len"] = len(text) / 80.0
    feats["ntok"] = len(texts) / 16.0
    return feats


_EXTRACTORS = {
    FeatureView.TOKEN_NGRAM: _token_ngram_features,
    FeatureView.CHAR_NGRAM: _char_ngram_features,
    FeatureView.SYNTAX_SHAPE: _syntax_shape_features,
}


def extract_features(view: FeatureView, text: str) -> dict[str, float]:
    """Named sparse features of a normalized line under one view."""
    return _EXTRACTORS[view](text, *scan_line(text))


class ScreenText(str):
    """One line text as every reader of it sees it.

    It equals the raw text, so a reader that knows nothing of it sees an
    ordinary string. The classifiers read its normal form and its features
    from it: the line is normalized and tokenized once, on the first call.
    An ensemble makes one per screened text and drops it with the screen. A
    LineSample's text is one, and lives as long as its sample, so every view
    a model build trains, and its held-out check, read one tokenization.
    """

    # the normal form once known, or "" when it is the text itself (a normal
    # form is never empty): an equal copy would hold the text twice, and self
    # a reference cycle that only the cyclic collector frees
    _normalized: str | None = None
    _tokens: tuple[Texts, Kinds] | None = None  # scan_line(normalized), once known

    def normalized(self) -> str:
        """normalize_line of the text; an empty or comment-only line raises."""
        if self._normalized is None:
            tokens = scan_line(self)
            normalized = " ".join(tokens[0])
            if not normalized:
                raise UndefinedInputError(_NO_CODE)
            if normalized == self:
                self._tokens = tokens  # scan_line is a pure function of its string
                normalized = ""
            self._normalized = normalized
        return self._normalized or self

    def features(self, view: FeatureView) -> dict[str, float]:
        """extract_features(view, self.normalized()) from the kept tokens."""
        normalized = self.normalized()
        if self._tokens is None:
            self._tokens = scan_line(normalized)
        return _EXTRACTORS[view](normalized, *self._tokens)
