"""BLEU similarity between one candidate line and a set of reference lines.

Used to throw away sampled negative lines that look too much like known
vulnerable lines. The score is the geometric mean of clipped modified n-gram
precisions for orders 1..max_order, times a brevity penalty against the
closest reference length. Orders for which the candidate has no n-grams are
skipped, and an additive epsilon keeps the log of a zero precision finite:

    p_n = (clipped_matches_n + eps) / (candidate_ngrams_n + eps)

so an exact self-match still scores exactly 1.0 while a fully disjoint pair
scores ~eps instead of 0.

The reference side does not depend on the candidate. BleuReferences holds it
as a table: for each order, every reference n-gram with its highest count in
any one reference, plus the sorted distinct reference lengths. Building the
table costs one pass over the references' n-grams; scoring a candidate
against it costs one dict lookup per candidate n-gram and one bisect for the
brevity penalty, whatever the number of references. A screen of C candidates
against R references therefore costs O(R + C log R) instead of O(C * R).

N-grams are counted in plain dicts, and a candidate of c tokens has
c - n + 1 n-grams of order n, so no count is summed. The counts are
integers and the float operations run in the same order as the textbook
form, so a table gives exactly the scores of a fresh computation.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

from ..errors import UndefinedInputError
from ..frontend.lexer import Token

EPSILON = 1e-9


def _texts(tokens: Sequence) -> list[str]:
    return [t.text if isinstance(t, Token) else str(t) for t in tokens]


def _ngrams(texts: list[str], order: int) -> dict[tuple[str, ...], int]:
    """Each n-gram of the order in texts, with its count: len(texts) - order
    + 1 n-grams in all, or none when texts is shorter than order."""
    counts: dict[tuple[str, ...], int] = {}
    get = counts.get
    for gram in zip(*[texts[k:] for k in range(order)]):
        counts[gram] = get(gram, 0) + 1
    return counts


def _check_order(max_order: int) -> None:
    if max_order < 1:
        raise UndefinedInputError(f"max_order must be >= 1, got {max_order}")


class BleuReferences:
    """The reference side of BLEU, built once and shared by many candidates.

    best[order - 1] maps each n-gram of that order to its highest count in
    any one reference (the clipping bound); lengths are the sorted distinct
    reference lengths.
    """

    def __init__(self, references: Sequence[Sequence], max_order: int = 4):
        _check_order(max_order)
        refs = [_texts(r) for r in references]
        self.max_order = max_order
        self.best: list[dict[tuple[str, ...], int]] = []
        for order in range(1, max_order + 1):
            best: dict[tuple[str, ...], int] = {}
            for ref in refs:
                for gram, count in _ngrams(ref, order).items():
                    if count > best.get(gram, 0):
                        best[gram] = count
            self.best.append(best)
        self.lengths = sorted({len(ref) for ref in refs})

    def closest_length(self, c: int) -> int:
        """The reference length nearest to c; on a tie, the shorter one."""
        lengths = self.lengths
        i = bisect_left(lengths, c)
        if i == len(lengths):
            return lengths[-1]
        if i == 0 or lengths[i] == c:
            return lengths[i]
        below, above = lengths[i - 1], lengths[i]
        return below if c - below <= above - c else above


def bleu(
    candidate: Sequence,
    references: Sequence[Sequence] | BleuReferences,
    max_order: int = 4,
) -> float:
    """BLEU of one candidate against one or more references.

    references is either the reference token sequences themselves or a
    BleuReferences table built from them with the same max_order; a table
    built for another order is undefined input. Tokens may be lexer Tokens
    or plain strings; comparison is by token text. An empty candidate is
    undefined input. With no references the score is 0.0 by convention
    (there is nothing to resemble).
    """
    _check_order(max_order)
    cand = _texts(candidate)
    if not cand:
        raise UndefinedInputError("bleu is undefined for an empty candidate")
    if isinstance(references, BleuReferences):
        table = references
        if table.max_order != max_order:
            raise UndefinedInputError(
                f"reference table was built for max_order {table.max_order}, not {max_order}"
            )
    else:
        table = BleuReferences(references, max_order)
    if not table.lengths:
        return 0.0

    c = len(cand)
    log_sum = 0.0
    orders_used = 0
    for order, best in enumerate(table.best, start=1):
        total = c - order + 1  # the candidate's n-grams of this order
        if total <= 0:
            break  # none of this order, nor of any higher one
        bound_of = best.get
        clipped = 0
        for gram, count in _ngrams(cand, order).items():
            bound = bound_of(gram, 0)
            clipped += count if count < bound else bound
        log_sum += math.log((clipped + EPSILON) / (total + EPSILON))
        orders_used += 1  # at least order 1: the candidate is not empty
    geo_mean = math.exp(log_sum / orders_used)

    r = table.closest_length(c)
    penalty = 1.0 if c >= r else math.exp(1.0 - r / c)
    return penalty * geo_mean
