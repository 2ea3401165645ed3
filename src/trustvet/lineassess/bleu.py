"""BLEU similarity between one candidate line and a set of reference lines.

Used to throw away sampled negative lines that look too much like known
vulnerable lines. The score is the geometric mean of clipped modified n-gram
precisions for orders 1..max_order, times a brevity penalty against the
closest reference length. Orders for which the candidate has no n-grams are
skipped, and an additive epsilon keeps the log of a zero precision finite:

    p_n = (clipped_matches_n + eps) / (candidate_ngrams_n + eps)

so an exact self-match still scores exactly 1.0 while a fully disjoint pair
scores ~eps instead of 0.

Lines are compared as lists of token texts, plain strings. The reference
side does not depend on the candidate, so it is built once, as a
BleuReferences table: for each order up to the longest reference, every
reference n-gram with its highest count in any one reference, plus the
sorted distinct reference lengths. An order longer than every reference has
no n-grams to match, so it needs no table, and a large max_order costs
nothing. Scoring a candidate costs one dict lookup per candidate n-gram and
one bisect for the brevity penalty, whatever the number of references. A
screen of C candidates against R references therefore costs O(R + C log R)
instead of O(C * R).

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

EPSILON = 1e-9


def _ngrams(texts: Sequence[str], order: int) -> dict[tuple[str, ...], int]:
    """Each n-gram of the order in texts, with its count: len(texts) - order
    + 1 n-grams in all, or none when texts is shorter than order."""
    counts: dict[tuple[str, ...], int] = {}
    get = counts.get
    for gram in zip(*[texts[k:] for k in range(order)]):
        counts[gram] = get(gram, 0) + 1
    return counts


class BleuReferences:
    """The reference side of BLEU, built once and shared by many candidates.

    best[order - 1] maps each n-gram of that order to its highest count in
    any one reference (the clipping bound), for orders up to
    min(max_order, longest reference); lengths are the sorted distinct
    reference lengths.
    """

    def __init__(self, references: Sequence[Sequence[str]], max_order: int = 4):
        if max_order < 1:
            raise UndefinedInputError(f"max_order must be >= 1, got {max_order}")
        self.max_order = max_order
        self.lengths = sorted({len(ref) for ref in references})
        longest = self.lengths[-1] if self.lengths else 0
        self.best: list[dict[tuple[str, ...], int]] = []
        for order in range(1, min(max_order, longest) + 1):
            best: dict[tuple[str, ...], int] = {}
            for ref in references:
                for gram, count in _ngrams(ref, order).items():
                    if count > best.get(gram, 0):
                        best[gram] = count
            self.best.append(best)

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


def bleu(candidate: Sequence[str], references: BleuReferences) -> float:
    """BLEU of one candidate's token texts against a reference table, up to
    the table's max_order.

    An empty candidate is undefined input. With no references the score is
    0.0 by convention (there is nothing to resemble).
    """
    c = len(candidate)
    if not c:
        raise UndefinedInputError("bleu is undefined for an empty candidate")
    if not references.lengths:
        return 0.0

    tables = references.best
    orders = min(c, references.max_order)  # the orders the candidate has n-grams of
    log_sum = 0.0
    for order in range(1, orders + 1):
        clipped = 0
        if order <= len(tables):  # no reference is long enough otherwise
            bound_of = tables[order - 1].get
            for gram, count in _ngrams(candidate, order).items():
                bound = bound_of(gram, 0)
                clipped += count if count < bound else bound
        total = c - order + 1  # the candidate's n-grams of this order
        log_sum += math.log((clipped + EPSILON) / (total + EPSILON))
    geo_mean = math.exp(log_sum / orders)

    r = references.closest_length(c)
    penalty = 1.0 if c >= r else math.exp(1.0 - r / c)
    return penalty * geo_mean
