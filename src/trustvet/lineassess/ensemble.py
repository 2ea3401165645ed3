"""Majority voting over the per-line classifiers.

A line is a benign candidate when at least half of the classifiers vote for
it: mean(votes) >= 0.5, so a [1, 0] tie resolves to benign. Verdicts are
produced only for explanation lines that are resident in the graph; lines
the graph dropped have no text to classify.

Linear and lookup classifiers vote on the line text alone, so an ensemble
made only of them can reuse a verdict for every line with the same text.
benign_candidates takes a memo from text to (votes, benign) for that: a
caller that screens many functions, such as run_evaluation, passes one memo
for the whole run and so screens each distinct line text once. An ensemble
with any other member (an adapter, a test stub) asks every member about
every line. A text whose screening raises is never stored, so the error
still names the first failing line in explanation order.

Every member still gets its own classify call, but one screen of one text
hands them all the same ScreenText: the line is normalized and tokenized
once for the whole ensemble. That object lives for one screen only: the
memo stores the votes, never it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import ClassificationError, TrustvetError, UndefinedInputError
from ..pdg import Explanation, LineId
from .classifier import LinearLineClassifier, LookupLineClassifier, ScreenText

# members whose votes depend on the line text alone
_TEXT_ONLY = (LinearLineClassifier, LookupLineClassifier)

# what a screen memo holds for one line text: the votes and the verdict
Screen = tuple[tuple[int, ...], bool]


def ensemble_vote(votes: Sequence[int]) -> int:
    """1 when the benign votes reach half of the ensemble."""
    if len(votes) == 0:
        raise UndefinedInputError("ensemble_vote needs at least one vote")
    if any(v not in (0, 1) for v in votes):
        raise UndefinedInputError(f"votes must be 0 or 1, got {list(votes)!r}")
    return 1 if sum(votes) / len(votes) >= 0.5 else 0


@dataclass(frozen=True)
class BenignVerdict:
    line: LineId
    votes: tuple[int, ...]
    is_benign_candidate: bool


def benign_candidates(
    ensemble: Sequence,
    expl: Explanation,
    line_text: Mapping[LineId, str],
    memo: dict[str, Screen] | None = None,
) -> dict[LineId, BenignVerdict]:
    """One verdict per explanation line resident in the graph.

    memo maps line texts this ensemble has screened to their verdicts; it
    is read and filled only when every member is text-only, and a local one
    is used when none is passed. It must belong to this ensemble alone.
    Classifier and adapter failures are re-raised annotated with the line
    being scored, so a batch run can report exactly where it died.
    """
    if len(ensemble) == 0:
        raise UndefinedInputError("benign_candidates needs at least one classifier")
    if not all(isinstance(clf, _TEXT_ONLY) for clf in ensemble):
        memo = None
    elif memo is None:
        memo = {}
    verdicts: dict[LineId, BenignVerdict] = {}
    for line, _score in expl.entries:
        text = line_text.get(line)
        if text is None:
            continue
        screen = None if memo is None else memo.get(text)
        if screen is None:
            screen = _screen(ensemble, line, text)
            if memo is not None:
                memo[text] = screen
        votes, benign = screen
        verdicts[line] = BenignVerdict(line=line, votes=votes, is_benign_candidate=benign)
    return verdicts


def _screen(ensemble: Sequence, line: LineId, text: str) -> Screen:
    """Every member's vote on one line, and the majority verdict."""
    shared = ScreenText(text)
    votes = []
    for clf in ensemble:
        try:
            votes.append(clf.classify(shared)[0])
        except TrustvetError as exc:
            raise ClassificationError(line, str(exc)) from exc
    return tuple(votes), ensemble_vote(votes) == 1
