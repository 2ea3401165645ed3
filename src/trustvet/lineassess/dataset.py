"""Line dataset construction for the benign-line classifiers.

Positives are lines a security fix deleted or modified. Negatives are lines
sampled from functions with no known vulnerability, then screened: any
sampled line whose BLEU similarity to the vulnerable set reaches the
threshold is discarded, because a near-copy of a vulnerable line teaches the
classifier nothing and poisons the negative class.

Both read a source's lines through the lexer's code_lines, as the parser
does: comments are blanked, a block comment that spans lines included, and
a line refused for white space that C does not have (U+00A0, say) outside a
comment or literal yields no sample: no screen ever sees its text.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from ..corpus import NON_VULNERABLE, VULNERABLE, CorpusRecord
from ..errors import DiffMismatchError, SchemaError, UndefinedInputError
from ..frontend.lexer import code_lines, is_substantive_line, normalize_line
from ..pdg import SCHEMA_VERSION, check_schema_version, is_strict_int, read_json_object
from .bleu import BleuReferences, bleu
from .diffs import record_vulnerable_lines
from .features import ScreenText


class LineLabel(Enum):
    VULNERABLE = "vulnerable"
    NON_VULNERABLE = "non-vulnerable"


@dataclass(frozen=True)
class Origin:
    function_id: str
    line: int


@dataclass(frozen=True)
class LineSample:
    """One source line with a label and its provenance. The text is the
    line's normal form: its token texts joined by single spaces, none of
    them empty or holding a space.

    A plain str text is wrapped in a ScreenText, which equals it: it keeps
    the line's tokens once they are read, so every view of a model build
    reads one tokenization of the sample."""

    text: str
    label: LineLabel
    origin: Origin

    def __post_init__(self):
        if not self.text:
            raise SchemaError(f"{self.origin}: empty line sample")
        if not isinstance(self.text, ScreenText):
            object.__setattr__(self, "text", ScreenText(self.text))


def vulnerable_samples(record: CorpusRecord) -> list[LineSample]:
    """Positive samples for one vulnerable function, from the lines
    record_vulnerable_lines names whose code is substantive and unrefused."""
    if record.diff is None and not record.vul_lines:
        raise DiffMismatchError(
            f"record {record.function_id}: vulnerable but has neither diff nor vul_lines"
        )
    lines = record_vulnerable_lines(record)
    code, refused = code_lines(record.source)
    return [
        LineSample(normalize_line(code[line - 1]), LineLabel.VULNERABLE, Origin(record.function_id, line))
        for line in sorted(lines)
        if line not in refused and is_substantive_line(code[line - 1])
    ]


def sample_candidate_negatives(
    records: Sequence[CorpusRecord], n: int, seed: int
) -> list[LineSample]:
    """Uniform sample, without replacement, of min(n, pool size) substantive
    lines drawn from the non-vulnerable functions of a corpus: at most the
    whole pool. The pool holds each substantive, unrefused line's code,
    judged without tokenizing it; only the picked lines are tokenized, once
    each, for their normal form."""
    if not is_strict_int(n) or n < 0:
        raise UndefinedInputError(f"the number of negatives to sample must be an int >= 0, got {n!r}")
    pool: list[tuple[str, int, str]] = []
    for record in records:
        if record.label != NON_VULNERABLE:
            continue
        code, refused = code_lines(record.source)
        for lineno, text in enumerate(code, start=1):
            if is_substantive_line(text) and lineno not in refused:
                pool.append((record.function_id, lineno, text))
    picked = random.Random(seed).sample(pool, min(n, len(pool)))
    return [
        LineSample(normalize_line(text), LineLabel.NON_VULNERABLE, Origin(function_id, lineno))
        for function_id, lineno, text in picked
    ]


def filter_negatives(
    candidates: Iterable[LineSample],
    vulnerable: Sequence[LineSample],
    threshold: float = 0.5,
    max_order: int = 4,
) -> list[LineSample]:
    """Keep candidates strictly below the BLEU threshold against the
    vulnerable set. Idempotent: filtering a filtered list changes nothing.
    The vulnerable side is tabulated once and shared by every candidate.

    A sample's text is a normal form, so splitting it at single spaces
    gives its token texts without tokenizing it again. It must be
    split(" "), not split(): some one-character tokens, such as U+00A0 or
    U+3000, are white space to str.split."""
    references = BleuReferences([v.text.split(" ") for v in vulnerable], max_order)
    kept: list[LineSample] = []
    for cand in candidates:
        if bleu(cand.text.split(" "), references) < threshold:
            kept.append(cand)
    return kept


def build_line_dataset(
    records: Sequence[CorpusRecord],
    seed: int,
    neg_ratio: float = 1.0,
    bleu_threshold: float = 0.5,
    bleu_order: int = 4,
) -> tuple[list[LineSample], dict[str, int]]:
    """The full ingestion step: positives from every vulnerable record,
    negatives sampled at neg_ratio times the positive count and then
    BLEU-screened. Returns the samples plus a summary of the counts."""
    if not math.isfinite(neg_ratio) or neg_ratio < 0:
        raise UndefinedInputError(f"neg_ratio must be a finite number >= 0, got {neg_ratio!r}")
    if not math.isfinite(bleu_threshold):
        raise UndefinedInputError(f"bleu_threshold must be finite, got {bleu_threshold!r}")
    positives: list[LineSample] = []
    for record in records:
        if record.label == VULNERABLE:
            positives.extend(vulnerable_samples(record))
    # a finite ratio can still overflow to inf; the sample is at most the pool
    wanted = math.ceil(min(neg_ratio * len(positives), sys.maxsize))
    candidates = sample_candidate_negatives(records, wanted, seed)
    negatives = filter_negatives(candidates, positives, bleu_threshold, bleu_order)
    counts = {
        "vulnerable": len(positives),
        "candidate_negatives": len(candidates),
        "bleu_filtered": len(candidates) - len(negatives),
        "negatives": len(negatives),
    }
    return positives + negatives, counts


# --- dataset persistence (JSONL) ---------------------------------------------


def save_line_dataset(samples: Sequence[LineSample], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema_version": SCHEMA_VERSION, "kind": "line-dataset"}) + "\n")
        for s in samples:
            fh.write(
                json.dumps(
                    {
                        "text": s.text,
                        "label": s.label.value,
                        "function_id": s.origin.function_id,
                        "line": s.origin.line,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def load_line_dataset(path: str | Path) -> list[LineSample]:
    lines = Path(path).read_bytes().splitlines()
    if not lines:
        raise SchemaError(f"{path}: empty dataset file")
    header = read_json_object(lines[0], f"{path} header")
    check_schema_version(header, f"{path} header")
    if header.get("kind") != "line-dataset":
        raise SchemaError(f"{path}: not a line dataset")
    samples: list[LineSample] = []
    for idx, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        doc = read_json_object(raw, f"{path}:{idx}")
        text, function_id, line = doc.get("text"), doc.get("function_id"), doc.get("line")
        if not isinstance(text, str) or not isinstance(function_id, str) or not is_strict_int(line):
            raise SchemaError(f"{path}:{idx}: text and function_id must be strings, line an int")
        if not text:
            raise SchemaError(f"{path}:{idx}: empty line sample")
        try:
            label = LineLabel(doc.get("label"))
        except ValueError as exc:
            raise SchemaError(f"{path}:{idx}: malformed sample ({exc})") from None
        samples.append(LineSample(text=text, label=label, origin=Origin(function_id, line)))
    return samples
