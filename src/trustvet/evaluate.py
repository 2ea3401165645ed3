"""Evaluation harness.

Ground truth for one prediction is the overlap between the explanation's
top-k suspicious lines and the known vulnerable lines: when the
intersection-over-union is at or below a cutoff the prediction is labeled
untrustworthy. The harness sweeps that cutoff, calibrates decision
thresholds on a held-out slice, and reports classification metrics for the
trust score against a naive baseline that distrusts low-confidence
predictions.

Untrustworthy is the positive class everywhere in this module. Both methods
score predictions so that LOWER values mean less trustworthy, which is what
the rank-based AUC orientation encodes.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .assess import assess_prediction
from .collector import nogc
from .config import RunConfig, require_iou_cutoff
from .corpus import CorpusRecord
from .errors import (
    CalibrationError,
    SchemaError,
    TrustvetError,
    UndefinedGroundTruthError,
    UndefinedInputError,
)
from .frontend import pdg_from_source
from .frontend.graphio import import_raw_graph
from .frontend.lexer import LineTable
from .lineassess.diffs import record_vulnerable_lines
from .lineassess.ensemble import BenignVerdict
from .pdg import SCHEMA_VERSION, Explanation, LineId, Pdg, is_strict_int, json_number


# --- ground truth ---------------------------------------------------------------


def iou(suspicious: Iterable[LineId], truth: Iterable[LineId]) -> float:
    """Intersection over union of two line sets."""
    s = frozenset(suspicious)
    t = frozenset(truth)
    if not t:
        raise UndefinedGroundTruthError("ground-truth line set is empty")
    if not s:
        return 0.0
    return len(s & t) / len(s | t)


def select_suspicious(expl: Explanation, k: int, resident: frozenset[LineId]) -> frozenset[LineId]:
    """Top-k explanation lines by score among the resident ones; ties prefer
    the smaller line id."""
    if k <= 0:
        raise UndefinedInputError(f"top-k must be positive, got {k}")
    pool = [(line, score) for line, score in expl.entries if line in resident]
    pool.sort(key=lambda item: (-item[1], item[0]))
    return frozenset(line for line, _ in pool[:k])


def label_ground_truth(iou_value: float, tau: float) -> bool:
    """True when the prediction counts as untrustworthy at cutoff tau."""
    return iou_value <= tau


# --- metrics --------------------------------------------------------------------


@dataclass(frozen=True)
class Metrics:
    accuracy: float | None
    auc: float | None
    precision: float | None
    sensitivity: float | None
    f1: float | None
    specificity: float | None
    gmean: float | None


def rank_auc(scores: Sequence[float], labels: Sequence[bool]) -> float | None:
    """Rank-based AUC with tie-averaged ranks, lower scores ranked as more
    likely positive (untrustworthy); None for single-class labels."""
    if len(scores) != len(labels):
        raise UndefinedInputError("scores and labels differ in length")
    pos = sum(1 for x in labels if x)
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        return None
    vals = [-s for s in scores]
    order = sorted(range(len(vals)), key=lambda i: vals[i])
    ranks = [0.0] * len(vals)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    rank_sum = sum(r for r, lab in zip(ranks, labels) if lab)
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def compute_metrics(
    truth: Sequence[bool],
    predictions: Sequence[bool],
    scores: Sequence[float] | None = None,
) -> Metrics:
    """Confusion-matrix metrics with None wherever a denominator is zero."""
    if len(truth) != len(predictions):
        raise UndefinedInputError("truth and predictions differ in length")
    tp = sum(1 for t, p in zip(truth, predictions) if t and p)
    fp = sum(1 for t, p in zip(truth, predictions) if not t and p)
    tn = sum(1 for t, p in zip(truth, predictions) if not t and not p)
    fn = sum(1 for t, p in zip(truth, predictions) if t and not p)
    n = tp + fp + tn + fn
    accuracy = (tp + tn) / n if n else None
    precision = tp / (tp + fp) if tp + fp else None
    sensitivity = tp / (tp + fn) if tp + fn else None
    specificity = tn / (tn + fp) if tn + fp else None
    if precision is None or sensitivity is None:
        f1 = None
    elif precision + sensitivity == 0:
        f1 = 0.0
    else:
        f1 = 2 * precision * sensitivity / (precision + sensitivity)
    if sensitivity is None or specificity is None:
        gmean = None
    else:
        gmean = math.sqrt(sensitivity * specificity)
    return Metrics(
        accuracy=accuracy,
        auc=None if scores is None else rank_auc(scores, truth),
        precision=precision,
        sensitivity=sensitivity,
        f1=f1,
        specificity=specificity,
        gmean=gmean,
    )


# --- threshold calibration ------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    threshold: float
    gmean: float
    degenerate: bool


def calibrate_threshold(scores: Sequence[float], labels: Sequence[bool]) -> CalibrationResult:
    """Pick the cutoff maximizing G-mean for the rule score < threshold.

    Candidates are the midpoints between consecutive distinct scores; ties
    resolve toward the smaller threshold. A single distinct score cannot be
    split, so that value is returned with the degenerate flag set.

    One sweep over the scores in sorted order keeps the running count of
    scores below each midpoint and of positives among them, so the cost is
    one sort. The count is taken against the midpoint value itself: when
    two distinct scores are adjacent doubles, their midpoint rounds to the
    lower one, which then falls outside "score < threshold".
    """
    if len(scores) != len(labels):
        raise UndefinedInputError("scores and labels differ in length")
    if not scores:
        raise CalibrationError("nothing to calibrate on")
    pos = sum(1 for x in labels if x)
    if pos == 0 or pos == len(labels):
        raise CalibrationError("calibration labels are single-class")
    distinct = sorted(set(scores))
    if len(distinct) == 1:
        return CalibrationResult(threshold=distinct[0], gmean=0.0, degenerate=True)

    neg = len(labels) - pos
    ordered = sorted(zip(scores, labels), key=lambda pair: pair[0])
    below = 0  # scores < candidate
    tp = 0  # positives among them, i.e. true positives of the rule
    best_threshold = None
    best_gmean = -1.0
    for lo, hi in zip(distinct, distinct[1:]):
        candidate = (lo + hi) / 2.0
        while below < len(ordered) and ordered[below][0] < candidate:
            if ordered[below][1]:
                tp += 1
            below += 1
        # the same expressions as compute_metrics, so the floats are equal
        sensitivity = tp / pos
        specificity = (neg - (below - tp)) / neg
        value = math.sqrt(sensitivity * specificity)
        if value > best_gmean:
            best_gmean = value
            best_threshold = candidate
    return CalibrationResult(threshold=best_threshold, gmean=best_gmean, degenerate=False)


def naive_baseline(confidence: float, threshold: float) -> bool:
    """The baseline distrusts any prediction whose confidence is below cutoff."""
    return confidence < threshold


# --- corpus-level evaluation ----------------------------------------------------


@dataclass(frozen=True)
class RecordResult:
    """Everything tau-independent about one evaluated prediction. Every
    field after function_id defaults to a skipped record's value, so a skip
    is RecordResult(function_id, reason)."""

    function_id: str
    skipped: str | None = None
    trust_score: float | None = None
    confidence: float | None = None
    iou: float | None = None
    suspicious: tuple[LineId, ...] = ()
    truth: tuple[LineId, ...] = ()
    degenerate: bool = False


@dataclass(frozen=True)
class TauReport:
    tau: float
    trust_threshold: float
    conf_threshold: float
    trust_degenerate: bool
    conf_degenerate: bool
    untrustworthy_count: int
    evaluated: int
    trust: Metrics
    naive: Metrics


@dataclass(frozen=True)
class EvaluationReport:
    taus: tuple[TauReport, ...]
    results: tuple[RecordResult, ...]
    skipped: Mapping[str, int]


def _record_pdg(record: CorpusRecord, table: LineTable | None) -> Pdg:
    if record.graph is not None:
        return import_raw_graph(record.graph, table).to_pdg()
    return pdg_from_source(record.source, function_id=record.function_id, table=table)


def evaluate_record(
    record: CorpusRecord,
    ensemble: Sequence,
    config: RunConfig,
    memo: dict[str, BenignVerdict] | None = None,
    table: LineTable | None = None,
) -> RecordResult:
    """Tau-independent evaluation of one prediction; failures become skips.

    The first failure names the skip, in the order the steps run: the
    explanation, the graph, the ground truth (checked against the source as
    ingest checks it, so a listed line the source does not have is a
    ground-truth skip) and the assessment.

    memo is the ensemble's screen memo, passed on to assess_prediction, and
    table the lexer.LineTable the record's parse or graph import reads its
    lines through (a fresh one when None). Neither changes the result.
    """
    if record.explanation is None or record.confidence is None:
        return RecordResult(record.function_id, "no-explanation")
    stage = "explanation"  # the step under way, which names its failure
    try:
        expl = record.to_explanation()
        stage = "graph"
        pdg = _record_pdg(record, table)
        stage = "ground-truth"
        truth = record_vulnerable_lines(record)
        if not truth:
            return RecordResult(record.function_id, "no-ground-truth")
        stage = "assessment"
        assessment = assess_prediction(
            expl,
            pdg,
            ensemble,
            threshold=0.0,
            normalize_weights=config.normalize_weights,
            mode=config.data_rule_mode,
            memo=memo,
        )
    except TrustvetError as exc:
        return RecordResult(record.function_id, f"{stage}: {exc}")
    suspicious = select_suspicious(expl, config.top_k, resident=pdg.nodes)
    return RecordResult(
        function_id=record.function_id,
        trust_score=assessment.trust_score,
        confidence=record.confidence,
        iou=iou(suspicious, truth),
        suspicious=tuple(sorted(suspicious)),
        truth=tuple(sorted(truth)),
        degenerate=assessment.degenerate,
    )


def _split_indices(n: int, fraction: float, seed: int) -> tuple[list[int], list[int]]:
    """Deterministic calibration/evaluation split over record positions."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    cut = math.ceil(fraction * n)
    return order[:cut], order[cut:]


def _pick_threshold(
    fixed: float | None, scores: Sequence[float], labels: Sequence[bool]
) -> tuple[float, bool]:
    if fixed is not None:
        return fixed, False
    try:
        result = calibrate_threshold(scores, labels)
    except CalibrationError:
        return 0.5, True
    return result.threshold, result.degenerate


@nogc
def run_evaluation(
    records: Sequence[CorpusRecord],
    ensemble: Sequence,
    config: RunConfig,
    taus: Sequence[float] | None = None,
) -> EvaluationReport:
    """Evaluate a corpus of predictions across one or more IoU cutoffs.

    When either decision threshold is left unset, a seeded slice of the
    usable records is reserved for calibration and the metrics are computed
    on the remainder; with both thresholds pinned every usable record is
    evaluated directly. Every record, in every worker thread, shares one
    screen memo, so a text-only ensemble screens each distinct line text
    once per call, and one line table, so each distinct code line is
    tokenized once per call, by every parse and graph import. Two threads
    may both tokenize a line neither has stored yet; they store the same
    entry. A cutoff outside [0, 1] raises SchemaError before any record is
    screened. The whole call runs with the cyclic garbage collector off
    (collector.nogc), so the caller's other threads run with it off too
    until the call returns.
    """
    if taus is None:
        taus = (config.iou_threshold,)
    for tau in taus:
        require_iou_cutoff(tau, "IoU cutoff")
    memo: dict[str, BenignVerdict] = {}
    table: LineTable = {}
    worker: Callable[[CorpusRecord], RecordResult] = lambda r: evaluate_record(
        r, ensemble, config, memo, table
    )
    workers = config.workers or 1
    if workers > 1 and len(records) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = tuple(pool.map(worker, records))
    else:
        results = tuple(map(worker, records))

    skipped: dict[str, int] = {}
    usable: list[RecordResult] = []
    for result in results:
        if result.skipped is None:
            usable.append(result)
        else:
            key = result.skipped.split(":", 1)[0]
            skipped[key] = skipped.get(key, 0) + 1

    need_split = config.trust_threshold is None or config.conf_threshold is None
    if need_split and usable:
        cal_idx, eval_idx = _split_indices(
            len(usable), config.calibration_fraction, config.seed
        )
        calibration = [usable[i] for i in cal_idx]
        evaluation = [usable[i] for i in sorted(eval_idx)]
    else:
        calibration = []
        evaluation = usable

    reports: list[TauReport] = []
    for tau in taus:
        cal_labels = [label_ground_truth(r.iou, tau) for r in calibration]
        trust_threshold, trust_degenerate = _pick_threshold(
            config.trust_threshold,
            [r.trust_score for r in calibration],
            cal_labels,
        )
        conf_threshold, conf_degenerate = _pick_threshold(
            config.conf_threshold,
            [r.confidence for r in calibration],
            cal_labels,
        )
        truth = [label_ground_truth(r.iou, tau) for r in evaluation]
        trust_scores = [r.trust_score for r in evaluation]
        conf_scores = [r.confidence for r in evaluation]
        trust_preds = [s < trust_threshold for s in trust_scores]
        naive_preds = [naive_baseline(c, conf_threshold) for c in conf_scores]
        reports.append(
            TauReport(
                tau=tau,
                trust_threshold=trust_threshold,
                conf_threshold=conf_threshold,
                trust_degenerate=trust_degenerate,
                conf_degenerate=conf_degenerate,
                untrustworthy_count=sum(1 for t in truth if t),
                evaluated=len(evaluation),
                trust=compute_metrics(truth, trust_preds, trust_scores),
                naive=compute_metrics(truth, naive_preds, conf_scores),
            )
        )
    return EvaluationReport(taus=tuple(reports), results=results, skipped=skipped)


# --- rendering and serialization -------------------------------------------------

_METHODS = ("trust", "naive")
_METRIC_FIELDS = (
    ("Acc", "accuracy"),
    ("AUC", "auc"),
    ("Pre", "precision"),
    ("Sen", "sensitivity"),
    ("F1", "f1"),
    ("Spe", "specificity"),
    ("Gm", "gmean"),
)


def report_to_dict(report: EvaluationReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "skipped": dict(sorted(report.skipped.items())),
        "taus": [asdict(t) for t in report.taus],
        "records": [asdict(r) for r in report.results],
    }


def _fmt(value: float | None) -> str:
    return "  -  " if value is None else f"{value:.3f}"


def _check_table_fields(doc: dict) -> None:
    """Raise SchemaError unless a report document holds what render_table reads."""
    what = "evaluation report"
    skipped = doc.get("skipped")
    if not isinstance(skipped, dict) or not all(is_strict_int(n) for n in skipped.values()):
        raise SchemaError(f"{what}: 'skipped' must map reasons to counts")
    taus = doc.get("taus")
    if not isinstance(taus, list):
        raise SchemaError(f"{what}: 'taus' must be an array")
    for t in taus:
        if not isinstance(t, dict) or not all(isinstance(t.get(m), dict) for m in _METHODS):
            raise SchemaError(f"{what}: each cutoff needs 'trust' and 'naive' objects")
        json_number(t.get("tau"), f"{what}: tau")
        for method in _METHODS:
            metrics = t[method]
            for _, name in _METRIC_FIELDS:
                if name not in metrics or metrics[name] is not None:
                    json_number(metrics.get(name), f"{what}: {method} {name}")


def render_table(doc: dict) -> str:
    """Fixed-width metric table of a report document (report_to_dict's
    form), one row per method per cutoff; a document that lacks a field it
    reads raises SchemaError."""
    _check_table_fields(doc)
    header = f"{'tau':>5}  {'method':<6}  " + "  ".join(f"{name:>5}" for name, _ in _METRIC_FIELDS)
    out = [header, "-" * len(header)]
    for t in doc["taus"]:
        for method in _METHODS:
            cells = "  ".join(_fmt(t[method][field]) for _, field in _METRIC_FIELDS)
            out.append(f"{t['tau']:>5.2f}  {method:<6}  {cells}")
    total_skipped = sum(doc["skipped"].values())
    if total_skipped:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(doc["skipped"].items()))
        out.append(f"skipped {total_skipped} record(s): {detail}")
    return "\n".join(out) + "\n"
