"""Per-layer metrics: where the spans go, what they count, and the growth
exponents measured at two input sizes.

Layers are trustvet's modules: frontend (lexer, parser, graphio), pdg,
lineassess (ensemble, dataset/bleu, classifier), assess, evaluate and cli.
Each wrapper sits on the module attribute its caller looks up, e.g.
trustvet.frontend.parse_function is what pdg_from_source calls.
"""

from __future__ import annotations

import math
import random
import statistics
from time import perf_counter

import inputs
import trustvet.assess
import trustvet.cli
import trustvet.evaluate
import trustvet.frontend
import trustvet.frontend.graphio
import trustvet.lineassess.classifier
import trustvet.lineassess.dataset
from spans import Tracer
from trustvet.evaluate import calibrate_threshold
from trustvet.frontend.parser import parse_function
from trustvet.lineassess.dataset import filter_negatives, sample_candidate_negatives, vulnerable_samples


def install_tracer() -> Tracer:
    tracer = Tracer()
    counts = tracer.counts

    def parsed(args, kwargs, result):
        counts["frontend.lines"] += len(args[0].splitlines())

    def merged(args, kwargs, pdg):
        counts["frontend.graphs"] += 1
        counts["frontend.pdg_nodes"] += len(pdg.nodes)
        counts["frontend.pdg_edges"] += len(pdg.edges)

    def screened(args, kwargs, verdicts):
        counts["ensemble.lines_screened"] += len(verdicts)
        if tracer.first_visit:
            line_text = args[2]
            tracer.first_visit_values.extend(line_text[line] for line in verdicts)

    def assessed(args, kwargs, assessment):
        benign = sum(1 for v in assessment.benign.values() if v.is_benign_candidate)
        targets = len(assessment.benign) - benign
        counts["assess.benign_candidates"] += benign
        counts["assess.targets"] += targets
        counts["assess.search_pairs"] += benign * targets

    def calibrated(args, kwargs, result):
        counts["evaluate.calibration_scores"] += len(args[0])

    def filtered(args, kwargs, kept):
        counts["dataset.screened"] += len(args[0])
        counts["dataset.kept"] += len(kept)

    def trained(args, kwargs, model):
        counts["classifier.features"] += len(model.vocabulary)
        counts["classifier.dense_cells"] += len(args[0]) * len(model.vocabulary)

    frontend = trustvet.frontend
    graphio = trustvet.frontend.graphio
    dataset = trustvet.lineassess.dataset
    tracer.wrap(frontend, "parse_function", "frontend.parse_function", parsed)
    tracer.wrap(frontend, "merge_line_nodes", "frontend.merge_line_nodes", merged)
    tracer.wrap(graphio, "import_raw_graph", "frontend.import_raw_graph")
    tracer.wrap(graphio, "merge_imported_nodes", "frontend.merge_imported_nodes", merged)
    tracer.wrap(trustvet.assess, "build_weighted_pdg", "pdg.build_weighted_pdg")
    tracer.wrap(trustvet.assess, "benign_candidates", "ensemble.benign_candidates", screened)
    tracer.wrap(trustvet.assess, "assess_prediction", "assess.assess_prediction", assessed)
    tracer.wrap(trustvet.evaluate, "assess_prediction", "assess.assess_prediction", assessed)
    tracer.wrap(trustvet.evaluate, "run_evaluation", "evaluate.run_evaluation")
    tracer.wrap(trustvet.evaluate, "evaluate_record", "evaluate.evaluate_record")
    tracer.wrap(trustvet.evaluate, "calibrate_threshold", "evaluate.calibrate_threshold", calibrated)
    tracer.wrap(dataset, "build_line_dataset", "dataset.build_line_dataset")
    tracer.wrap(dataset, "sample_candidate_negatives", "dataset.sample_candidate_negatives")
    tracer.wrap(dataset, "filter_negatives", "dataset.filter_negatives", filtered)
    tracer.count_calls(dataset, "bleu", "dataset.bleu_calls")
    tracer.wrap(
        trustvet.lineassess.classifier,
        "train_classifier",
        lambda args, kwargs: f"classifier.train_{args[1].value}",
        trained,
    )
    tracer.wrap(trustvet.cli, "load_ensemble", "cli.load_ensemble")
    return tracer


# metric name -> unit, in report order
UNITS = {
    "frontend.parse_ms": "ms",
    "frontend.lines_per_s": "lines/s",
    "frontend.merge_ms": "ms",
    "frontend.import_ms": "ms",
    "frontend.pdg_nodes": "count",
    "frontend.pdg_edges": "count",
    "frontend.parse_growth": "exponent",
    "pdg.weight_ms": "ms",
    "ensemble.screen_ms": "ms",
    "ensemble.lines_screened": "count",
    "ensemble.classify_calls": "count",
    "ensemble.distinct_text_ratio": "ratio",
    "assess.relate_self_ms": "ms",
    "assess.benign_candidates": "count",
    "assess.targets": "count",
    "assess.search_pairs": "count",
    "evaluate.record_ms": "ms",
    "evaluate.calibrate_ms": "ms",
    "evaluate.calibrate_calls": "count",
    "evaluate.calibration_scores": "count",
    "evaluate.calibrate_growth": "exponent",
    "evaluate.self_ms": "ms",
    "dataset.sample_ms": "ms",
    "dataset.bleu_screen_ms": "ms",
    "dataset.bleu_calls": "count",
    "dataset.bleu_keep_ratio": "ratio",
    "dataset.bleu_growth": "exponent",
    "classifier.train_token_ngram_ms": "ms",
    "classifier.train_char_ngram_ms": "ms",
    "classifier.train_syntax_shape_ms": "ms",
    "classifier.features": "count",
    "classifier.dense_cells": "count",
    "cli.load_ensemble_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(tracer: Tracer, workload, overhead: float, growth: dict,
                  slower: float) -> tuple[dict, list[str]]:
    """Every per-layer metric, plus the problems that fail the traced run:
    a boundary that recorded nothing where it should run, or a negative
    self time. Layers a workload never enters read 0. Times are divided by
    `slower`, the traced run's gauge factor (gauge.py), like the end-to-end
    times."""
    calls, total, own, negative = tracer.totals()
    counts = tracer.counts
    problems = [f"{workload.name}: no span recorded at {name}"
                for name in workload.expected_spans if not calls.get(name)]
    problems += [f"{workload.name}: nothing counted at {name}"
                 for name in workload.expected_counts if not counts.get(name)]
    if negative:
        problems.append(f"{negative} spans have a negative self time")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def per_call_ms(name: str, table=total) -> float:
        return 1000.0 * ratio(table.get(name, 0.0), calls.get(name, 0)) / slower

    trainings = sum(calls.get(f"classifier.train_{v}", 0) for v in ("token_ngram", "char_ngram", "syntax_shape"))
    imports = calls.get("frontend.import_raw_graph", 0)
    screens = calls.get("ensemble.benign_candidates", 0)
    assessments = calls.get("assess.assess_prediction", 0)
    texts = tracer.first_visit_values  # the texts screened
    values = {
        "frontend.parse_ms": per_call_ms("frontend.parse_function"),
        "frontend.lines_per_s": slower * ratio(counts["frontend.lines"], total.get("frontend.parse_function", 0.0)),
        "frontend.merge_ms": per_call_ms("frontend.merge_line_nodes"),
        "frontend.import_ms": 1000.0 * ratio(
            total.get("frontend.import_raw_graph", 0.0) + total.get("frontend.merge_imported_nodes", 0.0),
            imports,
        ) / slower,
        "frontend.pdg_nodes": ratio(counts["frontend.pdg_nodes"], counts["frontend.graphs"]),
        "frontend.pdg_edges": ratio(counts["frontend.pdg_edges"], counts["frontend.graphs"]),
        "frontend.parse_growth": growth["parse"],
        "pdg.weight_ms": per_call_ms("pdg.build_weighted_pdg"),
        "ensemble.screen_ms": per_call_ms("ensemble.benign_candidates"),
        "ensemble.lines_screened": ratio(counts["ensemble.lines_screened"], screens),
        "ensemble.classify_calls": ratio(counts["ensemble.classify_calls"], screens),
        "ensemble.distinct_text_ratio": ratio(len(set(texts)), len(texts)),
        "assess.relate_self_ms": per_call_ms("assess.assess_prediction", own),
        "assess.benign_candidates": ratio(counts["assess.benign_candidates"], assessments),
        "assess.targets": ratio(counts["assess.targets"], assessments),
        "assess.search_pairs": ratio(counts["assess.search_pairs"], assessments),
        "evaluate.record_ms": per_call_ms("evaluate.evaluate_record"),
        "evaluate.calibrate_ms": per_call_ms("evaluate.calibrate_threshold"),
        "evaluate.calibrate_calls": ratio(calls.get("evaluate.calibrate_threshold", 0),
                                          calls.get("evaluate.run_evaluation", 0)),
        "evaluate.calibration_scores": ratio(counts["evaluate.calibration_scores"],
                                             calls.get("evaluate.calibrate_threshold", 0)),
        "evaluate.calibrate_growth": growth["calibrate"],
        "evaluate.self_ms": per_call_ms("evaluate.run_evaluation", own),
        "dataset.sample_ms": per_call_ms("dataset.sample_candidate_negatives"),
        "dataset.bleu_screen_ms": per_call_ms("dataset.filter_negatives"),
        "dataset.bleu_calls": ratio(counts["dataset.bleu_calls"], calls.get("dataset.filter_negatives", 0)),
        "dataset.bleu_keep_ratio": ratio(counts["dataset.kept"], counts["dataset.screened"]),
        "dataset.bleu_growth": growth["bleu"],
        "classifier.train_token_ngram_ms": per_call_ms("classifier.train_token_ngram"),
        "classifier.train_char_ngram_ms": per_call_ms("classifier.train_char_ngram"),
        "classifier.train_syntax_shape_ms": per_call_ms("classifier.train_syntax_shape"),
        "classifier.features": ratio(counts["classifier.features"], trainings),
        "classifier.dense_cells": ratio(counts["classifier.dense_cells"], trainings),
        "cli.load_ensemble_ms": per_call_ms("cli.load_ensemble"),
        "trace.overhead_ratio": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}, problems


# --- growth exponents -------------------------------------------------------------------


def _slope(small, large, x_small: float, x_large: float, repeats: int) -> float:
    """Slope of log time against log size between two sizes. Each repeat
    times the small and the large call back to back and the median of their
    ratios is used, so a slow spell of the machine hits both sides alike."""
    ratios = []
    for _ in range(repeats):
        start = perf_counter()
        small()
        middle = perf_counter()
        large()
        ratios.append((perf_counter() - middle) / (middle - start))
    return math.log(statistics.median(ratios)) / math.log(x_large / x_small)


PARSE_LINES = (150, 600)
BLEU_POSITIVES = (80, 240)
CALIBRATION_SCORES = (300, 1200)


def growth_exponents(seed: int, repeats: int) -> dict:
    """How parse, the BLEU screen and calibration scale, each measured at
    two sizes on seeded inputs, with the package's own functions unwrapped."""
    rng = random.Random(seed)
    small, large = (
        inputs.c_function(rng, "growth", n, shape=random.Random(n)).source for n in PARSE_LINES
    )
    parse = _slope(lambda: parse_function(small), lambda: parse_function(large), *PARSE_LINES, repeats)

    records = inputs.ingest_corpus(seed, BLEU_POSITIVES[1], BLEU_POSITIVES[1], fixed_lines=1)
    positives = [s for r in records if r.label == "vulnerable" for s in vulnerable_samples(r)]
    candidates = sample_candidate_negatives(records, BLEU_POSITIVES[1], seed)
    p1, p2 = BLEU_POSITIVES
    bleu = _slope(
        lambda: filter_negatives(candidates[:p1], positives[:p1]),
        lambda: filter_negatives(candidates[:p2], positives[:p2]),
        p1, p2, repeats,
    )

    scores = [rng.random() for _ in range(CALIBRATION_SCORES[1])]
    labels = [rng.random() < 0.4 for _ in scores]
    labels[0], labels[1] = True, False  # both classes in either slice
    n1, n2 = CALIBRATION_SCORES
    calibrate = _slope(
        lambda: calibrate_threshold(scores[:n1], labels[:n1]),
        lambda: calibrate_threshold(scores[:n2], labels[:n2]),
        n1, n2, repeats,
    )
    return {"parse": parse, "bleu": bleu, "calibrate": calibrate}
