"""The benchmark's four workloads.

Each workload is a closed loop with one client: it sends the next operation
only after the previous one returns, in one process with no extra threads.
A workload prepares its inputs from the seed (untimed), runs one operation
at a time, and checks each result outside the timed region.

    assess-long      one verdict on a long function parsed from source
    assess-imported  one verdict on an imported graph, dense explanation
    evaluate-corpus  one run_evaluation call over a planted-shape corpus
    build-models     build_line_dataset, then train_classifier per view
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from time import perf_counter

import inputs
import trustvet.assess
import trustvet.cli
import trustvet.evaluate
import trustvet.frontend
import trustvet.frontend.graphio
import trustvet.lineassess.classifier
import trustvet.lineassess.dataset
from trustvet.assess import assessment_to_dict
from trustvet.config import RunConfig
from trustvet.corpus import record_to_dict
from trustvet.frontend.lexer import tokenize_line
from trustvet.lineassess.classifier import TrainConfig, save_model
from trustvet.lineassess.dataset import LineLabel, save_line_dataset
from trustvet.lineassess.ensemble import benign_candidates
from trustvet.lineassess.features import ALL_VIEWS
from trustvet.pdg import Explanation, build_weighted_pdg, dumps_canonical, explanation_from_dict

# The screening ensemble is a fixed artifact, like a deployed model: it is
# trained from its own seed, so every workload seed screens with the same
# members and the recorded digests stay valid.
ENSEMBLE_SEED = 0
ENSEMBLE_CORPUS = dict(n_vulnerable=40, n_clean=40, fixed_lines=9)

# Lengths from a few hundred to a thousand lines. Inputs of one length cost
# the same, and the middle length holds half of them, so the median verdict
# time rests on about ten timings spread over the run rather than on the one
# or two inputs ranked in the middle.
LONG_SIZES = [250] * 2 + [350] * 2 + [500] * 8 + [700] * 2 + [850, 1000]
IMPORTED_SIZES = inputs.size_grid(100, 300, 32)
# Enough records that per-record overhead and repeated-text screening dominate,
# few enough that a run holds four calls and their median steadies.
EVALUATION_RECORDS = 1600
TAUS = (0.25, 0.5, 0.75)
INGEST_CORPUS = dict(n_vulnerable=200, n_clean=200, fixed_lines=2, shape_seed=0)
DOUBLE_EXPORTS = 4  # graph documents exported twice to check they repeat
ORACLE_SAMPLE = 30  # candidates whose BLEU keep/drop decision the oracle rechecks

# Reference inputs behind the digests in digests.json (fixed seed, small).
REFERENCE_SEED = 0
REFERENCE_LONG_SIZES = [120, 160, 200]
REFERENCE_IMPORTED_SIZES = [100, 120, 140]
REFERENCE_EVALUATION_RECORDS = 120

ASSESS_THRESHOLD = 0.5
BLEU_THRESHOLD = 0.5  # build_line_dataset's default screen cutoff


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def input_digest(items) -> str:
    return sha256(json.dumps(items, sort_keys=True))


def train_ensemble(work: Path):
    """Ingest and train the screening ensemble; return the model directory
    and the digests of the dataset and model bytes."""
    records = inputs.ingest_corpus(ENSEMBLE_SEED, **ENSEMBLE_CORPUS)
    samples, _ = trustvet.lineassess.dataset.build_line_dataset(records, seed=ENSEMBLE_SEED)
    models = [
        trustvet.lineassess.classifier.train_classifier(samples, view, TrainConfig(seed=ENSEMBLE_SEED))
        for view in ALL_VIEWS
    ]
    model_dir = work / "models"
    trustvet.cli.save_ensemble(models, model_dir)
    save_line_dataset(samples, work / "ensemble-dataset.jsonl")
    digests = {
        "dataset": sha256((work / "ensemble-dataset.jsonl").read_bytes()),
        "models": sha256(b"".join(p.read_bytes() for p in sorted(model_dir.iterdir()))),
    }
    return model_dir, digests


def assessment_digest(expl: Explanation, pdg, assessment) -> str:
    g = build_weighted_pdg(pdg, expl, normalize=True)
    return sha256(dumps_canonical(assessment_to_dict(assessment, g)))


class Workload:
    """Base: subclasses set the class attributes and fill self.items."""

    name = ""
    uses_ensemble = True
    item_unit = ""
    # span names that must appear in a traced run of this workload
    expected_spans: tuple[str, ...] = ()
    expected_counts: tuple[str, ...] = ()

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.items: list = []
        self.order: list[int] = []
        self.ensemble: list = []
        self.first_digest: dict[int, str] = {}

    def generate(self, seed: int) -> list:
        raise NotImplementedError

    def prepare(self) -> list[str]:
        """Build the inputs twice and compare their bytes; return problems."""
        self.items = self.generate(self.seed)
        again = self.generate(self.seed)
        if input_digest(self.serializable(self.items)) != input_digest(self.serializable(again)):
            return [f"{self.name}: seed {self.seed} did not give byte-identical inputs"]
        return []

    def serializable(self, items) -> list:
        return items

    def items_per_op(self, index: int) -> int:
        return 1

    def properties(self) -> dict[str, float]:
        """Input shares a claim about this workload must cite."""
        return {}

    def op(self, index: int):
        """One operation a caller waits for; runs inside the timed region."""
        raise NotImplementedError

    def check(self, index: int, result) -> str | None:
        raise NotImplementedError

    def repeat_check(self, index: int, digest: str) -> str | None:
        first = self.first_digest.setdefault(index, digest)
        if first != digest:
            return f"item {index}: output bytes changed between repeats"
        return None

    def reference_digests(self) -> dict:
        """Digests of this workload's outputs on the fixed reference inputs."""
        return {}


class _AssessWorkload(Workload):
    item_unit = "predictions"
    sizes: list[int] = []
    reference_sizes: list[int] = []

    def inputs_for(self, seed: int, sizes: list[int]) -> list[dict]:
        raise NotImplementedError

    def generate(self, seed):
        return self.inputs_for(seed, self.sizes)

    def ready(self, items: list[dict]) -> list[dict]:
        """Turn generated items into what the operation reads."""
        return items

    def graph(self, item):
        raise NotImplementedError

    def prepare(self) -> list[str]:
        problems = super().prepare()
        self.explanations = [explanation_from_dict(item["explanation"]) for item in self.items]
        self.order = inputs.spread_order(len(self.items))
        return problems

    def properties(self):
        return {
            "mean source lines": sum(item["lines"] for item in self.items) / len(self.items),
            "mean explained lines": sum(len(e.entries) for e in self.explanations) / len(self.items),
        }

    def op(self, index):
        pdg = self.graph(self.items[index])
        assessment = trustvet.assess.assess_prediction(
            self.explanations[index], pdg, self.ensemble, threshold=ASSESS_THRESHOLD
        )
        return pdg, assessment

    def check(self, index, result):
        pdg, assessment = result
        expl = self.explanations[index]
        flagged = set(self.items[index]["flagged"])
        if assessment.warnings:
            return f"item {index}: unexpected warnings {assessment.warnings}"
        if not math.isfinite(assessment.trust_score) or assessment.trust_score < 0:
            return f"item {index}: trust score {assessment.trust_score!r}"
        for line, _ in expl.entries:
            verdict = assessment.benign.get(line)
            if verdict is None or verdict.is_benign_candidate == (line in flagged):
                return f"item {index}: line {line} screened against its planted label"
        return self.repeat_check(index, assessment_digest(expl, pdg, assessment))

    def reference_digests(self) -> dict:
        digests = []
        for item in self.ready(self.inputs_for(REFERENCE_SEED, self.reference_sizes)):
            expl = explanation_from_dict(item["explanation"])
            pdg = self.graph(item)
            assessment = trustvet.assess.assess_prediction(
                expl, pdg, self.ensemble, threshold=ASSESS_THRESHOLD
            )
            digests.append(assessment_digest(expl, pdg, assessment))
        return {self.name: digests}


class AssessLong(_AssessWorkload):
    name = "assess-long"
    sizes = LONG_SIZES
    reference_sizes = REFERENCE_LONG_SIZES
    expected_spans = (
        "frontend.parse_function", "frontend.merge_line_nodes", "pdg.build_weighted_pdg",
        "ensemble.benign_candidates", "assess.assess_prediction", "cli.load_ensemble",
    )
    expected_counts = ("ensemble.classify_calls",)

    def inputs_for(self, seed, sizes):
        return inputs.assess_long_inputs(seed, sizes)

    def graph(self, item):
        return trustvet.frontend.pdg_from_source(item["source"])


class AssessImported(_AssessWorkload):
    name = "assess-imported"
    sizes = IMPORTED_SIZES
    reference_sizes = REFERENCE_IMPORTED_SIZES
    expected_spans = (
        "frontend.import_raw_graph", "frontend.merge_imported_nodes", "pdg.build_weighted_pdg",
        "ensemble.benign_candidates", "assess.assess_prediction", "cli.load_ensemble",
    )
    expected_counts = ("ensemble.classify_calls",)

    def inputs_for(self, seed, sizes):
        return inputs.assess_imported_inputs(seed, sizes)

    def ready(self, items):
        for item in items:
            item["graph"] = inputs.graph_document(item.pop("source"))
        return items

    def prepare(self):
        # Exporting runs the parser, so only a spread sample of the graph
        # documents is built twice; the sources are all compared twice.
        problems = super().prepare()
        again = self.generate(self.seed)
        self.items = self.ready(self.items)
        for index in self.order[:DOUBLE_EXPORTS]:
            if inputs.graph_document(again[index]["source"]) != self.items[index]["graph"]:
                problems.append(f"{self.name}: item {index} exported to different graph bytes")
        return problems

    def graph(self, item):
        return trustvet.frontend.graphio.import_raw_graph(item["graph"]).to_pdg()


class EvaluateCorpus(Workload):
    name = "evaluate-corpus"
    item_unit = "records"
    expected_spans = (
        "evaluate.run_evaluation", "evaluate.evaluate_record", "evaluate.calibrate_threshold",
        "frontend.parse_function", "frontend.merge_line_nodes", "pdg.build_weighted_pdg",
        "ensemble.benign_candidates", "assess.assess_prediction", "cli.load_ensemble",
    )
    expected_counts = ("ensemble.classify_calls",)

    def generate(self, seed):
        return inputs.evaluation_corpus(seed, EVALUATION_RECORDS)

    def serializable(self, items):
        return [record_to_dict(r) for r in items]

    def prepare(self) -> list[str]:
        problems = super().prepare()
        self.order = [0]  # one operation evaluates the whole corpus
        self.config = RunConfig()  # both thresholds unset, workers unset
        self.template = trustvet.frontend.pdg_from_source(inputs.WORKER_TEMPLATE.format(name="probe"))
        self.distances = _shape_distances(self.template)
        return problems

    def items_per_op(self, index):
        return len(self.items)

    def properties(self):
        return {
            "mean source lines": sum(len(r.source.splitlines()) for r in self.items) / len(self.items),
            "mean explained lines": sum(len(r.explanation) for r in self.items) / len(self.items),
        }

    def op(self, index):
        return trustvet.evaluate.run_evaluation(self.items, self.ensemble, self.config, taus=TAUS)

    def check(self, index, report):
        # screening: the ensemble flags exactly the planted template lines
        lines = sorted(set().union(*inputs.SHAPES.values()))
        probe = Explanation("probe", 1.0, tuple((line, 1.0) for line in lines))
        verdicts = benign_candidates(self.ensemble, probe, self.template.line_text)
        for line in lines:
            if verdicts[line].is_benign_candidate == (line in inputs.PLANTED_LINES):
                return f"template line {line} screened against its planted label"
        if report.skipped or len(report.results) != len(self.items):
            return f"records skipped: {dict(report.skipped)}"
        if len(report.taus) != len(TAUS):
            return "IoU sweep incomplete"
        for record, result in zip(self.items, report.results):
            expected, degenerate = closed_form_trust(record, self.distances)
            if result.degenerate != degenerate or not math.isclose(
                result.trust_score, expected, rel_tol=1e-9, abs_tol=1e-12
            ):
                return f"{record.function_id}: trust {result.trust_score!r}, closed form {expected!r}"
        doc = dumps_canonical(trustvet.evaluate.report_to_dict(report))
        return self.repeat_check(index, sha256(doc))

    def reference_digests(self) -> dict:
        records = inputs.evaluation_corpus(REFERENCE_SEED, REFERENCE_EVALUATION_RECORDS)
        report = trustvet.evaluate.run_evaluation(records, self.ensemble, RunConfig(), taus=TAUS)
        return {self.name: [sha256(dumps_canonical(trustvet.evaluate.report_to_dict(report)))]}


class BuildModels(Workload):
    name = "build-models"
    uses_ensemble = False
    item_unit = "records"
    expected_spans = (
        "dataset.build_line_dataset", "dataset.sample_candidate_negatives", "dataset.filter_negatives",
        "classifier.train_token_ngram", "classifier.train_char_ngram", "classifier.train_syntax_shape",
    )
    expected_counts = ("dataset.bleu_calls",)

    def generate(self, seed):
        return inputs.ingest_corpus(seed, **INGEST_CORPUS)

    def serializable(self, items):
        return [record_to_dict(r) for r in items]

    def prepare(self) -> list[str]:
        problems = super().prepare()
        self.order = [0]  # one operation ingests and trains on the whole corpus
        self.phases: list[tuple[float, float]] = []
        self.oracle_keep = self._oracle_decisions()
        return problems

    def _oracle_decisions(self) -> dict:
        """Keep/drop of a seeded sample of candidates by the reference BLEU."""
        from oracles import oracle_bleu

        dataset = trustvet.lineassess.dataset
        positives = [s for r in self.items if r.label == "vulnerable" for s in dataset.vulnerable_samples(r)]
        candidates = dataset.sample_candidate_negatives(self.items, len(positives), self.seed)
        refs = [[t.text for t in tokenize_line(p.text)] for p in positives]
        sample = random.Random(self.seed).sample(candidates, min(ORACLE_SAMPLE, len(candidates)))
        return {
            c.origin: oracle_bleu([t.text for t in tokenize_line(c.text)], refs) < BLEU_THRESHOLD
            for c in sample
        }

    def items_per_op(self, index):
        return len(self.items)

    def properties(self):
        vulnerable = [r for r in self.items if r.vul_lines]
        return {
            "mean source lines": sum(len(r.source.splitlines()) for r in self.items) / len(self.items),
            "mean vulnerable lines": sum(len(r.vul_lines) for r in vulnerable) / len(vulnerable),
        }

    def op(self, index):
        start = perf_counter()
        samples, counts = trustvet.lineassess.dataset.build_line_dataset(self.items, seed=self.seed)
        middle = perf_counter()
        models = [
            trustvet.lineassess.classifier.train_classifier(samples, view, TrainConfig(seed=self.seed))
            for view in ALL_VIEWS
        ]
        self.phases.append((middle - start, perf_counter() - middle))
        return samples, counts, models

    def check(self, index, result):
        samples, counts, models = result
        kept = {s.origin for s in samples if s.label is LineLabel.NON_VULNERABLE}
        for origin, keep in self.oracle_keep.items():
            if (origin in kept) != keep:
                return f"BLEU screen disagrees with the oracle on {origin}"
        if counts["bleu_filtered"] + counts["negatives"] != counts["candidate_negatives"]:
            return f"inconsistent counts {counts}"
        path = self.work / "dataset.jsonl"
        save_line_dataset(samples, path)
        blobs = [path.read_bytes()]
        for model in models:
            save_model(model, self.work / "model.json")
            blobs.append((self.work / "model.json").read_bytes())
        return self.repeat_check(index, sha256(b"".join(blobs)))


WORKLOADS = {w.name: w for w in (AssessLong, AssessImported, EvaluateCorpus, BuildModels)}


# --- closed-form trust scores of the planted shapes ----------------------------------


def _shape_distances(template) -> dict:
    """shape -> benign line -> target -> hops, from the reference oracles."""
    from oracles import oracle_distances, oracle_vulnerable_edges

    table = {}
    for entries in inputs.SHAPES.values():
        benign = frozenset(line for line in entries if line not in inputs.PLANTED_LINES)
        targets = [line for line in entries if line in inputs.PLANTED_LINES]
        vulnerable = oracle_vulnerable_edges(template, benign, "direct")
        hops = oracle_distances(template, vulnerable, sorted(benign), targets)
        table[frozenset(entries)] = {b: {t: hops[(b, t)] for t in targets} for b in benign}
    return table


def closed_form_trust(record, distances) -> tuple[float, bool]:
    """The trust score a planted-shape record must get, and whether the
    degenerate all-flagged rule applies."""
    scores = dict(record.explanation)
    total = sum(scores.values())
    weights = {line: score / total for line, score in scores.items()}
    table = distances[frozenset(scores)]
    benign = [line for line, _ in record.explanation if line in table]
    if not benign:
        return sum(weights[line] for line, _ in record.explanation), True
    trust = 0.0
    for line in benign:
        reachable = [(d, -weights[t], t) for t, d in table[line].items() if math.isfinite(d)]
        if reachable:
            d, _, t = min(reachable)
            trust += (weights[line] + weights[t]) / d
    return trust, False
