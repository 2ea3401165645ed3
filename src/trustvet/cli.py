"""Command-line entry points.

Five subcommands cover the pipeline: ingest builds a labeled line dataset
from a corpus, train fits the per-view line classifiers, assess judges one
prediction, evaluate scores a corpus of predictions, and report re-renders
a saved evaluation. Exit status is 0 for a trustworthy verdict (and for
plain success), 10 for an untrustworthy verdict, and 2 for any error.

Every artifact is canonical JSON with no timestamps, so identical inputs
produce byte-identical outputs.

A process runs one command, so this module imports only what assess and
load_ensemble run: the frontend, assess, config and the classifiers.
ingest, train, evaluate and report import the corpus, dataset and evaluate
modules inside their own bodies, and a one-prediction assess never loads
them.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from .assess import DATA_RULE_MODES, UNTRUSTWORTHY, assess_prediction, assessment_to_dict, render_assessment
from .config import RunConfig, config_from_file, merge_config
from .errors import SchemaError, TrustvetError
from .frontend import pdg_from_source
from .frontend.graphio import import_raw_graph
from .lineassess.classifier import LinearLineClassifier, TrainConfig, load_model, model_to_dict, train_classifier
from .lineassess.features import ALL_VIEWS
from .pdg import (
    SCHEMA_VERSION,
    check_schema_version,
    decode_utf8,
    dumps_canonical,
    explanation_from_dict,
    read_json_object,
)

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_UNTRUSTWORTHY = 10

MANIFEST_NAME = "manifest.json"


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_ERROR)


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except TrustvetError as exc:
            _fail(str(exc))
        except OSError as exc:
            _fail(str(exc))

    return wrapper


def _load_json(path: str | Path) -> dict:
    return read_json_object(Path(path).read_bytes(), str(path))


def _write_json(doc: dict, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_canonical(doc))


def _resolve_config(config_path: str | None, **overrides) -> RunConfig:
    base = config_from_file(config_path) if config_path else None
    return merge_config(base, overrides)


# --- model directory layout -------------------------------------------------------


def save_ensemble(models, out_dir: str | Path) -> None:
    """Write each member and a sorted manifest of their file names: a linear
    member is named after its view unless an earlier member took that name,
    any other member member_<i>.json, by its position i. An empty list, or
    one with a member that cannot be persisted, is refused before anything
    is written."""
    documents: dict[str, dict] = {}  # of each member, by its file name
    for i, model in enumerate(models):
        name = f"{model.view.value}.json" if isinstance(model, LinearLineClassifier) else None
        if name is None or name in documents:
            name = f"member_{i}.json"
        documents[name] = model_to_dict(model)
    if not documents:
        raise SchemaError("an ensemble needs at least one member")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, doc in documents.items():
        _write_json(doc, out / name)
    _write_json({"schema_version": SCHEMA_VERSION, "members": sorted(documents)}, out / MANIFEST_NAME)


def load_ensemble(path: str | Path, adapter_command: str | None = None):
    """Load one model file, or a directory with a manifest listing members."""
    p = Path(path)
    if p.is_dir():
        manifest = _load_json(p / MANIFEST_NAME)
        check_schema_version(manifest, "ensemble manifest")
        members = manifest.get("members")
        if not isinstance(members, list) or not members or not all(isinstance(m, str) for m in members):
            raise SchemaError(f"{p / MANIFEST_NAME}: members must be a non-empty list of file names")
        return [load_model(p / name, adapter_command) for name in members]
    return [load_model(p, adapter_command)]


def _close_ensemble(ensemble) -> None:
    """Terminate any adapter child processes."""
    for clf in ensemble:
        close = getattr(clf, "close", None)
        if close is not None:
            close()


# --- commands ---------------------------------------------------------------------


@click.group()
def main() -> None:
    """Decide whether a vulnerability prediction deserves trust."""


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=None, help="Sampling seed (overrides config).")
@click.option("--neg-ratio", type=float, default=None, help="Negatives per positive.")
@click.option("--bleu-threshold", type=float, default=None)
@click.option("--bleu-order", type=int, default=None)
@_handle_errors
def ingest(corpus_path, out_path, config_path, seed, neg_ratio, bleu_threshold, bleu_order):
    """Build the labeled line dataset from a corpus of functions."""
    from .corpus import load_corpus
    from .lineassess.dataset import build_line_dataset, save_line_dataset

    config = _resolve_config(
        config_path,
        seed=seed,
        neg_ratio=neg_ratio,
        bleu_threshold=bleu_threshold,
        bleu_order=bleu_order,
    )
    records = load_corpus(corpus_path)
    samples, counts = build_line_dataset(
        records,
        seed=config.seed,
        neg_ratio=config.neg_ratio,
        bleu_threshold=config.bleu_threshold,
        bleu_order=config.bleu_order,
    )
    save_line_dataset(samples, out_path)
    summary = ", ".join(f"{key}={counts[key]}" for key in sorted(counts))
    click.echo(f"wrote {len(samples)} samples to {out_path} ({summary})")


@main.command()
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=int, required=True, help="Training seed; runs with the same seed match byte for byte.")
@click.option("--l2", type=float, default=TrainConfig.l2, show_default=True)
@click.option("--max-iter", type=int, default=TrainConfig.max_iter, show_default=True)
@click.option("--vote-threshold", type=float, default=TrainConfig.threshold, show_default=True)
@_handle_errors
def train(dataset_path, out_dir, seed, l2, max_iter, vote_threshold):
    """Fit one linear classifier per feature view and save the ensemble."""
    from .lineassess.dataset import load_line_dataset

    samples = load_line_dataset(dataset_path)
    hyper = TrainConfig(seed=seed, l2=l2, max_iter=max_iter, threshold=vote_threshold)
    models = []
    for view in ALL_VIEWS:
        model = train_classifier(samples, view, hyper)
        models.append(model)
        held = "n/a" if model.heldout_accuracy is None else f"{model.heldout_accuracy:.3f}"
        click.echo(f"trained {view.value}: {len(model.vocabulary)} features, held-out accuracy {held}")
    save_ensemble(models, out_dir)
    click.echo(f"wrote ensemble to {out_dir}")


@main.command()
@click.option("--source", "source_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--import-pdg", "graph_path", type=click.Path(exists=True, dir_okay=False),
              help="Load a dependence graph exported by another tool instead of parsing source.")
@click.option("--explanation", "explanation_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--models", "models_path", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--threshold", type=float, default=None, help="Trust cutoff (overrides config).")
@click.option("--normalize/--no-normalize", "normalize", default=None,
              help="Rescale explanation weights to sum to one.")
@click.option("--mode", type=click.Choice(DATA_RULE_MODES), default=None)
@click.option("--function", "function_id", default=None, help="Function id when parsing source.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), help="Also write the assessment as JSON.")
@_handle_errors
def assess(source_path, graph_path, explanation_path, models_path, config_path,
           threshold, normalize, mode, function_id, out_path):
    """Judge one prediction; exit 0 when trustworthy, 10 when not."""
    if (source_path is None) == (graph_path is None):
        _fail("give exactly one of --source or --import-pdg")
    config = _resolve_config(
        config_path,
        trust_threshold=threshold,
        normalize_weights=normalize,
        data_rule_mode=mode,
    )
    if graph_path is not None:
        imported = import_raw_graph(_load_json(graph_path))
        for message in imported.messages:
            click.echo(f"note: {message}", err=True)
        pdg = imported.to_pdg()
    else:
        text = decode_utf8(Path(source_path).read_bytes(), source_path)
        pdg = pdg_from_source(text, function_id=function_id)
    expl = explanation_from_dict(_load_json(explanation_path))
    ensemble = load_ensemble(models_path, config.adapter_endpoint)
    cutoff = config.trust_threshold if config.trust_threshold is not None else 0.5
    try:
        assessment = assess_prediction(
            expl,
            pdg,
            ensemble,
            threshold=cutoff,
            normalize_weights=config.normalize_weights,
            mode=config.data_rule_mode,
        )
    finally:
        _close_ensemble(ensemble)
    doc = assessment_to_dict(assessment, assessment.graph)
    if out_path:
        _write_json(doc, out_path)
    click.echo(render_assessment(doc), nl=False)
    sys.exit(EXIT_UNTRUSTWORTHY if assessment.verdict == UNTRUSTWORTHY else EXIT_OK)


@main.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--models", "models_path", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--iou-threshold", type=float, default=None)
@click.option("--iou-sweep", "iou_sweep", default=None,
              help="Comma-separated cutoffs to evaluate, e.g. 0.1,0.3,0.5.")
@click.option("--trust-threshold", type=float, default=None)
@click.option("--conf-threshold", type=float, default=None)
@click.option("--top-k", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--workers", type=int, default=None)
@click.option("--normalize/--no-normalize", "normalize", default=None)
@click.option("--mode", type=click.Choice(DATA_RULE_MODES), default=None)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), help="Write the full report as JSON.")
@_handle_errors
def evaluate(corpus_path, models_path, config_path, iou_threshold, iou_sweep,
             trust_threshold, conf_threshold, top_k, seed, workers, normalize, mode, out_path):
    """Score every prediction in a corpus against its ground truth."""
    from .corpus import load_corpus
    from .evaluate import render_table, report_to_dict, run_evaluation

    config = _resolve_config(
        config_path,
        iou_threshold=iou_threshold,
        trust_threshold=trust_threshold,
        conf_threshold=conf_threshold,
        top_k=top_k,
        seed=seed,
        workers=workers,
        normalize_weights=normalize,
        data_rule_mode=mode,
    )
    taus = None
    if iou_sweep:
        try:
            taus = tuple(float(part) for part in iou_sweep.split(","))
        except ValueError:
            _fail(f"bad --iou-sweep value: {iou_sweep!r}")
    records = load_corpus(corpus_path)
    ensemble = load_ensemble(models_path, config.adapter_endpoint)
    try:
        report = run_evaluation(records, ensemble, config, taus=taus)
    finally:
        _close_ensemble(ensemble)
    doc = report_to_dict(report)
    if out_path:
        _write_json(doc, out_path)
    click.echo(render_table(doc), nl=False)


@main.command()
@click.argument("report_path", type=click.Path(exists=True, dir_okay=False))
@_handle_errors
def report(report_path):
    """Re-render a saved evaluation report as a table."""
    from .evaluate import render_table

    doc = _load_json(report_path)
    check_schema_version(doc, "evaluation report")
    click.echo(render_table(doc), nl=False)


if __name__ == "__main__":
    main()
