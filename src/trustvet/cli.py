"""Command-line entry points.

Five subcommands cover the pipeline: ingest builds a labeled line dataset
from a corpus, train fits the per-view line classifiers, assess judges one
prediction, evaluate scores a corpus of predictions, and report re-renders
a saved evaluation. Exit status is 0 for a trustworthy verdict (and for
plain success), 10 for an untrustworthy verdict, and 2 for any error; an
error, a usage error included, prints one `error:` line on stderr.

Every artifact is canonical JSON with no timestamps, so identical inputs
produce byte-identical outputs.

A process runs one command, so this module imports only what assess and
load_ensemble run: argparse, the frontend, assess, config and the
classifiers. ingest, train, evaluate and report import the corpus, dataset
and evaluate modules inside their own bodies, and a one-prediction assess
never loads them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

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


class UsageError(TrustvetError):
    """A command line that cannot run: an unknown or missing option, a value
    that does not read as its type, or options that do not go together."""


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
# Each command takes its options as keyword arguments named by their
# destinations. A setting's destination is its RunConfig (or, in train,
# TrainConfig) field's name, so a command passes the settings on as they
# come. Each command returns its exit status.


def ingest(corpus_path, out_path, config_path, **overrides) -> int:
    """Build the labeled line dataset from a corpus of functions."""
    from .corpus import load_corpus
    from .lineassess.dataset import build_line_dataset, save_line_dataset

    config = _resolve_config(config_path, **overrides)
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
    print(f"wrote {len(samples)} samples to {out_path} ({summary})")
    return EXIT_OK


def train(dataset_path, out_dir, **settings) -> int:
    """Fit one linear classifier per feature view and save the ensemble."""
    from .lineassess.dataset import load_line_dataset

    samples = load_line_dataset(dataset_path)
    hyper = TrainConfig(**settings)
    models = []
    for view in ALL_VIEWS:
        model = train_classifier(samples, view, hyper)
        models.append(model)
        held = "n/a" if model.heldout_accuracy is None else f"{model.heldout_accuracy:.3f}"
        print(f"trained {view.value}: {len(model.vocabulary)} features, held-out accuracy {held}", flush=True)
    save_ensemble(models, out_dir)
    print(f"wrote ensemble to {out_dir}")
    return EXIT_OK


def assess(source_path, graph_path, explanation_path, models_path, config_path,
           function_id, out_path, **overrides) -> int:
    """Judge one prediction; exit 0 when trustworthy, 10 when not."""
    if (source_path is None) == (graph_path is None):
        raise UsageError("give exactly one of --source or --import-pdg")
    if function_id is not None and graph_path is not None:
        raise UsageError("--function names a function parsed from --source; an imported graph names its own")
    config = _resolve_config(config_path, **overrides)
    if graph_path is not None:
        imported = import_raw_graph(_load_json(graph_path))
        for message in imported.messages:
            print(f"note: {message}", file=sys.stderr)
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
    print(render_assessment(doc), end="")
    return EXIT_UNTRUSTWORTHY if assessment.verdict == UNTRUSTWORTHY else EXIT_OK


def evaluate(corpus_path, models_path, config_path, iou_sweep, out_path, **overrides) -> int:
    """Score every prediction in a corpus against its ground truth."""
    from .corpus import load_corpus
    from .evaluate import render_table, report_to_dict, run_evaluation

    config = _resolve_config(config_path, **overrides)
    taus = None
    if iou_sweep is not None:
        try:
            taus = tuple(float(part) for part in iou_sweep.split(","))
        except ValueError:
            raise UsageError(f"bad --iou-sweep value: {iou_sweep!r}") from None
    records = load_corpus(corpus_path)
    ensemble = load_ensemble(models_path, config.adapter_endpoint)
    try:
        report = run_evaluation(records, ensemble, config, taus=taus)
    finally:
        _close_ensemble(ensemble)
    doc = report_to_dict(report)
    if out_path:
        _write_json(doc, out_path)
    print(render_table(doc), end="")
    return EXIT_OK


def report(report_path) -> int:
    """Re-render a saved evaluation report as a table."""
    from .evaluate import render_table

    doc = _load_json(report_path)
    check_schema_version(doc, "evaluation report")
    print(render_table(doc), end="")
    return EXIT_OK


# --- the command line -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a UsageError, which main prints as it prints
    every other error."""

    def error(self, message):
        raise UsageError(message)


def _path(exists: bool = False, file_ok: bool = True, dir_ok: bool = True):
    """An argparse type that checks a path as the command line is read,
    before any work: that it exists, or that it is not a file or not a
    directory."""

    def check(text: str) -> str:
        path = Path(text)
        if exists and not path.exists():
            raise argparse.ArgumentTypeError(f"{text!r} does not exist")
        if not file_ok and path.is_file():
            raise argparse.ArgumentTypeError(f"{text!r} is a file")
        if not dir_ok and path.is_dir():
            raise argparse.ArgumentTypeError(f"{text!r} is a directory")
        return text

    return check


_INPUT_FILE = _path(exists=True, dir_ok=False)
_OUTPUT_FILE = _path(dir_ok=False)
_SHOW_DEFAULT = "(default: %(default)s)"


def build_parser() -> argparse.ArgumentParser:
    """The trustvet command line: a subcommand per command function, whose
    options' destinations are its parameters and whose `command` default is
    the function."""
    parser = _Parser(prog="trustvet", description="Decide whether a vulnerability prediction deserves trust.",
                     allow_abbrev=False)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def options_of(command):
        sub = commands.add_parser(command.__name__, help=command.__doc__, description=command.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(command=command)
        return sub.add_argument

    option = options_of(ingest)
    option("--corpus", dest="corpus_path", required=True, type=_INPUT_FILE)
    option("--out", dest="out_path", required=True, type=_OUTPUT_FILE)
    option("--config", dest="config_path", type=_INPUT_FILE)
    option("--seed", type=int, help="Sampling seed (overrides config).")
    option("--neg-ratio", type=float, help="Negatives per positive.")
    option("--bleu-threshold", type=float)
    option("--bleu-order", type=int)

    option = options_of(train)
    option("--dataset", dest="dataset_path", required=True, type=_INPUT_FILE)
    option("--out", dest="out_dir", required=True, type=_path(file_ok=False))
    option("--seed", type=int, required=True, help="Training seed; runs with the same seed match byte for byte.")
    option("--l2", type=float, default=TrainConfig.l2, help=_SHOW_DEFAULT)
    option("--max-iter", type=int, default=TrainConfig.max_iter, help=_SHOW_DEFAULT)
    option("--vote-threshold", dest="threshold", type=float, default=TrainConfig.threshold, help=_SHOW_DEFAULT)

    option = options_of(assess)
    option("--source", dest="source_path", type=_INPUT_FILE)
    option("--import-pdg", dest="graph_path", type=_INPUT_FILE,
           help="Load a dependence graph exported by another tool instead of parsing source.")
    option("--explanation", dest="explanation_path", required=True, type=_INPUT_FILE)
    option("--models", dest="models_path", required=True, type=_path(exists=True))
    option("--config", dest="config_path", type=_INPUT_FILE)
    option("--threshold", dest="trust_threshold", type=float, help="Trust cutoff (overrides config).")
    option("--normalize", dest="normalize_weights", action=argparse.BooleanOptionalAction,
           help="Rescale explanation weights to sum to one.")
    option("--mode", dest="data_rule_mode", choices=DATA_RULE_MODES)
    option("--function", dest="function_id", help="Function id when parsing source.")
    option("--out", dest="out_path", type=_OUTPUT_FILE, help="Also write the assessment as JSON.")

    option = options_of(evaluate)
    option("--corpus", dest="corpus_path", required=True, type=_INPUT_FILE)
    option("--models", dest="models_path", required=True, type=_path(exists=True))
    option("--config", dest="config_path", type=_INPUT_FILE)
    option("--iou-threshold", type=float)
    option("--iou-sweep", help="Comma-separated cutoffs to evaluate, e.g. 0.1,0.3,0.5.")
    option("--trust-threshold", type=float)
    option("--conf-threshold", type=float)
    option("--top-k", type=int)
    option("--seed", type=int)
    option("--workers", type=int)
    option("--normalize", dest="normalize_weights", action=argparse.BooleanOptionalAction)
    option("--mode", dest="data_rule_mode", choices=DATA_RULE_MODES)
    option("--out", dest="out_path", type=_OUTPUT_FILE, help="Write the full report as JSON.")

    option = options_of(report)
    option("report_path", type=_INPUT_FILE)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command that argv (by default the process's arguments) names,
    and return its exit status: 0, 10, or 2 after one `error:` line on
    stderr. `--help` prints the help and exits 0, as argparse does."""
    try:
        settings = vars(build_parser().parse_args(argv))
        return settings.pop("command")(**settings)
    except (TrustvetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
