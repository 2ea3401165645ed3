"""Line-level assessment: datasets, feature views, classifiers, voting.

Each public name is imported from its submodule on first use (PEP 562), so
a screen loads the classifiers and the feature views, and not the dataset,
BLEU and diff readers that only ingest needs.
"""

from __future__ import annotations

from .. import lazy

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "bleu": "BleuReferences bleu",
        "classifier": (
            "ADAPTER_ENV_VAR AdapterLineClassifier LinearLineClassifier LineClassifier"
            " LookupLineClassifier TrainConfig load_model save_model train_classifier"
        ),
        "dataset": (
            "LineLabel LineSample Origin build_line_dataset filter_negatives load_line_dataset"
            " sample_candidate_negatives save_line_dataset vulnerable_samples"
        ),
        "diffs": "extract_vulnerable_lines",
        "ensemble": "BenignVerdict benign_candidates ensemble_vote",
        "features": "ALL_VIEWS FeatureView extract_features",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy.package_attributes(__name__, _EXPORTS)
