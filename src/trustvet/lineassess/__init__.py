"""Line-level assessment: datasets, feature views, classifiers, voting."""

from __future__ import annotations

from .bleu import BleuReferences, bleu
from .classifier import (
    ADAPTER_ENV_VAR,
    AdapterLineClassifier,
    LinearLineClassifier,
    LineClassifier,
    LookupLineClassifier,
    TrainConfig,
    load_model,
    save_model,
    train_classifier,
)
from .dataset import (
    LineLabel,
    LineSample,
    Origin,
    build_line_dataset,
    filter_negatives,
    load_line_dataset,
    sample_candidate_negatives,
    save_line_dataset,
    vulnerable_samples,
)
from .diffs import extract_vulnerable_lines
from .ensemble import BenignVerdict, benign_candidates, ensemble_vote
from .features import ALL_VIEWS, FeatureView, extract_features

__all__ = [
    "ADAPTER_ENV_VAR",
    "ALL_VIEWS",
    "AdapterLineClassifier",
    "BenignVerdict",
    "BleuReferences",
    "FeatureView",
    "LineClassifier",
    "LineLabel",
    "LineSample",
    "LinearLineClassifier",
    "LookupLineClassifier",
    "Origin",
    "TrainConfig",
    "benign_candidates",
    "bleu",
    "build_line_dataset",
    "ensemble_vote",
    "extract_features",
    "extract_vulnerable_lines",
    "filter_negatives",
    "load_line_dataset",
    "load_model",
    "sample_candidate_negatives",
    "save_line_dataset",
    "save_model",
    "train_classifier",
    "vulnerable_samples",
]
