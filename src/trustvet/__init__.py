"""Trust vetting for machine-predicted vulnerabilities.

The package decides whether a model's claim that a function is vulnerable
deserves attention. Per-line classifiers vote on which explanation lines
look benign, a dependence graph connects those lines to the rest, and a
trust score falls out of how far each benign-looking line sits from the
nearest suspicious one. Low scores flag the prediction as untrustworthy.

Importing the package runs none of its modules but trustvet.lazy: each
public name below, and each submodule (trustvet.evaluate, say), is imported
on first use (PEP 562). So a process that assesses one prediction never
loads evaluate, corpus or ingest, and `from trustvet import *` still binds
every name in __all__.
"""

from __future__ import annotations

from . import lazy

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "assess": (
            "Assessment ReachRecord assess_prediction assessment_to_dict is_vulnerable_dependency"
            " nearest_non_benign reachability_distance render_assessment trust_score vulnerable_edges"
        ),
        "config": "RunConfig config_from_file config_to_file merge_config",
        "corpus": "NON_VULNERABLE VULNERABLE CorpusRecord load_corpus record_from_dict record_to_dict save_corpus",
        "errors": (
            "AdapterError CalibrationError ClassificationError ContractError DegenerateTrainingError"
            " DiffMismatchError IdentityMismatchError ImportSchemaError MalformedExplanationError"
            " ParseError PipelineError SchemaError TrustvetError UndefinedGroundTruthError"
            " UndefinedInputError UnknownEdgeError UnsupportedConstructError"
        ),
        "evaluate": (
            "CalibrationResult EvaluationReport Metrics RecordResult TauReport calibrate_threshold"
            " compute_metrics evaluate_record iou label_ground_truth naive_baseline rank_auc"
            " render_table report_to_dict run_evaluation select_suspicious"
        ),
        "frontend": "pdg_from_source",
        "pdg": (
            "SCHEMA_VERSION DepKind Explanation LineId Pdg PdgEdge WeightedPdg build_weighted_pdg"
            " check_schema_version dumps_canonical explanation_from_dict pdg_dumps pdg_to_dict"
        ),
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy.package_attributes(__name__, _EXPORTS)
