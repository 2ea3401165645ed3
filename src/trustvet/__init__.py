"""Trust vetting for machine-predicted vulnerabilities.

The package decides whether a model's claim that a function is vulnerable
deserves attention. Per-line classifiers vote on which explanation lines
look benign, a dependence graph connects those lines to the rest, and a
trust score falls out of how far each benign-looking line sits from the
nearest suspicious one. Low scores flag the prediction as untrustworthy.
"""

from .assess import (
    Assessment,
    ReachRecord,
    assess_prediction,
    assessment_to_dict,
    is_vulnerable_dependency,
    nearest_non_benign,
    reachability_distance,
    render_assessment,
    trust_score,
    vulnerable_edges,
)
from .config import RunConfig, config_from_file, config_to_file, merge_config
from .corpus import (
    NON_VULNERABLE,
    VULNERABLE,
    CorpusRecord,
    load_corpus,
    record_from_dict,
    record_to_dict,
    save_corpus,
)
from .errors import (
    AdapterError,
    CalibrationError,
    ClassificationError,
    ContractError,
    DegenerateTrainingError,
    DiffMismatchError,
    IdentityMismatchError,
    ImportSchemaError,
    MalformedExplanationError,
    ParseError,
    PipelineError,
    SchemaError,
    TrustvetError,
    UndefinedGroundTruthError,
    UndefinedInputError,
    UnknownEdgeError,
    UnsupportedConstructError,
)
from .evaluate import (
    CalibrationResult,
    EvaluationReport,
    Metrics,
    RecordResult,
    TauReport,
    calibrate_threshold,
    compute_metrics,
    evaluate_record,
    iou,
    label_ground_truth,
    naive_baseline,
    rank_auc,
    render_table,
    report_to_dict,
    run_evaluation,
    select_suspicious,
)
from .frontend import pdg_from_source
from .pdg import (
    SCHEMA_VERSION,
    DepKind,
    Explanation,
    LineId,
    Pdg,
    PdgEdge,
    WeightedPdg,
    build_weighted_pdg,
    check_schema_version,
    dumps_canonical,
    explanation_from_dict,
    pdg_dumps,
    pdg_to_dict,
)

__version__ = "0.1.0"
