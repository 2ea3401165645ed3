"""Start-up cost: a process that assesses one prediction loads only what the
assessment runs. Both packages import their public names on first use, and
every name they export still resolves to the object its module defines."""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import trustvet
import trustvet.lineassess
from trustvet.cli import save_ensemble
from trustvet.lineassess.classifier import LinearLineClassifier
from trustvet.lineassess.features import FeatureView

SRC = str(Path(trustvet.__file__).parents[1])

# what each package exports, by the module that defines it
TRUSTVET_EXPORTS = {
    "trustvet.assess": [
        "Assessment", "ReachRecord", "assess_prediction", "assessment_to_dict", "is_vulnerable_dependency",
        "nearest_non_benign", "reachability_distance", "render_assessment", "trust_score", "vulnerable_edges",
    ],
    "trustvet.config": ["RunConfig", "config_from_file", "config_to_file", "merge_config"],
    "trustvet.corpus": [
        "NON_VULNERABLE", "VULNERABLE", "CorpusRecord", "load_corpus", "record_from_dict", "record_to_dict",
        "save_corpus",
    ],
    "trustvet.errors": [
        "AdapterError", "CalibrationError", "ClassificationError", "ContractError", "DegenerateTrainingError",
        "DiffMismatchError", "IdentityMismatchError", "ImportSchemaError", "MalformedExplanationError",
        "ParseError", "PipelineError", "SchemaError", "TrustvetError", "UndefinedGroundTruthError",
        "UndefinedInputError", "UnknownEdgeError", "UnsupportedConstructError",
    ],
    "trustvet.evaluate": [
        "CalibrationResult", "EvaluationReport", "Metrics", "RecordResult", "TauReport", "calibrate_threshold",
        "compute_metrics", "evaluate_record", "iou", "label_ground_truth", "naive_baseline", "rank_auc",
        "render_table", "report_to_dict", "run_evaluation", "select_suspicious",
    ],
    "trustvet.frontend": ["pdg_from_source"],
    "trustvet.pdg": [
        "SCHEMA_VERSION", "DepKind", "Explanation", "LineId", "Pdg", "PdgEdge", "WeightedPdg",
        "build_weighted_pdg", "check_schema_version", "dumps_canonical", "explanation_from_dict", "pdg_dumps",
        "pdg_to_dict",
    ],
}
LINEASSESS_EXPORTS = {
    "trustvet.lineassess.bleu": ["BleuReferences", "bleu"],
    "trustvet.lineassess.classifier": [
        "ADAPTER_ENV_VAR", "AdapterLineClassifier", "LinearLineClassifier", "LineClassifier",
        "LookupLineClassifier", "TrainConfig", "load_model", "save_model", "train_classifier",
    ],
    "trustvet.lineassess.dataset": [
        "LineLabel", "LineSample", "Origin", "build_line_dataset", "filter_negatives", "load_line_dataset",
        "sample_candidate_negatives", "save_line_dataset", "vulnerable_samples",
    ],
    "trustvet.lineassess.diffs": ["extract_vulnerable_lines"],
    "trustvet.lineassess.ensemble": ["BenignVerdict", "benign_candidates", "ensemble_vote"],
    "trustvet.lineassess.features": ["ALL_VIEWS", "FeatureView", "extract_features"],
}
PACKAGES = [(trustvet, TRUSTVET_EXPORTS), (trustvet.lineassess, LINEASSESS_EXPORTS)]
PACKAGE_IDS = ["trustvet", "lineassess"]

# modules that only ingest, train, evaluate, report or an adapter run
NOT_FOR_ASSESS = [
    "trustvet.evaluate", "trustvet.corpus", "trustvet.lineassess.dataset", "trustvet.lineassess.bleu",
    "trustvet.lineassess.diffs", "concurrent.futures", "subprocess", "configparser", "numpy", "scipy",
]


def run_child(code: str, *args: str) -> list[str]:
    """The lines a fresh interpreter prints running code, with this
    trustvet's directory first on its path and args after it in sys.argv."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, sys.argv[1])\n{code}", SRC, *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_assess_set_up_loads_no_module_it_does_not_run(tmp_path):
    """The bench's set-up: import the package and its CLI, then load a
    linear ensemble, as every assess run does before its verdict."""
    member = LinearLineClassifier(FeatureView.TOKEN_NGRAM, {"x": 0}, [0.5], bias=-0.25)
    save_ensemble([member, LinearLineClassifier(FeatureView.SYNTAX_SHAPE, {"y": 0}, [1.0], 0.0)], tmp_path)
    loaded = run_child(
        "import trustvet, trustvet.cli\n"
        "print(len(trustvet.cli.load_ensemble(sys.argv[2])))\n"
        "print(*sorted(sys.modules), sep='\\n')\n",
        str(tmp_path),
    )
    assert loaded[0] == "2"
    modules = set(loaded[1:])
    assert {"trustvet.assess", "trustvet.lineassess.classifier", "trustvet.frontend.parser", "click"} <= modules
    assert sorted(m for m in modules for unused in NOT_FOR_ASSESS if f"{m}.".startswith(f"{unused}.")) == []


@pytest.mark.parametrize("package,exports", PACKAGES, ids=PACKAGE_IDS)
def test_every_export_is_its_module_object(package, exports):
    importlib.import_module("trustvet.lineassess.dataset")  # loads the module bleu before any name is read
    assert package.__all__ == sorted(name for names in exports.values() for name in names)
    for module, names in exports.items():
        for name in names:
            assert getattr(package, name) is getattr(importlib.import_module(module), name), name
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("package,exports", PACKAGES, ids=PACKAGE_IDS)
def test_a_star_import_binds_every_export(package, exports):
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    for module, names in exports.items():
        for name in names:
            assert namespace[name] is getattr(importlib.import_module(module), name), name


def test_a_fresh_interpreter_resolves_names_and_submodules_on_first_use():
    """A submodule resolves after a bare import of its package, a module
    loaded first hides no public name of the same name (ingest loads the
    module bleu before anything reads the function bleu), and an unknown
    name is an AttributeError."""
    lines = run_child(
        "import trustvet\n"
        "print('trustvet.evaluate' in sys.modules, trustvet.evaluate.__name__)\n"
        "print(trustvet.run_evaluation is trustvet.evaluate.run_evaluation)\n"
        "import trustvet.lineassess.dataset\n"
        "la = trustvet.lineassess\n"
        "print(la.bleu is sys.modules['trustvet.lineassess.bleu'].bleu, la.classifier.__name__)\n"
        "print(hasattr(trustvet, 'no_such_name'), hasattr(la, 'no_such_name'), hasattr(trustvet, '_private'))\n"
    )
    assert lines == [
        "False trustvet.evaluate",
        "True",
        "True trustvet.lineassess.classifier",
        "False False False",
    ]


def test_an_unknown_submodule_is_no_attribute_and_a_missing_import_is_raised(tmp_path, monkeypatch):
    """In this process: a name that is no submodule is an AttributeError,
    but a submodule that exists and fails to import one of its own
    dependencies raises that ModuleNotFoundError."""
    with pytest.raises(AttributeError, match="module 'trustvet' has no attribute 'no_such_module'"):
        trustvet.no_such_module
    package = tmp_path / "lazy_probe"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from trustvet import lazy\n__all__ = []\n__getattr__, __dir__ = lazy.package_attributes(__name__, {})\n"
    )
    (package / "broken.py").write_text("import lazy_probe_missing_dependency\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        probe = importlib.import_module("lazy_probe")
        with pytest.raises(ModuleNotFoundError) as missing:
            probe.broken
        assert missing.value.name == "lazy_probe_missing_dependency"
    finally:
        for name in ("lazy_probe", "lazy_probe.broken"):
            sys.modules.pop(name, None)
