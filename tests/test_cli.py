"""Command-line workflows, exit codes, and artifact determinism."""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import (
    KIND_ENTRIES,
    c_subset_function,
    lookup_ensemble,
    negative_record,
    nested_ifs,
    nested_subscripts,
    planted_corpus,
    worker_record,
    worker_source,
)
from test_frontend_oracles import c_soup, function_shell, graph_docs, json_values
import trustvet
from trustvet.assess import DATA_RULE_MODES
from trustvet.cli import EXIT_ERROR, EXIT_OK, EXIT_UNTRUSTWORTHY, MANIFEST_NAME, load_ensemble, main, save_ensemble
from trustvet.corpus import save_corpus
from trustvet.errors import SchemaError
from trustvet.frontend.graphio import export_raw_graph
from trustvet.frontend.lexer import normalize_line
from trustvet.frontend.parser import parse_function
from trustvet.lineassess.classifier import (
    ADAPTER_ENV_VAR,
    AdapterLineClassifier,
    LinearLineClassifier,
    LookupLineClassifier,
    save_model,
)
from trustvet.lineassess.features import FeatureView
from trustvet.pdg import SCHEMA_VERSION, dumps_canonical


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def vrrp_models_dir(tmp_path_factory, vrrp_source):
    line7 = normalize_line(vrrp_source.splitlines()[6])
    models = [LookupLineClassifier(non_benign=frozenset({line7})) for _ in range(3)]
    out = tmp_path_factory.mktemp("vrrp_models")
    save_ensemble(models, out)
    return out


@pytest.fixture(scope="module")
def vrrp_args(data_dir, vrrp_models_dir):
    return [
        "--source", str(data_dir / "vrrp_like.c"),
        "--explanation", str(data_dir / "vrrp_explanation.json"),
        "--models", str(vrrp_models_dir),
    ]


class TestAssessCommand:
    def test_untrustworthy_exit(self, runner, vrrp_args):
        result = runner.invoke(main, ["assess", *vrrp_args, "--no-normalize", "--threshold", "0.25"])
        assert result.exit_code == EXIT_UNTRUSTWORTHY
        assert "UNTRUSTWORTHY" in result.output
        assert "0.245000" in result.output

    def test_trustworthy_exit(self, runner, vrrp_args):
        result = runner.invoke(main, ["assess", *vrrp_args, "--no-normalize", "--threshold", "0.2"])
        assert result.exit_code == EXIT_OK
        assert "TRUSTWORTHY" in result.output

    def test_normalization_is_the_default(self, runner, vrrp_args):
        # weights renormalize over the resident lines (sum 0.95), lifting the
        # score from 0.245 to 0.245/0.95, just above this cutoff
        result = runner.invoke(main, ["assess", *vrrp_args, "--threshold", "0.25"])
        assert result.exit_code == EXIT_OK
        assert "0.257895" in result.output

    def test_source_and_graph_together_rejected(self, runner, vrrp_args, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text("{}", encoding="utf-8")
        result = runner.invoke(main, ["assess", *vrrp_args, "--import-pdg", str(graph)])
        assert result.exit_code == EXIT_ERROR
        assert "exactly one of" in result.stderr

    def test_missing_both_rejected(self, runner, vrrp_args):
        result = runner.invoke(main, ["assess", *vrrp_args[2:]])
        assert result.exit_code == EXIT_ERROR
        assert "exactly one of" in result.stderr

    @pytest.mark.parametrize("source", [nested_ifs(400), nested_subscripts(1500)])
    def test_deep_nesting_is_an_error(self, runner, vrrp_args, tmp_path, source):
        path = tmp_path / "deep.c"
        path.write_text(source, encoding="utf-8")
        result = runner.invoke(main, ["assess", "--source", str(path), *vrrp_args[2:]])
        assert result.exit_code == EXIT_ERROR
        assert "nested more than" in result.stderr

    def test_hash_inside_a_string_literal(self, runner, vrrp_args, vrrp_source, tmp_path):
        # literals collapse to one token, so the verdict is the fixture's
        path = tmp_path / "hash.c"
        path.write_text(vrrp_source.replace('"%s"', '"#%s"'), encoding="utf-8")
        result = runner.invoke(
            main, ["assess", "--source", str(path), *vrrp_args[2:], "--no-normalize", "--threshold", "0.25"]
        )
        assert result.exit_code == EXIT_UNTRUSTWORTHY, result.output
        assert "0.245000" in result.output

    def test_import_pdg(self, runner, vrrp_args, vrrp_source, tmp_path):
        doc = export_raw_graph(parse_function(vrrp_source))
        doc["edges"].append(
            {"src": doc["nodes"][0]["id"], "dst": doc["nodes"][1]["id"], "kind": "AST"}
        )
        graph = tmp_path / "exported.json"
        graph.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(
            main,
            ["assess", "--import-pdg", str(graph), *vrrp_args[2:], "--no-normalize", "--threshold", "0.25"],
        )
        assert result.exit_code == EXIT_UNTRUSTWORTHY
        assert "0.245000" in result.output
        assert "AST" in result.stderr

    def test_import_pdg_bytes_do_not_depend_on_the_hash_seed(self, vrrp_args, data_dir, tmp_path):
        """Edges hash through their strings, and string hashes change with
        PYTHONHASHSEED: two interpreters must still write the same bytes."""
        src = Path(trustvet.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        outputs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"assessment_{hash_seed}.json"
            result = subprocess.run(
                [sys.executable, "-m", "trustvet.cli", "assess",
                 "--import-pdg", str(data_dir / "vrrp_graph.json"), *vrrp_args[2:],
                 "--no-normalize", "--threshold", "0.25", "--out", str(out)],
                env={**env, "PYTHONHASHSEED": hash_seed}, capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == EXIT_UNTRUSTWORTHY, result.stderr
            outputs.append((result.stdout, out.read_bytes()))
        assert outputs[0] == outputs[1]
        assert b'"trust_score": 0.245' in outputs[0][1]

    def test_config_file_sets_threshold(self, runner, vrrp_args, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\ntrust_threshold = 0.25\nnormalize_weights = false\n", encoding="utf-8")
        result = runner.invoke(main, ["assess", *vrrp_args, "--config", str(ini)])
        assert result.exit_code == EXIT_UNTRUSTWORTHY

    def test_flag_overrides_config(self, runner, vrrp_args, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\ntrust_threshold = 0.25\nnormalize_weights = false\n", encoding="utf-8")
        result = runner.invoke(main, ["assess", *vrrp_args, "--config", str(ini), "--threshold", "0.2"])
        assert result.exit_code == EXIT_OK

    def test_out_writes_canonical_json(self, runner, vrrp_args, tmp_path):
        outs = []
        for name in ("first.json", "second.json"):
            out = tmp_path / name
            result = runner.invoke(
                main, ["assess", *vrrp_args, "--no-normalize", "--threshold", "0.25", "--out", str(out)]
            )
            assert result.exit_code == EXIT_UNTRUSTWORTHY
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        doc = json.loads(outs[0])
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["verdict"] == "untrustworthy"

    def test_bad_explanation_json(self, runner, vrrp_args, tmp_path):
        broken = tmp_path / "expl.json"
        broken.write_text("{not json", encoding="utf-8")
        args = ["assess", *vrrp_args]
        args[args.index("--explanation") + 1] = str(broken)
        result = runner.invoke(main, args)
        assert result.exit_code == EXIT_ERROR
        assert "not valid JSON" in result.stderr

    def test_explanation_whose_scores_overflow(self, runner, vrrp_args, data_dir, tmp_path):
        """Two finite scores that sum to inf would weigh every line 0.0."""
        doc = json.loads((data_dir / "vrrp_explanation.json").read_text(encoding="utf-8"))
        doc["entries"] = [{"line": 3, "score": 1e308}, {"line": 4, "score": 1e308}]
        path = tmp_path / "expl.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        args = ["assess", *vrrp_args]
        args[args.index("--explanation") + 1] = str(path)
        result = runner.invoke(main, args)
        assert_clean_failure(result)
        assert "the scores sum beyond the float range" in result.stderr

    def test_out_into_a_missing_directory(self, runner, vrrp_args, tmp_path):
        out = tmp_path / "absent" / "verdict.json"
        result = runner.invoke(main, ["assess", *vrrp_args, "--out", str(out)])
        assert_clean_failure(result)
        assert not out.parent.exists()

    def test_missing_models_path(self, runner, vrrp_args, tmp_path):
        args = ["assess", *vrrp_args]
        args[args.index("--models") + 1] = str(tmp_path / "absent")
        result = runner.invoke(main, args)
        assert result.exit_code == EXIT_ERROR

    def test_single_model_file(self, runner, vrrp_args, vrrp_models_dir):
        args = ["assess", *vrrp_args, "--no-normalize", "--threshold", "0.25"]
        args[args.index("--models") + 1] = str(vrrp_models_dir / "member_0.json")
        result = runner.invoke(main, args)
        assert result.exit_code == EXIT_UNTRUSTWORTHY

    def test_config_redirects_adapter_endpoint(self, runner, vrrp_args, data_dir, tmp_path, monkeypatch):
        # the persisted command is dead; the config points at the stub scorer
        monkeypatch.delenv(ADAPTER_ENV_VAR, raising=False)
        model = tmp_path / "adapter.json"
        save_model(AdapterLineClassifier(command=("no-such-scorer",), timeout=10.0), model)
        ini = tmp_path / "run.ini"
        stub = data_dir / "adapter_stub.py"
        ini.write_text(
            f"[run]\nadapter_endpoint = {sys.executable} {stub}\nnormalize_weights = false\n",
            encoding="utf-8",
        )
        args = ["assess", *vrrp_args, "--config", str(ini), "--threshold", "0.25"]
        args[args.index("--models") + 1] = str(model)
        result = runner.invoke(main, args)
        assert result.exit_code == EXIT_UNTRUSTWORTHY, result.stderr
        assert "0.245000" in result.output


@pytest.fixture(scope="module")
def pipeline(runner, tmp_path_factory):
    """ingest + train once, for the trained-model assessments below."""
    tmp = tmp_path_factory.mktemp("pipeline")
    records = [worker_record(f"w{i}", "pure", 0.9) for i in range(3)] + [
        negative_record("neg_a", ["x = seed;", "y = x + 1;", "out = n + x;", "return out;"]),
        negative_record("neg_b", ["p = 1;", "q = p * 3;", "return q;"]),
        negative_record("neg_c", ["total = a + b;", "total = total - c;", "return total;"]),
    ]
    corpus = tmp / "train.jsonl"
    save_corpus(records, corpus)
    dataset = tmp / "dataset.jsonl"
    ingest = runner.invoke(main, ["ingest", "--corpus", str(corpus), "--out", str(dataset), "--seed", "3"])
    assert ingest.exit_code == EXIT_OK, ingest.stderr
    models = tmp / "models"
    train = runner.invoke(main, ["train", "--dataset", str(dataset), "--out", str(models), "--seed", "3"])
    assert train.exit_code == EXIT_OK, train.stderr

    source = tmp / "judged.c"
    source.write_text(worker_source("judged"), encoding="utf-8")
    explanation = tmp / "expl.json"
    explanation.write_text(
        json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "function_id": "judged",
                "confidence": 0.9,
                "entries": [
                    {"line": line, "score": score}
                    for line, score in sorted(KIND_ENTRIES["focus"].items())
                ],
            }
        ),
        encoding="utf-8",
    )
    return {
        "tmp": tmp,
        "corpus": corpus,
        "dataset": dataset,
        "models": models,
        "ingest_output": ingest.output,
        "train_output": train.output,
        "source": source,
        "explanation": explanation,
    }


class TestPipeline:
    def test_ingest_reports_counts(self, pipeline):
        assert "wrote 12 samples" in pipeline["ingest_output"]
        assert "vulnerable=6" in pipeline["ingest_output"]
        assert "negatives=6" in pipeline["ingest_output"]

    def test_train_writes_ensemble(self, pipeline):
        files = sorted(p.name for p in pipeline["models"].iterdir())
        assert files == ["char_ngram.json", "manifest.json", "syntax_shape.json", "token_ngram.json"]
        manifest = json.loads((pipeline["models"] / MANIFEST_NAME).read_text(encoding="utf-8"))
        assert manifest["members"] == ["char_ngram.json", "syntax_shape.json", "token_ngram.json"]
        assert "trained token_ngram" in pipeline["train_output"]

    @pytest.mark.parametrize("threshold, expected", [("0.6", EXIT_UNTRUSTWORTHY), ("0.25", EXIT_OK)])
    def test_trained_verdicts(self, runner, pipeline, threshold, expected):
        # weight 0.2 on line 4 plus 0.35 on its flagged neighbor, one hop away
        result = runner.invoke(
            main,
            ["assess", "--source", str(pipeline["source"]),
             "--explanation", str(pipeline["explanation"]),
             "--models", str(pipeline["models"]),
             "--no-normalize", "--threshold", threshold],
        )
        assert result.exit_code == expected, result.stderr
        assert "0.550000" in result.output

    def test_rerun_is_byte_identical(self, runner, pipeline):
        tmp = pipeline["tmp"]
        dataset2 = tmp / "dataset2.jsonl"
        models2 = tmp / "models2"
        runner.invoke(main, ["ingest", "--corpus", str(pipeline["corpus"]), "--out", str(dataset2), "--seed", "3"])
        runner.invoke(main, ["train", "--dataset", str(dataset2), "--out", str(models2), "--seed", "3"])
        assert dataset2.read_bytes() == pipeline["dataset"].read_bytes()
        for model_file in sorted(pipeline["models"].iterdir()):
            assert (models2 / model_file.name).read_bytes() == model_file.read_bytes()

        outs = []
        for name in ("a1.json", "a2.json"):
            out = tmp / name
            runner.invoke(
                main,
                ["assess", "--source", str(pipeline["source"]),
                 "--explanation", str(pipeline["explanation"]),
                 "--models", str(pipeline["models"]),
                 "--no-normalize", "--threshold", "0.6", "--out", str(out)],
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_negative_neg_ratio_is_refused(self, runner, pipeline, tmp_path):
        result = runner.invoke(
            main,
            ["ingest", "--corpus", str(pipeline["corpus"]), "--out", str(tmp_path / "d.jsonl"),
             "--neg-ratio", "-1"],
        )
        assert_clean_failure(result)
        assert "neg_ratio" in result.stderr

    def test_bleu_order_below_one_is_refused(self, runner, pipeline, tmp_path):
        out = tmp_path / "d.jsonl"
        result = runner.invoke(
            main,
            ["ingest", "--corpus", str(pipeline["corpus"]), "--out", str(out), "--bleu-order", "0"],
        )
        assert_clean_failure(result)
        assert "bleu_order" in result.stderr
        assert not out.exists()

    def test_train_needs_both_classes(self, runner, tmp_path):
        records = [negative_record("only_neg", ["a = 1;", "b = a + 2;", "return b;"])]
        corpus = tmp_path / "neg.jsonl"
        save_corpus(records, corpus)
        dataset = tmp_path / "neg_dataset.jsonl"
        ingest = runner.invoke(main, ["ingest", "--corpus", str(corpus), "--out", str(dataset), "--seed", "1"])
        assert ingest.exit_code == EXIT_OK
        train = runner.invoke(
            main, ["train", "--dataset", str(dataset), "--out", str(tmp_path / "m"), "--seed", "1"]
        )
        assert train.exit_code == EXIT_ERROR
        assert "both classes" in train.stderr


def linear(weight: float) -> LinearLineClassifier:
    return LinearLineClassifier(
        view=FeatureView.TOKEN_NGRAM, vocabulary={"x": 0}, weights=[weight], bias=0.0, seed=1
    )


class TestSaveEnsemble:
    """save_ensemble writes any member list that load_ensemble reads: a
    linear member is named after its view unless an earlier member took
    that name, any other member by its position."""

    def manifest(self, out: Path) -> list[str]:
        return json.loads((out / MANIFEST_NAME).read_text(encoding="utf-8"))["members"]

    def test_lookup_members_are_named_by_position(self, tmp_path):
        models = [LookupLineClassifier(non_benign=frozenset({f"x = {i} ;"})) for i in range(3)]
        out = tmp_path / "models"
        save_ensemble(models, out)
        names = ["member_0.json", "member_1.json", "member_2.json"]
        assert sorted(p.name for p in out.iterdir()) == [MANIFEST_NAME, *names]
        manifest = dumps_canonical({"schema_version": SCHEMA_VERSION, "members": names})
        assert (out / MANIFEST_NAME).read_text(encoding="utf-8") == manifest
        for name, model in zip(names, models):
            save_model(model, tmp_path / name)
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
        assert load_ensemble(out) == models

    def test_an_adapter_member(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ADAPTER_ENV_VAR, raising=False)
        lookup = LookupLineClassifier(non_benign=frozenset({"x = 1 ;"}))
        save_ensemble([linear(1.0), AdapterLineClassifier(("scorer", "-q"), timeout=5.0), lookup], tmp_path)
        assert self.manifest(tmp_path) == ["member_1.json", "member_2.json", "token_ngram.json"]
        adapter, loaded_lookup, loaded_linear = load_ensemble(tmp_path)
        assert (adapter.command, adapter.timeout) == (("scorer", "-q"), 5.0)
        assert (loaded_lookup, loaded_linear) == (lookup, linear(1.0))

    def test_two_linear_members_of_one_view(self, tmp_path):
        first, second = linear(1.0), linear(2.0)
        save_ensemble([first, second], tmp_path)
        assert self.manifest(tmp_path) == ["member_1.json", "token_ngram.json"]
        assert load_ensemble(tmp_path) == [second, first]

    def test_a_foreign_member_is_refused(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot persist classifier of type object"):
            save_ensemble([object()], tmp_path)
        assert not (tmp_path / MANIFEST_NAME).exists()

    def test_an_empty_list_is_refused(self, tmp_path):
        """load_ensemble refuses a manifest with no members, so none is written."""
        out = tmp_path / "models"
        with pytest.raises(SchemaError, match="at least one member"):
            save_ensemble([], out)
        assert not out.exists()

    def test_a_foreign_member_after_others_writes_nothing(self, tmp_path):
        out = tmp_path / "models"
        members = [linear(1.0), LookupLineClassifier(non_benign=frozenset({"x = 1 ;"})), object()]
        with pytest.raises(SchemaError, match="cannot persist classifier of type object"):
            save_ensemble(members, out)
        assert not out.exists()


@pytest.fixture(scope="module")
def planted(runner, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("planted_cli")
    records, expected = planted_corpus()
    corpus = tmp / "planted.jsonl"
    save_corpus(records, corpus)
    save_ensemble(lookup_ensemble(), tmp / "models")
    return {"tmp": tmp, "corpus": corpus, "models": tmp / "models", "expected": expected}


EVAL_ARGS = ["--trust-threshold", "0.25", "--conf-threshold", "0.5", "--iou-threshold", "0.5"]


class TestEvaluateCommand:
    def test_planted_metrics_table(self, runner, planted):
        result = runner.invoke(
            main, ["evaluate", "--corpus", str(planted["corpus"]), "--models", str(planted["models"]), *EVAL_ARGS]
        )
        assert result.exit_code == EXIT_OK, result.stderr
        assert "trust" in result.output and "naive" in result.output
        assert "0.800" in result.output
        assert "0.880" in result.output

    def test_report_round_trip(self, runner, planted):
        out = planted["tmp"] / "report.json"
        evaluated = runner.invoke(
            main,
            ["evaluate", "--corpus", str(planted["corpus"]), "--models", str(planted["models"]),
             *EVAL_ARGS, "--out", str(out)],
        )
        assert evaluated.exit_code == EXIT_OK
        rendered = runner.invoke(main, ["report", str(out)])
        assert rendered.exit_code == EXIT_OK
        assert rendered.output == evaluated.output

    def test_report_rejects_missing_schema(self, runner, planted, tmp_path):
        out = planted["tmp"] / "schemaless.json"
        doc = {"taus": [], "records": [], "skipped": {}}
        out.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(main, ["report", str(out)])
        assert result.exit_code == EXIT_ERROR
        assert "schema_version" in result.stderr

    def test_iou_sweep(self, runner, planted):
        result = runner.invoke(
            main,
            ["evaluate", "--corpus", str(planted["corpus"]), "--models", str(planted["models"]),
             "--trust-threshold", "0.25", "--conf-threshold", "0.5", "--iou-sweep", "0.1,0.5,0.9"],
        )
        assert result.exit_code == EXIT_OK
        assert result.output.count("trust") == 3
        assert " 0.10  " in result.output and " 0.90  " in result.output

    def test_bad_sweep_value(self, runner, planted):
        result = runner.invoke(
            main,
            ["evaluate", "--corpus", str(planted["corpus"]), "--models", str(planted["models"]),
             "--iou-sweep", "0.1,zap"],
        )
        assert result.exit_code == EXIT_ERROR
        assert "bad --iou-sweep" in result.stderr

    @pytest.mark.parametrize("sweep", ["nan", "0.5,inf"])
    def test_sweep_value_that_cannot_run(self, runner, planted, sweep):
        """float() reads nan and inf; a cutoff must pass the rule every float
        setting of RunConfig passes."""
        result = runner.invoke(
            main,
            ["evaluate", "--corpus", str(planted["corpus"]), "--models", str(planted["models"]),
             "--trust-threshold", "0.25", "--conf-threshold", "0.5", "--iou-sweep", sweep],
        )
        assert_clean_failure(result)
        assert "IoU cutoff" in result.stderr and "not finite" in result.stderr

    @pytest.mark.parametrize(
        "flags",
        [["--iou-threshold", "2"], ["--iou-sweep", "1.5"], ["--iou-sweep", "-0.5"]],
    )
    def test_cutoff_outside_the_unit_interval(self, runner, planted, flags):
        """An IoU lies in [0, 1]; a cutoff outside it would label every
        record alike."""
        result = runner.invoke(
            main,
            ["evaluate", "--corpus", str(planted["corpus"]), "--models", str(planted["models"]),
             "--trust-threshold", "0.25", "--conf-threshold", "0.5", *flags],
        )
        assert_clean_failure(result)
        assert "not in [0, 1]" in result.stderr

    def test_top_k_below_one_is_refused(self, runner, planted):
        """With no suspicious line kept, every record would be skipped and
        the run would still exit 0."""
        result = runner.invoke(
            main,
            ["evaluate", "--corpus", str(planted["corpus"]), "--models", str(planted["models"]),
             *EVAL_ARGS, "--top-k", "0"],
        )
        assert_clean_failure(result)
        assert "top_k" in result.stderr

    def test_config_value_that_cannot_run(self, runner, planted, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\ncalibration_fraction = nan\n", encoding="utf-8")
        result = runner.invoke(
            main,
            ["evaluate", "--corpus", str(planted["corpus"]), "--models", str(planted["models"]),
             "--config", str(ini)],
        )
        assert_clean_failure(result)
        assert "calibration_fraction" in result.stderr

    def test_out_byte_identical(self, runner, planted):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = planted["tmp"] / name
            result = runner.invoke(
                main,
                ["evaluate", "--corpus", str(planted["corpus"]), "--models", str(planted["models"]),
                 *EVAL_ARGS, "--out", str(out)],
            )
            assert result.exit_code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_out_does_not_depend_on_the_hash_seed_or_workers(self, planted, tmp_path):
        """The screen memo is a dict keyed by line text, shared by every
        worker thread: neither string hashing nor thread order may reach the
        report."""
        src = Path(trustvet.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        outputs = []
        for hash_seed in ("0", "1"):
            for workers in ("1", "4"):
                out = tmp_path / f"report_{hash_seed}_{workers}.json"
                result = subprocess.run(
                    [sys.executable, "-m", "trustvet.cli", "evaluate",
                     "--corpus", str(planted["corpus"]), "--models", str(planted["models"]),
                     *EVAL_ARGS, "--workers", workers, "--out", str(out)],
                    env={**env, "PYTHONHASHSEED": hash_seed}, capture_output=True, text=True, timeout=120,
                )
                assert result.returncode == EXIT_OK, result.stderr
                outputs.append((result.stdout, out.read_bytes()))
        assert all(output == outputs[0] for output in outputs[1:])
        assert "0.880" in outputs[0][0]


def assert_clean_failure(result) -> None:
    """Exit 2 with one `error:` message, not an uncaught exception."""
    assert result.exit_code == EXIT_ERROR, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")


def assert_contract(result) -> None:
    """Exit 0, 10 or a clean 2: never 1 with a traceback."""
    assert result.exit_code in (EXIT_OK, EXIT_ERROR, EXIT_UNTRUSTWORTHY), (result.output, result.exception)
    if result.exit_code == EXIT_ERROR:
        assert_clean_failure(result)


class TestMalformedArtifacts:
    """Every command ends malformed input with exit 2 and an `error:` line."""

    def replace_arg(self, args, flag, path):
        args = list(args)
        args[args.index(flag) + 1] = str(path)
        return args

    @pytest.mark.parametrize(
        "flag, content, needle",
        [
            ("--explanation", b'{"schema_version": "1.0.0", "function_id": "\xff"}', "UTF-8"),
            ("--explanation", b"[]", "not a JSON object"),
            ("--models", b"[1, 2]", "not a JSON object"),
            ("--source", b"int f(int a)\n{\n    return a; /* \xff */\n}\n", "UTF-8"),
        ],
        ids=["explanation-not-utf8", "explanation-array", "model-file-array", "source-not-utf8"],
    )
    def test_assess_bad_file(self, runner, vrrp_args, tmp_path, flag, content, needle):
        path = tmp_path / "input"
        path.write_bytes(content)
        result = runner.invoke(main, ["assess", *self.replace_arg(vrrp_args, flag, path)])
        assert_clean_failure(result)
        assert needle in result.stderr

    @pytest.mark.parametrize(
        "manifest",
        ['["member_0.json"]', json.dumps({"schema_version": SCHEMA_VERSION, "members": [5]})],
        ids=["array", "member-not-a-name"],
    )
    def test_assess_manifest(self, runner, vrrp_args, tmp_path, manifest):
        (tmp_path / MANIFEST_NAME).write_text(manifest, encoding="utf-8")
        result = runner.invoke(main, ["assess", *self.replace_arg(vrrp_args, "--models", tmp_path)])
        assert_clean_failure(result)
        assert MANIFEST_NAME in result.stderr

    @pytest.mark.parametrize(
        "model",
        [
            {"view": "lookup", "non_benign": [], "threshold": "0.5"},
            {"view": "adapter", "command": [1], "threshold": 0.5},
            {"view": "token_ngram", "vocabulary": {"x": 3}, "weights": [0.5], "bias": 0.0,
             "threshold": 0.5, "seed": 1},
            {"view": "token_ngram", "vocabulary": {"x": 0}, "weights": ["0.5"], "bias": 0.0,
             "threshold": 0.5, "seed": 1},
            {"view": "token_ngram", "vocabulary": {"x": 0}, "weights": [0.5], "bias": "0.0",
             "threshold": 0.5, "seed": 1},
            {"view": "token_ngram", "vocabulary": {"x": 0}, "weights": [0.5], "bias": 0.0,
             "threshold": 0.5, "seed": "1"},
            {"view": "token_ngram", "vocabulary": {"x": 0}, "weights": [0.5], "bias": 0.0,
             "threshold": 0.5, "seed": 1, "heldout_accuracy": "0.9"},
        ],
        ids=["threshold-string", "command-not-strings", "index-past-weights", "weight-string",
             "bias-string", "seed-string", "heldout-accuracy-string"],
    )
    def test_assess_model_field_types(self, runner, vrrp_args, tmp_path, model):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, **model}), encoding="utf-8")
        result = runner.invoke(main, ["assess", *self.replace_arg(vrrp_args, "--models", path)])
        assert_clean_failure(result)

    @pytest.mark.parametrize("field", ["threshold", "timeout"])
    def test_assess_model_non_finite(self, runner, vrrp_args, data_dir, tmp_path, monkeypatch, field):
        """json reads NaN and Infinity: a NaN threshold flagged every line as
        non-benign, and an infinite adapter timeout overflowed the wait."""
        monkeypatch.delenv(ADAPTER_ENV_VAR, raising=False)
        if field == "threshold":
            model = {"view": "lookup", "non_benign": [], "threshold": math.nan}
        else:
            model = {"view": "adapter", "command": [sys.executable, str(data_dir / "adapter_stub.py")],
                     "threshold": 0.5, "timeout": math.inf}
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, **model}), encoding="utf-8")
        result = runner.invoke(main, ["assess", *self.replace_arg(vrrp_args, "--models", path)])
        assert_clean_failure(result)
        assert f"{field} must be finite" in result.stderr

    def test_assess_adapter_timeout_string(self, runner, vrrp_args, data_dir, tmp_path):
        command = [sys.executable, str(data_dir / "adapter_stub.py")]
        model = {"schema_version": SCHEMA_VERSION, "view": "adapter", "command": command,
                 "threshold": 0.5, "timeout": "5"}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        result = runner.invoke(main, ["assess", *self.replace_arg(vrrp_args, "--models", path)])
        assert_clean_failure(result)
        assert "timeout" in result.stderr

    @pytest.mark.parametrize("timeout", [0, -1.0])
    def test_assess_adapter_timeout_not_positive(self, runner, vrrp_args, data_dir, tmp_path, monkeypatch,
                                                 timeout):
        """With a timeout of 0 or below, every request would time out."""
        monkeypatch.delenv(ADAPTER_ENV_VAR, raising=False)
        command = [sys.executable, str(data_dir / "adapter_stub.py")]
        model = {"schema_version": SCHEMA_VERSION, "view": "adapter", "command": command,
                 "threshold": 0.5, "timeout": timeout}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        result = runner.invoke(main, ["assess", *self.replace_arg(vrrp_args, "--models", path)])
        assert_clean_failure(result)
        assert f"{path}: timeout must be positive" in result.stderr

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--vote-threshold", "nan", "threshold"),
            ("--vote-threshold", "inf", "threshold"),
            ("--vote-threshold", "2", "threshold"),
            ("--vote-threshold", "-0.1", "threshold"),
            ("--l2", "nan", "l2"),
            ("--l2", "inf", "l2"),
            ("--l2", "-1", "l2"),
            ("--l2", "1e308", "l2"),
            ("--max-iter", "0", "max_iter"),
            ("--max-iter", "-5", "max_iter"),
        ],
    )
    def test_train_settings_no_model_can_use(self, runner, pipeline, tmp_path, flag, value, field):
        """Each would save models that assess refuses (a threshold that is not
        finite or lies outside [0, 1]) or that are garbage (all-zero or 4e153
        weights; an l2 whose double overflows makes the first gradient NaN)."""
        out = tmp_path / "m"
        result = runner.invoke(
            main, ["train", "--dataset", str(pipeline["dataset"]), "--out", str(out), "--seed", "3", flag, value]
        )
        assert_clean_failure(result)
        assert f"{field} must be" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("header", ["[]", "{not json", '"line-dataset"'])
    def test_train_dataset_bad_header(self, runner, tmp_path, header):
        path = tmp_path / "dataset.jsonl"
        path.write_text(header + '\n{"text": "a = 1 ;", "label": "vulnerable", "function_id": "f", "line": 2}\n',
                        encoding="utf-8")
        result = runner.invoke(main, ["train", "--dataset", str(path), "--out", str(tmp_path / "m"), "--seed", "1"])
        assert_clean_failure(result)
        assert "header" in result.stderr

    @pytest.mark.parametrize(
        "sample",
        [{"text": 5}, {"function_id": None}, {"line": "2"}, {"label": "maybe"}],
        ids=["text-number", "function-id-null", "line-string", "unknown-label"],
    )
    def test_train_dataset_bad_sample(self, runner, tmp_path, sample):
        good = {"text": "a = 1 ;", "label": "vulnerable", "function_id": "f", "line": 2}
        path = tmp_path / "dataset.jsonl"
        path.write_text(
            json.dumps({"schema_version": SCHEMA_VERSION, "kind": "line-dataset"}) + "\n"
            + json.dumps({**good, **sample}) + "\n",
            encoding="utf-8",
        )
        result = runner.invoke(main, ["train", "--dataset", str(path), "--out", str(tmp_path / "m"), "--seed", "1"])
        assert_clean_failure(result)
        assert ":2:" in result.stderr

    def test_evaluate_corpus_not_utf8(self, runner, planted, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(planted["corpus"].read_bytes() + b'{"function_id": "\xff"}\n')
        result = runner.invoke(main, ["evaluate", "--corpus", str(path), "--models", str(planted["models"])])
        assert_clean_failure(result)
        assert "UTF-8" in result.stderr

    @pytest.mark.parametrize(
        "change",
        [
            {"taus": None},
            {"skipped": None},
            {"taus": {}},
            {"skipped": []},
            {"skipped": {"parse": "1"}},
            {"taus": [[]]},
            {"taus": [{"tau": 0.5, "trust": {}, "naive": {}}]},
            {"taus": [{"tau": "0.5", "trust": {}, "naive": {}}]},
        ],
        ids=["no-taus", "no-skipped", "taus-object", "skipped-array", "count-string",
             "cutoff-array", "metrics-missing", "tau-string"],
    )
    def test_report_malformed(self, runner, planted, tmp_path, change):
        doc = {"schema_version": SCHEMA_VERSION, "taus": [], "records": [], "skipped": {}}
        doc.update(change)
        doc = {key: value for key, value in doc.items() if value is not None}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(main, ["report", str(path)])
        assert_clean_failure(result)

    def test_report_metric_must_be_a_number(self, runner, planted, tmp_path):
        out = tmp_path / "report.json"
        evaluated = runner.invoke(
            main, ["evaluate", "--corpus", str(planted["corpus"]), "--models", str(planted["models"]),
                   *EVAL_ARGS, "--out", str(out)],
        )
        assert evaluated.exit_code == EXIT_OK
        doc = json.loads(out.read_text(encoding="utf-8"))
        doc["taus"][0]["trust"]["f1"] = "0.9"
        out.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(main, ["report", str(out)])
        assert_clean_failure(result)
        assert "f1" in result.stderr

    @pytest.mark.parametrize(
        "content",
        [b"garbage\n", b"[run]\nseed = 1\nseed = 2\n", b"[run]\nseed = \xff\n"],
        ids=["no-section", "duplicate-field", "not-utf8"],
    )
    def test_config_unreadable(self, runner, vrrp_args, tmp_path, content):
        path = tmp_path / "run.ini"
        path.write_bytes(content)
        result = runner.invoke(main, ["assess", *vrrp_args, "--config", str(path)])
        assert_clean_failure(result)
        assert "config file" in result.stderr


# mostly well-formed explanations of f, so that most examples that parse
# reach a verdict; lines 1-5 are the ones graph_docs places nodes on
explanation_docs = st.one_of(
    st.fixed_dictionaries(
        {
            "schema_version": st.just("1.0.0"),
            "function_id": st.just("f"),
            "confidence": st.floats(0, 1),
            "entries": st.lists(
                st.fixed_dictionaries(
                    {"line": st.integers(1, 5) | st.integers(1, 40), "score": st.floats(0, 1)}
                ),
                max_size=8,
                unique_by=lambda entry: entry["line"],
            ),
        }
    ),
    json_values,
)
sources = st.one_of(
    st.integers(0, 2**16).map(
        lambda seed: c_subset_function(random.Random(seed), 30).replace("int fuzz(", "int f(", 1)
    ),
    c_soup,
    c_soup.map(function_shell),
)


class TestAssessContract:
    """Whatever its files hold, assess exits 0, 10 or 2, never 1 with a
    traceback."""

    @pytest.fixture(scope="class")
    def models(self, tmp_path_factory):
        # one saved ensemble for every example; it flags some of the lines
        # that the sources hold, so verdicts have benign and suspect lines
        flagged = frozenset(
            normalize_line(line) for v in "abcdex" for line in (f"return {v};", f"{v}++;", f"{v} = 1;")
        )
        out = tmp_path_factory.mktemp("contract_models")
        save_ensemble([LookupLineClassifier(non_benign=flagged) for _ in range(3)], out)
        return out

    def run(self, runner, models, tmp_path_factory, flag, content, explanation, mode):
        work = tmp_path_factory.getbasetemp()
        source = work / "contract_input"
        source.write_text(content, encoding="utf-8")
        expl = work / "contract_explanation.json"
        expl.write_text(json.dumps(explanation), encoding="utf-8")
        args = [flag, str(source), "--explanation", str(expl), "--models", str(models), "--mode", mode]
        assert_contract(runner.invoke(main, ["assess", *args]))

    @settings(max_examples=100, deadline=None)
    @given(sources, explanation_docs, st.sampled_from(DATA_RULE_MODES))
    def test_source(self, runner, models, tmp_path_factory, source, explanation, mode):
        self.run(runner, models, tmp_path_factory, "--source", source, explanation, mode)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(graph_docs, json_values), explanation_docs, st.sampled_from(DATA_RULE_MODES))
    def test_import_pdg(self, runner, models, tmp_path_factory, document, explanation, mode):
        self.run(runner, models, tmp_path_factory, "--import-pdg", json.dumps(document), explanation, mode)


# numbers for flags and document fields: in range, out of range, not finite
wild_numbers = st.one_of(
    st.floats(0, 1),
    st.floats(-1e6, 1e6),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1.0, 2.0, 1e308]),
)
record_docs = st.fixed_dictionaries(
    {
        "source": sources,
        "label": st.sampled_from(["vulnerable", "non-vulnerable"]),
        "vul_lines": st.lists(st.integers(1, 12), min_size=1, max_size=3),
    },
    optional={
        "explanation": st.lists(
            st.fixed_dictionaries({"line": st.integers(1, 12), "score": wild_numbers}),
            max_size=5,
        ),
        "confidence": wild_numbers,
        "graph": graph_docs,
    },
)
corpora = st.lists(record_docs, max_size=6).map(
    lambda docs: [{**doc, "function_id": f"f{i}"} for i, doc in enumerate(docs)]
)
dataset_samples = st.fixed_dictionaries(
    {
        "text": st.sampled_from(["return a;", "strcpy(d, s);", "if (a > b) {", "a++;"])
        | st.builds("{} = {};".format, st.sampled_from("abxy"), st.integers(0, 99)),
        "label": st.sampled_from(["vulnerable", "non-vulnerable"]),
        "function_id": st.just("f"),
        "line": st.integers(1, 9),
    }
)
datasets = st.lists(dataset_samples, min_size=2, max_size=8).map(
    lambda samples: [{"schema_version": SCHEMA_VERSION, "kind": "line-dataset"}, *samples]
)


def flag_values(**flags):
    """Strategy for an argument list that gives each flag sometimes, with a
    value drawn from its strategy."""
    return st.fixed_dictionaries({}, optional=flags).map(
        lambda drawn: [part for flag, value in sorted(drawn.items()) for part in (f"--{flag}", str(value))]
    )


def replaced_somewhere(data, doc, value):
    """doc with one value, at a path drawn from data, replaced by value."""
    if not isinstance(doc, (dict, list)) or not doc or data.draw(st.integers(0, 3)) == 0:
        return value
    if isinstance(doc, dict):
        key = data.draw(st.sampled_from(sorted(doc)))
        return {**doc, key: replaced_somewhere(data, doc[key], value)}
    i = data.draw(st.integers(0, len(doc) - 1))
    return [*doc[:i], replaced_somewhere(data, doc[i], value), *doc[i + 1:]]


def write_lines(path: Path, data, docs) -> Path:
    """Write docs as JSON lines, half the time with one value anywhere in
    them replaced by any JSON value or a wild number."""
    if data.draw(st.booleans()):
        docs = replaced_somewhere(data, docs, data.draw(st.one_of(json_values, wild_numbers)))
    lines = docs if isinstance(docs, list) else [docs]
    path.write_text("\n".join(json.dumps(doc) for doc in lines), encoding="utf-8")
    return path


class TestCommandContracts:
    """Whatever their files and flags hold, ingest, train, evaluate and
    report exit 0, 10 or 2, never 1 with a traceback; a model directory
    that train writes loads in assess and scores a line."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("command_contracts")

    @settings(max_examples=60, deadline=None)
    @given(
        st.data(),
        corpora,
        flag_values(
            seed=st.integers(-1, 9),
            **{"neg-ratio": wild_numbers, "bleu-threshold": wild_numbers, "bleu-order": st.integers(-1, 6)},
        ),
    )
    def test_ingest(self, runner, work, data, corpus, flags):
        corpus_path = write_lines(work / "corpus.jsonl", data, corpus)
        args = ["ingest", "--corpus", str(corpus_path), "--out", str(work / "dataset.jsonl")]
        assert_contract(runner.invoke(main, [*args, *flags]))

    @settings(max_examples=40, deadline=None)
    @given(
        st.data(),
        datasets,
        st.integers(0, 9),
        flag_values(l2=wild_numbers, **{"max-iter": st.integers(-1, 30), "vote-threshold": wild_numbers}),
    )
    def test_train_and_assess(self, runner, work, vrrp_args, data, dataset, seed, flags):
        dataset_path = write_lines(work / "train.jsonl", data, dataset)
        models = work / "trained"
        shutil.rmtree(models, ignore_errors=True)
        args = ["train", "--dataset", str(dataset_path), "--out", str(models), "--seed", str(seed)]
        result = runner.invoke(main, [*args, *flags])
        assert_contract(result)
        if result.exit_code == EXIT_OK:
            judged = runner.invoke(main, ["assess", *vrrp_args[:4], "--models", str(models)])
            assert judged.exit_code in (EXIT_OK, EXIT_UNTRUSTWORTHY), (judged.output, judged.exception)

    @settings(max_examples=40, deadline=None)
    @given(
        st.data(),
        corpora,
        flag_values(
            seed=st.integers(-1, 9),
            mode=st.sampled_from(DATA_RULE_MODES),
            **{
                "iou-threshold": wild_numbers,
                "trust-threshold": wild_numbers,
                "conf-threshold": wild_numbers,
                "top-k": st.integers(-1, 12),
            },
        ),
    )
    def test_evaluate(self, runner, work, planted, data, corpus, flags):
        corpus_path = write_lines(work / "predictions.jsonl", data, corpus)
        args = ["evaluate", "--corpus", str(corpus_path), "--models", str(planted["models"])]
        assert_contract(runner.invoke(main, [*args, *flags]))

    @pytest.fixture(scope="class")
    def report_doc(self, runner, work, planted):
        out = work / "planted_report.json"
        args = ["evaluate", "--corpus", str(planted["corpus"]), "--models", str(planted["models"])]
        assert runner.invoke(main, [*args, *EVAL_ARGS, "--out", str(out)]).exit_code == EXIT_OK
        return json.loads(out.read_text(encoding="utf-8"))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_report(self, runner, work, report_doc, data):
        report_path = write_lines(work / "report.json", data, report_doc)
        assert_contract(runner.invoke(main, ["report", str(report_path)]))
