"""Evaluation harness: ground truth, metrics, calibration, corpus runs."""

from __future__ import annotations

import dataclasses
import math
import random
from collections import Counter

import pytest

from oracles import oracle_auc, oracle_best_threshold, oracle_metrics
from synth import (
    diff_record,
    lookup_ensemble,
    nested_ifs,
    nested_subscripts,
    planted_corpus,
    synthetic_corpus,
    worker_record,
)
from trustvet import evaluate
from trustvet.config import RunConfig
from trustvet.corpus import record_from_dict, record_to_dict
from trustvet.errors import (
    AdapterError,
    CalibrationError,
    SchemaError,
    UndefinedGroundTruthError,
    UndefinedInputError,
)
from trustvet.evaluate import (
    RecordResult,
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
from trustvet.frontend import graphio, lexer, parser
from trustvet.frontend.parser import _clean_source
from trustvet.pdg import Explanation, dumps_canonical, read_json_object


class TestGroundTruth:
    def test_iou_values(self):
        assert iou({1, 2}, {2, 3}) == pytest.approx(1 / 3)
        assert iou({1, 2}, {1, 2}) == 1.0
        assert iou(set(), {1}) == 0.0

    def test_empty_truth_rejected(self):
        with pytest.raises(UndefinedGroundTruthError):
            iou({1}, set())

    def test_label_cutoff_is_inclusive(self):
        assert label_ground_truth(0.5, 0.5)      # equal counts as untrustworthy
        assert not label_ground_truth(0.51, 0.5)

    def test_select_suspicious_ranks_by_score_then_line(self):
        expl = Explanation("f", 0.5, ((5, 0.3), (2, 0.3), (9, 0.9), (4, 0.1)))
        assert select_suspicious(expl, 3, frozenset({2, 4, 5, 9})) == frozenset({9, 2, 5})

    def test_select_suspicious_resident_filter(self):
        expl = Explanation("f", 0.5, ((5, 0.3), (2, 0.9)))
        assert select_suspicious(expl, 5, frozenset({5})) == frozenset({5})

    def test_select_suspicious_needs_positive_k(self):
        expl = Explanation("f", 0.5, ((5, 0.3),))
        with pytest.raises(UndefinedInputError):
            select_suspicious(expl, 0, frozenset({5}))


class TestMetrics:
    def test_frozen_confusion_matrix(self):
        # TP=2 FP=1 TN=3 FN=0
        truth = [True, True, False, False, False, False]
        preds = [True, True, True, False, False, False]
        m = compute_metrics(truth, preds)
        assert m.accuracy == pytest.approx(5 / 6, abs=1e-12)
        assert m.precision == pytest.approx(2 / 3, abs=1e-12)
        assert m.sensitivity == 1.0
        assert m.specificity == pytest.approx(3 / 4, abs=1e-12)
        assert m.f1 == pytest.approx(0.8, abs=1e-12)
        assert m.gmean == pytest.approx(math.sqrt(0.75), abs=1e-12)

    def test_lengths_must_match(self):
        with pytest.raises(UndefinedInputError, match="truth and predictions differ in length"):
            compute_metrics([True, False], [True])

    def test_zero_denominators_are_none(self):
        m = compute_metrics([False, False], [False, False])
        assert m.precision is None and m.sensitivity is None
        assert m.f1 is None and m.gmean is None
        assert m.specificity == 1.0

    def test_f1_zero_when_precision_and_sensitivity_vanish(self):
        m = compute_metrics([True, False], [False, True])
        assert m.precision == 0.0 and m.sensitivity == 0.0
        assert m.f1 == 0.0

    def test_matches_oracle_on_random_vectors(self):
        rng = random.Random(404)
        for _ in range(100):
            n = rng.randint(1, 30)
            truth = [rng.random() < 0.5 for _ in range(n)]
            preds = [rng.random() < 0.5 for _ in range(n)]
            m = compute_metrics(truth, preds)
            want = oracle_metrics(truth, preds)
            for field in ("accuracy", "precision", "sensitivity", "specificity", "f1", "gmean"):
                got = getattr(m, field)
                if want[field] is None:
                    assert got is None, field
                else:
                    assert got == pytest.approx(want[field], abs=1e-12), field


class TestAuc:
    def test_perfect_and_inverted(self):
        labels = [True, True, False, False]
        assert rank_auc([0.1, 0.2, 0.8, 0.9], labels) == 1.0
        assert rank_auc([0.9, 0.8, 0.1, 0.2], labels) == 0.0

    def test_all_tied_is_half(self):
        assert rank_auc([0.5, 0.5, 0.5], [True, False, True]) == 0.5

    def test_single_class_is_none(self):
        assert rank_auc([0.1, 0.2], [True, True]) is None

    def test_lengths_must_match(self):
        with pytest.raises(UndefinedInputError, match="scores and labels differ in length"):
            rank_auc([0.1, 0.2], [True])

    def test_matches_pair_counting_oracle(self):
        rng = random.Random(42)
        for _ in range(50):
            n = rng.randint(2, 25)
            scores = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(n)]
            labels = [rng.random() < 0.5 for _ in range(n)]
            want = oracle_auc(scores, labels)
            got = rank_auc(scores, labels)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)


class TestCalibration:
    def test_planted_separation(self):
        scores = [0.0, 0.0, 1 / 3, 0.55, 1.0]
        labels = [True, True, True, False, False]
        result = calibrate_threshold(scores, labels)
        assert result.threshold == pytest.approx((1 / 3 + 0.55) / 2)
        assert result.gmean == 1.0
        assert not result.degenerate

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(4, 25)
            scores = [round(rng.random(), 2) for _ in range(n)]
            labels = [rng.random() < 0.5 for _ in range(n)]
            if all(labels) or not any(labels) or len(set(scores)) < 2:
                continue
            want_threshold, want_gmean = oracle_best_threshold(scores, labels)
            got = calibrate_threshold(scores, labels)
            assert got.gmean == pytest.approx(want_gmean, abs=1e-12)
            assert got.threshold == pytest.approx(want_threshold, abs=1e-12)

    def random_scores(self, rng, n):
        """n scores with heavy ties, some of them adjacent doubles."""
        base = [round(rng.uniform(-1, 2), rng.choice([1, 2, 6])) for _ in range(rng.randint(1, 60))]
        base += [math.nextafter(v, math.inf) for v in rng.sample(base, len(base) // 2)]
        return [rng.choice(base) for _ in range(n)]

    def test_sweep_equals_oracle_exactly(self):
        rng = random.Random(2024)
        sizes = [rng.randint(2, 60) for _ in range(150)] + [500, 2000, 2000]
        for n in sizes:
            scores = self.random_scores(rng, n)
            labels = [rng.random() < rng.choice([0.1, 0.5, 0.9]) for _ in range(n)]
            if all(labels) or not any(labels) or len(set(scores)) < 2:
                continue
            got = calibrate_threshold(scores, labels)
            assert (got.threshold, got.gmean) == oracle_best_threshold(scores, labels), n

    def test_sweep_equals_oracle_on_distinct_scores(self):
        rng = random.Random(5)
        scores = [rng.random() for _ in range(2000)]
        labels = [s + rng.gauss(0, 0.3) < 0.5 for s in scores]
        got = calibrate_threshold(scores, labels)
        assert (got.threshold, got.gmean) == oracle_best_threshold(scores, labels)

    def test_midpoint_of_adjacent_doubles_rounds_to_the_lower(self):
        # (1 + next) / 2 rounds to 1.0, so "score < threshold" splits nothing
        nxt = math.nextafter(1.0, math.inf)
        assert (1.0 + nxt) / 2.0 == 1.0
        result = calibrate_threshold([1.0, nxt, 1.0, nxt], [True, False, True, False])
        assert (result.threshold, result.gmean) == (1.0, 0.0)
        result = calibrate_threshold([0.5, 1.0, nxt], [True, True, False])
        assert (result.threshold, result.gmean) == (0.75, math.sqrt(0.5))

    def test_tie_takes_the_smaller_threshold(self):
        # both midpoints classify perfectly... construct a plateau instead:
        # thresholds 0.5 and 2.5 both give gmean 0 on an inseparable set
        scores = [1.0, 2.0]
        labels = [False, True]  # untrustworthy has the HIGHER score: hopeless
        result = calibrate_threshold(scores, labels)
        assert result.threshold == 1.5  # the only midpoint

    def test_lengths_must_match(self):
        with pytest.raises(UndefinedInputError, match="scores and labels differ in length"):
            calibrate_threshold([0.1, 0.2, 0.3], [True, False])

    def test_single_distinct_score_is_degenerate(self):
        result = calibrate_threshold([0.5, 0.5, 0.5], [True, False, True])
        assert result.degenerate
        assert result.threshold == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_threshold([0.1, 0.2], [True, True])

    def test_naive_rule_is_strict(self):
        assert naive_baseline(0.49, 0.5)
        assert not naive_baseline(0.5, 0.5)


class TestEvaluateRecord:
    def config(self):
        return RunConfig(trust_threshold=0.25, conf_threshold=0.5)

    def test_good_record(self):
        record = worker_record("w", "focus", 0.8)
        result = evaluate_record(record, lookup_ensemble(), self.config())
        assert result.skipped is None
        assert result.trust_score == pytest.approx(0.55, abs=1e-9)
        assert result.iou == pytest.approx(2 / 3, abs=1e-12)
        assert result.suspicious == (4, 6, 7)

    def test_unparseable_source_is_skipped(self):
        record = worker_record("w", "focus", 0.8)
        broken = dataclasses.replace(record, source="void f(void)\n{\n    goto out;\n}\n")
        result = evaluate_record(broken, lookup_ensemble(), self.config())
        assert result.skipped is not None and result.skipped.startswith("graph")

    def test_a_line_splice_is_a_graph_skip(self):
        record = worker_record("w", "focus", 0.8)
        spliced = dataclasses.replace(record, source="int f(int x)\n{\nx = 1; \\\ny = 2;\n}\n")
        result = evaluate_record(spliced, lookup_ensemble(), self.config())
        assert result.skipped == "graph: line 3: line splice ('\\' at the end of a line) is not supported"

    def test_missing_explanation_is_skipped(self):
        record = worker_record("w", "focus", 0.8)
        silent = dataclasses.replace(record, explanation=None)
        result = evaluate_record(silent, lookup_ensemble(), self.config())
        assert result.skipped == "no-explanation"

    def test_missing_ground_truth_is_skipped(self):
        record = worker_record("w", "focus", 0.8)
        bare = dataclasses.replace(record, vul_lines=())
        result = evaluate_record(bare, lookup_ensemble(), self.config())
        assert result.skipped == "no-ground-truth"

    def test_diff_that_does_not_match_the_source_is_skipped(self):
        record = worker_record("w", "focus", 0.8)
        mismatched = dataclasses.replace(
            record, vul_lines=(), diff="@@ -4,1 +4,1 @@\n-    y = 2;\n+    y = 3;\n"
        )
        result = evaluate_record(mismatched, lookup_ensemble(), self.config())
        assert result.skipped == (
            "ground-truth: deleted line 4 does not match the source: '    y = 2;' vs '    y = x + 1;'"
        )

    def test_listed_lines_win_over_the_diff(self):
        """Evaluation scores against the lines ingest trains on."""
        record = dataclasses.replace(
            diff_record(), explanation=((3, 0.6), (4, 0.4)), confidence=0.8
        )
        assert evaluate_record(record, lookup_ensemble(), self.config()).truth == (4,)
        both = dataclasses.replace(record, vul_lines=(3,))
        assert evaluate_record(both, lookup_ensemble(), self.config()).truth == (3,)

    @pytest.mark.parametrize(
        "change",
        [
            {"explanation": ((True, 0.5), (6, 0.5))},
            {"explanation": (([6], 0.5),)},
            {"confidence": 1.5},
            {"explanation": ((6, 1e308), (7, 1e308))},
        ],
    )
    def test_malformed_explanation_is_skipped(self, change):
        record = dataclasses.replace(worker_record("w", "focus", 0.8), **change)
        result = evaluate_record(record, lookup_ensemble(), self.config())
        assert result.skipped is not None and result.skipped.startswith("explanation: ")

    # one fault per stage that can fail, in the order the stages run
    FAULTS = (
        ("explanation", {"explanation": ((True, 0.5), (6, 0.5))}),
        ("graph", {"source": "void f(void)\n{\n    goto out;\n}\n"}),
        ("ground-truth", {"vul_lines": (99,)}),
    )

    @pytest.mark.parametrize("first", range(len(FAULTS) + 1))
    def test_the_first_failing_stage_names_the_skip(self, first):
        """A record with the faults of every stage from `first` on, and an
        ensemble that cannot classify, is skipped by its first fault, and
        every other field holds a skip's value."""

        class Broken:
            def classify(self, text):
                raise AdapterError("adapter pipe failed: gone")

        record = worker_record("w", "focus", 0.8)
        for _, change in self.FAULTS[first:]:
            record = dataclasses.replace(record, **change)
        result = evaluate_record(record, [Broken()], self.config())
        stage = (*(name for name, _ in self.FAULTS), "assessment")[first]
        assert result == RecordResult("w", result.skipped)
        assert result.skipped.startswith(f"{stage}: ")
        if stage == "assessment":
            assert result.skipped == "assessment: stage 'line-assessment': line 4: adapter pipe failed: gone"

    def test_no_ground_truth_comes_before_the_assessment(self):
        record = dataclasses.replace(worker_record("w", "focus", 0.8), vul_lines=())
        result = evaluate_record(record, [object()], self.config())
        assert result == RecordResult("w", "no-ground-truth")


class TestRunEvaluation:
    def test_planted_confusion_matrix(self):
        records, expected = planted_corpus()
        config = RunConfig(iou_threshold=0.5, trust_threshold=0.25, conf_threshold=0.5)
        report = run_evaluation(records, lookup_ensemble(), config)
        t = report.taus[0]
        assert t.evaluated == 10
        assert t.untrustworthy_count == expected["untrustworthy_count"]
        assert t.trust.accuracy == pytest.approx(0.8, abs=1e-12)
        assert t.trust.precision == pytest.approx(0.8, abs=1e-12)
        assert t.trust.sensitivity == pytest.approx(0.8, abs=1e-12)
        assert t.trust.specificity == pytest.approx(0.8, abs=1e-12)
        assert t.trust.gmean == pytest.approx(0.8, abs=1e-12)
        assert t.trust.auc == pytest.approx(expected["trust_auc"], abs=1e-12)
        assert t.naive.auc == pytest.approx(expected["naive_auc"], abs=1e-12)
        assert t.naive.precision is None
        assert t.naive.sensitivity == 0.0

    def test_fixed_thresholds_use_every_record(self):
        records, _ = planted_corpus()
        config = RunConfig(trust_threshold=0.25, conf_threshold=0.5)
        report = run_evaluation(records, lookup_ensemble(), config)
        assert report.taus[0].evaluated == len(records)

    def test_unset_thresholds_reserve_a_calibration_slice(self):
        records = synthetic_corpus(40, seed=3)
        config = RunConfig(seed=9, calibration_fraction=0.2)
        report = run_evaluation(records, lookup_ensemble(), config)
        assert report.taus[0].evaluated == 32
        assert report.taus[0].trust_threshold != 0.25  # calibrated, not default

    def test_calibrated_threshold_separates_the_synthetic_corpus(self):
        records = synthetic_corpus(60, seed=5)
        config = RunConfig(seed=1)
        report = run_evaluation(records, lookup_ensemble(), config)
        t = report.taus[0]
        assert not t.trust_degenerate
        assert t.trust.gmean == 1.0

    def test_single_class_calibration_falls_back(self):
        records = [worker_record(f"w{i}", "pure", 0.7) for i in range(10)]
        config = RunConfig(seed=0)
        report = run_evaluation(records, lookup_ensemble(), config)
        t = report.taus[0]
        assert t.trust_degenerate and t.conf_degenerate
        assert t.trust_threshold == 0.5

    def test_workers_do_not_change_results(self):
        records, _ = planted_corpus()
        config_serial = RunConfig(trust_threshold=0.25, conf_threshold=0.5, workers=1)
        config_parallel = RunConfig(trust_threshold=0.25, conf_threshold=0.5, workers=4)
        serial = run_evaluation(records, lookup_ensemble(), config_serial)
        parallel = run_evaluation(records, lookup_ensemble(), config_parallel)
        assert report_to_dict(serial) == report_to_dict(parallel)

    def test_vulnerable_line_outside_the_source_is_a_ground_truth_skip(self):
        """evaluate reads vul_lines by ingest's rule: a line the source does
        not have is refused, not scored."""
        records, _ = planted_corpus()
        outside = dataclasses.replace(records[0], function_id="outside", vul_lines=(6, 99))
        config = RunConfig(trust_threshold=0.25, conf_threshold=0.5)
        result = evaluate_record(outside, lookup_ensemble(), config)
        assert result.skipped == "ground-truth: record outside: vulnerable line 99 is outside the source"
        report = run_evaluation(records + [outside], lookup_ensemble(), config)
        assert report.skipped == {"ground-truth": 1}
        assert report.taus[0].evaluated == 10

    def test_skipped_records_counted_not_evaluated(self):
        records, _ = planted_corpus()
        broken = dataclasses.replace(
            records[0], function_id="broken", source="void f(void)\n{\n    goto x;\n}\n"
        )
        config = RunConfig(trust_threshold=0.25, conf_threshold=0.5)
        report = run_evaluation(records + [broken], lookup_ensemble(), config)
        assert report.skipped == {"graph": 1}
        assert report.taus[0].evaluated == 10

    def test_malformed_explanations_are_skipped(self):
        records, _ = planted_corpus()
        bad = [
            record_from_dict(
                {**record_to_dict(records[0]), "function_id": f"bad_{i}", **change}, "test"
            )
            for i, change in enumerate(
                [{"explanation": [{"line": True, "score": 0.5}]}, {"confidence": 1.5}]
            )
        ]
        config = RunConfig(trust_threshold=0.25, conf_threshold=0.5)
        report = run_evaluation(records + bad, lookup_ensemble(), config)
        assert report.skipped == {"explanation": 2}
        assert report.taus[0].evaluated == 10

    def test_deeply_nested_sources_are_skipped(self):
        records, _ = planted_corpus()
        deep = [
            dataclasses.replace(records[0], function_id=f"deep_{i}", source=source)
            for i, source in enumerate([nested_ifs(400), nested_subscripts(1500)])
        ]
        config = RunConfig(trust_threshold=0.25, conf_threshold=0.5)
        report = run_evaluation(records + deep, lookup_ensemble(), config)
        assert report.skipped == {"graph": 2}
        assert report.taus[0].evaluated == 10

    def test_tau_sweep_counts_are_monotone(self):
        records = synthetic_corpus(
            60, seed=13, kinds=("pure", "focus", "blur", "mixed", "offbase", "hollow")
        )
        config = RunConfig(trust_threshold=0.25, conf_threshold=0.5)
        taus = tuple(i / 10 for i in range(1, 10))
        report = run_evaluation(records, lookup_ensemble(), config, taus=taus)
        counts = [t.untrustworthy_count for t in report.taus]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] > counts[0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_cutoff_that_cannot_run_is_refused(self, bad):
        class Untouched:
            def classify(self, text):
                raise AssertionError("screened before the cutoffs were checked")

        records, _ = planted_corpus()
        config = RunConfig(trust_threshold=0.25, conf_threshold=0.5)
        with pytest.raises(SchemaError, match="IoU cutoff"):
            run_evaluation(records, [Untouched()], config, taus=(0.5, bad))

    @pytest.mark.parametrize("bad", [1.5, -0.5, 2.0])
    def test_a_cutoff_outside_the_unit_interval_is_refused(self, bad):
        records, _ = planted_corpus()
        config = RunConfig(trust_threshold=0.25, conf_threshold=0.5)
        with pytest.raises(SchemaError, match=r"IoU cutoff: .* is not in \[0, 1\]"):
            run_evaluation(records, lookup_ensemble(), config, taus=(0.5, bad))

    def test_render_table_from_report_and_dict_agree(self):
        records, _ = planted_corpus()
        config = RunConfig(trust_threshold=0.25, conf_threshold=0.5)
        report = run_evaluation(records, lookup_ensemble(), config)
        doc = report_to_dict(report)
        # what evaluate renders and what report renders after a save and load
        assert render_table(doc) == render_table(read_json_object(dumps_canonical(doc), "report"))
        table = render_table(doc)
        assert "trust" in table and "naive" in table and "0.800" in table


class TestLineTable:
    """One run_evaluation shares one line table across its records: each
    distinct cleaned line is tokenized once, and a full table changes no
    bytes of the report."""

    def test_each_distinct_line_is_tokenized_once_per_run(self, monkeypatch):
        ensemble = lookup_ensemble()  # which parses a probe function
        calls = Counter()
        tokenize = lexer.scan_line

        def counting(text):
            calls[text] += 1
            return tokenize(text)

        for module in (lexer, parser, graphio):
            if hasattr(module, "scan_line"):
                monkeypatch.setattr(module, "scan_line", counting)
        records, _ = planted_corpus()
        run_evaluation(records, ensemble, RunConfig(seed=0))
        lines = set().union(*(_clean_source(r.source) for r in records))
        assert len(lines) < sum(len(_clean_source(r.source)) for r in records)
        assert calls == Counter(lines)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_full_table_changes_no_report(self, monkeypatch, workers):
        records, _ = planted_corpus()
        config = RunConfig(trust_threshold=0.25, conf_threshold=0.5, workers=workers)
        want = dumps_canonical(report_to_dict(run_evaluation(records, lookup_ensemble(), config)))
        tables = []

        def recording(record, ensemble, config, memo=None, table=None):
            tables.append(table)
            return evaluate_record(record, ensemble, config, memo, table)

        monkeypatch.setattr(lexer, "LINE_TABLE_LIMIT", 3)
        monkeypatch.setattr(evaluate, "evaluate_record", recording)
        got = dumps_canonical(report_to_dict(run_evaluation(records, lookup_ensemble(), config)))
        assert got == want
        assert len(tables) == len(records) and all(table is tables[0] for table in tables)
        assert len(tables[0]) == 3
