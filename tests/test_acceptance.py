"""Acceptance suite: one check per guarantee the package must hold.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s) and
asserts the same condition, so the suite reads as a checklist. Reference
values come from the hand-evaluated worked example and from the independent
oracle implementations in oracles.py.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time

from clirun import CliRunner
from oracles import (
    oracle_best_threshold,
    oracle_bleu,
    oracle_distances,
    oracle_metrics,
    oracle_vulnerable_edges,
)
from synth import (
    KIND_ENTRIES,
    lookup_ensemble,
    negative_record,
    random_pdg,
    synthetic_corpus,
    worker_record,
    worker_source,
)
from trustvet.assess import (
    is_vulnerable_dependency,
    reachability_distance,
    trust_score,
    vulnerable_edges,
)
from trustvet.cli import main, save_ensemble
from trustvet.config import RunConfig
from trustvet.corpus import save_corpus
from trustvet.evaluate import calibrate_threshold, compute_metrics, run_evaluation
from trustvet.frontend import pdg_from_source
from trustvet.lineassess.bleu import BleuReferences, bleu
from trustvet.lineassess.classifier import LookupLineClassifier
from trustvet.lineassess.ensemble import benign_candidates, ensemble_vote
from trustvet.pdg import SCHEMA_VERSION, WeightedPdg, build_weighted_pdg


def check(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_worked_example(vrrp_fixture, vrrp_explanation, vrrp_ensemble):
    """The hand-evaluated ten-line function: per-edge rule, distances, score."""
    start = time.perf_counter()
    verdicts = benign_candidates(vrrp_ensemble, vrrp_explanation, vrrp_fixture.line_text)
    benign = frozenset(line for line, v in verdicts.items() if v.is_benign_candidate)
    g = build_weighted_pdg(vrrp_fixture, vrrp_explanation, normalize=False)

    expected_p = {
        (1, 3): True, (3, 7): True,
        (3, 4): False, (3, 5): False, (7, 8): False, (8, 9): False,
    }
    p_ok = len(g.pdg.edges) == len(expected_p) and all(
        is_vulnerable_dependency(edge, g, benign) is expected_p[(edge.src, edge.dst)]
        for edge in g.pdg.edges
    )
    expected_r = {(3, 7): 1.0, (1, 7): 2.0, (4, 7): math.inf, (5, 7): math.inf, (8, 7): math.inf}
    r_ok = all(
        reachability_distance(s, t, g, benign) == want for (s, t), want in expected_r.items()
    )
    score = trust_score(vrrp_explanation, g, benign)
    elapsed = time.perf_counter() - start

    ok = (
        benign == frozenset({1, 3, 4, 5, 8, 9})
        and p_ok
        and r_ok
        and abs(score - 0.245) <= 1e-9
        and elapsed < 1.0
    )
    check("criterion 1: worked-example fidelity", ok, f"T={score:.9f}, {elapsed:.3f} s")


def test_criterion_2_reachability_oracle():
    """1,000 seeded random graphs against the matrix-power reference."""
    rng = random.Random(20240819)
    start = time.perf_counter()
    queries = 0
    mismatches = 0
    for _ in range(1000):
        pdg = random_pdg(rng)
        benign_lines = frozenset(l for l in pdg.nodes if rng.random() < 0.5)
        g = WeightedPdg(pdg=pdg, weights={}, dropped=(), normalized=False)
        for mode in ("direct", "transitive_flow"):
            edges = vulnerable_edges(g, benign_lines, mode)
            if set(edges) != set(oracle_vulnerable_edges(pdg, benign_lines, mode)):
                mismatches += 1
            expected = oracle_distances(pdg, edges, benign_lines, pdg.nodes)
            for (s, t), want in expected.items():
                queries += 1
                if reachability_distance(s, t, g, benign_lines, mode) != want:
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    check(
        "criterion 2: reachability matches the oracle",
        ok,
        f"{queries} queries, {mismatches} mismatches, {elapsed:.1f} s",
    )


def test_criterion_3_vote_exhaustiveness():
    """Every vote vector for ensembles of one through five members."""
    count = 0
    wrong = 0
    for k in range(1, 6):
        for votes in itertools.product((0, 1), repeat=k):
            count += 1
            expected = 1 if sum(votes) / k >= 0.5 else 0
            if ensemble_vote(votes) != expected:
                wrong += 1
    tie_ok = ensemble_vote((1, 0)) == 1
    ok = count == 62 and wrong == 0 and tie_ok
    check("criterion 3: vote rule exhausted", ok, f"{count} vectors, tie (1,0) -> 1")


def test_criterion_4_bleu_oracle():
    """200 random token lists against the independent BLEU."""
    rng = random.Random(20240818)
    vocab = ["a", "b", "c", "d", "e", "f", "g", "h"]
    worst = 0.0
    for _ in range(200):
        cand = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        refs = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            for _ in range(rng.randint(1, 4))
        ]
        order = rng.randint(1, 4)
        worst = max(worst, abs(bleu(cand, BleuReferences(refs, order)) - oracle_bleu(cand, refs, order)))
    identity = bleu(["x", "=", "y", ";"], BleuReferences([["x", "=", "y", ";"]]))
    disjoint = bleu(["a", "b"], BleuReferences([["c", "d"]]))
    ok = worst <= 1e-9 and identity == 1.0 and disjoint <= 1e-6
    check(
        "criterion 4: BLEU matches the oracle",
        ok,
        f"worst gap {worst:.2e}, identity {identity}, disjoint {disjoint:.2e}",
    )


def test_criterion_5_metric_identities():
    """Seven metrics on 50 random confusion matrices, plus calibration optima."""
    rng = random.Random(20240816)
    fields = ("accuracy", "precision", "sensitivity", "specificity", "f1", "gmean")
    worst = 0.0
    bad = 0
    for _ in range(50):
        tp, fp, tn, fn = 0, 0, 0, 0
        while tp + fp + tn + fn == 0:
            tp, fp, tn, fn = (rng.randint(0, 30) for _ in range(4))
        truth = [True] * tp + [False] * fp + [True] * fn + [False] * tn
        preds = [True] * tp + [True] * fp + [False] * fn + [False] * tn
        got = compute_metrics(truth, preds)
        want = oracle_metrics(truth, preds)
        for field in fields:
            mine, ref = getattr(got, field), want[field]
            if (mine is None) != (ref is None):
                bad += 1
            elif mine is not None:
                worst = max(worst, abs(mine - ref))

    fixtures = [
        ([0.1, 0.2, 0.6, 0.9], [True, True, False, False]),
        ([0.3, 0.3, 0.7, 0.8, 0.9], [True, False, True, False, False]),
    ]
    while len(fixtures) < 30:
        scores = [rng.choice([0.1, 0.25, 0.4, 0.55, 0.7, 0.85]) for _ in range(rng.randint(4, 12))]
        labels = [rng.random() < 0.5 for _ in scores]
        if len(set(scores)) >= 2 and len(set(labels)) == 2:
            fixtures.append((scores, labels))
    calib_gap = 0.0
    for scores, labels in fixtures:
        got = calibrate_threshold(scores, labels)
        want_threshold, want_gmean = oracle_best_threshold(scores, labels)
        calib_gap = max(
            calib_gap, abs(got.threshold - want_threshold), abs(got.gmean - want_gmean)
        )
    ok = bad == 0 and worst <= 1e-12 and calib_gap <= 1e-12
    check(
        "criterion 5: metric identities and calibration optima",
        ok,
        f"worst metric gap {worst:.2e}, worst calibration gap {calib_gap:.2e}",
    )


def test_criterion_6_ground_truth_monotonicity():
    """Raising the IoU cutoff never shrinks the untrustworthy count."""
    records = synthetic_corpus(
        100, seed=11, kinds=("pure", "focus", "blur", "mixed", "offbase", "hollow")
    )
    config = RunConfig(trust_threshold=0.25, conf_threshold=0.75)
    taus = tuple(round(0.1 * i, 1) for i in range(1, 10))
    report = run_evaluation(records, lookup_ensemble(), config, taus=taus)
    counts = [t.untrustworthy_count for t in report.taus]
    ok = (
        all(a <= b for a, b in zip(counts, counts[1:]))
        and counts[0] < counts[-1]
        and all(t.evaluated == 100 for t in report.taus)
    )
    check("criterion 6: untrustworthy count non-decreasing in tau", ok, f"counts {counts}")


def test_criterion_7_synthetic_discrimination():
    """T separates on-target from off-target explanations; confidence does not."""
    start = time.perf_counter()
    records = synthetic_corpus(100, seed=7)
    config = RunConfig(trust_threshold=0.25, conf_threshold=0.75)
    report = run_evaluation(records, lookup_ensemble(), config)
    t = report.taus[0]
    elapsed = time.perf_counter() - start
    ok = (
        t.trust.auc is not None
        and t.naive.auc is not None
        and t.trust.auc >= 0.90
        and t.trust.auc > t.naive.auc
        and elapsed < 120.0
    )
    check(
        "criterion 7: synthetic discrimination",
        ok,
        f"trust AUC {t.trust.auc:.3f} vs naive {t.naive.auc:.3f}, {elapsed:.1f} s",
    )


def test_criterion_8_latency(tmp_path, data_dir):
    """Full assess run on the 150-line fixture, averaged over ten runs."""
    source_path = data_dir / "long_chain.c"
    pdg = pdg_from_source(source_path.read_text(encoding="utf-8"))
    nodes = sorted(pdg.nodes)
    deep = nodes[-10]
    explanation = {
        "schema_version": SCHEMA_VERSION,
        "function_id": pdg.function_id,
        "confidence": 0.9,
        "entries": [
            {"line": nodes[5], "score": 0.4},
            {"line": nodes[80], "score": 0.3},
            {"line": deep, "score": 0.3},
        ],
    }
    expl_path = tmp_path / "expl.json"
    expl_path.write_text(json.dumps(explanation), encoding="utf-8")
    models = tmp_path / "models"
    save_ensemble([LookupLineClassifier(non_benign=frozenset({pdg.line_text[deep]})) for _ in range(3)], models)

    runner = CliRunner()
    args = [
        "assess", "--source", str(source_path),
        "--explanation", str(expl_path), "--models", str(models),
        "--threshold", "0.5",
    ]
    times = []
    for _ in range(10):
        t0 = time.perf_counter()
        result = runner.invoke(main, args)
        times.append(time.perf_counter() - t0)
        assert result.exit_code in (0, 10), result.stderr
    mean = sum(times) / len(times)
    ok = mean <= 1.5
    check("criterion 8: assess latency on a 150-line function", ok, f"mean {mean * 1000:.0f} ms")


def test_criterion_9_determinism(tmp_path):
    """Same seeds, same bytes: dataset, every model file, assessment record."""
    records = [worker_record(f"w{i}", "pure", 0.9) for i in range(3)] + [
        negative_record("neg_a", ["x = seed;", "y = x + 1;", "out = n + x;", "return out;"]),
        negative_record("neg_b", ["p = 1;", "q = p * 3;", "return q;"]),
        negative_record("neg_c", ["total = a + b;", "total = total - c;", "return total;"]),
    ]
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(records, corpus)
    source = tmp_path / "judged.c"
    source.write_text(worker_source("judged"), encoding="utf-8")
    expl_path = tmp_path / "expl.json"
    expl_path.write_text(
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

    runner = CliRunner()
    artifacts = []
    for run in ("one", "two"):
        base = tmp_path / run
        base.mkdir()
        dataset = base / "dataset.jsonl"
        models = base / "models"
        out = base / "assessment.json"
        r1 = runner.invoke(main, ["ingest", "--corpus", str(corpus), "--out", str(dataset), "--seed", "3"])
        assert r1.exit_code == 0, r1.stderr
        r2 = runner.invoke(main, ["train", "--dataset", str(dataset), "--out", str(models), "--seed", "3"])
        assert r2.exit_code == 0, r2.stderr
        r3 = runner.invoke(
            main,
            ["assess", "--source", str(source), "--explanation", str(expl_path),
             "--models", str(models), "--threshold", "0.6", "--no-normalize", "--out", str(out)],
        )
        assert r3.exit_code == 10, r3.stderr
        artifacts.append(
            (
                dataset.read_bytes(),
                {p.name: p.read_bytes() for p in sorted(models.iterdir())},
                out.read_bytes(),
            )
        )
    ok = artifacts[0] == artifacts[1]
    check("criterion 9: seeded runs are byte-identical", ok, "dataset, models, assessment")
