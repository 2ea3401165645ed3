"""Dependency assessment: the vulnerable-dependency rule, distances, trust."""

from __future__ import annotations

import math
import random

import pytest
from oracles import oracle_distances, oracle_nearest, oracle_vulnerable_edges
from synth import random_pdg

from trustvet.assess import (
    ReachRecord,
    _Relation,
    _score_with_records,
    assess_prediction,
    assessment_to_dict,
    is_vulnerable_dependency,
    nearest_non_benign,
    reachability_distance,
    render_assessment,
    trust_score,
    vulnerable_edges,
)
from trustvet.errors import ContractError, PipelineError, UnknownEdgeError
from trustvet.frontend import import_raw_graph
from trustvet.frontend.lexer import normalize_line
from trustvet.lineassess.classifier import LookupLineClassifier
from trustvet.pdg import DepKind, Explanation, Pdg, PdgEdge, build_weighted_pdg

BENIGN_SIX = frozenset({1, 3, 4, 5, 8, 9})


@pytest.fixture()
def weighted(vrrp_fixture, vrrp_explanation):
    return build_weighted_pdg(vrrp_fixture, vrrp_explanation, normalize=False)


@pytest.fixture()
def benign():
    return BENIGN_SIX


class TestVulnerableDependencyRule:
    def test_every_edge_of_the_worked_example(self, weighted, benign):
        want = {
            (1, 3): True,   # data reaches the flagged fopen and 'data' occurs there
            (3, 4): False,  # the log call leads nowhere suspicious
            (3, 5): False,
            (3, 7): True,   # control straight into the flagged line
            (7, 8): False,  # everything below line 7 was voted benign
            (8, 9): False,
        }
        got = {
            (e.src, e.dst): is_vulnerable_dependency(e, weighted, benign)
            for e in weighted.pdg.edges
        }
        assert got == want

    def test_vulnerable_edge_listing(self, weighted, benign):
        got = {(e.src, e.dst) for e in vulnerable_edges(weighted, benign)}
        assert got == {(1, 3), (3, 7)}

    def test_foreign_edge_rejected(self, weighted, benign):
        foreign = PdgEdge(1, 9, DepKind.CONTROL)
        with pytest.raises(UnknownEdgeError):
            is_vulnerable_dependency(foreign, weighted, benign)

    def test_unknown_mode_rejected(self, weighted, benign):
        with pytest.raises(ContractError):
            vulnerable_edges(weighted, benign, mode="telepathic")

    def test_data_rule_needs_variable_at_a_suspect(self):
        # v flows A -> B, the only suspect C mentions w, not v
        pdg = Pdg.build(
            "f",
            [1, 2, 3],
            [PdgEdge(1, 2, DepKind.DATA, "v"), PdgEdge(2, 3, DepKind.DATA, "w")],
            line_vars={1: {"v"}, 2: {"v", "w"}, 3: {"w"}},
        )
        expl = Explanation("f", 0.5, ((1, 0.5), (2, 0.3), (3, 0.2)))
        g = build_weighted_pdg(pdg, expl)
        benign = frozenset({1, 2})
        edge = pdg.edges[0]
        assert not is_vulnerable_dependency(edge, g, benign, mode="direct")
        # ... but the value still flows into the suspect along data edges
        assert is_vulnerable_dependency(edge, g, benign, mode="transitive_flow")

    def test_self_loops_never_count_toward_distance(self):
        pdg = Pdg.build(
            "f",
            [1, 2],
            [PdgEdge(1, 1, DepKind.CONTROL), PdgEdge(1, 2, DepKind.CONTROL)],
            line_vars={1: set(), 2: set()},
        )
        expl = Explanation("f", 0.5, ((1, 0.6), (2, 0.4)))
        g = build_weighted_pdg(pdg, expl)
        benign = frozenset({1})
        assert reachability_distance(1, 2, g, benign) == 1


class TestReachability:
    def test_worked_example_distances(self, weighted, benign):
        assert reachability_distance(3, 7, weighted, benign) == 1
        assert reachability_distance(1, 7, weighted, benign) == 2
        for start in (4, 5, 8, 9):
            assert math.isinf(reachability_distance(start, 7, weighted, benign))

    def test_start_must_be_benign(self, weighted, benign):
        with pytest.raises(ContractError):
            reachability_distance(7, 3, weighted, benign)

    def test_target_must_be_a_node(self, weighted, benign):
        with pytest.raises(ContractError):
            reachability_distance(1, 42, weighted, benign)

    def test_nearest_start_must_be_benign(self, weighted, benign, vrrp_explanation):
        with pytest.raises(ContractError) as err:
            nearest_non_benign(7, vrrp_explanation, weighted, benign)
        assert str(err.value) == "line 7 is not a benign candidate"

    def test_nearest_target_for_each_benign_line(self, weighted, benign, vrrp_explanation):
        for line, distance in ((1, 2), (3, 1)):
            record = nearest_non_benign(line, vrrp_explanation, weighted, benign)
            assert record.target == 7
            assert record.distance == distance
            assert record.target_score == 0.08
        for line in (4, 5, 8, 9):
            record = nearest_non_benign(line, vrrp_explanation, weighted, benign)
            assert math.isinf(record.distance)
            assert record.target is None

    def test_distance_ties_prefer_heavier_then_smaller_target(self):
        pdg = Pdg.build(
            "f",
            [1, 2, 3, 4],
            [
                PdgEdge(1, 2, DepKind.CONTROL),
                PdgEdge(1, 3, DepKind.CONTROL),
                PdgEdge(1, 4, DepKind.CONTROL),
            ],
            line_vars={n: set() for n in (1, 2, 3, 4)},
        )
        benign = frozenset({1})
        heavier = Explanation("f", 0.5, ((1, 0.1), (2, 0.2), (3, 0.7)))
        g = build_weighted_pdg(pdg, heavier)
        assert nearest_non_benign(1, heavier, g, benign).target == 3
        even = Explanation("f", 0.5, ((1, 0.2), (2, 0.4), (3, 0.4)))
        g = build_weighted_pdg(pdg, even)
        assert nearest_non_benign(1, even, g, benign).target == 2

    def test_edge_endpoint_outside_the_graph(self):
        # lines 8 and 9 are only edge endpoints: they are suspects, and a
        # path may pass through them, but they are never targets, not even
        # when explained
        pdg = Pdg.build(
            "f",
            [1, 2, 3],
            [
                PdgEdge(1, 9, DepKind.DATA, "v"),
                PdgEdge(9, 2, DepKind.CONTROL),
                PdgEdge(3, 8, DepKind.CONTROL),
            ],
            line_vars={1: {"v"}, 2: {"v"}, 3: set()},
        )
        expl = Explanation("f", 0.5, ((1, 0.4), (2, 0.3), (3, 0.3), (8, 0.5)))
        g = build_weighted_pdg(pdg, expl)
        benign = frozenset({1, 3})
        assert vulnerable_edges(g, benign) == pdg.edges
        assert reachability_distance(1, 2, g, benign) == 2
        assert nearest_non_benign(1, expl, g, benign).target == 2
        assert math.isinf(nearest_non_benign(3, expl, g, benign).distance)
        assert trust_score(expl, g, benign) == pytest.approx((0.4 + 0.3) / 2, abs=1e-12)
        with pytest.raises(ContractError):
            reachability_distance(3, 8, g, benign)


class TestNearestOracle:
    """nearest_non_benign and the score records against oracle_nearest."""

    @pytest.mark.parametrize("mode", ["direct", "transitive_flow"])
    def test_random_graphs(self, mode):
        rng = random.Random(4127)
        ties = [0, 0]  # targets won on weight, on the smaller line
        for _ in range(300):
            pdg = random_pdg(rng)
            # some explained lines are off the graph; few distinct scores tie weights
            lines = rng.sample(range(1, 20), rng.randint(1, 10))
            entries = tuple((line, rng.choice((0.0, 0.1, 0.2, 0.2))) for line in lines)
            expl = Explanation(pdg.function_id, 0.5, entries)
            g = build_weighted_pdg(pdg, expl, normalize=rng.random() < 0.5)
            members = frozenset(l for l in set(lines) | pdg.nodes if rng.random() < 0.5)
            vulnerable = oracle_vulnerable_edges(pdg, members, mode)
            want = {}
            for line in lines:
                if line in members and line in pdg.nodes:
                    want[line] = oracle_nearest(pdg, vulnerable, g.weights, members, entries, line)
                    got = nearest_non_benign(line, expl, g, members, mode)
                    assert (got.distance, got.target, got.target_score) == want[line]
            score, records, degenerate = _score_with_records(expl, g, members, mode)
            if degenerate:
                continue
            assert {r.line: (r.distance, r.target, r.target_score) for r in records} == want
            assert score == sum(
                (g.weights[line] + w) / d for line, (d, _, w) in want.items() if d < math.inf
            )
            for line, (d, target, w) in want.items():
                if target is None:
                    continue
                tied = [
                    t for t, _ in entries
                    if t != target and t in pdg.nodes and t not in members
                    and oracle_distances(pdg, vulnerable, [line], [t])[(line, t)] == d
                ]
                ties[0] += any(g.weights[t] < w for t in tied)
                ties[1] += any(g.weights[t] == w for t in tied)
        # both tie-breaks decided some targets
        assert min(ties) > 0



def ringed_pdg(rng: random.Random) -> Pdg:
    """Up to about 60 lines: rings (large strongly connected components) and
    loose lines joined by a DAG, with chords, self-loops, and edges to three
    lines that are not nodes."""
    sizes = [rng.randint(2, 12) for _ in range(rng.randint(2, 5))]
    count = sum(sizes) + rng.randint(0, 6)
    ids = rng.sample(range(1, count + 10), count + 3)
    lines, ghosts = ids[:count], ids[count:]
    groups, start = [], 0
    for size in sizes:
        groups.append(lines[start:start + size])
        start += size
    groups += [[line] for line in lines[start:]]
    rng.shuffle(groups)  # the DAG runs from earlier groups to later ones
    edges = set()

    def link(src, dst):
        if rng.random() < 0.4:
            edges.add(PdgEdge(src, dst, DepKind.CONTROL))
        else:
            edges.add(PdgEdge(src, dst, DepKind.DATA, rng.choice("abc")))

    for group in groups:
        if len(group) > 1:
            for src, dst in zip(group, group[1:] + group[:1]):
                link(src, dst)
        for _ in range(rng.randint(0, len(group) // 2)):
            link(rng.choice(group), rng.choice(group))  # chords and self-loops
    for _ in range(rng.randint(len(groups), 3 * len(groups))):
        early, late = sorted(rng.sample(range(len(groups)), 2))
        link(rng.choice(groups[early]), rng.choice(groups[late]))
    for ghost in ghosts:
        if rng.random() < 0.8:
            link(rng.choice(lines), ghost)
            if rng.random() < 0.5:
                link(ghost, rng.choice(lines))
    line_vars = {line: rng.sample("abc", rng.randint(0, 2)) for line in lines}
    return Pdg.build(
        f"ringed_{rng.random():.6f}", lines, sorted(edges, key=lambda e: e.sort_key()),
        {line: f"stmt_{line} ;" for line in lines}, line_vars,
    )


class TestRelateAtScale:
    """The relation on rings joined by a DAG, against the matrix oracles."""

    @pytest.mark.parametrize("mode", ["direct", "transitive_flow"])
    def test_ringed_graphs(self, mode):
        rng = random.Random(9203)
        ties = 0  # lines whose nearest distance is shared by two targets
        for _ in range(60):
            pdg = ringed_pdg(rng)
            everything = sorted({line for e in pdg.edges for line in e[:2]} | pdg.nodes)
            explained = rng.sample(everything, rng.randint(1, len(everything)))
            entries = tuple((line, rng.choice((0.1, 0.2, 0.2, 0.3))) for line in explained)
            expl = Explanation(pdg.function_id, 0.5, entries)
            g = build_weighted_pdg(pdg, expl, normalize=rng.random() < 0.5)
            share = rng.choice((0.3, 0.6, 0.85))
            members = frozenset(line for line in everything if rng.random() < share)
            vulnerable = oracle_vulnerable_edges(pdg, members, mode)
            assert vulnerable_edges(g, members, mode) == vulnerable
            targets = [t for t in explained if t in pdg.nodes and t not in members]
            want = {}
            for line in explained:
                if line in members and line in pdg.nodes:
                    want[line] = oracle_nearest(pdg, vulnerable, g.weights, members, entries, line)
                    got = nearest_non_benign(line, expl, g, members, mode)
                    assert (got.distance, got.target, got.target_score) == want[line]
                    if want[line][1] is not None:
                        hops = oracle_distances(pdg, vulnerable, [line], targets)
                        ties += sum(hops[(line, t)] == want[line][0] for t in targets) > 1
            _, records, degenerate = _score_with_records(expl, g, members, mode)
            if not degenerate:
                assert {r.line: (r.distance, r.target, r.target_score) for r in records} == want
        assert ties > 0


def test_deep_chain_needs_no_recursion():
    # one data variable held along a 20,000-line chain, the target at its end
    n = 20_000
    lines = range(1, n + 1)
    pdg = Pdg.build(
        "chain",
        lines,
        [PdgEdge(line, line + 1, DepKind.DATA, "v") for line in range(1, n)],
        {line: f"v = step_{line} ( v ) ;" for line in lines},
        {line: {"v"} for line in lines},
    )
    expl = Explanation("chain", 0.5, ((1, 0.25), (n, 0.75)))
    flag_end = [LookupLineClassifier(non_benign=frozenset({normalize_line(pdg.line_text[n])}))]
    assessment = assess_prediction(expl, pdg, flag_end, threshold=0.5, normalize_weights=False)
    assert assessment.records == (ReachRecord(line=1, distance=n - 1, target=n, target_score=0.75),)
    assert assessment.trust_score == pytest.approx(1.0 / (n - 1))



def test_deep_chain_of_benign_lines_needs_no_recursion(monkeypatch):
    # every line before the target is benign, so each crossed edge reads the
    # reach labels: their Tarjan pass runs once along all 20,000 lines
    n = 20_000
    lines = range(1, n + 1)
    pdg = Pdg.build(
        "chain",
        lines,
        [PdgEdge(line, line + 1, DepKind.DATA, "v") for line in range(1, n)],
        {line: f"v = step_{line} ( v ) ;" for line in lines},
        {line: {"v"} for line in lines},
    )
    g = build_weighted_pdg(pdg, Explanation("chain", 0.5, ((1, 0.25), (n, 0.75))))
    benign = frozenset(range(1, n))
    builds = count_label_builds(monkeypatch)
    assert reachability_distance(1, n, g, benign) == n - 1
    assert builds == [1]
    assert vulnerable_edges(g, benign) == pdg.edges


def count_label_builds(monkeypatch) -> list[int]:
    """A one-item list that counts the reach-label passes from now on."""
    builds = [0]
    build = _Relation._reach_labels

    def counted(self, *args):
        builds[0] += 1
        return build(self, *args)

    monkeypatch.setattr(_Relation, "_reach_labels", counted)
    return builds


class TestRelateOnDemand:
    """nearest() searches only as far as its lines and reads the reach
    labels only for an edge that the suspect rule cannot settle."""

    def test_benign_target_whose_in_edges_reach_no_suspect(self):
        # reachability_distance accepts a benign target: 1 -> 2 reaches no
        # suspect, 3 -> 4 -> 5 does, through the suspect 5
        pdg = Pdg.build(
            "f",
            [1, 2, 3, 4, 5],
            [
                PdgEdge(1, 2, DepKind.CONTROL),
                PdgEdge(3, 4, DepKind.CONTROL),
                PdgEdge(4, 5, DepKind.CONTROL),
            ],
            line_vars={n: set() for n in (1, 2, 3, 4, 5)},
        )
        g = build_weighted_pdg(pdg, Explanation("f", 0.5, ((1, 0.5), (5, 0.5))))
        benign = frozenset({1, 2, 3, 4})
        vulnerable = oracle_vulnerable_edges(pdg, benign)
        for start, target in ((1, 2), (3, 4), (3, 5)):
            want = oracle_distances(pdg, vulnerable, [start], [target])[(start, target)]
            assert reachability_distance(start, target, g, benign) == want
        assert math.isinf(reachability_distance(1, 2, g, benign))
        assert reachability_distance(3, 4, g, benign) == 1

    def test_a_tie_in_the_last_layer_is_decided_after_the_last_line_is_met(self):
        # 5 is met on layer 2 first through 3, toward the lighter target 7,
        # and later in the same layer through 4, toward the heavier 8
        pdg = Pdg.build(
            "f",
            [1, 3, 4, 5, 7, 8],
            [
                PdgEdge(1, 7, DepKind.CONTROL),
                PdgEdge(3, 7, DepKind.CONTROL),
                PdgEdge(4, 8, DepKind.CONTROL),
                PdgEdge(5, 3, DepKind.CONTROL),
                PdgEdge(5, 4, DepKind.CONTROL),
            ],
            line_vars={n: set() for n in (1, 3, 4, 5, 7, 8)},
        )
        entries = ((7, 0.1), (8, 0.6), (1, 0.1), (5, 0.2))
        expl = Explanation("f", 0.5, entries)
        g = build_weighted_pdg(pdg, expl, normalize=False)
        benign = frozenset({1, 5})
        vulnerable = oracle_vulnerable_edges(pdg, benign)
        _, records, _ = _score_with_records(expl, g, benign, "direct")
        assert records == (
            ReachRecord(line=1, distance=1, target=7, target_score=0.1),
            ReachRecord(line=5, distance=2, target=8, target_score=0.6),
        )
        for record in records:
            want = oracle_nearest(pdg, vulnerable, g.weights, benign, entries, record.line)
            assert (record.distance, record.target, record.target_score) == want

    def test_a_suspect_that_lacks_the_imported_variable(self):
        # the exporter says x flows from line 2 into line 3, but line 3 holds
        # only y, and nothing after it holds x: the edge does not count
        doc = {
            "function": "f",
            "nodes": [
                {"id": 1, "line": 2, "code": "x = read(src);"},
                {"id": 2, "line": 3, "code": "sink(y);"},
                {"id": 3, "line": 4, "code": "z = y;"},
            ],
            "edges": [
                {"src": 1, "dst": 2, "kind": "DDG", "variable": "x"},
                {"src": 2, "dst": 3, "kind": "DDG", "variable": "y"},
            ],
        }
        pdg = import_raw_graph(doc).to_pdg()
        assert "x" not in pdg.line_vars[3]
        expl = Explanation("f", 0.5, ((2, 0.5), (3, 0.3), (4, 0.2)))
        g = build_weighted_pdg(pdg, expl)
        benign = frozenset({2})
        assert vulnerable_edges(g, benign) == oracle_vulnerable_edges(pdg, benign) == (pdg.edges[1],)
        assert math.isinf(nearest_non_benign(2, expl, g, benign).distance)
        # in transitive_flow mode x may flow on into a suspect, so it counts
        assert nearest_non_benign(2, expl, g, benign, "transitive_flow").distance == 1

    def test_reach_labels_are_built_only_when_an_edge_needs_them(self, monkeypatch):
        # 1 -> 2 -> 3 -> 4: data edges into 2 and 3 and a control edge
        # into 4, and every line holds v. Only the edges into benign lines
        # need the labels.
        pdg = Pdg.build(
            "f",
            [1, 2, 3, 4],
            [
                PdgEdge(1, 2, DepKind.DATA, "v"),
                PdgEdge(2, 3, DepKind.DATA, "v"),
                PdgEdge(3, 4, DepKind.CONTROL),
            ],
            line_vars={1: {"v"}, 2: {"v"}, 3: {"v"}, 4: {"v"}},
        )
        expl = Explanation("f", 0.5, ((1, 0.4), (2, 0.3), (4, 0.3)))
        g = build_weighted_pdg(pdg, expl)
        builds = count_label_builds(monkeypatch)
        assert nearest_non_benign(2, expl, g, frozenset({2})).distance == 2
        assert builds == [0]
        assert nearest_non_benign(1, expl, g, frozenset({1, 2, 3})).distance == 3
        assert builds == [1]
        assert reachability_distance(1, 4, g, frozenset({1, 2, 3})) == 3
        assert builds == [2]  # once per relation, and one relation per query

class TestTrustScore:
    def test_worked_example_value(self, weighted, benign, vrrp_explanation):
        got = trust_score(vrrp_explanation, weighted, benign)
        want = (0.13 + 0.08) / 2 + (0.06 + 0.08) / 1
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(0.245, abs=1e-9)

    def test_normalized_variant(self, vrrp_fixture, vrrp_explanation, benign):
        g = build_weighted_pdg(vrrp_fixture, vrrp_explanation, normalize=True)
        got = trust_score(vrrp_explanation, g, benign)
        assert got == pytest.approx(0.245 / 0.95, abs=1e-9)

    def test_all_lines_flagged_degenerates_to_total_weight(self, vrrp_fixture, vrrp_explanation):
        flag_all = [LookupLineClassifier(non_benign=frozenset(vrrp_fixture.line_text.values()))]
        assessment = assess_prediction(
            vrrp_explanation, vrrp_fixture, flag_all, threshold=0.5, normalize_weights=False
        )
        assert assessment.degenerate
        assert assessment.trust_score == pytest.approx(0.95, abs=1e-12)
        assert assessment.verdict == "trustworthy"

    def test_nothing_resident_scores_zero_with_warning(self, vrrp_fixture, vrrp_ensemble):
        ghost = Explanation("vrrp_print_data", 0.5, ((2, 0.5), (6, 0.5)))
        assessment = assess_prediction(ghost, vrrp_fixture, vrrp_ensemble, threshold=0.5)
        assert assessment.trust_score == 0.0
        assert assessment.verdict == "untrustworthy"
        assert any("resident" in w for w in assessment.warnings)


class TestAssessPrediction:
    def test_worked_example_end_to_end(self, vrrp_fixture, vrrp_explanation, vrrp_ensemble):
        assessment = assess_prediction(
            vrrp_explanation,
            vrrp_fixture,
            vrrp_ensemble,
            threshold=0.25,
            normalize_weights=False,
        )
        assert assessment.trust_score == pytest.approx(0.245, abs=1e-9)
        assert assessment.verdict == "untrustworthy"  # 0.245 < 0.25, strictly
        benign_lines = {l for l, v in assessment.benign.items() if v.is_benign_candidate}
        assert benign_lines == BENIGN_SIX

    def test_threshold_is_strict(self, vrrp_fixture, vrrp_explanation, vrrp_ensemble):
        assessment = assess_prediction(
            vrrp_explanation,
            vrrp_fixture,
            vrrp_ensemble,
            threshold=0.245,
            normalize_weights=False,
        )
        assert assessment.verdict == "trustworthy"  # score == threshold passes

    def test_native_parse_agrees_with_curated_fixture(
        self, vrrp_native, vrrp_explanation, vrrp_ensemble
    ):
        # the two extra control edges the full analysis finds lead to lines
        # whose distances stay infinite, so the score is unchanged
        assessment = assess_prediction(
            vrrp_explanation,
            vrrp_native,
            vrrp_ensemble,
            threshold=0.25,
            normalize_weights=False,
        )
        assert assessment.trust_score == pytest.approx(0.245, abs=1e-9)

    def test_identity_mismatch_is_tagged_with_its_stage(self, vrrp_fixture, vrrp_ensemble):
        alien = Explanation("somebody_else", 0.5, ((1, 1.0),))
        with pytest.raises(PipelineError) as err:
            assess_prediction(alien, vrrp_fixture, vrrp_ensemble, threshold=0.5)
        assert err.value.stage == "weighting"

    def test_assessment_carries_its_weighted_graph(
        self, vrrp_fixture, vrrp_explanation, vrrp_ensemble
    ):
        assessment = assess_prediction(
            vrrp_explanation, vrrp_fixture, vrrp_ensemble, threshold=0.25
        )
        assert assessment.graph == build_weighted_pdg(vrrp_fixture, vrrp_explanation)

    def test_dropped_lines_warned(self, vrrp_fixture, vrrp_explanation, vrrp_ensemble):
        assessment = assess_prediction(
            vrrp_explanation, vrrp_fixture, vrrp_ensemble, threshold=0.25
        )
        assert any("2" in w for w in assessment.warnings)


class TestRendering:
    def make_doc(self, vrrp_fixture, vrrp_explanation, vrrp_ensemble):
        assessment = assess_prediction(
            vrrp_explanation,
            vrrp_fixture,
            vrrp_ensemble,
            threshold=0.25,
            normalize_weights=False,
        )
        g = build_weighted_pdg(vrrp_fixture, vrrp_explanation, normalize=False)
        return assessment_to_dict(assessment, g)

    def test_document_shape(self, vrrp_fixture, vrrp_explanation, vrrp_ensemble):
        doc = self.make_doc(vrrp_fixture, vrrp_explanation, vrrp_ensemble)
        assert doc["schema_version"] == "1.0.0"
        assert doc["verdict"] == "untrustworthy"
        assert doc["dropped"] == [2]
        rows = {row["line"]: row for row in doc["lines"]}
        assert rows[3]["distance"] == 1 and rows[3]["target"] == 7
        assert rows[3]["contribution"] == pytest.approx(0.14, abs=1e-12)
        assert rows[1]["contribution"] == pytest.approx(0.105, abs=1e-12)
        for line in (4, 5, 8, 9):
            assert rows[line]["distance"] is None
            assert rows[line]["contribution"] == 0.0
        assert rows[7]["benign"] is False

    def test_rendered_table(self, vrrp_fixture, vrrp_explanation, vrrp_ensemble):
        doc = self.make_doc(vrrp_fixture, vrrp_explanation, vrrp_ensemble)
        text = render_assessment(doc)
        assert "UNTRUSTWORTHY" in text
        assert "0.245000" in text
        assert "fopen" in text
