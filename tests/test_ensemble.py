"""Majority voting and the per-line benign verdict map."""

from __future__ import annotations

import itertools
import random
import sys
from collections import Counter
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import lookup_ensemble, planted_corpus, worker_record
from trustvet.assess import assess_prediction
from trustvet.config import RunConfig
from trustvet.corpus import VULNERABLE, CorpusRecord
from trustvet.errors import ClassificationError, TrustvetError, UndefinedInputError
from trustvet.evaluate import report_to_dict, run_evaluation
from trustvet.frontend import import_raw_graph, pdg_from_source
from trustvet.frontend import lexer
from trustvet.frontend.lexer import normalize_line
from trustvet.lineassess import classifier, features
from trustvet.lineassess.classifier import (
    AdapterLineClassifier,
    LinearLineClassifier,
    LookupLineClassifier,
)
from trustvet.lineassess.ensemble import benign_candidates, ensemble_vote
from trustvet.lineassess.features import ALL_VIEWS, FeatureView, extract_features
from trustvet.pdg import Explanation


class TestVote:
    def test_every_vector_up_to_five_voters(self):
        for size in range(1, 6):
            for votes in itertools.product((0, 1), repeat=size):
                want = 1 if sum(votes) / size >= 0.5 else 0
                assert ensemble_vote(votes) == want, votes

    def test_exact_tie_is_benign(self):
        assert ensemble_vote([1, 0]) == 1

    def test_empty_rejected(self):
        with pytest.raises(UndefinedInputError):
            ensemble_vote([])

    def test_non_binary_rejected(self):
        with pytest.raises(UndefinedInputError):
            ensemble_vote([1, 2])


class FailingClassifier:
    def classify(self, text):
        raise UndefinedInputError("refused")


class TestBenignCandidates:
    def test_votes_recorded_per_line(self, vrrp_fixture, vrrp_explanation, vrrp_ensemble):
        verdicts = benign_candidates(vrrp_ensemble, vrrp_explanation, vrrp_fixture.line_text)
        assert set(verdicts) == {1, 3, 4, 5, 7, 8, 9}  # line 2 is not resident
        assert not verdicts[7].is_benign_candidate
        assert verdicts[7].votes == (0, 0, 0)
        assert verdicts[1].is_benign_candidate

    def test_split_ensemble_majority(self, vrrp_fixture, vrrp_explanation):
        flagged = frozenset({vrrp_fixture.line_text[7]})
        mixed = [
            LookupLineClassifier(non_benign=flagged),
            LookupLineClassifier(non_benign=frozenset()),
            LookupLineClassifier(non_benign=frozenset()),
        ]
        verdicts = benign_candidates(mixed, vrrp_explanation, vrrp_fixture.line_text)
        assert verdicts[7].votes == (0, 1, 1)
        assert verdicts[7].is_benign_candidate  # 2 of 3 say benign

    def test_empty_ensemble_rejected(self, vrrp_explanation, vrrp_fixture):
        with pytest.raises(UndefinedInputError):
            benign_candidates([], vrrp_explanation, vrrp_fixture.line_text)

    def test_classifier_failure_names_the_line(self, vrrp_explanation, vrrp_fixture):
        with pytest.raises(ClassificationError) as err:
            benign_candidates([FailingClassifier()], vrrp_explanation, vrrp_fixture.line_text)
        assert err.value.line in vrrp_fixture.nodes


# --- the screen memo -------------------------------------------------------------


class PassThrough:
    """Hides a member's type, so an ensemble of these screens without a memo."""

    def __init__(self, member):
        self.member = member

    def classify(self, text):
        return self.member.classify(text)


def mixed_ensemble() -> list:
    """Two lookups and one linear member; none accepts a comment-only line."""
    linear = LinearLineClassifier(
        view=FeatureView.TOKEN_NGRAM,
        vocabulary={"1:fopen": 0, "1:n": 1, "1:x": 2},
        weights=[-3.0, -1.0, 0.5],
        bias=0.4,
    )
    fopen = frozenset({normalize_line("buf = fopen(path, m);")})
    ret = frozenset({normalize_line("return out;")})
    return [LookupLineClassifier(non_benign=fopen), linear, LookupLineClassifier(non_benign=ret)]


CODES = (
    "x = 1;",
    "y = x + 1;",
    "buf = fopen(path, m);",
    "n = fread(buf, y);",
    "out = n + x;",
    "return out;",
)
COMMENT = "/* note */"  # no text once comments are stripped: every member raises


@st.composite
def graph_records(draw, index: int) -> CorpusRecord:
    """One imported-graph record whose line texts come from a small pool."""
    size = draw(st.integers(2, 6))
    codes = [draw(st.sampled_from(CODES * 4 + (COMMENT,))) for _ in range(size)]
    lines = st.integers(1, size)
    edges = draw(st.lists(st.tuples(lines, lines, st.sampled_from(("CDG", "x", "n", "buf"))), max_size=8))
    explained = draw(st.lists(st.integers(1, size + 1), min_size=1, max_size=size + 1, unique=True))
    scores = st.floats(0.05, 1.0)
    graph = {
        "function": f"g{index}",
        "nodes": [{"id": line, "line": line, "code": code} for line, code in enumerate(codes, 1)],
        "edges": [
            {"src": src, "dst": dst, "kind": "CDG"} if label == "CDG"
            else {"src": src, "dst": dst, "kind": "DDG", "variable": label}
            for src, dst, label in edges
        ],
    }
    return CorpusRecord(
        function_id=f"g{index}",
        source="\n".join(codes),
        label=VULNERABLE,
        vul_lines=tuple(draw(st.lists(lines, min_size=1, max_size=3, unique=True))),
        explanation=tuple((line, draw(scores)) for line in explained),
        confidence=draw(st.floats(0.0, 1.0)),
        graph=graph,
    )


@st.composite
def corpora(draw) -> list[CorpusRecord]:
    return [draw(graph_records(i)) for i in range(draw(st.integers(1, 10)))]


def screen_outcome(ensemble, record: CorpusRecord, memo=None):
    """The verdicts, or the type, line and message of the screening error."""
    pdg = import_raw_graph(record.graph).to_pdg()
    try:
        return benign_candidates(ensemble, record.to_explanation(), pdg.line_text, memo)
    except ClassificationError as exc:
        return type(exc), exc.line, str(exc)


class TestScreenMemoOracle:
    """A memoized screen gives exactly what asking every member does."""

    @settings(max_examples=80, deadline=None)
    @given(
        corpus=corpora(),
        trust=st.sampled_from((None, 0.25)),
        conf=st.sampled_from((None, 0.5)),
        workers=st.sampled_from((1, 2)),
    )
    def test_memo_matches_the_uncached_path(self, corpus, trust, conf, workers):
        ensemble = mixed_ensemble()
        reference = [PassThrough(member) for member in ensemble]
        memo: dict = {}
        for record in corpus:
            assert screen_outcome(ensemble, record, memo) == screen_outcome(reference, record)

        config = RunConfig(trust_threshold=trust, conf_threshold=conf, workers=workers)
        memoized = run_evaluation(corpus, ensemble, config, taus=(0.3, 0.6))
        uncached = run_evaluation(corpus, reference, config, taus=(0.3, 0.6))
        assert [r.skipped for r in memoized.results] == [r.skipped for r in uncached.results]
        assert report_to_dict(memoized) == report_to_dict(uncached)

    def test_error_names_the_first_failing_line_after_a_cached_one(self):
        # line 3 repeats line 1's text, which the memo already holds
        codes = ["x = 1;", COMMENT, "x = 1;", COMMENT]
        graph = {
            "function": "f",
            "nodes": [{"id": i, "line": i, "code": c} for i, c in enumerate(codes, 1)],
            "edges": [],
        }
        record = CorpusRecord(
            function_id="f", source="\n".join(codes), vul_lines=(1,),
            explanation=((3, 0.5), (1, 0.4), (4, 0.3), (2, 0.2)), confidence=0.5, graph=graph,
        )
        memo: dict = {}
        outcome = screen_outcome(mixed_ensemble(), record, memo)
        assert outcome[:2] == (ClassificationError, 4)
        assert outcome == screen_outcome([PassThrough(m) for m in mixed_ensemble()], record)
        assert list(memo) == ["x = 1 ;"]  # the failing text is not stored


@dataclass
class CountingLookup(LookupLineClassifier):
    """A lookup member that counts the texts it is asked about."""

    calls: Counter = field(default_factory=Counter)

    def classify(self, text):
        self.calls[text] += 1
        return super().classify(text)


class TestScreenMemoScope:
    def corpus(self) -> list[CorpusRecord]:
        records, _ = planted_corpus()
        return records + [worker_record(f"extra_{i}", "blur", 0.5) for i in range(5)]

    def screened_texts(self, records) -> Counter:
        """How often each text is screened when every line is asked about."""
        texts: Counter = Counter()
        for record in records:
            pdg = pdg_from_source(record.source, function_id=record.function_id)
            texts.update(pdg.line_text[line] for line, _ in record.explanation if line in pdg.nodes)
        return texts

    def test_each_distinct_text_is_asked_once_per_run(self):
        records = self.corpus()
        members = [CountingLookup(non_benign=m.non_benign) for m in lookup_ensemble()]
        texts = self.screened_texts(records)
        assert max(texts.values()) > 1  # the corpus repeats its lines
        config = RunConfig(trust_threshold=0.25, conf_threshold=0.5, workers=1)
        for runs in (1, 2):
            run_evaluation(records, members, config)
            for member in members:
                assert member.calls == Counter({text: runs for text in texts})

    def test_threads_sharing_the_memo_agree_with_one_thread(self):
        # a memo miss is check-then-act: two threads may both screen a text,
        # but each stores the same verdict, so no report can change
        records = [worker_record(f"w{i}", kind, 0.5) for i in range(20) for kind in ("blur", "mixed", "hollow")]
        config = RunConfig(trust_threshold=0.25, conf_threshold=0.5, workers=1)
        serial = report_to_dict(run_evaluation(records, lookup_ensemble(), config))
        members = [CountingLookup(non_benign=m.non_benign) for m in lookup_ensemble()]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_evaluation(records, members, RunConfig(trust_threshold=0.25, conf_threshold=0.5, workers=8))
        finally:
            sys.setswitchinterval(interval)
        assert report_to_dict(threaded) == serial
        assert set(members[0].calls) == set(self.screened_texts(records))
        assert max(members[0].calls.values()) <= 8

    def test_nothing_survives_an_assessment(self, vrrp_fixture, vrrp_explanation):
        members = [CountingLookup(non_benign=frozenset()) for _ in range(3)]
        for runs in (1, 2):
            assess_prediction(vrrp_explanation, vrrp_fixture, members, threshold=0.5)
            assert set(members[0].calls.values()) == {runs}

    def test_consecutive_runs_with_different_ensembles_do_not_leak(self):
        records = self.corpus()
        config = RunConfig(trust_threshold=0.25, conf_threshold=0.5, workers=1)
        planted = lookup_ensemble()
        nothing = [LookupLineClassifier(non_benign=frozenset()) for _ in range(3)]
        first = report_to_dict(run_evaluation(records, planted, config))
        second = report_to_dict(run_evaluation(records, nothing, config))
        assert first != second
        for ensemble, report in ((planted, first), (nothing, second)):
            reference = [PassThrough(member) for member in ensemble]
            assert report == report_to_dict(run_evaluation(records, reference, config))

    def test_an_adapter_member_turns_the_memo_off(self, data_dir):
        records = self.corpus()
        stub = (sys.executable, str(data_dir / "adapter_stub.py"))
        adapter = AdapterLineClassifier(command=stub, timeout=10.0)
        requests = Counter()
        classify = adapter.classify

        def counted(text):
            requests[text] += 1
            return classify(text)

        adapter.classify = counted
        try:
            config = RunConfig(trust_threshold=0.25, conf_threshold=0.5, workers=1)
            report = run_evaluation(records, [adapter, *lookup_ensemble(2)], config)
        finally:
            adapter.close()
        assert not report.skipped
        assert requests == self.screened_texts(records)


# --- one shared text per screen ---------------------------------------------------


class Recording:
    """Hands the screen's text on to its member unchanged and keeps each answer."""

    def __init__(self, member):
        self.member = member
        self.answers = []

    def classify(self, text):
        answer = self.member.classify(text)
        self.answers.append(answer)
        return answer


# pieces of raw lines: comments, string and char literals, identifiers spelled
# like the literal placeholders, odd whitespace; a draw may hold no code at all
RAW_PIECES = (
    "x", "n", "buf", "path", "STR", "CHR", "fopen", "return", "if", "(", ")", ",", ";", "=",
    "+", "1", '"a  b"', '"%d"', "'c'", "'\\0'", "/* c */", "/*", "*/", "// tail", " ", "   ", "\t",
)
raw_texts = st.lists(st.sampled_from(RAW_PIECES), max_size=12).map("".join)
VOCABULARY_LINES = ("buf = fopen(path, x);", "n = x + 1;", 'return STR(n, "a");', "if (x) return CHR;")


def linear_member(view: FeatureView, seed: int) -> LinearLineClassifier:
    names = sorted({name for line in VOCABULARY_LINES for name in extract_features(view, normalize_line(line))})
    rng = random.Random(seed)
    return LinearLineClassifier(
        view=view,
        vocabulary={name: idx for idx, name in enumerate(names)},
        weights=[rng.uniform(-2.0, 2.0) for _ in names],
        bias=rng.uniform(-0.5, 0.5),
    )


def shared_ensemble() -> list:
    """Every view, two members of one view, and two lookups."""
    linear = [linear_member(view, seed) for seed, view in enumerate(ALL_VIEWS)]
    flagged = frozenset(normalize_line(line) for line in VOCABULARY_LINES[::2])
    return [
        *linear,
        linear_member(FeatureView.TOKEN_NGRAM, 7),
        LookupLineClassifier(non_benign=flagged),
        LookupLineClassifier(non_benign=frozenset({"x", "n = x + 1 ;"})),
    ]


def per_member_outcome(members, line, text):
    """Each member's own classify on the plain text, or the screen's error."""
    try:
        return [member.classify(text) for member in members]
    except TrustvetError as exc:
        error = ClassificationError(line, str(exc))
        return type(error), error.line, str(error)


class TestSharedScreen:
    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(raw_texts, min_size=1, max_size=6))
    def test_votes_and_scores_match_each_members_own_classify(self, texts):
        members = shared_ensemble()
        line_text = dict(enumerate(texts, 1))
        expl = Explanation("f", 0.5, tuple((line, 1.0 / line) for line in line_text))
        want, error = [], None
        for line, text in line_text.items():
            outcome = per_member_outcome(members, line, text)
            if isinstance(outcome, tuple):
                error = outcome
                break
            want.append(outcome)
        recorders = [Recording(member) for member in members]
        try:
            verdicts = benign_candidates(recorders, expl, line_text)
        except ClassificationError as exc:
            assert (type(exc), exc.line, str(exc)) == error
            reference = [PassThrough(member) for member in members]
            with pytest.raises(ClassificationError) as passed:
                benign_candidates(reference, expl, line_text)
            assert (type(passed.value), passed.value.line, str(passed.value)) == error
        else:
            assert error is None
            assert [verdicts[line].votes for line in line_text] == [
                tuple(vote for vote, _ in answers) for answers in want
            ]
        # every line screened before any failure, answer for answer
        assert [list(answers) for answers in zip(*(r.answers for r in recorders))] == want

    def count_tokenizations(self, monkeypatch) -> Counter:
        """Count scan_line calls, normalize_line's included."""
        calls: Counter = Counter()
        tokenize = lexer.scan_line

        def counted(text):
            calls[text] += 1
            return tokenize(text)

        # in each module that holds the name, wherever ScreenText lives
        for module in (lexer, classifier, features):
            if hasattr(module, "scan_line"):
                monkeypatch.setattr(module, "scan_line", counted)
        return calls

    def test_a_text_in_normal_form_is_tokenized_once(self, monkeypatch):
        ensemble = shared_ensemble()
        text = normalize_line('buf = fopen(path, "r");')
        calls = self.count_tokenizations(monkeypatch)
        verdicts = benign_candidates(ensemble, Explanation("f", 0.5, ((1, 1.0),)), {1: text})
        assert len(verdicts[1].votes) == 6
        assert calls == Counter({text: 1})

    def test_a_raw_text_is_tokenized_raw_and_normalized(self, monkeypatch):
        ensemble = shared_ensemble()
        raw = 'buf  =  fopen(path, "r"); // open'
        normalized = normalize_line(raw)
        calls = self.count_tokenizations(monkeypatch)
        benign_candidates(ensemble, Explanation("f", 0.5, ((1, 1.0),)), {1: raw})
        assert calls == Counter({raw: 1, normalized: 1})

    def test_a_plain_text_is_tokenized_once_per_call(self, monkeypatch):
        members = shared_ensemble()
        text = normalize_line('buf = fopen(path, "r");')
        calls = self.count_tokenizations(monkeypatch)
        for member in members:
            member.classify(text)
        assert calls == Counter({text: len(members)})

    def test_nothing_survives_the_screen(self, monkeypatch, vrrp_fixture, vrrp_explanation):
        ensemble = shared_ensemble()
        calls = self.count_tokenizations(monkeypatch)
        resident = {vrrp_fixture.line_text[line] for line, _ in vrrp_explanation.entries if line in vrrp_fixture.nodes}
        for runs in (1, 2):
            assess_prediction(vrrp_explanation, vrrp_fixture, ensemble, threshold=0.5)
            assert calls == Counter({text: runs for text in resident})

    def test_each_linear_member_is_asked_once_per_distinct_text(self):
        """An all-linear ensemble calls each member's own classify once for
        each distinct resident text of one assessment, however often the
        text repeats: the bench counts these calls (ensemble.classify_calls)
        by wrapping classify on each member, as this test does."""
        codes = ["x = 1;", "n = x + 1;", "x = 1;", "x=1;", "n = x + 1;", "return CHR;", "x = 1;"]
        graph = {
            "function": "f",
            "nodes": [{"id": i, "line": i, "code": c} for i, c in enumerate(codes, 1)],
            "edges": [{"src": 1, "dst": 2, "kind": "DDG", "variable": "x"}],
        }
        pdg = import_raw_graph(graph).to_pdg()
        expl = Explanation("f", 0.5, tuple((line, 1.0 / line) for line in range(1, len(codes) + 2)))
        resident = {pdg.line_text[line] for line, _ in expl.entries if line in pdg.nodes}
        assert len(resident) < len(codes)  # texts repeat, and line 8 is not resident
        ensemble = [linear_member(view, seed) for seed, view in enumerate(ALL_VIEWS)]
        calls: Counter = Counter()
        for index, member in enumerate(ensemble):
            def counted(text, index=index, classify=member.classify):
                calls[index, str(text)] += 1
                return classify(text)

            member.classify = counted
        for runs in (1, 2):
            assess_prediction(expl, pdg, ensemble, threshold=0.5)
            assert calls == Counter({(index, text): runs for index in range(3) for text in resident})
