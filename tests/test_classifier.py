"""Per-view linear classifiers, the lookup stand-in, and the adapter bridge."""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import oracle_design_matrix, oracle_extract_features, oracle_score
from trustvet.errors import AdapterError, DegenerateTrainingError, SchemaError, UndefinedInputError
from trustvet.frontend.lexer import normalize_line, tokenize_line
from trustvet.lineassess.classifier import (
    ADAPTER_ENV_VAR,
    AdapterLineClassifier,
    LinearLineClassifier,
    LookupLineClassifier,
    ScreenText,
    TrainConfig,
    _design_matrix,
    load_model,
    save_model,
    train_classifier,
)
from trustvet.lineassess.dataset import LineLabel, LineSample, Origin
from trustvet.lineassess.features import ALL_VIEWS, FeatureView, extract_features

RISKY = [
    "buf = fopen(path, mode);",
    "n = fread(buf, size, count, fp);",
    "strcpy(dst, src);",
    "memcpy(out, in, len);",
    "p = malloc(len);",
    "q = realloc(p, len * 2);",
]
PLAIN = [
    "total = total + 1;",
    "i = i + step;",
    "flag = a && b;",
    "result = x * y;",
    "index = base - offset;",
    "ratio = num / den;",
]


def samples():
    out = []
    for j in range(6):
        for i, text in enumerate(RISKY):
            out.append(
                LineSample(
                    text=text.replace(";", f" + {j};") if j else text,
                    label=LineLabel.VULNERABLE,
                    origin=Origin(f"r{j}", i + 1),
                )
            )
        for i, text in enumerate(PLAIN):
            out.append(
                LineSample(
                    text=text.replace(";", f" + {j};") if j else text,
                    label=LineLabel.NON_VULNERABLE,
                    origin=Origin(f"p{j}", i + 1),
                )
            )
    return out


# pieces of C-like lines, most of them out of normal form: comments, literals,
# identifiers spelled like the literal placeholders, and odd whitespace
PIECES = (
    "x", "buf", "STR", "CHR", "if", "return", "fopen", "(", ")", ";", "=", "+", "->",
    "0x1f", "2.5e3", '"a  b"', "'c'", "'\\n'", "/* c */", "/* open", "// tail", " ", "  ", "\t",
)
line_texts = st.one_of(st.text(max_size=40), st.lists(st.sampled_from(PIECES), max_size=14).map("".join))


class TestFeatureOracle:
    """Each view gives the earlier extractor's items, in the same order: a
    linear score sums them in dict order."""

    @pytest.mark.parametrize("view", ALL_VIEWS)
    @settings(max_examples=300, deadline=None)
    @given(text=line_texts)
    @example(text="aaaaaaaa")  # every char gram counted more than once
    @example(text="x = x = x = x ;")  # repeated tokens, kinds and bigrams
    def test_views_match_the_earlier_extractors(self, view, text):
        want = list(oracle_extract_features(view, text).items())
        assert list(extract_features(view, text).items()) == want
        assert list(extract_features(view, text, tokenize_line(text)).items()) == want

    @pytest.mark.parametrize("view", ALL_VIEWS)
    @settings(max_examples=300, deadline=None)
    @given(text=line_texts)
    def test_a_shared_text_extracts_from_its_normal_form(self, view, text):
        normalized = normalize_line(text)
        shared = ScreenText(text)
        assert shared == text
        if not normalized:
            with pytest.raises(UndefinedInputError, match="comment-only"):
                shared.features(view)
            return
        want = list(oracle_extract_features(view, normalized).items())
        assert list(shared.features(view).items()) == want

    def test_a_text_in_normal_form_is_held_once(self):
        """No equal copy of the text and no reference to itself, which only
        the cyclic collector would free, among what a ScreenText keeps."""
        text = ScreenText("x = foo ( y ) ;")
        assert text.normalized() == text
        assert text.features(FeatureView.CHAR_NGRAM)
        assert text not in vars(text).values()
        spaced = ScreenText("x=foo(y);")
        assert spaced.normalized() == "x = foo ( y ) ;"
        assert spaced.normalized() in vars(spaced).values()


class TestDesignMatrixOracle:
    """Training's one pass over the rows gives the vocabulary, in the same
    order, and the matrix, cell for cell, that the two-pass build gave."""

    def assert_matches(self, view, texts):
        vocabulary, X = _design_matrix([ScreenText(text) for text in texts], view)
        want_vocabulary, want_X = oracle_design_matrix(texts, view)
        assert list(vocabulary.items()) == list(want_vocabulary.items())
        assert X.dtype == want_X.dtype and np.array_equal(X, want_X)

    @pytest.mark.parametrize("view", ALL_VIEWS)
    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(line_texts.filter(normalize_line), max_size=12))
    @example(texts=["y = x ;", "b = a ;", "y = x ;"])  # names met out of sorted order
    def test_matrix_matches_the_two_pass_build(self, view, texts):
        self.assert_matches(view, texts)

    @pytest.mark.parametrize("view", ALL_VIEWS)
    def test_training_samples(self, view):
        self.assert_matches(view, [s.text for s in samples()])


class TestTraining:
    @pytest.mark.parametrize("view", ALL_VIEWS)
    def test_separates_obvious_populations(self, view):
        clf = train_classifier(samples(), view)
        assert all(clf.classify(s.text)[0] == (s.label is LineLabel.NON_VULNERABLE) for s in samples())

    def test_deterministic_for_a_seed(self):
        a = train_classifier(samples(), FeatureView.TOKEN_NGRAM, TrainConfig(seed=3))
        b = train_classifier(samples(), FeatureView.TOKEN_NGRAM, TrainConfig(seed=3))
        assert a.weights == b.weights and a.bias == b.bias

    def test_saved_bytes_deterministic(self, tmp_path):
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        save_model(train_classifier(samples(), FeatureView.CHAR_NGRAM, TrainConfig(seed=3)), one)
        save_model(train_classifier(samples(), FeatureView.CHAR_NGRAM, TrainConfig(seed=3)), two)
        assert one.read_bytes() == two.read_bytes()

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, 2.0])
    def test_vote_threshold_outside_the_unit_interval_rejected(self, threshold):
        """Every score lies in (0, 1), so such a model votes alike on every
        line; the bounds 0 and 1 are accepted."""
        assert [TrainConfig(threshold=bound).threshold for bound in (0, 1)] == [0, 1]
        with pytest.raises(UndefinedInputError, match="threshold"):
            TrainConfig(threshold=threshold)

    def test_single_class_rejected(self):
        only_benign = [s for s in samples() if s.label is LineLabel.NON_VULNERABLE]
        with pytest.raises(DegenerateTrainingError):
            train_classifier(only_benign, FeatureView.TOKEN_NGRAM)

    def test_heldout_accuracy_recorded(self):
        clf = train_classifier(samples(), FeatureView.TOKEN_NGRAM)
        assert clf.heldout_accuracy is not None
        assert 0.0 <= clf.heldout_accuracy <= 1.0

    def test_learns_the_features_the_screen_scores(self):
        # texts out of normal form: "x=1;" is scored as "x = 1 ;", so a char
        # gram like "3:x=1" or the raw text's length is never seen by a screen
        raw = [
            LineSample(s.text.replace(" ", "") + " // note", s.label, s.origin)
            for s in samples()
        ]
        assert all(normalize_line(s.text) != s.text for s in raw)
        for view in ALL_VIEWS:
            screened = set()
            for s in raw:
                screened.update(ScreenText(s.text).features(view))
            clf = train_classifier(raw, view, TrainConfig(seed=3))
            assert set(clf.vocabulary) <= screened, view

    def test_votes_follow_scores(self):
        clf = train_classifier(samples(), FeatureView.TOKEN_NGRAM)
        vote, score = clf.classify("y = fopen(path, m);")
        assert vote == (1 if score >= clf.threshold else 0)
        assert vote == 0  # fopen lines look vulnerable
        vote_plain, _ = clf.classify("total = total + 9;")
        assert vote_plain == 1


@pytest.fixture(scope="module")
def view_models(tmp_path_factory):
    """Each view's trained model, and the same model read back from its file."""
    models = {}
    for view in ALL_VIEWS:
        clf = train_classifier(samples(), view, TrainConfig(seed=5))
        path = tmp_path_factory.mktemp("models") / f"{view.value}.json"
        save_model(clf, path)
        models[view] = (clf, load_model(path))
    return models


class TestScoreOracle:
    """A score is the bias plus each known feature's weight times its value,
    added in item order: the same float, bit for bit, as oracle_score."""

    def assert_scores_match(self, clf, text):
        if not normalize_line(text):
            with pytest.raises(UndefinedInputError):
                clf.score(text)
        else:
            assert clf.score(text) == oracle_score(clf, text)

    @pytest.mark.parametrize("view", ALL_VIEWS)
    @settings(max_examples=200, deadline=None)
    @given(text=line_texts)
    @example(text="buf = fopen(path, mode) + fopen(path, mode);")
    @example(text="total = total + total + 1;")
    def test_scores_match_the_oracle(self, view_models, view, text):
        for clf in view_models[view]:
            self.assert_scores_match(clf, text)

    @pytest.mark.parametrize("view", ALL_VIEWS)
    def test_training_texts_score_as_the_oracle_does(self, view_models, view):
        for clf in view_models[view]:
            for sample in samples():
                self.assert_scores_match(clf, sample.text)


class TestLinearScoring:
    def test_score_overflow_safe(self):
        clf = LinearLineClassifier(
            view=FeatureView.TOKEN_NGRAM,
            vocabulary={"1:x": 0},
            weights=[5000.0],
            bias=0.0,
        )
        vote, score = clf.classify("x")
        assert vote == 1 and score == pytest.approx(1.0)
        clf_neg = LinearLineClassifier(
            view=FeatureView.TOKEN_NGRAM,
            vocabulary={"1:x": 0},
            weights=[-5000.0],
            bias=0.0,
        )
        vote, score = clf_neg.classify("x")
        assert vote == 0 and score == pytest.approx(0.0)

    def test_empty_line_rejected(self):
        clf = LookupLineClassifier(non_benign=frozenset())
        with pytest.raises(UndefinedInputError):
            clf.classify("   // just a comment")


class TestVoteThreshold:
    """Built in Python, each kind of classifier holds a vote threshold to the
    rule TrainConfig and load_model share: every score lies in [0, 1], so
    outside it a classifier would vote alike on every line."""

    def build(self, kind, threshold, data_dir):
        if kind == "linear":
            return LinearLineClassifier(
                view=FeatureView.TOKEN_NGRAM, vocabulary={"1:x": 0}, weights=[0.5], bias=0.0,
                threshold=threshold,
            )
        if kind == "lookup":
            return LookupLineClassifier(non_benign=frozenset({"x = 1 ;"}), threshold=threshold)
        stub = (sys.executable, str(data_dir / "adapter_stub.py"))
        return AdapterLineClassifier(stub, threshold=threshold)  # its child starts on first use

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, 2.0, math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["linear", "lookup", "adapter"])
    def test_threshold_outside_the_unit_interval_rejected(self, data_dir, kind, threshold):
        with pytest.raises(UndefinedInputError, match="threshold"):
            self.build(kind, threshold, data_dir)

    @pytest.mark.parametrize("kind", ["linear", "lookup", "adapter"])
    def test_a_classifier_that_is_built_saves_a_file_that_loads(self, tmp_path, monkeypatch, data_dir, kind):
        monkeypatch.delenv(ADAPTER_ENV_VAR, raising=False)
        path = tmp_path / "m.json"
        for threshold in (0, 0.25, 1):
            save_model(self.build(kind, threshold, data_dir), path)
            assert load_model(path).threshold == threshold


class TestPersistence:
    def test_linear_round_trip(self, tmp_path):
        clf = train_classifier(samples(), FeatureView.SYNTAX_SHAPE, TrainConfig(seed=9))
        path = tmp_path / "m.json"
        save_model(clf, path)
        again = load_model(path)
        assert isinstance(again, LinearLineClassifier)
        assert again.weights == clf.weights
        assert again.classify("strcpy(a, b);") == clf.classify("strcpy(a, b);")

    def test_lookup_round_trip(self, tmp_path):
        clf = LookupLineClassifier(non_benign=frozenset({"x = fopen ( p ) ;"}), threshold=0.4)
        path = tmp_path / "m.json"
        save_model(clf, path)
        again = load_model(path)
        assert isinstance(again, LookupLineClassifier)
        assert again.non_benign == clf.non_benign
        assert again.threshold == 0.4

    def test_adapter_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ADAPTER_ENV_VAR, raising=False)
        clf = AdapterLineClassifier(command=("scorer", "--fast"), threshold=0.7, timeout=2.0)
        path = tmp_path / "m.json"
        save_model(clf, path)
        again = load_model(path)
        assert isinstance(again, AdapterLineClassifier)
        assert again.command == ("scorer", "--fast")
        assert again.threshold == 0.7

    def test_env_var_overrides_adapter_command(self, tmp_path, monkeypatch):
        clf = AdapterLineClassifier(command=("scorer",))
        path = tmp_path / "m.json"
        save_model(clf, path)
        monkeypatch.setenv(ADAPTER_ENV_VAR, "alt-scorer --flag value")
        again = load_model(path)
        assert again.command == ("alt-scorer", "--flag", "value")

    def test_argument_overrides_adapter_command(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ADAPTER_ENV_VAR, raising=False)
        clf = AdapterLineClassifier(command=("scorer",))
        path = tmp_path / "m.json"
        save_model(clf, path)
        again = load_model(path, adapter_command="other-scorer --slow")
        assert again.command == ("other-scorer", "--slow")

    def test_env_var_beats_argument(self, tmp_path, monkeypatch):
        clf = AdapterLineClassifier(command=("scorer",))
        path = tmp_path / "m.json"
        save_model(clf, path)
        monkeypatch.setenv(ADAPTER_ENV_VAR, "env-scorer")
        again = load_model(path, adapter_command="arg-scorer")
        assert again.command == ("env-scorer",)

    def test_missing_file_rejected(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(SchemaError) as err:
            load_model(path)
        assert str(err.value) == f"model file not found: {path}"

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"kind": "alien"}')
        with pytest.raises(SchemaError):
            load_model(path)

    LINEAR = {"schema_version": "1.0.0", "view": "token_ngram", "vocabulary": {"x": 0},
              "weights": [0.5], "bias": 0.0, "threshold": 0.5, "seed": 1, "heldout_accuracy": 0.9}
    ADAPTER = {"schema_version": "1.0.0", "view": "adapter", "command": ["scorer"],
               "threshold": 0.5, "timeout": 5.0}

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["threshold", "bias", "weights", "heldout_accuracy", "timeout"])
    def test_non_finite_numbers_rejected(self, tmp_path, monkeypatch, field, number):
        """Python's json reads NaN and Infinity; a model file may not hold them."""
        monkeypatch.delenv(ADAPTER_ENV_VAR, raising=False)
        model = self.ADAPTER if field == "timeout" else self.LINEAR
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model))
        load_model(path)  # the unbroken document loads
        value = [float(number)] if field == "weights" else float(number)
        path.write_text(json.dumps({**model, field: value}))
        with pytest.raises(SchemaError, match=field):
            load_model(path)

    LOOKUP = {"schema_version": "1.0.0", "view": "lookup", "non_benign": ["if ( x )"], "threshold": 0.5}

    @pytest.mark.parametrize(
        "lines",
        ["if ( x )", [1, True], {"if ( x )": 1}],
        ids=["string", "non-strings", "object"],
    )
    def test_lookup_lines_must_be_a_list_of_strings(self, tmp_path, lines):
        """frozenset() takes any iterable: a string would load as its
        characters, a list as its hashable items, an object as its keys."""
        path = tmp_path / "m.json"
        path.write_text(json.dumps(self.LOOKUP))
        assert load_model(path).non_benign == {"if ( x )"}  # the unbroken document loads
        path.write_text(json.dumps({**self.LOOKUP, "non_benign": lines}))
        with pytest.raises(SchemaError, match="non_benign"):
            load_model(path)

    @pytest.mark.parametrize("timeout", [0, 0.0, -1.0])
    def test_timeout_not_positive_rejected(self, tmp_path, monkeypatch, timeout):
        """Every request would time out at once."""
        monkeypatch.delenv(ADAPTER_ENV_VAR, raising=False)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**self.ADAPTER, "timeout": timeout}))
        with pytest.raises(SchemaError, match="timeout must be positive") as caught:
            load_model(path)
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, 2.0])
    def test_threshold_outside_the_unit_interval_rejected(self, tmp_path, threshold):
        """Every score lies in (0, 1), so such a model votes alike on every
        line; the bounds 0 and 1 load."""
        path = tmp_path / "m.json"
        for bound in (0, 1):
            path.write_text(json.dumps({**self.LINEAR, "threshold": bound}))
            assert load_model(path).threshold == bound
        path.write_text(json.dumps({**self.LINEAR, "threshold": threshold}))
        with pytest.raises(SchemaError, match="threshold") as caught:
            load_model(path)
        assert str(path) in str(caught.value)

    def test_timeout_beyond_the_platform_limit_rejected(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ADAPTER_ENV_VAR, raising=False)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**self.ADAPTER, "timeout": 1e300}))
        with pytest.raises(SchemaError, match="timeout"):
            load_model(path)


class TestAdapterBridge:
    def stub(self, data_dir):
        return (sys.executable, str(data_dir / "adapter_stub.py"))

    def test_scores_from_child_process(self, data_dir):
        clf = AdapterLineClassifier(command=self.stub(data_dir), timeout=10.0)
        try:
            vote, score = clf.classify("buf = fopen(path, m);")
            assert (vote, score) == (0, 0.1)
            vote, score = clf.classify("i = i + 1;")
            assert (vote, score) == (1, 0.9)
        finally:
            clf.close()

    def test_recovers_after_a_late_answer(self, data_dir):
        late = (sys.executable, str(data_dir / "adapter_late_stub.py"))
        clf = AdapterLineClassifier(command=late, timeout=1.0)
        try:
            with pytest.raises(AdapterError):
                clf.classify("x = 1;")
            # the stale answer to the first request is skipped, not an error
            assert clf.classify("buf = fopen(path, m);") == (0, 0.1)
            assert clf.classify("i = i + 1;") == (1, 0.9)
        finally:
            clf.close()

    def test_close_releases_the_pipes(self, data_dir):
        clf = AdapterLineClassifier(command=self.stub(data_dir), timeout=10.0)
        assert clf.classify("i = i + 1;") == (1, 0.9)
        proc = clf._proc
        clf.close()
        assert proc.stdin.closed
        deadline = time.monotonic() + 10.0
        while not proc.stdout.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert proc.stdout.closed  # by the pump thread, at end of file
        clf.close()  # a second close is harmless

    @pytest.mark.parametrize("answers", [1, 2])
    def test_recovers_from_a_child_that_exits(self, data_dir, answers):
        """The stub exits after each `answers` answers; every call after
        that starts a new child, and none reads the old one's end of stream."""
        clf = AdapterLineClassifier(command=(*self.stub(data_dir), str(answers)), timeout=10.0)
        children = set()
        try:
            for call in range(1, 7):
                text, want = ("buf = fopen(path, m);", (0, 0.1)) if call % 2 else ("i = i + 1;", (1, 0.9))
                assert clf.classify(text) == want, call
                children.add(clf._proc.pid)
                if call % answers == 0:
                    assert clf._proc.wait(timeout=10.0) == 0  # it has gone before the next call
        finally:
            clf.close()
        assert len(children) == 6 // answers

    def test_recovers_from_a_killed_child(self, data_dir):
        clf = AdapterLineClassifier(command=self.stub(data_dir), timeout=10.0)
        try:
            assert clf.classify("i = i + 1;") == (1, 0.9)
            dead = clf._proc
            dead.kill()
            dead.wait(timeout=10.0)
            assert clf.classify("buf = fopen(path, m);") == (0, 0.1)
            assert clf._proc is not dead and dead.stdin.closed
            assert clf.classify("i = i + 1;") == (1, 0.9)
        finally:
            clf.close()

    def test_a_child_whose_output_ended_is_replaced(self, tmp_path):
        """A child that closes its output after one answer but lives on is
        stopped, and the request it left unanswered goes to a new child at
        once, rather than after the timeout."""
        mute = tmp_path / "mute.py"
        mute.write_text(
            "import json, os, sys, time\n"
            "request = json.loads(sys.stdin.readline())\n"
            "sys.stdout.write(json.dumps({'id': request['id'], 'score': 0.9}) + '\\n')\n"
            "sys.stdout.flush()\n"
            "os.close(sys.stdout.fileno())\n"
            "time.sleep(60)\n"
        )
        clf = AdapterLineClassifier(command=(sys.executable, str(mute)), timeout=10.0)
        children = []
        try:
            start = time.monotonic()
            for _ in range(4):
                assert clf.classify("x = 1;") == (1, 0.9)
                children.append(clf._proc)
            assert time.monotonic() - start < clf.timeout
            assert len({child.pid for child in children}) == 4  # one answer each
            assert all(child.poll() is not None for child in children[:-1])
        finally:
            clf.close()

    @pytest.mark.parametrize("answers", [1, 2])
    def test_no_request_is_lost_to_a_child_that_exits(self, data_dir, answers):
        """Back-to-back calls to a stub that exits after each `answers`
        answers: a request written to a child that is exiting goes to a new
        child, so every call is answered."""
        clf = AdapterLineClassifier(command=(*self.stub(data_dir), str(answers)), timeout=10.0)
        try:
            for call in range(10):
                text, want = ("buf = fopen(path, m);", (0, 0.1)) if call % 2 else ("i = i + 1;", (1, 0.9))
                assert clf.classify(text) == want, call
        finally:
            clf.close()

    def test_a_child_that_never_answers_is_asked_once_more(self, tmp_path):
        """A request whose child ends without answering is sent to one new
        child; when that one ends too, the call fails rather than starting
        child after child."""
        started = tmp_path / "started"
        quitter = tmp_path / "quitter.py"
        quitter.write_text(
            "import sys\n"
            f"with open({str(started)!r}, 'a') as log:\n"
            "    log.write('child\\n')\n"
            "sys.stdin.readline()\n"
        )
        clf = AdapterLineClassifier(command=(sys.executable, str(quitter)), timeout=10.0)
        try:
            for call in (1, 2):
                with pytest.raises(AdapterError, match="closed its output stream"):
                    clf.classify("x = 1;")
                assert started.read_text().count("child") == 2 * call
        finally:
            clf.close()

    @pytest.mark.parametrize("timeout", [0, -1.0, math.nan, math.inf, 1e300])
    def test_unusable_timeout_rejected(self, data_dir, timeout):
        """Built in Python, an adapter keeps the rule load_model holds a
        model file to: at 0 or below every request would time out at once,
        and beyond threading.TIMEOUT_MAX the wait would overflow."""
        with pytest.raises(UndefinedInputError, match="timeout"):
            AdapterLineClassifier(self.stub(data_dir), timeout=timeout)

    def test_missing_command_fails_loudly(self):
        clf = AdapterLineClassifier(command=("definitely-not-a-binary-7f3a",))
        with pytest.raises(AdapterError):
            clf.classify("x = 1;")

    def test_wrong_id_rejected(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import json, sys\n"
            "for raw in sys.stdin:\n"
            "    json.loads(raw)\n"
            "    sys.stdout.write(json.dumps({'id': 999, 'score': 0.5}) + '\\n')\n"
            "    sys.stdout.flush()\n"
        )
        clf = AdapterLineClassifier(command=(sys.executable, str(bad)), timeout=10.0)
        try:
            with pytest.raises(AdapterError):
                clf.classify("x = 1;")
        finally:
            clf.close()

    def test_non_json_answer_rejected(self, tmp_path):
        bad = tmp_path / "noise.py"
        bad.write_text(
            "import sys\n"
            "for raw in sys.stdin:\n"
            "    sys.stdout.write('not json\\n')\n"
            "    sys.stdout.flush()\n"
        )
        clf = AdapterLineClassifier(command=(sys.executable, str(bad)), timeout=10.0)
        try:
            with pytest.raises(AdapterError):
                clf.classify("x = 1;")
        finally:
            clf.close()

    def test_silent_child_times_out(self, tmp_path):
        slow = tmp_path / "slow.py"
        slow.write_text("import time\ntime.sleep(30)\n")
        clf = AdapterLineClassifier(command=(sys.executable, str(slow)), timeout=0.5)
        try:
            with pytest.raises(AdapterError):
                clf.classify("x = 1;")
        finally:
            clf.close()

    @pytest.mark.parametrize("reply", ["bool-id", "string-score", "bool-score"])
    def test_loosely_typed_answer_rejected(self, data_dir, reply):
        # true == 1 and float("0.7") == 0.7, so a loose reading would accept these
        loose = (sys.executable, str(data_dir / "adapter_loose_stub.py"), reply)
        clf = AdapterLineClassifier(command=loose, timeout=10.0)
        try:
            with pytest.raises(AdapterError, match="not {id, score}") as err:
                clf.classify("x = 1;")
            assert err.value.raw is not None
        finally:
            clf.close()

    def test_out_of_range_score_rejected(self, tmp_path):
        bad = tmp_path / "big.py"
        bad.write_text(
            "import json, sys\n"
            "for raw in sys.stdin:\n"
            "    req = json.loads(raw)\n"
            "    sys.stdout.write(json.dumps({'id': req['id'], 'score': 7.0}) + '\\n')\n"
            "    sys.stdout.flush()\n"
        )
        clf = AdapterLineClassifier(command=(sys.executable, str(bad)), timeout=10.0)
        try:
            with pytest.raises(AdapterError):
                clf.classify("x = 1;")
        finally:
            clf.close()
