"""Line dataset assembly: positives, sampled negatives, near-duplicate filter."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import oracle_bleu, oracle_candidate_negatives
from synth import commented_record, diff_record, negative_record, worker_record
from trustvet.corpus import CorpusRecord
from trustvet.errors import DiffMismatchError, SchemaError, UndefinedInputError, UnsupportedConstructError
from trustvet.frontend import lexer, pdg_from_source
from trustvet.frontend.lexer import is_substantive_line, normalize_line, tokenize_line
from trustvet.lineassess.dataset import (
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


def make_sample(raw_text: str, label: LineLabel, origin: Origin) -> LineSample | None:
    """Normalize and wrap a raw line; None when nothing is left."""
    text = normalize_line(raw_text)
    return LineSample(text=text, label=label, origin=origin) if text else None


def negatives_pool():
    return [
        negative_record("neg_a", ["p = 1;", "q = p + 2;", "r = q * 3;"]),
        negative_record("neg_b", ["i = 0;", "j = i - 4;", "k = j / 5;"]),
        negative_record("neg_c", ["s = t;", "u = s % 2;", "w = u | 8;"]),
    ]


class TestPositives:
    def test_explicit_lines(self):
        record = worker_record("w", "pure", 0.9)
        samples = vulnerable_samples(record)
        assert [s.origin.line for s in samples] == [6, 7]
        assert all(s.label is LineLabel.VULNERABLE for s in samples)

    def test_lines_recovered_from_diff(self):
        samples = vulnerable_samples(diff_record())
        assert [s.origin.line for s in samples] == [4]
        assert samples[0].text == "y = copy ( x , n ) ;"

    def test_listed_lines_win_over_the_diff(self):
        """Ingest reads a record's vulnerable lines by evaluation's rule."""
        record = dataclasses.replace(diff_record(), vul_lines=(3,))
        samples = vulnerable_samples(record)
        assert [s.origin.line for s in samples] == [3]
        assert samples[0].text == "x = n ;"

    @pytest.mark.parametrize("vul_lines", [(), (3, 4, 5, 7)])
    def test_a_block_comment_spanning_lines_yields_no_positive(self, vul_lines):
        """Its body and its closing line carry no code, from the diff or listed."""
        record = dataclasses.replace(commented_record(), vul_lines=vul_lines)
        assert [(s.origin.line, s.text) for s in vulnerable_samples(record)] == [(7, "free ( buf ) ;")]

    def test_out_of_range_line_rejected(self):
        record = worker_record("w", "pure", 0.9)
        bad = CorpusRecord(
            function_id=record.function_id,
            source=record.source,
            label=record.label,
            diff=None,
            vul_lines=(999,),
            explanation=None,
            confidence=None,
            graph=None,
        )
        with pytest.raises(DiffMismatchError):
            vulnerable_samples(bad)

    @pytest.mark.parametrize("bad", [0, 99])
    def test_line_outside_the_source_named(self, bad):
        """Line 0 is no line of the source either; it is refused, not read
        as the last line."""
        record = dataclasses.replace(worker_record("w", "pure", 0.9), vul_lines=(bad, 6))
        with pytest.raises(DiffMismatchError, match=f"record w: vulnerable line {bad} is outside the source"):
            vulnerable_samples(record)

    def test_record_without_ground_truth_rejected(self):
        record = worker_record("w", "pure", 0.9)
        bare = CorpusRecord(
            function_id=record.function_id,
            source=record.source,
            label=record.label,
            diff=None,
            vul_lines=(),
            explanation=None,
            confidence=None,
            graph=None,
        )
        with pytest.raises(DiffMismatchError):
            vulnerable_samples(bare)


class TestNegativeSampling:
    def test_deterministic_for_a_seed(self):
        pool = negatives_pool()
        one = sample_candidate_negatives(pool, 4, seed=3)
        two = sample_candidate_negatives(pool, 4, seed=3)
        assert [s.text for s in one] == [s.text for s in two]

    def test_different_seeds_differ(self):
        pool = negatives_pool()
        one = sample_candidate_negatives(pool, 6, seed=1)
        two = sample_candidate_negatives(pool, 6, seed=2)
        assert [s.text for s in one] != [s.text for s in two]

    def test_oversampling_returns_the_whole_pool(self):
        """Asking for more lines than the pool holds samples all of it: the
        same lines, in the same order, as asking for exactly the pool."""
        pool = negatives_pool()
        lines = {
            (record.function_id, lineno)
            for record in pool
            for lineno, raw in enumerate(record.source.splitlines(), start=1)
            if is_substantive_line(raw)
        }
        picked = sample_candidate_negatives(pool, 500, seed=0)
        assert {(s.origin.function_id, s.origin.line) for s in picked} == lines
        assert len(picked) == len(lines)
        assert sample_candidate_negatives(pool, 500, seed=0) == picked
        assert sample_candidate_negatives(pool, len(lines), seed=0) == picked
        corpus = [worker_record("w", "pure", 0.9)] + pool
        _, counts = build_line_dataset(corpus, seed=0, neg_ratio=100)
        assert counts["candidate_negatives"] == len(lines)
        # a ratio whose product with the positive count overflows to inf
        _, counts = build_line_dataset(corpus, seed=0, neg_ratio=1e308)
        assert counts["vulnerable"] > 1
        assert counts["candidate_negatives"] == len(lines)

    def test_a_block_comment_spanning_lines_yields_no_negative(self):
        clean = dataclasses.replace(commented_record(), label="non-vulnerable", diff=None)
        picked = sample_candidate_negatives([clean], 10, 0)
        assert sorted((s.origin.line, s.text) for s in picked) == [
            (1, "void f ( char * buf )"), (6, "free ( buf ) ;"), (7, "free ( buf ) ;")
        ]


# clean-function lines: code, and lines that carry none (blank, comments,
# delimiters, an unterminated comment or literal around them)
POOL_LINES = st.lists(
    st.sampled_from(
        ("x = 1;", "return y;", "if (a) {", "}", "{", "", "   ", "// note", "/* c */", "/* open",
         "*/", "( ) ;", '"s"', "'", "@", "\u00a0", "\tq++;", "a; // tail", "/* c */ b;",
         "x\u00a0= 1;", "y = 2;\u3000", 's = "\u00a0";', "z = 3; // \u2028")
    ),
    max_size=8,
)


class TestNegativeSampleOracle:
    """The sample picks the lines, in the order, and with the texts that a
    pool built by tokenizing every clean line gives: the pool's lines and
    their order are the same, so random.sample picks alike."""

    @settings(max_examples=200, deadline=None)
    @given(bodies=st.lists(POOL_LINES, max_size=4), n=st.integers(0, 40), seed=st.integers(0, 3))
    @example(bodies=[["// note", "x = 1;", "}", "/* c */", "return y;"]], n=1, seed=0)
    @example(bodies=[["x = 1;", "/* open", "return y;", "\u00a0", "*/ q = 2;", "y = 2;"]], n=40, seed=0)
    def test_sample_matches_the_tokenized_pool(self, bodies, n, seed):
        records = [negative_record(f"neg_{i}", body) for i, body in enumerate(bodies)]
        records.insert(len(records) // 2, worker_record("w", "pure", 0.9))
        got = sample_candidate_negatives(records, n, seed)
        assert [(s.origin.function_id, s.origin.line, s.text) for s in got] == oracle_candidate_negatives(
            records, n, seed
        )
        assert all(s.label is LineLabel.NON_VULNERABLE for s in got)


class TestInputsThatCannotRun:
    """Numbers the CLI refuses through RunConfig are refused from Python too."""

    @pytest.mark.parametrize("neg_ratio", [-1, float("nan"), float("inf")])
    def test_neg_ratio(self, neg_ratio):
        corpus = [worker_record("w", "pure", 0.9)] + negatives_pool()
        with pytest.raises(UndefinedInputError, match="neg_ratio"):
            build_line_dataset(corpus, seed=0, neg_ratio=neg_ratio)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_bleu_threshold(self, threshold):
        corpus = [worker_record("w", "pure", 0.9)] + negatives_pool()
        with pytest.raises(UndefinedInputError, match="bleu_threshold"):
            build_line_dataset(corpus, seed=0, bleu_threshold=threshold)

    @pytest.mark.parametrize("n", [-2, 2.5, True])
    def test_sample_size(self, n):
        with pytest.raises(UndefinedInputError):
            sample_candidate_negatives(negatives_pool(), n, 0)


class TestLineBreaks:
    def test_form_feed_line_does_not_shift_later_lines(self):
        """Only "\n" ends a line, for positives and for the negative pool."""
        source = "int f(int a)\n{\n  a = a + 1;\n\f\n  strcpy(d, s);\n  return a;\n}\n"
        record = dataclasses.replace(worker_record("w", "pure", 0.9), source=source, vul_lines=(5,))
        assert [(s.origin.line, s.text) for s in vulnerable_samples(record)] == [(5, "strcpy ( d , s ) ;")]
        clean = dataclasses.replace(negative_record("c", []), source=source)
        picked = sample_candidate_negatives([clean], 10, 0)
        assert sorted(s.origin.line for s in picked) == [1, 3, 5, 6]


class TestForeignWhiteSpace:
    """A line that the parser and the graph import refuse, for white space
    that C does not have, yields no sample, as a non-substantive line does.
    The same white space in a literal or comment is accepted."""

    @staticmethod
    def source(space):
        return (
            f"int f(int a)\n{{\n    a{space}= a + 1;\n    s = \"{space}\";\n"
            f"    t = 2; // {space}\n    return a;\n}}\n"
        )

    @pytest.mark.parametrize("space", ["\u00a0", "\u3000", "\x1c"], ids=ascii)
    def test_refused_lines_yield_no_sample(self, space):
        source = self.source(space)
        with pytest.raises(UnsupportedConstructError, match=r"line 3: white space U\+"):
            pdg_from_source(source)
        vulnerable = dataclasses.replace(worker_record("w", "pure", 0.9), source=source, vul_lines=(3, 6))
        clean = dataclasses.replace(negative_record("c", []), source=source)
        samples, counts = build_line_dataset([vulnerable, clean], seed=0, neg_ratio=5)
        assert [(s.origin.line, s.text) for s in samples if s.label is LineLabel.VULNERABLE] == [
            (6, "return a ;")
        ]
        assert counts["candidate_negatives"] == 4
        picked = sample_candidate_negatives([clean], 10, 0)
        assert sorted(s.origin.line for s in picked) == [1, 4, 5, 6]


class TestNearDuplicateFilter:
    def test_identical_candidate_removed(self):
        origin = Origin("x", 1)
        positive = make_sample("y = copy(x, n);", LineLabel.VULNERABLE, origin)
        clone = make_sample("y = copy(x, n);", LineLabel.NON_VULNERABLE, origin)
        distinct = make_sample("total = total + 1;", LineLabel.NON_VULNERABLE, origin)
        kept = filter_negatives([clone, distinct], [positive])
        assert kept == [distinct]

    def test_threshold_is_strict(self):
        origin = Origin("x", 1)
        positive = make_sample("a b c d", LineLabel.VULNERABLE, origin)
        # similarity 0.5 exactly; keep requires being strictly below 0.5
        half = make_sample("a b x d", LineLabel.NON_VULNERABLE, origin)
        assert filter_negatives([half], [positive], threshold=0.5, max_order=2) == []
        kept = filter_negatives([half], [positive], threshold=0.5001, max_order=2)
        assert kept == [half]

    def test_idempotent(self):
        origin = Origin("x", 1)
        positives = [make_sample("y = copy(x, n);", LineLabel.VULNERABLE, origin)]
        candidates = [
            make_sample(text, LineLabel.NON_VULNERABLE, origin)
            for text in ("y = copy(x, n);", "i = i + 1;", "flush(out);")
        ]
        once = filter_negatives(candidates, positives)
        twice = filter_negatives(once, positives)
        assert once == twice


class TestFilterAgainstOracle:
    """The screen keeps exactly what a filter on the independent BLEU keeps,
    on corpora where many candidates are edits of a vulnerable line."""

    WORDS = ["x", "y", "n", "buf", "len", "=", "+", "(", ")", "[", "]", ";", "copy", "0", "1"]

    def oracle_filter(self, candidates, vulnerable, threshold, max_order):
        references = [[t.text for t in tokenize_line(v.text)] for v in vulnerable]
        return [
            c
            for c in candidates
            if oracle_bleu([t.text for t in tokenize_line(c.text)], references, max_order) < threshold
        ]

    def near_copy(self, rng, tokens):
        edited = list(tokens)
        for _ in range(rng.randint(0, 3)):
            at = rng.randrange(len(edited))
            roll = rng.random()
            if roll < 0.4:
                edited[at] = rng.choice(self.WORDS)
            elif roll < 0.7 and len(edited) > 1:
                del edited[at]
            else:
                edited.insert(at, rng.choice(self.WORDS))
        return edited

    def test_random_corpora(self):
        rng = random.Random(4242)
        origin = Origin("f", 1)
        for _ in range(25):
            lines = [
                [rng.choice(self.WORDS) for _ in range(rng.randint(2, 10))]
                for _ in range(rng.randint(1, 12))
            ]
            vulnerable = [make_sample(" ".join(t), LineLabel.VULNERABLE, origin) for t in lines]
            candidates = []
            for _ in range(40):
                tokens = self.near_copy(rng, rng.choice(lines))
                if rng.random() < 0.3:
                    tokens = [rng.choice(self.WORDS) for _ in range(rng.randint(1, 10))]
                candidates.append(make_sample(" ".join(tokens), LineLabel.NON_VULNERABLE, origin))
            max_order = rng.randint(1, 4)
            # thresholds that some candidate scores exactly, to test the strict cut
            references = [[t.text for t in tokenize_line(v.text)] for v in vulnerable]
            hit = oracle_bleu(
                [t.text for t in tokenize_line(rng.choice(candidates).text)], references, max_order
            )
            for threshold in (0.3, 0.5, 0.7, hit):
                got = filter_negatives(candidates, vulnerable, threshold, max_order)
                assert got == self.oracle_filter(candidates, vulnerable, threshold, max_order)


    def test_tokens_that_str_split_cuts_at(self):
        """U+00A0, \\x1c and U+3000 are one-character tokens but white space
        to str.split; the screen must count them as the oracle does."""
        origin = Origin("f", 1)
        vulnerable = [
            make_sample(raw, LineLabel.VULNERABLE, origin)
            for raw in ("x\u3000y;", "buf\x1c[n] = 0;", "len\u00a0= 1;")
        ]
        candidates = [
            make_sample(raw, LineLabel.NON_VULNERABLE, origin)
            for raw in ("x y;", "x\u3000y;", "buf[n] = 0;", "len = 1;", "\u3000\x1c\u00a0")
        ]
        for max_order in (1, 2, 3, 4):
            for threshold in (0.3, 0.5, 0.7):
                got = filter_negatives(candidates, vulnerable, threshold, max_order)
                assert got == self.oracle_filter(candidates, vulnerable, threshold, max_order)


class TestBuildAndPersist:
    def corpus(self):
        positives = [worker_record(f"w{i}", "pure", 0.9) for i in range(3)]
        return positives + negatives_pool()

    def test_counts_are_consistent(self):
        samples, counts = build_line_dataset(self.corpus(), seed=5)
        assert counts["negatives"] + counts["bleu_filtered"] == counts["candidate_negatives"]
        assert counts["vulnerable"] == 6
        labeled = [s.label for s in samples]
        assert labeled.count(LineLabel.VULNERABLE) == counts["vulnerable"]
        assert labeled.count(LineLabel.NON_VULNERABLE) == counts["negatives"]

    def test_seed_changes_sample(self):
        one, _ = build_line_dataset(self.corpus(), seed=5)
        two, _ = build_line_dataset(self.corpus(), seed=6)
        assert one != two

    def test_the_clean_pool_is_scanned_once(self, monkeypatch):
        """The lines of a clean function are screened without tokenizing
        them; each candidate picked from them and each substantive listed
        line of a vulnerable one is tokenized once, for its text, and the
        BLEU screen reads those texts without tokenizing them again."""
        calls = []
        scan = lexer.scan_line

        def counting(raw):
            calls.append(raw)
            return scan(raw)

        monkeypatch.setattr(lexer, "scan_line", counting)
        corpus = self.corpus()
        _, counts = build_line_dataset(corpus, seed=5)
        listed = sum(len(r.vul_lines) for r in corpus if r.vul_lines)
        assert len(calls) == listed + counts["candidate_negatives"]

    def test_round_trip(self, tmp_path):
        samples, _ = build_line_dataset(self.corpus(), seed=5)
        path = tmp_path / "lines.jsonl"
        save_line_dataset(samples, path)
        assert load_line_dataset(path) == samples

    def test_saved_bytes_are_deterministic(self, tmp_path):
        samples, _ = build_line_dataset(self.corpus(), seed=5)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_line_dataset(samples, a)
        save_line_dataset(samples, b)
        assert a.read_bytes() == b.read_bytes()

    HEADER = '{"kind": "line-dataset", "schema_version": "1.0.0"}'
    SAMPLE = '{"function_id": "f", "label": "vulnerable", "line": 3, "text": "x = 1 ;"}'

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "lines.jsonl"
        path.write_text(f"{self.HEADER}\n\n{self.SAMPLE}\n  \n")
        assert load_line_dataset(path) == [
            LineSample("x = 1 ;", LineLabel.VULNERABLE, Origin("f", 3))
        ]

    @pytest.mark.parametrize(
        "header,sample,where,message",
        [
            ('{"kind": "corpus", "schema_version": "1.0.0"}', SAMPLE, "", "not a line dataset"),
            (HEADER, SAMPLE.replace('"x = 1 ;"', '""'), ":2", "empty line sample"),
        ],
        ids=["another-kind", "empty-text"],
    )
    def test_malformed_files_rejected(self, tmp_path, header, sample, where, message):
        path = tmp_path / "lines.jsonl"
        path.write_text(f"{header}\n{sample}\n")
        with pytest.raises(SchemaError) as err:
            load_line_dataset(path)
        assert str(err.value) == f"{path}{where}: {message}"
