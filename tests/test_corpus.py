"""Corpus records: validation of the JSON form and the JSONL round trip."""

from __future__ import annotations

import dataclasses
import json

import pytest

from synth import diff_record, worker_record
from trustvet.corpus import load_corpus, record_from_dict, record_to_dict, save_corpus
from trustvet.errors import SchemaError


def good_doc() -> dict:
    return record_to_dict(worker_record("w", "focus", 0.8))


class TestRecordFromDict:
    def test_round_trip(self):
        record = worker_record("w", "focus", 0.8)
        assert record_from_dict(record_to_dict(record), "test") == record

    def test_round_trip_with_diff_and_graph(self):
        graph = {"function": "diffed", "nodes": [{"id": 1, "line": 4, "code": "y = copy(x, n);"}], "edges": []}
        record = dataclasses.replace(diff_record(), graph=graph)
        doc = record_to_dict(record)
        assert doc["diff"] == record.diff and doc["graph"] == record.graph
        assert record_from_dict(doc, "test") == record

    def test_no_explanation_to_read(self):
        with pytest.raises(SchemaError, match="record diffed: no explanation/confidence"):
            diff_record().to_explanation()

    def test_integer_confidence_becomes_float(self):
        record = record_from_dict({**good_doc(), "confidence": 1}, "test")
        assert record.confidence == 1.0 and isinstance(record.confidence, float)

    @pytest.mark.parametrize(
        "change",
        [
            {"function_id": ""},
            {"source": 3},
            {"label": "maybe"},
            {"vul_lines": [True]},
            {"vul_lines": [0]},
            {"vul_lines": [1.0]},
            {"vul_lines": 6},
            {"explanation": [{"line": 6}]},
            {"explanation": [[6, 0.5]]},
            {"confidence": True},
            {"confidence": "0.8"},
            {"graph": []},
            {"diff": 1},
        ],
    )
    def test_rejects(self, change):
        with pytest.raises(SchemaError):
            record_from_dict({**good_doc(), **change}, "test")

    def test_rejects_non_object(self):
        with pytest.raises(SchemaError):
            record_from_dict([good_doc()], "test")


class TestCorpusFile:
    def test_save_then_load(self, tmp_path):
        records = [worker_record(f"w{i}", "pure", 0.7) for i in range(3)]
        path = tmp_path / "corpus.jsonl"
        save_corpus(records, path)
        assert load_corpus(path) == records

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n" + json.dumps(good_doc()) + "\n\n", encoding="utf-8")
        assert [r.function_id for r in load_corpus(path)] == ["w"]

    def test_duplicate_function_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text((json.dumps(good_doc()) + "\n") * 2, encoding="utf-8")
        with pytest.raises(SchemaError, match="duplicate"):
            load_corpus(path)

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(good_doc()) + "\n{oops\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=":2:"):
            load_corpus(path)
