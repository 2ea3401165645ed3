"""Run-configuration loading, saving, and precedence."""

from __future__ import annotations

import configparser
import os
from pathlib import Path

import pytest

from trustvet import RunConfig, SchemaError, config_from_file, config_to_file, merge_config


class TestDefaults:
    def test_known_defaults(self):
        config = RunConfig()
        assert config.iou_threshold == 0.5
        assert config.trust_threshold is None
        assert config.conf_threshold is None
        assert config.top_k == 10
        assert config.normalize_weights is True
        assert config.bleu_threshold == 0.5
        assert config.bleu_order == 4
        assert config.data_rule_mode == "direct"
        assert config.seed == 0
        assert config.neg_ratio == 1.0
        assert config.workers is None
        assert config.calibration_fraction == 0.2
        assert config.adapter_endpoint is None

    def test_frozen(self):
        with pytest.raises(Exception):
            RunConfig().seed = 3  # type: ignore[misc]

    def test_resolved_workers_explicit(self):
        assert RunConfig(workers=3).resolved_workers() == 3

    def test_resolved_workers_falls_back_to_cpu_count(self):
        resolved = RunConfig(workers=None).resolved_workers()
        assert resolved == (os.cpu_count() or 1)
        assert resolved >= 1


class TestFileRoundTrip:
    def test_defaults_round_trip(self, tmp_path):
        path = tmp_path / "run.ini"
        config_to_file(RunConfig(), path)
        assert config_from_file(path) == RunConfig()

    def test_every_field_round_trips(self, tmp_path):
        config = RunConfig(
            iou_threshold=0.3,
            trust_threshold=0.25,
            conf_threshold=0.75,
            top_k=5,
            normalize_weights=False,
            bleu_threshold=0.6,
            bleu_order=2,
            data_rule_mode="transitive_flow",
            seed=42,
            neg_ratio=2.5,
            workers=4,
            calibration_fraction=0.3,
            adapter_endpoint="scorer --fast",
        )
        path = tmp_path / "run.ini"
        config_to_file(config, path)
        assert config_from_file(path) == config

    def test_file_spells_out_none(self, tmp_path):
        path = tmp_path / "run.ini"
        config_to_file(RunConfig(), path)
        text = path.read_text(encoding="utf-8")
        assert "trust_threshold = none" in text
        assert "workers = none" in text

    def test_none_sentinel_reads_back(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\ntrust_threshold = NONE\nworkers = None\n", encoding="utf-8")
        config = config_from_file(path)
        assert config.trust_threshold is None
        assert config.workers is None

    def test_a_percent_sign_is_read_verbatim(self, tmp_path):
        """Values are literal: no % interpolation, so %% is two characters."""
        path = tmp_path / "run.ini"
        path.write_text("[run]\nadapter_endpoint = python stub.py --rate 50% --tag %%(x)s\n", encoding="utf-8")
        assert config_from_file(path).adapter_endpoint == "python stub.py --rate 50% --tag %%(x)s"

    def test_a_percent_sign_round_trips(self, tmp_path):
        config = RunConfig(adapter_endpoint="python stub.py --rate 50%")
        path = tmp_path / "run.ini"
        config_to_file(config, path)
        assert "adapter_endpoint = python stub.py --rate 50%\n" in path.read_text(encoding="utf-8")
        assert config_from_file(path) == config

    def test_partial_file_keeps_other_defaults(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseed = 9\n", encoding="utf-8")
        config = config_from_file(path)
        assert config.seed == 9
        assert config.top_k == 10

    @pytest.mark.parametrize(
        "raw, expected",
        [("true", True), ("YES", True), ("1", True), ("on", True),
         ("false", False), ("No", False), ("0", False), ("OFF", False)],
    )
    def test_bool_spellings(self, tmp_path, raw, expected):
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\nnormalize_weights = {raw}\n", encoding="utf-8")
        assert config_from_file(path).normalize_weights is expected


class TestFileErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="not found"):
            config_from_file(tmp_path / "absent.ini")

    def test_missing_section(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[other]\nseed = 1\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=r"\[run\] section"):
            config_from_file(path)

    def test_unknown_field(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nturbo = yes\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="turbo"):
            config_from_file(path)

    @pytest.mark.parametrize(
        "line",
        ["iou_threshold = hot", "top_k = 3.5", "normalize_weights = maybe", "seed = none"],
    )
    def test_unparseable_value(self, tmp_path, line):
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\n{line}\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="cannot parse"):
            config_from_file(path)


class TestValues:
    """Values that parse but cannot run are rejected, from a file or from code."""

    @pytest.mark.parametrize(
        "line, message",
        [
            ("calibration_fraction = nan", "not finite"),
            ("calibration_fraction = inf", "not finite"),
            ("calibration_fraction = 1.5", r"not in \[0, 1\)"),
            ("calibration_fraction = 1.0", r"not in \[0, 1\)"),
            ("calibration_fraction = -0.1", r"not in \[0, 1\)"),
            ("trust_threshold = nan", "not finite"),
            ("conf_threshold = -inf", "not finite"),
            ("iou_threshold = nan", "not finite"),
            ("bleu_threshold = inf", "not finite"),
            ("neg_ratio = nan", "not finite"),
            ("data_rule_mode = bogus", "data_rule_mode"),
        ],
    )
    def test_file_value_rejected(self, tmp_path, line, message):
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\n{line}\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=message):
            config_from_file(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("iou_threshold = 2", r"'iou_threshold': 2.0 is not in \[0, 1\]"),
            ("iou_threshold = 1.5", r"'iou_threshold': 1.5 is not in \[0, 1\]"),
            ("iou_threshold = -0.5", r"'iou_threshold': -0.5 is not in \[0, 1\]"),
            ("neg_ratio = -1", "'neg_ratio': -1.0 is negative"),
            ("top_k = 0", "'top_k': 0 is below 1"),
            ("top_k = -3", "'top_k': -3 is below 1"),
            ("bleu_order = 0", "'bleu_order': 0 is below 1"),
        ],
    )
    def test_file_value_out_of_range_rejected(self, tmp_path, line, message):
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\n{line}\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=message):
            config_from_file(path)

    def test_range_bounds_are_accepted(self):
        assert RunConfig(iou_threshold=0.0).iou_threshold == 0.0
        assert RunConfig(iou_threshold=1.0).iou_threshold == 1.0
        assert RunConfig(neg_ratio=0.0).neg_ratio == 0.0
        assert RunConfig(top_k=1).top_k == 1
        assert RunConfig(bleu_order=1).bleu_order == 1

    def test_bounds_of_calibration_fraction(self):
        assert RunConfig(calibration_fraction=0.0).calibration_fraction == 0.0
        assert RunConfig(calibration_fraction=0.999).calibration_fraction == 0.999

    def test_override_checked_too(self):
        with pytest.raises(SchemaError, match="not finite"):
            merge_config(None, {"trust_threshold": float("nan")})
        with pytest.raises(SchemaError, match="data_rule_mode"):
            RunConfig(data_rule_mode="telepathic")
        with pytest.raises(SchemaError, match="'top_k': 0 is below 1"):
            merge_config(None, {"top_k": 0})
        with pytest.raises(SchemaError, match="'bleu_order': 0 is below 1"):
            RunConfig(bleu_order=0)


class TestMerge:
    def test_file_beats_defaults(self):
        merged = merge_config(RunConfig(seed=7), {})
        assert merged.seed == 7

    def test_override_beats_file(self):
        merged = merge_config(RunConfig(seed=7, top_k=3), {"seed": 11})
        assert merged.seed == 11
        assert merged.top_k == 3

    def test_none_override_does_not_mask_file(self):
        merged = merge_config(RunConfig(trust_threshold=0.25), {"trust_threshold": None})
        assert merged.trust_threshold == 0.25

    def test_no_file_uses_defaults(self):
        merged = merge_config(None, {"top_k": 4})
        assert merged.top_k == 4
        assert merged.iou_threshold == 0.5

    def test_unknown_override_rejected(self):
        with pytest.raises(SchemaError, match="unknown config overrides"):
            merge_config(None, {"speed": 3})

    def test_merge_returns_new_object(self):
        base = RunConfig()
        merged = merge_config(base, {"seed": 5})
        assert base.seed == 0
        assert merged is not base


class TestReadme:
    """The README configuration table documents every RunConfig field."""

    def table(self) -> list[tuple[str, str]]:
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        rows = []
        for line in section.splitlines():
            if line.startswith("| `"):
                cells = [cell.strip() for cell in line.strip("|").split("|")]
                rows.append((cells[0].strip("`"), cells[1]))
        return rows

    def test_table_lists_every_field_with_its_written_default(self, tmp_path):
        path = tmp_path / "run.ini"
        config_to_file(RunConfig(), path)
        parser = configparser.ConfigParser()
        parser.read(path, encoding="utf-8")
        assert self.table() == list(parser.items("run"))
