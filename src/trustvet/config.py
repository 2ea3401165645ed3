"""Run configuration.

One flat dataclass covers every tunable the command-line tools accept. A
config can round-trip through an INI file ([run] section) without loss, and
values merge with a fixed precedence: explicit flags beat the file, the
file beats the built-in defaults.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import os
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .assess import DATA_RULE_MODES
from .errors import SchemaError

_SECTION = "run"
_NONE = "none"


def require_finite(value: float, what: str) -> None:
    """The rule for every float setting: NaN compares false everywhere and
    an infinity is no cutoff, so neither can run."""
    if not math.isfinite(value):
        raise SchemaError(f"{what}: {value!r} is not finite")


def require_iou_cutoff(value: float, what: str) -> None:
    """An IoU lies in [0, 1], so a cutoff outside it decides nothing."""
    require_finite(value, what)
    if not 0.0 <= value <= 1.0:
        raise SchemaError(f"{what}: {value!r} is not in [0, 1]")


@dataclass(frozen=True)
class RunConfig:
    iou_threshold: float = 0.5
    trust_threshold: float | None = None
    conf_threshold: float | None = None
    top_k: int = 10
    normalize_weights: bool = True
    bleu_threshold: float = 0.5
    bleu_order: int = 4
    data_rule_mode: str = "direct"
    seed: int = 0
    neg_ratio: float = 1.0
    workers: int | None = None
    calibration_fraction: float = 0.2
    adapter_endpoint: str | None = None

    def __post_init__(self) -> None:
        # every construction path (file, flags, code) ends here
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is float and isinstance(value, float):
                require_finite(value, f"config field {name!r}")
        require_iou_cutoff(self.iou_threshold, "config field 'iou_threshold'")
        if self.neg_ratio < 0:
            raise SchemaError(f"config field 'neg_ratio': {self.neg_ratio!r} is negative")
        for name in ("top_k", "bleu_order"):
            value = getattr(self, name)
            if value < 1:
                raise SchemaError(f"config field {name!r}: {value!r} is below 1")
        if not 0.0 <= self.calibration_fraction < 1.0:
            raise SchemaError(
                f"config field 'calibration_fraction': {self.calibration_fraction!r} is not in [0, 1)"
            )
        if self.data_rule_mode not in DATA_RULE_MODES:
            raise SchemaError(
                f"config field 'data_rule_mode': {self.data_rule_mode!r} is not one of {DATA_RULE_MODES}"
            )

    def resolved_workers(self) -> int:
        if self.workers is not None:
            return self.workers
        return os.cpu_count() or 1


# Each field's parser and whether it takes None, read from its annotation
# ("float | None" parses as float and accepts "none").
_HINTS = typing.get_type_hints(RunConfig)
_OPTIONAL = {name for name, hint in _HINTS.items() if type(None) in typing.get_args(hint)}
_FIELD_TYPES: dict[str, type] = {
    name: next((t for t in typing.get_args(hint) if t is not type(None)), hint)
    for name, hint in _HINTS.items()
}


def _parse_value(name: str, raw: str) -> Any:
    raw = raw.strip()
    if name in _OPTIONAL and raw.lower() == _NONE:
        return None
    kind = _FIELD_TYPES[name]
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError as exc:
        raise SchemaError(f"config field {name!r}: cannot parse {raw!r}") from exc


def _format_value(value: Any) -> str:
    if value is None:
        return _NONE
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def config_from_file(path: str | Path) -> RunConfig:
    """Load a RunConfig from an INI file's [run] section."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(str(path), encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise SchemaError(f"config file {path}: {exc}") from None
    if not read:
        raise SchemaError(f"config file not found: {path}")
    if not parser.has_section(_SECTION):
        raise SchemaError(f"config file {path} has no [{_SECTION}] section")
    values: dict[str, Any] = {}
    for name, raw in parser.items(_SECTION):
        if name not in _FIELD_TYPES:
            raise SchemaError(f"config file {path}: unknown field {name!r}")
        values[name] = _parse_value(name, raw)
    return RunConfig(**values)


def config_to_file(config: RunConfig, path: str | Path) -> None:
    """Write every field, None included, so the file round-trips exactly."""
    parser = configparser.ConfigParser()
    parser.add_section(_SECTION)
    for f in dataclasses.fields(RunConfig):
        parser.set(_SECTION, f.name, _format_value(getattr(config, f.name)))
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)


def merge_config(
    file_config: RunConfig | None, overrides: Mapping[str, Any]
) -> RunConfig:
    """Apply explicit overrides (flag values) on top of a file or defaults.

    Overrides whose value is None are treated as not given, so an unset
    command-line flag never masks a file setting.
    """
    base = file_config if file_config is not None else RunConfig()
    updates = {k: v for k, v in overrides.items() if v is not None}
    unknown = set(updates) - set(_FIELD_TYPES)
    if unknown:
        raise SchemaError(f"unknown config overrides: {sorted(unknown)}")
    return dataclasses.replace(base, **updates)
