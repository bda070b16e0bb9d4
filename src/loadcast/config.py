"""Flat `key = value` run configuration for the command line.

One dotted key per line; `#` starts a comment and blank lines are skipped.
Unknown keys are hard errors so typos cannot silently fall back to
defaults.  One table, `_KEYS`, types, defaults and bounds each key's value;
`none` clears an optional value.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .data import DAY_HOURS, FEATURE_WIDTH
from .errors import ConfigError
from .model import VARIANTS, ModelConfig
from .training import TrainConfig


def _parse_int(text):
    try:
        return int(text)
    except ValueError as err:
        raise ValueError(f"expected an integer, got {text!r}") from err


def _parse_float(text):
    try:
        value = float(text)
    except ValueError as err:
        raise ValueError(f"expected a number, got {text!r}") from err
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_optional_float(text):
    if text.lower() == "none":
        return None
    return _parse_float(text)


def _parse_path(text):
    # `Path("")` is the current directory, which no key means.
    if not text:
        raise ValueError("expected a path, got an empty value")
    return Path(text)


def _parse_variant(text):
    if text not in VARIANTS:
        raise ValueError(f"expected one of {', '.join(VARIANTS)}, got {text!r}")
    return text


class _Key(NamedTuple):
    """How a run-config key is read: its parser, its default (None when
    unset), and the least value it takes (None when unbounded)."""

    parse: Callable
    default: object = None
    at_least: int | None = None


# `model.*` values reach `ModelConfig`, `train.*` values `TrainConfig` and
# `data.*` values `RunConfig` by the name after the prefix.  Seeds are at
# least 0 because numpy's generators take no negative seed.
_KEYS = {
    "model.variant": _Key(_parse_variant, "ANLF"),
    "model.days": _Key(_parse_int, 7, 1),
    "model.hidden_size": _Key(_parse_int, 32, 1),
    "model.feature_attn_size": _Key(_parse_int, 16, 1),
    "model.temporal_attn_size": _Key(_parse_int, 16, 1),
    "model.head_size": _Key(_parse_int, 32, 1),
    "model.seed": _Key(_parse_int, 1, 0),
    "train.batch_size": _Key(_parse_int, TrainConfig.batch_size, 1),
    "train.epochs": _Key(_parse_int, TrainConfig.epochs, 1),
    "train.learning_rate": _Key(_parse_float, TrainConfig.learning_rate, 0),
    "train.clip_norm": _Key(_parse_optional_float, TrainConfig.clip_norm),
    "train.seed": _Key(_parse_int, TrainConfig.seed, 0),
    "data.train_csv": _Key(_parse_path),
    "data.validation_csv": _Key(_parse_path),
    "data.holidays": _Key(_parse_path),
    "data.stride_hours": _Key(_parse_int, None, 1),
    "data.synthetic_seed": _Key(_parse_int, 7, 0),
    "data.train_days": _Key(_parse_int, 45, 1),
    "data.validation_days": _Key(_parse_int, 7, 1),
    "output.dir": _Key(_parse_path),
}


def _section(values, prefix):
    """The `prefix.*` values, keyed by the name after the prefix."""
    return {key.removeprefix(prefix): value for key, value in values.items()
            if key.startswith(prefix)}


@dataclass(frozen=True)
class RunConfig:
    """Everything a `train` invocation needs, after defaults and typing;
    `set_keys` holds the keys the file set."""

    model: ModelConfig
    training: TrainConfig
    output_dir: Path
    raw: dict
    train_csv: Path | None
    validation_csv: Path | None
    holidays: Path | None
    stride_hours: int | None
    synthetic_seed: int
    train_days: int
    validation_days: int
    set_keys: frozenset


def parse_run_config(path):
    """Parse and validate a run configuration file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err

    values = {key: spec.default for key, spec in _KEYS.items()}
    seen = set()
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}: line {line_no}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}: line {line_no}: duplicate key {key!r}")
        seen.add(key)
        try:
            values[key] = _KEYS[key].parse(value)
        except ValueError as err:
            raise ConfigError(f"{path}: line {line_no}: {key}: {err}") from err

    if values["output.dir"] is None:
        raise ConfigError(f"{path}: missing required key output.dir")
    for key, spec in _KEYS.items():
        least, value = spec.at_least, values[key]
        if least is not None and value is not None and value < least:
            raise ConfigError(f"{path}: {key} must be at least {least}, got {value}")

    model = ModelConfig(day_len=DAY_HOURS, n_features=FEATURE_WIDTH, **_section(values, "model."))
    echo = {key: (str(v) if isinstance(v, Path) else v)
            for key, v in sorted(values.items())}
    return RunConfig(model=model, training=TrainConfig(**_section(values, "train.")),
                     output_dir=values["output.dir"], raw=echo, set_keys=frozenset(seen),
                     **_section(values, "data."))
