"""Flat `key = value` run configuration for the command line.

One dotted key per line; `#` starts a comment and blank lines are skipped.
Unknown keys are hard errors so typos cannot silently fall back to
defaults.  Values are typed per key; `none` clears an optional value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .data import FEATURE_WIDTH
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


def _parse_bool(text):
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_variant(text):
    if text not in VARIANTS:
        raise ValueError(f"expected one of {', '.join(VARIANTS)}, got {text!r}")
    return text


def _parse_path(text):
    return Path(text)


_SCHEMA = {
    "model.variant": _parse_variant,
    "model.days": _parse_int,
    "model.hidden_size": _parse_int,
    "model.feature_attn_size": _parse_int,
    "model.temporal_attn_size": _parse_int,
    "model.head_size": _parse_int,
    "model.seed": _parse_int,
    "train.batch_size": _parse_int,
    "train.epochs": _parse_int,
    "train.learning_rate": _parse_float,
    "train.beta1": _parse_float,
    "train.beta2": _parse_float,
    "train.epsilon": _parse_float,
    "train.clip_norm": _parse_optional_float,
    "train.shuffle": _parse_bool,
    "train.seed": _parse_int,
    "data.train_csv": _parse_path,
    "data.validation_csv": _parse_path,
    "data.holidays": _parse_path,
    "data.stride_hours": _parse_int,
    "data.synthetic_seed": _parse_int,
    "data.train_days": _parse_int,
    "data.validation_days": _parse_int,
    "data.test_days": _parse_int,
    "output.dir": _parse_path,
}

_DEFAULTS = {
    "model.variant": "ANLF",
    "model.days": 7,
    "model.hidden_size": 32,
    "model.feature_attn_size": 16,
    "model.temporal_attn_size": 16,
    "model.head_size": 32,
    "model.seed": 1,
    **{f"train.{field.name}": field.default for field in fields(TrainConfig)},
    "data.train_csv": None,
    "data.validation_csv": None,
    "data.holidays": None,
    "data.stride_hours": None,
    "data.synthetic_seed": 7,
    "data.train_days": 45,
    "data.validation_days": 7,
    "data.test_days": 8,
    "output.dir": None,
}

# `TrainConfig` holds the training defaults; `_SCHEMA` must parse each field.
assert {key for key in _SCHEMA if key.startswith("train.")} == \
    {f"train.{field.name}" for field in fields(TrainConfig)}


# Lower bounds of the integer keys that split and stride the series.
_AT_LEAST = {
    "data.train_days": 1,
    "data.validation_days": 1,
    "data.test_days": 0,
    "data.stride_hours": 1,
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a `train` invocation needs, after defaults and typing."""

    model: ModelConfig
    training: TrainConfig
    train_csv: Path | None
    validation_csv: Path | None
    holidays: Path | None
    stride_hours: int | None
    synthetic_seed: int
    train_days: int
    validation_days: int
    test_days: int
    output_dir: Path
    raw: dict


def parse_run_config(path):
    """Parse and validate a run configuration file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err

    values = dict(_DEFAULTS)
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
        if key not in _SCHEMA:
            raise ConfigError(f"{path}: line {line_no}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}: line {line_no}: duplicate key {key!r}")
        seen.add(key)
        try:
            values[key] = _SCHEMA[key](value)
        except ValueError as err:
            raise ConfigError(f"{path}: line {line_no}: {key}: {err}") from err

    if values["output.dir"] is None:
        raise ConfigError(f"{path}: missing required key output.dir")
    for key, least in _AT_LEAST.items():
        if values[key] is not None and values[key] < least:
            raise ConfigError(f"{path}: {key} must be at least {least}, got {values[key]}")

    model = ModelConfig(days=values["model.days"],
                        day_len=24,  # the hour-of-day one-hot is 24 wide
                        n_features=FEATURE_WIDTH,
                        hidden_size=values["model.hidden_size"],
                        feature_attn_size=values["model.feature_attn_size"],
                        temporal_attn_size=values["model.temporal_attn_size"],
                        head_size=values["model.head_size"],
                        variant=values["model.variant"],
                        seed=values["model.seed"])
    training = TrainConfig(**{field.name: values[f"train.{field.name}"]
                              for field in fields(TrainConfig)})
    echo = {key: (str(v) if isinstance(v, Path) else v)
            for key, v in sorted(values.items())}
    return RunConfig(model=model,
                     training=training,
                     train_csv=values["data.train_csv"],
                     validation_csv=values["data.validation_csv"],
                     holidays=values["data.holidays"],
                     stride_hours=values["data.stride_hours"],
                     synthetic_seed=values["data.synthetic_seed"],
                     train_days=values["data.train_days"],
                     validation_days=values["data.validation_days"],
                     test_days=values["data.test_days"],
                     output_dir=values["output.dir"],
                     raw=echo)
