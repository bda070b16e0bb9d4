"""Versioned text checkpoints.

A checkpoint is a JSON document holding the model configuration, every
parameter matrix as a named shaped array, and the pipeline state a later
`forecast` run needs (standardization statistics and the holiday
calendar).  Floats serialize through Python's shortest round-trip repr, so
a save/load cycle reproduces every value bit for bit and identical models
produce byte-identical files.  Checkpoints and every other artifact the
command line writes go through `write_atomic`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .data import HolidayCalendar, StandardizationStats
from .errors import ConfigError, DegenerateStatsError
from .model import ModelConfig, init_params
from .params import map_leaves, named_leaves

CHECKPOINT_FORMAT = "loadcast-checkpoint"
CHECKPOINT_VERSION = 1


def write_atomic(path, text):
    """Write `text` to `path` through a temporary file in the same directory
    and `os.replace`, so `path` holds either its previous content or all of
    `text`; a failed write removes the temporary file."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w") as fh:
            fh.write(text)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, config, params, stats=None, calendar=None):
    """Write `params` for `config`, with optional pipeline state."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(config),
        "standardization": dataclasses.asdict(stats) if stats is not None else None,
        "holidays": (sorted(d.isoformat() for d in calendar.dates)
                     if calendar is not None else None),
        "params": [{"name": name,
                    "shape": list(leaf.shape),
                    "values": np.asarray(leaf, dtype=np.float64).reshape(-1).tolist()}
                   for name, leaf in named_leaves(params)],
    }
    write_atomic(path, json.dumps(doc, indent=1) + "\n")


@dataclass
class Checkpoint:
    config: ModelConfig
    params: object
    stats: StandardizationStats | None
    calendar: HolidayCalendar | None


def load_checkpoint(path):
    """Read a checkpoint back; validates format, version, entries, names,
    shapes, and the standardization and holidays blocks, raising
    `ConfigError` that names the file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"{path}: not a readable checkpoint: {err}") from err
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"{path}: not a {CHECKPOINT_FORMAT} document")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {doc.get('version')!r}")
    try:
        config = ModelConfig(**doc["config"])
    except (KeyError, TypeError) as err:
        raise ConfigError(f"{path}: bad config block: {err}") from err

    entries = doc.get("params", [])
    if not isinstance(entries, list):
        raise ConfigError(f"{path}: params must be a list of entries, "
                          f"got {type(entries).__name__}")
    stored = {}
    for index, entry in enumerate(entries):
        try:
            stored[entry["name"]] = np.array(entry["values"],
                                             dtype=np.float64).reshape(entry["shape"])
        except (KeyError, TypeError, ValueError) as err:
            name = entry.get("name") if isinstance(entry, dict) else None
            raise ConfigError(f"{path}: params entry {index} (name {name!r}) is malformed: "
                              f"{type(err).__name__}: {err}") from err
    template = init_params(config)
    expected = {name: leaf.shape for name, leaf in named_leaves(template)}
    missing = sorted(set(expected) - set(stored))
    extra = sorted(set(stored) - set(expected))
    if missing or extra:
        raise ConfigError(f"{path}: parameter names do not match the config "
                          f"(missing {missing}, extra {extra})")
    for name, shape in expected.items():
        if stored[name].shape != shape:
            raise ConfigError(f"{path}: parameter {name} has shape "
                              f"{stored[name].shape}, expected {shape}")
    params = map_leaves(template, lambda name, _leaf: stored[name])

    stats = _load_stats(path, doc.get("standardization"))
    calendar = _load_calendar(path, doc.get("holidays"))
    return Checkpoint(config=config, params=params, stats=stats, calendar=calendar)


def _load_stats(path, block):
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: bad standardization block: expected an object, "
                          f"got {type(block).__name__}")
    for key, value in block.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise ConfigError(f"{path}: bad standardization block: {key} is "
                              f"{value!r}, not a finite number")
    try:
        return StandardizationStats(**block)
    except (TypeError, DegenerateStatsError) as err:
        raise ConfigError(f"{path}: bad standardization block: {err}") from err


def _load_calendar(path, block):
    if not block:
        return None
    if not isinstance(block, list):
        raise ConfigError(f"{path}: bad holidays block: expected a list of ISO dates, "
                          f"got {type(block).__name__}")
    try:
        return HolidayCalendar.from_dates(date.fromisoformat(text) for text in block)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: bad holidays block: {err}") from err
