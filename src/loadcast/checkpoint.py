"""Versioned text checkpoints.

A checkpoint is a JSON document holding the model configuration, every
parameter array as a named shaped array, and the pipeline state a later
`forecast` run needs (standardization statistics and the holiday
calendar).  Floats serialize through Python's shortest round-trip repr, so
a save/load cycle reproduces every value bit for bit and identical models
produce byte-identical files.  Each parameter entry is one compact line.
Checkpoints and every other artifact the command line writes replace
their file all or nothing, through a temporary file (`data.write_atomic`).

Version 2 stores the arrays the model computes with: per LSTM direction
`weights` (4H, input + H) with row blocks i, f, g, o and columns [x | h],
`b_x` and `b_h` (4H,).  Version 1 stored sixteen named blocks per
direction (`w_ix` .. `w_oh`, `b_ix` .. `b_oh`) and a feature-attention
`proj` with H more columns, which multiplied an always-zero state; it is
still read, through `_upgrade_v1`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .data import HolidayCalendar, StandardizationStats, _atomic_file
from .errors import ConfigError, DegenerateStatsError
from .model import ModelConfig, init_params
from .params import map_leaves, named_leaves

CHECKPOINT_FORMAT = "loadcast-checkpoint"
CHECKPOINT_VERSION = 2
GATES = "ifgo"


# A save holds the text of this many values at a time, not of a file.
VALUES_PER_WRITE = 4096


def save_checkpoint(path, config, params, stats, calendar):
    """Stream `params` for `config`, with the pipeline state, to disk."""
    head = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(config),
        "standardization": dataclasses.asdict(stats),
        "holidays": sorted(d.isoformat() for d in calendar.dates),
    }
    lines = [f" {json.dumps(key)}: {json.dumps(value)}," for key, value in head.items()]
    with _atomic_file(path) as fh:
        fh.write("{\n" + "\n".join(lines) + '\n "params": [')
        for index, (name, leaf) in enumerate(named_leaves(params)):
            flat = np.asarray(leaf, dtype=np.float64).reshape(-1)
            fh.write(f'{"," if index else ""}\n  {{"name": {json.dumps(name)}, '
                     f'"shape": {json.dumps(list(leaf.shape))}, "values": [')
            for start in range(0, flat.size, VALUES_PER_WRITE):
                # A list dumps as "[v, v, ...]"; one pair of brackets holds all pieces.
                piece = json.dumps(flat[start:start + VALUES_PER_WRITE].tolist())[1:-1]
                fh.write(", " + piece if start else piece)
            fh.write("]}")
        fh.write("\n ]\n}\n")


@dataclass
class Checkpoint:
    config: ModelConfig
    params: object
    stats: StandardizationStats
    calendar: HolidayCalendar


def load_checkpoint(path):
    """Read a checkpoint back; validates format, version, entries, names,
    shapes, values that are finite numbers (not booleans, strings or
    null), and the standardization and holidays blocks, raising
    `ConfigError` that names the file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigError(f"{path}: not a readable checkpoint: {err}") from err
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"{path}: not a {CHECKPOINT_FORMAT} document")
    version = doc.get("version")
    if version not in (1, CHECKPOINT_VERSION):
        raise ConfigError(f"{path}: unsupported checkpoint version {version!r}")
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
            if not isinstance(entry["name"], str):
                raise TypeError("the name is not a string")
            # Read without a dtype first, so that a string or null is not
            # parsed into a float but shows in the array's kind.
            values = np.array(entry["values"])
            if values.dtype.kind not in "biuf":
                raise TypeError("it holds a non-numeric value")
            values = values.astype(np.float64, copy=False)
            if _holds_a_boolean(entry["values"], values):
                raise TypeError("it holds a boolean")
            values = values.reshape(entry["shape"])
            if not np.isfinite(values).all():
                raise ValueError("it holds a non-finite value")
            stored[entry["name"]] = values
        except (KeyError, TypeError, ValueError) as err:
            name = entry.get("name") if isinstance(entry, dict) else None
            raise ConfigError(f"{path}: params entry {index} (name {name!r}) is malformed: "
                              f"{type(err).__name__}: {err}") from err
    template = init_params(config)
    if version == 1:
        _upgrade_v1(path, config, template, stored)
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


def _holds_a_boolean(raw, values):
    """Whether the JSON array `raw`, read as `values`, holds a boolean.  A
    boolean reads as 0.0 or 1.0, so only those entries are looked at."""
    for index in np.argwhere((values == 0.0) | (values == 1.0)):
        item = raw
        for i in index:
            item = item[i]
        if isinstance(item, bool):
            return True
    return False


def _upgrade_v1(path, config, template, stored):
    """Rewrite the name-keyed version-1 arrays `stored` in place into the
    version-2 layout, freeing each version-1 block as it is consumed.

    Each LSTM direction's sixteen named blocks become `weights`, `b_x` and
    `b_h`, and the `feature_attn.proj` columns that faced the encoder's
    always-zero backward state are dropped, which leaves every forecast
    unchanged.  Other names pass through to the caller's checks; a missing
    or misshapen block, or a version-2 name, is a `ConfigError`.
    """
    def take(name, shape):
        block = stored.pop(name, None)
        if block is None or block.shape != shape:
            found = "missing" if block is None else f"of shape {block.shape}"
            raise ConfigError(f"{path}: version-1 parameter {name} is {found}, "
                              f"expected shape {shape}")
        return block

    packed = {}
    for name, leaf in named_leaves(template):
        if name.endswith(".weights"):
            prefix = name[:-len("weights")]
            hidden = leaf.shape[0] // 4
            shapes = {"x": (hidden, leaf.shape[1] - hidden), "h": (hidden, hidden)}
            packed[name] = np.concatenate(
                [np.concatenate([take(f"{prefix}w_{gate}{source}", shapes[source])
                                 for source in "xh"], axis=1) for gate in GATES])
            for source in "xh":
                packed[f"{prefix}b_{source}"] = np.concatenate(
                    [take(f"{prefix}b_{gate}{source}", (hidden,)) for gate in GATES])
    if template.feature_attn is not None:
        hidden = config.hidden_size
        attn, columns = template.feature_attn.proj.shape
        proj = take("feature_attn.proj", (attn, columns + hidden))
        packed["feature_attn.proj"] = np.delete(proj, np.s_[hidden:2 * hidden], axis=1)
    clash = sorted(packed.keys() & stored.keys())
    if clash:
        raise ConfigError(f"{path}: version-1 document holds version-2 parameters {clash}")
    stored.update(packed)


def _load_stats(path, block):
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: bad standardization block: expected an object, "
                          f"got {block!r}")
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
    if not isinstance(block, list) or not block:
        raise ConfigError(f"{path}: bad holidays block: expected a nonempty list of "
                          f"ISO dates, got {block!r}")
    try:
        return HolidayCalendar.from_dates(date.fromisoformat(text) for text in block)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: bad holidays block: {err}") from err
