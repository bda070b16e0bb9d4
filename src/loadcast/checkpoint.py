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

A load reads the file a slice at a time, in any JSON layout.  Each key of
the document but params is decoded whole by `json`.  Each entry's name and
shape are compared with `model.parameter_shapes` of the config before
anything is allocated for it, and its values list is cut at commas into
slices that `json` decodes into a float64 array allocated up front.  So
the load of a well-formed checkpoint whose config comes before its params
uses memory in proportion to the arrays it returns, and no load makes a
random draw.  An entry read before the config, unlike it, or whose list is
not of that many finite numbers, is decoded whole; a document `json`
cannot read is read again whole for its error.  So each refusal keeps the
message a whole-file read gives, and costs the memory that read does.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .data import HolidayCalendar, StandardizationStats, _atomic_file
from .errors import ConfigError, DegenerateStatsError
from .model import ModelConfig, build_params, parameter_shapes
from .params import named_leaves

CHECKPOINT_FORMAT = "loadcast-checkpoint"
CHECKPOINT_VERSION = 2
GATES = "ifgo"


# A save holds the text of this many values at a time, not of a file; a
# load decodes at most SLICE_CHARS characters at a time, room for this many
# as save writes them (26 characters is a float64's longest repr and ", ").
VALUES_PER_WRITE = 4096
SLICE_CHARS = 26 * VALUES_PER_WRITE
_SPACE = re.compile(r"[ \t\n\r]*")
_DECODER = json.JSONDecoder()


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
        with open(path, encoding="utf-8") as fh:
            doc, entries = _read(_Reader(fh), lambda head: _expected(path, head),
                                 os.fstat(fh.fileno()).st_size)
    # A ValueError is also what `json` raises for an integer of over 4,300
    # digits, and a RecursionError for lists or objects nested too deep.
    except (OSError, ValueError, RecursionError) as err:
        raise ConfigError(f"{path}: not a readable checkpoint: {_file_error(path, err)}") from err
    version, config = _head(path, doc)
    if not isinstance(entries, tuple):
        raise ConfigError(f"{path}: params must be a list of entries, "
                          f"got {type(entries).__name__}")
    stored, refusal = entries
    if refusal:
        raise ConfigError(f"{path}: {refusal}")
    if version == 1:
        _upgrade_v1(path, config, stored)
    expected = parameter_shapes(config)
    missing = sorted(set(expected) - set(stored))
    extra = sorted(set(stored) - set(expected))
    if missing or extra:
        raise ConfigError(f"{path}: parameter names do not match the config "
                          f"(missing {missing}, extra {extra})")
    for name, shape in expected.items():
        if stored[name].shape != shape:
            raise ConfigError(f"{path}: parameter {name} has shape "
                              f"{stored[name].shape}, expected {shape}")
    params = build_params(config, lambda name, _shape: stored[name])

    stats = _load_stats(path, doc.get("standardization"))
    calendar = _load_calendar(path, doc.get("holidays"))
    return Checkpoint(config=config, params=params, stats=stats, calendar=calendar)


def _file_error(path, err):
    """The error `json` gives for the whole file, which places a fault in
    the file rather than in a slice of it; `err` if `json` reads it."""
    try:
        json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as whole:
        return whole
    return err


def _head(path, doc):
    """The version and config of a document whose keys other than params
    are `doc`."""
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"{path}: not a {CHECKPOINT_FORMAT} document")
    version = doc.get("version")
    # `type`, since a bool equals 1 and a float 2.0 equals 2.
    if type(version) is not int or version not in (1, CHECKPOINT_VERSION):
        raise ConfigError(f"{path}: unsupported checkpoint version {version!r}")
    try:
        return version, ModelConfig(**doc["config"])
    except (KeyError, TypeError, ConfigError) as err:
        raise ConfigError(f"{path}: bad config block: {err}") from err


def _expected(path, head):
    """Each entry's name and shape under the keys `head` read so far; None
    until they hold a format, version and config that `_head` accepts."""
    try:
        version, config = _head(path, head)
    except ConfigError:
        return None
    return _v1_shapes(config) if version == 1 else parameter_shapes(config)


class _Reader:
    """The JSON text of a file, read a slice at a time: `text[pos:]` is read
    and not yet consumed."""

    def __init__(self, fh):
        self.fh, self.text, self.pos, self.eof = fh, "", 0, False

    def fill(self, count):
        """Read on until `count` characters are unconsumed, or to the end."""
        while not self.eof and len(self.text) - self.pos < count:
            more = self.fh.read(max(count, SLICE_CHARS))
            self.text, self.pos, self.eof = self.text[self.pos:] + more, 0, not more

    def peek(self):
        """The next character after whitespace, "" at the end."""
        while True:
            self.pos = _SPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or self.eof:
                return self.text[self.pos:self.pos + 1]
            self.fill(1)

    def take(self, chars):
        """Consume the next character after whitespace, one of `chars`."""
        char = self.peek()
        if not char or char not in chars:
            raise json.JSONDecodeError(f"Expecting one of {chars!r}", self.text, self.pos)
        self.pos += 1
        return char

    def value(self):
        """The next value, decoded whole by `json`."""
        self.peek()
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, self.pos)
                # A number cut at the end of the text may have lost up to
                # two characters that `json` did not match ("e+").
                if end + 2 < len(self.text) or self.eof:
                    self.pos = end
                    return value
            except json.JSONDecodeError:
                if self.eof:
                    raise
            # Doubling what is held keeps the retries of a long value linear.
            self.fill(2 * (len(self.text) - self.pos))

    def members(self, brackets):
        """Yield once per member of the object ("{}") or array ("[]") at the
        reader: an object member's key, None for an array item.  The caller
        consumes each value."""
        self.take(brackets[0])
        if self.peek() == brackets[1]:
            self.pos += 1
            return
        while True:
            key = None
            if brackets == "{}":
                if self.peek() != '"':
                    raise json.JSONDecodeError("Expecting property name enclosed in "
                                               "double quotes", self.text, self.pos)
                key = self.value()
                self.take(":")
            yield key
            if self.take("," + brackets[1]) != ",":
                return


def _read(reader, expect, size):
    """The document at `reader`: its keys other than params, each decoded
    whole, and its params, read by `_read_entries` against `expect(the keys
    read so far)` if it is a list, as `json` reads it otherwise."""
    head, entries = {}, ({}, None)
    if reader.peek() != "{":
        head = reader.value()
    else:
        for key in reader.members("{}"):
            if key != "params":
                head[key] = reader.value()
            elif reader.peek() != "[":
                entries = reader.value()
            else:
                entries = _read_entries(reader, expect(head), size)
    if reader.peek():
        raise json.JSONDecodeError("Extra data", reader.text, reader.pos)
    return head, entries


def _read_entries(reader, expected, size):
    """Each well-formed entry's array by name, and the refusal of the first
    malformed entry.  An entry is read as `json` reads it, but for a values
    list whose count `_capacity` knows, which `_read_values` streams."""
    stored, refusal = {}, None
    for index, _ in enumerate(reader.members("[]")):
        if reader.peek() != "{":
            entry = reader.value()
        else:
            entry = {}
            for key in reader.members("{}"):
                count = _capacity(entry, expected, size) if key == "values" else None
                entry[key] = (reader.value() if count is None or reader.peek() != "["
                              else _read_values(reader, count))
        try:
            stored[entry["name"]] = _entry_array(entry)
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            name = entry.get("name") if isinstance(entry, dict) else None
            refusal = refusal or (f"params entry {index} (name {name!r}) is malformed: "
                                  f"{type(err).__name__}: {err}")
    return stored, refusal


def _capacity(entry, expected, size):
    """The count of values of an entry whose keys before its values are
    `entry`, if `expected` holds its name and shape and a file of `size`
    bytes can hold that many ("0," is the shortest text of one); None
    otherwise."""
    name, shape = entry.get("name"), entry.get("shape")
    if (expected is None or not isinstance(name, str) or not isinstance(shape, list)
            or expected.get(name) != tuple(shape)):
        return None
    count = math.prod(expected[name])
    return count if count <= size // 2 + 1 else None


def _read_values(reader, count):
    """The list of numbers at the reader, cut at commas into slices of at
    most SLICE_CHARS characters, each decoded by `json` into a float64
    array of `count` values allocated up front; a list of fewer is cut
    short, which no reshape to the entry's shape accepts.

    A slice that is not all finite numbers (a string, null, a boolean, a
    nested list, NaN or a cut inside a token), or that would overfill the
    array, ends the slicing: the rest of the list is decoded whole, and the
    whole list goes to the checks of an entry decoded whole.
    """
    out, filled = np.empty(count), 0
    reader.take("[")
    while True:
        reader.fill(SLICE_CHARS)
        start = reader.pos
        end = reader.text.find("]", start, start + SLICE_CHARS)
        last = end >= 0
        if not last:
            end = reader.text.rfind(",", start, start + SLICE_CHARS)
        values = _numbers(reader.text[start:end]) if end >= 0 else None
        if values is None or filled + values.size > count:
            reader.text, reader.pos = "[" + reader.text[start:], 0
            return out[:filled].tolist() + reader.value()
        out[filled:filled + values.size] = values
        filled += values.size
        reader.pos = end + 1
        if last:
            return out[:filled]


def _numbers(text):
    """The float64 values of `text`, items of a list cut at commas, or None
    unless each is a finite number."""
    # numpy reads true and false as 1.0 and 0.0; [ or { opens a nested value.
    if any(char in text for char in "tf[{"):
        return None
    try:
        values = np.array(json.loads(f"[{text}]"))
    except (ValueError, OverflowError):
        return None
    if values.dtype.kind not in "iuf":
        return None
    values = values.astype(np.float64, copy=False)
    return values if np.isfinite(values).all() else None


def _entry_array(entry):
    """An entry's values as a float64 array of its shape; a malformed entry
    raises `KeyError`, `TypeError`, `ValueError` or `OverflowError`."""
    if not isinstance(entry["name"], str):
        raise TypeError("the name is not a string")
    values = entry["values"]
    if isinstance(values, np.ndarray):  # streamed, so finite numbers
        return values.reshape(entry["shape"])
    # Read without a dtype first, so that a string or null is not
    # parsed into a float but shows in the array's kind.
    values = np.array(values)
    if values.dtype.kind not in "biuf":
        raise TypeError("it holds a non-numeric value")
    values = values.astype(np.float64, copy=False)
    if _holds_a_boolean(entry["values"], values):
        raise TypeError("it holds a boolean")
    values = values.reshape(entry["shape"])
    if not np.isfinite(values).all():
        raise ValueError("it holds a non-finite value")
    return values


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


def _v1_blocks(config):
    """Each version-2 parameter's version-1 blocks, as the grid of (name,
    shape) that `np.block` joins: an LSTM direction's `weights` as rows i,
    f, g, o of `w_{gate}x` and `w_{gate}h`, its `b_x` and `b_h` as one row
    of `b_{gate}x` or `b_{gate}h`; a feature-attention `proj` with H more
    columns; any other parameter as itself."""
    grids = {}
    for name, shape in parameter_shapes(config).items():
        prefix, field = name.rsplit(".", 1)
        hidden = shape[0] // 4
        if field == "weights":
            grids[name] = [[(f"{prefix}.w_{gate}x", (hidden, shape[1] - hidden)),
                            (f"{prefix}.w_{gate}h", (hidden, hidden))] for gate in GATES]
        elif field in ("b_x", "b_h"):
            grids[name] = [[(f"{prefix}.b_{gate}{field[-1]}", (hidden,)) for gate in GATES]]
        elif name == "feature_attn.proj":
            grids[name] = [[(name, (shape[0], shape[1] + config.hidden_size))]]
        else:
            grids[name] = [[(name, shape)]]
    return grids


def _v1_shapes(config):
    """`parameter_shapes(config)` in the version-1 layout."""
    return {block: shape for grid in _v1_blocks(config).values()
            for row in grid for block, shape in row}


def _upgrade_v1(path, config, stored):
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

    packed, grids = {}, _v1_blocks(config)
    for name, shape in parameter_shapes(config).items():
        if grids[name][0][0][0] != name:  # an LSTM block; a bias row joins as (1, 4H)
            packed[name] = np.block([[take(*block) for block in row]
                                     for row in grids[name]]).reshape(shape)
    if "feature_attn.proj" in grids:
        hidden = config.hidden_size
        packed["feature_attn.proj"] = np.delete(take(*grids["feature_attn.proj"][0][0]),
                                                np.s_[hidden:2 * hidden], axis=1)
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
