"""Malformed inputs end in a typed error with a documented exit code.

Hypothesis writes CSV series, run configurations, checkpoints and holiday
calendars, well formed or not, and checks that `ingest_csv`,
`parse_run_config`, `load_checkpoint` and `HolidayCalendar.from_file`
either accept them or raise a `LoadcastError` whose command-line exit code
is 2 (configuration) or 3 (data), never anything else.
"""

import functools
import json
import operator
import tempfile
import tracemalloc
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadcast.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from loadcast.cli import EXIT_CONFIG, EXIT_DATA
from loadcast.config import _KEYS, RunConfig, parse_run_config
from loadcast.data import CSV_COLUMNS, HOUR, HolidayCalendar, ingest_csv
from loadcast.errors import ConfigError, DataError, LoadcastError, ParseError
from loadcast.model import ModelConfig, init_params, parameter_shapes
from test_checkpoint import CALENDAR, STATS, TINY, v1_document

FUZZ = settings(max_examples=100, deadline=None)

# Encodable text the csv module reads back unchanged: no separators or quotes.
PLAIN = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters=',"\r\n\x00'), max_size=12)
FIELD = st.one_of(
    st.sampled_from(["2022-01-03T00:00:00", "2022-01-03T01:00:00", "2022-01-03T02:00",
                     "2022-01-03T01:00:00+00:00", "2022-01-03T02:00:00+01:00", "100.0", "1e3",
                     "0", "-3", "nan", "inf",
                     "1e999", "", " ", "junk"]),
    PLAIN)
ROW = st.lists(FIELD, max_size=5)
HEADER = st.one_of(st.just(list(CSV_COLUMNS)), st.lists(PLAIN, max_size=4))


def exit_code(err):
    """The exit code `loadcast` maps an error to, or None if it maps none."""
    if isinstance(err, ConfigError):
        return EXIT_CONFIG
    if isinstance(err, DataError):
        return EXIT_DATA
    return None


def outcome(parse, content):
    """`parse` applied to a file holding `content`: the parsed value, or
    the exit code of the `LoadcastError` it raised."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "input"
        path.write_bytes(content)
        try:
            return parse(path)
        except LoadcastError as err:
            code = exit_code(err)
            assert code in (EXIT_CONFIG, EXIT_DATA), repr(err)
            return code


def malformed_row(row):
    # The csv module reads an empty line, or one empty field, as a blank row.
    return len(row) != len(CSV_COLUMNS) and row not in ([], [""])


class TestIngestFuzz:
    @FUZZ
    @given(HEADER, st.lists(ROW, max_size=6))
    def test_rows_parse_or_raise_a_data_error(self, header, rows):
        text = "\n".join(",".join(fields) for fields in [header] + rows) + "\n"
        result = outcome(ingest_csv, text.encode("utf-8"))
        if isinstance(result, list):
            assert not any(malformed_row(row) for row in rows)
            assert all(record.load > 0.0 for record in result)
            assert len({record.timestamp.utcoffset() for record in result}) <= 1
            for prev, cur in zip(result, result[1:]):
                assert cur.timestamp - prev.timestamp == HOUR

    @FUZZ
    @given(st.lists(ROW.filter(malformed_row), min_size=1, max_size=3))
    def test_wrong_field_count_is_a_parse_error(self, rows):
        text = "\n".join(",".join(fields) for fields in [list(CSV_COLUMNS)] + rows) + "\n"
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "series.csv"
            path.write_bytes(text.encode("utf-8"))
            try:
                ingest_csv(path)
            except ParseError as err:
                assert "line 2" in str(err)
            else:
                raise AssertionError("a row with the wrong field count was accepted")

    @FUZZ
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, content):
        result = outcome(ingest_csv, b"timestamp,load,temperature\n" + content)
        assert isinstance(result, list) or result == EXIT_DATA


KEY = st.one_of(st.sampled_from(sorted(_KEYS)), PLAIN)
VALUE = st.one_of(
    st.sampled_from(["1", "0", "-1", "4", "0.5", "1e-3", "nan", "inf", "none", "true", "off",
                     "ANLF", "EDLSTM", "out", ""]),
    PLAIN)
LINE = st.one_of(st.tuples(KEY, VALUE).map(lambda kv: f"{kv[0]} = {kv[1]}"), PLAIN)


class TestRunConfigFuzz:
    @FUZZ
    @given(st.lists(LINE, max_size=8))
    def test_lines_parse_or_raise_a_config_error(self, lines):
        result = outcome(parse_run_config, "\n".join(lines).encode("utf-8"))
        assert isinstance(result, RunConfig) or result == EXIT_CONFIG

    @FUZZ
    @given(st.binary(max_size=120))
    def test_arbitrary_bytes(self, content):
        result = outcome(parse_run_config, b"output.dir = out\n" + content)
        assert isinstance(result, RunConfig) or result == EXIT_CONFIG


def _checkpoints():
    """A tiny version-2 checkpoint as `save_checkpoint` writes it, and the
    same parameters as a one-line version-1 document, as perfbench serves."""
    params = init_params(TINY)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "checkpoint.json"
        save_checkpoint(path, TINY, params, STATS, CALENDAR)
        saved = path.read_text()
    dead = np.random.default_rng(5).normal(size=(TINY.feature_attn_size, TINY.hidden_size))
    return {2: saved, 1: json.dumps(v1_document(TINY, params, dead)) + "\n"}


CHECKPOINTS = _checkpoints()
VERSION = st.sampled_from(sorted(CHECKPOINTS))
REPLACEMENT = st.one_of(
    st.sampled_from([10**30, 10**6, 2**63, 0, -1, 2.0, True, False, None, "", "4",
                     float("nan"), float("inf"), -float("inf")]),
    st.integers(max_value=10**30), st.floats(), st.text(max_size=4),
    st.recursive(st.none() | st.booleans() | st.floats(),
                 lambda inner: st.lists(inner, max_size=3), max_leaves=6))


def _paths(node, path=()):
    """Every path into the JSON value `node`, itself first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


class TestCheckpointFuzz:
    def check(self, content):
        result = outcome(load_checkpoint, content)
        assert isinstance(result, Checkpoint) or result == EXIT_CONFIG

    @FUZZ
    @given(VERSION, st.data())
    def test_replaced_or_removed_values_load_or_raise_a_config_error(self, version, data):
        doc = json.loads(CHECKPOINTS[version])
        # Half the draws land in the head, whose few keys the entries outnumber.
        head = {key: value for key, value in doc.items() if key != "params"}
        *parents, last = data.draw(st.one_of(st.sampled_from(list(_paths(head))[1:]),
                                             st.sampled_from(list(_paths(doc))[1:])))
        container = functools.reduce(operator.getitem, parents, doc)
        if isinstance(container, dict) and data.draw(st.booleans()):
            del container[last]
        else:
            container[last] = data.draw(REPLACEMENT)
        self.check(json.dumps(doc, indent=1 if version == 2 else None).encode("utf-8"))

    @FUZZ
    @given(VERSION, st.data())
    def test_flipped_bytes_load_or_raise_a_config_error(self, version, data):
        content = bytearray(CHECKPOINTS[version].encode("utf-8"))
        for at in data.draw(st.lists(st.integers(0, len(content) - 1), min_size=1, max_size=3)):
            content[at] ^= data.draw(st.integers(1, 255))
        self.check(bytes(content))

    @FUZZ
    @given(VERSION, st.data())
    def test_truncated_documents_raise_a_config_error(self, version, data):
        content = CHECKPOINTS[version].encode("utf-8")
        assert outcome(load_checkpoint, content[:data.draw(st.integers(0, len(content) - 2))]) \
            == EXIT_CONFIG

    @pytest.mark.parametrize("hidden, declared, refusal", [
        (10**6, False, "parameter feature_attn.proj has shape (2, 8), expected (2, 1000004)"),
        (1000, True, "params entry 0 (name 'feature_attn.proj') is malformed: ValueError: "
                     "cannot reshape array of size 16 into shape (2,1004)")],
        ids=["in-the-config", "in-the-config-and-the-shapes"])
    def test_sizes_the_entries_do_not_hold_are_refused_in_small_memory(self, tmp_path, hidden,
                                                                        declared, refusal):
        # A config is compared with the entries before anything is
        # allocated for it, and an entry's values are allocated up front
        # only as far as the file can hold them, so a wide cell costs
        # nothing: hidden 1000 would ask for 257 MB.
        doc = json.loads(CHECKPOINTS[2])
        doc["config"]["hidden_size"] = hidden
        if declared:
            shapes = parameter_shapes(ModelConfig(**doc["config"]))
            for entry in doc["params"]:
                entry["shape"] = list(shapes[entry["name"]])
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as exc:
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"{path}: {refusal}"
        assert peak < 1_000_000


class TestHolidayFuzz:
    @FUZZ
    @given(st.binary(max_size=120))
    def test_arbitrary_bytes_parse_or_raise_a_data_error(self, content):
        result = outcome(HolidayCalendar.from_file, content)
        assert isinstance(result, HolidayCalendar) or result == EXIT_DATA

    @FUZZ
    @given(st.lists(st.one_of(st.dates().map(date.isoformat), PLAIN), max_size=5))
    def test_lines_parse_or_raise_a_data_error(self, lines):
        result = outcome(HolidayCalendar.from_file, "\n".join(lines).encode("utf-8"))
        assert isinstance(result, HolidayCalendar) or result == EXIT_DATA
