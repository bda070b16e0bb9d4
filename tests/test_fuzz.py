"""Malformed inputs end in a typed error with a documented exit code.

Hypothesis writes CSV series and run configurations, well formed or not,
and checks that `ingest_csv` and `parse_run_config` either accept them or
raise a `LoadcastError` whose command-line exit code is 2 (configuration)
or 3 (data), never anything else.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from loadcast.cli import EXIT_CONFIG, EXIT_DATA
from loadcast.config import _KEYS, RunConfig, parse_run_config
from loadcast.data import CSV_COLUMNS, HOUR, ingest_csv
from loadcast.errors import ConfigError, DataError, LoadcastError, ParseError

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
