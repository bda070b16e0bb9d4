"""CSV ingestion, calendar features, standardization, windowing, and a
synthetic generator for desk-scale runs.

The hourly feature vector is fixed at 45 entries: temperature, a holiday
indicator, then one-hot hour-of-day (24), day-of-week (7, Monday first),
and month-of-year (12) blocks.  Load is the forecast target and also an
encoder input over the history window.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (ConfigError, ContinuityError, CoverageError, DegenerateStatsError,
                     DimensionError, ParseError, SchemaError, SizeError)

CSV_COLUMNS = ("timestamp", "load", "temperature")
TEMPERATURE_INDEX = 0
HOLIDAY_INDEX = 1
HOUR_OFFSET = 2
WEEKDAY_OFFSET = 26
MONTH_OFFSET = 33
FEATURE_WIDTH = 45
# Hours in a day: the hour-of-day one-hot's width and every model's day_len.
DAY_HOURS = 24
HOUR = timedelta(hours=1)


@dataclass(frozen=True)
class RawRecord:
    """One hour of observed data."""

    timestamp: datetime
    load: float
    temperature: float


def ingest_csv(path):
    """Read and validate an hourly series with columns timestamp,load,temperature.

    Timestamps must be ISO-8601, all naive or all with the same UTC offset
    (a daylight-saving change would make a 23- or 25-hour local day), and
    advance by exactly one hour; loads must be positive and finite.  A file
    that cannot be read or decoded raises `ParseError`.
    """
    return _load(path, "CSV")[0]


def _load(path, kind):
    """The records of the hourly CSV at `path` (`kind` "CSV") or its
    `HolidayCalendar` (`kind` "calendar"), and the sha256 of the bytes they
    were parsed from, which are read once.  A leading UTF-8 byte-order mark
    is dropped; a file that cannot be read or decoded raises `ParseError`."""
    path = Path(path)
    try:
        raw = path.read_bytes()
        text = raw.decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(f"{path}: not a readable {kind} file: {err}") from err
    parse = _records if kind == "CSV" else HolidayCalendar._from_text
    return parse(path, text), hashlib.sha256(raw).hexdigest()


def _records(path, text):
    """The records of the CSV text `text` of `path`, checked for gaps."""
    try:
        records = _parse_rows(path, csv.reader(io.StringIO(text, newline="")))
    except csv.Error as err:
        raise ParseError(f"{path}: not a readable CSV file: {err}") from err
    for prev, cur in zip(records, records[1:]):
        if cur.timestamp - prev.timestamp != HOUR:
            raise ContinuityError(
                f"{path}: timestamps must advance by exactly one hour; "
                f"first break at {cur.timestamp.isoformat()}")
    return records


def _parse_rows(path, reader):
    """The records of a CSV reader's rows, header first; blank rows skipped."""
    header = next(reader, None)
    if header is None:
        raise SchemaError(f"{path}: empty file, expected header {','.join(CSV_COLUMNS)}")
    if tuple(column.strip() for column in header) != CSV_COLUMNS:
        raise SchemaError(
            f"{path}: expected columns {','.join(CSV_COLUMNS)}, got {','.join(header)}")
    records = []
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise ParseError(f"{path}: line {line}: expected {len(CSV_COLUMNS)} fields "
                             f"({','.join(CSV_COLUMNS)}), got {len(row)}")
        try:
            timestamp = datetime.fromisoformat(row[0].strip())
            load = float(row[1])
            temperature = float(row[2])
        except ValueError as err:
            raise ParseError(f"{path}: line {line}: {err}") from err
        if not (math.isfinite(load) and math.isfinite(temperature)):
            raise ParseError(f"{path}: line {line}: non-finite value")
        if load <= 0.0:
            raise ParseError(f"{path}: line {line}: load must be positive, got {load}")
        offset = timestamp.utcoffset()
        if not records:
            first_line, first_text, first_offset = line, row[0].strip(), offset
        elif (offset is None) != (first_offset is None):
            raise ParseError(
                f"{path}: line {line}: timestamp {row[0].strip()!r} is "
                f"{'naive' if offset is None else 'offset-aware'} but line {first_line}'s is not")
        elif offset != first_offset:
            raise ParseError(
                f"{path}: line {line}: timestamp {row[0].strip()!r} has another UTC offset "
                f"than line {first_line}'s {first_text!r}; a series must use one fixed offset "
                f"(convert a daylight-saving series to standard time)")
        records.append(RawRecord(timestamp, load, temperature))
    return records


@contextlib.contextmanager
def _atomic_file(path):
    """A file to write that replaces `path` all or nothing when the body
    ends, through `os.replace`; a failed write removes the temporary file,
    and one the file system refuses is a `ConfigError` naming `path`."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w") as fh:
            yield fh
        os.replace(temp, path)
    except BaseException as err:
        temp.unlink(missing_ok=True)
        if isinstance(err, OSError):
            raise ConfigError(f"cannot write {path}: {err.strerror or err}") from err
        raise


def write_atomic(path, text):
    """Replace `path` with `text` all or nothing (see `_atomic_file`)."""
    with _atomic_file(path) as fh:
        fh.write(text)


def write_records_csv(records, path):
    """Emit the strict ingestion schema with shortest round-trip floats."""
    lines = [",".join(CSV_COLUMNS)]
    for record in records:
        lines.append(f"{record.timestamp.isoformat()},{record.load!r},{record.temperature!r}")
    write_atomic(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class HolidayCalendar:
    """Holiday dates; coverage spans the whole calendar years that appear.

    Listing any date of a year declares that year covered, so a calendar
    for 2010..2014 should list each year's holidays (or at least one date
    per year).  Records outside the covered years are rejected rather than
    silently treated as non-holidays.
    """

    dates: frozenset

    def __post_init__(self):
        if not self.dates:
            raise SchemaError("holiday calendar lists no dates")

    @cached_property
    def first_year(self):
        return min(d.year for d in self.dates)

    @cached_property
    def last_year(self):
        return max(d.year for d in self.dates)

    def covers(self, day):
        return self.first_year <= day.year <= self.last_year

    def is_holiday(self, day):
        return day in self.dates

    @classmethod
    def from_dates(cls, days):
        return cls(frozenset(days))

    @classmethod
    def from_file(cls, path):
        return _load(path, "calendar")[0]

    @classmethod
    def _from_text(cls, path, text):
        days = set()
        for line_no, line in enumerate(map(str.strip, text.splitlines()), start=1):
            if not line:
                continue
            try:
                days.add(date.fromisoformat(line))
            except ValueError as err:
                raise ParseError(f"{path}: line {line_no}: {err}") from err
        if not days:
            raise SchemaError(f"{path}: holiday calendar lists no dates")
        return cls(frozenset(days))

    def to_file(self, path):
        write_atomic(path, "\n".join(d.isoformat() for d in sorted(self.dates)) + "\n")


@dataclass(frozen=True)
class FeatureFrame:
    """One hour expanded to the fixed 45-wide feature vector plus target."""

    timestamp: datetime
    features: np.ndarray
    target: float


def build_features(records, calendar):
    """Expand records into feature frames using the holiday calendar."""
    frames = []
    for record in records:
        day = record.timestamp.date()
        if not calendar.covers(day):
            raise CoverageError(
                f"{record.timestamp.isoformat()} outside holiday calendar coverage "
                f"({calendar.first_year}..{calendar.last_year})")
        vec = np.zeros(FEATURE_WIDTH)
        vec[TEMPERATURE_INDEX] = record.temperature
        vec[HOLIDAY_INDEX] = 1.0 if calendar.is_holiday(day) else 0.0
        vec[HOUR_OFFSET + record.timestamp.hour] = 1.0
        vec[WEEKDAY_OFFSET + record.timestamp.weekday()] = 1.0
        vec[MONTH_OFFSET + record.timestamp.month - 1] = 1.0
        frames.append(FeatureFrame(record.timestamp, vec, record.load))
    return frames


@dataclass(frozen=True)
class StandardizationStats:
    """Means and standard deviations of load and temperature, taken from the
    training split only."""

    load_mean: float
    load_std: float
    temperature_mean: float
    temperature_std: float

    def __post_init__(self):
        if not all(math.isfinite(value) for value in vars(self).values()):
            raise DegenerateStatsError(f"statistics must be finite: {self}")
        if self.load_std <= 0.0 or self.temperature_std <= 0.0:
            raise DegenerateStatsError(
                f"standard deviations must be positive "
                f"(load {self.load_std}, temperature {self.temperature_std})")


def compute_stats(frames):
    """Population statistics over `frames`; call on the training split only."""
    if not frames:
        raise SizeError("cannot compute statistics over zero frames")
    loads = np.array([f.target for f in frames])
    temperatures = np.array([f.features[TEMPERATURE_INDEX] for f in frames])
    # A sum of finite values may overflow, which the statistics refuse.
    with np.errstate(over="ignore", invalid="ignore"):
        return StandardizationStats(load_mean=float(loads.mean()),
                                    load_std=float(loads.std()),
                                    temperature_mean=float(temperatures.mean()),
                                    temperature_std=float(temperatures.std()))


def standardize(frames, stats):
    """Scale load and temperature to the training split's zero mean and unit
    variance; one-hot and indicator columns pass through unchanged."""
    out = []
    for frame in frames:
        vec = frame.features.copy()
        vec[TEMPERATURE_INDEX] = ((vec[TEMPERATURE_INDEX] - stats.temperature_mean)
                                  / stats.temperature_std)
        target = (frame.target - stats.load_mean) / stats.load_std
        out.append(FeatureFrame(frame.timestamp, vec, target))
    return out


def destandardize_load(values, stats):
    """Inverse transform from standardized target units back to load units."""
    return np.asarray(values, dtype=np.float64) * stats.load_std + stats.load_mean


@dataclass(frozen=True)
class WindowSample:
    """One forecast instance: a day-aligned history window and the following
    calendar day.

    The history is given once, as `x_hist` rows, whose consecutive day_len
    blocks are the history days; `start` is the first forecast hour.
    """

    x_hist: np.ndarray
    y_hist: np.ndarray
    x_future: np.ndarray
    y_future: np.ndarray
    start: datetime


def build_windows(frames, config, stride=None):
    """Cut forecast samples from a contiguous frame sequence.

    By default one sample per forecast day: the cut points sit at midnight,
    each sample takes `config.history_len` hours of history and the next
    full day as the forecast target.  An explicit `stride` (hours) yields
    denser, unaligned samples for augmentation.
    """
    history_len = config.history_len
    horizon = config.horizon
    if len(frames) < history_len + horizon:
        raise SizeError(
            f"need at least {history_len + horizon} hourly frames "
            f"({config.days} history days plus one forecast day), got {len(frames)}")
    width = frames[0].features.shape[0]
    if width != config.n_features:
        raise DimensionError(
            f"frames carry {width} features but the model expects {config.n_features}")
    if stride is None:
        stride = config.day_len
        cut = history_len
        while cut < len(frames) and frames[cut].timestamp.hour != 0:
            cut += 1
    else:
        if stride < 1:
            raise SizeError(f"stride must be at least one hour, got {stride}")
        cut = history_len

    features = np.stack([f.features for f in frames])
    targets = np.array([f.target for f in frames])
    samples = []
    while cut + horizon <= len(frames):
        samples.append(WindowSample(
            x_hist=features[cut - history_len:cut],
            y_hist=targets[cut - history_len:cut],
            x_future=features[cut:cut + horizon],
            y_future=targets[cut:cut + horizon],
            start=frames[cut].timestamp))
        cut += stride
    if not samples:
        raise SizeError("no window with a full forecast day fits the series")
    return samples


def split_by_forecast_day(samples, start_day, train_days, validation_days, test_days):
    """Partition windows into train/validation/test by their forecast date.

    `start_day` is the first date of the series; a window belongs to the
    split that contains its forecast day, so validation and test windows
    reach back into earlier days for their history.
    """
    train, validation, test = [], [], []
    for sample in samples:
        day_index = (sample.start.date() - start_day).days
        if day_index < train_days:
            train.append(sample)
        elif day_index < train_days + validation_days:
            validation.append(sample)
        elif day_index < train_days + validation_days + test_days:
            test.append(sample)
        else:
            raise SizeError(f"window starting {sample.start.isoformat()} lies beyond "
                            f"the declared splits")
    return train, validation, test


SYNTHETIC_START = datetime(2022, 1, 3)  # a Monday at midnight


def generate_synthetic(days, seed, start=SYNTHETIC_START):
    """Deterministic hourly series with daily, weekly, seasonal, and
    temperature-coupled structure plus seeded noise.

    Loads stay strictly positive and the dominant period is 24 hours, so
    lag-24 autocorrelation beats any non-daily lag.
    """
    if days < 9:
        raise ValueError("need at least 9 days (a history window plus one forecast day)")
    rng = np.random.default_rng(seed)
    records = []
    for hour_index in range(days * DAY_HOURS):
        ts = start + hour_index * HOUR
        hour_frac = ts.hour / DAY_HOURS
        year_frac = (ts.timetuple().tm_yday - 1) / 365.0
        temperature = (11.0
                       - 13.0 * math.cos(2.0 * math.pi * year_frac)
                       + 4.5 * math.sin(2.0 * math.pi * (hour_frac - 0.4))
                       + rng.normal(0.0, 1.2))
        weekend_dip = 90.0 if ts.weekday() >= 5 else 0.0
        heating = max(16.0 - temperature, 0.0)
        cooling = max(temperature - 21.0, 0.0)
        load = (950.0
                + 260.0 * math.sin(2.0 * math.pi * (hour_frac - 0.3))
                - weekend_dip
                + 7.0 * heating
                + 5.0 * cooling
                + rng.normal(0.0, 9.0))
        records.append(RawRecord(ts, load, temperature))
    return records


def synthetic_calendar(records):
    """A holiday calendar covering the records' years, with New Year's Day
    as the single holiday of each year."""
    years = sorted({r.timestamp.year for r in records})
    return HolidayCalendar.from_dates(date(year, 1, 1) for year in years)
