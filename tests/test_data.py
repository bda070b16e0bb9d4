"""Ingestion, feature layout, windowing, splits, and the synthetic series."""

import re
from datetime import date, datetime, timedelta, timezone

import numpy as np
import numpy.testing as npt
import pytest

from loadcast.data import (FEATURE_WIDTH, HOLIDAY_INDEX, HOUR_OFFSET,
                           MONTH_OFFSET, SYNTHETIC_START, TEMPERATURE_INDEX,
                           WEEKDAY_OFFSET, HolidayCalendar, RawRecord,
                           build_features, build_windows, compute_stats,
                           destandardize_load, generate_synthetic, ingest_csv,
                           split_by_forecast_day, standardize,
                           synthetic_calendar, write_records_csv)
from loadcast.errors import (ContinuityError, CoverageError,
                             DegenerateStatsError, DimensionError, ParseError,
                             SchemaError, SizeError)
from loadcast.model import ModelConfig

CONFIG = ModelConfig(days=7, day_len=24, n_features=FEATURE_WIDTH,
                     hidden_size=4, feature_attn_size=2, temporal_attn_size=2,
                     head_size=2)


def hourly_records(hours, start=SYNTHETIC_START, load=100.0):
    return [RawRecord(start + timedelta(hours=i), load + i, 10.0)
            for i in range(hours)]


def frames_for(days, start=SYNTHETIC_START):
    records = generate_synthetic(max(days, 9), seed=3, start=start)[:days * 24]
    return build_features(records, synthetic_calendar(records))


class TestIngest:
    def test_round_trip(self, tmp_path):
        records = generate_synthetic(9, seed=1)
        path = tmp_path / "series.csv"
        write_records_csv(records, path)
        again = ingest_csv(path)
        assert len(again) == len(records)
        for a, b in zip(records, again):
            assert a.timestamp == b.timestamp
            assert a.load == b.load
            assert a.temperature == b.temperature

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "series.csv"
        write_records_csv(generate_synthetic(9, seed=1), path)
        plain = ingest_csv(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert ingest_csv(path) == plain

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            ingest_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,demand,temp\n")
        with pytest.raises(SchemaError) as exc:
            ingest_csv(path)
        assert "timestamp,load,temperature" in str(exc.value)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,load,temperature\n"
                        "2022-01-03T00:00:00,100.0,10.0\n"
                        "2022-01-03T01:00:00,not-a-number,10.0\n")
        with pytest.raises(ParseError) as exc:
            ingest_csv(path)
        assert "line 3" in str(exc.value)

    def test_nonpositive_load_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,load,temperature\n"
                        "2022-01-03T00:00:00,0.0,10.0\n")
        with pytest.raises(ParseError) as exc:
            ingest_csv(path)
        assert "line 2" in str(exc.value)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,load,temperature\n"
                        "2022-01-03T00:00:00,inf,10.0\n")
        with pytest.raises(ParseError):
            ingest_csv(path)

    def test_gap_reports_first_break(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("timestamp,load,temperature\n"
                        "2022-01-03T00:00:00,100.0,10.0\n"
                        "2022-01-03T01:00:00,100.0,10.0\n"
                        "2022-01-03T03:00:00,100.0,10.0\n")
        with pytest.raises(ContinuityError) as exc:
            ingest_csv(path)
        assert "2022-01-03T03:00:00" in str(exc.value)

    def test_missing_column_is_a_parse_error(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("timestamp,load,temperature\n"
                        "2022-01-03T00:00:00,100.0\n")
        with pytest.raises(ParseError) as exc:
            ingest_csv(path)
        assert "line 2" in str(exc.value)

    def test_extra_field_is_a_parse_error(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("timestamp,load,temperature\n"
                        "2022-01-01T00:00,900,5\n"
                        "2022-01-01T01:00,900,5,junk\n")
        with pytest.raises(ParseError) as exc:
            ingest_csv(path)
        assert "line 3" in str(exc.value) and "got 4" in str(exc.value)

    @pytest.mark.parametrize("body", [b"2022-01-03T00:00:00,100.0,\xff\n",
                                      b"2022-01-03T00:00:00,100.0,1\x00\n"])
    def test_unreadable_row_is_a_parse_error(self, tmp_path, body):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"timestamp,load,temperature\n" + body)
        with pytest.raises(ParseError):
            ingest_csv(path)

    def test_a_field_past_the_csv_limit_is_a_parse_error(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("timestamp,load,temperature\n"
                        "2022-01-03T00:00:00," + "1" * 200_000 + ",10.0\n")
        with pytest.raises(ParseError, match="not a readable CSV file: field larger than"):
            ingest_csv(path)

    def test_mixed_offset_awareness_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("timestamp,load,temperature\n"
                        "2022-01-03T00:00:00+00:00,100.0,10.0\n"
                        "2022-01-03T01:00:00+00:00,100.0,10.0\n"
                        "2022-01-03T02:00:00,100.0,10.0\n")
        with pytest.raises(ParseError) as exc:
            ingest_csv(path)
        assert "line 4" in str(exc.value)
        assert "line 2" in str(exc.value)

    def test_utc_offset_change_is_a_parse_error(self, tmp_path):
        # America/New_York across its 2022-03-13 spring-forward: the series
        # advances by one hour in UTC, but the local day of the change has
        # 23 hours.  The first -04:00 hour, 07:00 UTC, is on line 28.
        path = tmp_path / "dst.csv"
        lines = ["timestamp,load,temperature"]
        lines += [f"{stamp},900.0,5.0" for stamp in new_york_hours(datetime(2022, 3, 12, 5), 48)]
        path.write_text("\n".join(lines) + "\n")
        assert "T01:00:00-05:00" in lines[26] and "T03:00:00-04:00" in lines[27]
        with pytest.raises(ParseError) as exc:
            ingest_csv(path)
        assert "line 28" in str(exc.value) and "line 2's" in str(exc.value)
        assert "2022-03-13T03:00:00-04:00" in str(exc.value)


def new_york_hours(start_utc, count):
    """ISO timestamps of `count` hours from the naive UTC `start_utc`, in
    America/New_York local time for March 2022 (UTC-4 from 2022-03-13
    07:00 UTC, UTC-5 before)."""
    stamps = []
    for k in range(count):
        utc = start_utc + timedelta(hours=k)
        hours = -4 if utc >= datetime(2022, 3, 13, 7) else -5
        zone = timezone(timedelta(hours=hours))
        stamps.append((utc + timedelta(hours=hours)).replace(tzinfo=zone).isoformat())
    return stamps


class TestHolidayCalendar:
    def test_coverage_spans_listed_years(self):
        cal = HolidayCalendar.from_dates([date(2022, 1, 1), date(2024, 12, 25)])
        assert cal.covers(date(2022, 7, 4))
        assert cal.covers(date(2023, 6, 1))
        assert not cal.covers(date(2021, 12, 31))
        assert not cal.covers(date(2025, 1, 1))

    def test_is_holiday_exact_dates_only(self):
        cal = HolidayCalendar.from_dates([date(2022, 1, 1)])
        assert cal.is_holiday(date(2022, 1, 1))
        assert not cal.is_holiday(date(2022, 1, 2))

    def test_empty_calendar_rejected(self):
        with pytest.raises(SchemaError):
            HolidayCalendar.from_dates([])

    def test_file_round_trip(self, tmp_path):
        cal = HolidayCalendar.from_dates([date(2022, 1, 1), date(2022, 7, 4)])
        path = tmp_path / "holidays.txt"
        cal.to_file(path)
        assert HolidayCalendar.from_file(path).dates == cal.dates

    def test_file_skips_blank_lines_and_still_counts_them(self, tmp_path):
        path = tmp_path / "holidays.txt"
        path.write_text("\n2022-01-01\n  \n\n2022-07-04\n\n")
        assert HolidayCalendar.from_file(path).dates == {date(2022, 1, 1), date(2022, 7, 4)}
        path.write_text("\n2022-01-01\n  \n\nnot-a-date\n")
        with pytest.raises(ParseError, match=r": line 5: "):
            HolidayCalendar.from_file(path)

    def test_file_drops_a_leading_byte_order_mark(self, tmp_path):
        path = tmp_path / "holidays.txt"
        path.write_bytes(b"\xef\xbb\xbf2022-01-01\n2022-07-04\n")
        assert HolidayCalendar.from_file(path).dates == {date(2022, 1, 1), date(2022, 7, 4)}

    def test_file_without_dates_is_named(self, tmp_path):
        path = tmp_path / "holidays.txt"
        path.write_text("\n  \n")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: holiday calendar "
                                              f"lists no dates$"):
            HolidayCalendar.from_file(path)

    def test_file_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "holidays.txt"
        path.write_text("2022-01-01\nnot-a-date\n")
        with pytest.raises(ParseError) as exc:
            HolidayCalendar.from_file(path)
        assert "line 2" in str(exc.value)


class TestFeatures:
    def test_layout(self):
        record = RawRecord(datetime(2022, 1, 3, 15), 100.0, -3.5)
        cal = HolidayCalendar.from_dates([date(2022, 1, 1)])
        frame = build_features([record], cal)[0]
        vec = frame.features
        assert vec.shape == (FEATURE_WIDTH,)
        assert vec[TEMPERATURE_INDEX] == -3.5
        assert vec[HOLIDAY_INDEX] == 0.0
        assert vec[HOUR_OFFSET + 15] == 1.0
        assert vec[WEEKDAY_OFFSET + 0] == 1.0  # 2022-01-03 is a Monday
        assert vec[MONTH_OFFSET + 0] == 1.0
        assert frame.target == 100.0

    def test_one_hot_groups_sum_to_one(self):
        frames = frames_for(9)
        mat = np.stack([f.features for f in frames])
        npt.assert_array_equal(mat[:, HOUR_OFFSET:HOUR_OFFSET + 24].sum(axis=1),
                               np.ones(len(frames)))
        npt.assert_array_equal(
            mat[:, WEEKDAY_OFFSET:WEEKDAY_OFFSET + 7].sum(axis=1),
            np.ones(len(frames)))
        npt.assert_array_equal(
            mat[:, MONTH_OFFSET:MONTH_OFFSET + 12].sum(axis=1),
            np.ones(len(frames)))

    def test_holiday_flag_set_on_holiday(self):
        record = RawRecord(datetime(2022, 1, 1, 8), 100.0, 5.0)
        cal = HolidayCalendar.from_dates([date(2022, 1, 1)])
        assert build_features([record], cal)[0].features[HOLIDAY_INDEX] == 1.0

    def test_uncovered_year_rejected(self):
        record = RawRecord(datetime(2025, 6, 1), 100.0, 5.0)
        cal = HolidayCalendar.from_dates([date(2022, 1, 1)])
        with pytest.raises(CoverageError) as exc:
            build_features([record], cal)
        assert "2025" in str(exc.value)


class TestStandardization:
    def test_train_split_becomes_zero_mean_unit_std(self):
        frames = frames_for(12)
        stats = compute_stats(frames)
        scaled = standardize(frames, stats)
        loads = np.array([f.target for f in scaled])
        temps = np.array([f.features[TEMPERATURE_INDEX] for f in scaled])
        assert abs(loads.mean()) < 1e-10
        assert abs(loads.std() - 1.0) < 1e-10
        assert abs(temps.mean()) < 1e-10
        assert abs(temps.std() - 1.0) < 1e-10

    def test_indicator_columns_untouched(self):
        frames = frames_for(9)
        scaled = standardize(frames, compute_stats(frames))
        for raw, cooked in zip(frames, scaled):
            npt.assert_array_equal(raw.features[HOLIDAY_INDEX:],
                                   cooked.features[HOLIDAY_INDEX:])

    def test_load_round_trip(self):
        frames = frames_for(9)
        stats = compute_stats(frames)
        loads = np.array([f.target for f in frames])
        scaled = np.array([f.target for f in standardize(frames, stats)])
        npt.assert_allclose(destandardize_load(scaled, stats), loads, rtol=1e-12)

    def test_constant_series_rejected(self):
        records = [RawRecord(SYNTHETIC_START + timedelta(hours=i), 100.0, 10.0)
                   for i in range(24)]
        cal = HolidayCalendar.from_dates([date(2022, 1, 1)])
        with pytest.raises(DegenerateStatsError):
            compute_stats(build_features(records, cal))

    def test_no_frames_rejected(self):
        with pytest.raises(SizeError):
            compute_stats([])


class TestWindows:
    def test_nine_days_give_two_samples(self):
        samples = build_windows(frames_for(9), CONFIG)
        assert len(samples) == 2
        assert samples[0].start == SYNTHETIC_START + timedelta(days=7)
        assert samples[1].start == SYNTHETIC_START + timedelta(days=8)

    def test_eight_days_give_one_sample(self):
        assert len(build_windows(frames_for(8), CONFIG)) == 1

    def test_seven_days_too_short(self):
        with pytest.raises(SizeError):
            build_windows(frames_for(7), CONFIG)

    def test_window_contents_are_consecutive(self):
        frames = frames_for(9)
        sample = build_windows(frames, CONFIG)[0]
        npt.assert_array_equal(sample.y_hist,
                               [f.target for f in frames[:168]])
        npt.assert_array_equal(sample.y_future,
                               [f.target for f in frames[168:192]])
        npt.assert_array_equal(sample.x_hist[0], frames[0].features)
        assert sample.x_hist.shape == (168, FEATURE_WIDTH)

    def test_default_cut_aligns_to_midnight(self):
        # Drop the first 5 hours; the first usable cut then moves to the
        # next midnight rather than sitting at history_len.
        frames = frames_for(10)[5:]
        samples = build_windows(frames, CONFIG)
        assert all(s.start.hour == 0 for s in samples)
        assert len(samples) == 2

    def test_no_full_forecast_day_after_the_first_midnight_rejected(self):
        # Long enough for one window, but the midnight cut leaves 23 hours.
        frames = frames_for(9)[5:-1]
        assert len(frames) >= CONFIG.history_len + CONFIG.horizon
        with pytest.raises(SizeError, match="^no window with a full forecast day fits the "
                                            "series$"):
            build_windows(frames, CONFIG)

    def test_hourly_stride_densifies(self):
        frames = frames_for(9)
        hourly = build_windows(frames, CONFIG, stride=1)
        assert len(hourly) == 9 * 24 - 168 - 24 + 1
        starts = [s.start for s in hourly]
        assert starts[1] - starts[0] == timedelta(hours=1)

    def test_bad_stride_rejected(self):
        with pytest.raises(SizeError):
            build_windows(frames_for(9), CONFIG, stride=0)

    def test_width_mismatch_rejected(self):
        config = ModelConfig(days=7, day_len=24, n_features=10, hidden_size=4,
                             feature_attn_size=2, temporal_attn_size=2,
                             head_size=2)
        with pytest.raises(DimensionError):
            build_windows(frames_for(9), config)


class TestSplit:
    def test_counts_for_sixty_days(self):
        config = CONFIG
        samples = build_windows(frames_for(60), config)
        assert len(samples) == 53
        train, val, test = split_by_forecast_day(samples, SYNTHETIC_START.date(),
                                                 45, 7, 8)
        assert (len(train), len(val), len(test)) == (38, 7, 8)

    def test_validation_windows_reach_back_into_training_days(self):
        samples = build_windows(frames_for(60), CONFIG)
        _, val, _ = split_by_forecast_day(samples, SYNTHETIC_START.date(),
                                          45, 7, 8)
        first = val[0]
        assert (first.start.date() - SYNTHETIC_START.date()).days == 45
        # Its history starts 7 days earlier, inside the training span.
        assert first.y_hist.shape == (168,)

    def test_window_beyond_splits_rejected(self):
        samples = build_windows(frames_for(60), CONFIG)
        with pytest.raises(SizeError):
            split_by_forecast_day(samples, SYNTHETIC_START.date(), 40, 7, 5)

    def test_splits_are_disjoint_and_ordered(self):
        samples = build_windows(frames_for(60), CONFIG)
        train, val, test = split_by_forecast_day(samples, SYNTHETIC_START.date(),
                                                 45, 7, 8)
        assert max(s.start for s in train) < min(s.start for s in val)
        assert max(s.start for s in val) < min(s.start for s in test)


class TestSynthetic:
    def test_deterministic_in_seed(self):
        a = generate_synthetic(9, seed=4)
        b = generate_synthetic(9, seed=4)
        assert all(x.load == y.load and x.temperature == y.temperature
                   for x, y in zip(a, b))
        c = generate_synthetic(9, seed=5)
        assert any(x.load != y.load for x, y in zip(a, c))

    def test_loads_strictly_positive(self):
        assert all(r.load > 0.0 for r in generate_synthetic(60, seed=6))

    def test_hourly_continuity_and_start(self):
        records = generate_synthetic(9, seed=7)
        assert records[0].timestamp == SYNTHETIC_START
        assert SYNTHETIC_START.weekday() == 0
        deltas = {b.timestamp - a.timestamp
                  for a, b in zip(records, records[1:])}
        assert deltas == {timedelta(hours=1)}

    def test_weekends_run_lighter(self):
        records = generate_synthetic(28, seed=8)
        weekday = np.mean([r.load for r in records if r.timestamp.weekday() < 5])
        weekend = np.mean([r.load for r in records if r.timestamp.weekday() >= 5])
        assert weekday - weekend > 50.0

    def test_daily_cycle_dominates(self):
        loads = np.array([r.load for r in generate_synthetic(30, seed=9)])
        centered = loads - loads.mean()

        def autocorr(lag):
            return float(np.dot(centered[:-lag], centered[lag:])
                         / np.dot(centered, centered))

        assert autocorr(24) > autocorr(13)
        assert autocorr(24) > 0.5

    def test_too_few_days_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(8, seed=0)

    def test_synthetic_calendar_lists_new_year(self):
        records = generate_synthetic(9, seed=0,
                                     start=datetime(2022, 12, 26))
        cal = synthetic_calendar(records)
        assert cal.is_holiday(date(2022, 1, 1))
        assert cal.is_holiday(date(2023, 1, 1))
        assert cal.covers(date(2023, 1, 2))
