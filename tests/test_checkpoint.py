"""Checkpoint serialization: exact round trips and rejection paths."""

import json
from datetime import date

import numpy as np
import numpy.testing as npt
import pytest

from loadcast.checkpoint import (CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
                                 load_checkpoint, save_checkpoint)
from loadcast.data import HolidayCalendar, StandardizationStats
from loadcast.errors import ConfigError
from loadcast.model import ModelConfig, init_params
from loadcast.params import named_leaves

TINY = ModelConfig(days=2, day_len=4, n_features=3, hidden_size=4,
                   feature_attn_size=2, temporal_attn_size=2, head_size=2)


def write_tiny(path, **extras):
    params = init_params(TINY)
    save_checkpoint(path, TINY, params, **extras)
    return params


class TestRoundTrip:
    def test_values_survive_bit_for_bit(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        params = write_tiny(path)
        loaded = load_checkpoint(path)
        assert loaded.config == TINY
        stored = dict(named_leaves(loaded.params))
        for name, arr in named_leaves(params):
            npt.assert_array_equal(stored[name], arr)

    def test_save_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_tiny(a)
        write_tiny(b)
        assert a.read_bytes() == b.read_bytes()

    def test_double_round_trip_is_identity(self, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        write_tiny(first)
        loaded = load_checkpoint(first)
        save_checkpoint(second, loaded.config, loaded.params)
        assert first.read_bytes() == second.read_bytes()

    def test_pipeline_state_round_trips(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        stats = StandardizationStats(load_mean=951.25, load_std=183.0625,
                                     temperature_mean=10.5,
                                     temperature_std=6.333333333333333)
        cal = HolidayCalendar.from_dates([date(2022, 1, 1), date(2022, 7, 4)])
        write_tiny(path, stats=stats, calendar=cal)
        loaded = load_checkpoint(path)
        assert loaded.stats == stats
        assert loaded.calendar.dates == cal.dates

    def test_optional_state_defaults_to_none(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        write_tiny(path)
        loaded = load_checkpoint(path)
        assert loaded.stats is None
        assert loaded.calendar is None


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_checkpoint(tmp_path / "absent.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json {")
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_foreign_document(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(ConfigError) as exc:
            load_checkpoint(path)
        assert CHECKPOINT_FORMAT in str(exc.value)

    def test_future_version(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        write_tiny(path)
        doc = json.loads(path.read_text())
        doc["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as exc:
            load_checkpoint(path)
        assert "version" in str(exc.value)

    def test_missing_parameter_entry(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        write_tiny(path)
        doc = json.loads(path.read_text())
        removed = doc["params"].pop(0)
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as exc:
            load_checkpoint(path)
        assert removed["name"] in str(exc.value)

    def test_unknown_parameter_entry(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        write_tiny(path)
        doc = json.loads(path.read_text())
        doc["params"].append({"name": "intruder", "shape": [1], "values": [0.0]})
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as exc:
            load_checkpoint(path)
        assert "intruder" in str(exc.value)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        write_tiny(path)
        doc = json.loads(path.read_text())
        entry = doc["params"][0]
        entry["shape"] = [1, int(np.prod(entry["shape"]))]
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as exc:
            load_checkpoint(path)
        assert entry["name"] in str(exc.value)

    def test_bad_config_block(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        write_tiny(path)
        doc = json.loads(path.read_text())
        del doc["config"]["hidden_size"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["params"][0].pop("name"),
        lambda doc: doc["params"][0]["values"].pop(),
        lambda doc: doc["params"][0]["values"].__setitem__(0, "oops"),
        lambda doc: doc.__setitem__("params", {"encoder": doc["params"]}),
    ], ids=["missing-name", "values-do-not-fit-shape", "non-numeric-values",
            "params-not-a-list"])
    def test_malformed_params_block(self, tmp_path, corrupt):
        path = tmp_path / "checkpoint.json"
        write_tiny(path)
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)
        assert "params" in str(exc.value)

    @pytest.mark.parametrize("block, value", [
        ("holidays", ["not-a-date"]),
        ("holidays", 5),
        ("standardization", {"load_mean": "1.0", "load_std": 1.0,
                             "temperature_mean": 0.0, "temperature_std": 1.0}),
    ], ids=["holiday-not-a-date", "holidays-not-a-list", "string-in-standardization"])
    def test_malformed_pipeline_block(self, tmp_path, block, value):
        path = tmp_path / "checkpoint.json"
        write_tiny(path, stats=StandardizationStats(1.0, 2.0, 3.0, 4.0),
                   calendar=HolidayCalendar.from_dates([date(2022, 1, 1)]))
        doc = json.loads(path.read_text())
        doc[block] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)
        assert f"bad {block} block" in str(exc.value)
