"""Checkpoint serialization: exact round trips, the version-1 upgrade and
rejection paths."""

import dataclasses
import json
import tracemalloc
from datetime import date

import numpy as np
import numpy.testing as npt
import pytest

from loadcast.checkpoint import (CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
                                 load_checkpoint, save_checkpoint)
from loadcast.data import HolidayCalendar, StandardizationStats
from loadcast.errors import ConfigError
from loadcast.model import VARIANTS, ModelConfig, init_params, predict
from loadcast.params import named_leaves
from loadcast.verify import tiny_model_case

TINY = ModelConfig(days=2, day_len=4, n_features=3, hidden_size=4,
                   feature_attn_size=2, temporal_attn_size=2, head_size=2)


def write_tiny(path, **extras):
    params = init_params(TINY)
    save_checkpoint(path, TINY, params, **extras)
    return params


def v1_document(config, params, dead):
    """A version-1 document for `params`, built by hand: each LSTM
    direction as sixteen named blocks (w_ix .. w_oh, then b_ix .. b_oh),
    and `dead` as the feature-attention columns that faced the encoder's
    zero backward state."""
    entries = []

    def add(name, arr):
        entries.append({"name": name, "shape": list(arr.shape), "values": arr.reshape(-1).tolist()})

    for name, arr in named_leaves(params):
        prefix, field = name.rsplit(".", 1)
        if field in ("weights", "b_x", "b_h"):
            hidden = arr.shape[0] // 4
            gates = {gate: arr[k * hidden:(k + 1) * hidden] for k, gate in enumerate("ifgo")}
            if field == "weights":
                width = arr.shape[1] - hidden
                for gate, rows in gates.items():
                    add(f"{prefix}.w_{gate}x", rows[:, :width])
                for gate, rows in gates.items():
                    add(f"{prefix}.w_{gate}h", rows[:, width:])
            else:
                for gate, rows in gates.items():
                    add(f"{prefix}.b_{gate}{field[-1]}", rows)
        elif name == "feature_attn.proj":
            hidden = config.hidden_size
            add(name, np.concatenate((arr[:, :hidden], dead, arr[:, hidden:]), axis=1))
        else:
            add(name, arr)
    return {"format": CHECKPOINT_FORMAT, "version": 1, "config": dataclasses.asdict(config),
            "standardization": None, "holidays": None, "params": entries}


def write_v1(path, config):
    params = init_params(config)
    dead = np.random.default_rng(5).normal(size=(config.feature_attn_size, config.hidden_size))
    path.write_text(json.dumps(v1_document(config, params, dead)))
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

    def test_parameter_entries_are_one_line_each(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        params = write_tiny(path)
        lines = path.read_text().splitlines()
        names = [name for name, _ in named_leaves(params)]
        entries = [json.loads(line.strip().rstrip(",")) for line in lines
                   if line.lstrip().startswith('{"name"')]
        assert [entry["name"] for entry in entries] == names
        assert json.loads(path.read_text())["version"] == CHECKPOINT_VERSION == 2

    def test_optional_state_defaults_to_none(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        write_tiny(path)
        loaded = load_checkpoint(path)
        assert loaded.stats is None
        assert loaded.calendar is None


class TestStreaming:
    def test_save_holds_pieces_of_an_entry_not_the_file(self, tmp_path):
        # At the default size the head's hidden block holds 49,152 values,
        # so entries span many writes.
        config = ModelConfig(days=7, day_len=24, n_features=45, hidden_size=32,
                             feature_attn_size=16, temporal_attn_size=16, head_size=32)
        params = init_params(config)
        texts = [json.dumps({"name": name, "shape": list(leaf.shape),
                             "values": leaf.reshape(-1).tolist()})
                 for name, leaf in named_leaves(params)]
        largest = max(len(text) for text in texts)
        path = tmp_path / "checkpoint.json"
        tracemalloc.start()
        try:
            save_checkpoint(path, config, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines = [line.strip().rstrip(",") for line in path.read_text().splitlines()
                 if line.lstrip().startswith('{"name"')]
        assert lines == texts
        assert peak < 2 * largest
        assert peak < path.stat().st_size / 2

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        write_tiny(path)
        before = path.read_bytes()
        params = init_params(TINY)
        params.head.out = np.array([["not a number"]])
        with pytest.raises(ValueError):
            save_checkpoint(path, TINY, params)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]


class TestVersion1:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_named_blocks_load_as_the_packed_layout(self, tmp_path, variant):
        config, sample = tiny_model_case(variant)
        path = tmp_path / "v1.json"
        params = write_v1(path, config)
        loaded = load_checkpoint(path)
        stored = dict(named_leaves(loaded.params))
        assert stored.keys() == dict(named_leaves(params)).keys()
        for name, arr in named_leaves(params):
            npt.assert_array_equal(stored[name], arr)
        npt.assert_array_equal(predict(loaded.params, config, sample).values,
                               predict(params, config, sample).values)

    def test_upgraded_checkpoint_saves_as_version_2(self, tmp_path):
        write_v1(tmp_path / "v1.json", TINY)
        loaded = load_checkpoint(tmp_path / "v1.json")
        save_checkpoint(tmp_path / "v2.json", loaded.config, loaded.params)
        write_tiny(tmp_path / "fresh.json")
        assert (tmp_path / "v2.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()

    @pytest.mark.parametrize("corrupt, named", [
        (lambda doc: doc["params"].pop(_index(doc, "encoder.forward.w_gh")),
         "encoder.forward.w_gh"),
        (lambda doc: _entry(doc, "decoder.backward.b_oh").update(shape=[2, 2]),
         "decoder.backward.b_oh"),
        (lambda doc: _entry(doc, "feature_attn.proj").update(
            shape=[2, 8], values=_entry(doc, "feature_attn.proj")["values"][:16]),
         "feature_attn.proj"),
        (lambda doc: doc["params"].append({"name": "encoder.forward.weights", "shape": [1],
                                           "values": [0.0]}),
         "encoder.forward.weights"),
    ], ids=["missing-block", "misshapen-block", "proj-without-dead-columns",
            "version-2-name"])
    def test_malformed_version_1_document(self, tmp_path, corrupt, named):
        path = tmp_path / "v1.json"
        write_v1(path, TINY)
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)
        assert named in str(exc.value)


def _entry(doc, name):
    return doc["params"][_index(doc, name)]


def _index(doc, name):
    return [entry["name"] for entry in doc["params"]].index(name)


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

    def test_non_finite_parameter_value(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        write_tiny(path)
        doc = json.loads(path.read_text())
        _entry(doc, "head.out")["values"][0] = float("nan")
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text()
        with pytest.raises(ConfigError) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)
        assert "head.out" in str(exc.value) and "non-finite" in str(exc.value)

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
        lambda doc: doc["params"][0].__setitem__("name", 5),
    ], ids=["missing-name", "values-do-not-fit-shape", "non-numeric-values",
            "params-not-a-list", "name-not-a-string"])
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
