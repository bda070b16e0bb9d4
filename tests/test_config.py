"""Run-configuration parsing: defaults, typing, and hard errors on typos."""

from pathlib import Path

import pytest

from loadcast.config import parse_run_config
from loadcast.errors import ConfigError
from loadcast.training import TrainConfig


def write_config(tmp_path, body):
    path = tmp_path / "run.conf"
    path.write_text(body)
    return path


class TestHappyPath:
    def test_minimal_config_uses_defaults(self, tmp_path):
        run = parse_run_config(write_config(tmp_path, "output.dir = out\n"))
        assert run.output_dir == Path("out")
        assert run.model.variant == "ANLF"
        assert run.model.days == 7
        assert run.model.day_len == 24
        assert run.model.n_features == 45
        assert run.model.hidden_size == 32
        assert run.training.batch_size == 4
        assert run.training.epochs == 5
        assert run.training.clip_norm == 5.0
        assert run.training == TrainConfig()
        assert (run.train_days, run.validation_days, run.test_days) == (45, 7, 8)
        assert run.train_csv is None

    def test_overrides_and_comments(self, tmp_path):
        run = parse_run_config(write_config(tmp_path, """
# training run for the EDLSTM ablation
model.variant = EDLSTM
model.hidden_size = 8   # small on purpose
train.epochs = 2
train.learning_rate = 0.01
train.shuffle = off
train.clip_norm = none
data.train_csv = data/train.csv
output.dir = runs/ablation
"""))
        assert run.model.variant == "EDLSTM"
        assert run.model.hidden_size == 8
        assert run.training.epochs == 2
        assert run.training.learning_rate == 0.01
        assert run.training.shuffle is False
        assert run.training.clip_norm is None
        assert run.train_csv == Path("data/train.csv")
        assert run.output_dir == Path("runs/ablation")

    def test_raw_echo_is_complete_and_stringly_typed(self, tmp_path):
        run = parse_run_config(write_config(tmp_path,
                                            "output.dir = out\n"
                                            "model.seed = 9\n"))
        assert run.raw["model.seed"] == 9
        assert run.raw["output.dir"] == "out"
        assert set(run.raw) >= {"model.variant", "train.epochs",
                                "data.synthetic_seed"}
        assert len(run.raw) == 25


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_run_config(tmp_path / "absent.conf")

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_config(tmp_path, "output.dir = out\nmodel.hiden_size = 8\n")
        with pytest.raises(ConfigError) as exc:
            parse_run_config(path)
        assert "line 2" in str(exc.value)
        assert "model.hiden_size" in str(exc.value)

    def test_duplicate_key_reports_line(self, tmp_path):
        path = write_config(tmp_path,
                            "output.dir = out\n"
                            "train.epochs = 2\n"
                            "train.epochs = 3\n")
        with pytest.raises(ConfigError) as exc:
            parse_run_config(path)
        assert "line 3" in str(exc.value)
        assert "duplicate" in str(exc.value)

    def test_missing_equals_reports_line(self, tmp_path):
        path = write_config(tmp_path, "output.dir = out\ntrain.epochs 3\n")
        with pytest.raises(ConfigError) as exc:
            parse_run_config(path)
        assert "line 2" in str(exc.value)

    def test_bad_value_names_key_and_line(self, tmp_path):
        path = write_config(tmp_path,
                            "output.dir = out\ntrain.epochs = soon\n")
        with pytest.raises(ConfigError) as exc:
            parse_run_config(path)
        message = str(exc.value)
        assert "line 2" in message and "train.epochs" in message

    def test_bad_variant_lists_choices(self, tmp_path):
        path = write_config(tmp_path,
                            "output.dir = out\nmodel.variant = Transformer\n")
        with pytest.raises(ConfigError) as exc:
            parse_run_config(path)
        assert "ANLF" in str(exc.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_number_rejected(self, tmp_path, value):
        with pytest.raises(ConfigError) as exc:
            parse_run_config(write_config(
                tmp_path, f"output.dir = out\ntrain.learning_rate = {value}\n"))
        assert "line 2" in str(exc.value) and "finite" in str(exc.value)

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_bytes(b"output.dir = \xff\n")
        with pytest.raises(ConfigError):
            parse_run_config(path)

    def test_missing_output_dir(self, tmp_path):
        path = write_config(tmp_path, "train.epochs = 2\n")
        with pytest.raises(ConfigError) as exc:
            parse_run_config(path)
        assert "output.dir" in str(exc.value)

    def test_model_validation_still_applies(self, tmp_path):
        path = write_config(tmp_path,
                            "output.dir = out\nmodel.hidden_size = 0\n")
        with pytest.raises(ConfigError):
            parse_run_config(path)
