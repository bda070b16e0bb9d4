"""Run-configuration parsing: defaults, typing, and hard errors on typos."""

from pathlib import Path

import pytest

from loadcast.config import _KEYS, parse_run_config
from loadcast.errors import ConfigError
from loadcast.model import VARIANTS
from loadcast.training import TrainConfig

README = Path(__file__).resolve().parent.parent / "README.md"


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
        assert (run.train_days, run.validation_days) == (45, 7)
        assert not hasattr(run, "test_days")
        assert run.train_csv is None

    def test_overrides_and_comments(self, tmp_path):
        run = parse_run_config(write_config(tmp_path, """
# training run for the EDLSTM ablation
model.variant = EDLSTM
model.hidden_size = 8   # small on purpose
train.epochs = 2
train.learning_rate = 0.01
train.seed = 3
train.clip_norm = none
data.train_csv = data/train.csv
output.dir = runs/ablation
"""))
        assert run.model.variant == "EDLSTM"
        assert run.model.hidden_size == 8
        assert run.training.epochs == 2
        assert run.training.learning_rate == 0.01
        assert run.training.seed == 3
        assert run.training.clip_norm is None
        assert run.train_csv == Path("data/train.csv")
        assert run.output_dir == Path("runs/ablation")

    def test_clip_norm_takes_a_number(self, tmp_path):
        run = parse_run_config(write_config(tmp_path, "output.dir = out\ntrain.clip_norm = 2.5\n"))
        assert run.training.clip_norm == 2.5

    def test_raw_echo_is_complete_and_stringly_typed(self, tmp_path):
        run = parse_run_config(write_config(tmp_path,
                                            "output.dir = out\n"
                                            "model.seed = 9\n"))
        assert run.raw["model.seed"] == 9
        assert run.raw["output.dir"] == "out"
        assert set(run.raw) >= {"model.variant", "train.epochs",
                                "data.synthetic_seed"}
        assert len(run.raw) == 20


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

    @pytest.mark.parametrize("key", ["train.learning_rate", "train.clip_norm"])
    def test_non_numeric_number_rejected(self, tmp_path, key):
        with pytest.raises(ConfigError) as exc:
            parse_run_config(write_config(tmp_path, f"output.dir = out\n{key} = fast\n"))
        assert "line 2" in str(exc.value) and "expected a number, got 'fast'" in str(exc.value)

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

    @pytest.mark.parametrize("key", ["output.dir", "data.train_csv", "data.validation_csv",
                                     "data.holidays"])
    def test_empty_path_value_names_the_key_and_line(self, tmp_path, key):
        # An empty path would otherwise be `Path('.')`, the current directory.
        body = "train.epochs = 2\n" + ("" if key == "output.dir" else "output.dir = out\n")
        with pytest.raises(ConfigError) as exc:
            parse_run_config(write_config(tmp_path, body + f"{key} =  # unset\n"))
        line = 2 if key == "output.dir" else 3
        assert f"line {line}: {key}: expected a path, got an empty value" in str(exc.value)

    @pytest.mark.parametrize("key", [key for key, spec in _KEYS.items()
                                     if spec.at_least is not None])
    def test_value_below_its_bound_names_the_key(self, tmp_path, key):
        least = _KEYS[key].at_least
        with pytest.raises(ConfigError) as exc:
            parse_run_config(write_config(tmp_path, f"output.dir = out\n{key} = {least - 1}\n"))
        assert f"{key} must be at least {least}" in str(exc.value)

    def test_model_validation_still_applies(self, tmp_path):
        path = write_config(tmp_path,
                            "output.dir = out\nmodel.hidden_size = 0\n")
        with pytest.raises(ConfigError):
            parse_run_config(path)


def readme_config_rows():
    """(keys, default cell) for each row of the README's run-configuration
    table; a shorthand key such as `validation_days` takes the prefix of its
    row's first key."""
    section = README.read_text(encoding="utf-8").split("## Run configuration\n", 1)[1]
    rows = []
    for line in section.split("\n## ", 1)[0].splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].startswith("`"):
            continue
        names = [name.strip().strip("`") for name in cells[0].split(" / ")]
        prefix = names[0].split(".")[0]
        rows.append(([name if "." in name else f"{prefix}.{name}" for name in names],
                     cells[1]))
    return rows


def plain_literal(cell):
    """(True, value) for a number, `true`/`false` or a variant name;
    (False, None) for prose such as `unset`."""
    text = cell.strip("`")
    if text in ("true", "false"):
        return True, text == "true"
    if text in VARIANTS:
        return True, text
    try:
        return True, float(text)
    except ValueError:
        return False, None


class TestReadmeTable:
    def test_keys_match_the_schema(self):
        keys = [key for row_keys, _ in readme_config_rows() for key in row_keys]
        assert sorted(keys) == sorted(_KEYS)

    def test_literal_defaults_match(self):
        """Every set default is shown as a plain literal equal to it; an
        unset one is described in words."""
        for keys, cell in readme_config_rows():
            parts = cell.split(" / ")
            for key, part in zip(keys, parts if len(parts) == len(keys) else [cell] * len(keys)):
                is_literal, value = plain_literal(part)
                assert is_literal == (_KEYS[key].default is not None), (key, cell)
                if is_literal:
                    assert value == _KEYS[key].default, (key, cell)

    def test_full_data_recipe_parses(self, tmp_path):
        """The recipe's keys and values are ones the config accepts."""
        section = README.read_text(encoding="utf-8").split("## Full-data recipe\n", 1)[1]
        recipe = section.split("```\n", 2)[1]
        run = parse_run_config(write_config(tmp_path, recipe + "output.dir = out\n"))
        assert run.model.hidden_size == 256 and run.training.batch_size == 128
