"""Command line behavior, exercised in process through `main`."""

import csv
import dataclasses
import fcntl
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import loadcast.attention
import loadcast.cli as cli
import loadcast.lstm
import loadcast.model
import loadcast.tensor
import loadcast.training
import loadcast.verify
from loadcast.checkpoint import load_checkpoint, save_checkpoint, write_atomic
from loadcast.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_VERIFY, main)
from loadcast.data import (generate_synthetic, ingest_csv, synthetic_calendar,
                           write_records_csv)
from loadcast.errors import EvaluationError
from loadcast.model import init_params
from loadcast.training import WINDOWS_PER_PASS
from loadcast.verify import CheckResult, _check_basic_gradients, _check_model_gradients

# Seed 4 draws a model whose ReLU head stays live, so the epochs differ.
TINY_CONFIG = """
model.days = 2
model.hidden_size = 4
model.feature_attn_size = 2
model.temporal_attn_size = 2
model.head_size = 4
model.seed = 4
train.batch_size = 2
train.epochs = 2
train.learning_rate = 0.01
data.synthetic_seed = 7
data.train_days = 7
data.validation_days = 2
"""


def write_config(directory, out_dir, body=TINY_CONFIG):
    path = directory / "run.conf"
    path.write_text(body + f"output.dir = {out_dir}\n")
    return path


def module_env():
    """The environment for `python -m loadcast` from this checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def assert_live(run_dir, tmp_path):
    """The run's model trains: epoch 2 moves past epoch 1, and the
    checkpoint's forecasts are not one constant."""
    rows = (run_dir / "epochs.csv").read_text().splitlines()
    assert rows[2].split(",")[1:] != rows[3].split(",")[1:]
    data = tmp_path / "live.csv"
    assert main(["synth", "--days", "9", "--seed", "7", "--out", str(data)]) == EXIT_OK
    out = tmp_path / "live"
    assert main(["forecast", "--checkpoint", str(run_dir / "checkpoint.json"),
                 "--data", str(data), "--out", str(out)]) == EXIT_OK
    with open(out / "forecast.csv", newline="") as fh:
        assert len({row["forecast"] for row in csv.DictReader(fh)}) > 1


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny synthetic training run shared by the forecast tests."""
    base = tmp_path_factory.mktemp("trained")
    out = base / "run"
    config = write_config(base, out)
    assert main(["train", "--config", str(config), "--synthetic"]) == EXIT_OK
    return out


class TestSynth:
    def test_writes_ingestible_series(self, tmp_path):
        out = tmp_path / "series.csv"
        holidays = tmp_path / "holidays.txt"
        code = main(["synth", "--days", "9", "--seed", "3", "--out", str(out),
                     "--holidays-out", str(holidays)])
        assert code == EXIT_OK
        records = ingest_csv(out)
        assert len(records) == 9 * 24
        assert holidays.read_text().strip() == "2022-01-01"

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--days", "9", "--seed", "5", "--out", str(a)])
        main(["synth", "--days", "9", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_runs_as_a_module_from_a_checkout(self, tmp_path):
        out = tmp_path / "series.csv"
        result = subprocess.run(
            [sys.executable, "-m", "loadcast", "synth", "--days", "9", "--seed", "1",
             "--out", str(out)],
            cwd=tmp_path, env=module_env(), capture_output=True, text=True, timeout=120)
        assert result.returncode == EXIT_OK, result.stderr
        assert len(ingest_csv(out)) == 9 * 24

    def test_too_few_days_is_a_config_error(self, tmp_path, capsys):
        code = main(["synth", "--days", "3", "--seed", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


class TestTrain:
    def test_writes_all_artifacts(self, trained):
        for name in ("checkpoint.json", "epochs.csv", "validation.txt",
                     "manifest.json"):
            assert (trained / name).exists(), name
        # The lock file stays, but the lock on it went with the run, and no
        # temporary file is left behind.
        assert sorted(p.name for p in trained.iterdir()) == [
            ".lock", "checkpoint.json", "epochs.csv", "manifest.json", "validation.txt"]
        with open(trained / ".lock") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)

    def test_epoch_log_shape(self, trained):
        rows = (trained / "epochs.csv").read_text().splitlines()
        assert rows[0] == "epoch,train_mse,val_mse,seconds"
        assert len(rows) == 1 + 1 + 2  # header, epoch 0, two epochs
        for row in rows[1:]:
            epoch, train_mse, val_mse, seconds = row.split(",")
            assert seconds == "0.0"
            assert float(train_mse) > 0.0 and float(val_mse) > 0.0

    def test_manifest_contents(self, trained):
        doc = json.loads((trained / "manifest.json").read_text())
        assert doc["command"] == "train"
        assert doc["package"]["name"] == "loadcast"
        assert doc["inputs"] == {"synthetic": {"days": 9, "seed": 7}}
        assert doc["config"]["model.hidden_size"] == 4
        assert "checkpoint.json" in doc["artifacts"]
        assert "time" not in json.dumps(doc).lower()

    def test_reruns_are_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["train", "--config", str(write_config(tmp_path, first)),
                     "--synthetic"]) == EXIT_OK
        config2 = tmp_path / "again.conf"
        config2.write_text(TINY_CONFIG + f"output.dir = {second}\n")
        assert main(["train", "--config", str(config2),
                     "--synthetic"]) == EXIT_OK
        assert ((first / "checkpoint.json").read_bytes()
                == (second / "checkpoint.json").read_bytes())
        assert ((first / "epochs.csv").read_bytes()
                == (second / "epochs.csv").read_bytes())
        assert_live(first, tmp_path)

    def test_closed_stdout_does_not_stop_the_run(self, tmp_path):
        """`loadcast train ... | head -1`: once the reader has gone, the
        progress lines stop, and the run still writes every artifact."""
        out = tmp_path / "run"
        with open(tmp_path / "stderr.txt", "w") as err, subprocess.Popen(
                [sys.executable, "-m", "loadcast", "train", "--config",
                 str(write_config(tmp_path, out)), "--synthetic"],
                cwd=tmp_path, env=module_env(), stdout=subprocess.PIPE, stderr=err) as proc:
            assert proc.stdout.readline().startswith(b"training ANLF")
            proc.stdout.close()
            assert proc.wait(timeout=120) == EXIT_OK
        assert (tmp_path / "stderr.txt").read_text() == ""
        assert sorted(p.name for p in out.iterdir()) == [
            ".lock", "checkpoint.json", "epochs.csv", "manifest.json", "validation.txt"]

    def test_locked_output_dir_refused(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        # A lock held through another open file description, as another
        # process's would be.
        with open(out / ".lock", "a") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            code = main(["train", "--config", str(write_config(tmp_path, out)),
                         "--synthetic"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "locked" in err
        assert not (out / "checkpoint.json").exists()

    def test_leftover_lock_file_does_not_block(self, tmp_path):
        # A run killed with SIGKILL leaves the file, but not the lock.
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").touch()
        code = main(["train", "--config", str(write_config(tmp_path, out)),
                     "--synthetic"])
        assert code == EXIT_OK
        assert (out / "checkpoint.json").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "absent.conf"),
                     "--synthetic"])
        assert code == EXIT_CONFIG

    def test_csv_mode_requires_paths(self, tmp_path, capsys):
        code = main(["train", "--config",
                     str(write_config(tmp_path, tmp_path / "out"))])
        assert code == EXIT_CONFIG
        assert "data.train_csv" in capsys.readouterr().err

    def test_csv_path_that_is_a_directory(self, tmp_path, capsys):
        body = TINY_CONFIG + "".join(f"{key} = {tmp_path}\n" for key in (
            "data.train_csv", "data.validation_csv", "data.holidays"))
        code = main(["train", "--config",
                     str(write_config(tmp_path, tmp_path / "out", body))])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "data.train_csv" in err and str(tmp_path) in err

    @pytest.mark.parametrize("key", ["data.test_csv", "model.day_len", "data.synthetic_days",
                                     "data.test_days", "train.beta1", "train.beta2",
                                     "train.epsilon", "train.shuffle"])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, key):
        body = TINY_CONFIG + f"{key} = 24\n"
        code = main(["train", "--config",
                     str(write_config(tmp_path, tmp_path / "out", body)),
                     "--synthetic"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown key" in err and key in err

    def test_split_total_too_short_for_a_window(self, tmp_path, capsys):
        body = TINY_CONFIG.replace("data.train_days = 7", "data.train_days = 6")
        code = main(["train", "--config",
                     str(write_config(tmp_path, tmp_path / "out", body)),
                     "--synthetic"])
        assert code == EXIT_CONFIG
        assert "data.train_days" in capsys.readouterr().err


    @pytest.mark.parametrize("key, value", [
        ("data.train_days", -3), ("data.train_days", 0),
        ("data.validation_days", 0), ("data.stride_hours", 0)])
    def test_split_or_stride_out_of_range_is_a_config_error(self, tmp_path, capsys,
                                                           key, value):
        body = TINY_CONFIG.replace(f"{key} = ", f"# {key} = ") + f"{key} = {value}\n"
        code = main(["train", "--config",
                     str(write_config(tmp_path, tmp_path / "out", body)),
                     "--synthetic"])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_training_split_too_short_for_a_window_is_a_data_error(self, tmp_path, capsys):
        # Two training days cannot hold a two-day history plus a forecast day.
        body = (TINY_CONFIG.replace("data.train_days = 7", "data.train_days = 2")
                .replace("data.validation_days = 2", "data.validation_days = 7"))
        code = main(["train", "--config",
                     str(write_config(tmp_path, tmp_path / "out", body)),
                     "--synthetic"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "72" in err and "got 48" in err
        assert not (tmp_path / "out" / "checkpoint.json").exists()

    @pytest.mark.parametrize("stride", [None, 5])
    def test_csv_and_synthetic_sources_train_alike(self, tmp_path, stride):
        """The same days through either source give the same run: the
        stride cuts training windows only, and validation windows are
        day-aligned and reach into the training days only for history."""
        days, train_days, history_days = 9, 7, 2
        records = generate_synthetic(days, 7)
        write_records_csv(records[:train_days * 24], tmp_path / "train.csv")
        write_records_csv(records[(train_days - history_days) * 24:], tmp_path / "val.csv")
        synthetic_calendar(records).to_file(tmp_path / "holidays.txt")
        body = TINY_CONFIG + ("" if stride is None else f"data.stride_hours = {stride}\n")
        csv_body = body + "".join(f"{key} = {tmp_path / name}\n" for key, name in (
            ("data.train_csv", "train.csv"), ("data.validation_csv", "val.csv"),
            ("data.holidays", "holidays.txt")))
        runs = {}
        for mode, run_body, flags in (("csv", csv_body, []),
                                      ("synthetic", body, ["--synthetic"])):
            runs[mode] = tmp_path / mode
            config = tmp_path / f"{mode}.conf"
            config.write_text(run_body + f"output.dir = {runs[mode]}\n")
            assert main(["train", "--config", str(config), *flags]) == EXIT_OK
        for name in ("checkpoint.json", "epochs.csv"):
            assert ((runs["csv"] / name).read_bytes()
                    == (runs["synthetic"] / name).read_bytes()), name


class TestWriteAtomic:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        write_atomic(path, "previous\n")
        with pytest.raises(UnicodeEncodeError):
            write_atomic(path, "half written \ud800")
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]

    def test_replaces_content(self, tmp_path):
        path = tmp_path / "metrics.txt"
        write_atomic(path, "a\n")
        write_atomic(path, "b\n")
        assert path.read_bytes() == b"b\n"
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.txt"]


class TestForecast:
    def test_end_to_end_metrics_and_csv(self, trained, tmp_path):
        data = tmp_path / "data.csv"
        main(["synth", "--days", "9", "--seed", "7", "--out", str(data)])
        out = tmp_path / "fc"
        code = main(["forecast", "--checkpoint", str(trained / "checkpoint.json"),
                     "--data", str(data), "--out", str(out)])
        assert code == EXIT_OK
        with open(out / "forecast.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # A 9-day series with a 2-day history yields 7 forecast days.
        assert len(rows) == 7 * 24
        for row in rows[:24]:
            assert float(row["actual"]) > 0.0
            assert np.isfinite(float(row["forecast"]))
            assert float(row["relative_error_pct"]) >= 0.0
        metrics = dict(line.split() for line in
                       (out / "metrics.txt").read_text().splitlines())
        assert set(metrics) == {"mae", "rmse", "mape", "nrmse"}
        header, values = (out / "metrics.csv").read_text().splitlines()
        assert header == "mae,rmse,mape,nrmse"
        assert float(values.split(",")[2]) == float(metrics["mape"])

    def test_attention_dumps_are_normalized(self, trained, tmp_path):
        data = tmp_path / "data.csv"
        main(["synth", "--days", "9", "--seed", "7", "--out", str(data)])
        out = tmp_path / "fc"
        code = main(["forecast", "--checkpoint", str(trained / "checkpoint.json"),
                     "--data", str(data), "--out", str(out),
                     "--dump-attention"])
        assert code == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "attention_days.csv", "attention_features.csv", "attention_hours.csv",
            "forecast.csv", "metrics.csv", "metrics.txt"]
        for name, id_cols in (("attention_features.csv", 2),
                              ("attention_hours.csv", 2),
                              ("attention_days.csv", 1)):
            with open(out / name, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0][:id_cols] == ["sample", "step"][:id_cols]
            for row in rows[1:]:
                weights = np.array([float(v) for v in row[id_cols:]])
                assert abs(weights.sum() - 1.0) <= 1e-12
                assert np.all(weights > 0.0)

    def test_attention_dumps_come_from_the_forecast_pass(self, trained, tmp_path,
                                                         monkeypatch):
        data = tmp_path / "data.csv"
        main(["synth", "--days", "9", "--seed", "7", "--out", str(data)])
        passes = []
        original = loadcast.model.forward

        def counted(params, config, samples, *args, **kwargs):
            passes.append(len(samples))
            return original(params, config, samples, *args, **kwargs)

        monkeypatch.setattr(loadcast.model, "forward", counted)
        monkeypatch.setattr(loadcast.training, "forward", counted)
        out = tmp_path / "fc"
        code = main(["forecast", "--checkpoint", str(trained / "checkpoint.json"),
                     "--data", str(data), "--out", str(out), "--dump-attention"])
        assert code == EXIT_OK
        windows = 7
        assert sum(passes) == windows
        assert len(passes) == math.ceil(windows / WINDOWS_PER_PASS)
        rows = (out / "attention_days.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["sample"] + [str(k) for k in range(windows)]

    def test_corrupt_checkpoint(self, tmp_path, capsys):
        bad = tmp_path / "checkpoint.json"
        bad.write_text("{}")
        code = main(["forecast", "--checkpoint", str(bad),
                     "--data", str(tmp_path / "data.csv")])
        assert code == EXIT_CONFIG

    def test_checkpoint_for_other_day_lengths_is_refused(self, trained, tmp_path, capsys):
        # The pipeline cuts 24-hour days; a checkpoint with 45 features and
        # 4-hour days would otherwise forecast 4-hour "days" from them.
        data = tmp_path / "data.csv"
        main(["synth", "--days", "9", "--seed", "7", "--out", str(data)])
        ck = load_checkpoint(trained / "checkpoint.json")
        config = dataclasses.replace(ck.config, day_len=4)
        bad = tmp_path / "checkpoint.json"
        save_checkpoint(bad, config, init_params(config), ck.stats, ck.calendar)
        code = main(["forecast", "--checkpoint", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "fc")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "day_len=4" in err
        assert not (tmp_path / "fc").exists()

    def test_malformed_checkpoint_entry_is_a_config_error(self, trained, tmp_path, capsys):
        doc = json.loads((trained / "checkpoint.json").read_text())
        del doc["params"][0]["name"]
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(doc))
        code = main(["forecast", "--checkpoint", str(bad),
                     "--data", str(tmp_path / "data.csv")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "params entry 0" in err

    def test_malformed_checkpoint_block_is_a_config_error(self, trained, tmp_path, capsys):
        data = tmp_path / "data.csv"
        main(["synth", "--days", "9", "--seed", "7", "--out", str(data)])
        doc = json.loads((trained / "checkpoint.json").read_text())
        doc["standardization"]["load_mean"] = "wide"
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(doc))
        code = main(["forecast", "--checkpoint", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "fc")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "bad standardization block" in err

    def test_overflowing_checkpoint_is_a_config_error(self, trained, tmp_path, capsys):
        # The head overflows to a non-finite forecast; the encoder's gate
        # pre-activations overflow into tanh, which would map them to finite
        # gates and garbage forecasts.
        data = tmp_path / "data.csv"
        main(["synth", "--days", "9", "--seed", "7", "--out", str(data)])
        for block in ("head.hidden", "encoder.forward.weights"):
            doc = json.loads((trained / "checkpoint.json").read_text())
            entry = next(e for e in doc["params"] if e["name"] == block)
            entry["values"] = [1e308] * len(entry["values"])
            bad = tmp_path / block / "checkpoint.json"
            bad.parent.mkdir()
            bad.write_text(json.dumps(doc))
            out = tmp_path / block / "fc"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["forecast", "--checkpoint", str(bad), "--data", str(data),
                             "--out", str(out)])
            assert code == EXIT_CONFIG, block
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], block
            err = capsys.readouterr().err
            assert err.startswith("config error:") and err.count("\n") == 1, block
            assert str(bad) in err and str(data) in err
            assert not out.exists()

    @pytest.mark.parametrize("flag", ["--data", "--holidays"])
    def test_missing_input_file_is_a_config_error(self, trained, tmp_path, capsys, flag):
        data = tmp_path / "data.csv"
        main(["synth", "--days", "9", "--seed", "7", "--out", str(data),
              "--holidays-out", str(tmp_path / "holidays.txt")])
        paths = {"--data": data, "--holidays": tmp_path / "holidays.txt"}
        paths[flag] = tmp_path / "absent" / "file.txt"
        code = main(["forecast", "--checkpoint", str(trained / "checkpoint.json"),
                     "--data", str(paths["--data"]), "--holidays", str(paths["--holidays"]),
                     "--out", str(tmp_path / "fc")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(paths[flag]) in err
        assert not (tmp_path / "fc").exists()

    def test_daylight_saving_series_is_a_data_error(self, trained, tmp_path, capsys):
        # America/New_York springs forward from 01:00-05:00 to 03:00-04:00,
        # one hour later in UTC.
        data = tmp_path / "data.csv"
        data.write_text("timestamp,load,temperature\n"
                        "2022-03-13T00:00:00-05:00,900.0,5.0\n"
                        "2022-03-13T01:00:00-05:00,900.0,5.0\n"
                        "2022-03-13T03:00:00-04:00,900.0,5.0\n")
        code = main(["forecast", "--checkpoint", str(trained / "checkpoint.json"),
                     "--data", str(data), "--out", str(tmp_path / "fc")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "line 4" in err
        assert "2022-03-13T03:00:00-04:00" in err
        assert not (tmp_path / "fc").exists()

    def test_extra_csv_column_is_a_data_error(self, trained, tmp_path, capsys):
        data = tmp_path / "data.csv"
        main(["synth", "--days", "9", "--seed", "7", "--out", str(data)])
        lines = data.read_text().splitlines()
        lines[5] += ",junk"
        data.write_text("\n".join(lines) + "\n")
        code = main(["forecast", "--checkpoint", str(trained / "checkpoint.json"),
                     "--data", str(data), "--out", str(tmp_path / "fc")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "line 6" in err
        assert not (tmp_path / "fc").exists()

    def test_bad_data_is_a_data_error(self, trained, tmp_path, capsys):
        data = tmp_path / "gap.csv"
        data.write_text("timestamp,load,temperature\n"
                        "2022-01-03T00:00:00,100.0,10.0\n"
                        "2022-01-03T02:00:00,100.0,10.0\n")
        code = main(["forecast", "--checkpoint", str(trained / "checkpoint.json"),
                     "--data", str(data), "--out", str(tmp_path / "fc")])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err


class TestVerify:
    def test_prints_table_and_exits_zero_when_green(self, monkeypatch, capsys):
        results = [CheckResult("first check", True, "ok"),
                   CheckResult("second check", True, "ok")]
        monkeypatch.setattr(cli, "run_all_checks", lambda: results)
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS  first check" in out
        assert "2/2 checks passed" in out

    def test_any_failure_exits_five(self, monkeypatch, capsys):
        results = [CheckResult("healthy", True, "ok"),
                   CheckResult("broken", False, "max abs diff 1.0e+00")]
        monkeypatch.setattr(cli, "run_all_checks", lambda: results)
        assert main(["verify"]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "FAIL  broken" in out
        assert "1/2 checks passed" in out

    def test_detects_an_injected_gradient_fault(self, monkeypatch):
        """A wrong tanh derivative must trip the finite-difference check."""
        monkeypatch.setattr(loadcast.tensor, "_tanh_grad",
                            lambda out_values, g: (1.0 - out_values) * g)
        assert not _check_basic_gradients().passed

    def test_passes_unfaulted(self):
        assert _check_basic_gradients().passed

    def test_detects_a_head_relu_rule_that_passes_every_gradient(self, monkeypatch):
        # ANLF at `tiny_model_case` seed 8 has a head unit below the kink
        # (pre-activation -0.058), so the gate sees the wrong rule.
        assert _check_model_gradients().passed
        monkeypatch.setattr(loadcast.lstm, "_relu_grad", lambda x, g: g)
        assert not _check_model_gradients().passed

    def test_nan_gradient_rule_fails_both_gradient_checks(self, monkeypatch):
        # A NaN analytic gradient must fail the check, not compare false
        # against the tolerance and pass.
        for module in (loadcast.tensor, loadcast.lstm, loadcast.attention):
            monkeypatch.setattr(module, "_tanh_grad", lambda out, g: np.full_like(out, np.nan))
        assert not _check_basic_gradients().passed
        report = _check_model_gradients()
        assert not report.passed and report.detail == "max rel error inf"

    def test_a_check_that_raises_is_reported_and_the_rest_still_run(self, monkeypatch,
                                                                    capsys):
        def _check_model_gradients():
            raise EvaluationError("non-finite loss at a perturbed point")

        monkeypatch.setattr(loadcast.verify, "_check_model_gradients", _check_model_gradients)
        assert main(["verify"]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "FAIL  model gradients" in out
        assert "EvaluationError: non-finite loss at a perturbed point" in out
        assert "PASS  metric hand values" in out
        assert "5/6 checks passed" in out
