"""Command line behavior, exercised in process through `main`."""

import ast
import csv
import ctypes
import dataclasses
import fcntl
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import loadcast.attention
import loadcast.cli as cli
import loadcast.data
import loadcast.lstm
import loadcast.model
import loadcast.tensor
import loadcast.training
import loadcast.verify
from loadcast.checkpoint import load_checkpoint, save_checkpoint
from loadcast.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_TRAINING, EXIT_VERIFY, main)
from loadcast.data import (generate_synthetic, ingest_csv, synthetic_calendar, write_atomic,
                           write_records_csv)
from loadcast.errors import EvaluationError
from loadcast.lstm import LstmParams, LstmState, lstm_cell_step
from loadcast.model import init_params
from loadcast.tensor import Tensor, check_gradients, concat, hadamard, total
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
"""
# A synthetic run's generated series; a CSV run refuses these keys.
SYNTHETIC_KEYS = """
data.synthetic_seed = 7
data.train_days = 7
data.validation_days = 2
"""
SYNTHETIC_CONFIG = TINY_CONFIG + SYNTHETIC_KEYS
# The smallest synthetic run found whose artifacts differ between one and
# two OpenBLAS threads when the package leaves the count as it finds it: of
# the hidden widths tried (4, 8, 16, 20, 24, 32), 24 is the least that does.
THREAD_SENSITIVE_CONFIG = """
model.days = 2
model.hidden_size = 24
train.epochs = 1
data.train_days = 7
data.validation_days = 2
"""


def write_config(directory, out_dir, body=SYNTHETIC_CONFIG):
    path = directory / "run.conf"
    path.write_text(body + f"output.dir = {out_dir}\n")
    return path


SOURCES = Path(__file__).resolve().parent.parent / "src"


def module_env():
    """The environment for `python -m loadcast` from this checkout."""
    path = [str(SOURCES)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
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


def blas_threads():
    """numpy's OpenBLAS thread-count getter and setter, through ctypes."""
    core = getattr(np, "_core", None) or np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
        get, set_threads = (lib.scipy_openblas_get_num_threads64_,
                            lib.scipy_openblas_set_num_threads64_)
    except (AttributeError, OSError):
        pytest.skip("numpy's BLAS has no OpenBLAS thread setter")
    get.argtypes, get.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get, set_threads


class TestBlasThreads:
    def test_artifacts_do_not_depend_on_the_starting_thread_count(self, tmp_path, monkeypatch):
        # A process at two threads writes what one at one thread writes,
        # runs at one, and is left at the count it had.
        get, set_threads = blas_threads()
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        previous, runs = get(), []
        try:
            for threads in (1, 2):
                set_threads(threads)
                assert get() == threads
                out, directory = tmp_path / f"run{threads}", tmp_path / f"conf{threads}"
                directory.mkdir()
                assert main(["train", "--config", str(write_config(
                    directory, out, THREAD_SENSITIVE_CONFIG)), "--synthetic"]) == EXIT_OK
                assert get() == threads
                runs.append(out)
        finally:
            set_threads(previous)
        for name in ("checkpoint.json", "epochs.csv", "validation.txt"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
        for out in runs:
            assert json.loads((out / "manifest.json").read_text())[
                "environment"]["blas_threads"] == 1

    def test_an_explicit_thread_count_is_honoured(self, tmp_path):
        out = tmp_path / "run"
        env = {**module_env(), "OPENBLAS_NUM_THREADS": "2"}
        env.pop("OMP_NUM_THREADS", None)
        done = subprocess.run([sys.executable, "-m", "loadcast", "train", "--config",
                               str(write_config(tmp_path, out)), "--synthetic"],
                              cwd=tmp_path, env=env, capture_output=True)
        assert done.returncode == EXIT_OK, done.stderr
        assert json.loads((out / "manifest.json").read_text())[
            "environment"]["blas_threads"] == 2

    def test_a_blas_without_the_setter_runs_as_it_is(self, tmp_path, monkeypatch):
        get, _set_threads = blas_threads()
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        find = cli._openblas
        monkeypatch.setattr(cli, "_openblas", lambda name, *types: (
            None if name == "scipy_openblas_set_num_threads64_" else find(name, *types)))
        out = tmp_path / "run"
        assert main(["train", "--config", str(write_config(tmp_path, out)),
                     "--synthetic"]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())[
            "environment"]["blas_threads"] == get()


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
        err = capsys.readouterr().err
        assert "config error" in err
        assert err == ("config error: --days 3: need at least 9 days (a history window plus "
                       "one forecast day)\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("spelling", ["same", "relative-and-absolute"])
    def test_one_path_for_both_outputs_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                                         spelling):
        # The calendar would overwrite the series; nothing is written.
        monkeypatch.chdir(tmp_path)
        holidays = "s.csv" if spelling == "same" else str(tmp_path / "s.csv")
        code = main(["synth", "--days", "20", "--seed", "1", "--out", "s.csv",
                     "--holidays-out", holidays])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == ("config error: --out and --holidays-out name the "
                                           "same file, s.csv; the calendar would overwrite "
                                           "the series\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--holidays-out"])
    def test_empty_output_path_is_a_config_error_naming_the_flag(self, tmp_path, monkeypatch,
                                                                 capsys, flag):
        # `Path("")` is the current directory, which no output flag means.
        monkeypatch.chdir(tmp_path)
        paths = {"--out": "s.csv", "--holidays-out": "h.txt", flag: ""}
        code = main(["synth", "--days", "9", "--seed", "1",
                     *[part for item in paths.items() for part in item]])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (f"config error: {flag}: expected a path, got an "
                                           f"empty value\n")
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_is_a_config_error_naming_the_flag(self, tmp_path, capsys):
        code = main(["synth", "--days", "9", "--seed", "-1", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == ("config error: --seed must be a nonnegative "
                                           "integer, got -1\n")
        assert not (tmp_path / "x.csv").exists()


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

    def test_manifest_records_each_artifact_sha256(self, trained):
        doc = json.loads((trained / "manifest.json").read_text())
        assert sorted(doc["artifact_sha256"]) == sorted(doc["artifacts"])
        for name, digest in doc["artifact_sha256"].items():
            assert digest == hashlib.sha256((trained / name).read_bytes()).hexdigest(), name

    def test_artifact_hashes_leave_the_artifacts_unchanged(self, tmp_path, monkeypatch):
        # The hashes are read once the artifacts are written, and go into
        # the manifest alone: a run whose manifest records none writes the
        # same artifacts.
        runs = []
        for hashed in (True, False):
            if not hashed:
                monkeypatch.setattr(cli, "_sha256", lambda _path: None)
            out = tmp_path / f"run{len(runs)}"
            directory = tmp_path / f"conf{len(runs)}"
            directory.mkdir()
            assert main(["train", "--config", str(write_config(directory, out)),
                         "--synthetic"]) == EXIT_OK
            runs.append(out)
        for name in ("checkpoint.json", "epochs.csv", "validation.txt"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
        unhashed = json.loads((runs[1] / "manifest.json").read_text())["artifact_sha256"]
        assert set(unhashed.values()) == {None}

    def test_manifest_records_the_environment(self, trained):
        env = json.loads((trained / "manifest.json").read_text())["environment"]
        assert sorted(env) == ["blas_config", "blas_name", "blas_threads", "blas_version",
                               "nproc", "numpy", "python"]
        assert env["python"] == ".".join(str(v) for v in sys.version_info[:3])
        assert env["numpy"] == np.__version__
        for key in ("blas_name", "blas_version", "blas_config"):
            assert env[key] is None or isinstance(env[key], str), key
        for key in ("blas_threads", "nproc"):
            assert env[key] is None or (type(env[key]) is int and env[key] >= 1), key
        if hasattr(os, "sched_getaffinity"):
            assert env["nproc"] == len(os.sched_getaffinity(0))

    def test_environment_fields_are_null_when_unavailable(self, monkeypatch):
        def no_library(*_args, **_kwargs):
            raise OSError("no such library")

        def no_mode(*_args, **_kwargs):
            raise TypeError("show_config() got an unexpected keyword argument 'mode'")

        monkeypatch.setattr(cli.ctypes, "CDLL", no_library)
        monkeypatch.setattr(cli.np, "show_config", no_mode)
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        env = cli._environment()
        assert env == {"python": env["python"], "numpy": np.__version__, "blas_name": None,
                       "blas_version": None, "blas_config": None, "blas_threads": None,
                       "nproc": None}
        assert isinstance(env["python"], str)

    def test_environment_block_leaves_the_artifacts_unchanged(self, tmp_path, monkeypatch):
        # The block is read at run time and written to the manifest alone:
        # a run that reads another environment writes the same artifacts.
        runs, read = [], cli._environment
        for environment in (read, lambda: dict.fromkeys(read())):
            out = tmp_path / f"run{len(runs)}"
            monkeypatch.setattr(cli, "_environment", environment)
            directory = tmp_path / f"conf{len(runs)}"
            directory.mkdir()
            assert main(["train", "--config", str(write_config(directory, out)),
                         "--synthetic"]) == EXIT_OK
            runs.append(out)
        for name in ("checkpoint.json", "epochs.csv", "validation.txt"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
        first, second = (json.loads((out / "manifest.json").read_text()) for out in runs)
        assert set(second["environment"].values()) == {None}
        assert first["environment"] != second["environment"]
        first.pop("environment"), second.pop("environment")
        first.pop("config"), second.pop("config")
        first.pop("config_file"), second.pop("config_file")
        assert first == second

    def test_reruns_are_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["train", "--config", str(write_config(tmp_path, first)),
                     "--synthetic"]) == EXIT_OK
        config2 = tmp_path / "again.conf"
        config2.write_text(SYNTHETIC_CONFIG + f"output.dir = {second}\n")
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

    def test_lock_file_that_cannot_be_opened_is_one_config_error_line(self, tmp_path, capsys):
        out = tmp_path / "run"
        (out / ".lock").mkdir(parents=True)
        code = main(["train", "--config", str(write_config(tmp_path, out)), "--synthetic"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert str(out / ".lock") in err
        assert not (out / "checkpoint.json").exists()

    @pytest.mark.parametrize("key", ["data.train_csv", "data.validation_csv", "data.holidays"])
    def test_synthetic_run_refuses_a_csv_source_key(self, tmp_path, capsys, monkeypatch, key):
        def generate(*_args):
            raise AssertionError("data generated")

        monkeypatch.setattr(cli, "generate_synthetic", generate)
        body = SYNTHETIC_CONFIG + f"{key} = {tmp_path / 'absent.csv'}\n"
        code = main(["train", "--config", str(write_config(tmp_path, tmp_path / "out", body)),
                     "--synthetic"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1 and key in err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("case", ["missing-train-csv", "synthetic-with-holidays",
                                      "train-csv-not-utf8"])
    def test_source_error_leaves_no_output_dir(self, tmp_path, capsys, case):
        data, holidays = tmp_path / "data.csv", tmp_path / "holidays.txt"
        main(["synth", "--days", "9", "--seed", "7", "--out", str(data),
              "--holidays-out", str(holidays)])
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe2022-01-01\n")
        capsys.readouterr()
        csv_keys = "".join(f"{key} = {value}\n" for key, value in (
            ("data.train_csv", bad), ("data.validation_csv", data), ("data.holidays", holidays)))
        body, flags, code, message = {
            "missing-train-csv": (
                TINY_CONFIG, [], EXIT_CONFIG,
                "config error: missing required key data.train_csv (or pass --synthetic)"),
            "synthetic-with-holidays": (
                SYNTHETIC_CONFIG + f"data.holidays = {holidays}\n", ["--synthetic"], EXIT_CONFIG,
                "config error: data.holidays is set, but --synthetic generates the data"),
            "train-csv-not-utf8": (
                TINY_CONFIG + csv_keys, [], EXIT_DATA,
                f"data error: {bad}: not a readable CSV file: 'utf-8' codec can't decode"
                " byte 0xff in position 0: invalid start byte"),
        }[case]
        out = tmp_path / "out"
        assert main(["train", "--config", str(write_config(tmp_path, out, body)), *flags]) == code
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

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
                     str(write_config(tmp_path, tmp_path / "out", TINY_CONFIG))])
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

    @pytest.mark.parametrize("key", ["data.train_csv", "data.validation_csv", "data.holidays"])
    def test_csv_key_naming_a_directory_says_it_is_one(self, tmp_path, capsys, key):
        data, holidays = tmp_path / "data.csv", tmp_path / "holidays.txt"
        main(["synth", "--days", "9", "--seed", "7", "--out", str(data),
              "--holidays-out", str(holidays)])
        paths = {"data.train_csv": data, "data.validation_csv": data, "data.holidays": holidays}
        paths[key] = tmp_path / "adir"
        paths[key].mkdir()
        body = TINY_CONFIG + "".join(f"{name} = {path}\n" for name, path in paths.items())
        code = main(["train", "--config", str(write_config(tmp_path, tmp_path / "out", body))])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{key} points to a directory, not a file: {paths[key]}" in err
        assert "missing" not in err

    @pytest.mark.parametrize("key", ["data.test_csv", "model.day_len", "data.synthetic_days",
                                     "data.test_days", "train.beta1", "train.beta2",
                                     "train.epsilon", "train.shuffle"])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, key):
        body = SYNTHETIC_CONFIG + f"{key} = 24\n"
        code = main(["train", "--config",
                     str(write_config(tmp_path, tmp_path / "out", body)),
                     "--synthetic"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown key" in err and key in err

    def test_split_total_too_short_for_a_window(self, tmp_path, capsys):
        body = SYNTHETIC_CONFIG.replace("data.train_days = 7", "data.train_days = 6")
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
        body = SYNTHETIC_CONFIG.replace(f"{key} = ", f"# {key} = ") + f"{key} = {value}\n"
        code = main(["train", "--config",
                     str(write_config(tmp_path, tmp_path / "out", body)),
                     "--synthetic"])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_training_split_too_short_for_a_window_is_a_data_error(self, tmp_path, capsys):
        # Two training days cannot hold a two-day history plus a forecast day.
        body = (SYNTHETIC_CONFIG.replace("data.train_days = 7", "data.train_days = 2")
                .replace("data.validation_days = 2", "data.validation_days = 7"))
        code = main(["train", "--config",
                     str(write_config(tmp_path, tmp_path / "out", body)),
                     "--synthetic"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "72" in err and "got 48" in err
        assert not (tmp_path / "out" / "checkpoint.json").exists()

    def test_diverging_run_is_one_training_error_line(self, tmp_path, capsys):
        body = (SYNTHETIC_CONFIG.replace("train.learning_rate = 0.01",
                                         "train.learning_rate = 1e300")
                .replace("data.train_days = 7", "data.train_days = 12"))
        code = main(["train", "--config",
                     str(write_config(tmp_path, tmp_path / "out", body)), "--synthetic"])
        assert code == EXIT_TRAINING
        err = capsys.readouterr().err
        assert err.startswith("training error:") and err.count("\n") == 1
        assert not (tmp_path / "out" / "checkpoint.json").exists()

    @pytest.mark.parametrize("found", ["missing", "missing-beside-another-run", "empty",
                                       "earlier-run"])
    def test_failed_run_leaves_output_dir_as_found(self, tmp_path, capsys, monkeypatch, found):
        # A run that diverges after taking the lock removes the directories
        # it made, or else the lock file it made, and nothing else.
        holder = tmp_path / "holder"
        out, beside = holder / "out", holder / "beside"
        if found == "missing-beside-another-run":
            real_train = cli.train

            def train_beside_another_run(*args):
                # Another run makes its own directory in `holder` meanwhile.
                beside.mkdir()
                (beside / ".lock").touch()
                (beside / "checkpoint.json").write_text("{}\n")
                return real_train(*args)

            monkeypatch.setattr(cli, "train", train_beside_another_run)
        elif found == "empty":
            out.mkdir(parents=True)
        elif found == "earlier-run":
            assert main(["train", "--config", str(write_config(tmp_path, out)),
                         "--synthetic"]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
        body = (SYNTHETIC_CONFIG.replace("train.learning_rate = 0.01",
                                         "train.learning_rate = 1e300")
                .replace("data.train_days = 7", "data.train_days = 12"))
        capsys.readouterr()
        code = main(["train", "--config", str(write_config(tmp_path, out, body)), "--synthetic"])
        assert code == EXIT_TRAINING
        assert capsys.readouterr().err.startswith("training error: divergence at epoch 1")
        if found == "missing":
            assert not holder.exists()
        elif found == "missing-beside-another-run":
            assert sorted(p.name for p in holder.iterdir()) == ["beside"]
            assert {p.name: p.read_bytes() for p in beside.iterdir()} == {
                ".lock": b"", "checkpoint.json": b"{}\n"}
        else:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        if found == "earlier-run":
            assert ".lock" in before and "checkpoint.json" in before

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["INT", "TERM"])
    def test_signal_is_one_line_and_leaves_no_output_dir(self, tmp_path, signum):
        # The epoch lines print only once training ends, so the signal
        # arrives mid-training.  SIGINT is reset to its default in the
        # child, since a runner in the background may hand it down ignored.
        out = tmp_path / "holder" / "run"
        body = SYNTHETIC_CONFIG.replace("train.epochs = 2", "train.epochs = 1000")
        with subprocess.Popen(
                [sys.executable, "-m", "loadcast", "train", "--config",
                 str(write_config(tmp_path, out, body)), "--synthetic"],
                cwd=tmp_path, env=module_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL)) as proc:
            assert proc.stdout.readline().startswith(b"training ANLF")
            proc.send_signal(signum)
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 128 + signum
        assert err.decode() == f"train: interrupted by {signum.name}\n"
        assert not (tmp_path / "holder").exists()
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["INT", "TERM"])
    def test_signal_while_writing_an_artifact_keeps_the_earlier_run(
            self, tmp_path, capsys, monkeypatch, signum):
        # A rerun writes the same checkpoint, then is signalled halfway
        # through its epoch log's temporary file.
        out = tmp_path / "run"
        config = write_config(tmp_path, out)
        assert main(["train", "--config", str(config), "--synthetic"]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def write_then_signal(path, text):
            with loadcast.data._atomic_file(path) as fh:
                fh.write(text[:len(text) // 2])
                fh.flush()
                os.kill(os.getpid(), signum)

        def escape(_signum, _frame):
            raise RuntimeError("SIGTERM got past main")

        monkeypatch.setattr(cli, "write_atomic", write_then_signal)
        capsys.readouterr()
        # A signal that got past `main` fails this test, not the session.
        # SIGINT gets Python's own handler, which a runner in the
        # background may have replaced by ignoring it.
        previous = signal.signal(signal.SIGTERM, escape)
        previous_int = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            code = main(["train", "--config", str(config), "--synthetic"])
        except (KeyboardInterrupt, RuntimeError) as err:
            code = repr(err)
        finally:
            restored = signal.signal(signal.SIGTERM, previous)
            signal.signal(signal.SIGINT, previous_int)
        assert code == 128 + signum
        assert capsys.readouterr().err == f"train: interrupted by {signum.name}\n"
        assert restored is escape
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("key", ["data.synthetic_seed", "data.train_days",
                                     "data.validation_days"])
    def test_csv_run_refuses_a_synthetic_key(self, tmp_path, capsys, key):
        data, holidays = tmp_path / "data.csv", tmp_path / "holidays.txt"
        main(["synth", "--days", "9", "--seed", "7", "--out", str(data),
              "--holidays-out", str(holidays)])
        capsys.readouterr()
        body = TINY_CONFIG + f"{key} = 3\n" + "".join(f"{name} = {path}\n" for name, path in (
            ("data.train_csv", data), ("data.validation_csv", data), ("data.holidays", holidays)))
        out = tmp_path / "out"
        assert main(["train", "--config", str(write_config(tmp_path, out, body))]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {key} is set, but only --synthetic reads it\n")
        assert not out.exists()

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
                                      ("synthetic", body + SYNTHETIC_KEYS, ["--synthetic"])):
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

    def test_no_package_module_writes_a_file_around_it(self):
        # `Path.write_text` and `write_bytes` leave a half-written file
        # behind a failure; every file the package writes goes through
        # `write_atomic` instead.
        calls = [f"{path.relative_to(SOURCES)}:{node.lineno}"
                 for path in sorted(SOURCES.rglob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr in ("write_text", "write_bytes")]
        assert not calls, f"direct file writes: {calls}"


@pytest.mark.parametrize("case, code", [
    ("forecast-checkpoint-not-utf8", EXIT_CONFIG),
    ("forecast-holidays-not-utf8", EXIT_DATA),
    ("train-holidays-not-utf8", EXIT_DATA),
    ("synth-out-in-a-missing-dir", EXIT_CONFIG),
    ("forecast-out-is-a-file", EXIT_CONFIG),
    ("train-output-dir-is-a-file", EXIT_CONFIG)])
def test_broken_path_is_one_typed_error_line(trained, tmp_path, capsys, case, code):
    data = tmp_path / "data.csv"
    main(["synth", "--days", "9", "--seed", "7", "--out", str(data)])
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe2022-01-01\n")
    capsys.readouterr()

    def forecast(flag):
        flags = {"--checkpoint": trained / "checkpoint.json", "--data": data,
                 "--out": tmp_path / "fc", flag: bad}
        return ["forecast"] + [str(arg) for pair in flags.items() for arg in pair]

    csv_keys = "".join(f"{key} = {value}\n" for key, value in (
        ("data.train_csv", data), ("data.validation_csv", data), ("data.holidays", bad)))
    named = tmp_path / "absent" / "x.csv" if case.startswith("synth") else bad
    argv = {
        "forecast-checkpoint-not-utf8": lambda: forecast("--checkpoint"),
        "forecast-holidays-not-utf8": lambda: forecast("--holidays"),
        "train-holidays-not-utf8": lambda: ["train", "--config", str(write_config(
            tmp_path, tmp_path / "out", TINY_CONFIG + csv_keys))],
        "synth-out-in-a-missing-dir": lambda: ["synth", "--days", "9", "--seed", "7",
                                               "--out", str(named)],
        "forecast-out-is-a-file": lambda: forecast("--out"),
        "train-output-dir-is-a-file": lambda: ["train", "--config",
                                               str(write_config(tmp_path, bad)), "--synthetic"],
    }[case]()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("config error:" if code == EXIT_CONFIG else "data error:")
    assert str(named) in err


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

    def test_locked_output_dir_refused(self, trained, tmp_path, capsys):
        data = tmp_path / "data.csv"
        main(["synth", "--days", "9", "--seed", "7", "--out", str(data)])
        out = tmp_path / "fc"
        out.mkdir()
        capsys.readouterr()
        # A lock held through another open file description, as another
        # process's would be.
        with open(out / ".lock", "a") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            code = main(["forecast", "--checkpoint", str(trained / "checkpoint.json"),
                         "--data", str(data), "--out", str(out)])
        assert code == EXIT_CONFIG
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.count("\n") == 1
        assert err.startswith("config error:") and "locked" in err
        assert [p.name for p in out.iterdir()] == [".lock"]

    def test_empty_out_is_a_config_error_naming_the_flag(self, trained, tmp_path, monkeypatch,
                                                         capsys):
        # `Path("")` would be the current directory; nothing is written.
        data = tmp_path / "data.csv"
        main(["synth", "--days", "9", "--seed", "7", "--out", str(data)])
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        capsys.readouterr()
        code = main(["forecast", "--checkpoint", str(trained / "checkpoint.json"),
                     "--data", str(data), "--out", ""])
        assert code == EXIT_CONFIG
        assert capsys.readouterr() == ("", "config error: --out: expected a path, got an "
                                           "empty value\n")
        assert list(work.iterdir()) == []

    def test_reforecasts_are_byte_identical(self, trained, tmp_path):
        data = tmp_path / "data.csv"
        main(["synth", "--days", "9", "--seed", "7", "--out", str(data)])
        runs = [tmp_path / "first", tmp_path / "second"]
        for out in runs:
            assert main(["forecast", "--checkpoint", str(trained / "checkpoint.json"),
                         "--data", str(data), "--out", str(out), "--dump-attention"]) == EXIT_OK
        first, second = ({p.name: p.read_bytes() for p in out.iterdir()} for out in runs)
        assert first == second and len(first) == 7

    def test_attention_dumps_are_normalized(self, trained, tmp_path):
        data = tmp_path / "data.csv"
        main(["synth", "--days", "9", "--seed", "7", "--out", str(data)])
        out = tmp_path / "fc"
        code = main(["forecast", "--checkpoint", str(trained / "checkpoint.json"),
                     "--data", str(data), "--out", str(out),
                     "--dump-attention"])
        assert code == EXIT_OK
        # The lock file stays, as `train`'s does.
        assert sorted(p.name for p in out.iterdir()) == [
            ".lock", "attention_days.csv", "attention_features.csv", "attention_hours.csv",
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

    def test_boolean_checkpoint_value_is_a_config_error(self, trained, tmp_path, capsys):
        doc = json.loads((trained / "checkpoint.json").read_text())
        doc["params"][0]["values"][0] = True
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(doc))
        code = main(["forecast", "--checkpoint", str(bad),
                     "--data", str(tmp_path / "data.csv")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {bad}: params entry 0 (name 'feature_attn.proj') is malformed: "
            f"TypeError: it holds a boolean\n")

    @pytest.mark.parametrize("variant", ["EDBiLSTM", "EDLSTM"])
    def test_dump_attention_without_an_attention_stage_is_a_config_error(
            self, trained, tmp_path, capsys, variant):
        # Refused before the data is read (this path does not exist) or
        # --out is made.
        ck = load_checkpoint(trained / "checkpoint.json")
        config = dataclasses.replace(ck.config, variant=variant)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, config, init_params(config), ck.stats, ck.calendar)
        out = tmp_path / "fc"
        code = main(["forecast", "--checkpoint", str(path), "--data", str(tmp_path / "absent.csv"),
                     "--out", str(out), "--dump-attention"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: --dump-attention: variant {variant} has no attention stage\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("flag", ["--data", "--holidays"])
    def test_input_naming_a_directory_says_it_is_one(self, trained, tmp_path, capsys, flag):
        data = tmp_path / "data.csv"
        main(["synth", "--days", "9", "--seed", "7", "--out", str(data),
              "--holidays-out", str(tmp_path / "holidays.txt")])
        paths = {"--data": data, "--holidays": tmp_path / "holidays.txt"}
        paths[flag] = tmp_path / "adir"
        paths[flag].mkdir()
        code = main(["forecast", "--checkpoint", str(trained / "checkpoint.json"),
                     "--data", str(paths["--data"]), "--holidays", str(paths["--holidays"]),
                     "--out", str(tmp_path / "fc")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: {flag} points to a directory, not a file: {paths[flag]}\n"
        assert not (tmp_path / "fc").exists()

    def test_holidays_override_is_the_calendar_used(self, trained, tmp_path):
        data = tmp_path / "data.csv"
        main(["synth", "--days", "9", "--seed", "7", "--out", str(data),
              "--holidays-out", str(tmp_path / "same.txt")])
        (tmp_path / "more.txt").write_text("2022-01-01\n2022-01-07\n")
        forecasts = {}
        for name in (None, "same.txt", "more.txt"):
            out = tmp_path / f"fc-{name}"
            flags = [] if name is None else ["--holidays", str(tmp_path / name)]
            assert main(["forecast", "--checkpoint", str(trained / "checkpoint.json"),
                         "--data", str(data), "--out", str(out), *flags]) == EXIT_OK
            forecasts[name] = (out / "forecast.csv").read_bytes()
        # The checkpoint's own calendar is the synthetic one.
        assert forecasts["same.txt"] == forecasts[None]
        assert forecasts["more.txt"] != forecasts[None]

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

    def test_detects_a_head_relu_rule_that_passes_every_gradient(self, monkeypatch,
                                                                 seed8_gate):
        # ANLF at `tiny_model_case` seed 8 has a head unit below the kink
        # (pre-activation -0.058), so the gate sees the wrong rule.
        assert seed8_gate.check.passed
        monkeypatch.setattr(loadcast.lstm, "_relu_grad", lambda x, g: g)
        check = _check_model_gradients()
        # The failing detail names the block with the largest error, and
        # that block's worst scalar with both of its derivatives.
        assert not check.passed
        assert check.detail == ("max rel error 2.00e+00, worst block encoder.forward.weights, "
                                "scalar [15, 4]: analytic -7.714e-06, numeric 7.735e-06")

    def test_nan_gradient_rule_fails_both_gradient_checks(self, monkeypatch):
        # A NaN analytic gradient must fail the check, not compare false
        # against the tolerance and pass.
        for module in (loadcast.tensor, loadcast.attention):
            monkeypatch.setattr(module, "_tanh_grad", lambda out, g: np.full_like(out, np.nan))
        assert not _check_basic_gradients().passed
        report = _check_model_gradients()
        assert not report.passed
        assert report.detail == ("max rel error inf, worst block feature_attn.proj, scalar [0, 0]: "
                                 "analytic nan, numeric 2.635e-05")

    def test_a_corrupted_walk_fails_both_gradient_checks(self, monkeypatch):
        # The cell and every sequence op take their gate gradients from
        # `_bptt`: its f-gate block scaled by 1 + 1e-3 must fail the cell's
        # finite differences and the model's.
        bptt = loadcast.lstm._bptt

        def corrupted(*args, **kwargs):
            d_pre, dh0, dc0 = bptt(*args, **kwargs)
            hidden = dc0.shape[-2]
            d_pre[..., hidden:2 * hidden, :] *= 1.0 + 1e-3
            return d_pre, dh0, dc0

        monkeypatch.setattr(loadcast.lstm, "_bptt", corrupted)
        rng = np.random.default_rng(20)
        cell = LstmParams.random(rng, 3, 4, bound=1.0)
        arrays = {"weights": cell.weights, "x": rng.normal(size=3),
                  "h_prev": rng.normal(size=4), "c_prev": rng.normal(size=4)}
        probe = Tensor(rng.normal(size=8))

        def program(leaves):
            out = lstm_cell_step(LstmParams(leaves["weights"], cell.b_x, cell.b_h),
                                 LstmState(leaves["h_prev"], leaves["c_prev"]), leaves["x"])
            return total(hadamard(concat([out.h, out.c]), probe))

        assert not check_gradients(program, arrays, tolerance=1e-6).passed
        check = _check_model_gradients()
        assert not check.passed
        assert ", worst block encoder.forward.weights, scalar [" in check.detail

    def test_verdicts_are_plain_bools_that_serialize(self, seed8_gate):
        results = seed8_gate.results
        assert [type(r.passed) for r in results] == [bool] * len(results)
        assert json.loads(json.dumps([r.passed for r in results])) == [True] * len(results)

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
