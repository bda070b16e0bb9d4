"""Command line: train, forecast, verify, synth.

Exit codes group failures by class: 2 for configuration problems, 3 for
data problems, 4 for training failures, and 5 for verification failures.
A command ended by SIGINT or SIGTERM exits 128 plus the signal number,
130 or 143, after the same cleanup as any failure.
The epoch log's `seconds` column is written as 0.0 because the log is part
of the byte-reproducibility contract (two identical runs must produce
identical files); wall-clock timings go to the console instead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import fcntl
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import sys
from datetime import timedelta
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import parse_run_config
from .data import (DAY_HOURS, FEATURE_WIDTH, HolidayCalendar, build_features, build_windows,
                   compute_stats, generate_synthetic, ingest_csv, standardize,
                   synthetic_calendar, write_atomic, write_records_csv)
from .errors import CompatibilityError, ConfigError, DataError, EvaluationError, TrainingError
from .metrics import MetricReport, relative_error
from .training import evaluate, train
from .verify import run_all_checks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4
EXIT_VERIFY = 5


@contextlib.contextmanager
def _output_lock(out_dir):
    """Make `out_dir` if need be and hold an exclusive `flock` on
    `out_dir/.lock` while `train` or `forecast` writes its files.

    The lock belongs to the open file, so the OS drops it when the process
    ends, however it ends; the file itself stays.  A lock file that cannot
    be opened or locked (a directory, say) is a `ConfigError` naming it.
    If the body fails once the lock is held, the run leaves the directory
    as it found it: it removes `out_dir`, which it holds locked, if it made
    it, then each parent it made while that is empty, so a directory
    another run writes beside `out_dir` stays; or else the lock file, if
    it made that.  What cannot be removed stays, and the body's error is
    the one raised.
    """
    made = list(itertools.takewhile(lambda p: not p.exists(), (out_dir, *out_dir.parents)))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        why = err.strerror or err
        raise ConfigError(f"cannot make output directory {out_dir}: {why}") from None
    path = out_dir / ".lock"
    created = not path.exists()
    try:
        fh = open(path, "a")
    except OSError as err:
        raise ConfigError(f"cannot open lock file {path}: {err.strerror or err}") from None
    with fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(f"output directory {out_dir} is locked by another run") from None
        except OSError as err:
            raise ConfigError(f"cannot lock {path}: {err.strerror or err}") from None
        try:
            yield out_dir
        except BaseException:
            with contextlib.suppress(OSError):
                if made:
                    shutil.rmtree(out_dir)
                    for parent in made[1:]:
                        os.rmdir(parent)
                elif created:
                    path.unlink()
            raise


def _say(text):
    """Print to stdout.  Once the reader of stdout has gone, the rest goes
    to the null device, so the command still finishes its work."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _csv_sources(run):
    """The keys naming the CSV sources, each with its value in `run`."""
    return (("data.train_csv", run.train_csv), ("data.validation_csv", run.validation_csv),
            ("data.holidays", run.holidays))


# The keys that size and seed the generated series.
_SYNTHETIC_KEYS = ("data.synthetic_seed", "data.train_days", "data.validation_days")


def _prepare_synthetic(run):
    """The generated training frames, and the validation frames with the
    `model.days` training days before them as history.  A set CSV-source
    key is a `ConfigError`, since the run would not read it."""
    for key, value in _csv_sources(run):
        if value is not None:
            raise ConfigError(f"{key} is set, but --synthetic generates the data")
    days = run.train_days + run.validation_days
    try:
        records = generate_synthetic(days, run.synthetic_seed)
    except ValueError as err:
        raise ConfigError(f"data.train_days + validation_days: {err}") from None
    calendar = synthetic_calendar(records)
    frames = build_features(records, calendar)
    split = run.train_days * DAY_HOURS
    fingerprint = {"synthetic": {"days": days, "seed": run.synthetic_seed}}
    return (frames[:split], frames[max(split - run.model.history_len, 0):],
            calendar, fingerprint)


def _output_path(flag, value):
    """The path the output flag `flag` names, if given; an empty value, which
    `Path` reads as the current directory, is a `ConfigError`."""
    if value == "":
        raise ConfigError(f"{flag}: expected a path, got an empty value")
    return None if value is None else Path(value)


def _require_file(name, path):
    """Raise `ConfigError`, naming `name` and `path`, unless `path` is a file."""
    if path.is_dir():
        raise ConfigError(f"{name} points to a directory, not a file: {path}")
    if not path.is_file():
        raise ConfigError(f"{name} points to a missing file: {path}")


def _prepare_from_csv(run):
    """The frames of the training and validation CSVs and the holiday
    calendar.  A set synthetic-split key is a `ConfigError`, since the run
    would not read it."""
    for key in _SYNTHETIC_KEYS:
        if key in run.set_keys:
            raise ConfigError(f"{key} is set, but only --synthetic reads it")
    for key, value in _csv_sources(run):
        if value is None:
            raise ConfigError(f"missing required key {key} (or pass --synthetic)")
        _require_file(key, Path(value))
    calendar = HolidayCalendar.from_file(run.holidays)
    fingerprint = {"train_csv": _sha256(run.train_csv),
                   "validation_csv": _sha256(run.validation_csv),
                   "holidays": _sha256(run.holidays)}
    return (build_features(ingest_csv(run.train_csv), calendar),
            build_features(ingest_csv(run.validation_csv), calendar),
            calendar, fingerprint)


def _write_epoch_log(path, log):
    lines = ["epoch,train_mse,val_mse,seconds"]
    for record in log:
        lines.append(f"{record.epoch},{record.train_mse!r},{record.val_mse!r},0.0")
    write_atomic(path, "\n".join(lines) + "\n")


def _openblas(name, restype, *argtypes):
    """The function `name` of the OpenBLAS numpy bundles, None when numpy's
    BLAS does not expose it."""
    # The extension module that links the BLAS: numpy._core's from numpy 2.
    core = getattr(np, "_core", None) or np.core
    try:
        function = getattr(ctypes.CDLL(core._multiarray_umath.__file__), name)
    except (AttributeError, OSError):
        return None
    function.argtypes, function.restype = list(argtypes), restype
    return function


def _openblas_runtime():
    """The runtime config string and thread count of the OpenBLAS numpy
    bundles, both None when numpy's BLAS does not expose them."""
    get_config = _openblas("scipy_openblas_get_config64_", ctypes.c_char_p)
    get_threads = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    if get_config is None or get_threads is None:
        return None, None
    config = get_config()
    return (None if config is None else config.decode(errors="replace")), get_threads()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body, every command, with numpy's OpenBLAS at one thread and
    restore its count after, so that a run's bytes do not depend on the
    core count.  A count set through `OPENBLAS_NUM_THREADS` or
    `OMP_NUM_THREADS` is left as it is, as is a BLAS without the setter."""
    get = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    set_threads = _openblas("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    if (get is None or set_threads is None
            or any(name in os.environ for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))):
        yield
        return
    previous = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def _environment():
    """What a run's bytes depend on besides its config and inputs: the
    python and numpy versions, the BLAS numpy was built against, the
    config string and thread count of the BLAS loaded at run time (the
    kernel it picked can differ from the build's), and the number of cores
    the process may run on.  A field that cannot be read is None."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:
        # numpy before 1.26 takes no `mode`.
        blas = {}
    config, threads = _openblas_runtime()
    affinity = getattr(os, "sched_getaffinity", None)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "blas_config": config, "blas_threads": threads,
            "nproc": None if affinity is None else len(affinity(0))}


def _write_manifest(path, run, config_file, fingerprint):
    artifacts = ["checkpoint.json", "epochs.csv", "validation.txt"]
    doc = {
        "command": "train",
        "config_file": str(config_file),
        "config": run.raw,
        "inputs": fingerprint,
        "artifacts": artifacts,
        "artifact_sha256": {name: _sha256(path.parent / name) for name in artifacts},
        "package": {"name": "loadcast", "version": __version__},
        "environment": _environment(),
    }
    write_atomic(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _cmd_train(args):
    run = parse_run_config(args.config)
    # The source is read and windowed first, so a config or data error
    # leaves no output directory behind.
    prepare = _prepare_synthetic if args.synthetic else _prepare_from_csv
    train_frames, val_frames, calendar, fingerprint = prepare(run)
    stats = compute_stats(train_frames)
    train_s = build_windows(standardize(train_frames, stats), run.model, run.stride_hours)
    val_s = build_windows(standardize(val_frames, stats), run.model)
    with _output_lock(run.output_dir) as out:
        _say(f"training {run.model.variant}: {len(train_s)} train / "
             f"{len(val_s)} validation windows")
        try:
            # As in `forecast`: an overflow ends the run, not a numpy warning.
            with np.errstate(over="raise", invalid="raise"):
                result = train(run.model, train_s, val_s, run.training)
        except FloatingPointError as err:
            raise TrainingError(f"training diverged: {err}") from err
        for record in result.log:
            _say(f"epoch {record.epoch}: train_mse={record.train_mse:.6f} "
                 f"val_mse={record.val_mse:.6f} ({record.seconds:.1f}s)")
        _say(f"best epoch: {result.best_epoch}")
        save_checkpoint(out / "checkpoint.json", run.model, result.params,
                        stats, calendar)
        _write_epoch_log(out / "epochs.csv", result.log)
        report = evaluate(result.params, run.model, val_s, stats).report
        write_atomic(out / "validation.txt", report.as_text())
        _write_manifest(out / "manifest.json", run, args.config, fingerprint)
        _say(f"validation mape: {report.mape:.3f}%")
        _say(f"artifacts in {out}")
    return EXIT_OK


def _write_forecast_csv(path, samples, result):
    lines = ["timestamp,actual,forecast,relative_error_pct"]
    for sample, actual, forecast in zip(samples, result.actuals, result.forecasts):
        for step in range(len(forecast)):
            ts = sample.start + timedelta(hours=step)
            actual_v = float(actual[step])
            forecast_v = float(forecast[step])
            err = relative_error(actual_v, forecast_v)
            lines.append(f"{ts.isoformat()},{actual_v!r},{forecast_v!r},{err!r}")
    write_atomic(path, "\n".join(lines) + "\n")


def _write_attention_dumps(out, traces):
    """One CSV per attention stage the variant has, from the `Forecast`s
    that gave the forecasts: a row per window and step (or window)."""
    for field, name in (("feature_weights", "attention_features.csv"),
                        ("hour_weights", "attention_hours.csv"),
                        ("day_weights", "attention_days.csv")):
        first = getattr(traces[0], field)
        if first is None:
            continue
        keys = ["sample", "step"][:first.ndim]
        lines = [",".join(keys + [f"w{i}" for i in range(first.shape[-1])])]
        for index, fc in enumerate(traces):
            rows = getattr(fc, field).reshape(-1, first.shape[-1])
            lines.extend(",".join([str(index), str(step)][:len(keys)]
                                  + [repr(float(v)) for v in row])
                         for step, row in enumerate(rows))
        write_atomic(out / name, "\n".join(lines) + "\n")


def _cmd_forecast(args):
    out_dir = _output_path("--out", args.out)
    ck = load_checkpoint(args.checkpoint)
    if args.dump_attention and not (ck.config.encoder_attention or ck.config.decoder_attention):
        raise ConfigError(f"--dump-attention: variant {ck.config.variant} has no attention stage")
    for flag, path in (("--data", args.data), ("--holidays", args.holidays)):
        if path is not None:
            _require_file(flag, path)
    calendar = (ck.calendar if args.holidays is None
                else HolidayCalendar.from_file(args.holidays))
    if ck.config.n_features != FEATURE_WIDTH:
        raise CompatibilityError(
            f"checkpoint expects n_features={ck.config.n_features} but the data "
            f"pipeline produces {FEATURE_WIDTH}-wide frames")
    if ck.config.day_len != DAY_HOURS:
        raise CompatibilityError(
            f"checkpoint expects day_len={ck.config.day_len} but the data "
            f"pipeline forecasts {DAY_HOURS}-hour days")
    frames = standardize(build_features(ingest_csv(args.data), calendar), ck.stats)
    samples = build_windows(frames, ck.config)
    try:
        # Underflow stays quiet: softmax tails underflow by design.
        with np.errstate(over="raise", invalid="raise"):
            result = evaluate(ck.params, ck.config, samples, ck.stats, args.dump_attention)
    except (EvaluationError, FloatingPointError) as err:
        raise ConfigError(f"{args.checkpoint} does not evaluate on {args.data}: {err}") from err
    with _output_lock(out_dir) as out:
        _write_forecast_csv(out / "forecast.csv", samples, result)
        write_atomic(out / "metrics.txt", result.report.as_text())
        write_atomic(out / "metrics.csv",
                     MetricReport.csv_header() + "\n" + result.report.as_csv_row() + "\n")
        if args.dump_attention:
            _write_attention_dumps(out, result.traces)
    _say(f"{len(samples)} windows forecast")
    _say(result.report.as_text().rstrip("\n"))
    _say(f"artifacts in {out}")
    return EXIT_OK


def _cmd_verify(_args):
    results = run_all_checks()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        _say(f"{status}  {r.name:<{width}}  {r.detail}")
    failed = [r for r in results if not r.passed]
    _say(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY


def _cmd_synth(args):
    if args.seed < 0:
        raise ConfigError(f"--seed must be a nonnegative integer, got {args.seed}")
    out = _output_path("--out", args.out)
    holidays_out = _output_path("--holidays-out", args.holidays_out)
    if holidays_out is not None and holidays_out.resolve() == out.resolve():
        raise ConfigError(f"--out and --holidays-out name the same file, {out}; the "
                          f"calendar would overwrite the series")
    try:
        records = generate_synthetic(args.days, args.seed)
    except ValueError as err:
        raise ConfigError(f"--days {args.days}: {err}") from None
    write_records_csv(records, out)
    _say(f"wrote {len(records)} hourly records to {out}")
    if holidays_out is not None:
        synthetic_calendar(records).to_file(holidays_out)
        _say(f"wrote holiday calendar to {holidays_out}")
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="loadcast",
        description="Day-ahead load forecasting with an attention BiLSTM encoder-decoder.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a run config")
    p_train.add_argument("--config", required=True, type=Path,
                         help="run configuration file (key = value lines)")
    p_train.add_argument("--synthetic", action="store_true",
                         help="train on generated data instead of the configured CSVs")
    p_train.set_defaults(handler=_cmd_train)

    p_fc = sub.add_parser("forecast", help="apply a checkpoint to a data CSV")
    p_fc.add_argument("--checkpoint", required=True, type=Path)
    p_fc.add_argument("--data", required=True, type=Path)
    p_fc.add_argument("--holidays", type=Path, default=None,
                      help="holiday calendar override (defaults to the checkpoint's)")
    p_fc.add_argument("--out", default=".",
                      help="directory for forecast and metric files")
    p_fc.add_argument("--dump-attention", action="store_true",
                      help="also write attention weight CSVs")
    p_fc.set_defaults(handler=_cmd_forecast)

    p_verify = sub.add_parser("verify", help="run the built-in oracle checks")
    p_verify.set_defaults(handler=_cmd_verify)

    p_synth = sub.add_parser("synth", help="write a synthetic hourly series")
    p_synth.add_argument("--days", required=True, type=int)
    p_synth.add_argument("--seed", required=True, type=int)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--holidays-out", default=None,
                         help="also write a matching holiday calendar")
    p_synth.set_defaults(handler=_cmd_synth)
    return parser


class _Terminated(BaseException):
    """SIGTERM, raised where the command is, as SIGINT raises
    `KeyboardInterrupt`."""


def _terminate(_signum, _frame):
    raise _Terminated


def main(argv=None):
    args = _build_parser().parse_args(argv)
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        with _one_blas_thread():
            return args.handler(args)
    except (KeyboardInterrupt, _Terminated) as err:
        signum = signal.SIGTERM if isinstance(err, _Terminated) else signal.SIGINT
        print(f"{args.command}: interrupted by {signum.name}", file=sys.stderr)
        return 128 + signum
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as err:
        print(f"training error: {err}", file=sys.stderr)
        return EXIT_TRAINING
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
