"""Command line: train, forecast, verify, synth.

Exit codes group failures by class: 2 for configuration problems, 3 for
data problems, 4 for training failures, and 5 for verification failures.
The epoch log's `seconds` column is written as 0.0 because the log is part
of the byte-reproducibility contract (two identical runs must produce
identical files); wall-clock timings go to the console instead.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import hashlib
import json
import sys
from datetime import timedelta
from pathlib import Path

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint, write_atomic
from .config import parse_run_config
from .data import (FEATURE_WIDTH, HolidayCalendar, build_features, build_windows,
                   compute_stats, generate_synthetic, ingest_csv,
                   split_by_forecast_day, standardize, synthetic_calendar,
                   write_records_csv)
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
    """Hold an exclusive `flock` on `out_dir/.lock` while the body runs.

    The lock belongs to the open file, so the OS drops it when the process
    ends, however it ends; the file itself stays.
    """
    with open(out_dir / ".lock", "a") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(f"output directory {out_dir} is locked by another run") from None
        yield


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _prepare_synthetic(run):
    days = run.train_days + run.validation_days + run.test_days
    try:
        records = generate_synthetic(days, run.synthetic_seed)
    except ValueError as err:
        raise ConfigError(f"data.train_days + validation_days + test_days: {err}") from None
    calendar = synthetic_calendar(records)
    frames = build_features(records, calendar)
    stats = compute_stats(frames[:run.train_days * 24])
    standardized = standardize(frames, stats)
    windows = build_windows(standardized, run.model, run.stride_hours)
    train_s, val_s, _test_s = split_by_forecast_day(
        windows, records[0].timestamp.date(),
        run.train_days, run.validation_days, run.test_days)
    fingerprint = {"synthetic": {"days": days, "seed": run.synthetic_seed}}
    return train_s, val_s, stats, calendar, fingerprint


def _prepare_from_csv(run):
    for key, value in (("data.train_csv", run.train_csv),
                       ("data.validation_csv", run.validation_csv),
                       ("data.holidays", run.holidays)):
        if value is None:
            raise ConfigError(f"missing required key {key} (or pass --synthetic)")
        if not Path(value).is_file():
            raise ConfigError(f"{key} points to a missing file: {value}")
    calendar = HolidayCalendar.from_file(run.holidays)
    train_frames = build_features(ingest_csv(run.train_csv), calendar)
    stats = compute_stats(train_frames)
    train_s = build_windows(standardize(train_frames, stats), run.model, run.stride_hours)
    val_frames = build_features(ingest_csv(run.validation_csv), calendar)
    val_s = build_windows(standardize(val_frames, stats), run.model)
    fingerprint = {"train_csv": _sha256(run.train_csv),
                   "validation_csv": _sha256(run.validation_csv),
                   "holidays": _sha256(run.holidays)}
    return train_s, val_s, stats, calendar, fingerprint


def _write_epoch_log(path, log):
    lines = ["epoch,train_mse,val_mse,seconds"]
    for record in log:
        lines.append(f"{record.epoch},{record.train_mse!r},{record.val_mse!r},0.0")
    write_atomic(path, "\n".join(lines) + "\n")


def _write_manifest(path, run, config_file, fingerprint):
    doc = {
        "command": "train",
        "config_file": str(config_file),
        "config": run.raw,
        "inputs": fingerprint,
        "artifacts": ["checkpoint.json", "epochs.csv", "validation.txt"],
        "package": {"name": "loadcast", "version": __version__},
    }
    write_atomic(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _cmd_train(args):
    run = parse_run_config(args.config)
    out = run.output_dir
    out.mkdir(parents=True, exist_ok=True)
    with _output_lock(out):
        if args.synthetic:
            data = _prepare_synthetic(run)
        else:
            data = _prepare_from_csv(run)
        train_s, val_s, stats, calendar, fingerprint = data
        print(f"training {run.model.variant}: {len(train_s)} train / "
              f"{len(val_s)} validation windows")
        result = train(run.model, train_s, val_s, run.training)
        for record in result.log:
            print(f"epoch {record.epoch}: train_mse={record.train_mse:.6f} "
                  f"val_mse={record.val_mse:.6f} ({record.seconds:.1f}s)")
        print(f"best epoch: {result.best_epoch}")
        save_checkpoint(out / "checkpoint.json", run.model, result.params,
                        stats, calendar)
        _write_epoch_log(out / "epochs.csv", result.log)
        report = evaluate(result.params, run.model, val_s, stats).report
        write_atomic(out / "validation.txt", report.as_text())
        _write_manifest(out / "manifest.json", run, args.config, fingerprint)
        print(f"validation mape: {report.mape:.3f}%")
        print(f"artifacts in {out}")
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
    ck = load_checkpoint(args.checkpoint)
    if ck.stats is None:
        raise ConfigError(f"{args.checkpoint}: checkpoint lacks standardization "
                          f"statistics and cannot be applied to new data")
    for flag, path in (("--data", args.data), ("--holidays", args.holidays)):
        if path is not None and not path.is_file():
            raise ConfigError(f"{flag} points to a missing file: {path}")
    if args.holidays is not None:
        calendar = HolidayCalendar.from_file(args.holidays)
    else:
        calendar = ck.calendar
    if calendar is None:
        raise ConfigError("checkpoint has no holiday calendar; pass --holidays")
    if ck.config.n_features != FEATURE_WIDTH:
        raise CompatibilityError(
            f"checkpoint expects n_features={ck.config.n_features} but the data "
            f"pipeline produces {FEATURE_WIDTH}-wide frames")
    frames = standardize(build_features(ingest_csv(args.data), calendar), ck.stats)
    samples = build_windows(frames, ck.config)
    try:
        result = evaluate(ck.params, ck.config, samples, ck.stats, args.dump_attention)
    except EvaluationError as err:
        raise ConfigError(f"{args.checkpoint} does not evaluate on {args.data}: {err}") from err
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_forecast_csv(out / "forecast.csv", samples, result)
    write_atomic(out / "metrics.txt", result.report.as_text())
    write_atomic(out / "metrics.csv",
                 MetricReport.csv_header() + "\n" + result.report.as_csv_row() + "\n")
    if args.dump_attention:
        _write_attention_dumps(out, result.traces)
    print(f"{len(samples)} windows forecast")
    print(result.report.as_text(), end="")
    print(f"artifacts in {out}")
    return EXIT_OK


def _cmd_verify(_args):
    results = run_all_checks()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY


def _cmd_synth(args):
    try:
        records = generate_synthetic(args.days, args.seed)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    write_records_csv(records, args.out)
    print(f"wrote {len(records)} hourly records to {args.out}")
    if args.holidays_out is not None:
        synthetic_calendar(records).to_file(args.holidays_out)
        print(f"wrote holiday calendar to {args.holidays_out}")
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
    p_fc.add_argument("--out", type=Path, default=Path("."),
                      help="directory for forecast and metric files")
    p_fc.add_argument("--dump-attention", action="store_true",
                      help="also write attention weight CSVs")
    p_fc.set_defaults(handler=_cmd_forecast)

    p_verify = sub.add_parser("verify", help="run the built-in oracle checks")
    p_verify.set_defaults(handler=_cmd_verify)

    p_synth = sub.add_parser("synth", help="write a synthetic hourly series")
    p_synth.add_argument("--days", required=True, type=int)
    p_synth.add_argument("--seed", required=True, type=int)
    p_synth.add_argument("--out", required=True, type=Path)
    p_synth.add_argument("--holidays-out", type=Path, default=None,
                         help="also write a matching holiday calendar")
    p_synth.set_defaults(handler=_cmd_synth)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as err:
        print(f"training error: {err}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
