"""The four benchmark workloads.

Each workload has three steps:

* `prepare(seed, work_dir)` makes input files the program would find on disk
  (untimed by `setup_s`); it returns phase timings;
* `setup(seed, work_dir)` does everything before the first timed operation
  and returns `(state, phase timings)`; the runner repeats it and reports
  the median;
* `measure(state, seed, seconds, ops, patches)` runs operations in a closed
  loop (the next one starts when the previous returns) and returns a
  function that checks the outputs, untimed, and returns `(correct, notes)`.

Inputs depend only on the seed.  A fixed-size unit of work (one `train`
call plus test evaluation, or one `run_all_checks`) is repeated only while
another unit is expected to end within `seconds`; at least one always runs.
"""

import json
import math
import time

import numpy as np

import reference
from loadcast import checkpoint, data, model, training, verify
from loadcast.errors import LoadcastError

# Largest difference, in standardized load units, between a served forecast
# and the independent numpy forward pass.  The two agree to about 1e-15.
FORECAST_TOLERANCE = 1e-9

# Training data: 7 history days, then 12 train, 3 validation and 3 test
# forecast days, giving 12/3/3 windows.
TRAIN_SPLIT = (19, 3, 3)
FORECAST_DAYS = reference.DAYS + 110


def _timed(phases, name, fn, *args):
    started = time.perf_counter()
    out = fn(*args)
    phases[name] = time.perf_counter() - started
    return out


def _repeat_units(seconds, unit):
    started = time.perf_counter()
    while True:
        unit_started = time.perf_counter()
        if not unit():
            return
        now = time.perf_counter()
        if now - started + (now - unit_started) > seconds:
            return


class Train:
    """`training.train` for three epochs, then `training.evaluate` on test."""

    def __init__(self, variant):
        self.config = model.ModelConfig(days=7, day_len=24, n_features=data.FEATURE_WIDTH,
                                        hidden_size=32, feature_attn_size=16,
                                        temporal_attn_size=16, head_size=32,
                                        variant=variant, seed=1)

    def prepare(self, seed, work_dir):
        return {}

    def setup(self, seed, work_dir):
        phases = {}
        records = _timed(phases, "data.generate_s", data.generate_synthetic,
                         sum(TRAIN_SPLIT), seed)

        def features():
            frames = data.build_features(records, data.synthetic_calendar(records))
            stats = data.compute_stats(frames[:TRAIN_SPLIT[0] * 24])
            return data.standardize(frames, stats), stats

        frames, stats = _timed(phases, "data.features_s", features)

        def windows():
            samples = data.build_windows(frames, self.config)
            return data.split_by_forecast_day(samples, records[0].timestamp.date(),
                                              *TRAIN_SPLIT)

        splits = _timed(phases, "data.windows_s", windows)
        return (splits, stats), phases

    def measure(self, state, seed, seconds, ops, patches):
        (train_set, val_set, test_set), stats = state
        patches.replace(training, "batch_gradients", lambda fn: _batch_begins(fn, ops))
        patches.replace(training, "adam_step", lambda fn: _batch_ends(fn, ops))
        settings = training.TrainConfig(batch_size=4, epochs=3, learning_rate=3e-3,
                                        clip_norm=5.0, seed=seed)
        runs = []

        def unit():
            try:
                result = training.train(self.config, train_set, val_set, settings)
                report = training.evaluate(result.params, self.config, test_set,
                                           stats).report
            except LoadcastError as err:
                runs.append({"error": str(err)})
                return False
            runs.append({"mse": [(r.train_mse, r.val_mse) for r in result.log],
                         "epoch_s": [r.seconds for r in result.log[1:]],
                         "test_mape_pct": report.mape})
            return True

        _repeat_units(seconds, unit)
        return lambda: _check_training(runs, (len(train_set), len(val_set), len(test_set)))


def _check_training(runs, windows):
    """Every unit learned, and all units replayed the first bit for bit."""
    first = runs[0]
    notes = {"units": len(runs), "windows": list(windows)}
    if "error" in first:
        notes["error"] = first["error"]
        return False, notes
    notes.update(epoch_s=[s for run in runs for s in run.get("epoch_s", [])],
                 val_mse_ratio=first["mse"][-1][1] / first["mse"][0][1],
                 test_mape_pct=first["test_mape_pct"])
    correct = _learned(first) and all(
        run.get("mse") == first["mse"] and run.get("test_mape_pct") == first["test_mape_pct"]
        for run in runs)
    return correct, notes


def _learned(run):
    """Finite losses, and the training loss fell below the untrained one."""
    values = [v for pair in run["mse"] for v in pair] + [run["test_mape_pct"]]
    return all(math.isfinite(v) for v in values) and run["mse"][-1][0] < run["mse"][0][0]


def _batch_begins(batch_gradients, ops):
    def timed(*args, **kwargs):
        ops.begin()
        try:
            return batch_gradients(*args, **kwargs)
        except LoadcastError:
            ops.end(ok=False)
            raise
    return timed


def _batch_ends(adam_step, ops):
    def timed(*args, **kwargs):
        try:
            out = adam_step(*args, **kwargs)
        except LoadcastError:
            ops.end(ok=False)
            raise
        ops.end()
        return out
    return timed


class Forecast:
    """Day-ahead serving from a checkpoint, one `predict` call per window."""

    def prepare(self, seed, work_dir):
        phases = {}
        work_dir.mkdir(parents=True, exist_ok=True)
        params = reference.draw_parameters(seed)
        (work_dir / "checkpoint.json").write_text(
            json.dumps(reference.checkpoint_document(seed, params)) + "\n")
        records = _timed(phases, "data.generate_s", data.generate_synthetic,
                         FORECAST_DAYS, seed)
        data.write_records_csv(records, work_dir / "series.csv")
        self.params = params
        return phases

    def setup(self, seed, work_dir):
        phases = {}
        path = work_dir / "checkpoint.json"
        ck = _timed(phases, "checkpoint.load_s", checkpoint.load_checkpoint, path)
        phases["checkpoint.bytes"] = path.stat().st_size
        records = _timed(phases, "data.ingest_s", data.ingest_csv, work_dir / "series.csv")
        frames = _timed(phases, "data.features_s",
                        lambda: data.standardize(data.build_features(records, ck.calendar),
                                                 ck.stats))
        samples = _timed(phases, "data.windows_s", data.build_windows, frames, ck.config)
        return (ck, samples), phases

    def measure(self, state, seed, seconds, ops, patches):
        ck, samples = state
        order = np.random.default_rng(seed).permutation(len(samples))
        served = []
        deadline = time.perf_counter() + seconds
        while not served or time.perf_counter() < deadline:
            index = int(order[len(served) % len(order)])
            ops.begin()
            try:
                values = model.predict(ck.params, ck.config, samples[index]).values
            except LoadcastError:
                values = None
            ops.end(ok=values is not None)
            served.append((index, values))
        return lambda: self._check(samples, served, ops)

    def _check(self, samples, served, ops):
        """Compare every served forecast with the independent forward pass."""
        references = {}
        worst = 0.0
        for index, values in served:
            if values is None:
                continue
            if index not in references:
                s = samples[index]
                references[index] = reference.anlf_forecast(self.params, s.x_hist,
                                                             s.y_hist, s.x_future)
            diff = float(np.max(np.abs(values - references[index])))
            worst = max(worst, diff)
            if not diff <= FORECAST_TOLERANCE:
                ops.failed += 1
        notes = {"windows": len(samples), "served": len(served),
                 "max_abs_diff_vs_reference": worst, "tolerance": FORECAST_TOLERANCE}
        return ops.failed == 0, notes


class Verify:
    """`verify.run_all_checks()`, as `loadcast verify` runs it."""

    def prepare(self, seed, work_dir):
        return {}

    def setup(self, seed, work_dir):
        return None, {}

    def measure(self, state, seed, seconds, ops, patches):
        for name in [n for n in vars(verify) if n.startswith("_check_")]:
            patches.replace(verify, name, lambda fn: _check_clock(fn, ops))
        details = []

        def unit():
            try:
                results = verify.run_all_checks()
            except LoadcastError as err:
                details.append(f"ERROR {err}")
                return False
            details.extend(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
                           for r in results)
            return True

        _repeat_units(seconds, unit)
        return lambda: (not any(d.startswith("ERROR") for d in details),
                        {"checks": details})


def _check_clock(check, ops):
    def timed(*args, **kwargs):
        ops.begin()
        try:
            result = check(*args, **kwargs)
        except LoadcastError:
            ops.end(ok=False)
            raise
        ops.end(ok=result.passed)
        return result
    return timed


WORKLOADS = {
    "train-anlf": lambda: Train("ANLF"),
    "train-edbilstm": lambda: Train("EDBiLSTM"),
    "forecast-anlf": Forecast,
    "verify": Verify,
}
