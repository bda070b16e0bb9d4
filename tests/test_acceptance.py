"""Acceptance gate: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with the measured numbers.  Every tolerance here is part of the
release contract; loosening one is a release decision, not a test fix.
"""

import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from loadcast.attention import AttentionParams, feature_attention, temporal_attention
from loadcast.checkpoint import load_checkpoint
from loadcast.cli import EXIT_OK, main
from loadcast.data import (build_features, build_windows, compute_stats,
                           generate_synthetic, split_by_forecast_day,
                           standardize, synthetic_calendar)
from loadcast.errors import SizeError
from loadcast.metrics import compute_metrics
from loadcast.model import ModelConfig, init_params, predict
from loadcast.tensor import Tensor
from loadcast.training import TrainConfig, batch_gradients, evaluate, train
from loadcast.verify import (_check_lstm_oracle, model_gradient_report,
                             tiny_model_case)


def announce(criterion, detail):
    print(f"\ncriterion {criterion} PASS: {detail}", flush=True)


def test_criterion_1_gradient_fidelity():
    """Full-model autodiff gradients match central differences on the tiny
    config (8 history hours, 4 forecast hours, 2 days, 3 features, hidden 4,
    all attention sizes 2) to max relative error < 1e-4, within 60 s."""
    config, sample = tiny_model_case()
    started = time.perf_counter()
    report = model_gradient_report(config, sample, h=1e-5, tolerance=1e-4)
    elapsed = time.perf_counter() - started

    # Guard against a vacuous pass: a dead ReLU head would zero every
    # gradient and the comparison would succeed trivially.
    grads = batch_gradients(init_params(config), config, [sample])
    live = sum(int(np.any(g != 0.0)) for g in grads.values())
    assert live >= 0.5 * len(grads), "most gradients are zero"
    assert report.max_rel_error < 1e-4, f"max rel error {report.max_rel_error:.3e}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    announce(1, f"full-model gradcheck max rel error "
                f"{report.max_rel_error:.2e} < 1e-4 in {elapsed:.1f}s "
                f"({live}/{len(grads)} parameter blocks with "
                f"nonzero gradients)")


def test_criterion_2_cell_oracle():
    """lstm_cell_step, one step of one window of lstm_sequence, on 1000
    random cells, and lstm_sequence on 50 random batches of 1-3 windows over
    1-4 steps, the op the model runs, match the independent scalar-loop
    oracle to 1e-12."""
    result = _check_lstm_oracle()
    assert result.passed, result.detail
    announce(2, f"lstm cell and sequence vs scalar-loop oracle, 1000 cells, "
                f"50 sequences, {result.detail}")


def test_criterion_3_attention_normalization():
    """Feature, temporal, and similar-day weights each sum to 1 within
    1e-12 and stay strictly positive over 1000 random model evaluations."""
    worst = 0.0
    for seed in range(1000):
        config, sample = tiny_model_case(seed=seed)
        fc = predict(init_params(config), config, sample,
                     collect_attention=True)
        for block in (fc.feature_weights, fc.hour_weights,
                      fc.day_weights.reshape(1, -1)):
            sums = block.sum(axis=1)
            worst = max(worst, float(np.abs(sums - 1.0).max()))
            assert np.all(block > 0.0), f"non-positive weight at seed {seed}"
    assert worst <= 1e-12, f"worst |sum-1| {worst:.2e}"
    announce(3, f"attention weights over 1000 evaluations: "
                f"max |sum-1| {worst:.1e}, all entries positive")


def test_criterion_4_structural_ablations():
    """Zeroed attention parameters give exactly uniform weights, and the
    attention-free bidirectional variant ignores attention parameters."""
    rng = np.random.default_rng(4)

    alpha, _ = feature_attention(AttentionParams.zeros(8 + 3 + 1, 3, 2),
                                 Tensor(rng.normal(size=8)),
                                 Tensor(rng.normal(size=3)),
                                 float(rng.normal()))
    npt.assert_array_equal(alpha.values, np.full(3, 1.0 / 3.0))

    beta = temporal_attention(AttentionParams.zeros(8 + 3, 8, 2),
                              Tensor(rng.normal(size=8)),
                              Tensor(rng.normal(size=3)), day_len=4)
    npt.assert_array_equal(beta.values, np.full((2, 4), 1.0 / 8.0))

    # The same through the path the model runs: the attention sweeps.
    config, sample = tiny_model_case()
    params = init_params(config)
    params.feature_attn = AttentionParams.zeros(
        config.hidden_size + config.encoder_input_width, config.n_features,
        config.feature_attn_size)
    params.temporal_attn = AttentionParams.zeros(
        config.state_width + config.n_features, config.history_len, config.temporal_attn_size)
    traced = predict(params, config, sample, collect_attention=True)
    npt.assert_array_equal(traced.feature_weights,
                           np.full((config.history_len, config.n_features), 1.0 / 3.0))
    npt.assert_array_equal(traced.hour_weights,
                           np.full((config.horizon, config.history_len), 1.0 / 8.0))

    config, sample = tiny_model_case(variant="EDBiLSTM")
    params = init_params(config)
    base = predict(params, config, sample).values
    donor = init_params(tiny_model_case(variant="ANLF")[0])
    params.feature_attn = donor.feature_attn
    params.temporal_attn = donor.temporal_attn
    npt.assert_array_equal(predict(params, config, sample).values, base)
    announce(4, "zeroed attention gives exactly uniform weights, per step and in "
                "the model's sweeps; EDBiLSTM output invariant to injected "
                "attention parameters")


def test_criterion_5_synthetic_learning():
    """Five epochs at hidden size 32 on the 60-day synthetic series (45/7/8
    day split) cut validation MSE below 50% of epoch 0 and reach test MAPE
    below 5%, within 10 minutes."""
    started = time.perf_counter()
    records = generate_synthetic(60, seed=7)
    frames = build_features(records, synthetic_calendar(records))
    stats = compute_stats(frames[:45 * 24])
    config = ModelConfig(days=7, day_len=24, n_features=45, hidden_size=32,
                         feature_attn_size=16, temporal_attn_size=16,
                         head_size=32, seed=1)
    samples = build_windows(standardize(frames, stats), config)
    train_set, val_set, test_set = split_by_forecast_day(
        samples, records[0].timestamp.date(), 45, 7, 8)
    assert (len(train_set), len(val_set), len(test_set)) == (38, 7, 8)

    result = train(config, train_set, val_set,
                   TrainConfig(batch_size=4, epochs=5, learning_rate=3e-3,
                               seed=1))
    ratio = result.log[-1].val_mse / result.log[0].val_mse
    mape = evaluate(result.params, config, test_set, stats).report.mape
    elapsed = time.perf_counter() - started

    assert ratio < 0.5, f"validation MSE ratio {ratio:.3f}"
    assert mape < 5.0, f"test MAPE {mape:.2f}%"
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    announce(5, f"validation MSE ratio {ratio:.3f} < 0.5, test MAPE "
                f"{mape:.2f}% < 5%, in {elapsed:.0f}s")


def test_criterion_6_metric_correctness():
    """The hand case holds to 1e-9 and RMSE >= MAE on 1000 random pairs."""
    report = compute_metrics([100.0, 200.0], [110.0, 190.0])
    npt.assert_allclose([report.mae, report.rmse, report.mape, report.nrmse],
                        [10.0, 10.0, 7.5, 100.0 * 10.0 / 150.0],
                        rtol=0, atol=1e-9)
    rng = np.random.default_rng(6)
    for _ in range(1000):
        size = int(rng.integers(1, 25))
        actual = rng.uniform(10.0, 2000.0, size=size)
        forecast = actual + rng.normal(0.0, 100.0, size=size)
        r = compute_metrics(actual, forecast)
        assert r.rmse >= r.mae - 1e-12
    announce(6, "hand case within 1e-9; RMSE >= MAE on 1000 random pairs")


def test_criterion_7_pipeline_counting():
    """Window counts for 9/8/7 synthetic days are 2/1/error, and the
    standardized training split has zero mean and unit deviation to 1e-10."""
    config = ModelConfig(days=7, day_len=24, n_features=45, hidden_size=4,
                         feature_attn_size=2, temporal_attn_size=2,
                         head_size=2)

    def windows(days):
        records = generate_synthetic(max(days, 9), seed=7)[:days * 24]
        frames = build_features(records, synthetic_calendar(records))
        return build_windows(frames, config)

    assert len(windows(9)) == 2
    assert len(windows(8)) == 1
    with pytest.raises(SizeError):
        windows(7)

    records = generate_synthetic(60, seed=7)
    frames = build_features(records, synthetic_calendar(records))
    train_frames = frames[:45 * 24]
    scaled = standardize(train_frames, compute_stats(train_frames))
    loads = np.array([f.target for f in scaled])
    temps = np.array([f.features[0] for f in scaled])
    for series in (loads, temps):
        assert abs(series.mean()) < 1e-10
        assert abs(series.std() - 1.0) < 1e-10
    announce(7, "window counts 2/1/error for 9/8/7 days; standardized train "
                f"split |mean| {abs(loads.mean()):.1e}, "
                f"|std-1| {abs(loads.std() - 1.0):.1e}")


# Seed 4 draws a model whose ReLU head stays live, so the epochs differ.
TRAIN_CONFIG = """
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


def test_criterion_8_determinism(tmp_path):
    """Two identical `train` invocations write byte-identical checkpoint
    and epoch-log files, of a model that trains: epoch 2 moves past epoch
    1, and the checkpoint's forecasts are not one constant."""
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        config = tmp_path / f"{run}.conf"
        config.write_text(TRAIN_CONFIG + f"output.dir = {out}\n")
        assert main(["train", "--config", str(config), "--synthetic"]) == EXIT_OK
        outputs.append(out)
    first, second = outputs
    assert ((first / "checkpoint.json").read_bytes()
            == (second / "checkpoint.json").read_bytes())
    assert ((first / "epochs.csv").read_bytes()
            == (second / "epochs.csv").read_bytes())
    rows = (first / "epochs.csv").read_text().splitlines()
    assert rows[2].split(",")[1:] != rows[3].split(",")[1:]
    ck = load_checkpoint(first / "checkpoint.json")
    frames = standardize(build_features(generate_synthetic(9, 7), ck.calendar), ck.stats)
    forecasts = evaluate(ck.params, ck.config, build_windows(frames, ck.config),
                         ck.stats).forecasts
    distinct = len(np.unique(np.concatenate(forecasts)))
    assert distinct > 1
    announce(8, "repeated train runs: checkpoint.json and epochs.csv "
                f"byte-identical; {distinct} distinct forecast values")


def test_criterion_9_full_data_recipe_documented():
    """Reference-accuracy reproduction needs the full multi-year dataset and
    a model far larger than the gate's, so it is documented in the README
    but not gated."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    assert "Full-data recipe" in text
    assert "not part of the test gate" in text
    announce(9, "full-data recipe documented in README (informational, "
                "NOT GATED)")
