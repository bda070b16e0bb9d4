"""Windows as columns: a batch pass against the per-window arithmetic.

The reference runs one window at a time through the per-step taped ops
(`feature_attention`, `temporal_attention`, `context_vector` and
`lstm_cell_step` once per step, the head on one stacked vector), the way the
model computed before windows were batched.  A batch of any size must give
every window the forecast, attention weights and loss the reference gives
it, and the mean of the reference gradients, to 1e-12 relative.
"""

from datetime import datetime

import numpy as np
import numpy.testing as npt
import pytest

from loadcast.attention import (context_vector, feature_attention, similar_day_weights,
                                temporal_attention)
from loadcast.data import StandardizationStats, WindowSample, destandardize_load
from loadcast.errors import DimensionError
from loadcast.lstm import LstmState, lstm_cell_step
from loadcast.metrics import compute_metrics
from loadcast.model import VARIANTS, ModelConfig, forward, init_params, predict
from loadcast.params import bind, bind_constants, named_leaves
from loadcast.tensor import Tape, Tensor, concat, matmul, relu, reshape
from loadcast.training import WINDOWS_PER_PASS, batch_gradients, evaluate, mean_mse, mse_loss
from loadcast.verify import tiny_model_case

BATCH_SIZES = (1, 2, 3, 5)


def config_at(size, variant):
    if size == "tiny":
        return tiny_model_case(variant)[0]
    return ModelConfig(days=3, day_len=8, n_features=45, hidden_size=32, feature_attn_size=16,
                       temporal_attn_size=16, head_size=32, variant=variant, seed=2)


def random_windows(config, count, seed):
    rng = np.random.default_rng(seed)
    windows = []
    for _ in range(count):
        windows.append(WindowSample(
            x_hist=rng.normal(size=(config.history_len, config.n_features)),
            y_hist=rng.normal(size=config.history_len),
            x_future=rng.normal(size=(config.horizon, config.n_features)),
            y_future=rng.normal(size=config.horizon),
            start=datetime(2022, 1, 5)))
    return windows


def zeros(n):
    return Tensor(np.zeros(n))


def backward_direction(cell, inputs, init, forward_states):
    """The backward direction over `inputs` in reverse; returns the per-step
    [forward; backward] states and its terminal state."""
    state, backward = init, [None] * len(inputs)
    for t in reversed(range(len(inputs))):
        state = lstm_cell_step(cell, state, inputs[t])
        backward[t] = state.h
    return [concat([f, b]) for f, b in zip(forward_states, backward)], state


def stepped_forward(params, config, sample):
    """One window through the per-step taped ops.  Returns the (horizon,)
    forecast tensor and the feature, hour and day weights (None where the
    variant has none)."""
    hidden, width, bi = config.hidden_size, config.state_width, config.bidirectional
    cell_width = hidden if bi else width

    # Encoder: the forward direction sees the inputs weighted by attention
    # on its previous state, the backward direction the same inputs in
    # reverse.
    cell = params.encoder.forward if bi else params.encoder
    state = LstmState(zeros(cell_width), zeros(cell_width))
    inputs, forward_states, feature_weights = [], [], []
    for t in range(config.history_len):
        if config.encoder_attention:
            alpha, weighted = feature_attention(params.feature_attn, state.h,
                                                sample.x_hist[t], sample.y_hist[t])
            x = concat([weighted, Tensor([sample.y_hist[t]])])
            feature_weights.append(alpha.values)
        else:
            x = Tensor(np.append(sample.x_hist[t], sample.y_hist[t]))
        state = lstm_cell_step(cell, state, x)
        inputs.append(x)
        forward_states.append(state.h)
    encoder_forward, encoder_backward = state, None
    states = forward_states
    if bi:
        states, encoder_backward = backward_direction(
            params.encoder.backward, inputs, LstmState(zeros(hidden), zeros(hidden)),
            forward_states)
    history = reshape(concat(states), (config.history_len, width))

    # Decoder: temporal attention over the encoder states before each step.
    cell = params.decoder.forward if bi else params.decoder
    state = encoder_forward
    day = hour_weights = None
    if config.decoder_attention:
        blocks = sample.x_hist.reshape(config.days, config.day_len, config.n_features)
        day = similar_day_weights(blocks[..., np.newaxis], sample.x_future[..., np.newaxis])[:, 0]
        hour_weights = []
    inputs, forward_states = [], []
    for t in range(config.horizon):
        if config.decoder_attention:
            hours = temporal_attention(params.temporal_attn,
                                       concat([state.h, encoder_backward.h]),
                                       sample.x_future[t], config.day_len)
            x = concat([Tensor(sample.x_future[t]), context_vector(day, hours, history)])
            hour_weights.append(hours.values.reshape(-1))
        else:
            x = Tensor(sample.x_future[t])
        state = lstm_cell_step(cell, state, x)
        inputs.append(x)
        forward_states.append(state.h)
    states = forward_states
    if bi:
        states, _ = backward_direction(params.decoder.backward, inputs,
                                       encoder_backward, forward_states)
    output = matmul(params.head.out, relu(matmul(params.head.hidden, concat(states))))
    return (output,
            np.array(feature_weights) if config.encoder_attention else None,
            None if hour_weights is None else np.array(hour_weights),
            day)


def window_reference(params, config, sample):
    """Forecast, attention weights, loss and gradients of one window."""
    tape = Tape()
    bound = bind(params, tape)
    output, *weights = stepped_forward(bound, config, sample)
    loss = mse_loss(output, sample.y_future)
    tape.backward(loss)
    grads = {name: tape.grad(leaf) for name, leaf in named_leaves(bound)}
    return output.values, weights, float(loss.values), grads


def rel_diff(value, reference):
    scale = float(np.max(np.abs(reference)))
    return float(np.max(np.abs(value - reference))) / max(scale, 1e-300)


def attention(forecast):
    return forecast.feature_weights, forecast.hour_weights, forecast.day_weights


class TestBatchAxis:
    @pytest.mark.parametrize("size", ["tiny", "hidden32"])
    def test_batches_match_per_window_arithmetic(self, size):
        for variant in VARIANTS:
            config = config_at(size, variant)
            params = init_params(config)
            windows = random_windows(config, max(BATCH_SIZES), seed=90)
            refs = [window_reference(params, config, w) for w in windows]
            for count in BATCH_SIZES:
                batch, batch_refs = windows[:count], refs[:count]
                tape = Tape()
                bound = bind(params, tape)
                fp = forward(bound, config, batch, collect_attention=True)
                loss = mse_loss(fp.output, np.stack([w.y_future for w in batch], axis=-1))
                for forecast, (values, weights, _loss, _grads) in zip(fp.forecasts, batch_refs):
                    assert rel_diff(forecast.values, values) <= 1e-12, (variant, count)
                    for got, ref in zip(attention(forecast), weights):
                        assert (got is None) == (ref is None)
                        if ref is not None:
                            assert got.shape == ref.shape
                            assert rel_diff(got, ref) <= 1e-12, (variant, count)
                mean_loss = np.mean([ref[2] for ref in batch_refs])
                assert rel_diff(float(loss.values), mean_loss) <= 1e-12, (variant, count)
                grads = batch_gradients(params, config, batch)
                assert grads.keys() == batch_refs[0][3].keys()
                for name, grad in grads.items():
                    expect = np.mean([ref[3][name] for ref in batch_refs], axis=0)
                    assert grad.shape == expect.shape, name
                    assert rel_diff(grad, expect) <= 1e-12, (variant, count, name)

    @pytest.mark.parametrize("size", ["tiny", "hidden32"])
    def test_taped_and_untaped_passes_match_bitwise(self, size):
        """Untaped runs keep only the latest step's state; the arithmetic
        must be that of taped runs, which keep every step."""
        for variant in VARIANTS:
            config = config_at(size, variant)
            params = init_params(config)
            windows = random_windows(config, WINDOWS_PER_PASS, seed=94)
            for count in (1, 4, WINDOWS_PER_PASS):
                taped, untaped = (forward(bound, config, windows[:count], collect_attention=True)
                                  for bound in (bind(params, Tape()), bind_constants(params)))
                npt.assert_array_equal(taped.output.values, untaped.output.values)
                for a, b in zip(taped.forecasts, untaped.forecasts):
                    for got, expect in zip(attention(a), attention(b)):
                        assert (got is None and expect is None) or np.array_equal(got, expect)

    def test_one_window_is_predict(self):
        for variant in VARIANTS:
            config, sample = tiny_model_case(variant)
            params = init_params(config)
            got = forward(bind_constants(params), config, [sample],
                          collect_attention=True).forecasts[0]
            served = predict(params, config, sample, collect_attention=True)
            npt.assert_array_equal(got.values, served.values)
            for a, b in zip(attention(got), attention(served)):
                assert (a is None and b is None) or np.array_equal(a, b)

    def test_chunked_evaluation_matches_per_window(self):
        config = config_at("tiny", "ANLF")
        params = init_params(config)
        windows = random_windows(config, 2 * WINDOWS_PER_PASS + 1, seed=91)
        refs = [window_reference(params, config, w) for w in windows]
        assert rel_diff(mean_mse(params, config, windows),
                        np.mean([ref[2] for ref in refs])) <= 1e-12
        stats = StandardizationStats(load_mean=500.0, load_std=100.0,
                                     temperature_mean=10.0, temperature_std=5.0)
        result = evaluate(params, config, windows, stats)
        forecasts = [destandardize_load(ref[0], stats) for ref in refs]
        for got, expect in zip(result.forecasts, forecasts):
            assert rel_diff(got, expect) <= 1e-12
        actuals = np.concatenate([destandardize_load(w.y_future, stats) for w in windows])
        expect = compute_metrics(actuals, np.concatenate(forecasts))
        for field in ("mae", "rmse", "mape", "nrmse"):
            assert rel_diff(getattr(result.report, field), getattr(expect, field)) <= 1e-12

    def test_nodes_per_batch_tape_do_not_depend_on_windows_or_steps(self):
        for variant in VARIANTS:
            counts = set()
            for days in (2, 3):
                config = ModelConfig(days=days, day_len=4, n_features=3, hidden_size=4,
                                     feature_attn_size=2, temporal_attn_size=2, head_size=2,
                                     variant=variant)
                windows = random_windows(config, max(BATCH_SIZES), seed=92)
                for count in BATCH_SIZES:
                    tape = Tape()
                    forward(bind(init_params(config), tape), config, windows[:count])
                    counts.add(len(tape))
            assert len(counts) == 1, (variant, counts)

    @pytest.mark.parametrize("field", ["x_hist", "y_hist", "x_future"])
    def test_window_dimension_mismatch_in_a_batch(self, field):
        config = config_at("tiny", "ANLF")
        params = init_params(config)
        windows = random_windows(config, 3, seed=93)
        bad = windows[1]
        value = getattr(bad, field)
        fields = {name: getattr(bad, name)
                  for name in ("x_hist", "y_hist", "x_future", "y_future", "start")}
        fields[field] = value[..., :-1] if value.ndim > 1 else value[:-1]
        windows[1] = WindowSample(**fields)
        with pytest.raises(DimensionError):
            forward(bind_constants(params), config, windows)
        with pytest.raises(DimensionError):
            batch_gradients(params, config, windows)
        with pytest.raises(DimensionError):
            mean_mse(params, config, windows)

    def test_empty_batch_rejected(self):
        config = config_at("tiny", "ANLF")
        with pytest.raises(DimensionError):
            forward(bind_constants(init_params(config)), config, [])
