"""Model wiring: init, variants, and a straight-line numpy forward oracle."""

import dataclasses
import gc
import tracemalloc
import weakref
from datetime import datetime

import numpy as np
import numpy.testing as npt
import pytest

from loadcast import lstm, model, tensor, verify
from loadcast.attention import similar_day_weights
from loadcast.data import WindowSample
from loadcast.errors import ConfigError, DimensionError, TapeError
from loadcast.model import (VARIANTS, ModelConfig, StackedWindows, forward, init_params,
                            predict)
from loadcast.params import bind, bind_constants, map_leaves, named_leaves
from loadcast.tensor import Tape, Tensor, check_gradients
from loadcast.training import batch_gradients, mse_loss
from loadcast.verify import tiny_model_case

TINY = ModelConfig(days=2, day_len=4, n_features=3, hidden_size=4,
                   feature_attn_size=2, temporal_attn_size=2, head_size=2)


def random_sample(config, seed):
    rng = np.random.default_rng(seed)
    return WindowSample(
        x_hist=rng.normal(size=(config.history_len, config.n_features)),
        y_hist=rng.normal(size=config.history_len),
        x_future=rng.normal(size=(config.horizon, config.n_features)),
        y_future=rng.normal(size=config.horizon),
        start=datetime(2022, 1, 5))


def encoding_arrays(encoding):
    """Every array an `Encoding` holds, its feature weights included."""
    states = [encoding.terminal_forward, encoding.terminal_backward]
    return ([encoding.states.values]
            + [tensor.values for state in states if state is not None
               for tensor in (state.h, state.c)]
            + ([] if encoding.feature_weights is None else [encoding.feature_weights]))


def numpy_forward(params, config, sample):
    """Re-run the full forecast with plain numpy, no tape, no shared code.

    Written independently of the library internals so the two
    implementations can disagree.
    """

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    def softmax(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    def cell(p, h, c, x):
        # Gate k is row block k of the weights, [x | h] columns, and of
        # both biases.
        n, width = len(h), len(x)

        def pre(k):
            rows = slice(k * n, (k + 1) * n)
            return (p.weights[rows, :width] @ x + p.b_x[rows]
                    + p.weights[rows, width:] @ h + p.b_h[rows])

        i = sig(pre(0))
        f = sig(pre(1))
        g = np.tanh(pre(2))
        o = sig(pre(3))
        c_new = f * c + i * g
        return o * np.tanh(c_new), c_new

    hs = config.hidden_size
    t_h = config.history_len
    day_len = config.day_len

    # Encoder: forward sweep with feature attention conditioned on the
    # previous forward state, then the backward sweep over the same
    # reweighted inputs.
    h_f, c_f = np.zeros(hs), np.zeros(hs)
    inputs, forward_h = [], []
    for t in range(t_h):
        joined = np.concatenate([h_f, sample.x_hist[t], [sample.y_hist[t]]])
        alpha = softmax(params.feature_attn.score
                        @ np.tanh(params.feature_attn.proj @ joined))
        step = np.append(alpha * sample.x_hist[t], sample.y_hist[t])
        h_f, c_f = cell(params.encoder.forward, h_f, c_f, step)
        inputs.append(step)
        forward_h.append(h_f)
    h_b, c_b = np.zeros(hs), np.zeros(hs)
    backward_h = [None] * t_h
    for t in reversed(range(t_h)):
        h_b, c_b = cell(params.encoder.backward, h_b, c_b, inputs[t])
        backward_h[t] = h_b
    states = np.stack([np.concatenate([forward_h[t], backward_h[t]])
                       for t in range(t_h)])
    enc_term_f = (h_f, c_f)
    enc_term_b = (h_b, c_b)

    # Similar-day weights over the raw history, cut into days.
    day_blocks = sample.x_hist.reshape(config.days, day_len, config.n_features)
    distances = np.array([
        sum(np.sqrt(((day_blocks[d, :, k] - sample.x_future[:, k]) ** 2).sum())
            for k in range(config.n_features))
        for d in range(config.days)])
    gamma = softmax(np.minimum(1.0 / (distances + 1e-8), 1e8))

    # Decoder forward sweep with temporal attention, then the backward sweep.
    h_f, c_f = enc_term_f
    back_h0 = enc_term_b[0]
    inputs, forward_dec = [], []
    for t in range(day_len):
        conditioning = np.concatenate([h_f, back_h0])
        joined = np.concatenate([conditioning, sample.x_future[t]])
        beta_flat = softmax(params.temporal_attn.score
                            @ np.tanh(params.temporal_attn.proj @ joined))
        beta = beta_flat.reshape(config.days, day_len)
        combined = (gamma[:, np.newaxis] * beta).reshape(t_h)
        context = combined @ states
        step = np.concatenate([sample.x_future[t], context])
        h_f, c_f = cell(params.decoder.forward, h_f, c_f, step)
        inputs.append(step)
        forward_dec.append(h_f)
    h_b, c_b = enc_term_b
    backward_dec = [None] * day_len
    for t in reversed(range(day_len)):
        h_b, c_b = cell(params.decoder.backward, h_b, c_b, inputs[t])
        backward_dec[t] = h_b
    stacked = np.concatenate([np.concatenate([forward_dec[t], backward_dec[t]])
                              for t in range(day_len)])
    hidden = np.maximum(params.head.hidden @ stacked, 0.0)
    return params.head.out @ hidden


class TestConfig:
    def test_derived_dimensions(self):
        assert TINY.history_len == 8
        assert TINY.horizon == 4
        assert TINY.state_width == 8
        assert TINY.encoder_input_width == 4
        assert TINY.decoder_input_width == 11

    def test_variant_switches(self):
        on_off = {"ANLF": (True, True), "eAttention": (True, False),
                  "dAttention": (False, True), "EDBiLSTM": (False, False),
                  "EDLSTM": (False, False)}
        for variant, (enc, dec) in on_off.items():
            config = ModelConfig(days=2, day_len=4, n_features=3, hidden_size=4,
                                 feature_attn_size=2, temporal_attn_size=2,
                                 head_size=2, variant=variant)
            assert config.encoder_attention is enc
            assert config.decoder_attention is dec
            assert config.bidirectional is (variant != "EDLSTM")

    def test_rejected_configs(self):
        with pytest.raises(ConfigError):
            ModelConfig(days=0, day_len=4, n_features=3, hidden_size=4,
                        feature_attn_size=2, temporal_attn_size=2, head_size=2)
        with pytest.raises(ConfigError):
            ModelConfig(days=2, day_len=4, n_features=3, hidden_size=4,
                        feature_attn_size=2, temporal_attn_size=2, head_size=2,
                        variant="GRU")
        for key in ("days", "seed"):
            with pytest.raises(ConfigError):
                dataclasses.replace(TINY, **{key: True})


class TestInit:
    def test_same_seed_same_parameters(self):
        a = dict(named_leaves(init_params(TINY)))
        b = dict(named_leaves(init_params(TINY)))
        assert a.keys() == b.keys()
        for name in a:
            npt.assert_array_equal(a[name], b[name])

    def test_different_seed_differs(self):
        other = ModelConfig(days=2, day_len=4, n_features=3, hidden_size=4,
                            feature_attn_size=2, temporal_attn_size=2,
                            head_size=2, seed=1)
        a = [arr for _, arr in named_leaves(init_params(TINY))]
        b = [arr for _, arr in named_leaves(init_params(other))]
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_a_leaf_of_another_type_is_named(self):
        params = init_params(TINY)
        params.encoder.forward.b_x = params.encoder.forward.b_x.tolist()
        with pytest.raises(TypeError,
                           match="unsupported parameter field 'encoder.forward.b_x': list"):
            bind_constants(params)

    def test_parameter_count_matches_closed_form(self):
        n, hs, day_len, days = TINY.n_features, TINY.hidden_size, TINY.day_len, TINY.days
        width = 2 * hs
        attn = TINY.feature_attn_size
        lstm = 4 * (hs * (TINY.encoder_input_width + hs) + 2 * hs)
        dec_lstm = 4 * (hs * (TINY.decoder_input_width + hs) + 2 * hs)
        expect = (attn * (hs + n + 1) + n * attn             # feature attention
                  + 2 * lstm                                 # encoder BiLSTM
                  + attn * (width + n) + days * day_len * attn  # temporal
                  + 2 * dec_lstm                             # decoder BiLSTM
                  + TINY.head_size * day_len * width         # head hidden
                  + day_len * TINY.head_size)                # head out
        assert expect == 996
        total = sum(arr.size for _, arr in named_leaves(init_params(TINY)))
        assert total == expect

    def test_attention_blocks_absent_when_unused(self):
        for variant in ("EDBiLSTM", "EDLSTM"):
            config = ModelConfig(days=2, day_len=4, n_features=3, hidden_size=4,
                                 feature_attn_size=2, temporal_attn_size=2,
                                 head_size=2, variant=variant)
            params = init_params(config)
            assert params.feature_attn is None
            assert params.temporal_attn is None

    def test_bounds_scale_with_hidden_size(self):
        config = ModelConfig(days=2, day_len=4, n_features=3, hidden_size=16,
                             feature_attn_size=2, temporal_attn_size=2,
                             head_size=2)
        for _, arr in named_leaves(init_params(config)):
            assert np.abs(arr).max() <= 0.25


class TestForward:
    def test_matches_numpy_oracle(self):
        for seed in range(5):
            params = init_params(TINY)
            sample = random_sample(TINY, seed=40 + seed)
            got = predict(params, TINY, sample)
            expect = numpy_forward(params, TINY, sample)
            npt.assert_allclose(got.values, expect, rtol=0, atol=1e-12)

    def test_output_shape_per_variant(self):
        for variant in VARIANTS:
            config = ModelConfig(days=2, day_len=4, n_features=3, hidden_size=4,
                                 feature_attn_size=2, temporal_attn_size=2,
                                 head_size=2, variant=variant)
            forecast = predict(init_params(config), config,
                               random_sample(config, seed=50))
            assert forecast.values.shape == (4,)

    def test_future_loads_never_read(self):
        params = init_params(TINY)
        sample = random_sample(TINY, seed=51)
        tampered = WindowSample(x_hist=sample.x_hist, y_hist=sample.y_hist,
                                x_future=sample.x_future,
                                y_future=sample.y_future + 1000.0,
                                start=sample.start)
        npt.assert_array_equal(predict(params, TINY, sample).values,
                               predict(params, TINY, tampered).values)

    def test_attention_traces_only_when_requested(self):
        params = init_params(TINY)
        sample = random_sample(TINY, seed=52)
        bare = predict(params, TINY, sample)
        assert bare.feature_weights is None and bare.hour_weights is None
        traced = predict(params, TINY, sample, collect_attention=True)
        assert traced.feature_weights.shape == (8, 3)
        assert traced.hour_weights.shape == (4, 8)
        assert traced.day_weights.shape == (2,)
        npt.assert_allclose(traced.feature_weights.sum(axis=1), 1.0, atol=1e-12)
        npt.assert_allclose(traced.hour_weights.sum(axis=1), 1.0, atol=1e-12)
        npt.assert_allclose(traced.day_weights.sum(), 1.0, atol=1e-12)
        npt.assert_array_equal(traced.values, bare.values)

    @pytest.mark.parametrize("seed", [8, 9])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_forward_alone_decides_traces_with_or_without_an_encoding(self, variant, seed):
        # `forward` runs both stages itself: with the flag its traces are
        # the weights those stages keep, and no trace leaks out without it.
        config, sample = tiny_model_case(variant, seed)
        bound = bind_constants(init_params(config))
        windows = StackedWindows.stack(config, [sample])
        encoding = model.encode(bound, config, windows)
        decoding = model.decode(bound, config, encoding, windows)
        stages = {"feature_weights": (encoding.feature_weights, config.encoder_attention),
                  "hour_weights": (decoding.hour_weights, config.decoder_attention),
                  "day_weights": (windows.day_weights, config.decoder_attention)}
        traced = forward(bound, config, windows, collect_attention=True).forecasts[0]
        for field, (weights, present) in stages.items():
            value = getattr(traced, field)
            assert (value is not None) == (weights is not None) == present, field
            if weights is not None:
                npt.assert_array_equal(value, weights[..., 0], strict=True)
        bare = forward(bound, config, windows).forecasts[0]
        npt.assert_array_equal(bare.values, traced.values, strict=True)
        assert all(getattr(bare, field) is None for field in stages)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_encode_reads_only_the_histories(self, variant):
        # The decoder builds its own attention inputs: an encoding made
        # without the future features and the day grid is the full one.
        config, sample = tiny_model_case(variant)
        params = bind_constants(init_params(config))
        windows = StackedWindows.stack(config, [sample])
        history = dataclasses.replace(windows, future_features=None, day_grid=None)
        for value, ref in zip(encoding_arrays(model.encode(params, config, history)),
                              encoding_arrays(model.encode(params, config, windows)),
                              strict=True):
            npt.assert_array_equal(value, ref, strict=True)

    def test_day_weights_come_from_the_window_history(self):
        # A window gives its history once: the served day weights are those
        # of its own x_hist cut into days, alone or in a batch, and follow a
        # change to one history day.
        config, sample = tiny_model_case()
        params = init_params(config)

        def own_weights(window):
            blocks = window.x_hist.reshape(config.days, config.day_len, config.n_features)
            return similar_day_weights(blocks[..., np.newaxis],
                                       window.x_future[..., np.newaxis])[:, 0]

        x_hist = sample.x_hist.copy()
        x_hist[:config.day_len] += 1.0
        changed = dataclasses.replace(sample, x_hist=x_hist)
        served = [predict(params, config, window, collect_attention=True).day_weights
                  for window in (sample, changed)]
        for window, weights in zip((sample, changed), served):
            npt.assert_array_equal(weights, own_weights(window))
        assert not np.array_equal(served[0], served[1])
        batch = forward(bind_constants(params), config, [sample, changed],
                        collect_attention=True).forecasts
        for fc, weights in zip(batch, served):
            npt.assert_array_equal(fc.day_weights, weights)

    def test_attention_free_variants_ignore_injected_attention_params(self):
        config = ModelConfig(days=2, day_len=4, n_features=3, hidden_size=4,
                             feature_attn_size=2, temporal_attn_size=2,
                             head_size=2, variant="EDBiLSTM")
        params = init_params(config)
        sample = random_sample(config, seed=53)
        base = predict(params, config, sample)

        donor = init_params(ModelConfig(days=2, day_len=4, n_features=3,
                                        hidden_size=4, feature_attn_size=2,
                                        temporal_attn_size=2, head_size=2,
                                        seed=99))
        params.feature_attn = donor.feature_attn
        params.temporal_attn = donor.temporal_attn
        npt.assert_array_equal(predict(params, config, sample).values,
                               base.values)

    def test_unidirectional_variant_seeds_decoder_from_terminal(self):
        config = ModelConfig(days=2, day_len=4, n_features=3, hidden_size=4,
                             feature_attn_size=2, temporal_attn_size=2,
                             head_size=2, variant="EDLSTM")
        params = init_params(config)
        sample = random_sample(config, seed=54)
        base = predict(params, config, sample).values

        # Scaling the whole history must reach the decoder through the
        # terminal state and change the forecast.
        scaled = WindowSample(x_hist=3.0 * sample.x_hist,
                              y_hist=3.0 * sample.y_hist,
                              x_future=sample.x_future,
                              y_future=sample.y_future,
                              start=sample.start)
        assert not np.array_equal(predict(params, config, scaled).values, base)

    def test_shape_errors(self):
        params = init_params(TINY)
        sample = random_sample(TINY, seed=55)
        bad = WindowSample(x_hist=sample.x_hist[:, :2], y_hist=sample.y_hist,
                           x_future=sample.x_future, y_future=sample.y_future,
                           start=sample.start)
        with pytest.raises(DimensionError):
            predict(params, TINY, bad)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_prebuilt_stacked_windows_are_the_list(self, variant):
        # A value stacked once serves every pass over its windows, taped or
        # not, with bitwise the forecasts and attention weights of the list.
        config = dataclasses.replace(TINY, variant=variant)
        params = init_params(config)
        fields = ("values", "feature_weights", "hour_weights", "day_weights")
        for samples in ([random_sample(config, 60)],
                        [random_sample(config, 61 + k) for k in range(3)]):
            windows = StackedWindows.stack(config, samples)
            for bound in (bind_constants(params), bind(params, Tape()), bind_constants(params)):
                got = forward(bound, config, windows, collect_attention=True)
                expect = forward(bound, config, samples, collect_attention=True)
                npt.assert_array_equal(got.output.values, expect.output.values, strict=True)
                assert len(got.forecasts) == len(samples)
                for fc, ref in zip(got.forecasts, expect.forecasts):
                    for field in fields:
                        value, ref_value = getattr(fc, field), getattr(ref, field)
                        assert (value is None) == (ref_value is None), field
                        if value is not None:
                            npt.assert_array_equal(value, ref_value, strict=True)

    def test_stacked_windows_are_read_only_and_fit_one_config(self):
        config, sample = tiny_model_case()
        windows = StackedWindows.stack(config, [sample])
        assert windows.count == 1 and windows.day_weights.shape == (config.days, 1)
        # The hourly grid gives each history hour its day's weight.
        npt.assert_array_equal(windows.day_grid,
                               np.repeat(windows.day_weights, config.day_len, axis=0),
                               strict=True)
        for arr in (windows.hist_features, windows.hist_targets, windows.future_features,
                    windows.day_weights, windows.day_grid):
            assert not arr.flags.writeable
        other = dataclasses.replace(config, hidden_size=5)
        with pytest.raises(ConfigError, match="do not fit"):
            forward(bind_constants(init_params(other)), other, windows)
        plain = StackedWindows.stack(dataclasses.replace(config, variant="EDBiLSTM"), [sample])
        assert plain.day_weights is None and plain.day_grid is None
        with pytest.raises(DimensionError, match="at least one window"):
            StackedWindows.stack(config, [])

    def test_forward_and_predict_agree(self):
        params = init_params(TINY)
        sample = random_sample(TINY, seed=56)
        npt.assert_array_equal(forward(params, TINY, [sample]).forecasts[0].values,
                               predict(params, TINY, sample).values)

    def test_tiny_window_tape_size(self):
        # The encoder's sequence run records one op and a view for the
        # states and for each direction's terminal h and c, 4 nodes for one
        # direction and 6 for two, whatever its inputs are; the decoder's
        # records the op and the states view alone, since nothing reads its
        # terminal states.  The head's reshape, the head and the loss are
        # one op each, and every parameter array is one leaf.
        expected = {"ANLF": 28, "eAttention": 26, "dAttention": 26,
                    "EDBiLSTM": 24, "EDLSTM": 16}
        for variant in VARIANTS:
            config, sample = tiny_model_case(variant)
            tape = Tape()
            output = forward(bind(init_params(config), tape), config, [sample]).output
            assert len(tape) == expected[variant], variant
            mse_loss(output, sample.y_future[:, np.newaxis])
            assert len(tape) == expected[variant] + 1, variant

    def test_gradient_check_runs_two_passes_per_parameter_scalar(self, seed8_gate):
        # The gate's finite-difference check probes every scalar: one taped
        # pass for the analytic gradients, then +h and -h for each of the
        # tiny model's 996 parameters, each a lane of one of 32 untaped
        # lane passes of at most `LANES_PER_PASS` lanes.
        config, _sample = tiny_model_case()
        assert sum(leaf.size for _name, leaf in named_leaves(init_params(config))) == 996
        assert seed8_gate.lanes.head == 1 + 2 * 996
        assert verify.LANES_PER_PASS == 64 and seed8_gate.head == 1 + 32

    def test_gradient_check_computes_the_similar_day_weights_once(self, seed8_gate):
        # The window is stacked, and its similar-day weights computed, once
        # per report; every one of the 1 + 2 * 996 passes reads that value.
        assert seed8_gate.similar_day_weights == 1
        assert seed8_gate.lanes.head == 1 + 2 * 996

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradient_check_lanes_are_bitwise_lone_probes(self, variant, monkeypatch):
        # The reference runs every probe as a lone `forward`; the report
        # runs them as lanes of its own `forward` calls, each pass with the
        # LSTM blocks it does not move shared by its lanes as one stride-0
        # view.  Every lane's loss is bitwise its lone probe's, and so is
        # the report.  At seed 8 eAttention and EDBiLSTM forecast 0, and
        # seed 9 keeps every variant's head live, so that a lane that read
        # another lane's values would show.
        passes, shared, lone, laned = [], [], [], []
        recurrent = ("encoder.", "decoder.")

        def recorded(bound, config, windows):
            passes.append(bound)
            # In a lane pass, an LSTM block whose lanes are all equal is unmoved.
            for name, leaf in named_leaves(bound) if model._lanes(bound.encoder) else ():
                if name.startswith(recurrent) and np.all(leaf.values == leaf.values[:1]):
                    assert leaf.values.strides[0] == 0, name
                    shared.append(name)
            return forward(bound, config, windows)

        def lone_losses(program, params, points):
            lone.append(probe_losses(program, params, points))
            return lone[-1]

        def lane_losses(program, arrays, h, tolerance, losses):
            return check_gradients(program, arrays, h=h, tolerance=tolerance,
                                   losses=lambda points: laned.append(losses(points)) or laned[-1])

        probe_losses = tensor._probe_losses
        monkeypatch.setattr(verify, "forward", recorded)
        monkeypatch.setattr(tensor, "_probe_losses", lone_losses)
        monkeypatch.setattr(verify, "check_gradients", lane_losses)
        for seed in (8, 9):
            config, sample = tiny_model_case(variant, seed=seed)
            template = init_params(config)
            arrays = {name: np.array(leaf) for name, leaf in named_leaves(template)}

            def program(leaves):
                bound = map_leaves(template, lambda name, _leaf: leaves[name])
                return mse_loss(forward(bound, config, [sample]).output,
                                sample.y_future[:, np.newaxis])

            expect = check_gradients(program, arrays, h=1e-5, tolerance=1e-4)
            passes.clear()
            report = verify.model_gradient_report(config, sample)
            probes = 2 * sum(values.size for values in arrays.values())
            assert len(passes) == 1 + -(-probes // verify.LANES_PER_PASS)
            assert report.max_rel_error == expect.max_rel_error
            assert report.per_param == expect.per_param
            assert report.worst == expect.worst
            assert list(laned[-1]) == list(lone[-1]) == list(arrays)
            for name in arrays:
                assert laned[-1][name].tobytes() == lone[-1][name].tobytes(), name
        # Every LSTM block is shared by the lanes of some pass.
        assert {name for name in arrays if name.startswith(recurrent)} <= set(shared)

    def test_gradient_check_runs_the_encoder_once_per_encoder_side_probe(self, seed8_gate):
        # Each of the 2 * 342 feature-attention and encoder probes runs its
        # own encoder, as does every other probe: one lane per probe, the
        # taped pass beside them, in 1 + 32 runs.
        config, _sample = tiny_model_case()
        params = init_params(config)
        encoder_side = [leaf.size for block in (params.feature_attn, params.encoder)
                        for _name, leaf in named_leaves(block)]
        assert sum(encoder_side) == 342
        assert seed8_gate.lanes.encode == 1 + 2 * 996 and seed8_gate.encode == 1 + 32

    def test_gradient_check_runs_the_decoder_once_per_decoder_side_probe(self, seed8_gate):
        # Each of the 2 * 924 probes of the scalars before the head runs
        # its own decoder, and so does each of the 2 * 72 head probes.
        config, _sample = tiny_model_case()
        params = init_params(config)
        head = sum(leaf.size for _name, leaf in named_leaves(params.head))
        assert head == 72 and seed8_gate.lanes.head == 1 + 2 * (924 + head)
        assert seed8_gate.lanes.decode == 1 + 2 * (924 + head) and seed8_gate.decode == 1 + 32

    def test_gradient_check_steps_the_feature_sweep_once_per_forward_side_probe(
            self, seed8_gate):
        # Each of the 2 * 182 feature-attention and forward encoder probes
        # steps its own feature sweep, as every other probe does, in the
        # runs of the 1 + 32 encoder passes.
        config, _sample = tiny_model_case()
        params = init_params(config)
        forward_side = [leaf.size for block in (params.feature_attn, params.encoder.forward)
                        for _name, leaf in named_leaves(block)]
        assert sum(forward_side) == 182
        assert seed8_gate.lanes.feature_sweep_runs == 1 + 2 * 996
        assert seed8_gate.feature_sweep_runs == seed8_gate.encode == 1 + 32

    def test_gradient_check_steps_the_temporal_sweep_once_per_probe(self, seed8_gate):
        # The backward decoder probes step the temporal sweep too: every
        # probe is one lane of a full pass.
        assert seed8_gate.lanes.temporal_sweep_runs == 1 + 2 * 996
        assert seed8_gate.temporal_sweep_runs == seed8_gate.decode == 1 + 32

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_lane_pass_is_each_lone_pass(self, variant):
        # At tiny size and at hidden 32, over 1 and 3 windows: each lane of
        # a 3-lane pass, whose lanes move scalars of several blocks, gives
        # bitwise the outputs, attention weights and loss of a lone
        # untaped `forward` at that lane's parameters.
        tiny = tiny_model_case(variant)[0]
        for config in (tiny, dataclasses.replace(
                tiny, days=3, day_len=6, hidden_size=32, feature_attn_size=16,
                temporal_attn_size=16, head_size=32)):
            template = init_params(config)
            names = [name for name, _leaf in named_leaves(template)]
            for count in (1, 3):
                samples = [random_sample(config, 90 + k) for k in range(count)]
                target = np.stack([sample.y_future for sample in samples], axis=-1)
                sets = []
                for lane in range(3):
                    moved = {name: np.array(leaf) for name, leaf in named_leaves(template)}
                    for name in names[lane::3]:
                        moved[name].reshape(-1)[lane % moved[name].size] += 1e-3 * (lane + 1)
                    sets.append(moved)
                laned = map_leaves(template, lambda name, _leaf: Tensor(
                    np.stack([moved[name] for moved in sets])))
                lanes = forward(laned, config, samples, collect_attention=True)
                losses = mse_loss(lanes.output, target).values
                assert lanes.output.shape == (3, config.horizon, count)
                for lane, moved in enumerate(sets):
                    lone = forward(bind_constants(map_leaves(
                        template, lambda name, _leaf: moved[name])), config, samples,
                        collect_attention=True)
                    assert lanes.output.values[lane].tobytes() == lone.output.values.tobytes()
                    # The feature and hour weights; the day weights are the windows'.
                    for traced, ref in zip(lanes.traces[:2], lone.traces[:2], strict=True):
                        assert (traced is None) == (ref is None)
                        if ref is not None:
                            assert traced[:, lane].tobytes() == ref.tobytes()
                    loss = mse_loss(lone.output, target).values
                    assert losses[lane].tobytes() == loss.tobytes()

    @pytest.mark.parametrize("side", ["encoder", "decoder"])
    def test_a_taped_lane_operand_is_refused(self, side):
        # A lane pass records nothing, so a taped leaf of either direction
        # of either side, or of the head, is refused, and nothing but the
        # leaves is recorded.
        config, sample = tiny_model_case("ANLF")
        windows = StackedWindows.stack(config, [sample])
        laned = map_leaves(init_params(config), lambda _name, leaf: np.stack([leaf] * 2))
        for prefix in (f"{side}.forward.", f"{side}.backward.", "head."):
            tape = Tape()
            taped = map_leaves(laned, lambda name, leaf: (
                tape.leaf(leaf) if name.startswith(prefix) else Tensor(leaf)))
            with pytest.raises(TapeError, match="a lane pass records nothing"):
                forward(taped, config, windows)
            assert len(tape) == sum(name.startswith(prefix)
                                    for name, _leaf in named_leaves(laned))

    def test_lane_counts_that_disagree_name_their_shapes(self):
        # Every leaf of one lane pass has the same lanes; a block, a cell
        # or an initial state with other lanes, or none, is refused with
        # the shapes that disagree.
        config, sample = tiny_model_case("ANLF")
        windows = StackedWindows.stack(config, [sample])

        def lanes_of(leaf, count):
            return Tensor(leaf if count is None else np.stack([leaf] * count))

        agreeing = map_leaves(init_params(config), lambda _name, leaf: lanes_of(leaf, 2))
        assert forward(agreeing, config, windows).output.shape == (2, config.horizon, 1)
        # The blocks under `prefix` get `lanes` (None: no lane axis), the others 2.
        for prefix, lanes in (("encoder.backward.", 3), ("encoder.forward.b_h", 3),
                              ("decoder.", 3), ("temporal_attn.", 3), ("head.out", 3),
                              ("head.", None), ("decoder.backward.", None)):
            params = map_leaves(init_params(config), lambda name, leaf: lanes_of(
                leaf, lanes if name.startswith(prefix) else 2))
            with pytest.raises(DimensionError, match=r"\(2, |\(3, "):
                forward(params, config, windows)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_lanes_of_their_own_windows_are_each_lone_pass(self, variant):
        # At tiny size and at hidden 32: three lanes, each a seed's
        # parameters, over windows of their own.  With one window a lane,
        # each lane is bitwise `predict` at its seed on its window, values
        # and every trace; with two, bitwise `forward` over its windows.
        tiny = tiny_model_case(variant)[0]
        for config in (tiny, dataclasses.replace(
                tiny, days=3, day_len=6, hidden_size=32, feature_attn_size=16,
                temporal_attn_size=16, head_size=32)):
            trees = [init_params(dataclasses.replace(config, seed=seed)) for seed in (8, 9, 10)]
            laned = map_leaves(trees[0], lambda name, _leaf: Tensor(
                np.stack([dict(named_leaves(tree))[name] for tree in trees])))
            for count in (1, 2):
                windows = [[random_sample(config, 10 * lane + k) for k in range(count)]
                           for lane in range(3)]
                lanes = forward(laned, config, windows, collect_attention=True)
                assert lanes.output.shape == (3, config.horizon, count)
                for lane, (tree, own) in enumerate(zip(trees, windows)):
                    if count == 1:
                        fc = predict(tree, config, own[0], collect_attention=True)
                        lone = (fc.values, fc.feature_weights, fc.hour_weights, fc.day_weights)
                        got = (lanes.output.values[lane, :, 0],) + tuple(
                            None if trace is None else trace[:, lane, ..., 0]
                            for trace in lanes.traces)
                    else:
                        fp = forward(bind_constants(tree), config, own, collect_attention=True)
                        lone = (fp.output.values,) + fp.traces
                        got = (lanes.output.values[lane],) + tuple(
                            None if trace is None else trace[:, lane] for trace in lanes.traces)
                    for value, expect in zip(got, lone, strict=True):
                        assert (value is None) == (expect is None)
                        if expect is not None:
                            assert value.shape == expect.shape
                            assert value.tobytes() == expect.tobytes(), (config, count, lane)

    def test_windows_of_their_own_that_do_not_fit_name_their_shapes(self):
        # Per-lane window lists must be nonempty lists of one length, every
        # window of the config's shapes, and as many as the parameters' lanes.
        config, sample = tiny_model_case("ANLF")
        short = dataclasses.replace(sample, x_hist=sample.x_hist[1:])
        for windows, message in (
                ([[sample], [sample, sample]], r"per-lane window lists of lengths \[1, 2\]"),
                ([[sample], []], r"per-lane window lists of lengths \[1, 0\]"),
                ([[sample], sample], r"per-lane window lists of lengths \[1, None\]"),
                ([[sample, sample], [sample, short]],
                 r"window 3: x_hist \(7, 3\) does not match \(8, 3\)")):
            with pytest.raises(DimensionError, match=message):
                StackedWindows.stack(config, windows)
        windows = StackedWindows.stack(config, [[sample]] * 3)
        assert windows.hist_features.shape == (8, 3, 3, 1) and windows.count == 1
        for variant in VARIANTS:
            config = tiny_model_case(variant)[0]
            windows = StackedWindows.stack(config, [[sample]] * 3)
            # The message names the windows' (8, 3, rows, 1) step rows, and
            # the parameters' lanes, if any.
            for lanes, shapes in ((None, r"\(8, 3, \d, 1\)"), (2, r"\(8, 3, \d, 1\).*\(2, ")):
                params = map_leaves(init_params(config), lambda _name, leaf: Tensor(
                    leaf if lanes is None else np.stack([leaf] * lanes)))
                with pytest.raises(DimensionError, match=shapes):
                    forward(params, config, windows)

    @pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "ANLF"])
    def test_full_model_gradients_match_finite_differences(self, variant):
        # Seed 9 is the first seed from 8 whose ReLU head is live for every
        # variant (at 8, eAttention and EDBiLSTM forecast 0).  At h = 1e-5
        # the differences' roundoff reaches 4.9e-4 (dAttention); at 1e-4 the
        # largest error is 5.7e-5 (EDLSTM).
        config, sample = tiny_model_case(variant, seed=9)
        grads = batch_gradients(init_params(config), config, [sample])
        assert all(np.any(g != 0.0) for g in grads.values())
        report = verify.model_gradient_report(config, sample, h=1e-4, tolerance=1e-4)
        assert report.passed, f"max rel error {report.max_rel_error:.3e}"

    def test_window_tape_is_freed_without_the_cycle_collector(self):
        # Nothing a window records may hold the tape in a reference cycle;
        # a backward rule that kept a taped operand would.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for variant in VARIANTS:
                config, sample = tiny_model_case(variant)
                tape = Tape()
                fc = forward(bind(init_params(config), tape), config, [sample])
                tape.backward(mse_loss(fc.output, sample.y_future[:, np.newaxis]))
                alive = weakref.ref(tape)
                del tape, fc
                assert alive() is None, variant
        finally:
            if enabled:
                gc.enable()


# Per variant, the np.isfinite calls and the entries they scan in one
# untaped tiny `forward` (parameters bound before), one `predict` and one
# seed-8 `model_gradient_report`, as counted before the per-op set-up of
# the sequence ops, sweeps, head and loss was trimmed: every array scanned
# then is still scanned, once.  The gate's entries are its window and
# target, its taped pass, its 2 * P moved scalars and 2 * P losses, and
# per probe the entries an untaped pass of one window scans of its own
# (363, 247, 235, 119 and 119), once per lane, with per lane pass the
# known inputs its lanes share (0, 12, 32, 44 and 44), and 1 per block
# from `init_params`' draws.
SCANS = {
    "ANLF": ((9, 370), (27, 1366), (371, 728469)),
    "eAttention": ((7, 258), (23, 960), (249, 350841)),
    "dAttention": ((8, 274), (24, 1248), (322, 463937)),
    "EDBiLSTM": ((6, 162), (20, 842), (218, 166389)),
    "EDLSTM": ((6, 162), (14, 1098), (250, 228943)),
}


class TestScans:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_array_is_scanned_once(self, variant, monkeypatch):
        # The same entries as counted then; a call count may only fall,
        # where two scans over the same entries merge into one.
        isfinite, seen = np.isfinite, [0, 0]

        def counting(values, *args, **kwargs):
            seen[0] += 1
            seen[1] += np.size(values)
            return isfinite(values, *args, **kwargs)

        config, sample = tiny_model_case(variant)
        params = init_params(config)
        bound = bind_constants(params)
        counts = []
        for run in (lambda: forward(bound, config, [sample]),
                    lambda: predict(params, config, sample),
                    lambda: verify.model_gradient_report(config, sample)):
            seen[:] = [0, 0]
            with monkeypatch.context() as patch:
                patch.setattr(np, "isfinite", counting)
                run()
            counts.append(tuple(seen))
        for (calls, entries), (most_calls, expected) in zip(counts, SCANS[variant]):
            assert entries == expected and calls <= most_calls, (counts, SCANS[variant])


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of one call of `fn`."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestVerifyFootprint:
    """Coarse bounds on what the verify checks' lane passes hold: each
    check's traced peak, with a quarter or more of headroom over its
    reading, and the shape caches a round leaves."""

    # Readings 0.83 MB (gate) and 0.87 MB (attention check), after a round
    # has made every plan; before lanes shared their unmoved blocks and
    # the attention check ran two passes of 50 lanes they were 1.15 and
    # 1.57 MB.
    @pytest.mark.parametrize("check, bound", [
        (lambda: verify.model_gradient_report(*tiny_model_case(), h=1e-4), 1.05e6),
        (verify._check_attention_normalization, 1.1e6)], ids=["gate", "attention"])
    def test_a_check_peaks_under_its_bound(self, check, bound):
        check()
        assert traced_peak(check) <= bound

    def test_a_round_keeps_no_plan_or_tile_per_lane_count(self):
        # The round's lone op shapes: the oracle check's cells and
        # sequences, and ANLF's encoder and decoder sweeps, which the gate's
        # and the attention check's lane passes share with their lone ops.
        lstm._plan.cache_clear()
        lstm._gate_rows.cache_clear()
        sizes = []
        for _ in range(2):
            verify.run_all_checks()
            sizes.append((lstm._plan.cache_info().currsize, lstm._gate_rows.cache_info().currsize))
        assert sizes[0] == sizes[1] and sizes[0][0] <= 73 and sizes[0][1] <= 15
