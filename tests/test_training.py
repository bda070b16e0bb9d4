"""Loss, optimizer, and training loop behavior on small fixed cases."""

import math
import tracemalloc
from datetime import datetime
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

import loadcast.training as training
from loadcast.data import (FEATURE_WIDTH, StandardizationStats, WindowSample, build_features,
                           build_windows, compute_stats, destandardize_load,
                           generate_synthetic, split_by_forecast_day,
                           standardize, synthetic_calendar)
from loadcast.errors import ConfigError, DimensionError, EvaluationError, TrainingError
from loadcast.model import ModelConfig, forward, init_params
from loadcast.params import map_leaves, named_leaves
from loadcast.tensor import Tape, check_gradients, hadamard, scale, sub, total
from loadcast.training import (WINDOWS_PER_PASS, AdamState, TrainConfig, adam_step,
                               batch_gradients, clip_global_norm, evaluate,
                               mean_mse, mse_loss, train)

TINY = ModelConfig(days=2, day_len=4, n_features=3, hidden_size=4,
                   feature_attn_size=2, temporal_attn_size=2, head_size=2)


def random_samples(config, count, seed):
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        samples.append(WindowSample(
            x_hist=rng.normal(size=(config.history_len, config.n_features)),
            y_hist=rng.normal(size=config.history_len),
            x_future=rng.normal(size=(config.horizon, config.n_features)),
            y_future=rng.normal(size=config.horizon),
            start=datetime(2022, 1, 5)))
    return samples


class TestLoss:
    def test_hand_value(self):
        assert mse_loss([0.0, 0.0], [1.0, 3.0]).item() == 5.0

    def test_zero_at_match(self):
        assert mse_loss([2.0, 4.0], [2.0, 4.0]).item() == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mse_loss([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_shape_errors_keep_their_messages(self):
        with pytest.raises(DimensionError, match=r"loss needs equal-shape vectors or "
                                                 r"matrices, got \(2,\) and \(2, 1\)"):
            mse_loss([1.0, 2.0], [[1.0], [2.0]])
        with pytest.raises(DimensionError, match=r"got \(1, 1, 1\) and \(1, 1, 1\)"):
            mse_loss(np.ones((1, 1, 1)), np.ones((1, 1, 1)))

    @pytest.mark.parametrize("shape", [(5,), (5, 1), (5, 3)])
    def test_one_op_matches_the_composed_ops_bitwise(self, shape):
        rng = np.random.default_rng(len(shape) + shape[-1])
        pred, target = rng.normal(size=shape), rng.normal(size=shape)
        target.flat[0] = pred.flat[0]  # one zero error

        def run(loss):
            tape = Tape()
            leaves = [tape.leaf(pred), tape.leaf(target)]
            value = loss(*leaves)
            tape.backward(scale(value, 3.0))
            return value.values, [tape.grad(leaf) for leaf in leaves], len(tape)

        def composed(p, t):
            diff = sub(p, t)
            return scale(total(hadamard(diff, diff)), 1.0 / p.values.size)

        fused, fused_grads, fused_nodes = run(mse_loss)
        want, want_grads, want_nodes = run(composed)
        assert want_nodes - fused_nodes == 3
        assert fused == want
        for got, expected in zip(fused_grads, want_grads):
            npt.assert_array_equal(got, expected)
        assert fused_grads[0].flat[0] == 0.0

    @pytest.mark.parametrize("shape", [(4,), (4, 3)])
    def test_gradients_at_the_gate_tolerance(self, shape):
        rng = np.random.default_rng(40)
        report = check_gradients(lambda leaves: mse_loss(leaves["pred"], leaves["target"]),
                                 {"pred": rng.normal(size=shape),
                                  "target": rng.normal(size=shape)})
        assert report.passed, f"max rel error {report.max_rel_error:.3e}"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_an_overflowing_error_raises(self):
        with pytest.raises(EvaluationError):
            mse_loss([1e308, 0.0], [-1e308, 0.0])
        with pytest.raises(EvaluationError):
            mse_loss([1e200, 0.0], [0.0, 0.0])


class TestTrainConfig:
    def test_rejects_bad_settings(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(clip_norm=0.0)
        for key in ("batch_size", "epochs", "seed"):
            with pytest.raises(ConfigError):
                TrainConfig(**{key: True})
        with pytest.raises(ConfigError):
            TrainConfig(seed=-1)
        bad = {"learning_rate": (math.nan, math.inf, -math.inf, True, "0.01", None),
               "clip_norm": (math.nan, math.inf, False, "5")}
        for key, values in bad.items():
            for value in values:
                with pytest.raises(ConfigError, match=key):
                    TrainConfig(**{key: value})

    def test_clip_norm_may_be_disabled(self):
        assert TrainConfig(clip_norm=None).clip_norm is None


class TestAdam:
    def test_first_scalar_step_hand_value(self):
        params = {"w": np.array([0.0])}
        state = AdamState.for_params(params)
        config = TrainConfig(learning_rate=0.1)
        adam_step(params, {"w": np.array([1.0])}, state, config)
        # First step: m_hat = g, v_hat = g*g, so the update is
        # -lr * 1 / (1 + eps) regardless of the gradient's magnitude sign.
        npt.assert_allclose(params["w"], [-0.1 / (1.0 + 1e-8)], atol=1e-12)
        assert state.step == 1

    def test_zero_gradient_leaves_parameter_alone(self):
        params = {"w": np.array([3.0, -4.0])}
        state = AdamState.for_params(params)
        adam_step(params, {"w": np.zeros(2)}, state, TrainConfig())
        npt.assert_array_equal(params["w"], [3.0, -4.0])

    def test_update_is_in_place(self):
        arr = np.array([0.0])
        params = {"w": arr}
        adam_step(params, {"w": np.array([1.0])}, AdamState.for_params(params),
                  TrainConfig(learning_rate=0.1))
        assert params["w"] is arr
        assert arr[0] != 0.0

    def test_non_finite_gradient_names_parameter(self):
        params = {"bad_block": np.array([0.0])}
        with pytest.raises(TrainingError) as exc:
            adam_step(params, {"bad_block": np.array([np.nan])},
                      AdamState.for_params(params), TrainConfig())
        assert "bad_block" in str(exc.value)

    def test_gradient_shape_mismatch(self):
        params = {"w": np.zeros(2)}
        with pytest.raises(DimensionError):
            adam_step(params, {"w": np.zeros(3)}, AdamState.for_params(params),
                      TrainConfig())

    def test_in_place_steps_equal_the_composed_expressions_bitwise(self):
        # The moments and the update of several steps against the textbook
        # expressions, composed with fresh temporaries; each gradient given
        # is spent, and ends holding the step subtracted from its block.
        rng = np.random.default_rng(72)
        shapes = {"w": (4, 3), "b": (5,), "c": (2, 3, 2)}
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        expect = {name: theta.copy() for name, theta in params.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        state = AdamState.for_params(params)
        config = TrainConfig(learning_rate=0.01)
        beta1, beta2, eps = training.BETA1, training.BETA2, training.EPSILON
        for step in range(1, 6):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            given = {name: g.copy() for name, g in grads.items()}
            adam_step(params, given, state, config)
            for name, g in grads.items():
                m[name] = beta1 * m[name] + (1.0 - beta1) * g
                v[name] = beta2 * v[name] + (1.0 - beta2) * (g * g)
                m_hat = m[name] / (1.0 - beta1 ** step)
                v_hat = v[name] / (1.0 - beta2 ** step)
                update = config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
                expect[name] -= update
                assert np.array_equal(state.first_moment[name], m[name]), (step, name)
                assert np.array_equal(state.second_moment[name], v[name]), (step, name)
                assert np.array_equal(params[name], expect[name]), (step, name)
                assert np.array_equal(given[name], update), (step, name)

    def test_matches_scalar_reference_over_steps(self):
        """Follow five steps of the textbook recursion on one scalar."""
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        params = {"w": np.array([0.3])}
        state = AdamState.for_params(params)
        config = TrainConfig(learning_rate=lr)

        theta, m, v = 0.3, 0.0, 0.0
        rng = np.random.default_rng(71)
        for step in range(1, 6):
            g = float(rng.normal())
            adam_step(params, {"w": np.array([g])}, state, config)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1 ** step)) / ((v / (1 - b2 ** step)) ** 0.5 + eps)
            npt.assert_allclose(params["w"], [theta], atol=1e-12)


class TestClip:
    def test_small_gradients_untouched(self):
        grads = {"a": np.array([0.3, 0.4])}
        norm = clip_global_norm(grads, 5.0)
        npt.assert_allclose(norm, 0.5, atol=1e-15)
        npt.assert_array_equal(grads["a"], [0.3, 0.4])

    def test_large_gradients_scaled_to_max_norm(self):
        grads = {"a": np.array([3.0, 4.0]), "b": np.array([12.0])}
        norm = clip_global_norm(grads, 5.0)
        npt.assert_allclose(norm, 13.0, atol=1e-12)
        joined = np.concatenate([grads["a"], grads["b"]])
        npt.assert_allclose(np.sqrt((joined ** 2).sum()), 5.0, atol=1e-12)
        # Direction is preserved.
        npt.assert_allclose(grads["a"] / grads["b"][0],
                            np.array([3.0, 4.0]) / 12.0, atol=1e-12)


class TestBatchGradients:
    def test_mean_of_per_sample_gradients(self):
        params = init_params(TINY)
        samples = random_samples(TINY, 3, seed=72)
        whole = batch_gradients(params, TINY, samples)
        singles = [batch_gradients(params, TINY, [s]) for s in samples]
        for name in whole:
            expect = (singles[0][name] + singles[1][name] + singles[2][name]) / 3.0
            npt.assert_allclose(whole[name], expect, atol=1e-12)

    def test_leaves_parameters_untouched(self):
        params = init_params(TINY)
        before = {name: arr.copy() for name, arr in named_leaves(params)}
        batch_gradients(params, TINY, random_samples(TINY, 2, seed=73))
        for name, arr in named_leaves(params):
            npt.assert_array_equal(arr, before[name])

    def test_some_gradient_mass_everywhere(self):
        params = init_params(TINY)
        grads = batch_gradients(params, TINY, random_samples(TINY, 4, seed=74))
        nonzero = sum(int(np.any(g != 0.0)) for g in grads.values())
        assert nonzero >= 0.9 * len(grads)


class TestUntapedPasses:
    def test_a_pass_peaks_no_higher_than_a_taped_batch(self):
        """An untaped pass keeps only what its next step reads, so a pass of
        `WINDOWS_PER_PASS` windows needs no more memory than a taped
        4-window training batch."""
        config = ModelConfig(days=7, day_len=24, n_features=FEATURE_WIDTH, hidden_size=32,
                             feature_attn_size=16, temporal_attn_size=16, head_size=32)
        params = init_params(config)
        samples = random_samples(config, WINDOWS_PER_PASS, seed=88)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        scored = peak(lambda: mean_mse(params, config, samples))
        taped = peak(lambda: batch_gradients(params, config, samples[:4]))
        assert scored <= taped, (scored, taped)

    def test_each_epoch_is_scored_in_one_run_of_passes(self, monkeypatch):
        # Scored split by split, these sizes would take one pass more.
        train_set = random_samples(TINY, 12, seed=89)
        val_set = random_samples(TINY, 3, seed=90)
        passes = math.ceil((len(train_set) + len(val_set)) / WINDOWS_PER_PASS)
        untaped, scored_params = [], []
        original = training.forward

        def counted(params, config, samples, *args, **kwargs):
            if params.head.out.tape is None:
                if len(untaped) % passes == 0:
                    scored_params.append(map_leaves(params, lambda _name, leaf:
                                                    np.array(leaf.values)))
                untaped.append(len(samples))
            return original(params, config, samples, *args, **kwargs)

        monkeypatch.setattr(training, "forward", counted)
        result = train(TINY, train_set, val_set,
                       TrainConfig(batch_size=4, epochs=3, learning_rate=3e-3))
        monkeypatch.undo()
        assert len(untaped) == passes * len(result.log)
        assert sum(untaped) == (len(train_set) + len(val_set)) * len(result.log)
        for record, params in zip(result.log, scored_params):
            for logged, split in ((record.train_mse, train_set), (record.val_mse, val_set)):
                expect = mean_mse(params, TINY, split)
                assert abs(logged - expect) <= 1e-15 * expect, (record.epoch, logged, expect)


class TestTrainLoop:
    def test_epoch_log_starts_at_zero_and_runs_full_length(self):
        result = train(TINY, random_samples(TINY, 4, seed=75),
                       random_samples(TINY, 2, seed=76),
                       TrainConfig(batch_size=2, epochs=3, learning_rate=1e-3))
        assert [r.epoch for r in result.log] == [0, 1, 2, 3]
        assert result.log[0].seconds == 0.0

    def test_zero_learning_rate_keeps_initial_parameters(self):
        result = train(TINY, random_samples(TINY, 4, seed=77),
                       random_samples(TINY, 2, seed=78),
                       TrainConfig(batch_size=2, epochs=2, learning_rate=0.0))
        fresh = dict(named_leaves(init_params(TINY)))
        for name, arr in named_leaves(result.params):
            npt.assert_array_equal(arr, fresh[name])
        losses = {r.val_mse for r in result.log}
        assert len(losses) == 1

    def test_deterministic_replay(self):
        def run():
            result = train(TINY, random_samples(TINY, 6, seed=79),
                           random_samples(TINY, 2, seed=80),
                           TrainConfig(batch_size=2, epochs=2,
                                       learning_rate=3e-3, seed=5))
            return result

        a, b = run(), run()
        assert [(r.epoch, r.train_mse, r.val_mse) for r in a.log] == \
               [(r.epoch, r.train_mse, r.val_mse) for r in b.log]
        for (name, left), (_, right) in zip(named_leaves(a.params),
                                            named_leaves(b.params)):
            npt.assert_array_equal(left, right)

    def test_train_seed_orders_the_batches(self):
        train_set = random_samples(TINY, 6, seed=81)
        val_set = random_samples(TINY, 2, seed=82)
        first, second = (train(TINY, train_set, val_set,
                               TrainConfig(batch_size=2, epochs=1, learning_rate=1e-2,
                                           seed=seed)) for seed in (3, 4))
        assert first.log[1].train_mse != second.log[1].train_mse

    def test_returned_params_realize_best_logged_validation(self):
        result = train(TINY, random_samples(TINY, 6, seed=83),
                       random_samples(TINY, 3, seed=84),
                       TrainConfig(batch_size=3, epochs=4, learning_rate=5e-3))
        best = min(result.log, key=lambda r: r.val_mse)
        assert result.best_epoch == best.epoch
        got = mean_mse(result.params, TINY,
                       random_samples(TINY, 3, seed=84))
        npt.assert_allclose(got, best.val_mse, atol=1e-12)

    def test_best_epoch_before_the_last_is_returned_as_it_was(self):
        """Training goes on past the best epoch, and the returned parameters
        are that epoch's copy, not the live ones the later steps moved."""
        val_set = random_samples(TINY, 3, seed=91)
        result = train(TINY, random_samples(TINY, 6, seed=90), val_set,
                       TrainConfig(batch_size=2, epochs=3, learning_rate=5e-2))
        assert result.best_epoch == 2 and result.log[3].val_mse > result.log[2].val_mse
        npt.assert_allclose(mean_mse(result.params, TINY, val_set), result.log[2].val_mse,
                            rtol=1e-12)

    def test_each_trained_epoch_draws_one_permutation_in_turn(self, monkeypatch):
        """Epoch 0 draws nothing and trains on no batch; epoch e batches the
        e-th permutation of the `seed` generator."""
        train_set = random_samples(TINY, 5, seed=88)
        ids = [id(sample) for sample in train_set]
        batches = []
        real = training.batch_gradients

        def recording(params, config, samples):
            batches.append([ids.index(id(sample)) for sample in samples])
            return real(params, config, samples)

        monkeypatch.setattr(training, "batch_gradients", recording)
        train(TINY, train_set, random_samples(TINY, 2, seed=89),
              TrainConfig(batch_size=2, epochs=3, seed=6))
        rng = np.random.default_rng(6)
        orders = [rng.permutation(5).tolist() for _epoch in range(3)]
        assert batches == [order[start:start + 2] for order in orders
                           for start in range(0, 5, 2)]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_infinite_attention_preactivation_is_a_training_error(self, monkeypatch):
        def overflowing(config):
            params = init_params(config)
            params.feature_attn.proj = np.full(params.feature_attn.proj.shape, 1e308)
            return params

        monkeypatch.setattr(training, "init_params", overflowing)
        with pytest.raises(TrainingError, match="non-finite"):
            train(TINY, random_samples(TINY, 2, seed=86), random_samples(TINY, 1, seed=87),
                  TrainConfig(batch_size=2, epochs=1))

    def test_empty_split_rejected(self):
        with pytest.raises(TrainingError):
            train(TINY, [], random_samples(TINY, 2, seed=85), TrainConfig())
        with pytest.raises(TrainingError):
            train(TINY, random_samples(TINY, 2, seed=85), [], TrainConfig())

    def test_learns_the_synthetic_series(self):
        """A short real-pipeline run must clearly beat its own epoch 0.

        Model seed 3 keeps the ReLU head alive through training; seed 1
        collapses it at this learning rate and the loss freezes, which is
        a property of the initialization, not a regression.
        """
        records = generate_synthetic(16, seed=20)
        frames = build_features(records, synthetic_calendar(records))
        config = ModelConfig(days=7, day_len=24, n_features=45, hidden_size=8,
                             feature_attn_size=4, temporal_attn_size=4,
                             head_size=8, seed=3)
        stats = compute_stats(frames[:12 * 24])
        samples = build_windows(standardize(frames, stats), config)
        split = split_by_forecast_day(samples, records[0].timestamp.date(),
                                      12, 2, 2)
        train_set, val_set, _ = split
        result = train(config, train_set, val_set,
                       TrainConfig(batch_size=1, epochs=5, learning_rate=1e-2,
                                   seed=2))
        assert result.log[-1].train_mse < 0.5 * result.log[0].train_mse


class TestEvaluate:
    def test_perfect_forecast_scores_zero(self, monkeypatch):
        config = TINY
        samples = random_samples(config, 2, seed=86)
        stats = StandardizationStats(load_mean=500.0, load_std=100.0,
                                     temperature_mean=10.0, temperature_std=5.0)

        class Perfect:
            def __init__(self, values):
                self.values = np.array(values)

        monkeypatch.setattr(training, "forward",
                            lambda params, cfg, chunk, collect_attention=False: SimpleNamespace(
                                forecasts=[Perfect(sample.y_future) for sample in chunk]))
        result = evaluate(init_params(config), config, samples, stats)
        assert result.report.mae == 0.0
        assert result.report.mape == 0.0
        npt.assert_array_equal(result.forecasts[0],
                               destandardize_load(samples[0].y_future, stats))

    def test_real_forward_metrics_are_finite(self):
        config = TINY
        stats = StandardizationStats(load_mean=500.0, load_std=100.0,
                                     temperature_mean=10.0, temperature_std=5.0)
        result = evaluate(init_params(config), config,
                          random_samples(config, 2, seed=87), stats)
        for value in (result.report.mae, result.report.rmse,
                      result.report.mape, result.report.nrmse):
            assert np.isfinite(value)

    def test_leaves_parameters_untouched(self):
        params = init_params(TINY)
        before = {name: arr.copy() for name, arr in named_leaves(params)}
        stats = StandardizationStats(load_mean=500.0, load_std=100.0,
                                     temperature_mean=10.0, temperature_std=5.0)
        evaluate(params, TINY, random_samples(TINY, 2, seed=88), stats)
        for name, arr in named_leaves(params):
            npt.assert_array_equal(arr, before[name])

    def test_empty_samples_rejected(self):
        stats = StandardizationStats(load_mean=500.0, load_std=100.0,
                                     temperature_mean=10.0, temperature_std=5.0)
        with pytest.raises(TrainingError):
            evaluate(init_params(TINY), TINY, [], stats)
