"""MSE training with Adam, per-epoch logging, and best-validation selection.

A batch of windows is one forward pass on one tape, with the windows as
columns of every recurrence; its loss is the mean of the window MSEs, so
its gradient is the mean of the per-window gradients.  The arithmetic
depends only on the batch, so two runs with the same seeds replay
bit-identical update trajectories.  Losses and evaluation forecasts come
from constant-bound forward passes of `WINDOWS_PER_PASS` windows, which
keep no backward state and never touch gradient state; each epoch's
training and validation losses come from one run of such passes over both
splits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import destandardize_load
from .errors import ConfigError, DimensionError, EvaluationError, TrainingError
from .metrics import compute_metrics
from .model import forward, init_params
from .params import bind, bind_constants, map_leaves, named_leaves, snapshot
from .tensor import Tape, as_tensor, fused_op

# Windows per untaped forward pass.  Wider passes cost less per window, but
# a pass's working set grows with its width: at 8 an untaped pass peaks no
# higher than a taped 4-window training batch, and at 12 or 16 the process
# peak rises.
WINDOWS_PER_PASS = 8

# Adam's moment decays and denominator floor, at the usual values.
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and loop settings.  The defaults are the run config's
    `train.*` defaults; `seed` seeds each epoch's shuffle."""

    batch_size: int = 4
    epochs: int = 5
    learning_rate: float = 3e-3
    clip_norm: float | None = 5.0
    seed: int = 1

    def __post_init__(self):
        # `type`, since a bool is an int too.
        if type(self.batch_size) is not int or self.batch_size < 1:
            raise ConfigError(f"batch_size must be a positive integer, got {self.batch_size!r}")
        if type(self.epochs) is not int or self.epochs < 1:
            raise ConfigError(f"epochs must be a positive integer, got {self.epochs!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.learning_rate < 0.0:
            raise ConfigError(f"learning_rate must be nonnegative, got {self.learning_rate!r}")
        if self.clip_norm is not None and self.clip_norm <= 0.0:
            raise ConfigError(f"clip_norm must be positive or None, got {self.clip_norm!r}")


def mse_loss(pred, target):
    """Mean squared error between a prediction and its target: a vector, or
    a (horizon, B) matrix with one window per column, whose loss is then
    the mean of the window MSEs.

    One tape op, with the arithmetic of `sub`, `hadamard`, `total` and
    `scale` in turn and their gradients.  Only the loss is scanned: a
    non-finite difference or square makes the sum of squares non-finite.
    """
    pred = as_tensor(pred)
    target = as_tensor(target)
    if pred.values.ndim not in (1, 2) or pred.shape != target.shape:
        raise DimensionError(
            f"loss needs equal-shape vectors or matrices, got {pred.shape} and {target.shape}")
    diff = pred.values - target.values
    c = 1.0 / pred.values.size

    def rule(g):
        # `hadamard(diff, diff)` gives each of its operands diff * g * c.
        half = diff * (g * c)
        d_diff = half + half
        return d_diff, -d_diff

    return fused_op((diff * diff).sum() * c, (pred, target), rule)


@dataclass
class AdamState:
    """First and second moment buffers plus the shared step counter."""

    first_moment: dict
    second_moment: dict
    step: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(first_moment={name: np.zeros_like(arr) for name, arr in params.items()},
                   second_moment={name: np.zeros_like(arr) for name, arr in params.items()})


def adam_step(params, grads, state, config):
    """One Adam update, in place, over name-keyed parameter arrays.

    Bias-corrected moments; `EPSILON` is added after the square root.
    """
    state.step += 1
    step = state.step
    correction1 = 1.0 - BETA1 ** step
    correction2 = 1.0 - BETA2 ** step
    for name, theta in params.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match parameter {name} {theta.shape}")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name}")
        m = state.first_moment[name]
        v = state.second_moment[name]
        m[...] = BETA1 * m + (1.0 - BETA1) * g
        v[...] = BETA2 * v + (1.0 - BETA2) * (g * g)
        m_hat = m / correction1
        v_hat = v / correction2
        theta -= config.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
    return params, state


def clip_global_norm(grads, max_norm):
    """Scale all gradients down so their joint L2 norm is at most `max_norm`."""
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if norm > max_norm:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_mse: float
    val_mse: float
    seconds: float


@dataclass
class TrainResult:
    """Best-validation parameters, the epoch log, and which epoch won."""

    params: object
    log: list
    best_epoch: int


def _batches(order, batch_size):
    for start in range(0, len(order), batch_size):
        yield order[start:start + batch_size]


def _targets(samples):
    """The observed future loads of `samples`, one window per column."""
    return np.stack([sample.y_future for sample in samples], axis=-1)


def _untaped_passes(params, model_config, samples, collect_attention=False):
    """(chunk, `ForwardPass`) per chunk of `WINDOWS_PER_PASS` windows of
    `samples`, in order, with constant-bound parameters: no tape, so each
    pass holds only what its next step reads."""
    consts = bind_constants(params)
    for chunk in _batches(samples, WINDOWS_PER_PASS):
        yield chunk, forward(consts, model_config, chunk, collect_attention)


def _window_mses(params, model_config, samples):
    """The MSE of every window of `samples`, in order, from untaped passes."""
    losses = []
    for chunk, result in _untaped_passes(params, model_config, samples):
        errors = result.output.values - _targets(chunk)
        losses.extend(np.mean(errors * errors, axis=0))
    return losses


def _finite_mean(losses):
    mean = float(np.mean(losses))
    if not math.isfinite(mean):
        raise EvaluationError("non-finite mean squared error")
    return mean


def mean_mse(params, model_config, samples):
    """Average per-window MSE with constant-bound parameters (no tape)."""
    return _finite_mean(_window_mses(params, model_config, samples))


def batch_gradients(params, model_config, samples):
    """Gradients of the batch's mean window MSE, name-keyed: one tape and
    one forward pass for the whole batch."""
    tape = Tape()
    bound = bind(params, tape)
    tape.backward(mse_loss(forward(bound, model_config, samples).output, _targets(samples)))
    return {name: np.array(tape.grad(leaf)) for name, leaf in named_leaves(bound)}


def train(model_config, train_samples, validation_samples, config):
    """Train from a fresh initialization and keep the best-validation epoch.

    The epoch log starts with an epoch-0 row holding the losses of the
    untrained model; the returned parameters realize the minimum of the
    logged validation curve (which may be epoch 0).
    """
    if not train_samples or not validation_samples:
        raise TrainingError("training and validation splits must both be nonempty")
    params = init_params(model_config)
    flat = dict(named_leaves(params))
    adam = AdamState.for_params(flat)
    rng = np.random.default_rng(config.seed)
    scored = [*train_samples, *validation_samples]
    split = len(train_samples)

    def losses(epoch):
        try:
            mses = _window_mses(params, model_config, scored)
            return _finite_mean(mses[:split]), _finite_mean(mses[split:])
        except EvaluationError as err:
            raise TrainingError(f"divergence while evaluating epoch {epoch}: {err}") from err

    train_mse, val_mse = losses(0)
    log = [EpochRecord(0, train_mse, val_mse, 0.0)]
    best_epoch, best_val, best = 0, val_mse, snapshot(params)

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(len(train_samples))
        for batch_index, batch in enumerate(_batches(order, config.batch_size)):
            try:
                grads = batch_gradients(params, model_config,
                                        [train_samples[i] for i in batch])
            except EvaluationError as err:
                raise TrainingError(
                    f"divergence at epoch {epoch}, batch {batch_index}: {err}") from err
            if config.clip_norm is not None:
                clip_global_norm(grads, config.clip_norm)
            adam_step(flat, grads, adam, config)
        train_mse, val_mse = losses(epoch)
        log.append(EpochRecord(epoch, train_mse, val_mse,
                               time.perf_counter() - started))
        if val_mse < best_val:
            best_epoch, best_val, best = epoch, val_mse, snapshot(params)
    best_params = map_leaves(params, lambda name, _leaf: best[name].copy())
    return TrainResult(best_params, log, best_epoch)


@dataclass
class EvaluationResult:
    """Metrics plus per-window forecast and actual vectors in load units,
    and the standardized `Forecast`s they came from."""

    report: object
    forecasts: list
    actuals: list
    traces: list


def evaluate(params, model_config, samples, stats, collect_attention=False):
    """Forecast every sample, map back to load units, and score."""
    if not samples:
        raise TrainingError("evaluation needs at least one sample")
    traces = []
    for _chunk, result in _untaped_passes(params, model_config, samples, collect_attention):
        traces.extend(result.forecasts)
    forecasts = [destandardize_load(fc.values, stats) for fc in traces]
    actuals = [destandardize_load(sample.y_future, stats) for sample in samples]
    report = compute_metrics(np.concatenate(actuals), np.concatenate(forecasts))
    return EvaluationResult(report, forecasts, actuals, traces)
