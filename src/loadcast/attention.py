"""Attention weighting for the forecaster.

Three mechanisms:

* feature attention reweights each of the n input features once per encoder
  step, scored by a two-layer additive network over the recurrent state,
  the feature vector, and the step's target value;
* similar-day weights rank the history days by reciprocal feature distance
  to the forecast day (no trainable parameters, held constant in backprop);
* temporal attention spreads a softmax over every hour of the history
  window once per decoder step, and the context vector mixes the encoder
  states with day weight times hour weight.

`feature_attention`, `temporal_attention` and `context_vector` compute one
step as tape ops.  The model runs a whole sequence's steps instead as a
numpy sweep, `FeatureSweep` or `TemporalSweep`, inside one
`lstm.attended_sequence` op: the sweep's `forward(t, h_prev)` builds step
t's input with the same arithmetic, `backward(t, dx)` turns the gradient of
that input into one for h_prev in the reverse loop, and `grads()` forms
the parameter, tail and state gradients with one product each over the
rows stored per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EvaluationError
from .tensor import (Tensor, _softmax_grad, _tanh_grad, as_tensor, concat, hadamard,
                     matmul, reshape, softmax_values, stable_softmax, tanh)

DISTANCE_EPSILON = 1e-8
RECIPROCAL_CAP = 1e8


@dataclass
class FeatureAttentionParams:
    """Additive scorer over [recurrent state; features; target].

    `proj` is (attn_size, state_width + n_features + 1) and `score` is
    (n_features, attn_size); there is no bias term.
    """

    proj: np.ndarray
    score: np.ndarray

    @classmethod
    def random(cls, rng, state_width, n_features, attn_size, bound):
        return cls(proj=rng.uniform(-bound, bound, (attn_size, state_width + n_features + 1)),
                   score=rng.uniform(-bound, bound, (n_features, attn_size)))

    @classmethod
    def zeros(cls, state_width, n_features, attn_size):
        return cls(proj=np.zeros((attn_size, state_width + n_features + 1)),
                   score=np.zeros((n_features, attn_size)))


def feature_attention(params, state, features, target):
    """Weight each input feature for one encoder step.

    Returns the softmax weight vector over features and the reweighted
    feature vector (weights times features, elementwise).
    """
    features = as_tensor(features)
    joint = concat([as_tensor(state), features, Tensor([float(target)])])
    scores = matmul(params.score, tanh(matmul(params.proj, joint)))
    weights = stable_softmax(scores)
    return weights, hadamard(weights, features)


@dataclass(frozen=True)
class SimilarDayWeights:
    """Softmax over history days of clamped reciprocal feature distance."""

    weights: np.ndarray


def similar_day_weights(day_blocks, target_block):
    """Rank history days by closeness to the forecast day's features.

    The distance for a day is the sum over features of the Euclidean norm
    of that feature's hourly difference column.  Weights are the softmax of
    1 / (distance + 1e-8), with the reciprocal clamped at 1e8 so an exact
    feature match stays finite.
    """
    days = np.asarray(day_blocks, dtype=np.float64)
    target = np.asarray(target_block, dtype=np.float64)
    if days.ndim != 3 or days.shape[0] < 1:
        raise DimensionError(f"expected (days, hours, features) blocks, got {days.shape}")
    if target.shape != days.shape[1:]:
        raise DimensionError(
            f"target block {target.shape} incompatible with day blocks {days.shape}")
    diff = days - target[np.newaxis]
    per_feature = np.sqrt(np.sum(diff * diff, axis=1))
    distance = per_feature.sum(axis=1)
    reciprocal = np.minimum(1.0 / (distance + DISTANCE_EPSILON), RECIPROCAL_CAP)
    return SimilarDayWeights(softmax_values(reciprocal))


@dataclass
class TemporalAttentionParams:
    """Additive scorer over [recurrent state; features] producing one score
    per history hour.

    `proj` is (attn_size, state_width + n_features) and `score` is
    (history_len, attn_size).
    """

    proj: np.ndarray
    score: np.ndarray

    @classmethod
    def random(cls, rng, state_width, n_features, history_len, attn_size, bound):
        return cls(proj=rng.uniform(-bound, bound, (attn_size, state_width + n_features)),
                   score=rng.uniform(-bound, bound, (history_len, attn_size)))

    @classmethod
    def zeros(cls, state_width, n_features, history_len, attn_size):
        return cls(proj=np.zeros((attn_size, state_width + n_features)),
                   score=np.zeros((history_len, attn_size)))


def temporal_attention(params, state, features, day_len):
    """Softmax weights over every history hour for one decoder step.

    The flat softmax is reshaped to (days, day_len) so entry [i, j] weights
    hour j of history day i; flat position i * day_len + j corresponds to
    the same hour in the stacked encoder states.
    """
    joint = concat([as_tensor(state), as_tensor(features)])
    scores = matmul(params.score, tanh(matmul(params.proj, joint)))
    history_len = scores.shape[0]
    if day_len < 1 or history_len % day_len != 0:
        raise DimensionError(f"history length {history_len} is not divisible by day length {day_len}")
    flat = stable_softmax(scores)
    return reshape(flat, (history_len // day_len, day_len))


def context_vector(day_weights, hour_weights, states):
    """Mix encoder states with day weight times hour weight per history hour.

    `states` is the (history_len, state_width) stack of encoder states; the
    result is a state-width vector whose max-abs entry never exceeds the
    max-abs entry of the states, since the combined weights are a convex
    combination scaled by day weights that sum to one.
    """
    if len(hour_weights.shape) != 2:
        raise DimensionError(f"hour weights must be (days, day_len), got {hour_weights.shape}")
    days, day_len = hour_weights.shape
    if day_weights.weights.shape != (days,):
        raise DimensionError(
            f"day weights {day_weights.weights.shape} do not match hour weights {hour_weights.shape}")
    if len(states.shape) != 2 or states.shape[0] != days * day_len:
        raise DimensionError(
            f"states {states.shape} do not cover {days} x {day_len} history hours")
    day_grid = np.repeat(day_weights.weights[:, np.newaxis], day_len, axis=1)
    combined = hadamard(Tensor(day_grid), hour_weights)
    flat = reshape(combined, (days * day_len,))
    return matmul(flat, states)


class _ScoredSweep:
    """The additive scorer of both sweeps, stepped in numpy.

    Row t of the joint matrix is [h_{t-1}; tail; fixed_t], where `tail`
    completes the conditioning vector and `fixed` holds the columns known
    before the run.  Step t scores it as `feature_attention` and
    `temporal_attention` do, score @ tanh(proj @ joint), and keeps every
    row the backward pass needs; `weights` holds the softmax weights.
    """

    def __init__(self, params, tail, fixed):
        proj, score, tail = as_tensor(params.proj), as_tensor(params.score), as_tensor(tail)
        self.operands = (proj, score, tail)
        self._proj, self._score = proj.values, score.values
        self.steps = fixed.shape[0]
        self.hidden_size = self._proj.shape[-1] - tail.shape[0] - fixed.shape[1]
        if (self._proj.ndim != 2 or self._score.ndim != 2 or tail.values.ndim != 1
                or self._score.shape[1] != self._proj.shape[0] or self.hidden_size < 1):
            raise DimensionError(
                f"attention blocks {self._proj.shape}, {self._score.shape} do not fit a "
                f"{tail.shape} tail and {fixed.shape[1]} step columns")
        self._tail = slice(self.hidden_size, self.hidden_size + tail.shape[0])
        self._joint = np.empty((self.steps, self._proj.shape[1]))
        self._joint[:, self._tail] = tail.values
        self._joint[:, self._tail.stop:] = fixed
        self._proj_h = np.ascontiguousarray(self._proj[:, :self.hidden_size])
        self._pre = np.empty((self.steps, self._proj.shape[0]))
        self._squashed = np.empty_like(self._pre)
        self._scores = np.empty((self.steps, self._score.shape[0]))
        self.weights = np.empty_like(self._scores)
        self._d_pre = np.empty_like(self._pre)
        self._d_scores = np.empty_like(self._scores)

    def _attend(self, t, h_prev):
        joint = self._joint[t]
        joint[:self.hidden_size] = h_prev
        pre = self._pre[t] = self._proj @ joint
        squashed = self._squashed[t] = np.tanh(pre)
        scores = self._scores[t] = self._score @ squashed
        weights = self.weights[t] = softmax_values(scores)
        return weights

    def _unattend(self, t, d_weights):
        """Gradient for h_{t-1} from step t's weight gradient."""
        d_scores = self._d_scores[t] = _softmax_grad(self.weights[t], d_weights)
        d_pre = self._d_pre[t] = _tanh_grad(self._squashed[t], d_scores @ self._score)
        return d_pre @ self._proj_h

    def _scorer_grads(self):
        """proj, score and tail gradients over every step of the run."""
        return (self._d_pre.T @ self._joint, self._d_scores.T @ self._squashed,
                self._d_pre.sum(axis=0) @ self._proj[:, self._tail])

    def _checked(self):
        return self._joint, self._pre, self._scores, self.weights

    def check_finite(self):
        """Raise `EvaluationError` if a stored intermediate is not finite."""
        for values in self._checked():
            if not np.isfinite(values).all():
                raise EvaluationError("non-finite values in attention")


class FeatureSweep(_ScoredSweep):
    """Feature attention for every encoder step, inside one recurrence.

    Step t conditions on [h_{t-1}; tail], reweights the features of hour t
    as `feature_attention` does and returns the step input
    [weights * features; target].  `operands` are `proj`, `score` and
    `tail`; `grads()` returns their gradients in that order.
    """

    def __init__(self, params, tail, features, targets):
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 2 or targets.shape != features.shape[:1]:
            raise DimensionError(
                f"features {features.shape} and targets {targets.shape} are not per step")
        super().__init__(params, tail, np.column_stack((features, targets)))
        if self._score.shape[0] != features.shape[1]:
            raise DimensionError(f"feature scorer {self._score.shape} does not match "
                                 f"{features.shape[1]} features")
        self._features, self._targets = features, targets
        self.width = features.shape[1] + 1

    def forward(self, t, h_prev):
        """Step t's input, from the hidden state before it."""
        return np.append(self._attend(t, h_prev) * self._features[t], self._targets[t])

    def backward(self, t, dx):
        """Gradient for h_{t-1} from the gradient of step t's input; steps
        are visited in reverse."""
        return self._unattend(t, dx[:-1] * self._features[t])

    def grads(self):
        return self._scorer_grads()


class TemporalSweep(_ScoredSweep):
    """Temporal attention and the context vector for every decoder step,
    inside one recurrence.

    Step t conditions on [h_{t-1}; tail], weights every history hour as
    `temporal_attention` does, mixes `states` with day weight times hour
    weight as `context_vector` does and returns the step input [features;
    context].  `weights` holds the flat hour weights, one row per step.
    `operands` are `proj`, `score`, `tail` and `states`; `grads()` returns
    their gradients in that order.
    """

    def __init__(self, params, tail, features, day_weights, states, day_len):
        features = np.asarray(features, dtype=np.float64)
        states = as_tensor(states)
        if features.ndim != 2:
            raise DimensionError(f"features {features.shape} are not per step")
        super().__init__(params, tail, features)
        history_len = self._score.shape[0]
        if day_len < 1 or history_len % day_len != 0:
            raise DimensionError(
                f"history length {history_len} is not divisible by day length {day_len}")
        if day_weights.weights.shape != (history_len // day_len,):
            raise DimensionError(f"day weights {day_weights.weights.shape} do not match "
                                 f"{history_len // day_len} history days")
        if len(states.shape) != 2 or states.shape[0] != history_len:
            raise DimensionError(f"states {states.shape} do not cover {history_len} history hours")
        self.operands += (states,)
        self._states = states.values
        self._day = np.repeat(day_weights.weights, day_len)
        self._features = features
        self._mix = np.empty((self.steps, history_len))
        self._d_context = np.empty((self.steps, states.shape[1]))
        self.width = features.shape[1] + states.shape[1]

    def forward(self, t, h_prev):
        """Step t's input, from the hidden state before it."""
        mix = self._mix[t] = self._day * self._attend(t, h_prev)
        return np.concatenate((self._features[t], mix @ self._states))

    def backward(self, t, dx):
        """Gradient for h_{t-1} from the gradient of step t's input; steps
        are visited in reverse."""
        d_context = self._d_context[t] = dx[self._features.shape[1]:]
        return self._unattend(t, (self._states @ d_context) * self._day)

    def grads(self):
        return (*self._scorer_grads(), self._mix.T @ self._d_context)

    def _checked(self):
        return (*super()._checked(), self._mix)
