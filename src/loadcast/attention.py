"""Attention weighting for the forecaster.

Three mechanisms:

* feature attention reweights each of the n input features once per encoder
  step, scored by a two-layer additive network over the recurrent state,
  the feature vector, and the step's target value;
* similar-day weights rank each window's history days by reciprocal
  feature distance to its forecast day (no trainable parameters, held
  constant in backprop);
* temporal attention spreads a softmax over every hour of the history
  window once per decoder step, and the context vector mixes the encoder
  states with day weight times hour weight.

`feature_attention`, `temporal_attention` and `context_vector` compute one
step of one window as tape ops.  The model runs a whole sequence's steps
for a batch of B windows instead as a numpy sweep, `FeatureSweep` or
`TemporalSweep`, inside the forward direction of one
`lstm.bilstm_sequence` op, whose backward direction reads the same step
inputs reversed.  A sweep's
`forward(t, h_prev, out)` writes step t's input, one column per window,
into the (width, B) array `out`, which is the input rows of the
recurrence's own [x_t; h_{t-1}] scratch, with the same arithmetic (scores
and softmax down each column, each window's context from its own encoder
states and similar-day weights); `backward(t, dx)` turns the gradient of
that input into one for h_prev in the reverse loop, and `grads()` forms
the parameter gradients (for the temporal sweep also those of its
conditioning tail and encoder states) with one product each over the rows
stored per step and window.  A run without a backward pass calls
`drop_store()` once it is over, which frees that store and keeps the
weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EvaluationError
from .tensor import (Tensor, _softmax_grad, _summed_outer, _tanh_grad, as_tensor, concat,
                     hadamard, matmul, reshape, softmax_values, stable_softmax, tanh)

DISTANCE_EPSILON = 1e-8
RECIPROCAL_CAP = 1e8


@dataclass
class FeatureAttentionParams:
    """Additive scorer over [recurrent state; features; target].

    `proj` is (attn_size, state_width + n_features + 1) and `score` is
    (n_features, attn_size); there is no bias term.  The model's state is
    the encoder's previous forward hidden state, so state_width is H.
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


def similar_day_weights(day_blocks, target_block):
    """Rank each window's history days by closeness to its forecast day.

    `day_blocks` is (days, day_len, n_features, B), `target_block`
    (day_len, n_features, B) and the result (days, B), window k in column
    k.  A day's distance is the sum over features of the Euclidean norm of
    that feature's hourly difference column.  Weights are the softmax of
    1 / (distance + 1e-8), with the reciprocal clamped at 1e8 so an exact
    feature match stays finite.
    """
    days = np.asarray(day_blocks, dtype=np.float64)
    target = np.asarray(target_block, dtype=np.float64)
    if days.ndim != 4 or days.shape[0] < 1:
        raise DimensionError(
            f"expected (days, hours, features, windows) blocks, got {days.shape}")
    if target.shape != days.shape[1:]:
        raise DimensionError(
            f"target block {target.shape} incompatible with day blocks {days.shape}")
    # Window-major copies, so every window's sums run over the same memory
    # layout, and in the same order, as a lone window's.
    diff = (np.ascontiguousarray(days.transpose(3, 0, 1, 2))
            - np.ascontiguousarray(target.transpose(2, 0, 1))[:, np.newaxis])
    per_feature = np.sqrt(np.sum(diff * diff, axis=2))
    distance = per_feature.sum(axis=2)
    reciprocal = np.minimum(1.0 / (distance + DISTANCE_EPSILON), RECIPROCAL_CAP)
    return softmax_values(reciprocal.T)


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

    `day_weights` is the (days,) array of one window's similar-day weights
    and `states` the (history_len, state_width) stack of encoder states; the
    result is a state-width vector whose max-abs entry never exceeds the
    max-abs entry of the states, since the combined weights are a convex
    combination scaled by day weights that sum to one.
    """
    if len(hour_weights.shape) != 2:
        raise DimensionError(f"hour weights must be (days, day_len), got {hour_weights.shape}")
    days, day_len = hour_weights.shape
    if day_weights.shape != (days,):
        raise DimensionError(
            f"day weights {day_weights.shape} do not match hour weights {hour_weights.shape}")
    if len(states.shape) != 2 or states.shape[0] != days * day_len:
        raise DimensionError(
            f"states {states.shape} do not cover {days} x {day_len} history hours")
    day_grid = np.repeat(day_weights[:, np.newaxis], day_len, axis=1)
    combined = hadamard(Tensor(day_grid), hour_weights)
    flat = reshape(combined, (days * day_len,))
    return matmul(flat, states)


class _ScoredSweep:
    """The additive scorer of both sweeps, stepped in numpy for B windows.

    Step t's joint matrix is [h_{t-1}; fixed_t], one column per window,
    where `fixed` holds the rows known before the run.  Step t scores it as
    `feature_attention` and `temporal_attention` do, score @ tanh(proj @
    joint), with a softmax down each column, and keeps everything the
    backward pass needs; `weights` holds the (steps, n, B) softmax weights.
    A sweep's `_weight_grad(t, dx)` turns the gradient of step t's input
    into the gradient of its weights.
    """

    def __init__(self, params, fixed):
        proj, score = as_tensor(params.proj), as_tensor(params.score)
        self.operands = (proj, score)
        self._proj, self._score = proj.values, score.values
        if fixed.ndim != 3:
            raise DimensionError(f"step rows {fixed.shape} are not (steps, rows, windows)")
        self.steps, _, self.windows = fixed.shape
        self.hidden_size = self._proj.shape[-1] - fixed.shape[1]
        if (self._proj.ndim != 2 or self._score.ndim != 2
                or self._score.shape[1] != self._proj.shape[0] or self.hidden_size < 1):
            raise DimensionError(
                f"attention blocks {self._proj.shape}, {self._score.shape} do not fit "
                f"{fixed.shape[1]} step rows")
        self._joint = np.empty((self.steps, self._proj.shape[1], self.windows))
        self._joint[:, self.hidden_size:] = fixed
        self._proj_h_t = np.ascontiguousarray(self._proj[:, :self.hidden_size].T)
        self._score_t = np.ascontiguousarray(self._score.T)
        self._pre = np.empty((self.steps, self._proj.shape[0], self.windows))
        self._squashed = np.empty_like(self._pre)
        self._scores = np.empty((self.steps, self._score.shape[0], self.windows))
        self.weights = np.empty_like(self._scores)
        self._slope = None

    def _attend(self, t, h_prev):
        joint = self._joint[t]
        joint[:self.hidden_size] = h_prev
        pre = np.matmul(self._proj, joint, out=self._pre[t])
        squashed = np.tanh(pre, out=self._squashed[t])
        scores = np.matmul(self._score, squashed, out=self._scores[t])
        return softmax_values(scores, out=self.weights[t])

    def backward(self, t, dx):
        """Gradient for h_{t-1} from the gradient of step t's input; steps
        are visited in reverse."""
        if self._slope is None:
            self._begin_backward()
        d_scores = self._d_scores[t] = _softmax_grad(self.weights[t], self._weight_grad(t, dx))
        d_pre = np.multiply(self._score_t @ d_scores, self._slope[t], out=self._d_pre[t])
        return self._proj_h_t @ d_pre

    def _begin_backward(self):
        """Room for the gradients the parameter products read, and the tanh
        slope of every step at once."""
        self._slope = _tanh_grad(self._squashed, 1.0)
        self._d_pre = np.empty_like(self._pre)
        self._d_scores = np.empty_like(self._scores)

    def grads(self):
        """proj and score gradients over every step of the run."""
        return (_summed_outer(self._d_pre, self._joint),
                _summed_outer(self._d_scores, self._squashed))

    def _checked(self):
        return self._joint, self._pre, self._scores, self.weights

    def check_finite(self):
        """Raise `EvaluationError` if a stored intermediate is not finite."""
        for values in self._checked():
            if not np.logical_and.reduce(np.isfinite(values), axis=None):
                raise EvaluationError("non-finite values in attention")

    def drop_store(self):
        """Free the per-step store of a run that has no backward pass;
        `weights` stays."""
        self._joint = self._pre = self._squashed = self._scores = None


class FeatureSweep(_ScoredSweep):
    """Feature attention for every encoder step, inside one recurrence.

    Step t conditions on h_{t-1} alone, reweights the features of hour t as
    `feature_attention` does and `forward(t, h_prev, out)` writes the step
    input [weights * features; target] into `out`, (n + 1, B), one column
    per window.  `features` is (steps, n, B) and `targets` is (steps, B).
    `operands` are `proj` and `score`; `grads()` returns their gradients
    in that order.
    """

    def __init__(self, params, features, targets):
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 3 or targets.shape != (features.shape[0], features.shape[2]):
            raise DimensionError(
                f"features {features.shape} and targets {targets.shape} are not per step "
                f"and window")
        super().__init__(params, np.concatenate((features, targets[:, np.newaxis]), axis=1))
        if self._score.shape[0] != features.shape[1]:
            raise DimensionError(f"feature scorer {self._score.shape} does not match "
                                 f"{features.shape[1]} features")
        self._features, self._targets = features, targets
        self.width = features.shape[1] + 1

    def forward(self, t, h_prev, out):
        """Write step t's input into `out`, from the hidden state before it."""
        np.multiply(self._attend(t, h_prev), self._features[t], out=out[:-1])
        out[-1] = self._targets[t]

    def _weight_grad(self, t, dx):
        return dx[:-1] * self._features[t]


class TemporalSweep(_ScoredSweep):
    """Temporal attention and the context vector for every decoder step,
    inside one recurrence.

    Step t conditions on [h_{t-1}; tail], where the (H, B) `tail` is the
    same for every step, weights every history hour as
    `temporal_attention` does, mixes each window's encoder states with day
    weight times hour weight as `context_vector` does and
    `forward(t, h_prev, out)` writes the step input [features; context]
    into `out`, (n + S, B), one column per window.  `features` is
    (steps, n, B), `day_weights` is (days, B) and `states` is (history,
    S, B), so a day is history / days hours.  `weights` holds the flat
    hour weights, (steps, history, B).  `operands` are `proj`, `score`,
    `tail` and `states`; `grads()` returns their gradients in that order.
    """

    def __init__(self, params, tail, features, day_weights, states):
        features = np.asarray(features, dtype=np.float64)
        day_weights = np.asarray(day_weights, dtype=np.float64)
        tail, states = as_tensor(tail), as_tensor(states)
        if (features.ndim != 3 or tail.values.ndim != 2
                or tail.shape[1] != features.shape[2]):
            raise DimensionError(f"tail {tail.shape} and features {features.shape} are not "
                                 f"(rows, windows) and (steps, n, windows)")
        tails = np.broadcast_to(tail.values, (features.shape[0],) + tail.shape)
        super().__init__(params, np.concatenate((tails, features), axis=1))
        self._tail = slice(self.hidden_size, self.hidden_size + tail.shape[0])
        history_len = self._score.shape[0]
        days = day_weights.shape[0] if day_weights.ndim == 2 else 0
        if days < 1 or history_len % days or day_weights.shape != (days, self.windows):
            raise DimensionError(f"day weights {day_weights.shape} do not split "
                                 f"{history_len} history hours into whole days of "
                                 f"{self.windows} windows")
        if (len(states.shape) != 3 or states.shape[0] != history_len
                or states.shape[2] != self.windows):
            raise DimensionError(f"states {states.shape} do not cover {history_len} history "
                                 f"hours of {self.windows} windows")
        self.operands += (tail, states)
        # Window-major: `_states[k]` is window k's (S, history) matrix, so
        # the context of every window is one batched product.
        self._states = np.ascontiguousarray(states.values.transpose(2, 1, 0))
        self._day = np.repeat(day_weights, history_len // days, axis=0)
        self._features = features
        self._mix = np.empty((self.steps, history_len, self.windows))
        self.width = features.shape[1] + states.shape[1]

    def forward(self, t, h_prev, out):
        """Write step t's input into `out`, from the hidden state before it."""
        mix = np.multiply(self._day, self._attend(t, h_prev), out=self._mix[t])
        n = self._features.shape[1]
        out[:n] = self._features[t]
        out[n:] = np.matmul(self._states, mix.T[:, :, np.newaxis])[:, :, 0].T

    def _begin_backward(self):
        super()._begin_backward()
        self._d_context = np.empty((self.steps, self._states.shape[1], self.windows))

    def _weight_grad(self, t, dx):
        d_context = self._d_context[t] = dx[self._features.shape[1]:]
        d_mix = np.matmul(d_context.T[:, np.newaxis], self._states)[:, 0]
        return d_mix.T * self._day

    def grads(self):
        d_tail = self._proj[:, self._tail].T @ self._d_pre.sum(axis=0)
        # Per window k: sum over steps of outer(mix, d_context), as (history, S, B).
        d_states = np.matmul(self._mix.transpose(2, 1, 0), self._d_context.transpose(2, 0, 1))
        return (*super().grads(), d_tail, d_states.transpose(1, 2, 0))

    def _checked(self):
        return (*super()._checked(), self._mix)

    def drop_store(self):
        super().drop_store()
        self._mix = self._states = None
