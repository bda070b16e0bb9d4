"""Attention weighting for the forecaster.

Three mechanisms:

* feature attention reweights each of the n input features once per encoder
  step, scored over the joint [forward h_{t-1}; features; target];
* similar-day weights rank each window's history days by reciprocal
  feature distance to its forecast day (no trainable parameters, held
  constant in backprop);
* temporal attention spreads a softmax over every hour of the history
  window once per decoder step, scored over the joint [decoder h_{t-1};
  encoder backward h_T; features], and the context vector mixes the
  encoder states with day weight times hour weight.

Both scorers are one two-layer additive network, `AttentionParams`.

`feature_attention`, `temporal_attention` and `context_vector` compute one
step of one window as tape ops.  The model runs a whole sequence's steps
for B windows instead as a numpy sweep, `FeatureSweep` or `TemporalSweep`,
inside the forward direction of one `lstm.bilstm_sequence` op, whose
backward direction reads the same step inputs reversed.  A sweep's
`fill(inputs)` writes the input rows that depend on no parameter (the
feature sweep's targets, the temporal sweep's features) for every step at
once into the recurrence's (steps, width, B) input rows, and
`forward(t, h_prev, out)` writes the rest of step t's input, one column
per window, with the arithmetic of the one-step ops; `backward(t, dx)`
turns the gradient of that input into one for h_prev in the reverse loop,
and `grads()` forms the parameter gradients (for the temporal sweep also
those of its tail and encoder states) with one product each.  A sweep
keeps every step's joint, pre-activations and scores as row blocks of one
array, so that `check_finite()` scans two arrays, that one and `weights`;
a run without a backward pass calls `drop_store()`, which frees all of it
but `weights`.

After an untaped op, a temporal sweep's `inputs` are every step's input
as the forward direction read it, which `model.Decoding` keeps, since a
step's context cannot be rebuilt bitwise outside the step; a feature
sweep's inputs can, from its `weights` (`FeatureSweep.inputs_from`).
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
class AttentionParams:
    """The additive scorer of either stage: one score per output from
    score @ tanh(proj @ joint), with no bias term.

    `proj` is (attn_size, joint_width) and `score` is (outputs, attn_size).
    The stage builds the joint column: feature attention reads [forward
    h_{t-1}; features; target] and scores each feature, temporal attention
    reads [decoder h_{t-1}; encoder backward h_T; features] and scores each
    history hour.  `model.init_params` sizes both from the config.
    """

    proj: np.ndarray
    score: np.ndarray

    @classmethod
    def random(cls, rng, joint_width, outputs, attn_size, bound):
        return cls(proj=rng.uniform(-bound, bound, (attn_size, joint_width)),
                   score=rng.uniform(-bound, bound, (outputs, attn_size)))

    @classmethod
    def zeros(cls, joint_width, outputs, attn_size):
        return cls(proj=np.zeros((attn_size, joint_width)), score=np.zeros((outputs, attn_size)))


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
        raise DimensionError(f"history length {history_len} is not divisible by day length "
                             f"{day_len}")
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
    where the `rows` fixed rows are known before the run and a sweep writes
    them straight into `_joint[:, hidden_size:]`.  Step t scores it as
    `feature_attention` and `temporal_attention` do, score @ tanh(proj @
    joint), with a softmax down each column and each product, forward and
    backward, a 2-D `np.dot`, and keeps everything the backward pass
    needs: the joint, pre-activations and scores as row blocks of one
    (steps, rows, B) store, the tanh values apart, and in `weights` the
    (steps, n, B) softmax weights.  A sweep's `_weight_grad(t, dx)` turns
    the gradient of step t's input into the gradient of its weights.
    """

    def __init__(self, params, steps, rows, windows):
        proj, score = as_tensor(params.proj), as_tensor(params.score)
        self.operands = (proj, score)
        self._proj, self._score = p, s = proj.values, score.values
        self.steps, self.windows = steps, windows
        self.hidden_size = p.shape[-1] - rows
        if p.ndim != 2 or s.ndim != 2 or s.shape[1] != p.shape[0] or self.hidden_size < 1:
            raise DimensionError(f"attention blocks {p.shape}, {s.shape} do not fit {rows} "
                                 f"step rows")
        (attn_size, pre), outputs = p.shape, s.shape[0]
        # Every step's joint, pre-activations and scores are row blocks of
        # one array, so that one scan checks them all; each step's block of
        # each is contiguous.
        scores = pre + attn_size
        self._store = store = np.empty((steps, scores + outputs, windows))
        self._joint, self._pre = store[:, :pre], store[:, pre:scores]
        self._scores = store[:, scores:]
        self._squashed = np.empty((steps, attn_size, windows))
        self.weights = np.empty((steps, outputs, windows))
        self._slope = None

    def _attend(self, t, h_prev):
        joint = self._joint[t]
        joint[:self.hidden_size] = h_prev
        pre = np.dot(self._proj, joint, self._pre[t])
        squashed = np.tanh(pre, self._squashed[t])
        scores = np.dot(self._score, squashed, self._scores[t])
        return softmax_values(scores, self.weights[t])

    def backward(self, t, dx):
        """Gradient for h_{t-1} from the gradient of step t's input; steps
        are visited in reverse."""
        if self._slope is None:
            self._begin_backward()
        d_scores = _softmax_grad(self.weights[t], self._weight_grad(t, dx), self._d_scores[t])
        d_pre = np.multiply(np.dot(self._score_t, d_scores), self._slope[t], out=self._d_pre[t])
        return np.dot(self._proj_h_t, d_pre)

    def _begin_backward(self):
        """Room for the gradients the parameter products read, the tanh
        slope of every step at once, and the transposed scorer blocks."""
        self._proj_h_t = np.ascontiguousarray(self._proj[:, :self.hidden_size].T)
        self._score_t = np.ascontiguousarray(self._score.T)
        self._slope = _tanh_grad(self._squashed, 1.0)
        self._d_pre = np.empty_like(self._pre)
        self._d_scores = np.empty_like(self._scores)

    def grads(self):
        """proj and score gradients over every step of the run."""
        return (_summed_outer(self._d_pre, self._joint),
                _summed_outer(self._d_scores, self._squashed))

    def check_finite(self):
        """Raise `EvaluationError` if a stored intermediate is not finite:
        two scans, of the store and of `weights`."""
        for values in (self._store, self.weights):
            if np.count_nonzero(np.isfinite(values)) != values.size:
                raise EvaluationError("non-finite values in attention")

    def drop_store(self):
        """Free the per-step store of a run that has no backward pass;
        `weights` stays."""
        self._store = self._joint = self._pre = self._squashed = self._scores = None


class FeatureSweep(_ScoredSweep):
    """Feature attention for every encoder step, inside one recurrence.

    Step t conditions on h_{t-1} alone and reweights the features of hour
    t as `feature_attention` does.  Its input is [weights * features;
    target], (n + 1, B), one column per window: `fill` writes the target
    row of every step and `forward(t, h_prev, out)` the reweighted
    features into `out[:n]`.  `features` is (steps, n, B) and `targets`
    is (steps, B).  `operands` are `proj` and `score`; `grads()` returns
    their gradients in that order.
    """

    def __init__(self, params, features, targets):
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 3 or targets.shape != (features.shape[0], features.shape[2]):
            raise DimensionError(
                f"features {features.shape} and targets {targets.shape} are not per step "
                f"and window")
        steps, n, windows = features.shape
        super().__init__(params, steps, n + 1, windows)
        if self._score.shape[0] != n:
            raise DimensionError(f"feature scorer {self._score.shape} does not match "
                                 f"{n} features")
        self._joint[:, self.hidden_size:-1] = features
        self._joint[:, -1] = targets
        self._features, self._targets = features, targets
        self.width = n + 1

    def fill(self, inputs):
        """Write every step's target row into `inputs`, (steps, n + 1, B)."""
        inputs[:, -1] = self._targets

    def forward(self, t, h_prev, out):
        """Write step t's reweighted features into `out`, from the hidden
        state before it."""
        np.multiply(self._attend(t, h_prev), self._features[t], out[:-1])

    @staticmethod
    def inputs_from(weights, features, targets):
        """Every step's input as `fill` and `forward` write it, (steps, n +
        1, B), from the (steps, n, B) `weights` of a sweep over `features`
        and `targets`: the same elementwise products, made in one, and the
        target row; the sweep does not keep them, so `model` rebuilds them."""
        inputs = np.empty((features.shape[0], features.shape[1] + 1, features.shape[2]))
        np.multiply(weights, features, out=inputs[:, :-1])
        inputs[:, -1] = targets
        return inputs

    def _weight_grad(self, t, dx):
        return dx[:-1] * self._features[t]


class TemporalSweep(_ScoredSweep):
    """Temporal attention and the context vector for every decoder step,
    inside one recurrence.

    Step t conditions on [h_{t-1}; tail], where the (H, B) `tail` is the
    same for every step, weights every history hour as
    `temporal_attention` does, mixes each window's encoder states with day
    weight times hour weight as `context_vector` does.  Its input is
    [features; context], (n + S, B), one column per window: `fill` writes
    the feature rows of every step and `forward(t, h_prev, out)` the
    context into `out[n:]`.  `features` is (steps, n, B), `day_grid` the
    (history, B) hourly grid of similar-day weights, each day's weight over
    its hours, and `states` (history, S, B).  The sweep writes [tail;
    features] into the joint rows of its store, which are scanned with it,
    and keeps a window-major (B, S, history) copy of the states, so that
    the context of every window is one batched product; it writes none of
    the arrays it is given.  `day_grid` is read as given, and must have
    been scanned when made, as `model.StackedWindows` does.  `weights`
    holds the flat hour weights, (steps, history, B).  `operands` are
    `proj`, `score`, `tail` and `states`; `grads()` returns their gradients
    in that order.  `inputs` is a read-only view of the (steps, n + S, B)
    block `fill` was handed, which the forward direction completes, kept
    until the sweep's backward begins (None before `fill`).
    """

    def __init__(self, params, tail, features, day_grid, states):
        features = np.asarray(features, dtype=np.float64)
        day_grid = np.asarray(day_grid, dtype=np.float64)
        tail, states = as_tensor(tail), as_tensor(states)
        rows, spans = tail.values.shape, states.values.shape
        if features.ndim != 3 or len(rows) != 2 or rows[1] != features.shape[2]:
            raise DimensionError(f"tail {rows} and features {features.shape} are not "
                                 f"(rows, windows) and (steps, n, windows)")
        steps, n, windows = features.shape
        if len(spans) != 3 or spans[2] != windows:
            raise DimensionError(f"states {spans} are not (history, width, windows) of "
                                 f"{windows} windows")
        if day_grid.shape != (spans[0], windows):
            raise DimensionError(f"day grid {day_grid.shape} does not cover {spans[0]} "
                                 f"history hours of {windows} windows")
        super().__init__(params, steps, rows[0] + n, windows)
        if self._score.shape[0] != spans[0]:
            raise DimensionError(f"temporal scorer {self._score.shape} does not match "
                                 f"{spans[0]} history hours")
        self._tail = slice(self.hidden_size, self.hidden_size + rows[0])
        self._joint[:, self._tail] = tail.values
        self._joint[:, self._tail.stop:] = features
        self.operands += (tail, states)
        self._states = np.ascontiguousarray(states.values.transpose(2, 1, 0))
        self._day, self._features, self._n = day_grid, features, n
        self.width = n + spans[1]
        self.inputs = None

    def fill(self, inputs):
        """Write every step's feature rows into `inputs`, (steps, n + S, B),
        and keep a read-only view of it."""
        inputs[:, :self._n] = self._features
        self.inputs = inputs.view()
        self.inputs.flags.writeable = False

    def forward(self, t, h_prev, out):
        """Write step t's context into `out`, from the hidden state before it."""
        mix = self._day * self._attend(t, h_prev)
        context = np.matmul(self._states, mix.T[:, :, np.newaxis])[:, :, 0]
        out[self._n:] = context.T

    def _begin_backward(self):
        super()._begin_backward()
        self.inputs = None
        self._d_context = np.empty((self.steps, self._states.shape[1], self.windows))

    def _weight_grad(self, t, dx):
        d_context = self._d_context[t] = dx[self._n:]
        d_mix = np.matmul(d_context.T[:, np.newaxis], self._states)[:, 0]
        return d_mix.T * self._day

    def grads(self):
        d_tail = self._proj[:, self._tail].T @ self._d_pre.sum(axis=0)
        # Per window k: sum over steps of outer(mix, d_context), as (history, S, B).
        mix = self._day * self.weights
        d_states = np.matmul(mix.transpose(2, 1, 0), self._d_context.transpose(2, 0, 1))
        return (*super().grads(), d_tail, d_states.transpose(1, 2, 0))

    def drop_store(self):
        super().drop_store()
        self._states = None
