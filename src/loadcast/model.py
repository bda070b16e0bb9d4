"""End-to-end forecasting model.

An encoder runs over the whole history window (features plus observed
load), a decoder runs over the forecast day, and a feed-forward head maps
the stacked decoder states to one value per forecast hour.  Five variants
share this code path:

* ``ANLF``        feature attention in the encoder, similar-day plus
                  temporal attention in the decoder, BiLSTM everywhere;
* ``eAttention``  feature attention only;
* ``dAttention``  decoder attention only;
* ``EDBiLSTM``    no attention, bidirectional;
* ``EDLSTM``      no attention, unidirectional, with the cell width doubled
                  so every variant exposes the same state width to the head.

`forward` runs a set of windows as one pass, one column per window in
every recurrence, sweep, the head and the loss.  What a pass reads of its
windows depends on no parameter, so it is computed once per set, as a
`StackedWindows`: the history features, history targets and future
features stacked with the windows as their last axis and shape-checked,
and, with decoder attention, the similar-day weights.  `forward` stacks a
list itself or takes a value already built, so a caller that runs the same
windows many times, as the gradient gate does, stacks them once.  `predict`
is `forward` over one window.

Encoder and decoder run through one helper, `_recur`: one
`lstm.bilstm_sequence` op, or EDLSTM's one `lstm.lstm_sequence` op; the
decoder's makes no terminal states, which nothing reads.  A side without
attention knows its step inputs up front, one (steps, width, B) array;
with attention, a sweep (`attention.FeatureSweep` in the encoder,
`attention.TemporalSweep` in the decoder) builds each step's input inside
the forward recurrence, and the backward direction consumes the same
inputs.  `encode` reads only the histories and returns an `Encoding`;
`decode` returns a `Decoding`, the stacked decoder states the head reads.
Both keep the weights their sweep stored, and `forward` alone decides
whether its `Forecast`s carry them as attention traces.  `forward` takes
an `Encoding`, or an `Encoding` and a `Decoding`, made before for the same
inputs, so that a caller that knows a stage's parameters unchanged, as the
gradient gate does, skips that stage; one that knows only a sweep stage's
forward direction unchanged hands `encode` or `decode` the earlier value,
and the stage reruns only its backward direction (`_rerun_backward`).

A step's attention conditions only on states that exist before its weights
are needed (the backward states do not exist yet), while both directions
still see the attention-processed inputs.  The encoder's feature attention
conditions on the previous forward hidden state h_{t-1} only, since the
backward direction starts from zero there.  The decoder's temporal
attention conditions on h_{t-1} joined with the backward direction's
initial state, the encoder's terminal backward hidden state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .attention import AttentionParams, FeatureSweep, TemporalSweep, similar_day_weights
# Unused here; perfbench/tracing.py patches these names on this module.
from .attention import context_vector, feature_attention, temporal_attention  # noqa: F401
from .errors import ConfigError, DimensionError, TapeError
from .lstm import (BiLstmParams, FeedForwardParams, LstmParams, LstmState, bilstm_sequence,
                   feedforward_relu, lstm_sequence, zero_state)
from .lstm import lstm_cell_step  # noqa: F401  (unused; perfbench/tracing.py patches it here)
from .params import bind_constants
from .tensor import Tensor, _any_taped, _require_finite, as_tensor, reshape

VARIANTS = ("ANLF", "eAttention", "dAttention", "EDBiLSTM", "EDLSTM")


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and variant switches.

    The history window is `days` whole days of `day_len` hours and the
    forecast horizon is exactly one day.
    """

    days: int
    day_len: int
    n_features: int
    hidden_size: int
    feature_attn_size: int
    temporal_attn_size: int
    head_size: int
    variant: str = "ANLF"
    seed: int = 0

    def __post_init__(self):
        for name in ("days", "day_len", "n_features", "hidden_size",
                     "feature_attn_size", "temporal_attn_size", "head_size"):
            value = getattr(self, name)
            # `type`, since a bool is an int too.
            if type(value) is not int or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r}; choose one of {', '.join(VARIANTS)}")

    @property
    def history_len(self):
        return self.days * self.day_len

    @property
    def horizon(self):
        return self.day_len

    @property
    def state_width(self):
        return 2 * self.hidden_size

    @property
    def encoder_attention(self):
        return self.variant in ("ANLF", "eAttention")

    @property
    def decoder_attention(self):
        return self.variant in ("ANLF", "dAttention")

    @property
    def bidirectional(self):
        return self.variant != "EDLSTM"

    @property
    def encoder_input_width(self):
        return self.n_features + 1

    @property
    def decoder_input_width(self):
        return self.n_features + (self.state_width if self.decoder_attention else 0)


@dataclass
class ModelParams:
    """All trainable blocks; attention blocks are None for variants that do
    not use them."""

    feature_attn: AttentionParams | None
    encoder: BiLstmParams | LstmParams
    temporal_attn: AttentionParams | None
    decoder: BiLstmParams | LstmParams
    head: FeedForwardParams


def _cell(config, rng, input_width, bound):
    """The encoder's or decoder's cell over `input_width` inputs: a BiLSTM of
    hidden-size directions, or EDLSTM's one direction of the state width."""
    if config.bidirectional:
        return BiLstmParams.random(rng, input_width, config.hidden_size, bound)
    return LstmParams.random(rng, input_width, config.state_width, bound)


def init_params(config):
    """Fresh parameters, uniform in [-1/sqrt(hidden), +1/sqrt(hidden)],
    deterministic in config.seed.  Feature attention's joint is [forward
    h_{t-1}; features; target], one score per feature; temporal attention's
    is [decoder h_{t-1}; encoder backward h_T; features], one score per
    history hour."""
    rng = np.random.default_rng(config.seed)
    bound = 1.0 / np.sqrt(config.hidden_size)

    feature_attn = None
    if config.encoder_attention:
        feature_attn = AttentionParams.random(
            rng, config.hidden_size + config.encoder_input_width, config.n_features,
            config.feature_attn_size, bound)
    encoder = _cell(config, rng, config.encoder_input_width, bound)
    temporal_attn = None
    if config.decoder_attention:
        temporal_attn = AttentionParams.random(
            rng, config.state_width + config.n_features, config.history_len,
            config.temporal_attn_size, bound)
    decoder = _cell(config, rng, config.decoder_input_width, bound)
    head = FeedForwardParams.random(rng, config.horizon * config.state_width,
                                    config.head_size, config.horizon, bound)
    return ModelParams(feature_attn, encoder, temporal_attn, decoder, head)


@dataclass(frozen=True, eq=False)
class StackedWindows:
    """B windows as one pass reads them, built once by `stack` for a
    config: (history_len, n_features, B) history features, (history_len,
    B) history targets, (horizon, n_features, B) future features and, with
    decoder attention, the (days, B) similar-day weights and their
    (history_len, B) hourly grid, each day's weight over its hours, window
    k in column k.  None of it depends on a parameter, and the arrays are
    read-only; the grid is scanned when made."""

    config: ModelConfig
    hist_features: np.ndarray
    hist_targets: np.ndarray
    future_features: np.ndarray
    day_weights: np.ndarray | None
    day_grid: np.ndarray | None

    @classmethod
    def stack(cls, config, samples):
        """Stack the nonempty list `samples` of windows, checking every
        field's shape against `config`."""
        if not samples:
            raise DimensionError("a forward pass needs at least one window")
        steps, width = config.history_len, config.n_features
        hist_features = _stacked(samples, "x_hist", (steps, width))
        hist_targets = _stacked(samples, "y_hist", (steps,))
        future_features = _stacked(samples, "x_future", (config.horizon, width))
        day_weights = day_grid = None
        if config.decoder_attention:
            day_weights = similar_day_weights(
                hist_features.reshape(config.days, config.day_len, width, len(samples)),
                future_features)
            day_grid = day_weights.repeat(config.day_len, 0)
            _require_finite(day_grid)
        for arr in (hist_features, hist_targets, future_features, day_weights, day_grid):
            if arr is not None:
                arr.flags.writeable = False
        return cls(config, hist_features, hist_targets, future_features, day_weights, day_grid)

    @property
    def count(self):
        return self.hist_targets.shape[-1]


def _require_config(windows, config):
    """Raise `ConfigError` unless `windows` were stacked for `config`."""
    if windows.config is not config and windows.config != config:
        raise ConfigError(f"windows stacked for {windows.config} do not fit {config}")


@dataclass
class Encoding:
    """Encoder output for B windows: per-hour states stacked as
    (history_len, state_width, B), terminal (H, B) states for seeding the
    decoder and the feature sweep's own (history_len, n_features, B)
    weights (None without encoder attention).  A later `encode` reuses
    its forward half and weights, so it keeps nothing extra for reuse."""

    states: Tensor
    terminal_forward: LstmState
    terminal_backward: LstmState | None
    feature_weights: np.ndarray | None


def _recur(config, cell, inputs, count, init=None, terminals=True):
    """Run `cell` over `inputs` (an array or a sweep) from `init`, the
    (forward, backward) initial states, or from zeros: one
    `bilstm_sequence` op, or EDLSTM's `lstm_sequence` op with a None
    backward terminal.  Without `terminals` the op makes no terminal
    states, and None stands for them."""
    if config.bidirectional:
        start = init or (zero_state(config.hidden_size, count),) * 2
        return bilstm_sequence(cell, inputs, *start, terminals=terminals)
    states, terminal = lstm_sequence(
        cell, inputs, init[0] if init else zero_state(config.state_width, count), terminals)
    return states, ((terminal, None) if terminals else None)


def _rerun_backward(cell, inputs, init, earlier, terminals=True):
    """The states and backward terminal state (None without `terminals`)
    of `bilstm_sequence(cell, sweep, *init)`, from the step inputs `inputs`
    the sweep built in an earlier untaped run whose states `earlier` hold:
    one `lstm_sequence` op of the backward cell over the inputs reversed,
    its states reversed back beside the earlier forward half.  A taped
    operand of either direction raises `TapeError`: nothing was recorded."""
    if _any_taped([as_tensor(array) for one, state in zip((cell.forward, cell.backward), init)
                   for array in (one.weights, one.b_x, one.b_h, state.h, state.c)]):
        raise TapeError("a taped sequence op steps its own forward run: its gradient reads "
                        "the run's activations")
    states, terminal = lstm_sequence(cell.backward, Tensor(inputs[::-1], scanned=True), init[1],
                                     terminals)
    steps, hidden, windows = states.values.shape
    forward = earlier.reshape(steps, 2 * hidden, windows)[:, :hidden]
    return Tensor(np.concatenate((forward, states.values[::-1]), axis=1), scanned=True), terminal


def encode(params, config, windows, earlier=None):
    """Run the encoder over the histories of `windows`, a `StackedWindows`
    built for `config`, reading only their history features and targets.
    Each step consumes [features; observed load]; with feature attention
    the feature part is reweighted first (conditioned as the module
    docstring says), and the `Encoding` keeps the weights for `forward` to
    trace or not.

    An `earlier` encoding of these windows, made untaped with the same
    feature attention and forward encoder cell, is read and never written:
    `_rerun_backward` steps the backward direction over the inputs rebuilt
    from its weights.  The encoding is bitwise the one a full run gives,
    and keeps the earlier weights and forward terminal state.  An encoder
    without attention steps both directions over known inputs, and is
    handed no earlier encoding (`ConfigError`).
    """
    _require_config(windows, config)
    weights = None
    if earlier is not None:
        if not config.encoder_attention:
            raise ConfigError(f"a {config.variant} encoder steps known inputs and reuses no "
                              f"earlier forward run")
        weights = earlier.feature_weights
        inputs = FeatureSweep.inputs_from(weights, windows.hist_features, windows.hist_targets)
        zero = zero_state(config.hidden_size, windows.count)
        states, terminal = _rerun_backward(params.encoder, inputs, (zero, zero),
                                           earlier.states.values)
        return Encoding(states, earlier.terminal_forward, terminal, weights)
    if config.encoder_attention:
        inputs = FeatureSweep(params.feature_attn, windows.hist_features, windows.hist_targets)
        weights = inputs.weights
    else:
        inputs = Tensor(np.concatenate(
            (windows.hist_features, windows.hist_targets[:, np.newaxis]), axis=1))
    states, terminals = _recur(config, params.encoder, inputs, windows.count)
    return Encoding(states, *terminals, weights)


@dataclass
class Decoding:
    """Decoder output for B windows: its states stacked per window as the
    head reads them, (horizon * state_width, B), the temporal sweep's own
    (horizon, history_len, B) hour weights and, from an untaped run, the
    sweep's read-only (horizon, n + S, B) `inputs` (each None without
    decoder attention, and the inputs None from a taped run)."""

    states: Tensor
    hour_weights: np.ndarray | None
    inputs: np.ndarray | None


def decode(params, config, encoding, windows, earlier=None):
    """Run the decoder over the forecast days of `windows`, a
    `StackedWindows` built for `config`, from `encoding`; returns its
    `Decoding`, whose hour weights `forward` may turn into traces.

    Each direction starts from its own orientation's encoder terminal
    state.  With decoder attention, a `TemporalSweep` over the encoder's
    backward h_T and states and the windows' future features and day grid
    computes each step's context (similar-day times temporal weights over
    the window's encoder states) in the forward recurrence, and both
    directions consume the same [features; context] inputs.  The head does
    not read the decoder's terminal states, so its sequence op makes none.

    An `earlier` decoding of these windows, made untaped with the same
    temporal attention and forward decoder cell from an encoding equal to
    `encoding`, is read and never written: `_rerun_backward` steps the
    backward direction over its `inputs`.  The decoding is bitwise the one
    a full run gives, and keeps the earlier hour weights and inputs.  A
    decoder without attention steps both directions over known inputs,
    and is handed no earlier decoding (`ConfigError`), as is a decoding
    that kept no inputs.
    """
    _require_config(windows, config)
    init = encoding.terminal_forward, encoding.terminal_backward
    weights = kept = None
    if earlier is not None:
        if earlier.inputs is None:
            raise ConfigError(f"a {config.variant} decoder reuses the forward run of an "
                              f"untaped decoder with attention only")
        weights, kept = earlier.hour_weights, earlier.inputs
        states = _rerun_backward(params.decoder, kept, init, earlier.states.values, False)[0]
    else:
        inputs = (TemporalSweep(params.temporal_attn, encoding.terminal_backward.h,
                                windows.future_features, windows.day_grid, encoding.states)
                  if config.decoder_attention else Tensor(windows.future_features))
        states = _recur(config, params.decoder, inputs, windows.count, init, terminals=False)[0]
        if config.decoder_attention:
            weights, kept = inputs.weights, None if states.tape is not None else inputs.inputs
    return Decoding(reshape(states, (config.horizon * config.state_width, windows.count)),
                    weights, kept)


@dataclass
class Forecast:
    """Model output for one window, in standardized target units, with the
    attention traces `forward` was asked for and the variant has."""

    values: np.ndarray
    feature_weights: np.ndarray | None
    hour_weights: np.ndarray | None
    day_weights: np.ndarray | None


@dataclass
class ForwardPass:
    """Output of one pass over B windows: the (horizon, B) taped forecast
    tensor for building a loss, and `forecasts`, one `Forecast` per window,
    made when first read, so that a caller that reads only the output makes
    none.  `traces` holds the (feature, hour, day) weights the forecasts
    carry, each None when not asked for or the variant has no such stage."""

    output: Tensor
    traces: tuple

    @functools.cached_property
    def forecasts(self):
        return [Forecast(_column(self.output.values, k), *(_column(w, k) for w in self.traces))
                for k in range(self.output.values.shape[-1])]


def _stacked(windows, field, shape):
    """Field `field` of every window, stacked with windows as the last axis."""
    arrays = [np.asarray(getattr(window, field), dtype=np.float64) for window in windows]
    for k, arr in enumerate(arrays):
        if arr.shape != shape:
            raise DimensionError(f"window {k}: {field} {arr.shape} does not match {shape}")
    return np.stack(arrays, axis=-1)


def _column(weights, k):
    return None if weights is None else np.array(weights[..., k])


def forward(params, config, samples, collect_attention=False, encoding=None, decoding=None):
    """Encode the histories of `samples`, decode their forecast days, map
    the decoder states through the head, and return the forecasts as one
    pass.

    `samples` is a nonempty list of windows or a `StackedWindows` built for
    `config`.  The observed future loads in the samples are never read;
    only the histories and the future features drive the output.  A given
    `encoding` replaces the encoder run and must be what `encode` gives
    these inputs; a given `decoding` replaces the decoder run and must be
    what `decode` gives them and that encoding, so a pass given both runs
    only the head.  Only here are attention traces decided: with
    `collect_attention` each `Forecast` carries its window's weights of
    every stage the variant has, and without it none, whatever was given.
    """
    windows = (samples if isinstance(samples, StackedWindows)
               else StackedWindows.stack(config, samples))
    if encoding is None:
        encoding = encode(params, config, windows)
    if decoding is None:
        decoding = decode(params, config, encoding, windows)
    output = feedforward_relu(params.head, decoding.states)
    if not collect_attention:
        return ForwardPass(output, (None, None, None))
    return ForwardPass(output, (encoding.feature_weights, decoding.hour_weights,
                                windows.day_weights))


def predict(params, config, sample, collect_attention=False):
    """The forecast for one window: `forward` over [sample] with parameters
    wrapped as constants (no tape, no gradients)."""
    return forward(bind_constants(params), config, [sample], collect_attention).forecasts[0]
