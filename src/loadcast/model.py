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

`forward` runs a list of windows as one pass: every per-window array is
stacked with the windows as its last axis, and every recurrence, sweep,
the head and the loss carry that axis, one column per window.  `predict`
is `forward` over one window.

Every bidirectional run, encoder or decoder, is one `lstm.bilstm_sequence`
op over both directions.  Without attention on that side the step inputs
are known up front and are passed as one (steps, width, B) array.  With
attention, the side passes an attention sweep (`attention.FeatureSweep` in
the encoder, `attention.TemporalSweep` in the decoder) that builds each
step's input inside the forward recurrence, and the backward direction
consumes the same per-step inputs.  The attention weights a caller asks
for are the ones the sweep stored.  The unidirectional EDLSTM runs
`lstm.lstm_sequence`.  Encoder states come back as one (history_len,
state_width, B) array, and the decoder's states are flattened to one
column per window for the head.

A step's attention conditions only on states that exist before its weights
are needed (the backward states do not exist yet), while both directions
still see the attention-processed inputs.  The encoder's feature attention
conditions on the previous forward hidden state h_{t-1} only, since the
backward direction starts from zero there.  The decoder's temporal
attention conditions on h_{t-1} joined with the backward direction's
initial state, the encoder's terminal backward hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import (FeatureAttentionParams, FeatureSweep, TemporalAttentionParams,
                        TemporalSweep, similar_day_weights)
# Unused here; perfbench/tracing.py patches these names on this module.
from .attention import context_vector, feature_attention, temporal_attention  # noqa: F401
from .errors import ConfigError, DimensionError
from .lstm import (BiLstmParams, FeedForwardParams, LstmParams, LstmState,
                   bilstm_sequence, feedforward_relu, lstm_sequence, zero_state)
from .lstm import lstm_cell_step  # noqa: F401  (unused; perfbench/tracing.py patches it here)
from .params import bind_constants
from .tensor import Tensor, reshape

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

    feature_attn: FeatureAttentionParams | None
    encoder: BiLstmParams | LstmParams
    temporal_attn: TemporalAttentionParams | None
    decoder: BiLstmParams | LstmParams
    head: FeedForwardParams


def init_params(config):
    """Fresh parameters, uniform in [-1/sqrt(hidden), +1/sqrt(hidden)],
    deterministic in config.seed."""
    rng = np.random.default_rng(config.seed)
    bound = 1.0 / np.sqrt(config.hidden_size)
    width = config.state_width

    feature_attn = None
    if config.encoder_attention:
        feature_attn = FeatureAttentionParams.random(
            rng, config.hidden_size, config.n_features, config.feature_attn_size, bound)
    if config.bidirectional:
        encoder = BiLstmParams.random(rng, config.encoder_input_width,
                                      config.hidden_size, bound)
    else:
        encoder = LstmParams.random(rng, config.encoder_input_width, width, bound)
    temporal_attn = None
    if config.decoder_attention:
        temporal_attn = TemporalAttentionParams.random(
            rng, width, config.n_features, config.history_len,
            config.temporal_attn_size, bound)
    if config.bidirectional:
        decoder = BiLstmParams.random(rng, config.decoder_input_width,
                                      config.hidden_size, bound)
    else:
        decoder = LstmParams.random(rng, config.decoder_input_width, width, bound)
    head = FeedForwardParams.random(rng, config.horizon * width,
                                    config.head_size, config.horizon, bound)
    return ModelParams(feature_attn=feature_attn, encoder=encoder,
                       temporal_attn=temporal_attn, decoder=decoder, head=head)


@dataclass
class Encoding:
    """Encoder output for B windows: per-hour states stacked as
    (history_len, state_width, B), terminal (H, B) states for seeding the
    decoder, and optional (history_len, n_features, B) feature weights."""

    states: Tensor
    terminal_forward: LstmState
    terminal_backward: LstmState | None
    feature_weights: np.ndarray | None


def encode(params, config, hist_features, hist_targets, collect_attention=False):
    """Run the encoder over the history windows.

    `hist_features` is (history_len, n_features, B) and `hist_targets` is
    (history_len, B), window k in column k.  Each step consumes [features;
    observed load]; with feature attention the feature part is reweighted
    first (see the module docstring for how the weights are conditioned).
    """
    steps, windows = config.history_len, hist_targets.shape[-1]
    if hist_features.shape != (steps, config.n_features, windows):
        raise DimensionError(
            f"history features {hist_features.shape} do not match "
            f"({steps}, {config.n_features}, {windows})")
    if hist_targets.shape != (steps, windows):
        raise DimensionError(
            f"history targets {hist_targets.shape} do not match ({steps}, {windows})")

    if config.encoder_attention:
        inputs = FeatureSweep(params.feature_attn, hist_features, hist_targets)
    else:
        inputs = Tensor(np.concatenate((hist_features, hist_targets[:, np.newaxis]), axis=1))
    if config.bidirectional:
        states, (terminal_forward, terminal_backward) = bilstm_sequence(
            params.encoder, inputs, zero_state(config.hidden_size, windows),
            zero_state(config.hidden_size, windows))
    else:
        states, terminal_forward = lstm_sequence(
            params.encoder, inputs, zero_state(config.state_width, windows))
        terminal_backward = None
    feature_weights = None
    if collect_attention and config.encoder_attention:
        feature_weights = inputs.weights
    return Encoding(states, terminal_forward, terminal_backward, feature_weights)


@dataclass
class Decoding:
    """Decoder output, (horizon, B), and optional attention traces."""

    output: Tensor
    day_weights: np.ndarray | None
    hour_weights: np.ndarray | None


def decode(params, config, encoding, hist_features, future_features, collect_attention=False):
    """Run the decoder over the forecast days and apply the output head.

    `hist_features` is the (history_len, n_features, B) array the encoder
    ran over and `future_features` is (horizon, n_features, B).  Each
    direction starts from its own orientation's encoder terminal state.
    With decoder attention, the similar-day weights compare each window's
    history days, `day_len`-row blocks of its history, with its forecast
    day; the per-step context (similar-day times temporal
    weights over the window's encoder states) is computed in the forward
    sweep and both directions consume the same [features; context] inputs.
    """
    steps, windows = config.horizon, encoding.states.shape[-1]
    for name, features, rows in (("history", hist_features, config.history_len),
                                 ("future", future_features, steps)):
        if features.shape != (rows, config.n_features, windows):
            raise DimensionError(f"{name} features {features.shape} do not match "
                                 f"({rows}, {config.n_features}, {windows})")

    day_weights = hour_weights = None
    if config.decoder_attention:
        day_weights = similar_day_weights(
            hist_features.reshape(config.days, config.day_len, config.n_features, windows),
            future_features)
        inputs = TemporalSweep(params.temporal_attn, encoding.terminal_backward.h,
                               future_features, day_weights, encoding.states)
    else:
        inputs = Tensor(future_features)
    if config.bidirectional:
        states, _terminals = bilstm_sequence(
            params.decoder, inputs, encoding.terminal_forward, encoding.terminal_backward)
    else:
        states, _terminal = lstm_sequence(params.decoder, inputs, encoding.terminal_forward)

    output = feedforward_relu(params.head,
                              reshape(states, (steps * config.state_width, windows)))
    if collect_attention and config.decoder_attention:
        hour_weights = inputs.weights
    return Decoding(output, day_weights, hour_weights)


@dataclass
class Forecast:
    """Model output for one window, in standardized target units; the
    attention fields are filled only when requested and supported by the
    variant."""

    values: np.ndarray
    feature_weights: np.ndarray | None
    hour_weights: np.ndarray | None
    day_weights: np.ndarray | None


@dataclass
class ForwardPass:
    """Output of one pass over B windows: the (horizon, B) taped forecast
    tensor for building a loss, and one `Forecast` per window."""

    output: Tensor
    forecasts: list


def _stacked(windows, field, shape):
    """Field `field` of every window, stacked with windows as the last axis."""
    arrays = [np.asarray(getattr(window, field), dtype=np.float64) for window in windows]
    for k, arr in enumerate(arrays):
        if arr.shape != shape:
            raise DimensionError(f"window {k}: {field} {arr.shape} does not match {shape}")
    return np.stack(arrays, axis=-1)


def _column(weights, k):
    return None if weights is None else np.array(weights[..., k])


def forward(params, config, samples, collect_attention=False, encoding=None):
    """Encode the histories of `samples`, a nonempty list of windows, decode
    their forecast days, and return the forecasts as one pass.

    The observed future loads in the samples are never read; only the
    histories and the future features drive the output.  A given `encoding`
    replaces the encoder run and must be what `encode` gives these inputs.
    """
    if not samples:
        raise DimensionError("a forward pass needs at least one window")
    steps, width = config.history_len, config.n_features
    hist_features = _stacked(samples, "x_hist", (steps, width))
    if encoding is None:
        encoding = encode(params, config, hist_features,
                          _stacked(samples, "y_hist", (steps,)), collect_attention)
    decoding = decode(params, config, encoding, hist_features,
                      _stacked(samples, "x_future", (config.horizon, width)),
                      collect_attention)
    values = decoding.output.values
    return ForwardPass(decoding.output, [
        Forecast(values=np.array(values[:, k]),
                 feature_weights=_column(encoding.feature_weights, k),
                 hour_weights=_column(decoding.hour_weights, k),
                 day_weights=_column(decoding.day_weights, k))
        for k in range(len(samples))])


def predict(params, config, sample, collect_attention=False):
    """The forecast for one window: `forward` over [sample] with parameters
    wrapped as constants (no tape, no gradients)."""
    return forward(bind_constants(params), config, [sample], collect_attention).forecasts[0]
