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

Every bidirectional run, encoder or decoder, goes through
`lstm.bilstm_sequence`.  Without attention on that side the step inputs
are known up front and are passed as a list, so both directions run as
whole-sequence ops.  With attention, a small closure builds each step's
input during the forward sweep: the conditioning vector joins the previous
forward hidden state with the backward direction's initial hidden state,
and the backward sweep then consumes the same per-step inputs.  This keeps
the weights well defined (the backward states do not exist yet when a
step's weights are needed) while both directions still see the
attention-processed inputs.  The unidirectional EDLSTM runs
`lstm.lstm_sequence`.  Encoder states come back as one (history_len,
state_width) matrix, and the decoder's matrix is flattened for the head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import (FeatureAttentionParams, TemporalAttentionParams,
                        context_vector, feature_attention, similar_day_weights,
                        temporal_attention)
from .errors import ConfigError, DimensionError
from .lstm import (BiLstmParams, FeedForwardParams, LstmParams, LstmState,
                   bilstm_sequence, feedforward_relu, lstm_sequence, zero_state)
from .lstm import lstm_cell_step  # noqa: F401  (unused; perfbench/tracing.py patches it here)
from .params import bind_constants
from .tensor import Tensor, concat, reshape

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
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
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
            rng, width, config.n_features, config.feature_attn_size, bound)
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
    """Encoder output: per-hour states stacked as (history_len, state_width),
    terminal states for seeding the decoder, and optional feature weights."""

    states: Tensor
    terminal_forward: LstmState
    terminal_backward: LstmState | None
    feature_weights: np.ndarray | None


def encode(params, config, hist_features, hist_targets, collect_attention=False):
    """Run the encoder over the history window.

    Each step consumes [features; observed load]; with feature attention the
    feature part is reweighted first (see the module docstring for how the
    weights are conditioned).
    """
    hist_features = np.asarray(hist_features, dtype=np.float64)
    hist_targets = np.asarray(hist_targets, dtype=np.float64)
    steps = config.history_len
    if hist_features.shape != (steps, config.n_features):
        raise DimensionError(
            f"history features {hist_features.shape} do not match "
            f"({steps}, {config.n_features})")
    if hist_targets.shape != (steps,):
        raise DimensionError(f"history targets {hist_targets.shape} do not match ({steps},)")

    init_backward = zero_state(config.hidden_size)
    weights_dump = []

    def attended_input(t, state):
        conditioning = concat([state.h, init_backward.h])
        weights, weighted = feature_attention(
            params.feature_attn, conditioning, hist_features[t], hist_targets[t])
        if collect_attention:
            weights_dump.append(np.array(weights.values))
        return concat([weighted, Tensor([hist_targets[t]])])

    if config.encoder_attention:
        step_input = attended_input
    else:
        step_input = [Tensor(np.append(hist_features[t], hist_targets[t]))
                      for t in range(steps)]
    if config.bidirectional:
        states, (terminal_forward, terminal_backward) = bilstm_sequence(
            params.encoder, steps, step_input, zero_state(config.hidden_size), init_backward)
    else:
        states, terminal_forward = lstm_sequence(
            params.encoder, step_input, zero_state(config.state_width))
        terminal_backward = None
    feature_weights = np.array(weights_dump) if weights_dump else None
    return Encoding(states, terminal_forward, terminal_backward, feature_weights)


@dataclass
class Decoding:
    """Decoder output and optional attention traces."""

    output: Tensor
    day_weights: np.ndarray | None
    hour_weights: np.ndarray | None


def decode(params, config, encoding, future_features, day_blocks, collect_attention=False):
    """Run the decoder over the forecast day and apply the output head.

    Each direction starts from its own orientation's encoder terminal
    state.  With decoder attention the per-step context (similar-day times
    temporal weights over the encoder states) is computed in the forward
    sweep and both directions consume the same [features; context] inputs.
    """
    future = np.asarray(future_features, dtype=np.float64)
    steps = config.horizon
    if future.shape != (steps, config.n_features):
        raise DimensionError(
            f"future features {future.shape} do not match ({steps}, {config.n_features})")

    day_weights = None
    if config.decoder_attention:
        day_weights = similar_day_weights(day_blocks, future)
    hour_dump = []

    def attended_input(t, state):
        conditioning = concat([state.h, encoding.terminal_backward.h])
        hour_weights = temporal_attention(
            params.temporal_attn, conditioning, future[t], config.day_len)
        if collect_attention:
            hour_dump.append(np.array(hour_weights.values).reshape(-1))
        context = context_vector(day_weights, hour_weights, encoding.states)
        return concat([Tensor(future[t]), context])

    if config.decoder_attention:
        step_input = attended_input
    else:
        step_input = [Tensor(future[t]) for t in range(steps)]
    if config.bidirectional:
        states, _terminals = bilstm_sequence(
            params.decoder, steps, step_input,
            encoding.terminal_forward, encoding.terminal_backward)
    else:
        states, _terminal = lstm_sequence(params.decoder, step_input, encoding.terminal_forward)

    output = feedforward_relu(params.head, reshape(states, (steps * config.state_width,)))
    return Decoding(output,
                    None if day_weights is None else np.array(day_weights.weights),
                    np.array(hour_dump) if hour_dump else None)


@dataclass
class Forecast:
    """Model output for one window, in standardized target units.

    `output` is the taped tensor (for building a loss); the attention
    fields are filled only when requested and supported by the variant.
    """

    values: np.ndarray
    output: Tensor
    feature_weights: np.ndarray | None
    hour_weights: np.ndarray | None
    day_weights: np.ndarray | None


def forward(params, config, sample, collect_attention=False):
    """Encode the history, decode the forecast day, return the forecast.

    The observed future loads in `sample` are never read; only the history
    and the future features drive the output.
    """
    encoding = encode(params, config, sample.x_hist, sample.y_hist, collect_attention)
    decoding = decode(params, config, encoding, sample.x_future, sample.day_blocks,
                      collect_attention)
    return Forecast(values=np.array(decoding.output.values),
                    output=decoding.output,
                    feature_weights=encoding.feature_weights,
                    hour_weights=decoding.hour_weights,
                    day_weights=decoding.day_weights)


def predict(params, config, sample, collect_attention=False):
    """`forward` with parameters wrapped as constants (no tape, no gradients)."""
    return forward(bind_constants(params), config, sample, collect_attention)
