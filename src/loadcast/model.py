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
are known up front and are passed as one (steps, width) matrix, so both
directions run as whole-sequence ops.  With attention, the side passes an
attention sweep (`attention.FeatureSweep` in the encoder,
`attention.TemporalSweep` in the decoder) that builds each step's input
inside the forward recurrence, which is then one op too: the conditioning
vector joins the previous forward hidden state with the backward
direction's initial hidden state, and the backward sweep then consumes the
same per-step inputs.  This keeps the weights well defined (the backward
states do not exist yet when a step's weights are needed) while both
directions still see the attention-processed inputs.  The attention
weights a caller asks for are the ones the sweep stored.  The
unidirectional EDLSTM runs `lstm.lstm_sequence`.  Encoder states come back
as one (history_len, state_width) matrix, and the decoder's matrix is
flattened for the head.
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
    if config.encoder_attention:
        inputs = FeatureSweep(params.feature_attn, init_backward.h, hist_features, hist_targets)
    else:
        inputs = Tensor(np.column_stack((hist_features, hist_targets)))
    if config.bidirectional:
        states, (terminal_forward, terminal_backward) = bilstm_sequence(
            params.encoder, steps, inputs, zero_state(config.hidden_size), init_backward)
    else:
        states, terminal_forward = lstm_sequence(
            params.encoder, inputs, zero_state(config.state_width))
        terminal_backward = None
    feature_weights = None
    if collect_attention and config.encoder_attention:
        feature_weights = np.array(inputs.weights)
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

    day_weights = hour_weights = None
    if config.decoder_attention:
        day_weights = similar_day_weights(day_blocks, future)
        inputs = TemporalSweep(params.temporal_attn, encoding.terminal_backward.h, future,
                               day_weights, encoding.states, config.day_len)
    else:
        inputs = Tensor(future)
    if config.bidirectional:
        states, _terminals = bilstm_sequence(
            params.decoder, steps, inputs,
            encoding.terminal_forward, encoding.terminal_backward)
    else:
        states, _terminal = lstm_sequence(params.decoder, inputs, encoding.terminal_forward)

    output = feedforward_relu(params.head, reshape(states, (steps * config.state_width,)))
    if collect_attention and config.decoder_attention:
        hour_weights = np.array(inputs.weights)
    return Decoding(output,
                    None if day_weights is None else np.array(day_weights.weights),
                    hour_weights)


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
