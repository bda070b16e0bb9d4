"""Built-in verification suite.

Each check exercises one contract against an oracle that does not share
code with the implementation it checks: central finite differences for
gradients, a plain-Python scalar loop for the LSTM cell that reads the
stored weights by index, closed-form hand values for the metrics.  The `verify` subcommand prints one line per check
and fails if any check fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .data import WindowSample
from .metrics import compute_metrics
from .errors import LoadcastError
from .model import ModelConfig, encode, forward, init_params, predict
from .params import map_leaves, named_leaves
from .tensor import (Tensor, check_gradients, concat, hadamard, matmul, relu, sigmoid,
                     stable_softmax, tanh, total)
from .training import mse_loss


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def tiny_model_case(variant="ANLF", seed=8):
    """A small random window and matching config for structural checks.

    The default seed 8 keeps the ReLU head live (a nonzero forecast) for
    ANLF, dAttention and EDLSTM; eAttention and EDBiLSTM forecast 0 there.
    Seed 9 keeps all five variants live.
    """
    config = ModelConfig(days=2, day_len=4, n_features=3, hidden_size=4,
                         feature_attn_size=2, temporal_attn_size=2, head_size=2,
                         variant=variant, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    x_hist = rng.normal(0.0, 1.0, (config.history_len, config.n_features))
    y_hist = rng.normal(0.0, 1.0, config.history_len)
    x_future = rng.normal(0.0, 1.0, (config.horizon, config.n_features))
    y_future = rng.normal(0.0, 1.0, config.horizon)
    sample = WindowSample(x_hist=x_hist, y_hist=y_hist, x_future=x_future,
                          y_future=y_future, start=datetime(2022, 1, 5))
    return config, sample


def model_gradient_report(config, sample, h=1e-5, tolerance=1e-4):
    """Finite-difference check of the full window MSE against every parameter.

    `check_gradients` hands every constant probe the same mapping, perturbed
    in place, so the parameter tree over a mapping, like the target, is
    built once.  A constant probe whose `feature_attn` and `encoder` leaves
    are byte for byte the previous constant probe's reuses its `Encoding`,
    as the probes of the temporal attention, decoder and head scalars do.
    `encode` is a pure function of those leaves, the window and the config,
    so every loss is bitwise that of a fresh encoder run.  The taped pass
    always encodes.
    """
    template = init_params(config)
    arrays = {name: np.array(leaf) for name, leaf in named_leaves(template)}
    encoder_side = [name for name in arrays if name.startswith(("feature_attn.", "encoder."))]
    history = sample.x_hist[..., np.newaxis], sample.y_hist[:, np.newaxis]
    target = Tensor(sample.y_future[:, np.newaxis])
    # The latest mapping and its tree; the previous constant probe's encoder
    # leaf bytes and `Encoding`.
    last = {}

    def program(leaves):
        if last.get("leaves") is not leaves:
            last.update(leaves=leaves,
                        bound=map_leaves(template, lambda name, _leaf: leaves[name]))
        bound = last["bound"]
        encoding = None
        if leaves[encoder_side[0]].tape is None:
            key = b"".join(leaves[name].values.tobytes() for name in encoder_side)
            if last.get("key") != key:
                last.update(key=key, encoding=encode(bound, config, *history))
            encoding = last["encoding"]
        output = forward(bound, config, [sample], encoding=encoding).output
        return mse_loss(output, target)

    return check_gradients(program, arrays, h=h, tolerance=tolerance)


def _sig(x):
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def scalar_lstm_step(params, h_prev, c_prev, x):
    """Independent LSTM oracle: explicit loops and `math` only.

    Gate k (i, f, g, o) of hidden unit `row` reads row k * H + row of
    `weights`, its first len(x) columns against x and the rest against
    h_prev, plus the same row of `b_x` and `b_h`.
    """
    hidden = len(params.b_x) // 4
    width = len(x)

    def affine(gate, row):
        r = gate * hidden + row
        s = params.b_x[r] + params.b_h[r]
        for col in range(width):
            s += params.weights[r][col] * x[col]
        for col in range(hidden):
            s += params.weights[r][width + col] * h_prev[col]
        return s

    h_out, c_out = [], []
    for row in range(hidden):
        i = _sig(affine(0, row))
        f = _sig(affine(1, row))
        g = math.tanh(affine(2, row))
        o = _sig(affine(3, row))
        c = f * c_prev[row] + i * g
        h_out.append(o * math.tanh(c))
        c_out.append(c)
    return h_out, c_out


def _check_basic_gradients():
    rng = np.random.default_rng(7)
    arrays = {
        "a": rng.normal(0.0, 1.0, (3, 4)),
        "b": rng.normal(0.0, 1.0, (4, 2)),
        "v": rng.normal(0.0, 1.0, 6),
        "u": rng.normal(0.0, 1.0, 6) + np.where(rng.normal(size=6) > 0, 2.0, -2.0),
    }

    def program(leaves):
        prod = matmul(leaves["a"], leaves["b"])
        mixed = hadamard(sigmoid(leaves["v"]), tanh(leaves["v"]))
        rect = relu(leaves["u"])
        return total(prod) + total(mixed) + total(concat([rect, mixed]))

    report = check_gradients(program, arrays, tolerance=1e-6)
    return CheckResult("tensor-op gradients vs central differences", report.passed,
                       f"max rel error {report.max_rel_error:.2e}")


def _check_softmax():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        v = rng.normal(0.0, 3.0, rng.integers(2, 9))
        s = stable_softmax(v).values
        worst = max(worst, abs(float(s.sum()) - 1.0))
        if np.any(s <= 0.0):
            return CheckResult("softmax normalization", False, "non-positive entry")
    arrays = {"v": rng.normal(0.0, 2.0, 5)}

    def program(leaves):
        weights = stable_softmax(leaves["v"])
        return total(hadamard(weights, weights))

    report = check_gradients(program, arrays, tolerance=1e-6)
    ok = worst <= 1e-12 and report.passed
    return CheckResult("softmax normalization and gradient", ok,
                       f"max |sum-1| {worst:.1e}, max rel error {report.max_rel_error:.2e}")


def _check_lstm_oracle(instances=1000, tolerance=1e-12):
    """`lstm_cell_step` on `instances` random cells, then `lstm_sequence`, the
    engine the model runs, on 50 random batches of 1-3 windows over 1-4
    steps: every h_t and the terminal c against the oracle stepped per
    window."""
    from .lstm import LstmParams, LstmState, lstm_cell_step, lstm_sequence

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(instances):
        width = int(rng.integers(1, 6))
        hidden = int(rng.integers(1, 6))
        params = LstmParams.random(rng, width, hidden, 1.0)
        h_prev = rng.normal(0.0, 1.0, hidden)
        c_prev = rng.normal(0.0, 1.0, hidden)
        x = rng.normal(0.0, 1.0, width)
        state = lstm_cell_step(params, LstmState(Tensor(h_prev), Tensor(c_prev)),
                               Tensor(x))
        h_ref, c_ref = scalar_lstm_step(params, h_prev, c_prev, x)
        worst = max(worst,
                    float(np.max(np.abs(state.h.values - h_ref))),
                    float(np.max(np.abs(state.c.values - c_ref))))
    sequence_worst = 0.0
    for _ in range(50):
        steps, windows, width, hidden = (int(n) for n in rng.integers(1, (5, 4, 6, 6)))
        params = LstmParams.random(rng, width, hidden, 1.0)
        xs = rng.normal(0.0, 1.0, (steps, width, windows))
        h0 = rng.normal(0.0, 1.0, (hidden, windows))
        c0 = rng.normal(0.0, 1.0, (hidden, windows))
        states, terminal = lstm_sequence(params, Tensor(xs),
                                         LstmState(Tensor(h0), Tensor(c0)))
        for b in range(windows):
            h_ref, c_ref = h0[:, b], c0[:, b]
            for t in range(steps):
                h_ref, c_ref = scalar_lstm_step(params, h_ref, c_ref, xs[t, :, b])
                sequence_worst = max(sequence_worst,
                                     float(np.max(np.abs(states.values[t, :, b] - h_ref))))
            sequence_worst = max(sequence_worst,
                                 float(np.max(np.abs(terminal.c.values[:, b] - c_ref))))
    return CheckResult(f"lstm cell and sequence vs scalar-loop oracle ({instances} cells, "
                       "50 sequences)", max(worst, sequence_worst) <= tolerance,
                       f"max abs diff {worst:.1e} (cell), {sequence_worst:.1e} (sequence)")


def _check_model_gradients():
    config, sample = tiny_model_case()
    report = model_gradient_report(config, sample)
    return CheckResult("full-model gradients vs central differences", report.passed,
                       f"max rel error {report.max_rel_error:.2e}")


def _check_attention_normalization(evaluations=100, tolerance=1e-12):
    worst = 0.0
    positive = True
    for seed in range(evaluations):
        config, sample = tiny_model_case(seed=seed)
        fc = predict(init_params(config), config, sample, collect_attention=True)
        for row in fc.feature_weights:
            worst = max(worst, abs(float(row.sum()) - 1.0))
            positive = positive and bool(np.all(row > 0.0))
        for row in fc.hour_weights:
            worst = max(worst, abs(float(row.sum()) - 1.0))
            positive = positive and bool(np.all(row > 0.0))
        worst = max(worst, abs(float(fc.day_weights.sum()) - 1.0))
        positive = positive and bool(np.all(fc.day_weights > 0.0))
    ok = worst <= tolerance and positive
    detail = f"max |sum-1| {worst:.1e}" + ("" if positive else ", non-positive weight")
    return CheckResult(f"attention weights normalized ({evaluations} evaluations)",
                       ok, detail)


def _check_metric_values():
    report = compute_metrics([100.0, 200.0], [110.0, 190.0])
    expected = (10.0, 10.0, 7.5, 100.0 * 10.0 / 150.0)
    worst = max(abs(report.mae - expected[0]), abs(report.rmse - expected[1]),
                abs(report.mape - expected[2]), abs(report.nrmse - expected[3]))
    return CheckResult("metric hand values", worst <= 1e-9, f"max abs diff {worst:.1e}")


def run_all_checks():
    """Run every verification check; returns a list of CheckResult.  A check
    that raises a `LoadcastError` fails with the error's text."""
    results = []
    for check in (_check_basic_gradients, _check_softmax, _check_lstm_oracle,
                  _check_model_gradients, _check_attention_normalization,
                  _check_metric_values):
        try:
            results.append(check())
        except LoadcastError as err:
            name = check.__name__.removeprefix("_check_").replace("_", " ")
            results.append(CheckResult(name, False, f"{type(err).__name__}: {err}"))
    return results
