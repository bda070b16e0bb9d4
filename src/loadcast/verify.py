"""Built-in verification suite.

Each check exercises one contract against an oracle that does not share
code with the implementation it checks: central finite differences for
gradients, a plain-Python scalar loop for the LSTM cell that reads the
stored weights by index, closed-form hand values for the metrics.  The
`verify` subcommand prints one line per check and fails if any check
fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .data import WindowSample
from .metrics import compute_metrics
from .errors import LoadcastError
from .model import ModelConfig, StackedWindows, decode, encode, forward, init_params, predict
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

    What depends on no parameter is computed once per report and shared by
    every pass: the window's `StackedWindows` (its stacked, shape-checked
    arrays and its similar-day weights) and the target.  `check_gradients`
    hands every constant probe the same mapping, perturbed in place, so the
    parameter tree over a mapping is built once per mapping; nothing is
    kept by a parameter array's identity.

    Every probe calls `forward`, and a constant probe hands it the stages
    its scalar cannot change.  Each stage is keyed by the bytes of the
    leaves it depends on, in named order: the encoding by the
    `feature_attn` and `encoder` leaves, the decoding by those and the
    `temporal_attn` and `decoder` leaves.  A constant probe whose stage key
    is the previous constant probe's reuses that probe's stage: the probes
    of the temporal attention, decoder and head scalars its `Encoding`, and
    those of the head scalars its `Decoding` too.  A stage with a sweep has
    a second key, through its forward cell: a probe whose second key alone
    is the previous one's hands `encode` or `decode` the previous value, so
    the probes of a backward-cell scalar rerun only the backward direction.
    `encode` and `decode` are pure functions of those leaves, the window
    and the config, and nothing writes into a value they returned, so
    every loss is bitwise that of a fresh pass.  The taped pass runs every
    stage.  A failing report's `worst` names the scalar of the largest
    error with both of its derivatives.
    """
    template = init_params(config)
    arrays = {name: np.array(leaf) for name, leaf in named_leaves(template)}
    # The leaves the decoder states depend on, in named order: feature_attn,
    # encoder (forward, backward), temporal_attn, decoder (forward, backward).
    through_decoder = [name for name in arrays if not name.startswith("head.")]

    def key_end(prefix):
        """The key's length through the last leaf whose name starts with
        `prefix`."""
        last = max(k for k, name in enumerate(through_decoder) if name.startswith(prefix))
        return sum(arrays[name].nbytes for name in through_decoder[:last + 1])

    # Each stage's key length, and that of its forward half's key, None
    # without a sweep.
    ends = {"encoding": (key_end("encoder."),
                         key_end("encoder.forward.") if config.encoder_attention else None),
            "decoding": (key_end("decoder."),
                         key_end("decoder.forward.") if config.decoder_attention else None)}
    windows = StackedWindows.stack(config, [sample])
    target = Tensor(sample.y_future[:, np.newaxis])
    # The latest mapping, its arrays through the decoder and its tree; per
    # stage, the key and value the latest constant probe that ran it made.
    last = {}

    def stage(name, key, run):
        """The latest value of stage `name` if `key` holds its stage key;
        otherwise `run(earlier)`, handed the latest value when `key` holds
        its forward half's key."""
        end, run_end = ends[name]
        made = last.get(name)
        # Every key is as long, so a key holds a stage key if it starts with it.
        if made is None or not key.startswith(made[0]):
            reuse = made is not None and run_end is not None and key.startswith(made[0][:run_end])
            made = last[name] = (key[:end], run(made[1] if reuse else None))
        return made[1]

    def program(leaves):
        if last.get("leaves") is not leaves:
            last.update(leaves=leaves, keyed=[leaves[name].values for name in through_decoder],
                        bound=map_leaves(template, lambda name, _leaf: leaves[name]))
        bound = last["bound"]
        encoding = decoding = None
        if leaves[through_decoder[0]].tape is None:
            key = b"".join([values.tobytes() for values in last["keyed"]])
            encoding = stage("encoding", key,
                             lambda earlier: encode(bound, config, windows, earlier))
            decoding = stage("decoding", key,
                             lambda earlier: decode(bound, config, encoding, windows, earlier))
        output = forward(bound, config, windows, encoding=encoding, decoding=decoding).output
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
    h_prev, plus the same row of `b_x` and `b_h`.  The weights, biases,
    states and input are read once per call as Python lists of floats, so
    every product indexes a list; the loops and the order of operations
    are those of indexing the arrays.
    """
    weights, b_x, b_h, h_prev, c_prev, x = (
        np.asarray(values, dtype=np.float64).tolist()
        for values in (params.weights, params.b_x, params.b_h, h_prev, c_prev, x))
    hidden = len(b_x) // 4
    width = len(x)

    def affine(gate, row):
        r = gate * hidden + row
        w = weights[r]
        s = b_x[r] + b_h[r]
        for col in range(width):
            s += w[col] * x[col]
        for col in range(hidden):
            s += w[width + col] * h_prev[col]
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


def _check_lstm_oracle():
    """`lstm_cell_step`, one step of one window of `lstm_sequence`, on 1000
    random cells, then `lstm_sequence` on 50 random batches of 1-3 windows
    over 1-4 steps: every h_t and the terminal c against the oracle
    stepped per window.  Both run the op the model runs."""
    from .lstm import LstmParams, LstmState, lstm_cell_step, lstm_sequence

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
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
    return CheckResult("lstm cell and sequence vs scalar-loop oracle (1000 cells, "
                       "50 sequences)", max(worst, sequence_worst) <= 1e-12,
                       f"max abs diff {worst:.1e} (cell), {sequence_worst:.1e} (sequence)")


def _check_model_gradients():
    config, sample = tiny_model_case()
    report = model_gradient_report(config, sample, h=1e-4)
    detail = f"max rel error {report.max_rel_error:.2e}"
    if not report.passed:
        name, index, analytic, numeric = report.worst
        detail += (f", worst block {name}, scalar {list(index)}: analytic {analytic:.3e}, "
                   f"numeric {numeric:.3e}")
    return CheckResult("full-model gradients vs central differences", report.passed, detail)


def _check_attention_normalization():
    worst = 0.0
    positive = True
    for seed in range(100):
        config, sample = tiny_model_case(seed=seed)
        fc = predict(init_params(config), config, sample, collect_attention=True)
        # One row per softmax: each feature step, each forecast hour, the days.
        for rows in (fc.feature_weights, fc.hour_weights, fc.day_weights[np.newaxis]):
            for row in rows:
                worst = max(worst, abs(float(row.sum()) - 1.0))
                positive = positive and bool(np.all(row > 0.0))
    ok = worst <= 1e-12 and positive
    detail = f"max |sum-1| {worst:.1e}" + ("" if positive else ", non-positive weight")
    return CheckResult("attention weights normalized (100 evaluations)", ok, detail)


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
