"""Built-in verification suite.

Each check exercises one contract against an oracle that does not share
code with the implementation it checks: central finite differences for
gradients, a plain-Python scalar loop for the LSTM cell that reads the
stored weights by index, closed-form hand values for the metrics.  The
`verify` subcommand prints one line per check and fails if any check
fails.  Three checks run untaped lane passes, whose lanes are bitwise
lone runs: the full-model gradient check evaluates its finite-difference
probes as lanes of `forward` over one shared window, each pass copying
per lane only the blocks it moves; the LSTM oracle check steps its drawn
one-step cells as lanes of `lstm_sequence`, each with its own state and
input; and the attention check runs its 100 seeds as the lanes of two
`forward` passes, each lane with its own parameters and window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .data import WindowSample
from .metrics import compute_metrics
from .errors import LoadcastError
from .model import ModelConfig, StackedWindows, forward, init_params
from .params import map_leaves, named_leaves
from .tensor import (Tensor, check_gradients, concat, hadamard, matmul, relu, sigmoid,
                     stable_softmax, tanh, total)
from .training import mse_loss


# Lanes per untaped pass of the full-model gradient check.  A pass's
# working set grows with its lanes, as each lane copies the blocks the pass
# moves and each LSTM run scales its weights into a per-lane copy: at 64
# the check's traced peak is about 0.83 MB, against 0.10 MB with one probe
# per pass, and fewer lanes would pay the fixed cost of more passes.
LANES_PER_PASS = 64

# Cells the LSTM oracle check draws before it evaluates them: each block's
# cells of one (width, hidden) are the lanes of one lane pass, so the
# block bounds the draws alive at once.
ORACLE_BLOCK = 250

# Seeds per lane pass of the attention check, which runs 100: two passes
# of 50 peak about half as high as one of 100, at the same per-row sums.
ATTENTION_LANES = 50


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
    arrays and its similar-day weights) and the target.  The taped pass is
    `forward`.  Every +h and -h probe of every scalar is then one lane of
    an untaped lane pass of `forward`, at most `LANES_PER_PASS` lanes to a
    pass, each lane the template's parameters with its one scalar moved.
    Only the blocks a pass moves are per-lane copies.  The blocks it does
    not move are made once per report and lane count: an LSTM block as one
    stride-0 view shared by the lanes, which keeps its bits because
    `lstm._run` copies the weights when it scales them and sums the biases
    first, and a scorer or head block, which `np.matmul` reads stacked, as
    per-lane copies, since nothing promises a stride-0 operand the bits of
    per-lane products.  A lane's arithmetic is that of a lone pass at its
    parameters, so every loss is bitwise a lone pass's, and
    `check_gradients` reports them as it reports its own probes.  A failing
    report's `worst` names the scalar of the largest error with both of
    its derivatives.
    """
    template = init_params(config)
    arrays = {name: np.array(leaf) for name, leaf in named_leaves(template)}
    windows = StackedWindows.stack(config, [sample])
    target = Tensor(sample.y_future[:, np.newaxis])
    recurrent = {f"{stage}.{name}" for stage in ("encoder", "decoder")
                 for name, _leaf in named_leaves(getattr(template, stage))}
    # Where each block starts and ends in the flat parameters, in named order.
    bounds = np.cumsum([0] + [values.size for values in arrays.values()])
    flat = np.concatenate([values.reshape(-1) for values in arrays.values()])
    names = list(arrays)

    def program(leaves):
        bound = map_leaves(template, lambda name, _leaf: leaves[name])
        return mse_loss(forward(bound, config, windows).output, target)

    shared = {}

    def lanes_of(where, moved):
        # The leaves of one pass whose lane k moves flat scalar where[k] to
        # moved[k].  The blocks it does not move are made once per lane
        # count; the template was scanned as leaves.
        lanes = len(where)
        if lanes not in shared:
            shared.clear()
            shared[lanes] = {
                name: Tensor(np.broadcast_to(values, (lanes,) + values.shape)
                             if name in recurrent else np.repeat(values[np.newaxis], lanes, 0),
                             scanned=True)
                for name, values in arrays.items()}
        leaves = dict(shared[lanes])
        # The blocks from the first moved scalar's to the last's, each a
        # per-lane copy; every moved scalar was scanned by `check_gradients`.
        lo, hi = np.searchsorted(bounds, where[[0, -1]], side="right") - 1
        span = np.repeat(flat[np.newaxis, bounds[lo]:bounds[hi + 1]], lanes, axis=0)
        span[np.arange(lanes), where - bounds[lo]] = moved
        for name, block in zip(names[lo:hi + 1],
                               np.split(span, bounds[lo + 1:hi + 1] - bounds[lo], axis=1)):
            leaves[name] = Tensor(block.reshape((lanes,) + arrays[name].shape), scanned=True)
        return leaves

    def losses(points):
        # Probe k moves flat scalar k // 2, to its +h value for even k.
        moved = np.concatenate(list(points.values())).reshape(-1)
        where = np.arange(moved.size) // 2
        found = np.empty(moved.size)
        for first in range(0, moved.size, LANES_PER_PASS):
            part = slice(first, first + LANES_PER_PASS)
            found[part] = program(lanes_of(where[part], moved[part])).values
        return dict(zip(arrays, np.split(found.reshape(-1, 2), bounds[1:-1])))

    return check_gradients(program, arrays, h=h, tolerance=tolerance, losses=losses)


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
    """`lstm_sequence`, the op the model runs, on 1000 random one-step
    cells, then on 50 random batches of 1-3 windows over 1-4 steps: every
    h_t and the terminal c against the oracle stepped per window.  The
    cells are drawn `ORACLE_BLOCK` at a time, and each block's cells of one
    (width, hidden) step as the lanes of one untaped lane pass, each lane
    its cell's one window with its own state and input; the batches run
    lone."""
    from .lstm import LstmParams, LstmState, lstm_sequence

    rng = np.random.default_rng(3)
    worst = 0.0
    for first in range(0, 1000, ORACLE_BLOCK):
        groups = {}
        for _ in range(min(ORACLE_BLOCK, 1000 - first)):
            width = int(rng.integers(1, 6))
            hidden = int(rng.integers(1, 6))
            draw = (LstmParams.random(rng, width, hidden, 1.0), rng.normal(0.0, 1.0, hidden),
                    rng.normal(0.0, 1.0, hidden), rng.normal(0.0, 1.0, width))
            groups.setdefault((width, hidden), []).append(draw)
        for draws in groups.values():
            cells, h_prev, c_prev, x = zip(*draws)
            laned = LstmParams(*(np.stack([getattr(cell, name) for cell in cells])
                                 for name in ("weights", "b_x", "b_h")))
            # (1, L, width, 1) inputs and (L, hidden, 1) states.
            _, state = lstm_sequence(laned, Tensor(np.stack(x)[np.newaxis, ..., np.newaxis]),
                                     LstmState(Tensor(np.stack(h_prev)[..., np.newaxis]),
                                               Tensor(np.stack(c_prev)[..., np.newaxis])))
            # Each lane's oracle h and c, filled as rows of one array: with
            # the nested lists subtracted as they are, a process's RSS crept
            # up round after round.
            ref = np.empty((2,) + state.h.values.shape[:2])
            for lane, draw in enumerate(draws):
                ref[:, lane] = scalar_lstm_step(*draw)
            worst = max(worst, float(np.max(np.abs(state.h.values[..., 0] - ref[0]))),
                        float(np.max(np.abs(state.c.values[..., 0] - ref[1]))))
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
    """The attention weights `predict` traces, on `tiny_model_case` at
    seeds 0-99, as the lanes of untaped lane passes of `forward`,
    `ATTENTION_LANES` seeds to a pass, lane k of a pass its k-th seed's
    parameters and window.  The parameters are copied into lane blocks one
    seed at a time, the blocks reused from pass to pass, and each softmax
    row is summed on its own, as a lone `predict`'s row would be: every
    |sum - 1| is bitwise a lone `predict`'s."""
    blocks = None
    worst = 0.0
    positive = True
    for first in range(0, 100, ATTENTION_LANES):
        windows = []
        for lane, seed in enumerate(range(first, first + ATTENTION_LANES)):
            config, sample = tiny_model_case(seed=seed)
            params = init_params(config)
            leaves = named_leaves(params)
            if blocks is None:
                blocks = {name: np.empty((ATTENTION_LANES,) + leaf.shape) for name, leaf in leaves}
            for name, leaf in leaves:
                blocks[name][lane] = leaf
            windows.append([sample])
        laned = map_leaves(params, lambda name, _leaf: Tensor(blocks[name]))
        feature, hour, day = forward(laned, config, windows, collect_attention=True).traces
        # One contiguous row per softmax: each feature step and each
        # forecast hour of every lane, and every lane's days.  A row sum
        # over the last axis adds a row as the row alone is added.
        for rows in (feature[..., 0], hour[..., 0], day[..., 0].T):
            rows = np.ascontiguousarray(rows)
            worst = max(worst, float(np.max(np.abs(rows.sum(axis=-1) - 1.0))))
            positive = positive and bool(np.all(rows > 0.0))
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
