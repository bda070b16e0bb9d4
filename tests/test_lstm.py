"""LSTM cell and sequence runners against a pure-python scalar oracle."""

import gc
import math
import tracemalloc
import weakref
from datetime import datetime

import numpy as np
import numpy.testing as npt
import pytest

from loadcast import lstm
from loadcast.data import WindowSample
from loadcast.errors import DimensionError, EvaluationError
from loadcast.lstm import (BiLstmParams, FeedForwardParams, LstmParams, LstmState, _activate,
                           _gate_rows, bilstm_sequence, feedforward_relu, lstm_cell_step,
                           lstm_sequence, zero_state)
from loadcast.model import VARIANTS
from loadcast.params import bind, named_leaves
from loadcast.tensor import (Tape, Tensor, _sigmoid_values, _softmax_grad, as_tensor,
                             check_gradients, concat, fused_op, hadamard, matmul, relu, reshape,
                             segment, sigmoid, softmax_values, tanh, total)
from loadcast.training import TrainConfig, train
from loadcast.verify import model_gradient_report, scalar_lstm_step, tiny_model_case


def scalar_cell(params, h_prev, c_prev, x):
    """Step one LSTM cell with plain python loops; no numpy linear algebra.

    Gate k of unit `row` reads row k * H + row of the weights, x against
    its first len(x) columns and h_prev against the rest, and the same row
    of both biases.
    """

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def gate(k, squash, row):
        r = k * len(h_prev) + row
        pre = params.b_x[r] + params.b_h[r]
        for j, xj in enumerate(x):
            pre += params.weights[r][j] * xj
        for j, hj in enumerate(h_prev):
            pre += params.weights[r][len(x) + j] * hj
        return squash(pre)

    h_new, c_new = [], []
    for row in range(len(h_prev)):
        i = gate(0, sig, row)
        f = gate(1, sig, row)
        g = gate(2, math.tanh, row)
        o = gate(3, sig, row)
        c = f * c_prev[row] + i * g
        c_new.append(c)
        h_new.append(o * math.tanh(c))
    return h_new, c_new


def random_case(rng, input_size, hidden_size):
    params = LstmParams.random(rng, input_size, hidden_size, bound=1.0)
    state = LstmState(h=Tensor(rng.normal(size=hidden_size)),
                      c=Tensor(rng.normal(size=hidden_size)))
    x = rng.normal(size=input_size)
    return params, state, x


def block(tensor, index):
    """`tensor.values[index]` as one tape op whose gradient is zero
    outside the block."""
    tensor = as_tensor(tensor)

    def rule(g):
        full = np.zeros(tensor.shape)
        full[index] = g
        return (full,)

    return fused_op(tensor.values[index], (tensor,), rule)


def composed_cell(params, prev, x):
    """The cell as separate tape ops: gate blocks sliced out of the weights
    and biases by index, eight matmuls, the bias adds, sigmoid/tanh and
    hadamard products.  Reference for the fused step."""
    hidden, width = prev.h.shape[0], x.shape[0]

    def pre(k):
        rows = slice(k * hidden, (k + 1) * hidden)
        return (matmul(block(params.weights, (rows, slice(0, width))), x)
                + block(params.b_x, rows)
                + matmul(block(params.weights, (rows, slice(width, None))), prev.h)
                + block(params.b_h, rows))

    i = sigmoid(pre(0))
    f = sigmoid(pre(1))
    g = tanh(pre(2))
    o = sigmoid(pre(3))
    c = f * prev.c + i * g
    return LstmState(o * tanh(c), c)


def rel_diff(value, reference):
    """Largest absolute difference relative to the reference's largest entry."""
    scale = float(np.max(np.abs(reference)))
    return float(np.max(np.abs(value - reference))) / max(scale, 1e-300)


def taped_step(step, params, state, x, probe):
    """Run `step` on a fresh tape; return h, c and the gradients of
    probe . [h; c] for the weights, both biases, x, h_prev and c_prev."""
    tape = Tape()
    leaves = bind(params, tape)
    h_prev, c_prev = tape.leaf(state.h.values), tape.leaf(state.c.values)
    x_leaf = tape.leaf(x)
    out = step(leaves, LstmState(h_prev, c_prev), x_leaf)
    tape.backward(total(hadamard(concat([out.h, out.c]), Tensor(probe))))
    grads = {name: tape.grad(leaf) for name, leaf in named_leaves(leaves)}
    grads.update(x=tape.grad(x_leaf), h_prev=tape.grad(h_prev), c_prev=tape.grad(c_prev))
    return out.h.values, out.c.values, grads


class TestCellStep:
    def test_zero_params_with_unit_cell_memory(self):
        params = LstmParams.zeros(3, 2)
        state = LstmState(h=Tensor(np.zeros(2)), c=Tensor(np.ones(2)))
        out = lstm_cell_step(params, state, Tensor(np.zeros(3)))
        # All gates sit at 0.5 and the candidate at 0, so c = 0.5 * 1.
        npt.assert_allclose(out.c.values, [0.5, 0.5], atol=1e-15)
        npt.assert_allclose(out.h.values, 0.5 * np.tanh(0.5), atol=1e-15)
        npt.assert_allclose(out.h.values, 0.23105857863000487, atol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            hs = int(rng.integers(1, 6))
            params, state, x = random_case(rng, d, hs)
            stepped = lstm_cell_step(params, state, Tensor(x))
            oracle_h, oracle_c = scalar_cell(params, state.h.values.tolist(),
                                             state.c.values.tolist(), x.tolist())
            npt.assert_allclose(stepped.h.values, oracle_h, rtol=0, atol=1e-12)
            npt.assert_allclose(stepped.c.values, oracle_c, rtol=0, atol=1e-12)

    def test_hidden_state_is_bounded(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            params, state, x = random_case(rng, 4, 3)
            out = lstm_cell_step(params, state, Tensor(10.0 * x))
            assert np.all(np.abs(out.h.values) <= 1.0)

    def test_input_width_mismatch(self):
        params = LstmParams.zeros(3, 2)
        with pytest.raises(DimensionError):
            lstm_cell_step(params, zero_state(2), Tensor(np.zeros(4)))
        with pytest.raises(DimensionError):
            lstm_cell_step(params, zero_state(3), Tensor(np.zeros(3)))
        params.b_h = np.zeros(12)
        with pytest.raises(DimensionError):
            lstm_cell_step(params, zero_state(2), Tensor(np.zeros(3)))

    def test_dual_biases_are_distinct_parameters(self):
        params = LstmParams.zeros(2, 2)
        names = [name for name, _ in named_leaves(params)]
        assert len(names) == 3
        assert "b_x" in names and "b_h" in names

    def test_bias_pair_adds_into_one_preactivation(self):
        lifted = LstmParams.zeros(1, 1)
        # Row 1 is the forget gate of the only unit (row blocks i, f, g, o).
        lifted.b_x[1] = 1.0
        lifted.b_h[1] = 1.0
        state = LstmState(h=Tensor(np.zeros(1)), c=Tensor(np.ones(1)))
        out = lstm_cell_step(lifted, state, Tensor(np.zeros(1)))
        # Both forget biases land in the same preactivation: sigma(1 + 1).
        npt.assert_allclose(out.c.values, [1.0 / (1.0 + math.exp(-2.0))],
                            atol=1e-15)


class TestGateForm:
    # The sigmoid rows use sigma(x) = 1/2 + tanh(x/2)/2, so they differ from
    # the exp form by rounding only; the g rows are tanh itself.
    MAGNITUDES = (1e-300, 1e-8, 0.5, 1.0, 2.0, 5.0, 20.0, 36.0, 40.0, 50.0, 709.0, 745.0, 1e6)

    def grid(self):
        dense = np.linspace(-60.0, 60.0, 4801)
        return np.concatenate(([0.0], self.MAGNITUDES, np.negative(self.MAGNITUDES), dense))

    def test_one_tanh_gives_sigmoid_and_tanh_rows(self):
        # Through the (1, 4H, 3) tiles a one-direction run uses: the grid,
        # padded to whole steps of 3 windows, as (steps, 1, 4H, 3)
        # pre-activations.
        hidden, windows = 3, 3
        x = self.grid()
        x = np.concatenate((x, x[:(-x.size) % windows])).reshape(-1, windows)
        scale, shift = _gate_rows(hidden, windows, 1)[:2]
        pre = scale * x[:, np.newaxis, np.newaxis]
        act = _activate(pre, scale, shift, np.empty_like(pre))
        gates = act.reshape(-1, 4, hidden, windows)
        for k in (0, 1, 3):
            assert np.abs(gates[:, k] - _sigmoid_values(x)[:, np.newaxis]).max() <= 2.3e-16
            assert gates[:, k].min() >= 0.0 and gates[:, k].max() <= 1.0
        npt.assert_array_equal(gates[:, 2], np.broadcast_to(np.tanh(x)[:, np.newaxis],
                                                            gates[:, 2].shape))

    def test_built_once_per_width_and_read_only(self):
        scale, shift = _gate_rows(5, 1, 1)[:2]
        assert _gate_rows(5, 1, 1)[0] is scale and _gate_rows(5, 1, 1)[1] is shift
        for arr in (scale, shift):
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 0.0

    def test_tiles_built_once_per_width_and_windows_and_read_only(self):
        # Per direction count too: a two-direction run's tiles repeat the
        # one-direction rows on each direction.
        for directions in (1, 2):
            entry = _gate_rows(5, 3, directions)
            tiles = entry[:2]
            assert all(a is b for a, b in zip(_gate_rows(5, 3, directions), entry))
            assert _gate_rows(5, 4, directions)[0] is not tiles[0]
            assert _gate_rows(5, 3, 3 - directions)[0] is not tiles[0]
            # The weights' scale column is a view of the entry's own scale tile.
            assert entry[-1].base is tiles[0]
            npt.assert_array_equal(entry[-1], tiles[0][..., :1][0 if directions == 1 else ...])
            rows = ([0.5] * 10 + [1.0] * 5 + [0.5] * 5, [0.5] * 10 + [0.0] * 5 + [0.5] * 5)
            for tile, row in zip(tiles, rows):
                column = np.repeat(np.array(row)[:, np.newaxis], 3, axis=1)
                npt.assert_array_equal(tile, np.repeat(column[np.newaxis], directions, axis=0))
                with pytest.raises(ValueError):
                    tile[0, 0, 0] = 0.0
                with pytest.raises(ValueError):
                    tile += 1.0

    def test_saturated_cell_matches_scalar_oracle(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            params, state, x = random_case(rng, 4, 3)
            z = np.concatenate((x, state.h.values))
            reach = np.abs(params.weights @ z + params.b_x + params.b_h).max()
            params = LstmParams(weights=params.weights * (50.0 / reach),
                                b_x=params.b_x * (50.0 / reach),
                                b_h=params.b_h * (50.0 / reach))
            pre = params.weights @ z + params.b_x + params.b_h
            assert np.isclose(np.abs(pre).max(), 50.0)
            stepped = lstm_cell_step(params, state, Tensor(x))
            oracle_h, oracle_c = scalar_lstm_step(params, state.h.values.tolist(),
                                                  state.c.values.tolist(), x.tolist())
            npt.assert_allclose(stepped.h.values, oracle_h, rtol=0, atol=1e-12)
            npt.assert_allclose(stepped.c.values, oracle_c, rtol=0, atol=1e-12)


class TestFusedCell:
    def test_matches_composed_ops(self):
        rng = np.random.default_rng(19)
        shapes = [(1, 1), (1, 5), (5, 1)]
        shapes += [(int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in range(40)]
        for width, hidden in shapes:
            params, state, x = random_case(rng, width, hidden)
            probe = rng.normal(size=2 * hidden)
            h, c, grads = taped_step(lstm_cell_step, params, state, x, probe)
            h_ref, c_ref, grads_ref = taped_step(composed_cell, params, state, x, probe)
            assert rel_diff(h, h_ref) <= 1e-12
            assert rel_diff(c, c_ref) <= 1e-12
            assert len(grads) == 6 and grads.keys() == grads_ref.keys()
            for name, grad in grads.items():
                assert grad.shape == grads_ref[name].shape, name
                assert rel_diff(grad, grads_ref[name]) <= 1e-12, (width, hidden, name)

    def test_equals_a_one_step_sequence_bitwise(self):
        # The cell is `lstm_sequence` over one step of one window: h, c and
        # all six gradients are the same arrays.
        rng = np.random.default_rng(26)
        shapes = [(1, 1), (1, 6), (6, 1)]
        shapes += [(int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in range(32)]
        for width, hidden in shapes:
            params, state, x = random_case(rng, width, hidden)
            probe = rng.normal(size=2 * hidden)
            h, c, grads = taped_step(lstm_cell_step, params, state, x, probe)
            h_ref, c_ref, grads_ref = taped_step(one_step_sequence, params, state, x, probe)
            assert np.array_equal(h, h_ref) and np.array_equal(c, c_ref), (width, hidden)
            assert len(grads) == 6 and grads.keys() == grads_ref.keys()
            for name, grad in grads.items():
                assert grad.shape == grads_ref[name].shape, name
                assert np.array_equal(grad, grads_ref[name]), (width, hidden, name)

    def test_step_gradients_match_finite_differences(self):
        rng = np.random.default_rng(20)
        params, state, x = random_case(rng, 3, 4)
        probe = rng.normal(size=8)

        def program(leaves):
            out = lstm_cell_step(params, LstmState(leaves["h_prev"], leaves["c_prev"]),
                                 leaves["x"])
            return total(hadamard(concat([out.h, out.c]), Tensor(probe)))

        report = check_gradients(program, {"x": x, "h_prev": state.h.values,
                                           "c_prev": state.c.values}, tolerance=1e-6)
        assert report.passed, f"max rel error {report.max_rel_error:.3e}"

    def test_step_records_three_nodes_at_any_width(self):
        counts = []
        for hidden in (1, 8):
            params, state, x = random_case(np.random.default_rng(21), 3, hidden)
            tape = Tape()
            leaves = bind(params, tape)
            # One leaf each for the weights and the two biases.
            assert len(tape) == 3
            x_leaf = tape.leaf(x)
            before = len(tape)
            lstm_cell_step(leaves, state, x_leaf)
            counts.append(len(tape) - before)
        assert counts == [3, 3]

    def test_packed_layout(self):
        rng = np.random.default_rng(22)
        params = LstmParams.random(rng, 2, 3, bound=1.0)
        assert (params.input_size, params.hidden_size) == (2, 3)
        assert params.weights.shape == (12, 5)
        assert params.b_x.shape == params.b_h.shape == (12,)
        # Only the g gate's input columns and the o gate's recurrent columns
        # are live, and only the f gate's biases: each block acts where the
        # layout puts it.
        probe = LstmParams.zeros(2, 3)
        probe.weights[6:9, :2] = params.weights[6:9, :2]
        probe.weights[9:12, 2:] = params.weights[9:12, 2:]
        probe.b_x[3:6], probe.b_h[3:6] = params.b_x[3:6], params.b_h[3:6]
        h, c, x = rng.normal(size=3), rng.normal(size=3), rng.normal(size=2)
        out = lstm_cell_step(probe, LstmState(Tensor(h), Tensor(c)), Tensor(x))
        forget = 1.0 / (1.0 + np.exp(-(params.b_x[3:6] + params.b_h[3:6])))
        cand = np.tanh(params.weights[6:9, :2] @ x)
        c_new = forget * c + 0.5 * cand
        npt.assert_allclose(out.c.values, c_new, rtol=0, atol=1e-15)
        gate_o = 1.0 / (1.0 + np.exp(-(params.weights[9:12, 2:] @ h)))
        npt.assert_allclose(out.h.values, gate_o * np.tanh(c_new), rtol=0, atol=1e-15)



def stepped_sequence(params, inputs, init):
    """A direction as one `composed_cell` per row of one window's (steps,
    width) input matrix.  Reference for the whole-sequence op, sharing no
    code with it: `lstm_cell_step` is a one-step run of the op's engine."""
    steps, width = inputs.shape
    flat = reshape(inputs, (steps * width,))
    state, hs = init, []
    for t in range(steps):
        state = composed_cell(params, state, segment(flat, t * width, (t + 1) * width))
        hs.append(state.h)
    return reshape(concat(hs), (steps, state.h.shape[0])), state


def one_window(params, inputs, init):
    """`lstm_sequence` on one window, in the per-window shapes of
    `stepped_sequence`: the window axis is added to the (steps, width)
    inputs and the (H,) state and taken off the results."""
    steps, width = inputs.shape
    hidden = init.h.shape[0]
    states, terminal = lstm_sequence(
        params, reshape(inputs, (steps, width, 1)),
        LstmState(reshape(init.h, (hidden, 1)), reshape(init.c, (hidden, 1))))
    return (reshape(states, (steps, hidden)),
            LstmState(reshape(terminal.h, (hidden,)), reshape(terminal.c, (hidden,))))


def one_step_sequence(params, prev, x):
    """`lstm_sequence` over the one step x of one window, as a cell step."""
    return one_window(params, reshape(x, (1, x.shape[0])), prev)[1]


class FixedSweep:
    """A sweep that ignores the hidden state: it writes `inputs[t]`,
    (width, B), as step t's input and passes its gradient through."""

    def __init__(self, inputs, hidden_size, seen=None):
        self.operands = (inputs,)
        self.steps, self.width, self.windows = inputs.shape
        self.hidden_size = hidden_size
        self._values = inputs.values
        self._grad = np.zeros(inputs.shape)
        self._seen = seen

    def fill(self, inputs):
        pass

    def forward(self, t, h_prev, out):
        if self._seen is not None:
            self._seen.append((t, np.array(h_prev)))
        out[...] = self._values[t]

    def backward(self, t, dx):
        self._grad[t] = dx
        return np.zeros((self.hidden_size, self.windows))

    def grads(self):
        return (self._grad,)

    def check_finite(self):
        pass

    def drop_store(self):
        pass


# Each malformed operand of a sequence op, with the entry points that take
# that operand: `lstm_sequence` over known inputs ("lstm"), and
# `bilstm_sequence` over known inputs ("known") and over a sweep ("sweep").
# `lstm_sequence` refuses a sweep, whose inputs only a forward direction
# beside a backward one reads.
MALFORMED_OPERANDS = [
    ("b_h-length", "lstm"), ("b_h-length", "known"), ("b_h-length", "sweep"),
    ("backward-cell-width", "known"), ("backward-cell-width", "sweep"),
    ("sweep-width", "sweep"),
    ("sweep", "lstm"),
]


def malformed_call(fault, entry):
    """A sequence call through `entry` whose operand `fault` is malformed,
    around a hidden-2 forward cell over 2 steps of width 3 and 1 window,
    and the message that names that operand."""
    cell = LstmParams.zeros(3, 2)
    other, init_backward = cell, one_state(2)
    known = Tensor(np.zeros((2, 3, 1)))
    inputs = FixedSweep(known, 2) if entry == "sweep" else known
    if fault == "b_h-length":
        other = LstmParams(np.zeros((8, 5)), np.zeros(8), np.zeros(4))
        message = r"lstm b_h \(4,\) does not match b_x \(8,\)"
    elif fault == "backward-cell-width":
        other, init_backward = LstmParams.zeros(3, 3), one_state(3)
        message = r"backward cell over hidden width 3 does not fit hidden width 2"
    elif fault == "sweep-width":
        inputs = FixedSweep(known, 3)
        message = r"sweep over hidden width 3 does not fit hidden width 2"
    elif fault == "sweep":
        inputs = FixedSweep(known, 2)
        message = r"one-direction sequence op steps known inputs and takes no sweep \(FixedSweep\)"
    if entry == "lstm":
        return (lambda: lstm_sequence(other, inputs, one_state(2))), message
    params = BiLstmParams(forward=cell, backward=other)
    return (lambda: bilstm_sequence(params, inputs, one_state(2), init_backward)), message


def wellformed_call(entry):
    """The sequence call through `entry` that `malformed_call` breaks, with
    every operand of the shapes it fits."""
    cell, known = LstmParams.zeros(3, 2), Tensor(np.zeros((2, 3, 1)))
    if entry == "lstm":
        return lambda: lstm_sequence(cell, known, one_state(2))
    inputs = {"known": known, "sweep": FixedSweep(known, 2)}[entry]
    return lambda: bilstm_sequence(BiLstmParams(cell, cell), inputs, one_state(2), one_state(2))


def random_sequence(rng, steps, width, hidden):
    params = LstmParams.random(rng, width, hidden, bound=1.0)
    init = LstmState(h=Tensor(rng.normal(size=hidden)), c=Tensor(rng.normal(size=hidden)))
    return params, init, rng.normal(size=(steps, width))


def taped_sequence(run, params, init, xs, probe):
    """Run `run` on a fresh tape; return the hidden matrix, the terminal h
    and c, and the gradients of probe . [states; h_T; c_T] for the weights,
    both biases, the input matrix, h0 and c0."""
    tape = Tape()
    leaves = bind(params, tape)
    h0, c0 = tape.leaf(init.h.values), tape.leaf(init.c.values)
    inputs = tape.leaf(xs)
    states, terminal = run(leaves, inputs, LstmState(h0, c0))
    flat = concat([reshape(part, (part.values.size,))
                   for part in (states, terminal.h, terminal.c)])
    tape.backward(total(hadamard(flat, Tensor(probe))))
    grads = {name: tape.grad(leaf) for name, leaf in named_leaves(leaves)}
    grads.update(x=tape.grad(inputs), h0=tape.grad(h0), c0=tape.grad(c0))
    return states.values, terminal.h.values, terminal.c.values, grads


def columns(*arrays):
    """Per-window arrays as one-window batches."""
    return tuple(Tensor(np.asarray(a)[..., np.newaxis]) for a in arrays)


def one_state(hidden, h=None, c=None):
    """An (H, 1) state, zero unless given per-window vectors."""
    h = np.zeros(hidden) if h is None else h
    c = np.zeros(hidden) if c is None else c
    return LstmState(*columns(h, c))


class TestSequenceOp:
    # The known-input gate pre-activations are one product over every step,
    # so the op's values are not bitwise those of stepped cells: they agree
    # to rounding, within 1e-12 relative.
    def test_values_equal_stepped_cells(self):
        rng = np.random.default_rng(23)
        shapes = [(1, 1, 1), (1, 3, 2), (4, 1, 3), (4, 3, 1)]
        shapes += [tuple(int(v) for v in rng.integers(1, 9, size=3)) for _ in range(30)]
        for steps, width, hidden in shapes:
            params, init, xs = random_sequence(rng, steps, width, hidden)
            inputs = Tensor(xs)
            states, terminal = one_window(params, inputs, init)
            ref_states, ref_terminal = stepped_sequence(params, inputs, init)
            assert states.shape == (steps, hidden)
            assert rel_diff(states.values, ref_states.values) <= 1e-12
            assert rel_diff(terminal.h.values, ref_terminal.h.values) <= 1e-12
            assert rel_diff(terminal.c.values, ref_terminal.c.values) <= 1e-12

    def test_gradients_match_stepped_cells(self):
        # Each window against its own stepped cells: its states, terminal
        # state and input and state gradients are its columns, and the
        # parameter gradients are the sums over windows.
        rng = np.random.default_rng(24)
        shapes = [(1, 1, 1), (1, 4, 3), (5, 1, 2), (5, 2, 1)]
        shapes += [tuple(int(v) for v in rng.integers(1, 9, size=3)) for _ in range(30)]
        for windows in (1, 2, 4):
            for steps, width, hidden in shapes:
                params = LstmParams.random(rng, width, hidden, bound=1.0)
                h0, c0 = rng.normal(size=(2, hidden, windows))
                xs = rng.normal(size=(steps, width, windows))
                probe = rng.normal(size=(steps + 2, hidden, windows))
                *values, grads = taped_sequence(lstm_sequence, params,
                                                LstmState(Tensor(h0), Tensor(c0)), xs,
                                                probe.reshape(-1))
                assert len(grads) == 3 + 3
                case = (windows, steps, width, hidden)
                sums = {name: 0.0 for name in ("weights", "b_x", "b_h")}
                for k in range(windows):
                    *ref_values, ref_grads = taped_sequence(
                        stepped_sequence, params, LstmState(Tensor(h0[:, k]), Tensor(c0[:, k])),
                        xs[..., k], probe[..., k].reshape(-1))
                    for value, ref in zip(values, ref_values):
                        assert rel_diff(value[..., k], ref) <= 1e-12, case
                    for name, ref in ref_grads.items():
                        if name in sums:
                            sums[name] += ref
                        else:
                            assert grads[name][..., k].shape == ref.shape, name
                            assert rel_diff(grads[name][..., k], ref) <= 1e-12, (case, name, k)
                for name, ref in sums.items():
                    assert grads[name].shape == ref.shape, name
                    assert rel_diff(grads[name], ref) <= 1e-12, (case, name)

    def test_gradients_in_inputs_and_state_match_finite_differences(self):
        rng = np.random.default_rng(25)
        params, init, xs = random_sequence(rng, 5, 3, 4)
        probe = rng.normal(size=7 * 4)

        def program(leaves):
            states, terminal = one_window(
                params, leaves["x"], LstmState(leaves["h0"], leaves["c0"]))
            flat = concat([reshape(states, (20,)), terminal.h, terminal.c])
            return total(hadamard(flat, Tensor(probe)))

        arrays = {"x": xs, "h0": init.h.values, "c0": init.c.values}
        report = check_gradients(program, arrays, tolerance=1e-6)
        assert report.passed, f"max rel error {report.max_rel_error:.3e}"

    def test_nodes_per_sequence_do_not_depend_on_steps(self):
        counts = []
        for steps in (1, 2, 7, 30):
            params, init, xs = random_sequence(np.random.default_rng(26), steps, 3, 2)
            tape = Tape()
            cell = bind(params, tape)
            inputs = tape.leaf(xs[..., np.newaxis])
            before = len(tape)
            lstm_sequence(cell, inputs, one_state(2))
            counts.append(len(tape) - before)
        # One op for the run, then a view each for the states, the terminal h
        # and the terminal c.
        assert counts == [4, 4, 4, 4]

    def test_nodes_per_bilstm_call_do_not_depend_on_inputs(self):
        counts = []
        for steps in (1, 2, 7, 30):
            params = BiLstmParams.random(np.random.default_rng(26), 3, 2, bound=1.0)
            xs = np.random.default_rng(27).normal(size=(steps, 3, 1))
            tape = Tape()
            cell = bind(params, tape)
            for inputs in (tape.leaf(xs), Tensor(xs), FixedSweep(tape.leaf(xs), 2)):
                before = len(tape)
                bilstm_sequence(cell, inputs, one_state(2), one_state(2))
                counts.append(len(tape) - before)
        # One op for both directions, then a view each for the states and
        # each direction's terminal h and c.
        assert counts == [6] * 12

    def test_bilstm_gradients_equal_tape_composition_bitwise(self):
        # The composition the op replaces: each direction one
        # `lstm_sequence`, the inputs reversed for the backward one, and
        # the states joined per step, each a tape op of its own.
        def composed(params, inputs, init_forward, init_backward):
            forward, terminal_forward = lstm_sequence(params.forward, inputs, init_forward)
            flipped = fused_op(inputs.values[::-1], (inputs,), lambda g: (g[::-1],))
            backward, terminal_backward = lstm_sequence(params.backward, flipped, init_backward)
            hidden = forward.shape[1]
            joined = fused_op(np.concatenate((forward.values, backward.values[::-1]), axis=1),
                              (forward, backward), lambda g: (g[:, :hidden], g[::-1, hidden:]))
            return joined, (terminal_forward, terminal_backward)

        rng = np.random.default_rng(28)
        for steps, width, hidden, windows in ((1, 1, 1, 1), (5, 3, 2, 4), (9, 4, 3, 2)):
            params = BiLstmParams.random(rng, width, hidden, bound=1.0)
            xs = rng.normal(size=(steps, width, windows))
            h0, c0, hb0, cb0 = rng.normal(size=(4, hidden, windows))
            probe = rng.normal(size=(steps + 2) * 2 * hidden * windows)
            results = []
            for run in (bilstm_sequence, composed):
                tape = Tape()
                cell = bind(params, tape)
                leaves = [tape.leaf(a) for a in (xs, h0, c0, hb0, cb0)]
                states, terminals = run(cell, leaves[0], LstmState(*leaves[1:3]),
                                        LstmState(*leaves[3:]))
                parts = [states] + [part for t in terminals for part in (t.h, t.c)]
                flat = concat([reshape(part, (part.values.size,)) for part in parts])
                tape.backward(total(hadamard(flat, Tensor(probe))))
                results.append([flat.values] + [tape.grad(leaf) for leaf in leaves]
                               + [tape.grad(leaf) for _name, leaf in named_leaves(cell)])
            for got, expect in zip(*results):
                assert np.array_equal(got, expect)

    def test_untaped_bilstm_retains_only_its_output(self):
        rng = np.random.default_rng(29)
        steps, width, hidden, windows = 60, 24, 8, 3
        params = BiLstmParams.random(rng, width, hidden, bound=1.0)
        xs = Tensor(rng.normal(size=(steps, width, windows)))
        init = zero_state(hidden, windows)
        output = (steps + 1) * 2 * hidden * windows * 8
        scratch = (steps + 1) * (width + hidden) * windows * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = bilstm_sequence(params, xs, init, init)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # Room for the Python objects around the views, well under the
        # scratch a leftover run would keep.
        assert kept[0].shape == (steps, 2 * hidden, windows)
        assert retained <= output + scratch // 4

    def test_walk_frees_its_activations_before_the_weight_product(self, monkeypatch):
        # The summed outer product copies the gate gradients, so the
        # lockstep walk of both directions forms them in the activations'
        # own buffer and drops the run's cell states before each
        # direction's product: no activation array is alive beside them.
        runs, seen = [], []
        run, summed_outer = lstm._run, lstm._summed_outer

        def kept(*args, **kwargs):
            act, c_seq = run(*args, **kwargs)
            runs.append((weakref.ref(act), weakref.ref(c_seq)))
            return act, c_seq

        def product(a, b):
            for act, c_seq in runs:
                seen.append((c_seq() is None, act() is not None and np.shares_memory(a, act())))
            return summed_outer(a, b)

        monkeypatch.setattr(lstm, "_run", kept)
        monkeypatch.setattr(lstm, "_summed_outer", product)
        tape = Tape()
        cell = bind(BiLstmParams.random(np.random.default_rng(30), 3, 2, bound=1.0), tape)
        init = zero_state(2, 3)
        states, _ = bilstm_sequence(cell, tape.leaf(np.ones((5, 3, 3))), init, init)
        tape.backward(total(states))
        assert seen == [(True, True), (True, True)]

    def test_shape_errors(self):
        params = LstmParams.zeros(3, 2)
        with pytest.raises(DimensionError):
            lstm_sequence(params, Tensor(np.zeros((2, 4, 1))), one_state(2))
        with pytest.raises(DimensionError):
            lstm_sequence(params, Tensor(np.zeros((2, 3))), one_state(2))
        with pytest.raises(DimensionError):
            lstm_sequence(params, Tensor(np.zeros((1, 3, 1))), one_state(3))
        with pytest.raises(DimensionError):
            lstm_sequence(params, Tensor(np.zeros((1, 3, 2))), one_state(2))
        bi = BiLstmParams(forward=params, backward=params)
        with pytest.raises(DimensionError):
            bilstm_sequence(bi, Tensor(np.zeros((1, 4, 1))), one_state(2), one_state(2))

    @pytest.mark.parametrize("fault, entry", MALFORMED_OPERANDS)
    def test_malformed_operand_is_a_dimension_error(self, fault, entry):
        # With no plan kept, so the call makes its first.
        lstm._plan.cache_clear()
        call, message = malformed_call(fault, entry)
        with pytest.raises(DimensionError, match=message):
            call()

    @pytest.mark.parametrize("fault, entry", MALFORMED_OPERANDS)
    def test_malformed_operand_beside_a_kept_plan_is_a_dimension_error(self, fault, entry):
        # The well-formed op of the same shapes has run, so its plan is
        # kept; the malformed call, twice, still raises the same message
        # and keeps no plan of its own.
        lstm._plan.cache_clear()
        wellformed_call(entry)()
        kept = lstm._plan.cache_info().currsize
        call, message = malformed_call(fault, entry)
        for _ in range(2):
            with pytest.raises(DimensionError, match=message):
                call()
        assert lstm._plan.cache_info().currsize == kept

    def test_nested_lists_are_known_inputs_for_both_ops(self):
        # Both ops classify their inputs by one rule: a nested list is known
        # inputs, stepped as its array is.
        rng = np.random.default_rng(32)
        cells = BiLstmParams.random(rng, 2, 3, 0.5)
        xs = rng.normal(size=(3, 2, 2))
        init = zero_state(3, 2)
        for run, params, inits in ((lstm_sequence, cells.forward, (init,)),
                                   (bilstm_sequence, cells, (init, init))):
            listed, arrayed = (run(params, inputs, *inits)[0] for inputs in (xs.tolist(), xs))
            npt.assert_array_equal(listed.values, arrayed.values, strict=True)

    @pytest.mark.parametrize("windows", [1, 3])
    def test_backward_half_is_the_backward_cell_over_reversed_inputs(self, windows):
        # The invariant `model` reruns the backward direction on: over a
        # sweep, the backward half of an untaped op, its states reversed,
        # and its terminal state are bitwise `lstm_sequence` of the
        # backward cell over the inputs reversed from `init_backward`.
        rng = np.random.default_rng(31)
        params = BiLstmParams.random(rng, 3, 2, 0.8)
        xs = Tensor(rng.normal(size=(5, 3, windows)))
        init_f, init_b = (LstmState(Tensor(rng.normal(size=(2, windows))),
                                    Tensor(rng.normal(size=(2, windows)))) for _ in range(2))
        states, (_term_f, term_b) = bilstm_sequence(params, FixedSweep(xs, 2), init_f, init_b)
        alone, terminal = lstm_sequence(params.backward, xs.values[::-1], init_b)
        npt.assert_array_equal(states.values[:, 2:], alone.values[::-1], strict=True)
        for value, expect in ((term_b.h, terminal.h), (term_b.c, terminal.c)):
            npt.assert_array_equal(value.values, expect.values, strict=True)

    def test_bilstm_matrix_matches_sweep(self):
        # With 3 windows, hidden 3 and width 2, a sweep gradient transposed
        # on the way in or out is wrong in value or in shape.
        rng = np.random.default_rng(27)
        for windows in (1, 3):
            params = BiLstmParams.random(rng, 2, 3, bound=0.8)
            xs = rng.normal(size=(6, 2, windows))
            probe = rng.normal(size=(6, 6, windows))
            results = []
            for as_matrix in (True, False):
                tape = Tape()
                leaves = bind(params, tape)
                inputs = tape.leaf(xs)
                step_inputs = inputs if as_matrix else FixedSweep(inputs, 3)
                init = zero_state(3, windows)
                joined, (term_f, term_b) = bilstm_sequence(leaves, step_inputs, init, init)
                tape.backward(total(hadamard(joined, Tensor(probe))))
                grads = [tape.grad(leaf) for _name, leaf in named_leaves(leaves)]
                grads.append(tape.grad(inputs))
                results.append((joined.values, term_f.c.values, term_b.c.values, grads))
            (*values, grads), (*ref_values, ref_grads) = results
            for value, ref in zip(values, ref_values):
                assert rel_diff(value, ref) <= 1e-12
            for grad, ref in zip(grads, ref_grads):
                assert grad.shape == ref.shape
                assert rel_diff(grad, ref) <= 1e-12


def sequence_results(op, seed, taped):
    """The output of one sequence op of fixed shapes (3 steps of width 2,
    hidden width 2, 2 windows) over values drawn from `seed`, as arrays:
    the states and each terminal h and c and, taped, the gradient of every
    operand for a random weighting of them.  `op` is `lstm_sequence` over
    known inputs ("lstm"), or `bilstm_sequence` over known inputs
    ("bilstm") or a `FixedSweep` ("sweep")."""
    rng = np.random.default_rng(seed)
    steps, width, hidden, windows = 3, 2, 2, 2
    tape = Tape() if taped else None

    def leaf(values):
        return Tensor(values) if tape is None else tape.leaf(values)

    count = 1 if op == "lstm" else 2
    params = BiLstmParams.random(rng, width, hidden, 0.8)
    cells = params.forward if op == "lstm" else params
    cells = cells if tape is None else bind(cells, tape)
    inits = [LstmState(leaf(rng.normal(size=(hidden, windows))),
                       leaf(rng.normal(size=(hidden, windows)))) for _ in range(count)]
    known = leaf(rng.normal(size=(steps, width, windows)))
    inputs = {"lstm": known, "bilstm": known, "sweep": FixedSweep(known, hidden)}[op]
    run = lstm_sequence if op == "lstm" else bilstm_sequence
    states, terminals = run(cells, inputs, *inits)
    parts = [states] + [t for state in ([terminals] if op == "lstm" else terminals)
                        for t in (state.h, state.c)]
    results = [part.values for part in parts]
    if tape is not None:
        flat = concat([reshape(part, (part.values.size,)) for part in parts])
        tape.backward(total(hadamard(flat, Tensor(rng.normal(size=flat.values.size)))))
        leaves = [leaf for _name, leaf in named_leaves(cells)] + [known]
        leaves += [t for init in inits for t in (init.h, init.c)]
        results += [tape.grad(leaf) for leaf in leaves]
    return results


def cached_plans():
    """The plans `lstm._plan` keeps."""
    return [plan for referent in gc.get_referents(lstm._plan) if isinstance(referent, dict)
            for plan in referent.values() if isinstance(plan, lstm._Plan)]


def plan_arrays(plans):
    """Every array the `plans` reference, through their tuples."""
    found, seen, stack = [], set(), list(plans)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (lstm._Plan, tuple, list, dict)):
            stack.extend(gc.get_referents(obj))
    return found


def tiny_windows(config, count, seed):
    rng = np.random.default_rng(seed)
    return [WindowSample(x_hist=rng.normal(size=(config.history_len, config.n_features)),
                         y_hist=rng.normal(size=config.history_len),
                         x_future=rng.normal(size=(config.horizon, config.n_features)),
                         y_future=rng.normal(size=config.horizon),
                         start=datetime(2022, 1, 5)) for _ in range(count)]


class TestPlans:
    """The shape plans of the sequence ops: made once per op shape, kept,
    and never a source of numbers."""

    @pytest.mark.parametrize("op, taped", [("lstm", False), ("lstm", True), ("bilstm", False),
                                           ("bilstm", True), ("sweep", False), ("sweep", True)])
    def test_a_kept_plan_gives_the_numbers_of_a_new_one(self, op, taped):
        # Two ops of one shape back to back, the second over the first's
        # plan, against each op after the plans are cleared: bitwise.
        lstm._plan.cache_clear()
        kept = [sequence_results(op, seed, taped) for seed in (1, 2)]
        assert lstm._plan.cache_info().currsize == 1
        for seed, results in zip((1, 2), kept):
            lstm._plan.cache_clear()
            for got, expect in zip(results, sequence_results(op, seed, taped), strict=True):
                npt.assert_array_equal(got, expect, strict=True)
                assert got.tobytes() == expect.tobytes()

    def test_plans_per_gate_and_per_training_run(self):
        # One seed-8 gradient gate per variant, and a tiny training run,
        # each keep an exact number of plans: a key that took a value
        # would keep one per probe or per batch.  No plan holds an array
        # but a read-only `_gate_rows` tile or a view of one.
        counts = []
        for run in ("gates", "train"):
            lstm._plan.cache_clear()
            if run == "gates":
                for variant in VARIANTS:
                    model_gradient_report(*tiny_model_case(variant, seed=8))
            else:
                config = tiny_model_case("ANLF", seed=8)[0]
                samples = tiny_windows(config, 9, seed=3)
                train(config, samples[:6], samples[6:], TrainConfig(batch_size=4, epochs=2))
            plans = cached_plans()
            counts.append(len(plans))
            assert len(plans) == lstm._plan.cache_info().currsize
            arrays = plan_arrays(plans)
            assert arrays
            for array in arrays:
                root = array if array.base is None else array.base
                assert root.base is None and not root.flags.writeable
                hidden, windows = root.shape[1] // 4, root.shape[2]
                assert any(root is tile
                           for tile in _gate_rows(hidden, windows, root.shape[0])[:2])
        # The gates: ANLF's encoder and decoder ops over a sweep, untaped
        # and taped, and the one-direction op over known inputs that reruns
        # the backward cell (6); eAttention's and dAttention's ops over known
        # inputs on the side without attention, untaped and taped (2 each;
        # EDBiLSTM's are theirs); EDLSTM's one-direction encoder and
        # decoder ops, untaped and taped (4).  Training: the encoder and
        # decoder ops of the taped 4- and 2-window batches and of the
        # untaped 6- and 3-window scoring passes (8).
        assert counts == [14, 8]


def broadcast_run(w, bias, z, c0, sweep=None, history=True):
    """`lstm._run` with its former arithmetic: (4H, 1) bias, scale and
    shift columns broadcast over each step, and fresh per-step products."""
    steps = z.shape[0] - 1
    hidden, windows = c0.shape
    width = z.shape[1] - hidden
    scale, shift = (tile[0] for tile in _gate_rows(hidden, 1, 1)[:2])
    w = w * scale
    bias = bias[:, np.newaxis] * scale
    slots = steps if history else 1
    act = np.empty((slots, 4 * hidden, windows))
    c_seq = np.empty((slots + 1, hidden, windows))
    c_seq[0] = c0
    tanh_c = np.empty((hidden, windows))
    for t in range(steps):
        if sweep is not None:
            sweep.forward(t, z[t, width:], z[t, :width])
        a = np.matmul(w, z[t], out=act[t % slots])
        a += bias
        _activate(a, scale, shift, a)
        c = np.multiply(a[hidden:2 * hidden], c_seq[t % (slots + 1)],
                        out=c_seq[(t + 1) % (slots + 1)])
        c += a[:hidden] * a[2 * hidden:3 * hidden]
        np.multiply(a[3 * hidden:], np.tanh(c, out=tanh_c), out=z[t + 1, width:])
    return act, c_seq


def fresh_bptt(w, act, c_seq, grad_h, dc, sweep=None, grad_x=None):
    """`lstm._bptt` with its former arithmetic: fresh dh, dc and products
    at every step."""
    steps, hidden, windows = grad_h.shape
    width = w.shape[1] - hidden
    w_t = np.ascontiguousarray((w[:, width:] if sweep is None else w).T)
    i, f, cand, o = (act[:, k * hidden:(k + 1) * hidden] for k in range(4))
    tanh_c = np.tanh(c_seq[1:])
    d_pre = np.subtract(1.0, act)
    d_pre *= act
    gates = d_pre.reshape(steps, 4, hidden, windows)
    np.subtract(1.0, np.square(cand), out=gates[:, 2])
    for k, factor in enumerate((cand, c_seq[:-1], i, tanh_c)):
        gates[:, k] *= factor
    o_slope = o * (1.0 - tanh_c * tanh_c)
    dh_next = np.zeros((hidden, windows))
    for t in range(steps - 1, -1, -1):
        dh = grad_h[t] + dh_next
        dc = dc + dh * o_slope[t]
        gates[t, :3] *= dc
        gates[t, 3] *= dh
        dz = w_t @ d_pre[t]
        dh_next = dz if sweep is None else dz[width:] + sweep.backward(t, dz[:width] + grad_x[t])
        dc = dc * f[t]
    return d_pre, dh_next, dc


def sequential_run(w, bias, z, c0, history=True):
    """`lstm._run` over known inputs as it was before the lockstep: one
    direction, its (4H, B) tiles and 2-D products."""
    steps = z.shape[0] - 1
    hidden, windows = c0.shape
    width = z.shape[1] - hidden
    scale, shift = (tile[0] for tile in _gate_rows(hidden, windows, 1)[:2])
    w = w * scale[:, :1]
    bias = bias[:, np.newaxis] * scale
    slots = steps if history else 1
    act = np.empty((slots, 4 * hidden, windows))
    c_seq = np.empty((slots + 1, hidden, windows))
    c_seq[0] = c0
    part = np.empty((hidden, windows))
    for t in range(steps):
        a = np.matmul(w, z[t], out=act[t % slots])
        a += bias
        _activate(a, scale, shift, a)
        c = np.multiply(a[hidden:2 * hidden], c_seq[t % (slots + 1)],
                        out=c_seq[(t + 1) % (slots + 1)])
        c += np.multiply(a[:hidden], a[2 * hidden:3 * hidden], out=part)
        np.multiply(a[3 * hidden:], np.tanh(c, out=part), out=z[t + 1, width:])
    return act, c_seq


def sequential_bptt(w, act, c_seq, grad_h, dc):
    """`lstm._bptt` over known inputs as it was before the lockstep: one
    direction, gate gradients in a fresh array."""
    steps, hidden, windows = grad_h.shape
    width = w.shape[1] - hidden
    w_t = np.ascontiguousarray(w[:, width:].T)
    i, f, cand, o = (act[:, k * hidden:(k + 1) * hidden] for k in range(4))
    tanh_c = np.tanh(c_seq[1:])
    d_pre = np.subtract(1.0, act)
    d_pre *= act
    gates = d_pre.reshape(steps, 4, hidden, windows)
    np.subtract(1.0, np.square(cand), out=gates[:, 2])
    for k, factor in enumerate((cand, c_seq[:-1], i, tanh_c)):
        gates[:, k] *= factor
    o_slope = o * (1.0 - tanh_c * tanh_c)
    dh_next = np.zeros((hidden, windows))
    dh, dh_o = np.empty((2, hidden, windows))
    dc = np.array(dc)
    for t in range(steps - 1, -1, -1):
        np.add(grad_h[t], dh_next, out=dh)
        dc += np.multiply(dh, o_slope[t], out=dh_o)
        gates[t, :3] *= dc
        gates[t, 3] *= dh
        dh_next = w_t @ d_pre[t]
        dc *= f[t]
    return d_pre, dh_next, dc


def sequential_bilstm(params, inputs, init_forward, init_backward):
    """The bidirectional op over known inputs as it was before the
    lockstep: the forward direction runs to the end, then the backward one
    over the inputs reversed, and the rule walks the backward direction,
    then the forward one."""
    steps, width, windows = inputs.shape
    hidden = params.hidden_size
    directions = [tuple(map(as_tensor, (cell.weights, cell.b_x, cell.b_h, init.h, init.c)))
                  for cell, init in ((params.forward, init_forward),
                                     (params.backward, init_backward))]
    operands = sum(directions, ()) + (inputs,)
    taped = any(t.tape is not None for t in operands)
    layout = lstm._Plan("known", inputs.shape, hidden, 2, taped, True)

    def start(direction, z):
        weights, b_x, b_h, h0, c0 = direction
        z[0, width:] = h0.values
        act, c_seq = sequential_run(weights.values, b_x.values + b_h.values, z, c0.values, taped)
        return (weights.values, z, act, c_seq), c_seq[steps % len(c_seq)]

    def walk(run, grad_h, dc, d_x):
        w, z, act, c_seq = run
        d_pre, dh0, dc0 = sequential_bptt(w, act, c_seq, grad_h, dc)
        if d_x is not None:
            d_x += np.matmul(w[:, :width].T, d_pre)
        d_bias = d_pre.sum(axis=(0, 2))
        return np.tensordot(d_pre, z[:-1], axes=((0, 2), (0, 2))), d_bias, d_bias.copy(), dh0, dc0

    out = np.empty((steps + 1) * 2 * hidden * windows)
    states, c_end = lstm._parts(out, layout)
    z = np.empty((steps + 1, width + hidden, windows))
    z[:steps, :width] = inputs.values
    run_forward, c_end[0] = start(directions[0], z)
    states[:, :hidden] = z[1:, width:]
    z_back = np.empty_like(z) if taped else z
    z_back[:steps, :width] = inputs.values[::-1]
    run_backward, c_end[1] = start(directions[1], z_back)
    states[::-1, hidden:] = z_back[1:, width:]

    def rule(grad):
        grad_h, dc = lstm._parts(grad, layout)
        d_x = None if inputs.tape is None else np.zeros(inputs.shape)
        backward = walk(run_backward, grad_h[::-1, hidden:], dc[1],
                        None if d_x is None else d_x[::-1])
        return walk(run_forward, grad_h[:, :hidden], dc[0], d_x) + backward + (d_x,)

    return lstm._views(fused_op(out, operands, rule), layout)


class TestStepLoops:
    """The step loops against their former broadcast arithmetic, bitwise."""

    @pytest.mark.parametrize("swept", (False, True))
    @pytest.mark.parametrize("history", (True, False))
    @pytest.mark.parametrize("hidden", (1, 5))
    @pytest.mark.parametrize("windows", (1, 3, 8))
    def test_run_and_bptt_equal_the_broadcast_loops(self, windows, hidden, history, swept):
        rng = np.random.default_rng(100 * windows + 10 * hidden + 2 * history + swept)
        steps, width = 7, 3
        w = rng.normal(size=(4 * hidden, width + hidden))
        bias, c0 = rng.normal(size=4 * hidden), rng.normal(size=(hidden, windows))
        xs = rng.normal(size=(steps, width, windows))
        z0 = rng.normal(size=(steps + 1, width + hidden, windows))
        if not swept:
            z0[:steps, :width] = xs
        grad_h, dc = rng.normal(size=(steps, hidden, windows)), rng.normal(size=(hidden, windows))
        grad_x = rng.normal(size=xs.shape) if swept else None
        outputs = []
        # `_run` and `_bptt` step one-direction runs: their operands gain
        # the direction axis as views, which their results lose to compare.

        def run(w, bias, z, c0, sweep, history):
            act, c_seq = lstm._run([w], bias[np.newaxis], z[:, np.newaxis], c0[np.newaxis],
                                   lstm._gate_rows(hidden, windows, 1), sweep, history)
            return act[:, 0], c_seq[:, 0]

        def walk(w, act, c_seq, grad_h, dc, sweep, grad_x):
            d_pre, dh0, dc0 = lstm._bptt([w], act[:, np.newaxis], c_seq[:, np.newaxis],
                                         [grad_h], [dc], sweep, grad_x)
            return d_pre[:, 0], dh0[0], dc0[0]

        for run, walk in ((run, walk), (broadcast_run, fresh_bptt)):
            z = z0.copy()
            sweeps = [FixedSweep(Tensor(xs), hidden) if swept else None for _ in range(2)]
            act, c_seq = run(w, bias, z, c0, sweeps[0], history)
            got = [act, c_seq, z]
            if history:
                got += walk(w, act.copy(), c_seq.copy(), grad_h, dc, sweeps[1], grad_x)
                got += sweeps[1].grads() if swept else ()
            outputs.append(got)
        for got, expect in zip(*outputs):
            assert got.shape == expect.shape and np.array_equal(got, expect)

    @pytest.mark.parametrize("taped", ("nothing", "cells", "cells and inputs"))
    @pytest.mark.parametrize("steps", (1, 2, 7))
    @pytest.mark.parametrize("hidden", (1, 5))
    @pytest.mark.parametrize("windows", (1, 3, 8))
    def test_lockstep_bilstm_equals_the_sequential_directions(self, windows, hidden, steps,
                                                               taped):
        # Both directions as one stacked run and one lockstep walk, against
        # the forward direction run and walked apart from the backward one:
        # states, terminal h and c, and every gradient, bitwise.
        rng = np.random.default_rng(1000 * windows + 100 * hidden + 10 * steps + len(taped))
        width = 3
        params = BiLstmParams.random(rng, width, hidden, bound=1.0)
        arrays = [rng.normal(size=(steps, width, windows))]
        arrays += list(rng.normal(size=(4, hidden, windows)))
        probe = rng.normal(size=(steps + 2) * 2 * hidden * windows)
        outputs = []
        for run in (bilstm_sequence, sequential_bilstm):
            tape = Tape()
            cell = params if taped == "nothing" else bind(params, tape)
            leaves = [Tensor(a) if taped == "nothing" else tape.leaf(a) for a in arrays]
            if taped == "cells":
                leaves[0] = Tensor(arrays[0])
            states, terminals = run(cell, leaves[0], LstmState(*leaves[1:3]),
                                    LstmState(*leaves[3:]))
            got = [states.values] + [part.values for t in terminals for part in (t.h, t.c)]
            if taped != "nothing":
                parts = [states] + [part for t in terminals for part in (t.h, t.c)]
                flat = concat([reshape(part, (part.values.size,)) for part in parts])
                tape.backward(total(hadamard(flat, Tensor(probe))))
                got += [tape.grad(leaf) for _name, leaf in named_leaves(cell)]
                got += [tape.grad(leaf) for leaf in leaves[1:]]
                if taped == "cells and inputs":
                    got.append(tape.grad(leaves[0]))
            outputs.append(got)
        assert len(outputs[0]) == {"nothing": 5, "cells": 15, "cells and inputs": 16}[taped]
        for got, expect in zip(*outputs):
            assert got.shape == expect.shape and np.array_equal(got, expect)

    @pytest.mark.parametrize("n", (2, 45, 168))
    @pytest.mark.parametrize("windows", (1, 4, 8))
    def test_softmax_helpers_equal_the_composed_expressions(self, n, windows):
        # The sweeps' (n, B) columns, and the 1-D vector of `stable_softmax`.
        rng = np.random.default_rng(n + windows)
        v_all, g_all = rng.normal(0.0, 4.0, (n, windows)), rng.normal(size=(n, windows))
        for v, g in ((v_all, g_all), (v_all[:, 0], g_all[:, 0])):
            e = np.exp(v - v.max(axis=0))
            expect = e / e.sum(axis=0)
            out = np.empty_like(v)
            assert softmax_values(v, out=out) is out and np.array_equal(out, expect)
            assert np.array_equal(softmax_values(v), expect)
            g_before = g.copy()
            grad = _softmax_grad(expect, g)
            assert np.array_equal(grad, expect * (g - (g * expect).sum(axis=0)))
            into = np.empty_like(g)
            assert _softmax_grad(expect, g, into) is into and np.array_equal(into, grad)
            assert np.array_equal(g, g_before)

    @pytest.mark.parametrize("case", ("lstm_sequence", "bilstm_sequence", "bilstm sweep"))
    def test_sequence_rules_leave_their_gradient_unchanged(self, monkeypatch, case):
        rng = np.random.default_rng(31)
        steps, width, hidden, windows = 5, 3, 2, 4
        rules = []

        def recording(out, operands, rule, scanned=False):
            rules.append((out.size, rule))
            return fused_op(out, operands, rule, scanned)

        monkeypatch.setattr(lstm, "fused_op", recording)
        tape = Tape()
        xs = tape.leaf(rng.normal(size=(steps, width, windows)))
        init = zero_state(hidden, windows)
        if case == "lstm_sequence":
            cell = bind(LstmParams.random(rng, width, hidden, bound=1.0), tape)
            lstm_sequence(cell, xs, LstmState(tape.leaf(init.h.values), init.c))
        else:
            cell = bind(BiLstmParams.random(rng, width, hidden, bound=1.0), tape)
            bilstm_sequence(cell, xs if case == "bilstm_sequence" else FixedSweep(xs, hidden),
                            init, init)
        (size, rule), = rules
        grad = rng.normal(size=size)
        before = grad.copy()
        rule(grad)
        assert np.array_equal(grad, before)


def dense_segment(x, start, stop, shape=None):
    """`segment` whose rule returns a zero gradient the size of the whole
    parent with its own entries filled in, for the tape to sum."""
    size = x.values.size

    def rule(g):
        full = np.zeros(size)
        full[start:stop] = g.reshape(-1)
        return (full,)

    part = x.values[start:stop]
    return fused_op(part if shape is None else part.reshape(shape), (x,), rule)


class TestViewGradients:
    # A bidirectional run at the benchmark's EDBiLSTM size: hidden 32, 168
    # steps, 4 windows, whose five views (states and each direction's
    # terminal h and c) cover its output once; the terminal h's lie inside
    # the states block.
    HIDDEN, STEPS, WIDTH, WINDOWS = 32, 168, 14, 4

    def views_loss(self, views, rng):
        loss = None
        for view in views:
            term = total(hadamard(view, Tensor(rng.normal(size=view.shape))))
            loss = term if loss is None else loss + term
        return loss

    def run_gradients(self):
        rng = np.random.default_rng(41)
        params = BiLstmParams.random(rng, self.WIDTH, self.HIDDEN, bound=0.3)
        tape = Tape()
        leaves = bind(params, tape)
        inputs = tape.leaf(rng.normal(size=(self.STEPS, self.WIDTH, self.WINDOWS)))
        init = zero_state(self.HIDDEN, self.WINDOWS)
        states, terminals = bilstm_sequence(leaves, inputs, init, init)
        tape.backward(self.views_loss([states] + [t for s in terminals for t in (s.h, s.c)],
                                      rng))
        return [tape.grad(leaf) for _name, leaf in named_leaves(leaves)] + [tape.grad(inputs)]

    def views_peak(self):
        """Traced peak of the backward pass over the views of a run's
        output alone, with a leaf standing in for the op."""
        tape = Tape()
        size = (self.STEPS + 1) * 2 * self.HIDDEN * self.WINDOWS
        joined = tape.leaf(np.ones(size))
        plan = lstm._Plan("known", (self.STEPS, self.WIDTH, self.WINDOWS), self.HIDDEN, 2,
                          True, True)
        states, terminals = lstm._views(joined, plan)
        loss = None
        for view in [states] + [t for s in terminals for t in (s.h, s.c)]:
            loss = total(view) if loss is None else loss + total(view)
        tracemalloc.start()
        try:
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, tape.grad(joined), joined.values.nbytes

    def test_gradients_equal_full_size_parts_bitwise(self, monkeypatch):
        grads = self.run_gradients()
        monkeypatch.setattr(lstm, "segment", dense_segment)
        for got, expect in zip(grads, self.run_gradients()):
            assert np.array_equal(got, expect)

    def test_views_add_into_one_buffer(self, monkeypatch):
        # The states view's own gradient and one buffer are all the
        # full-size arrays; a full-size zero array per view, summed by the
        # tape, doubles the peak.
        peak, grad, full = self.views_peak()
        monkeypatch.setattr(lstm, "segment", dense_segment)
        dense_peak, dense_grad, _ = self.views_peak()
        assert np.array_equal(grad, dense_grad)
        assert peak < 2.2 * full < dense_peak


class TestSequences:
    def test_returns_one_state_per_step(self):
        rng = np.random.default_rng(13)
        params = LstmParams.random(rng, 3, 2, bound=0.5)
        inputs = Tensor(rng.normal(size=(5, 3, 2)))
        states, terminal = lstm_sequence(params, inputs, zero_state(2, 2))
        assert states.shape == (5, 2, 2)
        npt.assert_array_equal(states.values[-1], terminal.h.values)

    def test_empty_sequence_rejected(self):
        with pytest.raises(DimensionError):
            lstm_sequence(LstmParams.zeros(2, 2), Tensor(np.zeros((0, 2, 1))), one_state(2))

    def test_sequence_matches_repeated_cell_steps(self):
        rng = np.random.default_rng(14)
        params = LstmParams.random(rng, 2, 3, bound=0.7)
        inputs = rng.normal(size=(4, 2))
        states, terminal = lstm_sequence(params, *columns(inputs), one_state(3))
        manual = zero_state(3)
        for step, x in enumerate(inputs):
            manual = lstm_cell_step(params, manual, Tensor(x))
            assert rel_diff(states.values[step, :, 0], manual.h.values) <= 1e-12
        assert rel_diff(terminal.c.values[:, 0], manual.c.values) <= 1e-12

    @pytest.mark.parametrize("windows", (1, 4, 8))
    @pytest.mark.parametrize("hidden, width, steps", ((3, 2, 4), (32, 46, 168), (32, 109, 24)))
    def test_bilstm_joins_directions_per_step(self, hidden, width, steps, windows):
        # Over known inputs both directions are one stacked `np.matmul`
        # run, and each `lstm_sequence` a one-direction run whose gate
        # product is a 2-D `np.dot`: every step's states and each terminal
        # h and c are bitwise the same, at hidden 32 over the ANLF
        # encoder's and decoder's benchmark inputs too.
        rng = np.random.default_rng(15)
        params = BiLstmParams(forward=LstmParams.random(rng, width, hidden, bound=0.5),
                              backward=LstmParams.random(rng, width, hidden, bound=0.5))
        inputs = rng.normal(size=(steps, width, windows))
        init = zero_state(hidden, windows)
        joined, (term_f, term_b) = bilstm_sequence(params, Tensor(inputs), init, init)
        assert joined.shape == (steps, 2 * hidden, windows)

        fwd_states, fwd_term = lstm_sequence(params.forward, Tensor(inputs), init)
        bwd_states, bwd_term = lstm_sequence(params.backward, Tensor(inputs[::-1]), init)
        for t in range(steps):
            expect = np.concatenate([fwd_states.values[t],
                                     bwd_states.values[steps - 1 - t]])
            npt.assert_array_equal(joined.values[t], expect)
        for term, ref in ((term_f, fwd_term), (term_b, bwd_term)):
            npt.assert_array_equal(term.h.values, ref.h.values)
            npt.assert_array_equal(term.c.values, ref.c.values)

    def test_bilstm_direction_swap_mirrors_outputs(self):
        rng = np.random.default_rng(16)
        a = LstmParams.random(rng, 2, 3, bound=0.5)
        b = LstmParams.random(rng, 2, 3, bound=0.5)
        inputs = rng.normal(size=(5, 2, 1))
        joined, _ = bilstm_sequence(BiLstmParams(a, b), Tensor(inputs),
                                    one_state(3), one_state(3))
        mirrored, _ = bilstm_sequence(BiLstmParams(b, a), Tensor(inputs[::-1]),
                                      one_state(3), one_state(3))
        for t in range(5):
            fwd, bwd = np.split(joined.values[t], 2)
            m_fwd, m_bwd = np.split(mirrored.values[4 - t], 2)
            npt.assert_array_equal(fwd, m_bwd)
            npt.assert_array_equal(bwd, m_fwd)

    def test_bilstm_sweep_sees_previous_forward_state(self):
        rng = np.random.default_rng(18)
        params = BiLstmParams.random(rng, 2, 3, bound=0.5)
        inputs = rng.normal(size=(4, 2))
        h0, c0 = rng.normal(size=3), rng.normal(size=3)
        seen = []
        joined, (term_f, _) = bilstm_sequence(params, FixedSweep(*columns(inputs), 3, seen),
                                              one_state(3, h0, c0), one_state(3))
        assert [t for t, _ in seen] == [0, 1, 2, 3]
        npt.assert_array_equal(seen[0][1][:, 0], h0)
        for t in range(1, 4):
            npt.assert_array_equal(seen[t][1], joined.values[t - 1, :3])
        manual = LstmState(Tensor(h0), Tensor(c0))
        for t in range(4):
            manual = lstm_cell_step(params.forward, manual, Tensor(inputs[t]))
        npt.assert_array_equal(term_f.h.values[:, 0], manual.h.values)
        npt.assert_array_equal(term_f.c.values[:, 0], manual.c.values)

    def test_bilstm_empty_sequence_rejected(self):
        params = BiLstmParams.random(np.random.default_rng(19), 2, 2, bound=0.5)
        with pytest.raises(DimensionError):
            bilstm_sequence(params, Tensor(np.zeros((0, 2, 1))), one_state(2), one_state(2))
        with pytest.raises(DimensionError):
            bilstm_sequence(params, FixedSweep(Tensor(np.zeros((0, 2, 1))), 2),
                            one_state(2), one_state(2))

    def test_sequence_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        init = LstmParams.random(rng, 2, 3, bound=0.6)
        xs = rng.normal(size=(6, 2, 1))

        def program(leaves):
            params = LstmParams(**{name: leaves[name]
                                   for name, _ in named_leaves(init)})
            states, terminal = lstm_sequence(params, Tensor(xs), one_state(3))
            return total(concat([reshape(states, (18,)), reshape(terminal.c, (3,))]))

        report = check_gradients(program,
                                 dict(named_leaves(init)), tolerance=1e-5)
        assert report.passed, f"max rel error {report.max_rel_error:.3e}"


class TestFeedForwardHead:
    def test_hand_values(self):
        params = FeedForwardParams(hidden=np.array([[3.0]]), out=np.array([[2.0]]))
        out = feedforward_relu(params, Tensor(np.array([[1.0]])))
        npt.assert_array_equal(out.values, [[6.0]])
        # A negative preactivation is clamped to zero by the ReLU.
        negative = FeedForwardParams(hidden=np.array([[-3.0]]),
                                     out=np.array([[2.0]]))
        npt.assert_array_equal(
            feedforward_relu(negative, Tensor(np.array([[1.0]]))).values, [[0.0]])

    def test_gradients(self):
        rng = np.random.default_rng(18)
        init = FeedForwardParams.random(rng, 6, 4, 3, bound=0.8)
        stacked = rng.normal(size=(6, 2))

        def program(leaves):
            params = FeedForwardParams(hidden=leaves["hidden"], out=leaves["out"])
            return total(feedforward_relu(params, Tensor(stacked)))

        report = check_gradients(program, {"hidden": init.hidden, "out": init.out},
                                 tolerance=1e-5)
        assert report.passed

    @pytest.mark.parametrize("windows", [1, 3])
    def test_one_op_matches_the_composed_ops_bitwise(self, windows):
        # Hidden unit 0 reads only stacked row 0, and window 0 holds 0 there:
        # its pre-activation is exactly 0, at the ReLU's kink.
        rng = np.random.default_rng(30 + windows)
        hidden = rng.normal(size=(4, 5))
        hidden[0], hidden[:, 0] = 0.0, 0.0
        hidden[0, 0] = 1.0
        stacked = rng.normal(size=(5, windows))
        stacked[0] = np.abs(stacked[0]) + 0.5
        stacked[0, 0] = 0.0
        out = rng.normal(size=(3, 4))
        weights = rng.normal(size=(3, windows))

        def run(head):
            tape = Tape()
            leaves = [tape.leaf(a) for a in (hidden, out, stacked)]
            value = head(*leaves)
            tape.backward(total(hadamard(value, Tensor(weights))))
            return value.values, [tape.grad(leaf) for leaf in leaves], len(tape)

        fused, fused_grads, fused_nodes = run(
            lambda h, o, x: feedforward_relu(FeedForwardParams(hidden=h, out=o), x))
        composed, composed_grads, composed_nodes = run(
            lambda h, o, x: matmul(o, relu(matmul(h, x))))
        assert composed_nodes - fused_nodes == 2
        assert (hidden @ stacked)[0, 0] == 0.0 and np.any(hidden @ stacked < 0.0)
        npt.assert_array_equal(fused, composed)
        for got, want in zip(fused_grads, composed_grads):
            npt.assert_array_equal(got, want)
        d_stacked = fused_grads[2]
        assert d_stacked[0, 0] == 0.0 and np.all(d_stacked[0, 1:] != 0.0)

    def test_gradients_at_the_gate_tolerance(self):
        rng = np.random.default_rng(19)
        init = FeedForwardParams.random(rng, 6, 4, 3, bound=0.8)

        def program(leaves):
            params = FeedForwardParams(hidden=leaves["hidden"], out=leaves["out"])
            return total(feedforward_relu(params, leaves["stacked"]))

        report = check_gradients(program, {"hidden": init.hidden, "out": init.out,
                                           "stacked": rng.normal(size=(6, 3))})
        assert report.passed, f"max rel error {report.max_rel_error:.3e}"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_minus_inf_pre_activation_raises(self):
        # The ReLU would map -inf to 0; the head must not.
        params = FeedForwardParams(hidden=np.array([[-1e308, -1e308]]), out=np.array([[1.0]]))
        with pytest.raises(EvaluationError):
            feedforward_relu(params, Tensor(np.array([[1e308], [1e308]])))

    def test_shape_errors_keep_their_messages(self):
        params = FeedForwardParams(hidden=np.ones((2, 3)), out=np.ones((4, 5)))
        with pytest.raises(DimensionError, match=r"head input shape \(2, 1\) does not match "
                                                 r"weights \(3, windows\)"):
            feedforward_relu(params, Tensor(np.ones((2, 1))))
        with pytest.raises(DimensionError, match=r"matmul inner extents differ: "
                                                 r"\(4, 5\) @ \(2, 1\)"):
            feedforward_relu(params, Tensor(np.ones((3, 1))))
