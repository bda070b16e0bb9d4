"""LSTM cell and sequence runners against a pure-python scalar oracle."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from loadcast.errors import DimensionError
from loadcast.lstm import (BiLstmParams, FeedForwardParams, LstmParams,
                           LstmState, _activate, _gate_form,
                           bilstm_sequence, feedforward_relu, lstm_cell_step, lstm_sequence,
                           zero_state)
from loadcast.params import bind, named_leaves
from loadcast.tensor import (Tape, Tensor, _sigmoid_values, check_gradients, concat, fused_op,
                             hadamard, matmul, reshape, segment, sigmoid, tanh, total)
from loadcast.verify import scalar_lstm_step


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
        x = self.grid()
        hidden = 3
        scale, shift = _gate_form(hidden)
        pre = scale[:, np.newaxis] * x
        act = _activate(pre, scale[:, np.newaxis], shift[:, np.newaxis], np.empty_like(pre))
        gates = act.reshape(4, hidden, x.size)
        for k in (0, 1, 3):
            assert np.abs(gates[k] - _sigmoid_values(x)).max() <= 2.3e-16
            assert gates[k].min() >= 0.0 and gates[k].max() <= 1.0
        npt.assert_array_equal(gates[2], np.broadcast_to(np.tanh(x), (hidden, x.size)))

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
    """A direction as one `lstm_cell_step` per row of one window's
    (steps, width) input matrix.  Reference for the whole-sequence op."""
    steps, width = inputs.shape
    flat = reshape(inputs, (steps * width,))
    state, hs = init, []
    for t in range(steps):
        state = lstm_cell_step(params, state, segment(flat, t * width, (t + 1) * width))
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
    flat = concat([reshape(states, (states.values.size,)), terminal.h, terminal.c])
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
        rng = np.random.default_rng(24)
        shapes = [(1, 1, 1), (1, 4, 3), (5, 1, 2), (5, 2, 1)]
        shapes += [tuple(int(v) for v in rng.integers(1, 9, size=3)) for _ in range(30)]
        for steps, width, hidden in shapes:
            params, init, xs = random_sequence(rng, steps, width, hidden)
            probe = rng.normal(size=(steps + 2) * hidden)
            *values, grads = taped_sequence(one_window, params, init, xs, probe)
            *ref_values, ref_grads = taped_sequence(stepped_sequence, params, init, xs, probe)
            for value, ref in zip(values, ref_values):
                assert rel_diff(value, ref) <= 1e-12
            assert len(grads) == 3 + 3 and grads.keys() == ref_grads.keys()
            for name, grad in grads.items():
                assert grad.shape == ref_grads[name].shape, name
                assert rel_diff(grad, ref_grads[name]) <= 1e-12, (steps, width, hidden, name)

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

    def test_bilstm_matrix_matches_sweep(self):
        rng = np.random.default_rng(27)
        params = BiLstmParams.random(rng, 2, 3, bound=0.8)
        xs = rng.normal(size=(6, 2, 1))
        probe = rng.normal(size=(6, 6, 1))
        results = []
        for as_matrix in (True, False):
            tape = Tape()
            leaves = bind(params, tape)
            inputs = tape.leaf(xs)
            step_inputs = inputs if as_matrix else FixedSweep(inputs, 3)
            joined, (term_f, term_b) = bilstm_sequence(leaves, step_inputs,
                                                       one_state(3), one_state(3))
            tape.backward(total(hadamard(joined, Tensor(probe))))
            grads = [tape.grad(leaf) for _name, leaf in named_leaves(leaves)]
            grads.append(tape.grad(inputs))
            results.append((joined.values, term_f.c.values, term_b.c.values, grads))
        (*values, grads), (*ref_values, ref_grads) = results
        for value, ref in zip(values, ref_values):
            assert rel_diff(value, ref) <= 1e-12
        for grad, ref in zip(grads, ref_grads):
            assert rel_diff(grad, ref) <= 1e-12


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

    def test_bilstm_joins_directions_per_step(self):
        rng = np.random.default_rng(15)
        params = BiLstmParams(forward=LstmParams.random(rng, 2, 3, bound=0.5),
                              backward=LstmParams.random(rng, 2, 3, bound=0.5))
        inputs = rng.normal(size=(4, 2, 1))
        joined, (term_f, term_b) = bilstm_sequence(params, Tensor(inputs),
                                                   one_state(3), one_state(3))
        assert joined.shape == (4, 6, 1)

        fwd_states, fwd_term = lstm_sequence(params.forward, Tensor(inputs), one_state(3))
        bwd_states, bwd_term = lstm_sequence(params.backward, Tensor(inputs[::-1]),
                                             one_state(3))
        for t in range(4):
            expect = np.concatenate([fwd_states.values[t],
                                     bwd_states.values[3 - t]])
            npt.assert_array_equal(joined.values[t], expect)
        npt.assert_array_equal(term_f.h.values, fwd_term.h.values)
        npt.assert_array_equal(term_b.h.values, bwd_term.h.values)

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
