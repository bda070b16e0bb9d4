"""LSTM cell and sequence runners against a pure-python scalar oracle."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from loadcast.errors import DimensionError
from loadcast.lstm import (BiLstmParams, FeedForwardParams, LstmParams,
                           LstmState, attended_sequence, bilstm_sequence,
                           feedforward_relu, lstm_cell_step, lstm_sequence, pack,
                           zero_state)
from loadcast.params import bind, named_leaves
from loadcast.tensor import (Tape, Tensor, check_gradients, concat, hadamard,
                             matmul, reshape, segment, sigmoid, tanh, total)


def scalar_cell(params, h_prev, c_prev, x):
    """Step one LSTM cell with plain python loops; no numpy linear algebra."""

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def gate(w_x, b_x, w_h, b_h, squash, row):
        pre = b_x[row] + b_h[row]
        for j, xj in enumerate(x):
            pre += w_x[row][j] * xj
        for j, hj in enumerate(h_prev):
            pre += w_h[row][j] * hj
        return squash(pre)

    h_new, c_new = [], []
    for row in range(len(h_prev)):
        i = gate(params.w_ix, params.b_ix, params.w_ih, params.b_ih, sig, row)
        f = gate(params.w_fx, params.b_fx, params.w_fh, params.b_fh, sig, row)
        g = gate(params.w_gx, params.b_gx, params.w_gh, params.b_gh, math.tanh, row)
        o = gate(params.w_ox, params.b_ox, params.w_oh, params.b_oh, sig, row)
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


def composed_cell(params, prev, x):
    """The cell as separate tape ops: eight matmuls, the bias adds,
    sigmoid/tanh and hadamard products.  Reference for the fused step."""

    def pre(w_x, b_x, w_h, b_h):
        return matmul(w_x, x) + b_x + matmul(w_h, prev.h) + b_h

    i = sigmoid(pre(params.w_ix, params.b_ix, params.w_ih, params.b_ih))
    f = sigmoid(pre(params.w_fx, params.b_fx, params.w_fh, params.b_fh))
    g = tanh(pre(params.w_gx, params.b_gx, params.w_gh, params.b_gh))
    o = sigmoid(pre(params.w_ox, params.b_ox, params.w_oh, params.b_oh))
    c = f * prev.c + i * g
    return LstmState(o * tanh(c), c)


def rel_diff(value, reference):
    """Largest absolute difference relative to the reference's largest entry."""
    scale = float(np.max(np.abs(reference)))
    return float(np.max(np.abs(value - reference))) / max(scale, 1e-300)


def taped_step(step, params, state, x, probe):
    """Run `step` on a fresh tape; return h, c and the gradients of
    probe . [h; c] for the sixteen blocks, x, h_prev and c_prev."""
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
        params.w_oh = np.zeros((2, 3))
        with pytest.raises(DimensionError):
            lstm_cell_step(params, zero_state(2), Tensor(np.zeros(3)))

    def test_dual_biases_are_distinct_parameters(self):
        params = LstmParams.zeros(2, 2)
        names = [name for name, _ in named_leaves(params)]
        assert len(names) == 16
        assert "b_ix" in names and "b_ih" in names

    def test_bias_pair_adds_into_one_preactivation(self):
        lifted = LstmParams.zeros(1, 1)
        lifted.b_fx = np.array([1.0])
        lifted.b_fh = np.array([1.0])
        state = LstmState(h=Tensor(np.zeros(1)), c=Tensor(np.ones(1)))
        out = lstm_cell_step(lifted, state, Tensor(np.zeros(1)))
        # Both forget biases land in the same preactivation: sigma(1 + 1).
        npt.assert_allclose(out.c.values, [1.0 / (1.0 + math.exp(-2.0))],
                            atol=1e-15)


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
            assert len(grads) == 19 and grads.keys() == grads_ref.keys()
            for name, grad in grads.items():
                assert grad.shape == grads_ref[name].shape, name
                assert rel_diff(grad, grads_ref[name]) <= 1e-12, (width, hidden, name)

    def test_step_gradients_match_finite_differences(self):
        rng = np.random.default_rng(20)
        params, state, x = random_case(rng, 3, 4)
        probe = rng.normal(size=8)

        def program(tape, leaves):
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
            cell = pack(leaves)
            # One node for the packed weights and one for the summed bias.
            assert len(tape) == 16 + 2
            x_leaf = tape.leaf(x)
            before = len(tape)
            lstm_cell_step(cell, state, x_leaf)
            counts.append(len(tape) - before)
        assert counts == [3, 3]

    def test_packed_layout(self):
        rng = np.random.default_rng(22)
        params = LstmParams.random(rng, 2, 3, bound=1.0)
        cell = pack(params)
        assert pack(cell) is cell
        assert (cell.input_size, cell.hidden_size) == (2, 3)
        npt.assert_array_equal(cell.weights.values[6:9, :2], params.w_gx)
        npt.assert_array_equal(cell.weights.values[9:12, 2:], params.w_oh)
        npt.assert_array_equal(cell.bias.values[3:6], params.b_fx + params.b_fh)



def stepped_sequence(params, inputs, init):
    """A direction as one `lstm_cell_step` per row of the input matrix.
    Reference for the whole-sequence op."""
    cell = pack(params)
    steps, width = inputs.shape
    flat = reshape(inputs, (steps * width,))
    state, hs = init, []
    for t in range(steps):
        state = lstm_cell_step(cell, state, segment(flat, t * width, (t + 1) * width))
        hs.append(state.h)
    return reshape(concat(hs), (steps, state.h.shape[0])), state


class FixedSweep:
    """A sweep that ignores the hidden state: step t's input is row t of
    `inputs`, whose gradient it passes through."""

    def __init__(self, inputs, hidden_size, seen=None):
        self.operands = (inputs,)
        self.steps, self.width = inputs.shape
        self.hidden_size = hidden_size
        self._values = inputs.values
        self._grad = np.zeros(inputs.shape)
        self._seen = seen

    def forward(self, t, h_prev):
        if self._seen is not None:
            self._seen.append((t, np.array(h_prev)))
        return self._values[t]

    def backward(self, t, dx):
        self._grad[t] = dx
        return np.zeros(self.hidden_size)

    def grads(self):
        return (self._grad,)

    def check_finite(self):
        pass


def random_sequence(rng, steps, width, hidden):
    params = LstmParams.random(rng, width, hidden, bound=1.0)
    init = LstmState(h=Tensor(rng.normal(size=hidden)), c=Tensor(rng.normal(size=hidden)))
    return params, init, rng.normal(size=(steps, width))


def taped_sequence(run, params, init, xs, probe):
    """Run `run` on a fresh tape; return the hidden matrix, the terminal h
    and c, and the gradients of probe . [states; h_T; c_T] for the sixteen
    blocks, the input matrix, h0 and c0."""
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


class TestSequenceOp:
    def test_values_equal_stepped_cells(self):
        rng = np.random.default_rng(23)
        shapes = [(1, 1, 1), (1, 3, 2), (4, 1, 3), (4, 3, 1)]
        shapes += [tuple(int(v) for v in rng.integers(1, 9, size=3)) for _ in range(30)]
        for steps, width, hidden in shapes:
            params, init, xs = random_sequence(rng, steps, width, hidden)
            inputs = Tensor(xs)
            states, terminal = lstm_sequence(params, inputs, init)
            ref_states, ref_terminal = stepped_sequence(params, inputs, init)
            assert states.shape == (steps, hidden)
            npt.assert_array_equal(states.values, ref_states.values)
            npt.assert_array_equal(terminal.h.values, ref_terminal.h.values)
            npt.assert_array_equal(terminal.c.values, ref_terminal.c.values)

    def test_gradients_match_stepped_cells(self):
        rng = np.random.default_rng(24)
        shapes = [(1, 1, 1), (1, 4, 3), (5, 1, 2), (5, 2, 1)]
        shapes += [tuple(int(v) for v in rng.integers(1, 9, size=3)) for _ in range(30)]
        for steps, width, hidden in shapes:
            params, init, xs = random_sequence(rng, steps, width, hidden)
            probe = rng.normal(size=(steps + 2) * hidden)
            *values, grads = taped_sequence(lstm_sequence, params, init, xs, probe)
            *ref_values, ref_grads = taped_sequence(stepped_sequence, params, init, xs, probe)
            for value, ref in zip(values, ref_values):
                npt.assert_array_equal(value, ref)
            assert len(grads) == 16 + 3 and grads.keys() == ref_grads.keys()
            for name, grad in grads.items():
                assert grad.shape == ref_grads[name].shape, name
                assert rel_diff(grad, ref_grads[name]) <= 1e-12, (steps, width, hidden, name)

    def test_gradients_in_inputs_and_state_match_finite_differences(self):
        rng = np.random.default_rng(25)
        params, init, xs = random_sequence(rng, 5, 3, 4)
        probe = rng.normal(size=7 * 4)

        def program(tape, leaves):
            states, terminal = lstm_sequence(
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
            cell = pack(bind(params, tape))
            inputs = tape.leaf(xs)
            before = len(tape)
            lstm_sequence(cell, inputs, init)
            counts.append(len(tape) - before)
        # One op for the run, then views for the matrix (segment, reshape),
        # the terminal h and the terminal c.
        assert counts == [5, 5, 5, 5]

    def test_shape_errors(self):
        params = LstmParams.zeros(3, 2)
        with pytest.raises(DimensionError):
            lstm_sequence(params, Tensor(np.zeros((2, 4))), zero_state(2))
        with pytest.raises(DimensionError):
            lstm_sequence(params, Tensor(np.zeros(3)), zero_state(2))
        with pytest.raises(DimensionError):
            lstm_sequence(params, Tensor(np.zeros((1, 3))), zero_state(3))
        bi = BiLstmParams(forward=params, backward=params)
        with pytest.raises(DimensionError):
            bilstm_sequence(bi, 2, Tensor(np.zeros((1, 3))), zero_state(2), zero_state(2))

    def test_bilstm_matrix_matches_sweep(self):
        rng = np.random.default_rng(27)
        params = BiLstmParams.random(rng, 2, 3, bound=0.8)
        xs = rng.normal(size=(6, 2))
        probe = rng.normal(size=(6, 6))
        results = []
        for as_matrix in (True, False):
            tape = Tape()
            leaves = bind(params, tape)
            inputs = tape.leaf(xs)
            step_inputs = inputs if as_matrix else FixedSweep(inputs, 3)
            joined, (term_f, term_b) = bilstm_sequence(leaves, 6, step_inputs,
                                                       zero_state(3), zero_state(3))
            tape.backward(total(hadamard(joined, Tensor(probe))))
            grads = [tape.grad(leaf) for _name, leaf in named_leaves(leaves)]
            grads.append(tape.grad(inputs))
            results.append((joined.values, term_f.c.values, term_b.c.values, grads))
        (*values, grads), (*ref_values, ref_grads) = results
        for value, ref in zip(values, ref_values):
            npt.assert_array_equal(value, ref)
        for grad, ref in zip(grads, ref_grads):
            assert rel_diff(grad, ref) <= 1e-12


class TestSequences:
    def test_returns_one_state_per_step(self):
        rng = np.random.default_rng(13)
        params = LstmParams.random(rng, 3, 2, bound=0.5)
        inputs = Tensor(rng.normal(size=(5, 3)))
        states, terminal = lstm_sequence(params, inputs, zero_state(2))
        assert states.shape == (5, 2)
        npt.assert_array_equal(states.values[-1], terminal.h.values)

    def test_empty_sequence_rejected(self):
        with pytest.raises(DimensionError):
            lstm_sequence(LstmParams.zeros(2, 2), Tensor(np.zeros((0, 2))), zero_state(2))

    def test_sequence_matches_repeated_cell_steps(self):
        rng = np.random.default_rng(14)
        params = LstmParams.random(rng, 2, 3, bound=0.7)
        inputs = rng.normal(size=(4, 2))
        states, terminal = lstm_sequence(params, Tensor(inputs), zero_state(3))
        manual = zero_state(3)
        for step, x in enumerate(inputs):
            manual = lstm_cell_step(params, manual, Tensor(x))
            npt.assert_array_equal(states.values[step], manual.h.values)
        npt.assert_array_equal(terminal.c.values, manual.c.values)

    def test_bilstm_joins_directions_per_step(self):
        rng = np.random.default_rng(15)
        params = BiLstmParams(forward=LstmParams.random(rng, 2, 3, bound=0.5),
                              backward=LstmParams.random(rng, 2, 3, bound=0.5))
        inputs = rng.normal(size=(4, 2))
        joined, (term_f, term_b) = bilstm_sequence(params, 4, Tensor(inputs),
                                                   zero_state(3), zero_state(3))
        assert joined.shape == (4, 6)

        fwd_states, fwd_term = lstm_sequence(params.forward, Tensor(inputs), zero_state(3))
        bwd_states, bwd_term = lstm_sequence(params.backward, Tensor(inputs[::-1]),
                                             zero_state(3))
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
        inputs = rng.normal(size=(5, 2))
        joined, _ = bilstm_sequence(BiLstmParams(a, b), 5, Tensor(inputs),
                                    zero_state(3), zero_state(3))
        mirrored, _ = bilstm_sequence(BiLstmParams(b, a), 5, Tensor(inputs[::-1]),
                                      zero_state(3), zero_state(3))
        for t in range(5):
            fwd, bwd = np.split(joined.values[t], 2)
            m_fwd, m_bwd = np.split(mirrored.values[4 - t], 2)
            npt.assert_array_equal(fwd, m_bwd)
            npt.assert_array_equal(bwd, m_fwd)

    def test_bilstm_sweep_sees_previous_forward_state(self):
        rng = np.random.default_rng(18)
        params = BiLstmParams.random(rng, 2, 3, bound=0.5)
        inputs = rng.normal(size=(4, 2))
        init_forward = LstmState(Tensor(rng.normal(size=3)), Tensor(rng.normal(size=3)))
        seen = []
        joined, (term_f, _) = bilstm_sequence(params, 4, FixedSweep(Tensor(inputs), 3, seen),
                                              init_forward, zero_state(3))
        assert [t for t, _ in seen] == [0, 1, 2, 3]
        npt.assert_array_equal(seen[0][1], init_forward.h.values)
        for t in range(1, 4):
            npt.assert_array_equal(seen[t][1], joined.values[t - 1, :3])
        manual = init_forward
        for t in range(4):
            manual = lstm_cell_step(params.forward, manual, Tensor(inputs[t]))
        npt.assert_array_equal(term_f.h.values, manual.h.values)
        npt.assert_array_equal(term_f.c.values, manual.c.values)

    def test_bilstm_empty_sequence_rejected(self):
        params = BiLstmParams.random(np.random.default_rng(19), 2, 2, bound=0.5)
        with pytest.raises(DimensionError):
            bilstm_sequence(params, 0, Tensor(np.zeros((0, 2))),
                            zero_state(2), zero_state(2))
        with pytest.raises(DimensionError):
            bilstm_sequence(params, 0, FixedSweep(Tensor(np.zeros((0, 2))), 2),
                            zero_state(2), zero_state(2))

    def test_sequence_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        init = LstmParams.random(rng, 2, 3, bound=0.6)
        xs = rng.normal(size=(6, 2))

        def program(tape, leaves):
            params = LstmParams(**{name: leaves[name]
                                   for name, _ in named_leaves(init)})
            states, terminal = lstm_sequence(params, Tensor(xs), zero_state(3))
            return total(concat([reshape(states, (18,)), terminal.c]))

        report = check_gradients(program,
                                 dict(named_leaves(init)), tolerance=1e-5)
        assert report.passed, f"max rel error {report.max_rel_error:.3e}"


class TestFeedForwardHead:
    def test_hand_values(self):
        params = FeedForwardParams(hidden=np.array([[3.0]]), out=np.array([[2.0]]))
        out = feedforward_relu(params, Tensor(np.array([1.0])))
        npt.assert_array_equal(out.values, [6.0])
        # A negative preactivation is clamped to zero by the ReLU.
        negative = FeedForwardParams(hidden=np.array([[-3.0]]),
                                     out=np.array([[2.0]]))
        npt.assert_array_equal(
            feedforward_relu(negative, Tensor(np.array([1.0]))).values, [0.0])

    def test_gradients(self):
        rng = np.random.default_rng(18)
        init = FeedForwardParams.random(rng, 6, 4, 3, bound=0.8)
        stacked = rng.normal(size=6)

        def program(tape, leaves):
            params = FeedForwardParams(hidden=leaves["hidden"], out=leaves["out"])
            return total(feedforward_relu(params, Tensor(stacked)))

        report = check_gradients(program, {"hidden": init.hidden, "out": init.out},
                                 tolerance=1e-5)
        assert report.passed
