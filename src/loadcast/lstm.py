"""LSTM cell, directional sequence runs, and the linear-ReLU-linear head.

Gate weights follow the convention that the input and recurrent
contributions each carry their own bias, so a gate is
sigma(W_x x + b_x + W_h h + b_h); the cell therefore has sixteen parameter
blocks, and that is how parameters are stored, optimized and checkpointed.
For computing, `pack` lays the blocks of one direction out as a single
(4H, input + H) weight matrix over [x; h] with row blocks i, f, g, o, plus
one (4H,) bias holding each gate's two biases summed, so a cell step is one
matmul and one tape op with a hand-derived backward.

`lstm_sequence` runs one direction over inputs that are all known up front
as a single tape op: the forward is a plain loop of the same per-step
arithmetic, and the backward walks the steps in reverse only for the gate
pre-activation gradients, then forms the weight, bias and input gradients
with one product over the whole sequence each.  `bilstm_sequence` is the
one bidirectional recurrence.  Given a list of inputs it runs both
directions that way; given a builder, it builds each forward step's input
from the forward state before that step (which is where attention goes)
and steps the cell, then runs the backward direction over the same inputs
reversed as one sequence op.  It returns the per-step hidden states as a
(steps, 2H) matrix with rows [forward; backward].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .tensor import (Tensor, _sigmoid_grad, _sigmoid_values, _tanh_grad, as_tensor,
                     concat, fused_op, matmul, relu, reshape, segment)


@dataclass
class LstmParams:
    """Parameters for one LSTM direction.

    Blocks are named by gate (i, f, g, o) and source (x for input, h for
    recurrent): w_?x is (hidden, input), w_?h is (hidden, hidden), and the
    two bias vectors b_?x, b_?h are kept distinct.
    """

    w_ix: np.ndarray
    w_fx: np.ndarray
    w_gx: np.ndarray
    w_ox: np.ndarray
    w_ih: np.ndarray
    w_fh: np.ndarray
    w_gh: np.ndarray
    w_oh: np.ndarray
    b_ix: np.ndarray
    b_fx: np.ndarray
    b_gx: np.ndarray
    b_ox: np.ndarray
    b_ih: np.ndarray
    b_fh: np.ndarray
    b_gh: np.ndarray
    b_oh: np.ndarray

    @property
    def hidden_size(self):
        return self.w_ix.shape[0]

    @property
    def input_size(self):
        return self.w_ix.shape[1]

    @classmethod
    def random(cls, rng, input_size, hidden_size, bound):
        def w_x():
            return rng.uniform(-bound, bound, (hidden_size, input_size))

        def w_h():
            return rng.uniform(-bound, bound, (hidden_size, hidden_size))

        def b():
            return rng.uniform(-bound, bound, hidden_size)

        return cls(w_ix=w_x(), w_fx=w_x(), w_gx=w_x(), w_ox=w_x(),
                   w_ih=w_h(), w_fh=w_h(), w_gh=w_h(), w_oh=w_h(),
                   b_ix=b(), b_fx=b(), b_gx=b(), b_ox=b(),
                   b_ih=b(), b_fh=b(), b_gh=b(), b_oh=b())

    @classmethod
    def zeros(cls, input_size, hidden_size):
        def w_x():
            return np.zeros((hidden_size, input_size))

        def w_h():
            return np.zeros((hidden_size, hidden_size))

        def b():
            return np.zeros(hidden_size)

        return cls(w_ix=w_x(), w_fx=w_x(), w_gx=w_x(), w_ox=w_x(),
                   w_ih=w_h(), w_fh=w_h(), w_gh=w_h(), w_oh=w_h(),
                   b_ix=b(), b_fx=b(), b_gx=b(), b_ox=b(),
                   b_ih=b(), b_fh=b(), b_gh=b(), b_oh=b())


@dataclass
class BiLstmParams:
    """One cell per direction."""

    forward: LstmParams
    backward: LstmParams

    @property
    def hidden_size(self):
        return self.forward.hidden_size

    @classmethod
    def random(cls, rng, input_size, hidden_size, bound):
        return cls(forward=LstmParams.random(rng, input_size, hidden_size, bound),
                   backward=LstmParams.random(rng, input_size, hidden_size, bound))


@dataclass
class LstmState:
    """Hidden and cell vectors carried between steps."""

    h: Tensor
    c: Tensor


def zero_state(hidden_size):
    return LstmState(Tensor(np.zeros(hidden_size)), Tensor(np.zeros(hidden_size)))


GATES = ("i", "f", "g", "o")


@dataclass
class PackedCell:
    """One direction's gates as a single affine map of [x; h].

    `weights` is (4H, input + H): row blocks i, f, g, o, columns [input |
    recurrent].  `bias` is (4H,), each gate's input and recurrent biases
    summed.
    """

    weights: Tensor
    bias: Tensor

    @property
    def hidden_size(self):
        return self.bias.shape[0] // 4

    @property
    def input_size(self):
        return self.weights.shape[1] - self.hidden_size


def pack(params):
    """Pack the sixteen blocks of `params` into a `PackedCell`.

    Taped blocks give one tape node for the weights and one for the bias;
    their gradients are sliced back into the named blocks.  A cell that is
    already packed is returned as it is.
    """
    if isinstance(params, PackedCell):
        return params
    hidden, width = params.hidden_size, params.input_size
    w_x = [as_tensor(getattr(params, f"w_{gate}x")) for gate in GATES]
    w_h = [as_tensor(getattr(params, f"w_{gate}h")) for gate in GATES]
    b_x = [as_tensor(getattr(params, f"b_{gate}x")) for gate in GATES]
    b_h = [as_tensor(getattr(params, f"b_{gate}h")) for gate in GATES]
    for blocks, shape in ((w_x, (hidden, width)), (w_h, (hidden, hidden)),
                          (b_x, (hidden,)), (b_h, (hidden,))):
        for block in blocks:
            if block.shape != shape:
                raise DimensionError(f"lstm block shape {block.shape} is not {shape}")
    rows = [slice(k * hidden, (k + 1) * hidden) for k in range(4)]

    weights = np.empty((4 * hidden, width + hidden))
    for k in range(4):
        weights[rows[k], :width] = w_x[k].values
        weights[rows[k], width:] = w_h[k].values

    def weight_rule(g):
        return tuple(part for k in range(4)
                     for part in (g[rows[k], :width], g[rows[k], width:]))

    bias = np.concatenate([bx.values + bh.values for bx, bh in zip(b_x, b_h)])

    def bias_rule(g):
        # The two biases of a gate get equal gradients, as distinct arrays.
        return tuple(part for k in range(4) for part in (g[rows[k]], g[rows[k]].copy()))

    return PackedCell(
        weights=fused_op(weights, [w for pair in zip(w_x, w_h) for w in pair], weight_rule),
        bias=fused_op(bias, [b for pair in zip(b_x, b_h) for b in pair], bias_rule))


def _check_shapes(cell, inputs, h, c):
    width, hidden = cell.input_size, cell.hidden_size
    for x in inputs:
        if x.shape != (width,):
            raise DimensionError(f"cell input shape {x.shape} does not match weights ({width},)")
    if h.shape != (hidden,) or c.shape != (hidden,):
        raise DimensionError(f"cell state shapes {h.shape}, {c.shape} do not match ({hidden},)")


def lstm_cell_step(params, prev, x):
    """One LSTM update: i, f, o gates, candidate g, cell mix, hidden output.

    `params` is a `PackedCell` or an `LstmParams`, which is packed first.
    The step is one tape op producing [h; c], plus a view for each half.
    """
    cell = pack(params)
    x, h_prev, c_prev = as_tensor(x), as_tensor(prev.h), as_tensor(prev.c)
    _check_shapes(cell, [x], h_prev, c_prev)
    hidden, width = cell.hidden_size, cell.input_size
    w = cell.weights.values
    z = np.concatenate((x.values, h_prev.values))
    cand_rows = slice(2 * hidden, 3 * hidden)
    pre = w @ z + cell.bias.values
    act = _sigmoid_values(pre)
    act[cand_rows] = np.tanh(pre[cand_rows])
    i, f, cand, o = act[:hidden], act[hidden:2 * hidden], act[cand_rows], act[3 * hidden:]
    c_prev_values = c_prev.values
    c = f * c_prev_values + i * cand
    tanh_c = np.tanh(c)

    def rule(grad):
        dh = grad[:hidden]
        dc = grad[hidden:] + _tanh_grad(tanh_c, dh * o)
        d_act = np.concatenate((dc * cand, dc * c_prev_values, dc * i, dh * tanh_c))
        d_pre = _sigmoid_grad(act, d_act)
        d_pre[cand_rows] = _tanh_grad(cand, d_act[cand_rows])
        dz = d_pre @ w
        return np.outer(d_pre, z), d_pre, dz[:width], dz[width:], dc * f

    joined = fused_op(np.concatenate((o * tanh_c, c)),
                      (cell.weights, cell.bias, x, h_prev, c_prev), rule)
    return LstmState(segment(joined, 0, hidden), segment(joined, hidden, 2 * hidden))


def lstm_sequence(params, inputs, init):
    """Run one direction over `inputs` from `init`; returns the hidden
    states as a (steps, H) matrix and the terminal state.

    One tape op computes [h_1 .. h_T; c_T] with the arithmetic of
    `lstm_cell_step`; the matrix and the terminal h and c are views of it.
    """
    if not inputs:
        raise DimensionError("cannot encode an empty sequence")
    cell = pack(params)
    xs = [as_tensor(x) for x in inputs]
    h0, c0 = as_tensor(init.h), as_tensor(init.c)
    _check_shapes(cell, xs, h0, c0)
    hidden, width, steps = cell.hidden_size, cell.input_size, len(xs)
    end = steps * hidden
    w, bias = cell.weights.values, cell.bias.values
    cand_rows = slice(2 * hidden, 3 * hidden)
    # Row t of z is [x_t; h_{t-1}], the operand of step t's gate matmul.
    z = np.empty((steps, width + hidden))
    z[:, :width] = [x.values for x in xs]
    z[0, width:] = h0.values
    act = np.empty((steps, 4 * hidden))
    c_seq = np.empty((steps + 1, hidden))
    c_seq[0] = c0.values
    tanh_c = np.empty((steps, hidden))
    out = np.empty(end + hidden)
    h_seq = out[:end].reshape(steps, hidden)
    for t in range(steps):
        pre = w @ z[t] + bias
        a = _sigmoid_values(pre)
        a[cand_rows] = np.tanh(pre[cand_rows])
        c = a[hidden:2 * hidden] * c_seq[t] + a[:hidden] * a[cand_rows]
        act[t], c_seq[t + 1], tanh_c[t] = a, c, np.tanh(c)
        h_seq[t] = a[3 * hidden:] * tanh_c[t]
        if t + 1 < steps:
            z[t + 1, width:] = h_seq[t]
    out[end:] = c_seq[steps]

    def rule(grad):
        grad_h = grad[:end].reshape(steps, hidden)
        w_h = w[:, width:]
        d_pre = np.empty((steps, 4 * hidden))
        dh_next = np.zeros(hidden)
        dc = grad[end:]
        for t in range(steps - 1, -1, -1):
            a = act[t]
            i, f, cand, o = a[:hidden], a[hidden:2 * hidden], a[cand_rows], a[3 * hidden:]
            dh = grad_h[t] + dh_next
            dc = dc + _tanh_grad(tanh_c[t], dh * o)
            d_act = np.concatenate((dc * cand, dc * c_seq[t], dc * i, dh * tanh_c[t]))
            d_pre[t] = _sigmoid_grad(a, d_act)
            d_pre[t, cand_rows] = _tanh_grad(cand, d_act[cand_rows])
            dh_next = d_pre[t] @ w_h
            dc = dc * f
        d_x = d_pre @ w[:, :width]
        return (d_pre.T @ z, d_pre.sum(axis=0), *d_x, dh_next, dc)

    joined = fused_op(out, (cell.weights, cell.bias, *xs, h0, c0), rule)
    states = reshape(segment(joined, 0, end), (steps, hidden))
    return states, LstmState(segment(joined, end - hidden, end),
                             segment(joined, end, end + hidden))


def bilstm_sequence(params, steps, step_input, init_forward, init_backward):
    """Run a sequence of `steps` inputs in both directions.

    `step_input` is either the list of step inputs or a builder
    `step_input(t, state)`, where `state` is the forward state before step
    t (`init_forward` at t = 0), so inputs can depend on the forward
    recurrence (attention does).  A list runs the forward direction as one
    `lstm_sequence`; a builder steps the forward cell one input at a time.
    The backward direction then consumes the same inputs in reverse from
    `init_backward` as one `lstm_sequence`.  Returns the (steps, 2H) matrix
    whose row t is [forward h_t; backward h_t], and each direction's own
    terminal state (the backward terminal is the state after consuming the
    first input).
    """
    if steps < 1:
        raise DimensionError("cannot encode an empty sequence")
    if callable(step_input):
        cell = pack(params.forward)
        inputs, forward_h = [], []
        state = init_forward
        for t in range(steps):
            x = step_input(t, state)
            state = lstm_cell_step(cell, state, x)
            inputs.append(x)
            forward_h.append(state.h)
        forward = reshape(concat(forward_h), (steps, state.h.shape[0]))
    else:
        inputs = list(step_input)
        if len(inputs) != steps:
            raise DimensionError(f"got {len(inputs)} step inputs for {steps} steps")
        forward, state = lstm_sequence(params.forward, inputs, init_forward)
    backward, terminal_backward = lstm_sequence(params.backward, inputs[::-1], init_backward)
    hidden = backward.shape[1]
    joined = fused_op(np.concatenate((forward.values, backward.values[::-1]), axis=1),
                      (forward, backward), lambda g: (g[:, :hidden], g[::-1, hidden:]))
    return joined, (state, terminal_backward)


@dataclass
class FeedForwardParams:
    """Output head: `hidden` projects the stacked states, `out` maps the
    rectified projection to the forecast vector."""

    hidden: np.ndarray
    out: np.ndarray

    @classmethod
    def random(cls, rng, input_width, head_size, output_width, bound):
        return cls(hidden=rng.uniform(-bound, bound, (head_size, input_width)),
                   out=rng.uniform(-bound, bound, (output_width, head_size)))


def feedforward_relu(params, stacked):
    """Linear, ReLU, linear projection of the stacked decoder states."""
    stacked = as_tensor(stacked)
    width = params.hidden.shape[1]
    if stacked.shape != (width,):
        raise DimensionError(f"head input shape {stacked.shape} does not match weights ({width},)")
    return matmul(params.out, relu(matmul(params.hidden, stacked)))
