"""LSTM cell, directional sequence runs, and the linear-ReLU-linear head.

Gate weights follow the convention that the input and recurrent
contributions each carry their own bias, so a gate is
sigma(W_x x + b_x + W_h h + b_h); the cell therefore has sixteen parameter
blocks, and that is how parameters are stored, optimized and checkpointed.
For computing, `pack` lays the blocks of one direction out as a single
(4H, input + H) weight matrix over [x; h] with row blocks i, f, g, o, plus
one (4H,) bias holding each gate's two biases summed, so a cell step is one
matmul and one tape op with a hand-derived backward.

`lstm_sequence` runs one direction over a (steps, width) matrix of inputs
that are all known up front as a single tape op: the forward is a plain
loop of the same per-step arithmetic, and the backward walks the steps in
reverse only for the gate pre-activation gradients, then forms the weight,
bias and input gradients with one product over the whole sequence each.
`attended_sequence` is the same op for a direction whose step inputs an
attention sweep builds from the hidden state before each step: the sweep's
numpy forward runs inside the loop, and its backward runs inside the
reverse loop, turning each step's input gradient into a contribution to
the previous hidden state's.  `bilstm_sequence` is the one bidirectional
recurrence.  Given an input matrix it runs both directions with
`lstm_sequence`; given a sweep, it runs the forward direction with
`attended_sequence`, then the backward direction over the inputs the
sweep built, reversed, with `lstm_sequence`.  It returns the per-step
hidden states as a (steps, 2H) matrix with rows [forward; backward].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .tensor import (Tensor, _sigmoid_grad, _sigmoid_values, _tanh_grad, as_tensor,
                     fused_op, matmul, relu, reshape, segment)


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


def _check_shapes(cell, input_shape, h, c):
    width, hidden = cell.input_size, cell.hidden_size
    if input_shape != (width,):
        raise DimensionError(f"cell input shape {input_shape} does not match weights ({width},)")
    if h.shape != (hidden,) or c.shape != (hidden,):
        raise DimensionError(f"cell state shapes {h.shape}, {c.shape} do not match ({hidden},)")


def lstm_cell_step(params, prev, x):
    """One LSTM update: i, f, o gates, candidate g, cell mix, hidden output.

    `params` is a `PackedCell` or an `LstmParams`, which is packed first.
    The step is one tape op producing [h; c], plus a view for each half.
    """
    cell = pack(params)
    x, h_prev, c_prev = as_tensor(x), as_tensor(prev.h), as_tensor(prev.c)
    _check_shapes(cell, x.shape, h_prev, c_prev)
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


def _run(cell, z, c0, h_seq, sweep=None):
    """Step the cell over the rows of `z`, writing h_t into row t of `h_seq`.

    Row t of z is [x_t; h_{t-1}], the operand of step t's gate matmul; the
    caller fills row 0's h_0 and, without a sweep, every x_t.  With a
    sweep, x_t is `sweep.forward(t, h_{t-1})`.  The arithmetic is that of
    `lstm_cell_step`.  Returns the activations, c_0 .. c_T and tanh(c_t).
    """
    steps, hidden = h_seq.shape
    width = z.shape[1] - hidden
    w, bias = cell.weights.values, cell.bias.values
    cand_rows = slice(2 * hidden, 3 * hidden)
    act = np.empty((steps, 4 * hidden))
    c_seq = np.empty((steps + 1, hidden))
    c_seq[0] = c0
    tanh_c = np.empty((steps, hidden))
    for t in range(steps):
        if sweep is not None:
            z[t, :width] = sweep.forward(t, z[t, width:])
        pre = w @ z[t] + bias
        a = _sigmoid_values(pre)
        a[cand_rows] = np.tanh(pre[cand_rows])
        c = a[hidden:2 * hidden] * c_seq[t] + a[:hidden] * a[cand_rows]
        act[t], c_seq[t + 1], tanh_c[t] = a, c, np.tanh(c)
        h_seq[t] = a[3 * hidden:] * tanh_c[t]
        if t + 1 < steps:
            z[t + 1, width:] = h_seq[t]
    return act, c_seq, tanh_c


def _bptt(w, act, c_seq, tanh_c, grad_h, dc, sweep=None, grad_x=None):
    """Walk the steps of `_run` in reverse for the gate pre-activation
    gradients; returns them as a (steps, 4H) matrix with dh_0 and dc_0.

    With a sweep, step t's input gradient (the gate part plus `grad_x[t]`,
    what arrives on x_t from outside) goes through `sweep.backward`, whose
    result joins the recurrent gradient for h_{t-1}.
    """
    steps, hidden = grad_h.shape
    width = w.shape[1] - hidden
    w_h = w[:, width:]
    cand_rows = slice(2 * hidden, 3 * hidden)
    d_pre = np.empty((steps, 4 * hidden))
    dh_next = np.zeros(hidden)
    for t in range(steps - 1, -1, -1):
        a = act[t]
        i, f, cand, o = a[:hidden], a[hidden:2 * hidden], a[cand_rows], a[3 * hidden:]
        dh = grad_h[t] + dh_next
        dc = dc + _tanh_grad(tanh_c[t], dh * o)
        d_act = np.concatenate((dc * cand, dc * c_seq[t], dc * i, dh * tanh_c[t]))
        d_pre[t] = _sigmoid_grad(a, d_act)
        d_pre[t, cand_rows] = _tanh_grad(cand, d_act[cand_rows])
        if sweep is None:
            dh_next = d_pre[t] @ w_h
        else:
            dz = d_pre[t] @ w
            dh_next = dz[width:] + sweep.backward(t, dz[:width] + grad_x[t])
        dc = dc * f
    return d_pre, dh_next, dc


def _state_views(joined, steps, hidden):
    """The (steps, H) hidden matrix and the terminal state of a run whose
    output starts [h_1 .. h_T; c_T]."""
    end = steps * hidden
    states = reshape(segment(joined, 0, end), (steps, hidden))
    return states, LstmState(segment(joined, end - hidden, end),
                             segment(joined, end, end + hidden))


def lstm_sequence(params, inputs, init):
    """Run one direction over the rows of the (steps, width) matrix
    `inputs` from `init`; returns the hidden states as a (steps, H) matrix
    and the terminal state.

    One tape op computes [h_1 .. h_T; c_T] with the arithmetic of
    `lstm_cell_step`; the matrix and the terminal h and c are views of it.
    """
    cell = pack(params)
    inputs, h0, c0 = as_tensor(inputs), as_tensor(init.h), as_tensor(init.c)
    if inputs.values.ndim != 2 or inputs.shape[0] < 1:
        raise DimensionError(f"cannot encode {inputs.shape} as a nonempty (steps, width) matrix")
    _check_shapes(cell, inputs.shape[1:], h0, c0)
    steps, width = inputs.shape
    hidden = cell.hidden_size
    end = steps * hidden
    w = cell.weights.values
    z = np.empty((steps, width + hidden))
    z[:, :width] = inputs.values
    z[0, width:] = h0.values
    out = np.empty(end + hidden)
    act, c_seq, tanh_c = _run(cell, z, c0.values, out[:end].reshape(steps, hidden))
    out[end:] = c_seq[steps]

    def rule(grad):
        d_pre, dh0, dc0 = _bptt(w, act, c_seq, tanh_c, grad[:end].reshape(steps, hidden),
                                grad[end:])
        return d_pre.T @ z, d_pre.sum(axis=0), d_pre @ w[:, :width], dh0, dc0

    joined = fused_op(out, (cell.weights, cell.bias, inputs, h0, c0), rule)
    return _state_views(joined, steps, hidden)


def attended_sequence(params, steps, sweep, init):
    """Run one direction whose step inputs an attention sweep builds from
    the hidden state before each step (see `attention.FeatureSweep` and
    `attention.TemporalSweep`).

    One tape op computes [h_1 .. h_T; c_T; x_1 .. x_T] with the arithmetic
    of `lstm_cell_step` and of the sweep's attention; its operands are the
    cell, `init` and the sweep's operands.  Returns the (steps, H) hidden
    matrix, the (steps, width) matrix of step inputs and the terminal
    state, all views of that op.  Non-finite attention intermediates raise
    `EvaluationError`, checked once after the run.
    """
    if steps < 1:
        raise DimensionError("cannot encode an empty sequence")
    cell = pack(params)
    h0, c0 = as_tensor(init.h), as_tensor(init.c)
    _check_shapes(cell, (sweep.width,), h0, c0)
    hidden, width = cell.hidden_size, cell.input_size
    if (sweep.steps, sweep.hidden_size) != (steps, hidden):
        raise DimensionError(f"sweep of {sweep.steps} steps over hidden width "
                             f"{sweep.hidden_size} does not fit {steps} x {hidden}")
    # The backward rule keeps the sweep, so the sweep must not keep the taped
    # operands: through them it would keep the tape in a reference cycle.
    operands, sweep.operands = sweep.operands, ()
    end = steps * hidden
    w = cell.weights.values
    z = np.empty((steps, width + hidden))
    z[0, width:] = h0.values
    out = np.empty(end + hidden + steps * width)
    act, c_seq, tanh_c = _run(cell, z, c0.values, out[:end].reshape(steps, hidden), sweep)
    out[end:end + hidden] = c_seq[steps]
    out[end + hidden:] = z[:, :width].reshape(-1)
    sweep.check_finite()

    def rule(grad):
        d_pre, dh0, dc0 = _bptt(w, act, c_seq, tanh_c, grad[:end].reshape(steps, hidden),
                                grad[end:end + hidden], sweep,
                                grad[end + hidden:].reshape(steps, width))
        return (d_pre.T @ z, d_pre.sum(axis=0), dh0, dc0, *sweep.grads())

    joined = fused_op(out, (cell.weights, cell.bias, h0, c0, *operands), rule)
    states, terminal = _state_views(joined, steps, hidden)
    inputs = reshape(segment(joined, end + hidden, out.size), (steps, width))
    return states, inputs, terminal


def bilstm_sequence(params, steps, inputs, init_forward, init_backward):
    """Run a sequence of `steps` inputs in both directions.

    `inputs` is either the (steps, width) matrix of step inputs, and then
    the forward direction is one `lstm_sequence`, or an attention sweep,
    and then the forward direction is one `attended_sequence` whose inputs
    depend on the forward state before each step.  The backward direction
    consumes the same inputs in reverse from `init_backward` as one
    `lstm_sequence`.  Returns the (steps, 2H) matrix whose row t is
    [forward h_t; backward h_t], and each direction's own terminal state
    (the backward terminal is the state after consuming the first input).
    """
    if steps < 1:
        raise DimensionError("cannot encode an empty sequence")
    if isinstance(inputs, (Tensor, np.ndarray)):
        inputs = as_tensor(inputs)
        if inputs.shape[:1] != (steps,):
            raise DimensionError(f"got step inputs of shape {inputs.shape} for {steps} steps")
        forward, state = lstm_sequence(params.forward, inputs, init_forward)
    else:
        forward, inputs, state = attended_sequence(params.forward, steps, inputs, init_forward)
    reversed_inputs = fused_op(inputs.values[::-1], (inputs,), lambda g: (g[::-1],))
    backward, terminal_backward = lstm_sequence(params.backward, reversed_inputs, init_backward)
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
