"""LSTM cell, directional sequence runs, and the linear-ReLU-linear head.

A direction's gates are stored the way the cell computes them: one
(4H, input + H) weight matrix over [x; h] with row blocks i, f, g, o, and
two (4H,) biases, `b_x` for the input contribution and `b_h` for the
recurrent one, so a gate is sigma(W_x x + b_x + W_h h + b_h).  Those three
arrays are what is optimized and checkpointed.  Each op adds the two
biases once and returns the bias gradient to both, so a cell step is one
matmul and one tape op with a hand-derived backward.

The four gates are one tanh: with sigma(x) = 1/2 + tanh(x/2)/2, the
weights and summed bias are scaled once per run by 1/2 on the i, f and o
rows and 1 on the g rows (exact, as halving is), and each step maps its
pre-activations as tanh, times that scale, plus 1/2 on the i, f and o rows
(`_gate_form`, `_activate`).  The activations are the same gate values to
rounding, so the backward passes, which read only them, are unchanged.

The sequence runs carry a window axis: a batch of B windows runs as one
recurrence whose step arrays hold one column per window, inputs
(steps, width, B) and states (H, B), so a step's gate product is one
matmul whatever B is, and a single window is B = 1.
`lstm_sequence` runs one direction over inputs that are all known up front
as a single tape op: each step's gate pre-activations are one product of
the packed weights with [x_t; h_{t-1}], with the per-column arithmetic of
the cell step, and the backward walks the steps in reverse only for the
gate pre-activation gradients, then forms the weight, bias and input
gradients with one product over every step of every window each.
`attended_sequence` is the same op for a direction whose step inputs an
attention sweep builds from the hidden state before each step: the
sweep's numpy forward runs inside the loop and writes the step's input in
place into the run's [x_t; h_{t-1}] scratch, and its backward runs inside
the reverse loop, turning each step's input gradient into a contribution
to the previous hidden state's.  A run none of whose operands is taped
has no backward, so it keeps only what the next step reads: the latest
step's gate activations and cell state, and of the sweep's store only
the attention weights.
`bilstm_sequence` is the one bidirectional recurrence.  Given an input
array it runs both directions with `lstm_sequence`; given a sweep, it runs
the forward direction with `attended_sequence`, then the backward direction
over the inputs the sweep built, reversed, with `lstm_sequence`.  It
returns the per-step hidden states as a (steps, 2H, B) array whose step t
is [forward; backward].  `lstm_cell_step` stays the one-window single-step
API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .tensor import (Tensor, _sigmoid_grad, _tanh_grad, as_tensor, fused_op, matmul, relu,
                     segment)


@dataclass
class LstmParams:
    """Parameters for one LSTM direction.

    `weights` is (4H, input + H): row blocks i, f, g, o, columns [input |
    recurrent].  `b_x` and `b_h` are the (4H,) input and recurrent biases,
    row blocks i, f, g, o; they are kept distinct.
    """

    weights: np.ndarray
    b_x: np.ndarray
    b_h: np.ndarray

    @property
    def hidden_size(self):
        return self.b_x.shape[0] // 4

    @property
    def input_size(self):
        return self.weights.shape[1] - self.hidden_size

    @classmethod
    def random(cls, rng, input_size, hidden_size, bound):
        rows = 4 * hidden_size
        return cls(weights=rng.uniform(-bound, bound, (rows, input_size + hidden_size)),
                   b_x=rng.uniform(-bound, bound, rows),
                   b_h=rng.uniform(-bound, bound, rows))

    @classmethod
    def zeros(cls, input_size, hidden_size):
        rows = 4 * hidden_size
        return cls(weights=np.zeros((rows, input_size + hidden_size)),
                   b_x=np.zeros(rows), b_h=np.zeros(rows))


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


def zero_state(hidden_size, windows=None):
    """A zero state: (H,) vectors for one cell step, or (H, windows)
    columns for a sequence run."""
    shape = (hidden_size,) if windows is None else (hidden_size, windows)
    return LstmState(Tensor(np.zeros(shape)), Tensor(np.zeros(shape)))


def _cell(params):
    """The weights, b_x and b_h of `params` as tensors, checked to be
    (4H, input + H), (4H,) and (4H,)."""
    weights, b_x, b_h = as_tensor(params.weights), as_tensor(params.b_x), as_tensor(params.b_h)
    rows = b_x.shape[0] if len(b_x.shape) == 1 else 0
    if (rows < 4 or rows % 4 or b_h.shape != b_x.shape or len(weights.shape) != 2
            or weights.shape[0] != rows or weights.shape[1] <= rows // 4):
        raise DimensionError(f"lstm blocks {weights.shape}, {b_x.shape}, {b_h.shape} are not "
                             f"(4H, input + H), (4H,), (4H,)")
    return weights, b_x, b_h


def _check_shapes(params, input_shape, h, c):
    width, hidden = params.input_size, params.hidden_size
    if input_shape != (width,):
        raise DimensionError(f"cell input shape {input_shape} does not match weights ({width},)")
    if h.shape != (hidden,) or c.shape != (hidden,):
        raise DimensionError(f"cell state shapes {h.shape}, {c.shape} do not match ({hidden},)")


def lstm_cell_step(params, prev, x):
    """One LSTM update: i, f, o gates, candidate g, cell mix, hidden output.

    The step is one tape op producing [h; c], plus a view for each half.
    """
    weights, b_x, b_h = _cell(params)
    x, h_prev, c_prev = as_tensor(x), as_tensor(prev.h), as_tensor(prev.c)
    _check_shapes(params, x.shape, h_prev, c_prev)
    hidden, width = params.hidden_size, params.input_size
    w = weights.values
    z = np.concatenate((x.values, h_prev.values))
    cand_rows = slice(2 * hidden, 3 * hidden)
    scale, shift = _gate_form(hidden)
    pre = (w * scale[:, np.newaxis]) @ z + (b_x.values + b_h.values) * scale
    act = _activate(pre, scale, shift, pre)
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
        return np.outer(d_pre, z), d_pre, d_pre.copy(), dz[:width], dz[width:], dc * f

    joined = fused_op(np.concatenate((o * tanh_c, c)),
                      (weights, b_x, b_h, x, h_prev, c_prev), rule)
    return LstmState(segment(joined, 0, hidden), segment(joined, hidden, 2 * hidden))


def _gate_form(hidden):
    """The (4H,) row factors of the one-tanh gate form, (scale, shift):
    (1/2, 1/2) on the i, f and o rows and (1, 0) on the g rows.

    With weights and summed bias multiplied by `scale`, the pre-activations
    are x/2 on the sigmoid rows and x on the g rows, and `_activate` maps
    them through sigma(x) = 1/2 + tanh(x/2)/2 and tanh(x) in one pass.
    Halving is exact, so the scaled pre-activations are exactly half of
    the unscaled ones.
    """
    scale = np.full(4 * hidden, 0.5)
    scale[2 * hidden:3 * hidden] = 1.0
    return scale, 1.0 - scale


def _activate(pre, scale, shift, out):
    """The four gate activations from pre-activations already scaled by
    `scale`: tanh into `out`, times `scale`, plus `shift`."""
    np.tanh(pre, out=out)
    out *= scale
    out += shift
    return out


def _run(w, bias, z, c0, sweep=None, history=True):
    """Step the cell with weights `w` and summed bias `bias` over `z`,
    writing h_t into `z[t + 1]`.

    `z` is (steps + 1, input + H, B), and `z[t]` is the matrix [x_t;
    h_{t-1}] of step t, one column per window, whose gate pre-activations
    are one product with `w`; the caller fills h_0 and, without a sweep,
    every x_t.  With a sweep, `sweep.forward(t, h_{t-1}, z[t, :input])`
    writes x_t in place.  The weights and bias are scaled once per run by
    `_gate_form`, so each step's four gates are one tanh; the per-column
    arithmetic is that of `lstm_cell_step`.  Returns the activations and
    the cell states: with `history`, all (steps, 4H, B) activations and
    c_0 .. c_T, which `_bptt` reads; without, one activation slot and two
    cell slots, reused as the steps go.  Either way c_T is
    `c[steps % len(c)]`.
    """
    steps = z.shape[0] - 1
    hidden, windows = c0.shape
    width = z.shape[1] - hidden
    scale, shift = _gate_form(hidden)
    w = w * scale[:, np.newaxis]
    bias = (bias * scale)[:, np.newaxis]
    scale, shift = scale[:, np.newaxis], shift[:, np.newaxis]
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


def _rows(a):
    """The (steps, n, B) array `a` as (steps * B, n) rows, one per step and
    window, step-major: a copy unless B is 1."""
    return np.ascontiguousarray(a.transpose(0, 2, 1)).reshape(-1, a.shape[1])


def _bptt(w, act, c_seq, grad_h, dc, sweep=None, grad_x=None):
    """Walk the steps of `_run` in reverse for the gate pre-activation
    gradients; returns them as (steps * B, 4H) rows, step-major, with dh_0
    and dc_0.

    The walk keeps one row per window, so every per-step array is
    contiguous.  With a sweep, step t's input gradient (the gate part plus
    `grad_x[t]`, what arrives on x_t from outside) goes through
    `sweep.backward`, whose result joins the recurrent gradient for
    h_{t-1}.
    """
    steps, hidden, windows = grad_h.shape
    width = w.shape[1] - hidden
    if sweep is None:
        w = np.ascontiguousarray(w[:, width:])
    i, f, cand, o = (act[:, k * hidden:(k + 1) * hidden] for k in range(4))
    tanh_c = np.tanh(c_seq[1:])
    # Everything but dh and dc, for all steps at once: d_pre starts as each
    # gate's slope times the other factor of its product, so step t only
    # scales it by dc (the i, f and g gates) or dh (the o gate).
    d_pre = np.empty((steps, windows, 4 * hidden))
    np.subtract(1.0, act.transpose(0, 2, 1), out=d_pre)
    d_pre *= act.transpose(0, 2, 1)
    gates = d_pre.reshape(steps, windows, 4, hidden)
    np.subtract(1.0, np.square(cand.transpose(0, 2, 1)), out=gates[:, :, 2])
    for k, factor in enumerate((cand, c_seq[:-1], i, tanh_c)):
        gates[:, :, k] *= factor.transpose(0, 2, 1)
    o_slope = _rows(_tanh_grad(tanh_c, o)).reshape(steps, windows, hidden)
    f = _rows(f).reshape(steps, windows, hidden)
    grad_h = _rows(grad_h).reshape(steps, windows, hidden)
    if sweep is not None:
        grad_x = _rows(grad_x).reshape(steps, windows, width)
    dc = np.ascontiguousarray(dc.T)
    dh_next = np.zeros((windows, hidden))
    for t in range(steps - 1, -1, -1):
        dh = grad_h[t] + dh_next
        dc = dc + dh * o_slope[t]
        gates[t, :, :3] *= dc[:, np.newaxis]
        gates[t, :, 3] *= dh
        if sweep is None:
            dh_next = d_pre[t] @ w
        else:
            dz = d_pre[t] @ w
            dh_next = dz[:, width:] + sweep.backward(t, (dz[:, :width] + grad_x[t]).T).T
        dc = dc * f[t]
    return d_pre.reshape(steps * windows, 4 * hidden), dh_next.T, dc.T


def _state_views(joined, steps, hidden, windows):
    """The (steps, H, B) hidden states and the terminal state of a run
    whose flat output starts [h_1 .. h_T; c_T]."""
    end = steps * hidden * windows
    block = hidden * windows
    return (segment(joined, 0, end, (steps, hidden, windows)),
            LstmState(segment(joined, end - block, end, (hidden, windows)),
                      segment(joined, end, end + block, (hidden, windows))))


def _check_run(params, steps, width, windows, h0, c0):
    if steps < 1:
        raise DimensionError("cannot encode an empty sequence")
    if width != params.input_size:
        raise DimensionError(f"step input width {width} does not match weights "
                             f"({params.input_size},)")
    state = (params.hidden_size, windows)
    if h0.shape != state or c0.shape != state:
        raise DimensionError(f"initial state shapes {h0.shape}, {c0.shape} do not match {state}")


def _taped(tensors):
    return any(t.tape is not None for t in tensors)


def _joined(parts):
    """The arrays `parts`, each flattened, one after another in one new
    array: one copy of each."""
    out = np.empty(sum(part.size for part in parts))
    start = 0
    for part in parts:
        out[start:start + part.size].reshape(part.shape)[...] = part
        start += part.size
    return out


def _operands(h0, steps, width):
    """Scratch for `_run`: (steps + 1, width + H, B), with h_0 filled in."""
    hidden, windows = h0.shape
    z = np.empty((steps + 1, width + hidden, windows))
    z[0, width:] = h0
    return z


def lstm_sequence(params, inputs, init):
    """Run one direction over the (steps, width, B) array `inputs`, column b
    of every step being window b's input, from the (H, B) state `init`;
    returns the hidden states as a (steps, H, B) array and the terminal
    state.

    One tape op computes [h_1 .. h_T; c_T] with the arithmetic of
    `lstm_cell_step` per column; the states and the terminal h and c are
    views of it.
    """
    weights, b_x, b_h = _cell(params)
    inputs, h0, c0 = as_tensor(inputs), as_tensor(init.h), as_tensor(init.c)
    if inputs.values.ndim != 3:
        raise DimensionError(f"cannot encode {inputs.shape} as (steps, width, windows) inputs")
    steps, width, windows = inputs.shape
    _check_run(params, steps, width, windows, h0, c0)
    hidden = params.hidden_size
    end = steps * hidden * windows
    w = weights.values
    z = _operands(h0.values, steps, width)
    z[:steps, :width] = inputs.values
    operands = (weights, b_x, b_h, inputs, h0, c0)
    act, c_seq = _run(w, b_x.values + b_h.values, z, c0.values, history=_taped(operands))
    out = _joined((z[1:, width:], c_seq[steps % len(c_seq)]))

    def rule(grad):
        d_pre, dh0, dc0 = _bptt(w, act, c_seq, grad[:end].reshape(steps, hidden, windows),
                                grad[end:].reshape(hidden, windows))
        d_inputs = (d_pre @ w[:, :width]).reshape(steps, windows, width).transpose(0, 2, 1)
        d_bias = d_pre.sum(axis=0)
        return d_pre.T @ _rows(z[:steps]), d_bias, d_bias.copy(), d_inputs, dh0, dc0

    joined = fused_op(out, operands, rule)
    return _state_views(joined, steps, hidden, windows)


def attended_sequence(params, sweep, init):
    """Run one direction whose step inputs an attention sweep builds from
    the hidden state before each step (see `attention.FeatureSweep` and
    `attention.TemporalSweep`), over the sweep's steps and B windows from
    the (H, B) state `init`.

    One tape op computes [h_1 .. h_T; c_T; x_1 .. x_T] with the arithmetic
    of `lstm_cell_step` and of the sweep's attention per column; its
    operands are the weights, both biases, `init` and the sweep's
    operands.  Returns the (steps, H, B) hidden states, the (steps, width,
    B) step inputs and the terminal state, all views of that op.
    Non-finite attention intermediates raise `EvaluationError`, checked
    once after the run; an untaped run then drops the sweep's store except
    its `weights`.
    """
    weights, b_x, b_h = _cell(params)
    h0, c0 = as_tensor(init.h), as_tensor(init.c)
    steps, windows = sweep.steps, sweep.windows
    _check_run(params, steps, sweep.width, windows, h0, c0)
    hidden, width = params.hidden_size, params.input_size
    if sweep.hidden_size != hidden:
        raise DimensionError(f"sweep over hidden width {sweep.hidden_size} does not fit "
                             f"hidden width {hidden}")
    # The backward rule keeps the sweep, so the sweep must not keep the taped
    # operands: through them it would keep the tape in a reference cycle.
    operands = (weights, b_x, b_h, h0, c0, *sweep.operands)
    sweep.operands = ()
    taped = _taped(operands)
    end = steps * hidden * windows
    states_end = end + hidden * windows
    w = weights.values
    z = _operands(h0.values, steps, width)
    act, c_seq = _run(w, b_x.values + b_h.values, z, c0.values, sweep, history=taped)
    sweep.check_finite()
    if not taped:
        sweep.drop_store()
    out = _joined((z[1:, width:], c_seq[steps % len(c_seq)], z[:steps, :width]))

    def rule(grad):
        d_pre, dh0, dc0 = _bptt(w, act, c_seq, grad[:end].reshape(steps, hidden, windows),
                                grad[end:states_end].reshape(hidden, windows), sweep,
                                grad[states_end:].reshape(steps, width, windows))
        d_bias = d_pre.sum(axis=0)
        return (d_pre.T @ _rows(z[:steps]), d_bias, d_bias.copy(), dh0, dc0, *sweep.grads())

    joined = fused_op(out, operands, rule)
    states, terminal = _state_views(joined, steps, hidden, windows)
    inputs = segment(joined, states_end, out.size, (steps, width, windows))
    return states, inputs, terminal


def bilstm_sequence(params, inputs, init_forward, init_backward):
    """Run a sequence of inputs in both directions for B windows.

    `inputs` is either the (steps, width, B) array of step inputs, and then
    the forward direction is one `lstm_sequence`, or an attention sweep,
    and then the forward direction is one `attended_sequence` whose inputs
    depend on the forward state before each step.  The backward direction
    consumes the same inputs in reverse from `init_backward` as one
    `lstm_sequence`.  Returns the (steps, 2H, B) array whose step t is
    [forward h_t; backward h_t], and each direction's own terminal state
    (the backward terminal is the state after consuming the first input).
    """
    if isinstance(inputs, (Tensor, np.ndarray)):
        inputs = as_tensor(inputs)
        forward, state = lstm_sequence(params.forward, inputs, init_forward)
    else:
        forward, inputs, state = attended_sequence(params.forward, inputs, init_forward)
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
    """Linear, ReLU, linear projection of the stacked decoder states: one
    column per window in, one forecast column per window out."""
    stacked = as_tensor(stacked)
    width = params.hidden.shape[1]
    if stacked.values.ndim != 2 or stacked.shape[0] != width:
        raise DimensionError(
            f"head input shape {stacked.shape} does not match weights ({width}, windows)")
    return matmul(params.out, relu(matmul(params.hidden, stacked)))
