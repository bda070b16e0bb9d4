"""LSTM cell, sequence runs in one or both directions, and the head.

A direction's gates are stored the way the cell computes them: one
(4H, input + H) weight matrix over [x; h] with row blocks i, f, g, o, and
two (4H,) biases, `b_x` for the input contribution and `b_h` for the
recurrent one, so a gate is sigma(W_x x + b_x + W_h h + b_h).  Those three
arrays are what is optimized and checkpointed.  Each op adds the two
biases once and returns the bias gradient to both, so a cell step is one
matmul and one tape op with a hand-derived backward.

The four gates are one tanh: with sigma(x) = 1/2 + tanh(x/2)/2, a run
scales its weights, and its summed bias into a (4H, B) tile, once by 1/2
on the i, f and o rows and 1 on the g rows (exact, as halving is), and
`_activate` maps each step's pre-activations as tanh, times that scale,
plus 1/2 on the i, f and o rows, with the read-only (4H, B) tiles of
`_gate_tiles`, the one table of that scale and shift.  The activations are
the same gate values to rounding, so the backward passes are unchanged.

The sequence runs carry a window axis: a batch of B windows runs as one
recurrence whose step arrays hold one column per window, inputs
(steps, width, B) and states (H, B), so a step's gate product is one
matmul whatever B is, and a single window is B = 1.  `lstm_sequence` runs
one direction over known inputs and `bilstm_sequence` both, each as one
tape op whose output holds the states and each direction's c_T; the
states and the terminal h and c are views of it.  A direction's step t is
one product of the packed weights with [x_t; h_{t-1}] and the per-column
arithmetic of the cell step (`_run`), which keeps the gate activations as
(steps, 4H, B).  Its backward walks the steps in reverse in that same
layout for the gate pre-activation gradients (`_bptt`), then forms the
weight, bias and input gradients with one product each over every step
of every window (`_walk`).  The forward direction of a bidirectional run
may take its inputs from an attention sweep, which fills the input rows
that depend on no parameter into the run's [x_t; h_{t-1}] scratch once,
and whose numpy forward runs inside the loop and writes the rest of step
t's input in place.  The backward direction reads the same inputs
reversed; the op's backward walks it first, and its input gradient,
reversed, is what arrives on the forward direction's inputs, which the
sweep's backward, inside the reverse loop, turns into a contribution to
the previous hidden state's.  A run none of whose operands is taped
keeps only what the next step reads: the latest step's gate activations
and cell state, and of the sweep's store only the attention weights.
`lstm_cell_step` stays the one-window single-step API.  The head,
`feedforward_relu`, is one tape op over every window's stacked states,
whose rule chains the `matmul` and `relu` gradients.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .tensor import (Tensor, _matmul_grad_left, _matmul_grad_right, _relu_grad,
                     _require_finite, _require_matmul, _sigmoid_grad, _summed_outer, _tanh_grad,
                     as_tensor, fused_op, segment)


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
    columns for a sequence run; h and c are one constant, whose zeros need
    no scan."""
    shape = (hidden_size,) if windows is None else (hidden_size, windows)
    zeros = Tensor(np.zeros(shape), scanned=True)
    return LstmState(zeros, zeros)


def _cell(params):
    """The weights, b_x and b_h of `params` as tensors, checked to be
    (4H, input + H), (4H,) and (4H,)."""
    weights, b_x, b_h = as_tensor(params.weights), as_tensor(params.b_x), as_tensor(params.b_h)
    w_shape, b_shape = weights.values.shape, b_x.values.shape
    rows = b_shape[0] if len(b_shape) == 1 else 0
    if (rows < 4 or rows % 4 or b_h.values.shape != b_shape or len(w_shape) != 2
            or w_shape[0] != rows or w_shape[1] <= rows // 4):
        raise DimensionError(f"lstm blocks {weights.shape}, {b_x.shape}, {b_h.shape} are not "
                             f"(4H, input + H), (4H,), (4H,)")
    return weights, b_x, b_h


def lstm_cell_step(params, prev, x):
    """One LSTM update: i, f, o gates, candidate g, cell mix, hidden output.

    The step is one tape op producing [h; c], plus a view for each half.
    """
    weights, b_x, b_h = _cell(params)
    x, h_prev, c_prev = as_tensor(x), as_tensor(prev.h), as_tensor(prev.c)
    hidden, width = params.hidden_size, params.input_size
    if x.shape != (width,):
        raise DimensionError(f"cell input shape {x.shape} does not match weights ({width},)")
    if h_prev.shape != (hidden,) or c_prev.shape != (hidden,):
        raise DimensionError(f"cell state shapes {h_prev.shape}, {c_prev.shape} do not match "
                             f"({hidden},)")
    w = weights.values
    z = np.concatenate((x.values, h_prev.values))
    cand_rows = slice(2 * hidden, 3 * hidden)
    scale, shift = (tile[:, 0] for tile in _gate_tiles(hidden, 1))
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


@functools.cache
def _gate_tiles(hidden, windows):
    """The one-tanh gate form's (scale, shift) as read-only (4H, windows)
    tiles, built once per (hidden, windows): (1/2, 1/2) on the i, f and o
    rows and (1, 0) on the g rows.

    With weights and summed bias multiplied by `scale`, the pre-activations
    are x/2 on the sigmoid rows and x on the g rows, and `_activate` maps
    them through sigma(x) = 1/2 + tanh(x/2)/2 and tanh(x) in one pass.
    Halving is exact, so the scaled pre-activations are exactly half of
    the unscaled ones.
    """
    scale = np.full((4 * hidden, windows), 0.5)
    scale[2 * hidden:3 * hidden] = 1.0
    shift = 1.0 - scale
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


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
    are one product with `w`; the caller fills h_0 and every x_t, or with
    a sweep the rows `sweep.fill` writes, and then `sweep.forward(t,
    h_{t-1}, z[t, :input])` writes the rest of x_t in place.  The weights
    are scaled once per run by the first column of `_gate_tiles`' scale,
    and the bias into one (4H, B) product with the whole tile, so each
    step's four gates are one tanh over operands of the step's shape,
    written into arrays made once per run; the per-column arithmetic is
    that of `lstm_cell_step`.  Returns the
    activations and the cell states: with `history`, all (steps, 4H, B)
    activations and c_0 .. c_T, which `_bptt` reads; without, one
    activation slot and two cell slots, reused as the steps go.  Either
    way c_T is `c[steps % len(c)]`.
    """
    steps = z.shape[0] - 1
    hidden, windows = c0.shape
    width = z.shape[1] - hidden
    scale, shift = _gate_tiles(hidden, windows)
    w = w * scale[:, :1]
    bias = bias[:, np.newaxis] * scale
    slots = steps if history else 1
    act = np.empty((slots, 4 * hidden, windows))
    c_seq = np.empty((slots + 1, hidden, windows))
    c_seq[0] = c0
    # i * g, then tanh(c_t), of the current step.
    part = np.empty((hidden, windows))
    for t in range(steps):
        if sweep is not None:
            sweep.forward(t, z[t, width:], z[t, :width])
        a = np.matmul(w, z[t], out=act[t % slots])
        a += bias
        _activate(a, scale, shift, a)
        c = np.multiply(a[hidden:2 * hidden], c_seq[t % (slots + 1)],
                        out=c_seq[(t + 1) % (slots + 1)])
        c += np.multiply(a[:hidden], a[2 * hidden:3 * hidden], out=part)
        np.multiply(a[3 * hidden:], np.tanh(c, out=part), out=z[t + 1, width:])
    return act, c_seq


def _bptt(w, act, c_seq, grad_h, dc, sweep=None, grad_x=None):
    """Walk the steps of `_run` in reverse, reading its arrays as it wrote
    them, for the gate pre-activation gradients; returns them in `_run`'s
    (steps, 4H, B) layout, with dh_0 and dc_0.  Each step works on (H, B)
    blocks and writes dh, dh * o_slope and dc into arrays made once per
    walk; the given `dc` is copied, never written.  With a sweep, step t's
    input gradient (the gate part plus `grad_x[t]`, what arrives on x_t
    from outside) goes through `sweep.backward`, whose (H, B) result joins
    the recurrent gradient for h_{t-1}.
    """
    steps, hidden, windows = grad_h.shape
    width = w.shape[1] - hidden
    w_t = np.ascontiguousarray((w[:, width:] if sweep is None else w).T)
    i, f, cand, o = (act[:, k * hidden:(k + 1) * hidden] for k in range(4))
    tanh_c = np.tanh(c_seq[1:])
    # Everything but dh and dc, for all steps at once: d_pre starts as each
    # gate's slope times the other factor of its product, so step t only
    # scales it by dc (the i, f and g gates) or dh (the o gate).
    d_pre = np.subtract(1.0, act)
    d_pre *= act
    gates = d_pre.reshape(steps, 4, hidden, windows)
    np.subtract(1.0, np.square(cand), out=gates[:, 2])
    for k, factor in enumerate((cand, c_seq[:-1], i, tanh_c)):
        gates[:, k] *= factor
    o_slope = _tanh_grad(tanh_c, o)
    dh_next = np.zeros((hidden, windows))
    dh, dh_o = np.empty((2, hidden, windows))
    dc = np.array(dc)
    for t in range(steps - 1, -1, -1):
        np.add(grad_h[t], dh_next, out=dh)
        dc += np.multiply(dh, o_slope[t], out=dh_o)
        gates[t, :3] *= dc
        gates[t, 3] *= dh
        dz = w_t @ d_pre[t]
        dh_next = dz if sweep is None else dz[width:] + sweep.backward(t, dz[:width] + grad_x[t])
        dc *= f[t]
    return d_pre, dh_next, dc


def _direction(params, init, shape):
    """One direction's operands, weights, b_x, b_h, h_0 and c_0, checked
    against step inputs of `shape`, (steps, width, B)."""
    weights, b_x, b_h = _cell(params)
    h0, c0 = as_tensor(init.h), as_tensor(init.c)
    steps, width, windows = shape
    if steps < 1:
        raise DimensionError("cannot encode an empty sequence")
    hidden = b_x.values.shape[0] // 4
    input_size = weights.values.shape[1] - hidden
    if width != input_size:
        raise DimensionError(f"step input width {width} does not match weights "
                             f"({input_size},)")
    state = (hidden, windows)
    if h0.values.shape != state or c0.values.shape != state:
        raise DimensionError(f"initial state shapes {h0.shape}, {c0.shape} do not match {state}")
    return weights, b_x, b_h, h0, c0


def _parts(flat, steps, hidden, windows, directions):
    """A flat [states; c_T of each direction] array as its (steps,
    directions * H, B) states and (directions, H, B) terminal cells."""
    end = steps * directions * hidden * windows
    return (flat[:end].reshape(steps, directions * hidden, windows),
            flat[end:].reshape(directions, hidden, windows))


def _start(operands, z, sweep=None, history=True):
    """Run one direction over the `_run` scratch `z`, whose x_t the caller
    or `sweep` fills; returns what `_walk` reads, and c_T."""
    weights, b_x, b_h, h0, c0 = operands
    z[0, z.shape[1] - h0.shape[0]:] = h0.values
    act, c_seq = _run(weights.values, b_x.values + b_h.values, z, c0.values, sweep, history)
    return (weights.values, z, act, c_seq), c_seq[(z.shape[0] - 1) % len(c_seq)]


def _walk(run, grad_h, dc, d_x, sweep=None):
    """The gradients of a `_start` run's weights, b_x, b_h, h_0 and c_0
    from those of its states and c_T, reading `_bptt`'s (steps, 4H, B)
    gate gradients as they are.  Without a sweep, the gradient of its
    (steps, width, B) inputs is added into `d_x` unless that is None; with
    one, `d_x` is what arrives on the inputs from outside."""
    w, z, act, c_seq = run
    d_pre, dh0, dc0 = _bptt(w, act, c_seq, grad_h, dc, sweep, d_x)
    # The summed outer product copies d_pre; the activations go first.
    del run, act, c_seq
    if sweep is None and d_x is not None:
        d_x += np.matmul(w[:, :z.shape[1] - grad_h.shape[1]].T, d_pre)
    d_bias = d_pre.sum(axis=(0, 2))
    return _summed_outer(d_pre, z[:-1]), d_bias, d_bias.copy(), dh0, dc0


def _views(joined, steps, hidden, windows, directions):
    """The states of a `_parts` output and each direction's terminal state,
    as views: the forward h_T is the last step's first block, the backward
    one the first step's second block."""
    block = hidden * windows
    end = steps * directions * block
    starts = ((end - directions * block, end), (block, end + block))[:directions]
    states = segment(joined, 0, end, (steps, directions * hidden, windows))
    return states, [LstmState(segment(joined, h, h + block, (hidden, windows)),
                              segment(joined, c, c + block, (hidden, windows))) for h, c in starts]


def lstm_sequence(params, inputs, init):
    """Run one direction over the (steps, width, B) array `inputs`, column b
    of every step being window b's input, from the (H, B) state `init`;
    returns the hidden states as a (steps, H, B) array and the terminal
    state, views of one tape op that computes [h_1 .. h_T; c_T] with the
    arithmetic of `lstm_cell_step` per column.
    """
    states, (terminal,) = _sequence((params,), as_tensor(inputs), (init,))
    return states, terminal


def bilstm_sequence(params, inputs, init_forward, init_backward):
    """Run a sequence of inputs in both directions for B windows.

    `inputs` is either the (steps, width, B) array of step inputs or an
    attention sweep (`attention.FeatureSweep`, `attention.TemporalSweep`)
    that builds step t's input, one column per window, from the forward
    h_{t-1}.  The backward direction consumes the same inputs in reverse
    from `init_backward`.  Returns the (steps, 2H, B) states, whose step t
    is [forward h_t; backward h_t], and each direction's own terminal state
    (the backward one is the state after consuming the first input), all
    views of one tape op that computes [states; forward c_T; backward c_T]
    with the arithmetic of `lstm_cell_step` and of the sweep's attention
    per column.  Non-finite attention intermediates raise
    `EvaluationError`, checked once after the forward direction; an
    untaped run then drops the sweep's store except its `weights`.
    """
    states, terminals = _sequence((params.forward, params.backward), inputs,
                                  (init_forward, init_backward))
    return states, tuple(terminals)


def _sequence(cells, inputs, inits):
    """The op of both sequence runs: the forward direction, then, given a
    second cell, the backward one over the same inputs reversed.  Its
    operands are each direction's weights, biases and initial state, then
    the inputs or the sweep's operands."""
    sweep = None if isinstance(inputs, (Tensor, np.ndarray)) else inputs
    if sweep is None:
        inputs = as_tensor(inputs)
        if inputs.values.ndim != 3:
            raise DimensionError(f"cannot encode {inputs.shape} as (steps, width, windows) inputs")
    shape = inputs.shape if sweep is None else (sweep.steps, sweep.width, sweep.windows)
    steps, width, windows = shape
    directions = [_direction(cell, init, shape) for cell, init in zip(cells, inits)]
    hidden, count = cells[0].hidden_size, len(cells)
    for name, other in (("backward cell", cells[-1]), ("sweep", sweep)):
        if other is not None and other.hidden_size != hidden:
            raise DimensionError(f"{name} over hidden width {other.hidden_size} does not fit "
                                 f"hidden width {hidden}")
    operands = sum(directions, ()) + ((inputs,) if sweep is None else sweep.operands)
    if sweep is not None:
        # The rule keeps the sweep, so the sweep must not keep the taped
        # operands: through them it would keep the tape in a reference cycle.
        sweep.operands = ()
    taped = any(t.tape is not None for t in operands)
    z = np.empty((steps + 1, width + hidden, windows))
    if sweep is None:
        z[:steps, :width] = inputs.values
    else:
        sweep.fill(z[:steps, :width])
    run, c_last = _start(directions[0], z, sweep, taped)
    runs = [run]
    if sweep is not None:
        sweep.check_finite()
        if not taped:
            sweep.drop_store()
    out = np.empty((steps + 1) * count * hidden * windows)
    states, c_end = _parts(out, steps, hidden, windows, count)
    states[:, :hidden], c_end[0] = z[1:, width:], c_last
    if count == 2:
        # An untaped run keeps nothing of the forward scratch but its
        # inputs, so the backward direction reuses it.
        z_back = np.empty_like(z) if taped else z
        z_back[:steps, :width] = (inputs.values if sweep is None else z)[:steps, :width][::-1]
        run, c_end[1] = _start(directions[1], z_back, history=taped)
        runs.append(run)
        states[::-1, hidden:] = z_back[1:, width:]
    reads_x = sweep is not None or inputs.tape is not None

    def rule(grad):
        grad_h, dc = _parts(grad, steps, hidden, windows, count)
        d_x = np.zeros(shape) if reads_x else None
        # The backward direction first, so that its store is gone before the
        # forward walk; its input gradient, reversed, arrives on x_t.
        grads_back = () if count == 1 else _walk(
            runs.pop(), grad_h[::-1, hidden:], dc[1], None if d_x is None else d_x[::-1])
        grads = _walk(runs.pop(), grad_h[:, :hidden], dc[0], d_x, sweep)
        return grads + grads_back + ((d_x,) if sweep is None else sweep.grads())

    return _views(fused_op(out, operands, rule), steps, hidden, windows, count)


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
    column per window in, one forecast column per window out.

    One tape op computing out @ relu(hidden @ stacked), whose rule chains
    the gradient rules of `matmul` and `relu`.  The pre-activation is scanned
    for non-finite entries, since the ReLU would hide a -inf.
    """
    stacked = as_tensor(stacked)
    width = params.hidden.shape[1]
    if stacked.values.ndim != 2 or stacked.shape[0] != width:
        raise DimensionError(
            f"head input shape {stacked.shape} does not match weights ({width}, windows)")
    hidden, out = as_tensor(params.hidden), as_tensor(params.out)
    _require_matmul(hidden.shape, stacked.shape)
    w_hidden, w_out, x = hidden.values, out.values, stacked.values
    pre = w_hidden @ x
    _require_finite(pre)
    act = np.maximum(pre, 0.0)
    _require_matmul(out.shape, act.shape)

    def rule(g):
        d_pre = _relu_grad(pre, _matmul_grad_right(g, w_out, act))
        return (_matmul_grad_left(d_pre, w_hidden, x), _matmul_grad_left(g, w_out, act),
                _matmul_grad_right(d_pre, w_hidden, x))

    return fused_op(w_out @ act, (hidden, out, stacked), rule)
