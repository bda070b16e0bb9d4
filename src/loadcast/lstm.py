"""LSTM cell, sequence runs in one or both directions, and the head.

A direction's gates are stored the way the cell computes them: one
(4H, input + H) weight matrix over [x; h] with row blocks i, f, g, o, and
two (4H,) biases, `b_x` for the input contribution and `b_h` for the
recurrent one, so a gate is sigma(W_x x + b_x + W_h h + b_h).  Those three
arrays are what is optimized and checkpointed.  Each op adds the two
biases once and returns the bias gradient to both, so a step is one
matmul, and each op one tape node with a hand-derived backward.

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
layout for the gate pre-activation gradients, formed in the activations'
own buffer (`_bptt`), then forms the weight, bias and input gradients
with one product each over every step of every window (`_walk`).  Over
known inputs, the two directions of a bidirectional op are one stacked
run: its arrays carry a direction axis of size 2 after the step axis, the
backward direction reads the inputs reversed, each step is one stacked
product and one set of gate ufuncs over both directions, the op's
backward walks them in lockstep, and the backward direction's input
gradient, reversed, is added on the inputs before the forward one's.
The forward direction may instead take its inputs from an attention
sweep, which fills the input rows that depend on no parameter into the
run's [x_t; h_{t-1}] scratch once, and whose numpy forward runs inside
the loop and writes the rest of step t's input in place.  The sweep reads
the forward h_{t-1}, so the backward direction is then a run of its own
over the swept inputs reversed; the op's backward walks it first, and
its input gradient, reversed, is what arrives on the forward direction's
inputs, which the sweep's backward, inside the reverse loop, turns into a
contribution to the previous hidden state's.  A run none of whose
operands is taped keeps only what the next step reads: the latest step's
gate activations and cell state, and of the sweep's store only the
attention weights.
`lstm_cell_step`, the one-window single-step API, is a one-step `_run`
over one window, and its backward `_walk` over that run: the cell and the
sequence ops share one derivation.  The head,
`feedforward_relu`, is one tape op over every window's stacked states,
whose rule chains the `matmul` and `relu` gradients.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .tensor import (Tensor, _matmul_grad_left, _matmul_grad_right, _relu_grad,
                     _require_finite, _require_matmul, _summed_outer, as_tensor, fused_op,
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

    The step is one tape op producing [h; c], plus a view for each half:
    a one-step, one-window `_run` over [x; h_prev], whose rule is `_walk`
    over that run, so its values and gradients are those of `lstm_sequence`
    over one step of one window.
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
    z = np.empty((2, width + hidden, 1))
    z[0, :width, 0], z[0, width:, 0] = x.values, h_prev.values
    act, c_seq = _run(w, b_x.values + b_h.values, z, c_prev.values[:, np.newaxis])

    def rule(grad):
        d_x = np.zeros((1, width, 1))
        d_w, d_b_x, d_b_h, dh0, dc0 = _walk((w, z, act, c_seq),
                                            (grad[np.newaxis, :hidden, np.newaxis],),
                                            grad[hidden:, np.newaxis], d_x)
        return d_w, d_b_x, d_b_h, d_x.reshape(width), dh0.reshape(hidden), dc0.reshape(hidden)

    joined = fused_op(np.concatenate((z[1, width:, 0], c_seq[1, :, 0])),
                      (weights, b_x, b_h, x, h_prev, c_prev), rule)
    return LstmState(segment(joined, 0, hidden), segment(joined, hidden, 2 * hidden))


@functools.cache
def _gate_tiles(hidden, windows, directions=None):
    """The one-tanh gate form's (scale, shift) as read-only (4H, windows)
    tiles, or (directions, 4H, windows) ones for a stacked run, built once
    per shape: (1/2, 1/2) on the i, f and o rows and (1, 0) on the g rows.

    With weights and summed bias multiplied by `scale`, the pre-activations
    are x/2 on the sigmoid rows and x on the g rows, and `_activate` maps
    them through sigma(x) = 1/2 + tanh(x/2)/2 and tanh(x) in one pass.
    Halving is exact, so the scaled pre-activations are exactly half of
    the unscaled ones.
    """
    lead = () if directions is None else (directions,)
    scale = np.full(lead + (4 * hidden, windows), 0.5)
    scale[..., 2 * hidden:3 * hidden, :] = 1.0
    shift = 1.0 - scale
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


@functools.cache
def _gate_rows(hidden):
    """The index of each of the i, f, g and o row blocks of a step's (4H,
    B) gate array, or of a stacked run's (2, 4H, B) one, built once per H."""
    return tuple((Ellipsis, slice(k * hidden, (k + 1) * hidden), slice(None)) for k in range(4))


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

    One direction's run takes the (4H, input + H) weights, the (4H,) bias,
    the (H, B) c_0 and `z` (steps + 1, input + H, B), whose `z[t]` is the
    matrix [x_t; h_{t-1}] of step t, one column per window.  A stacked
    run steps both directions of a bidirectional op at once: `w` holds
    their two weight matrices, `bias` is (2, 4H), `c0` (2, H, B), `z`
    (steps + 1, 2, input + H, B), and every array it makes carries the
    same direction axis after the step axis.  The caller fills every h_0
    and x_t, or with a sweep (one direction) the rows `sweep.fill` writes,
    and then `sweep.forward(t, h_{t-1}, x_t)` writes the rest of x_t in
    place.  The weights are scaled once per run, into one array, by the
    first column of `_gate_tiles`' scale, and the bias into one product
    with the whole tile, so each step is one product, stacked over the
    directions, and one tanh over every gate, on operands of the step's
    shape written into arrays made once per run, whose gate blocks it
    reads through the index tuples of `_gate_rows`.  A two-direction `w`
    is a list of the two matrices, stacked only in that scaled copy.
    `lstm_cell_step` is a run of one step over one window.  Returns the
    activations and the cell states: with `history`, all (steps, [2,] 4H,
    B) activations and c_0 .. c_T, which `_bptt` reads; without, one
    activation slot and two cell slots, reused as the steps go.  Either
    way c_T is `c[steps % len(c)]`.
    """
    steps = len(z) - 1
    hidden, windows = c0.shape[-2:]
    width = z.shape[-2] - hidden
    scale, shift = _gate_tiles(hidden, windows, *c0.shape[:-2])
    # One copy, which stacks a two-direction list, scaled in place.
    w_run = np.array(w)
    w_run *= scale[..., :1]
    bias = bias[..., np.newaxis] * scale
    slots = steps if history else 1
    act = np.empty((slots,) + scale.shape)
    c_seq = np.empty((slots + 1,) + c0.shape)
    c_seq[0] = c0
    i, f, g, o = _gate_rows(hidden)
    hs = z[..., width:, :]
    # i * g, then tanh(c_t), of the current step.
    part = np.empty(c0.shape)
    for t in range(steps):
        if sweep is not None:
            sweep.forward(t, hs[t], z[t, :width])
        a = np.matmul(w_run, z[t], out=act[t % slots])
        a += bias
        _activate(a, scale, shift, a)
        c = np.multiply(a[f], c_seq[t % (slots + 1)], out=c_seq[(t + 1) % (slots + 1)])
        c += np.multiply(a[i], a[g], out=part)
        np.multiply(a[o], np.tanh(c, out=part), out=hs[t + 1])
    return act, c_seq


def _bptt(w, act, c_seq, grad_h, dc, sweep=None, grad_x=None):
    """Walk the steps of `_run` in reverse, both directions of a stacked
    run in lockstep, reading its arrays as it wrote them, for the gate
    pre-activation gradients; returns them in `_run`'s (steps, [2,] 4H, B)
    layout, with dh_0 and dc_0, each shaped like c_0.

    `w` is the run's unscaled weights, as `_run` takes them, and their
    transposed block is one `np.swapaxes` of them, copied.  `grad_h` holds
    each direction's states' gradient, (steps, H, B) in the order its run
    stepped, so a stacked run's backward block is passed reversed.  `dc`
    is c_T's, copied, never written.  The walk spends the run: the gate
    gradients are formed in `act`'s own buffer, starting as each gate's
    slope times the other factor of its product, and c_1 .. c_T become
    tanh(c_t) and then the o gate's slope, so that beside the run's arrays
    the walk holds only a copy of f and one scratch the size of the
    states, which serves the slopes and then holds `grad_h`, stacked over
    the directions.  Each step works on blocks of c_0's shape, written into
    arrays made once per walk, and its recurrent gradient is one product,
    stacked over the directions.  With a sweep (one direction), step t's
    input gradient (the gate part plus `grad_x[t]`, what arrives on x_t
    from outside) goes through `sweep.backward`, whose (H, B) result joins
    the recurrent gradient for h_{t-1}.
    """
    steps = len(act)
    hidden, windows = dc.shape[-2:]
    # The recurrent columns, or with a sweep every column, transposed; a
    # two-direction list is stacked into a copy that dies with this line.
    cols = slice(-hidden if sweep is None else 0, None)
    w_t = np.ascontiguousarray(np.swapaxes(w, -1, -2)[..., cols, :])
    d_pre = act
    gates = act.reshape(act.shape[:-2] + (4, hidden, windows))
    i, f, cand, o = (gates[..., k, :, :] for k in range(4))
    f_kept = f.copy()
    # d_pre starts as each gate's slope times the other factor of its
    # product, so step t only scales it by dc (the i, f and g gates) or dh
    # (the o gate); each slope is (1 - a) * a, or 1 - g * g for g.  A
    # gate's block is overwritten only once nothing else reads its
    # activation: i and g read each other, so i's goes through the scratch.
    scratch = np.empty((steps,) + dc.shape)
    np.subtract(1.0, f, out=scratch)
    f *= scratch
    f *= c_seq[:-1]
    tanh_c = np.tanh(c_seq[1:], out=c_seq[1:])
    np.subtract(1.0, o, out=scratch)
    scratch *= o
    scratch *= tanh_c
    o_slope = np.multiply(tanh_c, tanh_c, out=tanh_c)
    np.subtract(1.0, o_slope, out=o_slope)
    o_slope *= o
    o[...] = scratch
    np.subtract(1.0, i, out=scratch)
    scratch *= i
    scratch *= cand
    np.square(cand, out=cand)
    np.subtract(1.0, cand, out=cand)
    cand *= i
    i[...] = scratch
    np.stack(grad_h, axis=1, out=scratch.reshape((steps, -1, hidden, windows)))
    grad_h = scratch
    ifg = gates[..., :3, :, :]
    dh_next = np.zeros(dc.shape)
    dh, dh_o = np.empty((2,) + dc.shape)
    dz = np.empty(w_t.shape[:-1] + (windows,))
    dc = np.array(dc)
    dc_gates = dc[..., np.newaxis, :, :]
    for t in range(steps - 1, -1, -1):
        np.add(grad_h[t], dh_next, out=dh)
        dc += np.multiply(dh, o_slope[t], out=dh_o)
        ifg[t] *= dc_gates
        o[t] *= dh
        np.matmul(w_t, d_pre[t], out=dz)
        dh_next = dz if sweep is None else (
            dz[-hidden:] + sweep.backward(t, dz[:-hidden] + grad_x[t]))
        dc *= f_kept[t]
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


def _start(directions, z, sweep=None, history=True):
    """Run one direction's operands, or both directions' of a
    bidirectional op as one stacked run, over the `_run` scratch `z`,
    whose x_t the caller or `sweep` fills; returns what `_walk` reads,
    and c_T."""
    if len(directions) == 1:
        (weights, b_x, b_h, h0, c0), = directions
        z[0, -len(h0.values):] = h0.values
        w, bias, c0 = weights.values, b_x.values + b_h.values, c0.values
    else:
        for d, (_weights, _b_x, _b_h, h0, _c0) in enumerate(directions):
            z[0, d, -len(h0.values):] = h0.values
        w = [weights.values for weights, *_rest in directions]
        bias = np.array([b_x.values + b_h.values for _w, b_x, b_h, *_rest in directions])
        c0 = np.array([c0.values for *_rest, c0 in directions])
    act, c_seq = _run(w, bias, z, c0, sweep, history)
    return (w, z, act, c_seq), c_seq[(len(z) - 1) % len(c_seq)]


def _walk(run, grad_h, dc, d_x, sweep=None):
    """The gradients of a `_start` run's weights, b_x, b_h, h_0 and c_0,
    direction by direction, from those of its states (as `_bptt` reads
    them) and c_T, reading `_bptt`'s gate gradients, formed in the run's
    activations, as they are.  Without a sweep, each direction's input
    gradient, a stacked run's backward direction's first and reversed, is
    added into the (steps, width, B) `d_x` unless that is None; with one,
    `d_x` is what arrives on the inputs from outside."""
    w, z, act, c_seq = run
    del run
    d_pre, dh0, dc0 = _bptt(w, act, c_seq, grad_h, dc, sweep, d_x)
    # The summed outer products copy d_pre; the cell states go first.
    del act, c_seq
    if dc.ndim == 2:
        w, d_pre, z, dh0, dc0 = [w], d_pre[:, np.newaxis], z[:, np.newaxis], [dh0], [dc0]
    width = z.shape[2] - dh0[0].shape[0]
    if sweep is None and d_x is not None:
        for d in reversed(range(len(w))):
            arrives = d_x[::-1] if d else d_x
            arrives += np.matmul(w[d][:, :width].T, d_pre[:, d])
    grads = ()
    for d in range(len(w)):
        d_bias = d_pre[:, d].sum(axis=(0, 2))
        grads += (_summed_outer(d_pre[:, d], z[:-1, d]), d_bias, d_bias.copy(), dh0[d], dc0[d])
    return grads


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
    """The op of both sequence runs.  Over known inputs, both directions
    of a bidirectional op are one stacked run, the backward one over the
    inputs reversed, and the rule walks them in lockstep; with a sweep the
    forward direction runs first and the backward one after it, and the
    rule walks them in the other order.  Its operands are each direction's
    weights, biases and initial state, then the inputs or the sweep's
    operands."""
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
    stacked = sweep is None and count == 2
    z = np.empty((steps + 1,) + (2,) * stacked + (width + hidden, windows))
    if stacked:
        z[:steps, 0, :width] = inputs.values
        z[:steps, 1, :width] = inputs.values[::-1]
    elif sweep is None:
        z[:steps, :width] = inputs.values
    else:
        sweep.fill(z[:steps, :width])
    run, c_last = _start(directions if stacked else directions[:1], z, sweep, taped)
    runs = [run]
    if sweep is not None:
        sweep.check_finite()
        if not taped:
            sweep.drop_store()
    out = np.empty((steps + 1) * count * hidden * windows)
    states, c_end = _parts(out, steps, hidden, windows, count)
    if stacked:
        states[:, :hidden], states[::-1, hidden:] = z[1:, 0, width:], z[1:, 1, width:]
        c_end[...] = c_last
    else:
        states[:, :hidden], c_end[0] = z[1:, width:], c_last
    if sweep is not None:
        # An untaped run keeps nothing of the forward scratch but its
        # inputs, so the backward direction reuses it.
        z_back = np.empty_like(z) if taped else z
        z_back[:steps, :width] = z[:steps, :width][::-1]
        run, c_end[1] = _start(directions[1:], z_back, history=taped)
        runs.append(run)
        states[::-1, hidden:] = z_back[1:, width:]
    reads_x = sweep is not None or inputs.tape is not None

    def rule(grad):
        grad_h, dc = _parts(grad, steps, hidden, windows, count)
        # Each direction's state gradient in its run's time order.
        grad_h = (grad_h[:, :hidden], grad_h[::-1, hidden:])[:count]
        d_x = np.zeros(shape) if reads_x else None
        if sweep is None:
            return _walk(runs.pop(), grad_h, dc if stacked else dc[0], d_x) + (d_x,)
        # The backward direction first, so that its run is gone before the
        # forward walk; its input gradient, reversed, arrives on x_t.
        grads_back = _walk(runs.pop(), grad_h[1:], dc[1], d_x[::-1])
        return _walk(runs.pop(), grad_h[:1], dc[0], d_x, sweep) + grads_back + sweep.grads()

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
