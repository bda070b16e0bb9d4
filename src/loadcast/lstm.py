"""LSTM cell, sequence runs in one or both directions, and the head.

A direction's gates are stored the way the cell computes them: one
(4H, input + H) weight matrix over [x; h] with row blocks i, f, g, o, and
two (4H,) biases, `b_x` for the input contribution and `b_h` for the
recurrent one, so a gate is sigma(W_x x + b_x + W_h h + b_h).  Those three
arrays are what is optimized and checkpointed.  Each op adds the two
biases once and returns the bias gradient to both, so a step is one
matmul, and each op one tape node with a hand-derived backward.

The four gates are one tanh: with sigma(x) = 1/2 + tanh(x/2)/2, a run
scales its weights, and its summed bias into a (D, 4H, B) tile, once by
1/2 on the i, f and o rows and 1 on the g rows (exact, as halving is), and
`_activate` maps each step's pre-activations as tanh, times that scale,
plus 1/2 on the i, f and o rows, with the read-only (D, 4H, B) tiles of
`_gate_tiles`, the one table of that scale and shift.  The activations are
the same gate values to rounding, so the backward passes are unchanged.

The sequence runs carry a window axis: a batch of B windows runs as one
recurrence whose step arrays hold one column per window, inputs
(steps, width, B) and states (H, B), so a step's gate product is one
matmul whatever B is, and a single window is B = 1.  `lstm_sequence` runs
one direction over known inputs and `bilstm_sequence` both, each as one
tape op whose output holds the states and each direction's c_T; the
states and the terminal h and c are views of it, and a caller that reads
only the states (the decoder) asks for no terminal views.

Every run of the engine has one layout: a direction axis of size D, the
one or two directions it steps, after the step axis.  A run's step t is
one product of the D packed weight matrices with the D matrices [x_t;
h_{t-1}] (a 2-D `np.dot` for one direction, a stacked `np.matmul` for
two) and the per-column arithmetic of the cell step (`_run`), which
keeps the gate activations as (steps, D, 4H, B).  Its backward
walks the steps in reverse in that same layout for the gate
pre-activation gradients, formed in the activations' own buffer
(`_bptt`), then forms the weight, bias and input gradients with one
product each over every step of every window (`_walk`).  A sequence op
is a list of runs, each knowing its direction indices: over known inputs
one run of every direction, (0, 1) or (0,); with an attention sweep, (0,),
whose inputs the sweep builds, then (1,) over those inputs, since the
sweep reads the forward h_{t-1}.  An untaped sweep op can be handed, in
place of its sweep, the `ForwardRun` of an earlier untaped one over the
same sweep parameters, forward cell, windows and forward initial state:
it steps only (1,) over the handed inputs and copies the handed forward
states and c_T into its output.  The backward direction, 1, reads its
run's inputs reversed and writes its states reversed, and its input
gradient, reversed, is what arrives on the inputs; the op's rule walks
its runs last first.  A sweep fills the input rows that depend on no
parameter into its run's [x_t; h_{t-1}] scratch once, and its numpy
forward runs inside the loop and writes the rest of step t's input in
place; its backward, inside the reverse loop, turns the gradient that
arrives on x_t into a contribution to the previous hidden state's.  A
run none of whose operands is taped keeps only what the next step reads:
the latest step's gate activations and cell state, whose views it makes
once, and of the sweep's store only the attention weights.
`lstm_cell_step`, the one-window single-step API, is a one-direction,
one-step `_run` over one window, and its backward `_walk` over that run:
the cell and the sequence ops share one derivation.  The head,
`feedforward_relu`, is one tape op over every window's stacked states,
two 2-D `np.dot`s, whose rule chains the `matmul` and `relu` gradients.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, TapeError
from .tensor import (Tensor, _any_taped, _matmul_grad_left, _matmul_grad_right, _relu_grad,
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
    if b_h.values.shape != b_shape:
        raise DimensionError(f"lstm b_h {b_h.shape} does not match b_x {b_x.shape}")
    rows = b_shape[0] if len(b_shape) == 1 else 0
    if (rows < 4 or rows % 4 or len(w_shape) != 2 or w_shape[0] != rows
            or w_shape[1] <= rows // 4):
        raise DimensionError(f"lstm blocks {weights.shape}, {b_x.shape}, {b_h.shape} are not "
                             f"(4H, input + H), (4H,), (4H,)")
    return weights, b_x, b_h


def lstm_cell_step(params, prev, x):
    """One LSTM update: i, f, o gates, candidate g, cell mix, hidden output.

    The step is one tape op producing [h; c], plus a view for each half:
    a one-direction, one-step, one-window `_run` over [x; h_prev], whose
    rule is `_walk` over that run, so its values and gradients are those of
    `lstm_sequence` over one step of one window.
    """
    weights, b_x, b_h = _cell(params)
    x, h_prev, c_prev = as_tensor(x), as_tensor(prev.h), as_tensor(prev.c)
    hidden = b_x.values.shape[0] // 4
    width = weights.values.shape[1] - hidden
    if x.shape != (width,):
        raise DimensionError(f"cell input shape {x.shape} does not match weights ({width},)")
    if h_prev.shape != (hidden,) or c_prev.shape != (hidden,):
        raise DimensionError(f"cell state shapes {h_prev.shape}, {c_prev.shape} do not match "
                             f"({hidden},)")
    w = (weights.values,)
    z = np.empty((2, 1, width + hidden, 1))
    z[0, 0, :width, 0], z[0, 0, width:, 0] = x.values, h_prev.values
    act, c_seq = _run(w, (b_x.values + b_h.values)[np.newaxis], z,
                      c_prev.values[np.newaxis, :, np.newaxis])

    def rule(grad):
        d_x = np.zeros((1, width, 1))
        d_w, d_b_x, d_b_h, dh0, dc0 = _walk(((0,), w, z, act, c_seq, None),
                                            [grad[np.newaxis, :hidden, np.newaxis]],
                                            [grad[hidden:, np.newaxis]], d_x)
        return d_w, d_b_x, d_b_h, d_x.reshape(width), dh0.reshape(hidden), dc0.reshape(hidden)

    joined = fused_op(np.concatenate((z[1, 0, width:, 0], c_seq[1, 0, :, 0])),
                      (weights, b_x, b_h, x, h_prev, c_prev), rule)
    return LstmState(segment(joined, 0, hidden), segment(joined, hidden, 2 * hidden))


@functools.cache
def _gate_tiles(hidden, windows, directions):
    """The one-tanh gate form's (scale, shift) as read-only (directions,
    4H, windows) tiles, built once per shape: (1/2, 1/2) on the i, f and o
    rows and (1, 0) on the g rows.

    With weights and summed bias multiplied by `scale`, the pre-activations
    are x/2 on the sigmoid rows and x on the g rows, and `_activate` maps
    them through sigma(x) = 1/2 + tanh(x/2)/2 and tanh(x) in one pass.
    Halving is exact, so the scaled pre-activations are exactly half of
    the unscaled ones.
    """
    scale = np.full((directions, 4 * hidden, windows), 0.5)
    scale[..., 2 * hidden:3 * hidden, :] = 1.0
    shift = 1.0 - scale
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


@functools.cache
def _gate_rows(hidden, directions):
    """Built once per H and D: the index of the i, f, g and o blocks of a
    step's (D, 4H, B) gate array and of the block its gate product writes
    (one direction's 2-D block, or all), that product (`np.dot` over one
    direction, `np.matmul` over two) and the weights' scale column from
    `_gate_tiles`, (4H, 1) for one direction, else (D, 4H, 1)."""
    lone = directions == 1
    rows = tuple((Ellipsis, slice(k * hidden, (k + 1) * hidden), slice(None)) for k in range(4))
    column = _gate_tiles(hidden, 1, directions)[0][0 if lone else Ellipsis]
    return rows + (0 if lone else Ellipsis,), np.dot if lone else np.matmul, column


def _activate(pre, scale, shift, out):
    """The four gate activations from pre-activations already scaled by
    `scale`: tanh into `out`, times `scale`, plus `shift`."""
    np.tanh(pre, out)
    out *= scale
    out += shift
    return out


def _run(w, bias, z, c0, sweep=None, history=True):
    """Step the cell of each of a run's D directions (1 or 2) over `z`,
    writing h_t into `z[t + 1]`.

    `w` holds each direction's (4H, input + H) weights, on a leading
    direction axis or as a list, `bias` the summed biases (D, 4H), `c0`
    (D, H, B) and `z` (steps + 1, D, input + H, B), whose `z[t, d]` is
    direction d's matrix [x_t; h_{t-1}] of step t, one column per window;
    every array the run makes carries the same direction axis after the
    step axis.  The caller fills every h_0 and
    x_t, or, for a one-direction run with a sweep, the rows `sweep.fill`
    writes, and then `sweep.forward(t, h_{t-1}, x_t)` writes the rest of
    x_t in place.  The weights are scaled once per run by `_gate_rows`'
    column of `_gate_tiles`' scale, in one product that stacks two
    directions and leaves a lone direction's 2-D, and the bias into one
    product with the whole tile, so each step is one gate product (a 2-D
    `np.dot` over one direction, a stacked `np.matmul` over two) and one
    tanh over every gate, on operands of the step's shape written into
    arrays made once per run.  Returns the activations and the cell
    states: with `history`, all (steps, D, 4H, B) activations and c_0 ..
    c_T, which `_bptt` reads; without, one activation slot and two cell
    slots, reused as the steps go.  Either way c_T is `c[steps % len(c)]`.
    A run without `history` makes the views of its slots (the gate blocks,
    through the index tuples of `_gate_rows`) once, not per step.
    """
    steps = len(z) - 1
    directions, hidden, windows = c0.shape
    width = z.shape[-2] - hidden
    scale, shift = _gate_tiles(hidden, windows, directions)
    rows, product, column = _gate_rows(hidden, directions)
    lead = rows[4]
    w_run = np.multiply(w[0] if directions == 1 else w, column)
    bias = bias[..., np.newaxis] * scale
    act = np.empty((steps if history else 1,) + scale.shape)
    c_seq = np.empty((len(act) + 1,) + c0.shape)
    c_seq[0] = c0
    # Without history the run steps through one activation slot and two
    # cell slots, whose views it makes once; with history it makes each
    # step's as it goes, and keeps none.
    slot = None if history else _slot(act[0], rows)
    cells = c_seq if history else (c_seq[0], c_seq[1])
    slots = len(cells)
    hs = z[..., width:, :]
    # i * g, then tanh(c_t), of the current step.
    part = np.empty(c0.shape)
    multiply, tanh = np.multiply, np.tanh  # looked up once, not per step
    for t in range(steps):
        if sweep is not None:
            sweep.forward(t, hs[t, 0], z[t, 0, :width])
        a, i, f, g, o, p = slot or _slot(act[t], rows)
        product(w_run, z[t, lead], p)
        a += bias
        _activate(a, scale, shift, a)
        c = multiply(f, cells[t % slots], cells[(t + 1) % slots])
        c += multiply(i, g, part)
        multiply(o, tanh(c, part), hs[t + 1])
    return act, c_seq


def _slot(a, rows):
    """A step's (D, 4H, B) activation slot `a`, its i, f, g and o blocks
    and the block its gate product writes, through `_gate_rows`' index
    tuples `rows`."""
    i, f, g, o, lead = rows
    return a, a[i], a[f], a[g], a[o], a[lead]


def _bptt(w, act, c_seq, grad_h, dc, sweep=None, grad_x=None):
    """Walk the steps of `_run` in reverse, every direction of the run in
    lockstep, reading its arrays as it wrote them, for the gate
    pre-activation gradients; returns them in `_run`'s (steps, D, 4H, B)
    layout, with dh_0 and dc_0, each (D, H, B).

    `w` is the run's unscaled weights, as `_run` takes them, of which only
    the transposed block the walk reads is stacked.  `grad_h` and `dc` hold
    each direction's states' gradient, (steps, H, B) in the order its run
    stepped, and c_T's, which is copied, never written.  The walk spends
    the run: the gate gradients are formed in `act`'s own buffer, starting
    as each gate's slope times the other factor of its product, and c_1 ..
    c_T become tanh(c_t) and then the o gate's slope, so that beside the
    run's arrays the walk holds only a copy of f and one scratch the size
    of the states, which serves the slopes and then holds `grad_h`.  Each
    step works on blocks of (D, H, B), written into arrays made once per
    walk, and its recurrent gradient is one product over the directions.
    With a sweep (one direction), step t's input gradient (the gate part
    plus `grad_x[t]`, what arrives on x_t from outside) goes through
    `sweep.backward`, whose (H, B) result joins the recurrent gradient for
    h_{t-1}.
    """
    steps = len(act)
    dc = np.array(dc)
    hidden, windows = dc.shape[-2:]
    # The recurrent columns, or with a sweep every column, transposed.
    cols = slice(-hidden if sweep is None else 0, None)
    w_t = np.array([w_d[:, cols].T for w_d in w])
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
    grad_h = np.stack(grad_h, axis=1, out=scratch)
    ifg = gates[..., :3, :, :]
    dh_next = np.zeros(dc.shape)
    dh, dh_o = np.empty((2,) + dc.shape)
    dz = np.empty(w_t.shape[:-1] + (windows,))
    dc_gates = dc[..., np.newaxis, :, :]
    for t in range(steps - 1, -1, -1):
        np.add(grad_h[t], dh_next, out=dh)
        dc += np.multiply(dh, o_slope[t], out=dh_o)
        ifg[t] *= dc_gates
        o[t] *= dh
        np.matmul(w_t, d_pre[t], out=dz)
        dh_next = dz if sweep is None else (
            dz[:, -hidden:] + sweep.backward(t, dz[0, :-hidden] + grad_x[t]))
        dc *= f_kept[t]
    return d_pre, dh_next, dc


class ForwardRun:
    """The forward run of an untaped sweep op, as read-only views: the
    (steps, width, B) inputs its sweep built, its (steps, H, B) forward
    states and its (H, B) forward c_T.

    Handed to `bilstm_sequence` in place of a sweep, it stands for that
    sweep over the same parameters, forward cell, windows and forward
    initial state, so the op steps only its backward direction; the op
    reads the arrays and never writes them.  A sweep whose `keeps_run` is
    true is given its untaped op's run as `run`.
    """

    __slots__ = ("inputs", "states", "c_end")

    def __init__(self, inputs, states, c_end):
        self.inputs, self.states, self.c_end = map(_read_only, (inputs, states, c_end))


def _read_only(arr):
    """A read-only view of `arr`."""
    view = np.asarray(arr).view()
    view.setflags(write=False)
    return view


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


def _direction_axis(arrays):
    """One array per direction on a leading direction axis: a view of a
    lone array, a copy of two."""
    return arrays[0][np.newaxis] if len(arrays) == 1 else np.array(arrays)


def _parts(flat, steps, hidden, windows, directions):
    """A flat [states; c_T of each direction] array as its (steps,
    directions * H, B) states and (directions, H, B) terminal cells."""
    end = steps * directions * hidden * windows
    return (flat[:end].reshape(steps, directions * hidden, windows),
            flat[end:].reshape(directions, hidden, windows))


def _run_order(d, steps):
    """`steps`, indexed by step, in the order direction d's run steps:
    reversed for the backward direction, d = 1."""
    return steps[::-1] if d else steps


def _walk(run, grad_h, dc, d_x):
    """The gradients of a run's weights, b_x, b_h, h_0 and c_0, direction
    by direction, from each direction's states' gradient (as `_bptt` reads
    them) and c_T's, reading `_bptt`'s gate gradients, formed in the run's
    activations, as they are.  `run` is the run's direction indices, its
    `_run` operands w and z, its activations and cell states, and its
    sweep or None.  Without a sweep, each direction's input gradient, the
    last direction's first, is added in step order into the (steps, width,
    B) `d_x` unless that is None; with one, `d_x` is what arrives on the
    inputs from outside."""
    directions, w, z, act, c_seq, sweep = run
    del run
    d_pre, dh0, dc0 = _bptt(w, act, c_seq, [grad_h[d] for d in directions],
                            [dc[d] for d in directions], sweep, d_x)
    # The summed outer products copy d_pre; the cell states go first.
    del act, c_seq
    width = z.shape[2] - dh0.shape[1]
    if sweep is None and d_x is not None:
        for k in reversed(range(len(directions))):
            arrives = _run_order(directions[k], d_x)
            arrives += np.matmul(w[k][:, :width].T, d_pre[:, k])
    grads = ()
    for k in range(len(directions)):
        d_bias = d_pre[:, k].sum(axis=(0, 2))
        grads += (_summed_outer(d_pre[:, k], z[:-1, k]), d_bias, d_bias.copy(), dh0[k], dc0[k])
    return grads


def _views(joined, steps, hidden, windows, directions, terminals=True):
    """The states of a `_parts` output and, with `terminals`, each
    direction's terminal state, as views: the forward h_T is the last
    step's first block, the backward one the first step's second block.
    Without `terminals` no terminal view is made and None stands for the
    list, so a caller that reads only the states records one view."""
    block = hidden * windows
    end = steps * directions * block
    states = segment(joined, 0, end, (steps, directions * hidden, windows))
    if not terminals:
        return states, None
    starts = ((end - directions * block, end), (block, end + block))[:directions]
    return states, [LstmState(segment(joined, h, h + block, (hidden, windows)),
                              segment(joined, c, c + block, (hidden, windows))) for h, c in starts]


def lstm_sequence(params, inputs, init, terminals=True):
    """Run one direction over the (steps, width, B) array `inputs`, column b
    of every step being window b's input, from the (H, B) state `init`;
    returns the hidden states as a (steps, H, B) array and the terminal
    state, views of one tape op that computes [h_1 .. h_T; c_T] with the
    arithmetic of `lstm_cell_step` per column.  Without `terminals` no
    terminal view is made, and None stands for it.
    """
    states, views = _sequence((params,), inputs, (init,), terminals)
    return states, None if views is None else views[0]


def bilstm_sequence(params, inputs, init_forward, init_backward, terminals=True):
    """Run a sequence of inputs in both directions for B windows.

    `inputs` is either the (steps, width, B) array of step inputs or an
    attention sweep (`attention.FeatureSweep`, `attention.TemporalSweep`)
    that builds step t's input, one column per window, from the forward
    h_{t-1}, or the `ForwardRun` of an earlier untaped sweep op over the
    same sweep parameters, forward cell, windows and `init_forward`, whose
    values stand in for the forward direction's in an untaped op.  The
    backward direction consumes the same inputs in reverse from
    `init_backward`.  Returns the (steps, 2H, B) states, whose step t is
    [forward h_t; backward h_t], and each direction's own terminal state
    (the backward one is the state after consuming the first input), all
    views of one tape op that computes [states; forward c_T; backward c_T]
    with the arithmetic of `lstm_cell_step` and of the sweep's attention
    per column; without `terminals` no terminal view is made, and None
    stands for the pair.  Non-finite attention intermediates raise
    `EvaluationError`, checked once after the forward direction; an
    untaped run then drops the sweep's store except its `weights`.
    """
    states, views = _sequence((params.forward, params.backward), inputs,
                              (init_forward, init_backward), terminals)
    return states, None if views is None else tuple(views)


def _sequence(cells, inputs, inits, terminals=True):
    """The op of both sequence runs, stepped as a list of runs, each over
    the indices of the directions it steps: over known inputs one run of
    every direction, (0, 1), or EDLSTM's (0,); with a sweep (0,), whose
    inputs the sweep builds, then (1,) over those inputs; with a handed
    `ForwardRun`, (1,) alone over its inputs, after its forward states and
    c_T are copied into the output, so that the output is bitwise that of
    the op over the sweep that made the run.  Each run reads its
    directions' inputs in its own order and writes their states and c_T
    into the op's output; the rule walks the runs last first, so that each
    run is gone before the walk of the one before it.  Its operands are
    each direction's weights, biases and initial state, then the inputs or
    the sweep's operands (a handed run has none: only an untaped op takes
    one, and a taped one raises `TapeError`).  An untaped sweep op whose
    sweep `keeps_run` steps its backward run in scratch of its own, so
    that the forward inputs stay as the sweep built them, and gives the
    sweep its `ForwardRun`.  Inputs are a handed run, else known inputs
    if an array, a tensor or anything without a sweep's `forward` (a
    nested list), else a sweep; a one-direction op takes known inputs
    only.  Every operand that does not fit the first cell's hidden width,
    the inputs' steps, width and windows, or the op's directions raises
    `DimensionError`.  An untaped op's output is a constant, and it keeps
    none of its runs.  Returns the states and, with `terminals`, each
    direction's terminal state, as `_views` makes them."""
    count = len(cells)
    handed = sweep = None
    if isinstance(inputs, ForwardRun):
        handed, shape = inputs, inputs.inputs.shape
    elif isinstance(inputs, (Tensor, np.ndarray)) or not hasattr(inputs, "forward"):
        inputs = as_tensor(inputs)
        shape = inputs.values.shape
    else:
        sweep, shape = inputs, (inputs.steps, inputs.width, inputs.windows)
    if count == 1 and (handed is not None or sweep is not None):
        raise DimensionError("a one-direction sequence op steps known inputs and takes no " + (
            "forward run" if sweep is None else f"sweep ({type(sweep).__name__})"))
    if len(shape) != 3:
        raise DimensionError(f"cannot encode {shape} as (steps, width, windows) inputs")
    steps, width, windows = shape
    directions = [_direction(cell, init, shape) for cell, init in zip(cells, inits)]
    hidden = len(directions[0][1].values) // 4
    if count == 2 and len(directions[1][1].values) != 4 * hidden:
        raise DimensionError(f"backward cell over hidden width {cells[1].hidden_size} does "
                             f"not fit hidden width {hidden}")
    if sweep is not None and sweep.hidden_size != hidden:
        raise DimensionError(f"sweep over hidden width {sweep.hidden_size} does not fit "
                             f"hidden width {hidden}")
    if handed is not None and (handed.states.shape != (steps, hidden, windows)
                               or handed.c_end.shape != (hidden, windows)):
        raise DimensionError(f"forward run states {handed.states.shape} and c_T "
                             f"{handed.c_end.shape} do not fit {steps} steps of hidden width "
                             f"{hidden} over {windows} windows")
    operands = sum(directions, ())
    if sweep is not None:
        operands += sweep.operands
        # The rule keeps the sweep, so the sweep must not keep the taped
        # operands: through them it would keep the tape in a reference cycle.
        sweep.operands = ()
    elif handed is None:
        operands += (inputs,)
    taped = _any_taped(operands)
    if taped and handed is not None:
        raise TapeError("a taped sequence op steps its own forward run: its gradient reads "
                        "the run's activations")
    # A sweep keeps no run unless its `keeps_run` says so.
    keeps = not taped and getattr(sweep, "keeps_run", False)
    out = np.empty((steps + 1) * count * hidden * windows)
    states, c_end = _parts(out, steps, hidden, windows, count)
    # The index, weights, summed bias, h_0 and c_0 of each direction that
    # runs: a handed run stands for the forward one.
    arrays = [(d, weights.values, b_x.values + b_h.values, h0.values, c0.values)
              for d, (weights, b_x, b_h, h0, c0) in enumerate(directions) if d or handed is None]
    if handed is not None:
        x = handed.inputs
        states[:, :hidden] = handed.states
        c_end[0] = handed.c_end
    else:
        x = None if sweep is not None else inputs.values
    picks = (arrays,) if sweep is None else (arrays[:1], arrays[1:])
    z, runs = None, []
    for picked in picks:
        run, w, bias, h0, c0 = zip(*picked)
        # A sweep builds the first run's inputs, which the next run reads.
        swept = sweep if x is None else None
        # An untaped run keeps nothing of the scratch before it but its
        # inputs, so the next run reuses it, unless the sweep keeps them.
        if taped or z is None or keeps:
            z = np.empty((steps + 1, len(run), width + hidden, windows))
        for k, d in enumerate(run):
            if swept is None:
                z[:steps, k, :width] = _run_order(d, x)
            else:
                swept.fill(z[:steps, k, :width])
            z[0, k, width:] = h0[k]
        act, c_seq = _run(w, _direction_axis(bias), z, _direction_axis(c0), swept, taped)
        if swept is not None:
            swept.check_finite()
            if not taped:
                swept.drop_store()
            x = z[:steps, 0, :width]
            if keeps:
                swept.run = ForwardRun(x, states[:, :hidden], c_end[0])
        for k, d in enumerate(run):
            states[:, d * hidden:(d + 1) * hidden] = _run_order(d, z[1:, k, width:])
        c_end[run[0]:run[-1] + 1] = c_seq[steps % len(c_seq)]
        runs.append((run, w, z, act, c_seq, swept))
    if not taped:
        return _views(Tensor(out), steps, hidden, windows, count, terminals)
    # Decided here, so that the rule keeps no reference to the inputs.
    reads_x = sweep is not None or handed is None and inputs.tape is not None

    def rule(grad):
        grad_h, dc = _parts(grad, steps, hidden, windows, count)
        # Each direction's state gradient in its run's time order.
        grad_h = [_run_order(d, grad_h[:, d * hidden:(d + 1) * hidden]) for d in range(count)]
        d_x = np.zeros(shape) if reads_x else None
        grads = ()
        while runs:
            grads = _walk(runs.pop(), grad_h, dc, d_x) + grads
        return grads + ((d_x,) if sweep is None else sweep.grads())

    return _views(fused_op(out, operands, rule), steps, hidden, windows, count, terminals)


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

    One tape op computing out @ relu(hidden @ stacked), each product a 2-D
    `np.dot`, whose rule chains the gradient rules of `matmul` and `relu`.
    The pre-activation is scanned for non-finite entries, since the ReLU
    would hide a -inf.
    """
    stacked = as_tensor(stacked)
    x = stacked.values
    width = params.hidden.shape[1]
    if x.ndim != 2 or x.shape[0] != width:
        raise DimensionError(
            f"head input shape {x.shape} does not match weights ({width}, windows)")
    hidden, out = as_tensor(params.hidden), as_tensor(params.out)
    w_hidden, w_out = hidden.values, out.values
    _require_matmul(w_hidden.shape, x.shape)
    pre = np.dot(w_hidden, x)
    _require_finite(pre)
    act = np.maximum(pre, 0.0)
    _require_matmul(w_out.shape, act.shape)

    def rule(g):
        d_pre = _relu_grad(pre, _matmul_grad_right(g, w_out, act))
        return (_matmul_grad_left(d_pre, w_hidden, x), _matmul_grad_left(g, w_out, act),
                _matmul_grad_right(d_pre, w_hidden, x))

    return fused_op(np.dot(w_out, act), (hidden, out, stacked), rule)
