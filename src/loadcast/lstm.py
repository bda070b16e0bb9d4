"""LSTM cell, sequence runs in one or both directions, and the head.

A direction's gates are stored the way the cell computes them: one
(4H, input + H) weight matrix over [x; h] with row blocks i, f, g, o, and
two (4H,) biases, `b_x` for the input contribution and `b_h` for the
recurrent one, so a gate is sigma(W_x x + b_x + W_h h + b_h).  Each op adds
the two biases once and returns the bias gradient to both, so a step is
one matmul, and each op one tape node with a hand-derived backward.  The
four gates are one tanh, sigma(x) = 1/2 + tanh(x/2)/2, through the
read-only tiles of `_gate_rows`, the one table of its scale and shift.

The sequence ops carry a window axis: B windows run as one recurrence
whose step arrays hold one column per window.  `lstm_sequence` runs one
direction over known inputs and `bilstm_sequence` both, each as one tape
op whose output holds the states and each direction's c_T, of which the
states and terminal states are views.  Every run has a direction axis of
size D, the one or two directions it steps: its step t is one product of
the D weight matrices with the D matrices [x_t; h_{t-1}] and the cell
arithmetic per column (`_run`), and its backward walks the steps in
reverse in that layout (`_bptt`), then forms the weight, bias and input
gradients with one product each (`_walk`).

A sequence op is a plan and an executor.  The plan, a `_Plan` that `_plan`
makes once per op shape after the shape checks, lists the op's runs: over
known inputs one run of every direction, (0, 1) or (0,); with an attention
sweep, (0,), whose inputs the sweep builds from the forward h_{t-1}, then
(1,) over them.  It holds the output's layout, its views' offsets and what
each run reads of its shape.  The executor, `_sequence`, looks the plan up
and does only what depends on values: it fills, steps and copies each run,
each in scratch of its own, and makes the output and its views.  The
backward direction reads its inputs and writes its states reversed, and
the rule walks the runs last first.  A sweep writes step t's input inside
the loop, `finish(taped)` ends its run, and in the reverse loop it turns
the gradient on x_t into one on h_{t-1}.  An untaped run keeps only what
its next step reads.  `lstm_cell_step` is no op of its own: it reshapes
one window's step and state for `lstm_sequence` and its terminal state
back, so every LSTM step runs through one engine.  The head,
`feedforward_relu`, is one tape op of two 2-D `np.dot`s over every
window's stacked states.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .tensor import (Tensor, _any_taped, _matmul_grad_left, _matmul_grad_right, _relu_grad,
                     _require_finite, _require_matmul, _summed_outer, as_tensor, fused_op,
                     reshape, segment)


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


def lstm_cell_step(params, prev, x):
    """One LSTM update: i, f, o gates, candidate g, cell mix, hidden output.

    The step is `lstm_sequence` over one step of one window: x becomes a
    (1, width, 1) input and the (H,) state an (H, 1) one, and the terminal
    state comes back as (H,) vectors, so its values and gradients are the
    op's and a malformed operand is refused by its checks.
    """
    x, h, c = as_tensor(x), as_tensor(prev.h), as_tensor(prev.c)
    _, last = lstm_sequence(params, reshape(x, (1,) + x.shape + (1,)),
                            LstmState(reshape(h, h.shape + (1,)), reshape(c, c.shape + (1,))))
    return LstmState(reshape(last.h, h.shape), reshape(last.c, c.shape))


@functools.cache
def _gate_rows(hidden, windows, directions):
    """What `_run` reads of its H, B and D, built once per shape: the
    one-tanh gate form's (scale, shift) as read-only (D, 4H, B) tiles,
    (1/2, 1/2) on the i, f and o rows and (1, 0) on the g rows; the index
    of each gate's block and of the block the gate product writes; that
    product (`np.dot` over one direction, `np.matmul` over two); and the
    weights' (4H, 1) or (D, 4H, 1) scale, a view of the scale tile.  With
    weights and summed bias scaled (exactly, as halving is), `_activate`
    maps the pre-activations through sigma(x) = 1/2 + tanh(x/2)/2 and
    tanh(x) in one pass."""
    scale = np.full((directions, 4 * hidden, windows), 0.5)
    scale[..., 2 * hidden:3 * hidden, :] = 1.0
    shift = 1.0 - scale
    scale.flags.writeable = shift.flags.writeable = False
    lone = directions == 1
    rows = tuple((Ellipsis, slice(k * hidden, (k + 1) * hidden), slice(None)) for k in range(4))
    return (scale, shift, rows + (0 if lone else Ellipsis,), np.dot if lone else np.matmul,
            scale[0 if lone else Ellipsis, :, :1])


def _activate(pre, scale, shift, out):
    """The four gate activations from pre-activations already scaled by
    `scale`: tanh into `out`, times `scale`, plus `shift`."""
    np.tanh(pre, out)
    out *= scale
    out += shift
    return out


def _run(w, bias, z, c0, gates, sweep=None, history=True):
    """Step the cell of each of a run's D directions (1 or 2) over `z`,
    writing h_t into `z[t + 1]`.

    `w` holds each direction's (4H, input + H) weights, `bias` the summed
    biases (D, 4H), `c0` (D, H, B), `z` (steps + 1, D, input + H, B), whose
    `z[t, d]` is direction d's [x_t; h_{t-1}], filled by the caller but for
    the rows `sweep.forward(t, h_{t-1}, x_t)` writes, and `gates` the run's
    `_gate_rows` entry.  The weights and bias are scaled once, so a step is
    one gate product and one tanh over every gate.  Returns the activations
    and cell states: with `history`, all (steps, D, 4H, B) activations and
    c_0 .. c_T, which `_bptt` reads; without, one activation slot and two
    cell slots, whose views it makes once.  c_T is `c[steps % len(c)]`.
    """
    steps = len(z) - 1
    scale, shift, rows, product, column = gates
    width = z.shape[-2] - c0.shape[1]
    lead = rows[4]
    w_run = (w[0] if len(w) == 1 else np.array(w)) * column
    bias = bias[..., np.newaxis] * scale
    act = np.empty((steps if history else 1,) + scale.shape)
    c_seq = np.empty((len(act) + 1,) + c0.shape)
    if history:  # for `_bptt`; step 0 reads `c0` itself
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
    c = c0
    for t in range(steps):
        if sweep is not None:
            sweep.forward(t, hs[t, 0], z[t, 0, :width])
        a, i, f, g, o, p = slot or _slot(act[t], rows)
        product(w_run, z[t, lead], p)
        a += bias
        _activate(a, scale, shift, a)
        c = multiply(f, c, cells[(t + 1) % slots])
        c += multiply(i, g, part)
        multiply(o, tanh(c, part), hs[t + 1])
    return act, c_seq


def _slot(a, rows):
    """A step's (D, 4H, B) activation slot `a`, its i, f, g and o blocks
    and the block its gate product writes, through `_gate_rows`' `rows`."""
    i, f, g, o, lead = rows
    return a, a[i], a[f], a[g], a[o], a[lead]


def _bptt(w, act, c_seq, grad_h, dc, sweep=None, grad_x=None):
    """Walk the steps of `_run` in reverse, every direction in lockstep,
    reading its arrays as it wrote them, for the gate pre-activation
    gradients; returns them in `_run`'s (steps, D, 4H, B) layout, with dh_0
    and dc_0, each (D, H, B).

    `w` is the run's unscaled weights, of which only the transposed block
    the walk reads is stacked.  `grad_h` and `dc` hold each direction's
    states' gradient, (steps, H, B) in its run's step order, and c_T's,
    which is copied.  The walk spends the run: the gate gradients are formed
    in `act`'s own buffer, starting as each gate's slope times the other
    factor of its product, and c_1 .. c_T become tanh(c_t) and then the o
    gate's slope, so beside the run's arrays it holds only a copy of f and
    one scratch the size of the states, which serves the slopes and then
    holds `grad_h`.  Each step works on (D, H, B) blocks in arrays made once
    per walk, and its recurrent gradient is one product over the directions.
    With a sweep (one direction), step t's input gradient plus `grad_x[t]`
    goes through `sweep.backward`, whose (H, B) result joins the recurrent
    gradient for h_{t-1}.
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


def _direction(shapes, shape):
    """The H of a direction whose weights, b_x, b_h, h_0 and c_0 have
    `shapes`, checked to be (4H, width + H), (4H,), (4H,), (H, B) and (H,
    B) for (steps, width, B) step inputs of `shape`."""
    w_shape, b_shape, bh_shape, h_shape, c_shape = shapes
    if bh_shape != b_shape:
        raise DimensionError(f"lstm b_h {bh_shape} does not match b_x {b_shape}")
    rows = b_shape[0] if len(b_shape) == 1 else 0
    if (rows < 4 or rows % 4 or len(w_shape) != 2 or w_shape[0] != rows
            or w_shape[1] <= rows // 4):
        raise DimensionError(f"lstm blocks {w_shape}, {b_shape}, {bh_shape} are not "
                             f"(4H, input + H), (4H,), (4H,)")
    hidden = rows // 4
    steps, width, windows = shape
    if steps < 1:
        raise DimensionError("cannot encode an empty sequence")
    if width != w_shape[1] - hidden:
        raise DimensionError(f"step input width {width} does not match weights "
                             f"({w_shape[1] - hidden},)")
    if h_shape != (hidden, windows) or c_shape != (hidden, windows):
        raise DimensionError(f"initial state shapes {h_shape}, {c_shape} do not match "
                             f"{(hidden, windows)}")
    return hidden


def _run_arrays(operands, dirs):
    """The weights, summed biases, h_0 and c_0 of the directions `dirs` from
    an op's operands, the biases and c_0 on a direction axis."""
    if len(dirs) == 1:
        weights, b_x, b_h, h0, c0 = operands[5 * dirs[0]:5 * dirs[0] + 5]
        return ((weights.values,), (b_x.values + b_h.values)[np.newaxis], (h0.values,),
                c0.values[np.newaxis])
    cells = [[t.values for t in operands[5 * d:5 * d + 5]] for d in dirs]
    w, bias, h0, c0 = zip(*[(weights, b_x + b_h, h0, c0) for weights, b_x, b_h, h0, c0 in cells])
    return w, np.array(bias), h0, np.array(c0)


def _parts(flat, plan):
    """A flat [states; c_T of each direction] array of an op of `plan` as
    its (steps, D * H, B) states and (D, H, B) terminal cells."""
    (states, cells), end = plan.layout, plan.end
    return flat[:end].reshape(states), flat[end:].reshape(cells)


def _walk(run, grad_h, dc, d_x):
    """The gradients of a run's weights, b_x, b_h, h_0 and c_0, direction
    by direction, from each direction's states' and c_T's gradients, through
    `_bptt`'s gate gradients as they are.  `run` is the run's directions,
    its `_run` operands w and z, its activations and cell states, and its
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
            # Direction 1 steps its inputs reversed.
            arrives = d_x[::-1] if directions[k] else d_x
            arrives += np.matmul(w[k][:, :width].T, d_pre[:, k])
    grads = ()
    for k in range(len(directions)):
        d_bias = d_pre[:, k].sum(axis=(0, 2))
        grads += (_summed_outer(d_pre[:, k], z[:-1, k]), d_bias, d_bias.copy(), dh0[k], dc0[k])
    return grads


def _views(joined, plan):
    """The states of an op's output and, if its `plan` makes them, each
    direction's terminal state, at the plan's offsets (None stands for
    those it does not make): `segment`s of a taped output, a tensor, or the
    constants `segment` makes of an untaped one, the scanned flat array."""

    def view(start, stop, shape):
        if isinstance(joined, Tensor):
            return segment(joined, start, stop, shape)
        return Tensor(joined[start:stop].reshape(shape), scanned=True)

    states, terminals = plan.views
    if terminals is None:
        return view(*states), None
    return view(*states), [LstmState(view(*h), view(*c)) for h, c in terminals]


def lstm_sequence(params, inputs, init, terminals=True):
    """Run one direction over the (steps, width, B) array `inputs`, column b
    of every step being window b's input, from the (H, B) state `init`;
    returns the hidden states as a (steps, H, B) array and the terminal
    state, views of one tape op that computes [h_1 .. h_T; c_T] with the
    cell arithmetic per column.  Without `terminals` no terminal view is
    made, and None stands for it.
    """
    states, views = _sequence((params,), inputs, (init,), terminals)
    return states, None if views is None else views[0]


def bilstm_sequence(params, inputs, init_forward, init_backward, terminals=True):
    """Run a sequence of inputs in both directions for B windows.

    `inputs` is the (steps, width, B) array of step inputs or an attention
    sweep (`attention.FeatureSweep`, `attention.TemporalSweep`) that builds
    step t's input from the forward h_{t-1}.  The backward direction
    consumes the same inputs in reverse from `init_backward`, as a run of
    its own: untaped, its states and terminal state are bitwise those of
    `lstm_sequence(params.backward, inputs[::-1], init_backward)`, its
    states reversed, which is how `model` reruns that direction alone.
    Returns the (steps, 2H, B) states, step t being [forward h_t; backward
    h_t], and each direction's own terminal state (None without
    `terminals`), views of one tape op computing [states; forward c_T;
    backward c_T].  The sweep's `finish(taped)` ends the forward
    direction: non-finite attention intermediates raise `EvaluationError`,
    and an untaped run frees the sweep's store, keeping `weights` and `inputs`.
    """
    states, views = _sequence((params.forward, params.backward), inputs,
                              (init_forward, init_backward), terminals)
    return states, None if views is None else tuple(views)


class _Plan:
    """What a sequence op decides from its shapes and whether a sweep
    builds its inputs (`swept`), read only: H, the `_parts` shapes split at
    `end` of a flat output of `size`, the `_views` offsets, and the runs,
    each its directions, the shape of the `z` it makes, its `_gate_rows`
    entry, each direction's `_columns`, its `c_end` rows and the index of
    c_T in its cell states.  It holds no array but `_gate_rows`' tiles and
    views of them."""

    __slots__ = ("hidden", "layout", "end", "size", "views", "runs")

    def __init__(self, swept, shape, hidden, count, taped, terminals):
        steps, width, windows = shape
        block, span = hidden * windows, count * hidden * windows
        self.hidden, self.end, self.size = hidden, steps * span, (steps + 1) * span
        self.layout = (steps, count * hidden, windows), (count, hidden, windows)
        starts = ((self.end - span, self.end), (block, self.end + block))[:count]
        self.views = ((0, self.end, self.layout[0]), None if not terminals else tuple(
            tuple((k, k + block, (hidden, windows)) for k in pair) for pair in starts))
        picks = ((0,), (1,)) if swept else (tuple(range(count)),)
        self.runs = tuple((dirs, (steps + 1, len(dirs), width + hidden, windows),
                           _gate_rows(hidden, windows, len(dirs)),
                           tuple(_columns(k, d, steps, width, hidden) for k, d in enumerate(dirs)),
                           slice(dirs[0], dirs[-1] + 1), steps if taped else steps % 2)
                          for dirs in picks)


def _columns(k, d, steps, width, hidden):
    """Direction d's indices, the k-th of its run: k, its inputs' and h_0's
    blocks of `z`, its order over known inputs, its states' block of `z` in
    op order, and its columns of the states."""
    return (k, (slice(None, steps), k, slice(None, width)), (0, k, slice(width, None)),
            slice(None, None, -1 if d else 1),
            (slice(-1, 0, -1) if d else slice(1, None), k, slice(width, None)),
            (slice(None), slice(d * hidden, (d + 1) * hidden)))


@functools.cache
def _plan(fit, shape, shapes, taped, terminals):
    """The `_Plan` of an op over inputs of `shape`, `fit` being the H of the
    sweep that builds them (None over known inputs) and `shapes` those of
    each direction's weights, b_x, b_h, h_0 and c_0, made after the checks:
    an operand that does not fit the first cell's H, the inputs or the op's
    directions raises `DimensionError`; a failed key is not kept."""
    if len(shape) != 3:
        raise DimensionError(f"cannot encode {shape} as (steps, width, windows) inputs")
    hidden, *other = [_direction(shapes[k:k + 5], shape) for k in range(0, len(shapes), 5)]
    if other and other[0] != hidden:
        raise DimensionError(f"backward cell over hidden width {other[0]} does not fit hidden "
                             f"width {hidden}")
    if fit is not None and fit != hidden:
        raise DimensionError(f"sweep over hidden width {fit} does not fit hidden width {hidden}")
    return _Plan(fit is not None, shape, hidden, len(shapes) // 5, taped, terminals)


def _sequence(cells, inputs, inits, terminals=True):
    """The executor of both sequence ops: it reads into one key what the
    op's shape depends on, the H of the sweep that builds the inputs (None
    over known inputs: an array, a tensor or anything without a sweep's
    `forward`, such as a nested list), their shape, each direction's
    operand shapes, whether it is taped, and `terminals`, then runs its
    `_Plan`'s runs, each in a `z` of its own, doing only what depends on
    values; the sweep's `finish(taped)` ends the first.  The operands are
    each direction's weights, biases and initial state, then the inputs or
    the sweep's operands.  A one-direction op takes known inputs only; an
    untaped op's output is a constant."""
    sweep = fit = None
    if isinstance(inputs, (Tensor, np.ndarray)) or not hasattr(inputs, "forward"):
        inputs = as_tensor(inputs)
        shape = inputs.values.shape
    else:
        sweep, fit = inputs, inputs.hidden_size
        shape = inputs.steps, inputs.width, inputs.windows
    count = len(cells)
    if count == 1 and sweep is not None:
        raise DimensionError("a one-direction sequence op steps known inputs and takes no "
                             f"sweep ({type(sweep).__name__})")
    operands = [as_tensor(array) for cell, init in zip(cells, inits)
                for array in (cell.weights, cell.b_x, cell.b_h, init.h, init.c)]
    shapes = tuple([t.values.shape for t in operands])
    operands += (inputs,) if sweep is None else sweep.operands
    taped = _any_taped(operands)
    plan = _plan(fit, shape, shapes, taped, terminals)
    hidden = plan.hidden
    out = np.empty(plan.size)
    states, c_end = _parts(out, plan)
    x = None if sweep is not None else inputs.values
    runs = []
    for dirs, z_shape, gates, columns, c_rows, c_last in plan.runs:
        w, bias, h0, c0 = _run_arrays(operands, dirs)
        # A sweep builds the first run's inputs, which the next run reads.
        swept = sweep if x is None else None
        z = np.empty(z_shape)
        for k, fill, start, order, _made, _cols in columns:
            if swept is None:
                z[fill] = x[order]
            else:
                swept.fill(z[fill])
            z[start] = h0[k]
        act, c_seq = _run(w, bias, z, c0, gates, swept, taped)
        if swept is not None:
            swept.finish(taped)
            x = z[columns[0][1]]
        for _k, _fill, _start, _order, made, cols in columns:
            states[cols] = z[made]
        c_end[c_rows] = c_seq[c_last]
        runs.append((dirs, w, z, act, c_seq, swept))
    if not taped:
        _require_finite(out)
        return _views(out, plan)
    # Decided here, so that the rule keeps no reference to the inputs.
    reads_x = sweep is not None or inputs.tape is not None

    def rule(grad):
        grad_h, dc = _parts(grad, plan)
        # Each direction's state gradient in its run's time order.
        grad_h = [grad_h[::-1 if d else 1, d * hidden:(d + 1) * hidden] for d in range(count)]
        d_x = np.zeros(shape) if reads_x else None
        grads = ()
        while runs:
            grads = _walk(runs.pop(), grad_h, dc, d_x) + grads
        return grads + ((d_x,) if sweep is None else sweep.grads())

    return _views(fused_op(out, operands, rule), plan)


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
