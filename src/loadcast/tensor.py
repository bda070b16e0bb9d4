"""Float64 tensors with reverse-mode differentiation on a per-pass tape.

The forward API is a small set of free functions (`matmul`, `sigmoid`,
`concat`, ...) operating on `Tensor` values.  Tensors built from raw arrays
are constants; tensors created through `Tape.leaf` are watched, and every
operation touching a watched tensor is recorded so that `Tape.backward`
can accumulate gradients for all leaves in a single reverse sweep over the
recording order.  That fixed order makes repeated passes bit-identical.

Every op records through `fused_op`: one node per output, whose one rule
returns a gradient for each operand.  Parts of a flat output, such as the
states of a sequence run, are taken with `segment`, which also gives the
part its shape; the gradients of the parts of one output add into one
buffer.  `check_gradients` runs `program(leaves)` once on watched leaves
and then at every perturbed point on one mapping of constants, wrapped
once and perturbed in place, so a probe pays only for its program.

Every array a tensor is built from, and every array an op computes, is
scanned once for non-finite entries, which raise `EvaluationError`.  Only
views of an already-scanned array (`segment`, `reshape`) and known zeros
skip a second scan; a perturbed point of `check_gradients` scans only the
scalar it changed.

A tape is meant to live for exactly one forward/backward pass and is
rebuilt from scratch for the next one.  Tensors themselves are safe to
share across threads as long as each thread records on its own tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EvaluationError, TapeError

REL_ERROR_FLOOR = 1e-8


class Tensor:
    """A shape-tagged float64 array, optionally recorded on a tape; its
    values are scanned for non-finite entries unless `scanned` is true."""

    __slots__ = ("values", "tape", "node")

    def __init__(self, values, tape=None, node=None, scanned=False):
        arr = np.asarray(values, dtype=np.float64)
        if not scanned:
            _require_finite(arr)
        self.values = arr
        self.tape = tape
        self.node = node

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        return float(self.values)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return hadamard(self, other)

    __rmul__ = __mul__

    def __repr__(self):
        tag = "const" if self.tape is None else f"node {self.node}"
        return f"Tensor({tag}, shape={self.shape})"


def _require_finite(arr):
    """Raise `EvaluationError` unless every entry of `arr` is finite."""
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise EvaluationError("non-finite values in tensor")


def as_tensor(values):
    """Wrap arrays, lists, or scalars as constant tensors; pass tensors through."""
    if isinstance(values, Tensor):
        return values
    return Tensor(values)


class _Node:
    __slots__ = ("parents", "rule")

    def __init__(self, parents, rule):
        self.parents = parents
        self.rule = rule


class Tape:
    """Ordered record of one forward pass, with a gradient buffer per node."""

    def __init__(self):
        self._nodes = []
        self._grads = None

    def __len__(self):
        return len(self._nodes)

    def leaf(self, values):
        """Register a watched input (typically a parameter) and return it."""
        return self._record(values, (), None)

    def _record(self, values, parents, rule, scanned=False):
        # The tensor is built (and its values checked) before the node is
        # appended, so rejected values leave the tape unchanged.
        out = Tensor(values, tape=self, node=len(self._nodes), scanned=scanned)
        self._nodes.append(_Node(tuple(p.node for p in parents), rule))
        return out

    def backward(self, loss):
        """Accumulate d(loss)/d(node) for every node reachable from `loss`.

        The sweep walks nodes in reverse recording order, which is a reverse
        topological order by construction; accumulation order is therefore
        deterministic.  Each rule, and the gradient it consumed, is dropped
        once it has run, so what the forward pass kept is freed as the
        sweep goes; a tape therefore runs backward once, and only leaves
        keep a gradient.  A rule may give a parent's gradient as a part,
        (size, slice, values), as `segment` does: the parts of one parent
        add into one zero buffer of that size, which the sweep owns.
        """
        if loss.tape is not self:
            raise TapeError("loss is not recorded on this tape")
        if loss.values.shape != ():
            raise TapeError(f"loss must be scalar, got shape {loss.values.shape}")
        if self._grads is not None:
            raise TapeError("backward has already run on this tape")
        grads = [None] * len(self._nodes)
        owned = set()  # parents whose gradient is a buffer made by this sweep
        grads[loss.node] = np.ones((), dtype=np.float64)
        for node_id in range(loss.node, -1, -1):
            g = grads[node_id]
            if g is None:
                continue
            node = self._nodes[node_id]
            rule, node.rule = node.rule, None
            if rule is None:
                continue
            grads[node_id] = None
            for parent_id, parent_grad in zip(node.parents, rule(g)):
                if isinstance(parent_grad, tuple):
                    size, key, parent_grad = parent_grad
                    if parent_id not in owned:
                        owned.add(parent_id)  # a held gradient may be shared: copy it
                        grads[parent_id] = (np.zeros(size) if grads[parent_id] is None
                                            else grads[parent_id] + 0.0)
                    grads[parent_id][key] += parent_grad
                elif grads[parent_id] is None:
                    grads[parent_id] = parent_grad
                else:
                    grads[parent_id] = grads[parent_id] + parent_grad
            del parent_grad  # not kept alive while the next rule runs
        self._grads = grads

    def grad(self, tensor):
        """Gradient of the `backward` loss with respect to the leaf `tensor`.

        Leaves the loss does not depend on get a zero gradient of matching
        shape.
        """
        if tensor.tape is not self:
            raise TapeError("tensor is not recorded on this tape")
        if self._grads is None:
            raise TapeError("backward has not been run on this tape")
        if self._nodes[tensor.node].parents:
            raise TapeError("only leaves keep a gradient")
        g = self._grads[tensor.node]
        if g is None:
            return np.zeros_like(tensor.values)
        return np.asarray(g, dtype=np.float64)


def _any_taped(operands):
    """Whether any of the tensors `operands` is recorded on a tape: a plain
    loop, which stops at the first and costs an untaped op least."""
    for t in operands:
        if t.tape is not None:
            return True
    return False


def fused_op(out_values, operands, rule, scanned=False):
    """Record `out_values` as one node whose gradients come from one closure.

    `rule(g)` returns a gradient for every operand, in order, so work they
    share is done once; the gradients of constant operands are dropped.  If
    no operand is taped the result is a constant.  `out_values` is scanned
    for non-finite entries unless `scanned` says it is a view of an
    operand's already-scanned values.
    """
    if not _any_taped(operands):
        return Tensor(out_values, scanned=scanned)
    taped = [k for k, t in enumerate(operands) if t.tape is not None]
    parents = tuple(operands[k] for k in taped)
    tape = parents[0].tape
    if any(p.tape is not tape for p in parents):
        raise TapeError("operands are recorded on different tapes")
    if len(taped) == len(operands):
        kept = rule
    else:
        def kept(g):
            grads = rule(g)
            return tuple(grads[k] for k in taped)
    return tape._record(out_values, parents, kept, scanned)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b):
    """Matrix product with the standard reverse-mode rules.

    Supports 2-D @ 2-D, 2-D @ 1-D, 1-D @ 2-D and 1-D @ 1-D operands with
    matching inner extents; for C = A B the gradients are dA = G B^T and
    dB = A^T G (with the obvious vector specializations).
    """
    a, b = as_tensor(a), as_tensor(b)
    _require_matmul(a.shape, b.shape)
    av, bv = a.values, b.values
    return fused_op(av @ bv, (a, b), lambda g: (_matmul_grad_left(g, av, bv),
                                                _matmul_grad_right(g, av, bv)))


def _require_matmul(a_shape, b_shape):
    """Raise `DimensionError` unless `matmul` takes operands of these shapes."""
    if len(a_shape) not in (1, 2) or len(b_shape) not in (1, 2):
        raise DimensionError(f"matmul expects 1-D or 2-D operands, got {a_shape} @ {b_shape}")
    if a_shape[-1] != b_shape[0]:
        raise DimensionError(f"matmul inner extents differ: {a_shape} @ {b_shape}")


def _matmul_grad_left(g, av, bv):
    if av.ndim == 2 and bv.ndim == 2:
        return g @ bv.T
    if av.ndim == 2 and bv.ndim == 1:
        return np.outer(g, bv)
    if av.ndim == 1 and bv.ndim == 2:
        return bv @ g
    return g * bv


def _matmul_grad_right(g, av, bv):
    if av.ndim == 1 and bv.ndim == 2:
        return np.outer(av, g)
    if av.ndim == 1 and bv.ndim == 1:
        return g * av
    return av.T @ g


# ---------------------------------------------------------------------------
# elementwise operations
#
# The derivative of each nonlinearity lives in its own module-level helper so
# the verification suite can demonstrate that a corrupted rule is caught.


def _sigmoid_values(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


def _sigmoid_grad(out, g):
    return g * out * (1.0 - out)


def _tanh_grad(out, g):
    return g * (1.0 - out * out)


def _summed_outer(a, b):
    """Sum over steps t and windows k of outer(a[t, :, k], b[t, :, k])."""
    return np.tensordot(a, b, axes=((0, 2), (0, 2)))


def _relu_grad(x, g):
    # relu'(0) is taken as 0.
    return np.where(x > 0.0, g, 0.0)


def sigmoid(x):
    """Logistic function, computed without overflow for large magnitudes."""
    x = as_tensor(x)
    out = _sigmoid_values(x.values)
    return fused_op(out, (x,), lambda g: (_sigmoid_grad(out, g),))


def tanh(x):
    x = as_tensor(x)
    out = np.tanh(x.values)
    return fused_op(out, (x,), lambda g: (_tanh_grad(out, g),))


def relu(x):
    x = as_tensor(x)
    xv = x.values
    return fused_op(np.maximum(xv, 0.0), (x,), lambda g: (_relu_grad(xv, g),))


def _require_same_shape(op, a, b):
    if a.shape != b.shape:
        raise DimensionError(f"{op} operands differ in shape: {a.shape} vs {b.shape}")


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _require_same_shape("add", a, b)
    return fused_op(a.values + b.values, (a, b), lambda g: (g, g))


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _require_same_shape("sub", a, b)
    return fused_op(a.values - b.values, (a, b), lambda g: (g, -g))


def hadamard(a, b):
    """Elementwise product of same-shaped tensors."""
    a, b = as_tensor(a), as_tensor(b)
    _require_same_shape("hadamard", a, b)
    av, bv = a.values, b.values
    return fused_op(av * bv, (a, b), lambda g: (g * bv, g * av))


def scale(x, factor):
    """Multiply every entry by a plain Python scalar."""
    x = as_tensor(x)
    c = float(factor)
    return fused_op(x.values * c, (x,), lambda g: (g * c,))


# ---------------------------------------------------------------------------
# softmax, concatenation, reshaping, reduction


def softmax_values(v, out=None):
    """Shift-stabilized softmax of a plain array down axis 0, so each
    column of a matrix is its own distribution; formed in place in `out`
    (a fresh array if None)."""
    e = np.subtract(v, np.maximum.reduce(v, axis=0), out)
    np.exp(e, e)
    return np.divide(e, np.add.reduce(e, axis=0), e)


def _softmax_grad(weights, g, out=None):
    """The softmax gradient from `g`, which is only read, into `out` (fresh if None)."""
    d = np.multiply(g, weights, out=out)
    np.subtract(g, np.add.reduce(d, axis=0), out=d)
    return np.multiply(d, weights, out=d)


def stable_softmax(v):
    """Softmax of a nonempty 1-D tensor, computed after subtracting max(v)."""
    v = as_tensor(v)
    if v.values.ndim != 1 or v.values.size == 0:
        raise DimensionError(f"softmax expects a nonempty 1-D tensor, got shape {v.shape}")
    out = softmax_values(v.values)
    return fused_op(out, (v,), lambda g: (_softmax_grad(out, g),))


def concat(parts, axis=0):
    """Concatenate tensors along `axis`; the gradient scatters back to parts."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise DimensionError("concat needs at least one part")
    ndim = parts[0].values.ndim
    for p in parts[1:]:
        if p.values.ndim != ndim:
            raise DimensionError(
                f"concat parts differ in rank: {parts[0].shape} vs {p.shape}")
    if not 0 <= axis < ndim:
        raise DimensionError(f"concat axis {axis} out of range for rank {ndim}")
    first = parts[0].shape
    for p in parts[1:]:
        for ax in range(ndim):
            if ax != axis and p.shape[ax] != first[ax]:
                raise DimensionError(
                    f"concat parts differ off-axis: {first} vs {p.shape}")
    out = np.concatenate([p.values for p in parts], axis=axis)
    index = [slice(None)] * ndim
    keys = []
    start = 0
    for p in parts:
        stop = start + p.shape[axis]
        index[axis] = slice(start, stop)
        keys.append(tuple(index))
        start = stop
    return fused_op(out, parts, lambda g: tuple(g[key] for key in keys))


def segment(x, start, stop, shape=None):
    """Entries `start:stop` of a 1-D tensor, as an array of `shape` (1-D if
    omitted); the gradient is zero elsewhere."""
    x = as_tensor(x)
    if x.values.ndim != 1 or not 0 <= start <= stop <= x.values.size:
        raise DimensionError(f"segment {start}:{stop} out of range for shape {x.shape}")
    part = x.values[start:stop]
    if shape is not None:
        if math.prod(shape) != part.size:
            raise DimensionError(f"cannot view segment {start}:{stop} as {tuple(shape)}")
        part = part.reshape(shape)
    if x.tape is None:
        return Tensor(part, scanned=True)
    size, key = x.values.size, slice(start, stop)
    return fused_op(part, (x,), lambda g: ((size, key, g.reshape(-1)),), scanned=True)


def reshape(x, shape):
    """Reinterpret the entries row-major under a new shape of equal size."""
    x = as_tensor(x)
    shape = tuple(map(int, shape))
    if math.prod(shape) != x.values.size:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}")
    orig = x.values.shape
    return fused_op(x.values.reshape(shape), (x,), lambda g: (g.reshape(orig),), scanned=True)


def total(x):
    """Sum of all entries as a scalar tensor."""
    x = as_tensor(x)
    shape = x.values.shape
    return fused_op(x.values.sum(), (x,), lambda g: (np.full(shape, g),))


# ---------------------------------------------------------------------------
# gradient checking


@dataclass(frozen=True)
class GradCheckReport:
    """Comparison of reverse-mode gradients against central differences:
    the largest relative error, each parameter's, and `worst`, the scalar of
    the largest as (name, index, analytic, numeric), None while it is 0."""

    max_rel_error: float
    per_param: dict
    tolerance: float
    step: float
    worst: tuple | None = None

    @property
    def passed(self):
        return bool(self.max_rel_error <= self.tolerance)

    def __str__(self):
        verdict = "pass" if self.passed else "FAIL"
        return (f"gradient check {verdict}: max rel error {self.max_rel_error:.3e} "
                f"(tolerance {self.tolerance:.1e}, step {self.step:.1e})")


def check_gradients(program, params, h=1e-5, tolerance=1e-6):
    """Compare the tape's gradients of `program` with central differences.

    `program(leaves)` must build and return a scalar loss tensor from
    `leaves`, a dict mapping parameter names to tensors, and must not
    modify it; `params` maps the same names to arrays.  The first call gets
    watched leaves, for the gradients.  Every perturbed point then gets one
    and the same mapping of constants, wrapped (and so scanned) once, whose
    arrays are perturbed in place: each scalar by +-h, and only the scalar
    changed is checked to be finite.  The relative error is |g_ad - g_fd| /
    max(|g_ad|, |g_fd|, 1e-8), inf if g_ad is not finite.  A program with
    no parameters passes vacuously.
    """
    if h <= 0.0:
        raise ValueError("finite-difference step must be positive")
    tape = Tape()
    leaves = {name: tape.leaf(arr) for name, arr in params.items()}
    loss = program(leaves)
    if loss.values.shape != ():
        raise TapeError(f"program returned a non-scalar loss of shape {loss.values.shape}")
    if not leaves:
        # Nothing to differentiate; the check passes vacuously.
        return GradCheckReport(max_rel_error=0.0, per_param={}, tolerance=tolerance,
                               step=h)
    tape.backward(loss)
    analytic = {name: tape.grad(t) for name, t in leaves.items()}
    # Constants: only the value is read, so nothing is recorded.
    consts = {name: Tensor(np.array(arr, dtype=np.float64, order="C"))
              for name, arr in params.items()}

    def loss_at(flat, i, value):
        # The other scalars were scanned when wrapped; only this one is new.
        if not math.isfinite(value):
            raise EvaluationError("non-finite values in tensor")
        flat[i] = value
        value = float(program(consts).values)
        if not math.isfinite(value):
            raise EvaluationError("non-finite loss at a perturbed point")
        return value

    per_param = {}
    worst, worst_scalar = 0.0, None
    for name, leaf in consts.items():
        flat = leaf.values.reshape(-1)
        ad_flat = analytic[name].reshape(-1)
        param_worst = 0.0
        for i in range(flat.size):
            saved = flat[i]
            f_plus = loss_at(flat, i, saved + h)
            f_minus = loss_at(flat, i, saved - h)
            flat[i] = saved
            fd = (f_plus - f_minus) / (2.0 * h)
            ad = ad_flat[i]
            rel = (abs(ad - fd) / max(abs(ad), abs(fd), REL_ERROR_FLOOR)
                   if math.isfinite(ad) else math.inf)
            if rel > param_worst:
                param_worst, scalar = rel, (i, ad, fd)
        per_param[name] = param_worst
        if param_worst > worst:
            index = tuple(int(k) for k in np.unravel_index(scalar[0], leaf.values.shape))
            worst, worst_scalar = param_worst, (name, index, float(scalar[1]), scalar[2])
    return GradCheckReport(worst, per_param, tolerance, h, worst_scalar)
