"""Helpers for walking parameter trees.

Parameter containers are plain dataclasses whose fields are float64 arrays,
`Tensor` leaves, nested containers, or None.  These helpers flatten a tree
into (dotted-name, leaf) pairs in a fixed field order and rebuild it with
mapped leaves; that is how parameters get bound to a tape, snapshotted for
model selection, and handed to the optimizer.
"""

import dataclasses

import numpy as np

from .tensor import Tensor


def named_leaves(params, prefix=""):
    """Yield (dotted-name, leaf) for every array or tensor field, depth first."""
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        name = prefix + f.name
        if value is None:
            continue
        if isinstance(value, (np.ndarray, Tensor)):
            yield name, value
        elif dataclasses.is_dataclass(value):
            yield from named_leaves(value, name + ".")
        else:
            raise TypeError(f"unsupported parameter field {name!r}: {type(value).__name__}")


def map_leaves(params, fn, prefix=""):
    """Return a structural copy with every leaf replaced by fn(name, leaf),
    each container rebuilt by its own constructor."""
    fields = {}
    for field in params.__dataclass_fields__:
        value = getattr(params, field)
        name = prefix + field
        if value is None:
            fields[field] = None
        elif isinstance(value, (np.ndarray, Tensor)):
            fields[field] = fn(name, value)
        elif dataclasses.is_dataclass(value):
            fields[field] = map_leaves(value, fn, name + ".")
        else:
            raise TypeError(f"unsupported parameter field {name!r}: {type(value).__name__}")
    return type(params)(**fields)


def leaf_values(leaf):
    return leaf.values if isinstance(leaf, Tensor) else leaf


def bind(params, tape):
    """Bind every leaf to `tape` as a watched tensor."""
    return map_leaves(params, lambda _name, leaf: tape.leaf(leaf_values(leaf)))


def bind_constants(params):
    """Wrap every leaf as a constant tensor (forward passes without gradients)."""
    return map_leaves(params, lambda _name, leaf: Tensor(leaf_values(leaf)))


def snapshot(params):
    """Copy every leaf into a name-keyed dict of fresh arrays."""
    return {name: np.array(leaf_values(leaf)) for name, leaf in named_leaves(params)}
