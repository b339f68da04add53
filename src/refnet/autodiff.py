"""Reverse-mode automatic differentiation over dense float arrays.

A small tape: every operation produced while recording is enabled keeps
references to its parents and a closure that maps the output gradient to
parent gradients. ``backward`` walks the tape once in reverse topological
order. An operation computes in the dtype of its operands, so one op code
serves every precision: training and decoding run in float32, the gradient
checks build float64 data, and their complex-step oracle evaluates the
forward pass in complex128. A Python number operand takes the other
operand's dtype (NumPy's NEP 50 promotion), so a constant never widens
float32 data.
"""

from __future__ import annotations

import numpy as np

_recording = True


class no_grad:
    """Disable tape recording inside a ``with`` block (decoding, oracles)."""

    def __enter__(self):
        global _recording
        self._prev = _recording
        _recording = False
        return self

    def __exit__(self, *exc):
        global _recording
        _recording = self._prev
        return False


def _float_array(data):
    """``data`` as an array, keeping a float or complex dtype; any other
    numbers (ints, bools, Python scalars) become float64."""
    data = np.asarray(data)
    return data if data.dtype.kind in "fc" else data.astype(np.float64)


class Tensor:
    """Dense float array plus tape bookkeeping; the array keeps the float
    dtype it was made with (float32 in the stages, float64 in the checks,
    complex128 inside the gradient oracle).

    Tensors are treated as immutable values by all operations; only the
    optimizer mutates ``data`` in place, between tapes.
    """

    __slots__ = ("data", "parents", "_bwd", "requires_grad")

    def __init__(self, data, parents=(), bwd=None, requires_grad=False):
        if type(data) is not np.ndarray or data.dtype.kind not in "fc":
            data = _float_array(data)
        self.data = data
        self.parents = parents
        self._bwd = bwd
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __getitem__(self, key):
        return getitem(self, key)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a, b):
    """Both operands of a binary op as tensors. A Python number takes the
    other operand's dtype, as NEP 50 promotes it: never a 0-d float64
    array, which would widen float32 data."""
    if isinstance(a, Tensor):
        return a, (b if isinstance(b, Tensor) else _constant(b, a))
    b = as_tensor(b)
    return _constant(a, b), b


def _constant(x, like):
    if isinstance(x, (int, float)):
        return Tensor(np.asarray(x, dtype=like.data.dtype))
    return Tensor(x)


def parameter(data):
    """A leaf tensor that participates in gradients, on a copy of ``data``."""
    return Tensor(_float_array(data).copy(), requires_grad=True)


def _node(data, parents, bwd):
    """Record an op: ``data`` is its output and ``bwd(g)`` returns one
    gradient per parent, or None where a parent gets none."""
    if _recording:
        for p in parents:
            if p.requires_grad:
                return Tensor(data, parents=parents, bwd=bwd, requires_grad=True)
    return Tensor(data)


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise arithmetic

# add, sub, mul and matmul compute no gradient for an operand that needs
# none (a constant or a frozen parameter): grad_map would drop it.

def add(a, b):
    a, b = _operands(a, b)
    out = a.data + b.data
    return _node(out, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                            _unbroadcast(g, b.data.shape) if b.requires_grad else None))


def sub(a, b):
    a, b = _operands(a, b)
    out = a.data - b.data
    return _node(out, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                            _unbroadcast(-g, b.data.shape) if b.requires_grad else None))


def mul(a, b):
    a, b = _operands(a, b)
    out = a.data * b.data
    return _node(out, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad
                            else None,
                            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad
                            else None))


def square(a):
    a = as_tensor(a)
    return _node(a.data * a.data, (a,), lambda g: (2.0 * a.data * g,))


def sqrt(a):
    """Square root with the zero-subgradient convention at 0."""
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def bwd(g):
        safe = np.where(out > 0.0, out, 1.0)
        return (np.where(out > 0.0, 0.5 / safe, 0.0) * g,)

    return _node(out, (a,), bwd)


def tanh(a):
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _node(out, (a,), lambda g: (g * (1.0 - out * out),))


# ---------------------------------------------------------------------------
# linear algebra and shape ops

# What only the backward pass reads (getitem's index kind) is computed
# inside the closure, so an op under no_grad does forward work only.

def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    out = a.data @ b.data
    return _node(out, (a, b),
                 lambda g: (g @ b.data.T if a.requires_grad else None,
                            a.data.T @ g if b.requires_grad else None))


def reshape(a, shape):
    a = as_tensor(a)
    orig = a.data.shape
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def _is_basic_index(key):
    """True for keys made of ints, slices, None and Ellipsis only: they
    select every element at most once."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in parts)


def getitem(a, key):
    a = as_tensor(a)
    out = a.data[key]

    def bwd(g):
        full = np.zeros_like(a.data)
        if _is_basic_index(key):
            full[key] = g
        else:  # an index array may repeat positions: accumulate
            np.add.at(full, key, g)
        return (full,)

    return _node(out, (a,), bwd)


def sum_(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a.data.shape).copy(),)

    return _node(out, (a,), bwd)


def mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    count = a.size if axis is None else a.data.shape[axis]
    return sum_(a, axis=axis, keepdims=keepdims) * (1.0 / count)


def _add(total, part):
    """A running sum of a fused op's gradient parts (over row blocks or
    steps), added in place into the first part: a fresh array of the sum's
    shape and dtype that nothing else holds."""
    if total is None:
        return part
    total += part
    return total


def _softmax_values(x, axis=-1):
    """Numerically stable softmax of an array along ``axis``; fused ops
    share it with ``softmax``."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_grad(out, g, axis=-1):
    """Gradient of the softmax input, from its output and output gradient."""
    return out * (g - (g * out).sum(axis=axis, keepdims=True))


def softmax(a, axis=-1):
    """Numerically stable softmax along ``axis``."""
    a = as_tensor(a)
    out = _softmax_values(a.data, axis)
    return _node(out, (a,), lambda g: (_softmax_grad(out, g, axis),))


def log_softmax(a, axis=-1):
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def bwd(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _node(out, (a,), bwd)


def take_rows(table, ids):
    """Embedding lookup: rows of a 2-D table selected by an integer array of
    any shape; the output has that shape plus the row axis."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    out = table.data[ids]

    def bwd(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        return (full,)

    return _node(out, (table,), bwd)


def take_per_row(a, ids):
    """out[i] = a[i, ids[i]] for a 2-D tensor."""
    a = as_tensor(a)
    ids = np.asarray(ids, dtype=np.int64)
    rows = np.arange(a.data.shape[0])
    out = a.data[rows, ids]

    def bwd(g):
        full = np.zeros_like(a.data)
        full[rows, ids] += g  # one (row, id) pair per row: no repeats
        return (full,)

    return _node(out, (a,), bwd)


def dropout(x, rate, training=False, rng=None):
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    Identity when not training or ``rate == 0``; evaluation never rescales.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = as_tensor(x)
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    mask = (rng.random(x.data.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    return _node(x.data * mask, (x,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# backward pass

def _toposort(root):
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def grad_map(loss):
    """Gradient of a scalar loss w.r.t. every reachable leaf, keyed by id."""
    if loss.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return {}
    grads = {id(loss): np.ones_like(loss.data)}
    owned = set()  # ids whose sum this loop allocated, safe to add into
    for node in reversed(_toposort(loss)):
        g = grads.get(id(node))
        if g is None or node._bwd is None:
            continue
        for parent, pg in zip(node.parents, node._bwd(g)):
            if not parent.requires_grad or pg is None:
                continue
            key = id(parent)
            acc = grads.get(key)
            if acc is None:
                grads[key] = pg  # may alias another node's gradient
            elif key in owned:
                acc += pg
            else:
                grads[key] = acc + pg
                owned.add(key)
        if node.parents:
            del grads[id(node)]
    return grads
